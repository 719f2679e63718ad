"""Distributed-sweep semantics: many drivers, one store, exactly-once trials.

These tests spawn *real* concurrent driver processes against one shared
store and assert the layer's headline guarantees:

* every trial executes exactly once across all drivers (checked two ways:
  disjoint ``executed_keys`` sets AND an execution-count probe — the
  protocol factory appends one line to a file per actual execution);
* the merged result set is record-for-record identical to a serial run;
* a killed worker's leased trials are reclaimed after lease expiry and
  completed by a surviving driver;
* a sweep resumed after a mid-sweep kill executes only the remaining
  trials, and says once that it waits on another driver's leases;
* the HTTP store behaves identically end-to-end against a live
  ``repro store serve`` daemon on localhost;
* two ``repro sweep`` drivers on one ``--cache-dir`` run each trial once,
  and a SIGTERMed driver leaves no lease behind.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time
import warnings

import pytest

import repro
from repro.harness.parallel import build_finite_state_trials, run_trials
from repro.protocols.epidemic import (
    EpidemicProtocol,
    epidemic_completion_predicate,
)
from repro.store.server import StoreServer
from repro.store.sqlite import SqliteStore

#: Path of the execution-count probe file (one appended line per actual
#: trial execution), handed to child processes through the environment.
PROBE_ENV = "REPRO_TEST_EXECUTION_PROBE"


class ProbedEpidemic(EpidemicProtocol):
    """Epidemic protocol that tallies every construction (= every execution)."""

    def __init__(self) -> None:
        super().__init__()
        path = os.environ.get(PROBE_ENV)
        if path:
            descriptor = os.open(
                path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(descriptor, b"x\n")
            finally:
                os.close(descriptor)


def exploding_protocol():
    raise RuntimeError("trial failed on purpose")


def probed_specs():
    return build_finite_state_trials(
        population_sizes=[30, 40, 50],
        runs_per_size=2,
        protocol_factory=ProbedEpidemic,
        predicate=epidemic_completion_predicate,
        engine="count",
        max_parallel_time=200.0,
        base_seed=17,
    )


def _drive(store_url: str, owner: str, queue) -> None:
    """One claim-loop driver process; ships its outcome back over a queue."""
    outcome = run_trials(
        probed_specs(),
        store=store_url,
        owner=owner,
        lease_seconds=30.0,
        poll_interval=0.02,
    )
    queue.put(
        (
            owner,
            outcome.executed_keys,
            outcome.from_cache,
            [
                (record.population_size, record.seed, record.convergence_time)
                for record in outcome.records
            ],
        )
    )


def _run_two_drivers(store_url: str, probe_path) -> None:
    """Shared body of the SQLite and HTTP two-driver tests."""
    specs = probed_specs()
    serial = run_trials(specs)  # probe env not yet set: reference run untallied

    context = multiprocessing.get_context()
    queue = context.Queue()
    drivers = [
        context.Process(target=_drive, args=(store_url, f"driver-{i}", queue))
        for i in range(2)
    ]
    os.environ[PROBE_ENV] = str(probe_path)
    try:
        for process in drivers:
            process.start()
        outcomes = [queue.get(timeout=120) for _ in drivers]
    finally:
        del os.environ[PROBE_ENV]
    for process in drivers:
        process.join(timeout=120)
        assert process.exitcode == 0

    # Exactly-once, probe one: the drivers' executed-key sets partition the
    # sweep — disjoint, and their union covers every trial.
    key_sets = {owner: set(keys) for owner, keys, _, _ in outcomes}
    all_keys = {spec.cache_key() for spec in specs}
    assert set.union(*key_sets.values()) == all_keys
    assert not set.intersection(*key_sets.values())
    executed_total = sum(len(keys) for _, keys, _, _ in outcomes)
    assert executed_total == len(specs)
    # Every driver still returns the *full* record list (replaying the
    # other driver's trials from the store).
    for owner, keys, from_cache, _ in outcomes:
        assert from_cache == len(specs) - len(keys)

    # Exactly-once, probe two: each execution constructed one protocol.
    assert probe_path.read_text().count("x") == len(specs)

    # Merged results are record-for-record identical to the serial run.
    serial_view = [
        (record.population_size, record.seed, record.convergence_time)
        for record in serial.records
    ]
    for _, _, _, view in outcomes:
        assert view == serial_view


class TestTwoDriversOneStore:
    def test_sqlite_store_exactly_once_and_serial_identical(self, tmp_path):
        _run_two_drivers(
            f"sqlite:{tmp_path / 'db.sqlite'}", tmp_path / "probe.log"
        )

    def test_http_store_exactly_once_and_serial_identical(self, tmp_path):
        with StoreServer(tmp_path / "db.sqlite", port=0) as server:
            _run_two_drivers(server.url, tmp_path / "probe.log")


def _doomed_worker(store_url: str, keys, ready) -> None:
    """Claims trials with a short lease, signals readiness, then hangs."""
    store = SqliteStore(store_url, lease_seconds=0.5)
    for key in keys:
        claim = store.claim(key, lease=0.5, owner="doomed")
        assert claim.acquired
    ready.set()
    time.sleep(600)  # "crashed": never appends, never releases


class TestLeaseExpiryReclaim:
    def test_killed_workers_trials_are_reclaimed_and_completed(
        self, tmp_path, records_equal
    ):
        specs = probed_specs()
        db_path = str(tmp_path / "db.sqlite")
        victim_keys = [spec.cache_key() for spec in specs[:2]]

        context = multiprocessing.get_context()
        ready = context.Event()
        worker = context.Process(
            target=_doomed_worker, args=(db_path, victim_keys, ready)
        )
        worker.start()
        assert ready.wait(timeout=30), "worker never claimed its trials"
        os.kill(worker.pid, signal.SIGKILL)  # crash mid-trial, leases held
        worker.join(timeout=30)

        outcome = run_trials(
            probed_specs(),
            store=f"sqlite:{db_path}",
            owner="survivor",
            lease_seconds=30.0,
            poll_interval=0.05,
        )
        # The survivor had to wait out the dead worker's 0.5 s leases, then
        # reclaim and execute *every* trial, including the victim's two.
        assert set(outcome.executed_keys) == {spec.cache_key() for spec in specs}
        serial = run_trials(probed_specs())
        assert all(
            records_equal(left, right)
            for left, right in zip(serial.records, outcome.records)
        )
        with SqliteStore(db_path) as store:
            status = store.status()
        assert status.completed == len(specs)
        assert status.leased == 0 and status.stale == 0


class TestResumeAfterKill:
    def test_resumed_sweep_executes_only_remaining_trials(
        self, tmp_path, records_equal
    ):
        # Emulate a mid-sweep kill: the first "driver" completes part of the
        # sweep and dies holding a lease on its in-flight trial.
        specs = probed_specs()
        db_path = str(tmp_path / "db.sqlite")
        keys = [spec.cache_key() for spec in specs]
        serial = run_trials(probed_specs())
        with SqliteStore(db_path) as store:
            for spec, key, record in zip(specs[:3], keys[:3], serial.records[:3]):
                assert store.claim(key, lease=30.0, owner="killed").acquired
                store.append(key, record)
            assert store.claim(keys[3], lease=0.2, owner="killed").acquired

        outcome = run_trials(
            probed_specs(),
            store=f"sqlite:{db_path}",
            owner="resumer",
            lease_seconds=30.0,
            poll_interval=0.05,
        )
        assert outcome.from_cache == 3
        assert set(outcome.executed_keys) == set(keys[3:])
        assert all(
            records_equal(left, right)
            for left, right in zip(serial.records, outcome.records)
        )


class TestPoolDriversShareStores:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_pool_matches_serial_through_a_store(
        self, tmp_path, workers, records_equal
    ):
        specs = probed_specs()
        serial = run_trials(specs)
        outcome = run_trials(
            probed_specs(),
            workers=workers,
            store=f"sqlite:{tmp_path / 'db.sqlite'}",
        )
        assert outcome.executed == len(specs)
        assert all(
            records_equal(left, right)
            for left, right in zip(serial.records, outcome.records)
        )


class TestRaisingTrialReleasesLeases:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_lease_outlives_the_raise(self, tmp_path, workers):
        # The failing trial goes first, so with a pool it raises while the
        # slower trial dispatched beside it is still running: the driver
        # must hand back both leases, or a resumed sweep waits them out.
        exploding = build_finite_state_trials(
            population_sizes=[30],
            runs_per_size=1,
            protocol_factory=exploding_protocol,
            predicate=epidemic_completion_predicate,
            engine="count",
        )
        slow = build_finite_state_trials(
            population_sizes=[5000],
            runs_per_size=3,
            protocol="epidemic",
            engine="count",
        )
        db_path = tmp_path / "db.sqlite"
        with pytest.raises(RuntimeError, match="on purpose"):
            run_trials(exploding + slow, workers=workers, store=f"sqlite:{db_path}")
        with SqliteStore(db_path) as store:
            status = store.status()
        assert status.leased == 0


class TestWaitingOnForeignLeases:
    def test_one_warning_then_the_trial_runs(self, tmp_path):
        (spec,) = build_finite_state_trials(
            [40], 1, protocol="epidemic", engine="count", base_seed=3
        )
        db_path = tmp_path / "db.sqlite"
        with SqliteStore(db_path) as store:
            claim = store.claim(spec.cache_key(), lease=1.0, owner="dead-driver")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = run_trials(
                [spec], store=f"sqlite:{db_path}", poll_interval=0.02
            )
        (waiting,) = [str(entry.message) for entry in caught]
        assert "waiting on 1 trial leased by dead-driver" in waiting
        assert f"unix time {claim.expires:.0f}" in waiting
        assert outcome.executed_keys == [spec.cache_key()]


#: The sweep two CLI drivers share: three count-engine trials of about a
#: second each, so drivers started together overlap.
CLI_SWEEP = ("sweep", "--protocol", "epidemic", "--engine", "count",
             "--sizes", "20000", "--runs", "3", "--seed", "5")


def start_cli(*argv: str) -> subprocess.Popen:
    """``python -m repro.cli ARGV`` in a fresh process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def lease_rows(db_path) -> int:
    """Rows of the ``leases`` table; 0 before the store has its schema."""
    if not os.path.exists(db_path):
        return 0
    connection = sqlite3.connect(db_path)
    try:
        return connection.execute("SELECT COUNT(*) FROM leases").fetchone()[0]
    except sqlite3.OperationalError:  # no table yet
        return 0
    finally:
        connection.close()


class TestCliDrivers:
    def test_two_drivers_on_one_cache_dir_run_each_trial_once(self, tmp_path):
        drivers = [
            start_cli(*CLI_SWEEP, "--cache-dir", str(tmp_path), "--resume")
            for _ in range(2)
        ]
        outputs = [driver.communicate(timeout=120) for driver in drivers]
        assert [driver.returncode for driver in drivers] == [0, 0], outputs
        executed = [
            int(re.search(r"3 total, (\d) executed", out).group(1))
            for out, _ in outputs
        ]
        assert sum(executed) == 3
        with SqliteStore(tmp_path / "epidemic-count.sqlite") as store:
            status = store.status()
        assert (status.completed, status.leases) == (3, ())

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sigterm_mid_trial_leaves_no_lease(self, tmp_path, workers):
        db_path = tmp_path / "db.sqlite"
        driver = start_cli(
            *CLI_SWEEP, "--workers", workers, "--store", f"sqlite:{db_path}"
        )
        deadline = time.monotonic() + 60
        while lease_rows(db_path) == 0:
            assert driver.poll() is None, driver.communicate()
            assert time.monotonic() < deadline, "the sweep never claimed"
            time.sleep(0.02)
        driver.send_signal(signal.SIGTERM)
        _, err = driver.communicate(timeout=60)
        assert driver.returncode == 143, err
        assert "Traceback" not in err
        assert lease_rows(db_path) == 0
