"""Unit tests for the result-store layer (URL parsing, JSONL, SQLite)."""

from __future__ import annotations

import math

import pytest

from repro.harness.results import RunRecord, records_equal
from repro.store import (
    CLAIM_ACQUIRED,
    CLAIM_DONE,
    CLAIM_LEASED,
    STORE_KEY_EXCLUDED_FIELDS,
    StoreError,
    StoreSpec,
    open_store,
    parse_store_url,
)
from repro.store.jsonl import JsonlStore
from repro.store.sqlite import SqliteStore


def make_record(seed: int = 7, interactions: int = 120) -> RunRecord:
    return RunRecord(
        population_size=64,
        seed=seed,
        converged=True,
        convergence_time=4.5,
        extra={"engine": "count", "interactions": interactions},
    )


class TestStoreUrls:
    def test_jsonl_and_sqlite_split_on_first_colon(self):
        spec = parse_store_url("jsonl:/data/cache:dir")
        assert (spec.scheme, spec.location) == ("jsonl", "/data/cache:dir")
        spec = parse_store_url("sqlite:results.sqlite")
        assert (spec.scheme, spec.location) == ("sqlite", "results.sqlite")

    def test_http_keeps_the_whole_url(self):
        spec = parse_store_url("http://host:8512")
        assert spec.scheme == "http"
        assert spec.location == "http://host:8512"
        assert spec.url() == "http://host:8512"

    @pytest.mark.parametrize("url", ["", "no-scheme", "ftp:/x", "jsonl:"])
    def test_malformed_urls_are_rejected(self, url):
        with pytest.raises(StoreError):
            parse_store_url(url)

    def test_non_positive_lease_is_rejected(self):
        with pytest.raises(StoreError):
            StoreSpec(scheme="sqlite", location="x", lease_seconds=0.0)

    def test_open_store_dispatches_by_scheme(self, tmp_path):
        jsonl = open_store(f"jsonl:{tmp_path / 'cache'}")
        sqlite = open_store(f"sqlite:{tmp_path / 'db.sqlite'}")
        assert isinstance(jsonl, JsonlStore)
        assert isinstance(sqlite, SqliteStore)
        # An already-open store passes through untouched.
        assert open_store(sqlite) is sqlite
        sqlite.close()

    def test_store_spec_fields_match_the_audit_list(self):
        import dataclasses

        assert {f.name for f in dataclasses.fields(StoreSpec)} == set(
            STORE_KEY_EXCLUDED_FIELDS
        )


class TestJsonlStore:
    def test_reopens_its_own_files(self, tmp_path):
        # Records appended through one store instance are visible to the
        # next one opened on the same directory — same file, same format.
        JsonlStore(tmp_path, name="sweep").append("k1", make_record(seed=1))
        store = JsonlStore(tmp_path, name="sweep")
        assert records_equal(store.get("k1"), make_record(seed=1))
        store.append("k2", make_record(seed=2))
        reloaded = JsonlStore(tmp_path, name="sweep")
        assert records_equal(reloaded.get("k2"), make_record(seed=2))

    def test_in_memory_store_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = JsonlStore()
        store.append("k", make_record())
        assert records_equal(store.get("k"), make_record())
        assert store.path is None
        assert store.describe() == "jsonl:(memory)"
        assert list(tmp_path.iterdir()) == []

    def test_claim_cycle(self, tmp_path):
        store = JsonlStore(tmp_path)
        claim = store.claim("k", owner="a")
        assert claim.status == CLAIM_ACQUIRED
        assert store.claim("k", owner="b").status == CLAIM_LEASED
        store.append("k", make_record())
        done = store.claim("k", owner="b")
        assert done.status == CLAIM_DONE
        assert records_equal(done.record, make_record())

    def test_release_frees_the_key(self, tmp_path):
        store = JsonlStore(tmp_path)
        store.claim("k", owner="a")
        store.release("k", owner="a")
        assert store.claim("k", owner="b").status == CLAIM_ACQUIRED

    def test_status_counts(self, tmp_path):
        store = JsonlStore(tmp_path)
        store.append("k1", make_record(seed=1))
        store.claim("k2", owner="a")
        status = store.status()
        assert (status.completed, status.leased, status.stale) == (1, 1, 0)
        assert status.workloads[0].workload == "count"
        assert status.workloads[0].interactions == 120


class TestSqliteStore:
    def test_round_trip_preserves_records_exactly(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        record = RunRecord(
            population_size=10,
            seed=3,
            converged=False,
            convergence_time=None,
            max_additive_error=math.inf,
            extra={"engine": "vector", "final_estimate_mean": math.nan},
        )
        store.append("k", record)
        loaded = store.get("k")
        # Same canonicalisation as the JSONL cache: non-finite floats load
        # as NaN (max_additive_error) / None (inside extra).
        assert math.isnan(loaded.max_additive_error)
        assert loaded.extra["final_estimate_mean"] is None
        assert loaded.converged is False and loaded.convergence_time is None
        store.close()

    def test_atomic_claim_done_leased(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        first = store.claim("k", lease=60.0, owner="a")
        assert first.status == CLAIM_ACQUIRED and first.expires is not None
        second = store.claim("k", lease=60.0, owner="b")
        assert second.status == CLAIM_LEASED and second.owner == "a"
        # The holder may re-claim (refresh) its own lease.
        assert store.claim("k", lease=60.0, owner="a").status == CLAIM_ACQUIRED
        store.append("k", make_record())
        assert store.claim("k", owner="b").status == CLAIM_DONE
        store.close()

    def test_expired_lease_is_reclaimed(self, tmp_path):
        import time

        store = SqliteStore(tmp_path / "db.sqlite")
        store.claim("k", lease=0.05, owner="crashed-worker")
        time.sleep(0.1)
        reclaim = store.claim("k", lease=60.0, owner="b")
        assert reclaim.status == CLAIM_ACQUIRED and reclaim.owner == "b"
        store.close()

    def test_release_respects_ownership(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        store.claim("k", lease=60.0, owner="a")
        store.release("k", owner="b")  # not the holder: no-op
        assert store.claim("k", lease=60.0, owner="c").status == CLAIM_LEASED
        store.release("k", owner="a")
        assert store.claim("k", lease=60.0, owner="c").status == CLAIM_ACQUIRED
        store.close()

    def test_pending_batches_and_preserves_order(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        store.append("k2", make_record())
        keys = [f"k{i}" for i in range(600)]  # crosses the chunk boundary
        pending = store.pending(keys)
        assert "k2" not in pending
        assert pending == [k for k in keys if k != "k2"]
        store.close()

    def test_status_reports_stale_leases_and_throughput(self, tmp_path):
        import time

        store = SqliteStore(tmp_path / "db.sqlite")
        claim = store.claim("done-key", lease=60.0, owner="a")
        assert claim.status == CLAIM_ACQUIRED
        store.append("done-key", make_record(interactions=500))
        store.claim("stale-key", lease=0.01, owner="dead")
        store.claim("live-key", lease=60.0, owner="alive")
        time.sleep(0.05)
        status = store.status()
        assert (status.completed, status.leased, status.stale) == (1, 1, 1)
        by_key = {entry.key: entry for entry in status.leases}
        assert by_key["stale-key"].stale and not by_key["live-key"].stale
        (workload,) = status.workloads
        # Wall time is derived from the claim that started the trial, so
        # throughput reporting needs no driver-side clock.
        assert workload.interactions == 500 and workload.wall_seconds > 0
        store.close()

    def test_append_is_write_once(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        store.append("k", make_record(seed=1))
        store.append("k", make_record(seed=2))  # late duplicate: ignored
        assert store.get("k").seed == 1
        assert store.status().completed == 1
        store.close()
