"""The native vector kernels are the numpy runs, bit for bit.

The native backend draws the vector engine's matching and applies the
``Log-Size-Estimation`` round in C, on the engine generator's own
``bitgen_t`` through numpy's distribution functions, and under the uniform
matching scheduler runs those rounds back to back in one C loop.  That is a
bitwise contract, not a distributional one: after every round, every
protocol field and the generator state must equal the numpy run's, and a
run through the loop must stop on the numpy run's round.  The matching
reproduces ``Generator.permutation``'s shuffle loop, which is numpy-internal
rather than exported API, so these direct comparisons are what notice a
numpy release that changes it.  The native cases are skipped without the
native backend.
"""

from __future__ import annotations

import importlib.machinery
import os
import shutil
import sys

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend import native_backend
from repro.backend.native_backend import NativeBackend
from repro.core.array_simulator import LogSizeVectorProtocol
from repro.core.parameters import ProtocolParameters
from repro.core.vector_leader import LeaderTerminatingVectorProtocol
from repro.engine.configuration import Configuration
from repro.engine.scheduler import draw_matching_arrays
from repro.engine.vector import VectorFields, VectorSimulator
from repro.exceptions import ConvergenceError, SimulationError

needs_native = pytest.mark.skipif(
    not NativeBackend.available(), reason="native backend unavailable"
)

PAPER = ProtocolParameters.paper()
FAST = ProtocolParameters.fast_test()
#: Below 1/3 numpy's random_geometric takes its inversion branch.
INVERSION = ProtocolParameters(
    clock_threshold_factor=8, epochs_factor=2, geometric_success_probability=0.2
)


def _snapshot(simulator: VectorSimulator) -> tuple:
    fields = simulator.fields
    return (
        {name: fields[name].tobytes() for name in fields.names()},
        simulator.rng.bit_generator.state,
    )


def _assert_rounds_match(factory, n, seed, scheduler=None, max_rounds=1_500):
    """Run numpy and native side by side, comparing after every round until
    both are done or ``max_rounds`` rounds ran; return the rounds run."""
    reference = VectorSimulator(
        factory(), n, seed=seed, scheduler=scheduler, backend="numpy"
    )
    native = VectorSimulator(
        factory(), n, seed=seed, scheduler=scheduler, backend="native"
    )
    assert _snapshot(native) == _snapshot(reference)
    for round_index in range(max_rounds):
        reference.run_round()
        native.run_round()
        assert _snapshot(native) == _snapshot(reference), (n, seed, round_index)
        # The native all-done reads the kernel's count, numpy scans ``done``.
        assert native.all_done() == reference.all_done(), (n, seed, round_index)
        if reference.all_done():
            return round_index + 1
    return max_rounds


@needs_native
class TestLogSizeRoundIsBitwise:
    @pytest.mark.parametrize(
        "params", [PAPER, FAST, INVERSION], ids=["paper", "fast", "inversion"]
    )
    @pytest.mark.parametrize("n", [2, 3, 7, 48, 201, 1000])
    def test_every_round_equals_numpy(self, n, params):
        # Fast constants reach all-done within the cap below n = 1000, which
        # covers the output pass and the done counts.
        for seed in (1, 2, 3):
            _assert_rounds_match(
                lambda: LogSizeVectorProtocol(params),
                n,
                seed,
                max_rounds=300 if n == 1000 else 1_500,
            )

    @pytest.mark.parametrize(
        "scheduler", ["matching", "weighted", "quiescing", "two-block"]
    )
    def test_every_round_scheduler(self, scheduler):
        for seed in (1, 2):
            rounds = _assert_rounds_match(
                lambda: LogSizeVectorProtocol(FAST),
                80,
                seed,
                scheduler=scheduler,
                max_rounds=5_000,
            )
            assert rounds < 5_000, scheduler

    def test_leader_terminating(self):
        for seed in (1, 2):
            rounds = _assert_rounds_match(
                lambda: LeaderTerminatingVectorProtocol(FAST, phase_count=8),
                60,
                seed,
                max_rounds=5_000,
            )
            assert rounds < 5_000

    def test_output_pass_waits_for_a_done_agent(self):
        """The numpy output sub-step does nothing until some agent is done,
        even where an output is already set; the kernel's done count, taken
        from the fields when it binds, must skip it the same way."""

        def one_round(backend):
            protocol = LogSizeVectorProtocol(FAST)
            fields = VectorFields(4)
            protocol.init_fields(fields, np.random.default_rng(0))
            fields["role"][:] = [1, 2, 1, 2]
            fields["output"][0] = 5.0
            protocol.bind_backend(get_backend(backend))
            protocol.apply_round(
                fields, np.array([0, 2]), np.array([1, 3]), protocol.rng
            )
            return {name: fields[name].tobytes() for name in fields.names()}

        assert one_round("native") == one_round("numpy")


class _Traced(VectorSimulator):
    """A Log-Size-Estimation run with a configuration (the role histogram),
    so the shared ``run_with_trace`` can snapshot it."""

    def configuration(self):
        return Configuration.from_states(self.fields["role"].tolist())


def _run_state(simulator: VectorSimulator) -> tuple:
    """Everything a run leaves behind: fields, generator, clock and the
    sampled field ranges."""
    return _snapshot(simulator) + (
        simulator.rounds,
        simulator.interactions,
        simulator.parallel_time,
        {
            name: simulator.fields.max_observed(name)
            for name in simulator.protocol.tracked_fields
        },
    )


def _both(n, params, seed, run, simulator=VectorSimulator):
    """``run(simulator)`` on numpy and on native: for each, what it returned
    (or the ``ConvergenceError`` message) and the run state it left."""
    outcomes = []
    for backend in ("numpy", "native"):
        engine = simulator(LogSizeVectorProtocol(params), n, seed=seed, backend=backend)
        try:
            returned = run(engine)
        except ConvergenceError as error:
            returned = ("ConvergenceError", str(error))
        outcomes.append((returned, _run_state(engine)))
    return outcomes


@needs_native
class TestFusedRunIsBitwise:
    """Under the matching scheduler a native run goes through the C run loop,
    which must stop on the numpy run's round with the numpy run's state."""

    @pytest.mark.parametrize("every_round", [True, False], ids=["every-round", "interval"])
    @pytest.mark.parametrize(
        "params", [PAPER, FAST, INVERSION], ids=["paper", "fast", "inversion"]
    )
    @pytest.mark.parametrize("n", [2, 3, 7, 48, 1001])
    def test_run_until_all_done_equals_numpy(self, n, params, every_round):
        check_interval = None if every_round else 3 * (n // 2) + 1
        # Fast constants converge within this budget; paper and inversion
        # constants run it out at the larger sizes.
        budget = 1_500.0 if params is FAST else 400.0
        outcomes = []
        for seed in (1, 2):
            reference, native = _both(
                n, params, seed,
                lambda engine: engine.run_until(
                    VectorSimulator.all_done, budget, check_interval=check_interval
                ),
            )
            assert native == reference, (n, seed)
            outcomes.append(reference[0])
        if params is FAST:
            assert all(isinstance(returned, float) for returned in outcomes)

    @pytest.mark.parametrize("check_interval", [None, 2 * 500 + 1])
    def test_a_budget_that_runs_out_mid_chunk(self, check_interval):
        # 100 rounds: neither a multiple of the 64-round range samples nor
        # of the 3-round check grid.
        budget = 99.5 * 500 / 1001
        reference, native = _both(
            1001, FAST, 3,
            lambda engine: engine.run_until(
                VectorSimulator.all_done, budget, check_interval=check_interval
            ),
        )
        assert native == reference
        assert reference[0][0] == "ConvergenceError"
        assert reference[1][2] == 100

    @pytest.mark.parametrize("count", [0, 1, 499, 500, 501, 64 * 500, 77_777])
    def test_run_interactions_equals_numpy(self, count):
        reference, native = _both(1001, FAST, 4, lambda engine: engine.run_interactions(count))
        assert native == reference
        assert reference[1][3] == 500 * -(-count // 500)

    def test_run_with_trace_equals_numpy(self):
        def trace(engine):
            return [
                (point.interaction, point.parallel_time, point.configuration)
                for point in engine.run_with_trace(300.0, 7)
            ]

        reference, native = _both(1001, FAST, 5, trace, simulator=_Traced)
        assert native == reference
        assert len(reference[0]) == 8

    def test_runs_after_convergence_stay_bitwise(self):
        def run_on(engine):
            first = engine.run_until(VectorSimulator.all_done, 1_500.0)
            engine.run_interactions(3_000)
            return first, engine.run_until(VectorSimulator.all_done, 1_500.0)

        reference, native = _both(201, FAST, 6, run_on)
        assert native == reference

    def test_a_native_matching_run_never_runs_round_by_round(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a round ran outside the C run loop")

        monkeypatch.setattr(VectorSimulator, "run_round", refuse)
        simulator = VectorSimulator(
            LogSizeVectorProtocol(FAST), 1001, seed=7, backend="native"
        )
        simulator.run_until(VectorSimulator.all_done, 1_500.0)
        simulator.run_interactions(5_000)
        assert simulator.all_done()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: VectorSimulator(
                LogSizeVectorProtocol(FAST), 60, seed=1, backend="numpy"
            ),
            lambda: VectorSimulator(
                LogSizeVectorProtocol(FAST), 60, seed=1, scheduler="quiescing",
                backend="native",
            ),
            lambda: VectorSimulator(
                LeaderTerminatingVectorProtocol(FAST, phase_count=8), 60, seed=1,
                backend="native",
            ),
        ],
        ids=["numpy", "other-scheduler", "leader-terminating"],
    )
    def test_other_runs_keep_the_round_loop(self, build, monkeypatch):
        simulator = build()
        calls = []
        run_round = VectorSimulator.run_round

        def counting(self):
            calls.append(self)
            run_round(self)

        monkeypatch.setattr(VectorSimulator, "run_round", counting)
        simulator.run_interactions(10 * 30)
        assert len(calls) == 10


@needs_native
class TestMatchingDrawIsBitwise:
    @staticmethod
    def _assert_draw_matches(members, seed):
        reference_rng = np.random.default_rng(seed)
        native_rng = np.random.default_rng(seed)
        expected = draw_matching_arrays(members, reference_rng)
        observed = NativeBackend().draw_matching_arrays(members, native_rng)
        for want, got in zip(expected, observed):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert native_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("m", list(range(1, 40)) + [101, 1000, 4097, 10**5])
    def test_integer_members(self, m):
        self._assert_draw_matches(m, seed=m)

    @pytest.mark.parametrize("m", list(range(0, 40)) + [101, 1000, 4097, 10**5])
    def test_array_members(self, m):
        members = np.random.default_rng(m).permutation(3 * m + 5)[:m]
        self._assert_draw_matches(members, seed=m + 1)

    def test_members_are_not_shuffled_in_place(self):
        members = np.arange(10, 30)
        NativeBackend().draw_matching_arrays(members, np.random.default_rng(0))
        assert np.array_equal(members, np.arange(10, 30))

    def test_other_member_types_run_the_reference(self):
        members = np.arange(12, dtype=np.int32)
        self._assert_draw_matches(members, seed=5)


@needs_native
class TestNativeRoundGuards:
    def _simulator(self):
        return VectorSimulator(
            LogSizeVectorProtocol(FAST), 10, seed=0, backend="native"
        )

    @pytest.mark.parametrize(
        "rec, sen",
        [
            (np.array([0, 1]), np.array([2])),
            (np.array([0, 1], dtype=np.int32), np.array([2, 3], dtype=np.int32)),
            (np.arange(8)[::2], np.arange(8)[1::2]),
            ([0, 1], [2, 3]),
        ],
        ids=["unequal", "int32", "strided", "lists"],
    )
    def test_rejects_malformed_pairs(self, rec, sen):
        simulator = self._simulator()
        with pytest.raises(SimulationError, match="contiguous int64"):
            simulator.protocol.apply_round(
                simulator.fields, rec, sen, simulator.rng
            )

    @pytest.mark.parametrize("bad", [10, -1, 2**40])
    def test_rejects_an_agent_outside_the_population_untouched(self, bad):
        simulator = self._simulator()
        before = _snapshot(simulator)
        with pytest.raises(SimulationError, match=r"outside \[0, 10\)"):
            simulator.protocol.apply_round(
                simulator.fields,
                np.array([0, 1, 2]),
                np.array([3, bad, 5]),
                simulator.rng,
            )
        assert _snapshot(simulator) == before

    @pytest.mark.parametrize(
        "tallies",
        [np.zeros(1, dtype=np.int64), np.zeros(2, dtype=np.int32),
         np.zeros(4, dtype=np.int64)[::2]],
        ids=["short", "int32", "strided"],
    )
    def test_run_loop_rejects_malformed_tallies(self, tallies):
        simulator = self._simulator()
        before = _snapshot(simulator)
        with pytest.raises(SimulationError, match="tallies"):
            simulator.protocol.matching_loop().run(1, False, tallies)
        assert _snapshot(simulator) == before

    def test_binding_checks_field_dtypes(self):
        class WrongDtype(LogSizeVectorProtocol):
            def init_fields(self, fields, rng):
                super().init_fields(fields, rng)
                self.time = self.time.astype(np.int32)

        with pytest.raises(SimulationError, match="'time'.*int64"):
            VectorSimulator(WrongDtype(FAST), 10, seed=0, backend="native")


@needs_native
def test_native_cache_loads_only_this_interpreters_build(tmp_path):
    """The default cache is shared by every interpreter of a user; another
    interpreter's build of the same source must not shadow this one's."""
    name = native_backend._module_name()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    shutil.copy(sys.modules[name].__file__, tmp_path / f"{name}{suffix}")
    # Another interpreter's build sorts before this one's; here it is junk.
    foreign = ".cpython-310-x86_64-linux-gnu.so"
    assert foreign != suffix
    (tmp_path / f"{name}{foreign}").write_bytes(b"junk")
    module = native_backend._find_built_module(str(tmp_path), name)
    assert module is not None
    assert os.path.basename(module.__file__) == f"{name}{suffix}"
    assert native_backend._find_built_module(str(tmp_path), name + "x") is None


def test_module_name_follows_numpy_version(monkeypatch):
    before = native_backend._module_name()
    monkeypatch.setattr(native_backend.np, "__version__", "0.0.0-test")
    assert native_backend._module_name() != before


def test_numpy_reference_binds_no_compiled_round():
    assert get_backend("numpy").log_size_round_kernel(
        LogSizeVectorProtocol(FAST)
    ) is None
