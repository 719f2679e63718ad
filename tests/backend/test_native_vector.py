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
import json
import math
import os
import shutil
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend import get_backend, resolve_backend
from repro.backend import native_backend
from repro.backend.native_backend import NativeBackend
from repro.core.array_simulator import (
    ROLE_STORAGE,
    ROLE_WORKER,
    LogSizeVectorProtocol,
)
from repro.core.parameters import ProtocolParameters
from repro.core.vector_leader import LeaderTerminatingVectorProtocol
from repro.engine import scheduler
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


def _one_round(backend, params, agents, rec, sen, seed):
    """One round from the given field values: every field and the generator
    state after it."""
    protocol = LogSizeVectorProtocol(params)
    fields = VectorFields(len(agents))
    protocol.init_fields(fields, np.random.default_rng(seed))
    for name in fields.names():
        fields[name][:] = [agent[name] for agent in agents]
    protocol.bind_backend(get_backend(backend))
    assert (protocol._compiled_round is None) == (backend == "numpy")
    protocol.apply_round(
        fields, np.array(rec, dtype=np.int64), np.array(sen, dtype=np.int64),
        protocol.rng,
    )
    return (
        {name: fields[name].tobytes() for name in fields.names()},
        protocol.rng.bit_generator.state,
    )


def _agent(role, log_size2, time, epoch, *, total=0, gr=1, done=False,
           updated=False, output=math.nan):
    return {"role": role, "log_size2": log_size2, "time": time, "epoch": epoch,
            "total": total, "gr": gr, "done": done, "updated": updated,
            "output": output}


@st.composite
def _agents(draw, params):
    log_size2 = draw(st.integers(1, 6))
    threshold = params.clock_threshold_factor * log_size2
    epochs = params.epochs_factor * log_size2
    return _agent(
        role=draw(st.sampled_from([0, 1, 2])),
        log_size2=log_size2,
        time=draw(st.one_of(
            st.integers(max(threshold - 2, 0), threshold + 1),
            st.integers(0, threshold),
        )),
        epoch=draw(st.one_of(
            st.integers(max(epochs - 2, 0), epochs), st.integers(0, epochs)
        )),
        total=draw(st.integers(0, 40)),
        gr=draw(st.integers(1, 12)),
        done=draw(st.booleans()),
        updated=draw(st.booleans()),
        output=draw(st.one_of(st.just(math.nan), st.floats(0.0, 20.0))),
    )


@st.composite
def _rounds(draw):
    """Field values, disjoint pairs (some agents idle) and a seed."""
    params = draw(st.sampled_from([PAPER, FAST, INVERSION]))
    n = draw(st.integers(2, 24))
    agents = draw(st.lists(_agents(params), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    pairs = draw(st.integers(1, n // 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return params, agents, order[:pairs], order[pairs : 2 * pairs], seed


W, S = ROLE_WORKER, ROLE_STORAGE

#: Agent 0 draws in its tick, its restart and its catch-up, and agent 2
#: draws in its tick between them: the three queues' order shows.
_THREE_QUEUES = (FAST, [
    _agent(W, 2, 15, 0, updated=True),
    _agent(W, 3, 0, 2),
    _agent(W, 3, 23, 0, updated=True),
    _agent(S, 3, 0, 0),
], [0, 2], [1, 3], 5)

#: Agent 0's deposit finishes storage 1's last epoch: the done count goes
#: from 0 to 1 within the round, whose output pass then runs (agent 2
#: idles, n odd).
_FIRST_DONE = (FAST, [
    _agent(W, 2, 15, 3, gr=3),
    _agent(S, 2, 0, 3, total=5),
    _agent(W, 2, 0, 0),
], [0], [1], 6)


@needs_native
class TestGeneratedRoundsAreBitwise:
    """The native round equals the numpy sub-steps from any field values,
    including the ones a run rarely reaches: unassigned agents, times at
    and beside the epoch threshold, unequal ``logSize2``, done flags and set
    outputs."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=_rounds())
    @example(case=_THREE_QUEUES)
    @example(case=_FIRST_DONE)
    def test_a_round_equals_numpy(self, case):
        assert _one_round("native", *case) == _one_round("numpy", *case)

    def test_the_examples_reach_what_they_name(self):
        fields, state = _one_round("numpy", *_THREE_QUEUES)
        assert np.frombuffer(fields["epoch"], dtype=np.int64).tolist() == [2, 2, 1, 0]
        draws = np.random.default_rng(_THREE_QUEUES[-1])
        draws.geometric(FAST.geometric_success_probability, size=4)
        assert state == draws.bit_generator.state
        fields, _ = _one_round("numpy", *_FIRST_DONE)
        assert np.frombuffer(fields["done"], dtype=bool).tolist() == [False, True, False]
        assert np.frombuffer(fields["output"])[:2].tolist() == [8 / 4 + 1] * 2


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


#: Matching sizes at every mask boundary of numpy's random_interval up to
#: 2^17: 2^k - 1, 2^k and 2^k + 1.
_MASK_BOUNDARIES = sorted({2**k + d for k in range(18) for d in (-1, 0, 1)})


@needs_native
class TestMatchingDrawIsBitwise:
    @staticmethod
    def _assert_draw_matches(members, seed, buffered=False, bit_generator=np.random.PCG64):
        reference_rng = np.random.Generator(bit_generator(seed))
        native_rng = np.random.Generator(bit_generator(seed))
        if buffered:
            # A full-range uint32 splits one 64-bit output and buffers its
            # upper half, which the matching's first draw takes.
            for rng in (reference_rng, native_rng):
                rng.integers(2**32, dtype=np.uint32)
        expected = draw_matching_arrays(members, reference_rng)
        observed = NativeBackend().draw_matching_arrays(members, native_rng)
        for want, got in zip(expected, observed):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # Philox and MT19937 keep arrays in their state.
        assert json.dumps(native_rng.bit_generator.state, default=np.ndarray.tolist) == (
            json.dumps(reference_rng.bit_generator.state, default=np.ndarray.tolist)
        )

    @pytest.mark.parametrize("m", list(range(1, 40)) + [101, 1000, 4097, 10**5])
    def test_integer_members(self, m):
        self._assert_draw_matches(m, seed=m)

    @pytest.mark.parametrize("m", list(range(0, 40)) + [101, 1000, 4097, 10**5])
    def test_array_members(self, m):
        members = np.random.default_rng(m).permutation(3 * m + 5)[:m]
        self._assert_draw_matches(members, seed=m + 1)

    @pytest.mark.parametrize("m", _MASK_BOUNDARIES)
    def test_every_mask_boundary(self, m):
        self._assert_draw_matches(m, seed=m)
        self._assert_draw_matches(m, seed=m, buffered=True)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 1000, 1001])
    def test_a_generator_with_a_buffered_half(self, m):
        self._assert_draw_matches(m, seed=m + 7, buffered=True)
        members = np.random.default_rng(m).permutation(3 * m + 5)[:m]
        self._assert_draw_matches(members, seed=m + 8, buffered=True)

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.Philox, np.random.MT19937, np.random.SFC64, np.random.PCG64DXSM],
    )
    def test_other_bit_generators_run_the_reference(self, bit_generator):
        for m in (7, 1000):
            self._assert_draw_matches(m, seed=3, bit_generator=bit_generator)
            self._assert_draw_matches(m, seed=4, buffered=True, bit_generator=bit_generator)
        protocol = LogSizeVectorProtocol(FAST)
        protocol.init_fields(VectorFields(10), np.random.Generator(bit_generator(1)))
        assert NativeBackend().log_size_round_kernel(protocol) is None

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
        "rec, sen",
        [([0, 1, 0], [2, 3, 4]), ([0, 1], [2, 0]), ([3], [3]), ([0, 5], [1, 5])],
        ids=["receiver-twice", "receiver-and-sender", "self-pair", "sender-twice"],
    )
    def test_rejects_an_agent_named_twice_untouched(self, rec, sen):
        """The native round runs a pair's sub-steps together, which is the
        numpy round only for disjoint pairs."""
        simulator = VectorSimulator(
            LogSizeVectorProtocol(FAST), 6, seed=0, backend="native"
        )
        reference = VectorSimulator(
            LogSizeVectorProtocol(FAST), 6, seed=0, backend="numpy"
        )
        before = _snapshot(simulator)
        with pytest.raises(SimulationError, match="twice"):
            simulator.protocol.apply_round(
                simulator.fields,
                np.array(rec, dtype=np.int64),
                np.array(sen, dtype=np.int64),
                simulator.rng,
            )
        assert _snapshot(simulator) == before
        # The check leaves no mark behind: the next valid round is numpy's.
        for engine in (simulator, reference):
            engine.protocol.apply_round(
                engine.fields, np.array([0, 1, 2]), np.array([3, 4, 5]), engine.rng
            )
        assert _snapshot(simulator) == _snapshot(reference)

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


@needs_native
@pytest.mark.parametrize("fault", ["order", "state"])
def test_a_failed_layout_check_leaves_the_backend_unavailable(monkeypatch, fault):
    """The C matching reads numpy's private PCG64 state in place; a numpy
    whose matching it no longer repeats leaves the backend unavailable, and
    resolution falls back to numpy with a warning."""
    reference = scheduler.draw_matching_arrays

    def changed(members, rng):
        receivers, senders = reference(members, rng)
        if fault == "order":
            return senders, receivers
        rng.random()
        return receivers, senders

    monkeypatch.setattr(scheduler, "draw_matching_arrays", changed)
    monkeypatch.setattr(native_backend, "_COMPILED", None)
    monkeypatch.setattr(native_backend, "_FAILURE", None)
    assert not NativeBackend.available()
    reason = NativeBackend.unavailable_reason()
    assert "layout check" in reason
    with pytest.warns(UserWarning, match="falling back") as caught:
        assert resolve_backend("native").name == "numpy"
    assert reason in str(caught[0].message)


def test_module_name_follows_numpy_version(monkeypatch):
    before = native_backend._module_name()
    monkeypatch.setattr(native_backend.np, "__version__", "0.0.0-test")
    assert native_backend._module_name() != before


def test_numpy_reference_binds_no_compiled_round():
    assert get_backend("numpy").log_size_round_kernel(
        LogSizeVectorProtocol(FAST)
    ) is None
