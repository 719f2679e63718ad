"""Cross-backend parity: every backend runs the same stochastic process.

The numpy backend is the stream-preserving reference (pinned bitwise by
``test_numpy_golden``).  Every native kernel draws on the engine's
generator in the numpy order: the batched advance through numpy's
multinomial, bounded-integer and uniform draws, the vector kernels through
its interval, uniform and geometric draws (``test_native_vector`` compares
them round by round), and the multiscale regime loop through its
exponential, uniform, binomial and Poisson draws (compared after every
``run_interactions`` chunk).  So a seeded native run must *be* the numpy
run: count trajectories, batch and regime counters and the generator's
final state, on the batched multinomial draw→apply (uniform and
state-weighted), the small-count and consumption-guard exact fallbacks, the
34-state termination protocol, both CRN lowerings, and every multiscale
regime and hand-over.  The CRN lowerings are also
checked against the exact Gillespie SSA.  Every parity case needs the
native backend (cffi and a C toolchain) and is skipped without it.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

from repro.backend import ArrayBackend, get_backend, native_backend
from repro.backend.native_backend import NativeBackend
from repro.backend.numpy_backend import pair_weight_matrix
from repro.core.array_simulator import LogSizeVectorProtocol
from repro.core.parameters import ProtocolParameters
from repro.core.vector_leader import LeaderTerminatingVectorProtocol
from repro.crn import CRN, compile_crn, multiscale, simulate_ssa
from repro.crn.library import epidemic_extinct_predicate, get_crn_workload
from repro.engine.selection import build_engine
from repro.engine.vector import VectorSimulator
from repro.exceptions import SimulationError
from repro.protocols.epidemic import (
    EpidemicProtocol,
    epidemic_completion_predicate,
)
from repro.protocols.leader_election import (
    FiniteStateCounterTermination,
    FiniteStatePairwiseElimination,
    termination_signal_predicate,
)
from repro.protocols.majority import (
    ApproximateMajorityProtocol,
    majority_consensus_predicate,
)


def _parity_backends() -> list:
    """The non-reference backends runnable in this environment."""
    if NativeBackend.available():
        return [pytest.param(NativeBackend(), id="native")]
    return []


def _mean_std(values):
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / max(1, len(values) - 1)
    return mean, math.sqrt(variance)


def _z_score(sample_a, sample_b):
    mean_a, std_a = _mean_std(sample_a)
    mean_b, std_b = _mean_std(sample_b)
    spread = math.sqrt(std_a**2 / len(sample_a) + std_b**2 / len(sample_b))
    return (mean_a - mean_b) / max(spread, 1e-9)


EPIDEMIC_N = 256
RUNS = 24


def _batched_run(simulator, predicate, max_parallel_time, check_interval):
    """A batched run to ``predicate``: its completion time, the configuration
    at every check, the batch counters and the generator's final state."""
    trajectory = []

    def checked(sim):
        trajectory.append(dict(sim.configuration().items()))
        return predicate(sim)

    elapsed = simulator.run_until(
        checked, max_parallel_time=max_parallel_time, check_interval=check_interval
    )
    return (
        elapsed,
        trajectory,
        simulator.batched_batches,
        simulator.fallback_batches,
        simulator._rng.bit_generator.state,
    )


def _epidemic_runs(backend: "ArrayBackend | str | None", **engine_options):
    return [
        _batched_run(
            build_engine(
                "batched",
                EpidemicProtocol(),
                EPIDEMIC_N,
                seed=1_000 + run_index,
                backend=backend,
                **engine_options,
            ),
            epidemic_completion_predicate,
            60 * math.log(EPIDEMIC_N),
            max(EPIDEMIC_N // 8, 16),
        )
        for run_index in range(RUNS)
    ]


@pytest.mark.skipif(
    not NativeBackend.available(), reason="native backend unavailable"
)
def test_pair_weights_are_summed_as_numpy_sums_them():
    """The native batched kernel normalises the pair weights by numpy's
    pairwise sum, which ``ndarray.sum`` runs but numpy does not export.
    Integer weights sum exactly in any order, so the golden streams cannot
    see the order; rate-scaled weights can, and a numpy release that changes
    it fails here."""
    lib, ffi = native_backend._load_compiled()
    rng = np.random.default_rng(11)
    for size in [*range(1, 40), 64, 91, 150]:
        for _ in range(5):
            counts = rng.integers(0, 10 ** rng.integers(1, 7), size=size)
            weights = pair_weight_matrix(counts, rng.random(size))
            native = lib.repro_pairwise_sum(
                ffi.from_buffer("double[]", weights), weights.size
            )
            assert native == weights.sum(), size


class TestBatchedDistributionParity:
    """The native batched kernel is the numpy kernel, run for run: a check
    strictly stronger than agreement in distribution."""

    @pytest.mark.parametrize("backend", _parity_backends())
    def test_epidemic_completion_time_matches_numpy(self, backend):
        assert _epidemic_runs(backend) == _epidemic_runs("numpy")

    @pytest.mark.parametrize("backend", _parity_backends())
    def test_state_weighted_parity_and_slowdown(self, backend):
        """The rate-scaled pair distribution is the numpy one, and
        throttling the infected state slows the epidemic."""
        options = {
            "scheduler": "state-weighted",
            "scheduler_options": {"rates": (("I", 0.3),)},
        }
        observed = _epidemic_runs(backend, **options)
        assert observed == _epidemic_runs("numpy", **options)
        uniform = statistics.fmean(run[0] for run in _epidemic_runs(backend))
        assert statistics.fmean(run[0] for run in observed) > 1.2 * uniform

    @pytest.mark.parametrize("backend", _parity_backends())
    def test_population_conserved_and_states_tracked(self, backend):
        simulator = build_engine(
            "batched", EpidemicProtocol(), 512, seed=7, backend=backend
        )
        simulator.run_interactions(4_096)
        assert simulator.configuration().size == 512
        seen = {repr(state) for state in simulator.states_seen()}
        assert seen == {"'I'", "'S'"}

    @pytest.mark.parametrize("backend", _parity_backends())
    def test_small_count_exact_fallback_still_converges(self, backend):
        """Leader election drives every count to the fallback threshold; the
        run finishes with exactly one leader, as the numpy run does."""
        for run_index in range(8):
            runs = [
                _batched_run(
                    build_engine(
                        "batched",
                        FiniteStatePairwiseElimination(),
                        48,
                        seed=4_000 + run_index,
                        backend=name,
                    ),
                    lambda sim: sim.count(FiniteStatePairwiseElimination.LEADER)
                    == 1,
                    10_000.0,
                    48,
                )
                for name in (backend, "numpy")
            ]
            assert runs[0] == runs[1], run_index
            assert runs[0][1][-1][FiniteStatePairwiseElimination.LEADER] == 1
            assert runs[0][3] > 0, backend.name

    @pytest.mark.parametrize("backend", _parity_backends())
    def test_majority_correctness_is_backend_independent(self, backend):
        correct = 0
        for run_index in range(16):
            runs = [
                _batched_run(
                    build_engine(
                        "batched",
                        ApproximateMajorityProtocol(x_fraction=0.7),
                        300,
                        seed=6_000 + run_index,
                        backend=name,
                    ),
                    majority_consensus_predicate,
                    500,
                    64,
                )
                for name in (backend, "numpy")
            ]
            assert runs[0] == runs[1], run_index
            final = runs[0][1][-1]
            if final.get(ApproximateMajorityProtocol.OPINION_Y, 0) == 0:
                correct += 1
        assert correct >= 14, (backend.name, correct)

    @pytest.mark.parametrize("backend", _parity_backends())
    def test_termination_protocol_is_the_numpy_stream(self, backend):
        """34 states: the S^2 = 1,156 pair weights take numpy's halving and
        8-accumulator pairwise-sum branches (the 2-state epidemic takes its
        sequential one)."""
        for seed in (8_001, 8_002, 8_003):
            runs = [
                _batched_run(
                    build_engine(
                        "batched",
                        FiniteStateCounterTermination(counter_threshold=8),
                        2_000,
                        seed=seed,
                        backend=name,
                    ),
                    termination_signal_predicate,
                    200.0,
                    500,
                )
                for name in (backend, "numpy")
            ]
            assert runs[0] == runs[1], seed
            assert len(runs[0][1][-1]) > 8, seed

    @pytest.mark.parametrize("mode", ["uniform", "thinned"])
    @pytest.mark.parametrize("backend", _parity_backends())
    def test_crn_lowerings_are_the_numpy_stream(self, backend, mode):
        """The SIR lowerings split pairs over randomized outcomes, and the
        thinned one runs the state-weighted scheduler."""
        compiled = compile_crn(SIR, mode=mode)
        for run in range(6):
            runs = [
                _batched_run(
                    compiled.build(
                        "batched", CRN_POPULATION, seed=9_000 + run, backend=name
                    ),
                    epidemic_extinct_predicate,
                    10_000.0,
                    CRN_POPULATION,
                )
                for name in (backend, "numpy")
            ]
            assert runs[0] == runs[1], (mode, run)


def _finite_state_run(engine, backend, seed):
    """Epidemic and majority runs with a trace, as snapshots to compare."""
    runs = []
    for factory, predicate in (
        (EpidemicProtocol, epidemic_completion_predicate),
        (
            lambda: ApproximateMajorityProtocol(x_fraction=0.7),
            majority_consensus_predicate,
        ),
    ):
        simulator = build_engine(
            engine, factory(), EPIDEMIC_N, seed=seed, backend=backend
        )
        trace = [
            (point.interaction, dict(point.configuration.items()))
            for point in simulator.run_with_trace(4.0, 4)
        ]
        elapsed = simulator.run_until(predicate, max_parallel_time=500)
        configuration = dict(simulator.configuration().items())
        runs.append((trace, elapsed, simulator.interactions, configuration))
    return runs


def _kernel_run(kernel, backend, seed):
    """A paper kernel run to all-done: its fields and generator position."""
    simulator = VectorSimulator(kernel, 96, seed=seed, backend=backend)
    elapsed = simulator.run_until(VectorSimulator.all_done, 10_000.0)
    fields = simulator.fields
    return (
        elapsed,
        simulator.interactions,
        {name: fields[name].tobytes() for name in fields.names()},
        simulator.rng.bit_generator.state,
    )


#: Leap retries need channels competing for a scarce species: two channels
#: drain A, and a critical threshold below one agent keeps them leaping
#: down to A's last agent, so two binomial draws can overdraw it together.
COMPETE = CRN.from_spec(
    ["A + B -> B + B", "A + C -> C + C", "B + C -> C + C", "C + B -> B + B"],
    name="compete",
    seeds={"A": 40},
    fractions={"B": 0.5, "C": 0.5},
)
#: Regimes forced to switch both ways at small n, with clamped leaps.
FORCED = {"regime_thresholds": (5, 2000), "leap_eps": 0.3}
LIBRARY_NETWORKS = ("sir", "epidemic", "approximate-majority", "predator-prey", "leader")
#: ``(network or protocol, n, engine options)``: SIR across every regime
#: mix, the other library networks, the finite-state protocols, forced
#: regimes, and the competing network's leap retries.
MULTISCALE_CASES = (
    *(("sir", n, {}) for n in (10**3, 10**5, 10**9, 10**11)),
    *((name, 10**7, {}) for name in LIBRARY_NETWORKS[1:]),
    (EpidemicProtocol, 10**6, {}),
    (ApproximateMajorityProtocol, 10**6, {}),
    *((name, n, FORCED) for name in LIBRARY_NETWORKS for n in (10**3, 10**5)),
    (EpidemicProtocol, 10**5, FORCED),
    (ApproximateMajorityProtocol, 10**5, FORCED),
    *(
        (COMPETE, n, {"regime_thresholds": (0.5, 2000), "leap_eps": 0.5})
        for n in (1_000, 2_000)
    ),
)


def _build_multiscale(case, backend, seed):
    network, n, options = case
    if isinstance(network, type):
        return build_engine(
            "multiscale", network(), n, seed=seed, backend=backend, **options
        )
    if isinstance(network, str):
        network = get_crn_workload(network).crn
    return compile_crn(network).build(
        "multiscale", n, seed=seed, backend=backend, **options
    )


def _multiscale_run(backend, seed):
    """Every multiscale case, 40 chunks of ``n`` interactions each: after
    every chunk the count bytes, clock, regime counters, ODE flag and states
    seen, and the generator's final state."""
    snapshots = []
    for case in MULTISCALE_CASES:
        simulator = _build_multiscale(case, backend, seed)
        for _ in range(40):
            simulator.run_interactions(simulator.population_size)
            snapshots.append((
                simulator._counts.tobytes(),
                simulator.parallel_time,
                simulator.regime_stats(),
                simulator._ode_fractional,
                simulator.states_seen(),
            ))
        snapshots.append(simulator._rng.bit_generator.state)
    return snapshots


FAST = ProtocolParameters.fast_test()
BITWISE_RUNS = {
    "vector": lambda backend, seed: _finite_state_run("vector", backend, seed),
    "multiscale": _multiscale_run,
    "figure2": lambda backend, seed: _kernel_run(
        LogSizeVectorProtocol(FAST), backend, seed
    ),
    "leader-terminating": lambda backend, seed: _kernel_run(
        LeaderTerminatingVectorProtocol(FAST, phase_count=8), backend, seed
    ),
}


@pytest.mark.skipif(
    not NativeBackend.available(), reason="native backend unavailable"
)
@pytest.mark.parametrize("workload", list(BITWISE_RUNS))
def test_vector_and_multiscale_runs_are_the_numpy_stream_bitwise(workload):
    """A seeded vector or multiscale run on native is the numpy run,
    snapshot for snapshot: the finite-state kernels on the native matching,
    Figure 2's Log-Size-Estimation round in C, the Theorem 3.13 kernel that
    inherits it, and the multiscale regime loop in C."""
    run = BITWISE_RUNS[workload]
    for seed in (2_001, 2_002, 2_003):
        assert run("native", seed) == run("numpy", seed), (workload, seed)


def test_multiscale_cases_reach_every_branch(monkeypatch):
    """The multiscale cases leave and re-enter the ODE regime, clamp leaps
    to a binomial, and halve and redraw leaps that overdraw a species, so
    the bitwise comparison covers all three."""
    reached = {"clamped": 0, "retried": 0}
    leap = multiscale.ReactionSystem.leap

    def counting_leap(system, counts, mask, tau, rng):
        rates = system.propensities(counts)
        active = mask & (rates > 0.0)
        headroom = system._headroom(counts)[active]
        reached["clamped"] += int((rates[active] * tau > 0.1 * headroom).sum())
        ok, new_counts = leap(system, counts, mask, tau, rng)
        reached["retried"] += not ok
        return ok, new_counts

    monkeypatch.setattr(multiscale.ReactionSystem, "leap", counting_leap)
    switches = [
        snapshot[2]["regime_switches"]
        for snapshot in _multiscale_run("numpy", 2_002)
        if isinstance(snapshot, tuple)
    ]
    assert max(switches) >= 2
    assert reached["clamped"] > 0 and reached["retried"] > 0, reached


def _multiscale_state(simulator):
    return (
        simulator._counts.tobytes(),
        simulator.parallel_time,
        simulator.regime_stats(),
        simulator._ode_fractional,
        simulator.controller.in_ode,
        simulator._rng.bit_generator.state,
    )


@pytest.mark.parametrize("backend", _parity_backends())
@pytest.mark.parametrize(
    "fractional",
    [(600.3, 399.7), (600.4, 399.4), (601.2, 399.3), (600.5, 400.5)],
    ids=["deficit-0", "deficit+1", "deficit-1", "tie"],
)
def test_ode_hand_back_is_the_numpy_rounding(backend, fractional):
    """Leaving the ODE regime rounds the float counts back to integers: the
    native loop hands out or reclaims the missing agents as the numpy
    ``integer_counts`` does, ties included."""
    states = []
    for name in (backend, "numpy"):
        simulator = build_engine(
            "multiscale", EpidemicProtocol(), 1_000, seed=3, backend=name
        )
        simulator._counts[:] = fractional
        simulator._ode_fractional = True
        simulator.run_interactions(500)
        states.append(_multiscale_state(simulator))
    assert states[0] == states[1]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("backend", _parity_backends())
def test_ode_stall_raises_where_numpy_raises(backend):
    """A state the integrator cannot step (here an infinite count) stalls
    the ODE stretch: both loops raise, leaving the counts and clock where
    the stretch began."""
    states = []
    for name in (backend, "numpy"):
        simulator = build_engine(
            "multiscale", EpidemicProtocol(), 1_000, seed=3, backend=name,
            regime_thresholds=(5, 100),
        )
        simulator._counts[:] = (np.inf, 1_000.0)
        with pytest.raises(SimulationError, match="stalled"):
            simulator.run_interactions(1_000)
        states.append(_multiscale_state(simulator))
    assert states[0] == states[1]


@pytest.mark.parametrize("backend", _parity_backends())
def test_invalid_leap_mean_raises_numpys_error(backend):
    """An infinite count outside the ODE regime makes an infinite Poisson
    mean: the native loop rejects it with numpy's error, before drawing."""
    states = []
    for name in (backend, "numpy"):
        simulator = build_engine(
            "multiscale", EpidemicProtocol(), 1_000, seed=3, backend=name
        )
        simulator._counts[:] = (np.inf, 1_000.0)
        with pytest.raises(ValueError, match="lam value too large"):
            simulator.run_interactions(1_000)
        states.append(_multiscale_state(simulator))
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# CRN lowerings vs the exact SSA, on the native backend
# ---------------------------------------------------------------------------

SIR = CRN.from_spec(
    ["S + I -> I + I @ 2.0", "I -> R @ 1.0"],
    name="sir",
    seeds={"I": 2},
    fractions={"S": 1.0},
)
CRN_POPULATION = 60
CRN_RUNS = 48
SSA_RUNS = 96


@pytest.fixture(scope="module")
def ssa_final_sizes() -> list[int]:
    return [
        simulate_ssa(SIR, CRN_POPULATION, [10_000.0], seed=7_000 + run).at(0)["R"]
        for run in range(SSA_RUNS)
    ]


class TestCRNLoweringsOnJITBackends:
    @pytest.mark.parametrize("backend", _parity_backends())
    def test_uniform_lowering_matches_ssa_in_time(self, backend):
        """Sampling the backend's batched engine at parallel time Γ·t must
        sample the chain at chemical time t — the seam may not distort the
        kinetics."""
        compiled = compile_crn(SIR)
        chemical_time = 6.0
        recovered = []
        for run in range(CRN_RUNS):
            simulator = compiled.build(
                "batched", CRN_POPULATION, seed=1_000 + run, backend=backend
            )
            simulator.run_parallel_time(compiled.to_parallel_time(chemical_time))
            recovered.append(simulator.count("R"))
        ssa_sample = [
            simulate_ssa(
                SIR, CRN_POPULATION, [chemical_time], seed=5_000 + run
            ).at(0)["R"]
            for run in range(SSA_RUNS)
        ]
        z = _z_score(recovered, ssa_sample)
        assert abs(z) < 4.0, (backend.name, z)

    @pytest.mark.parametrize("backend", _parity_backends())
    def test_thinned_lowering_final_size_matches_ssa(
        self, backend, ssa_final_sizes
    ):
        """The thinned (state-weighted) lowering exercises the backends'
        rate-scaled kernels; the SIR final size is clock-independent, so it
        must match the exact jump chain."""
        compiled = compile_crn(SIR, mode="thinned")
        finals = []
        for run in range(CRN_RUNS):
            simulator = compiled.build(
                "batched", CRN_POPULATION, seed=3_000 + run, backend=backend
            )
            simulator.run_until(
                epidemic_extinct_predicate,
                max_parallel_time=10_000.0,
                check_interval=CRN_POPULATION,
            )
            finals.append(simulator.count("R"))
        z = _z_score(finals, ssa_final_sizes)
        assert abs(z) < 4.0, (backend.name, z)


class TestBackendFallbackEquivalence:
    def test_resolved_fallback_is_bitwise_numpy(self):
        """When an unavailable backend falls back, the run is not merely
        similar to numpy — it *is* the numpy backend, stream and all."""
        from repro.backend import BACKEND_REGISTRY, register_backend

        @register_backend
        class Ghost(ArrayBackend):
            name = "ghost-for-test"

            @classmethod
            def available(cls):
                return False

            @classmethod
            def unavailable_reason(cls):
                return "test ghost"

        try:
            with pytest.warns(UserWarning, match="ghost"):
                ghost = build_engine(
                    "batched",
                    EpidemicProtocol(),
                    200,
                    seed=5,
                    backend="ghost-for-test",
                )
            reference = build_engine(
                "batched", EpidemicProtocol(), 200, seed=5, backend="numpy"
            )
            ghost.run_interactions(2_000)
            reference.run_interactions(2_000)
            assert dict(ghost.configuration().items()) == dict(
                reference.configuration().items()
            )
            assert int(ghost._rng.integers(0, 2**32)) == int(
                reference._rng.integers(0, 2**32)
            )
        finally:
            BACKEND_REGISTRY.pop("ghost-for-test", None)

    def test_numpy_is_the_memoised_reference(self):
        assert get_backend("numpy") is get_backend("numpy")
