"""Cross-engine equivalence: agent, count, batched and vector engines agree.

The three *sequential* engines implement the same stochastic process (uniform
ordered pairs, protocol transition distributions), so on identical workloads
their *statistics* must agree — completion-time quantiles, correctness rates,
fixed-time configuration levels — even though their random streams differ.
These tests run modest populations over many seeds and compare across
engines with tolerances sized by the sampling noise.

The vector engine substitutes synchronous random-matching rounds for the
sequential scheduler (every agent interacts exactly once per round), which
preserves behaviour only up to constant factors in *time* while leaving
*correctness* statistics intact (see ``DESIGN.md``, Schedulers).  Its
completion times are therefore compared within a constant-factor band rather
than the tight relative tolerances of the sequential engines.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

import pytest

from repro.engine.selection import (
    ENGINE_NAMES,
    SEQUENTIAL_ENGINE_NAMES,
    build_engine,
)
from repro.exceptions import SimulationError
from repro.protocols.epidemic import (
    EpidemicProtocol,
    EpidemicState,
    epidemic_completion_predicate,
)
from repro.protocols.majority import (
    ApproximateMajorityProtocol,
    majority_consensus_predicate,
)

EPIDEMIC_N = 256
EPIDEMIC_RUNS = 30
MAJORITY_N = 300
MAJORITY_RUNS = 20


def _epidemic_completion_times(engine: str) -> list[float]:
    times = []
    for run_index in range(EPIDEMIC_RUNS):
        simulator = build_engine(
            engine, EpidemicProtocol(), EPIDEMIC_N, seed=1_000 + run_index
        )
        times.append(
            simulator.run_until(
                epidemic_completion_predicate,
                max_parallel_time=60 * math.log(EPIDEMIC_N),
                check_interval=max(EPIDEMIC_N // 8, 16),
            )
        )
    return times


@pytest.fixture(scope="module")
def epidemic_times() -> dict[str, list[float]]:
    return {engine: _epidemic_completion_times(engine) for engine in ENGINE_NAMES}


class TestEpidemicEquivalence:
    def test_all_engines_complete_every_run(self, epidemic_times):
        for engine in ENGINE_NAMES:
            assert len(epidemic_times[engine]) == EPIDEMIC_RUNS, engine

    def test_mean_completion_times_agree(self, epidemic_times):
        means = {
            engine: statistics.fmean(epidemic_times[engine])
            for engine in SEQUENTIAL_ENGINE_NAMES
        }
        reference = means["agent"]
        for engine, mean in means.items():
            # Epidemic completion concentrates near ln n; 25% covers the
            # Monte-Carlo noise of 30 runs with margin.
            assert mean == pytest.approx(reference, rel=0.25), means

    def test_median_completion_times_agree(self, epidemic_times):
        medians = {
            engine: statistics.median(epidemic_times[engine])
            for engine in SEQUENTIAL_ENGINE_NAMES
        }
        reference = medians["agent"]
        for engine, median in medians.items():
            assert median == pytest.approx(reference, rel=0.3), medians

    def test_completion_times_within_theory_budget(self, epidemic_times):
        budget = 24 * math.log(EPIDEMIC_N)
        for engine, times in epidemic_times.items():
            assert statistics.fmean(times) < budget, engine

    def test_vector_engine_within_constant_factor(self, epidemic_times):
        """Matching rounds complete the epidemic in ~0.5 log2 n time vs ~ln n.

        The ratio to the sequential engines is a scheduler constant, not a
        free parameter: it must stay within a fixed band across runs.
        """
        reference = statistics.fmean(epidemic_times["agent"])
        vector = statistics.fmean(epidemic_times["vector"])
        assert 0.3 * reference < vector < 1.5 * reference, (vector, reference)


class TestFixedTimeConfiguration:
    @staticmethod
    def _mean_infected_fraction(engine: str) -> float:
        level = []
        for run_index in range(EPIDEMIC_RUNS):
            simulator = build_engine(
                engine, EpidemicProtocol(), EPIDEMIC_N, seed=2_000 + run_index
            )
            simulator.run_parallel_time(4)
            level.append(simulator.count(EpidemicState.INFECTED) / EPIDEMIC_N)
        return statistics.fmean(level)

    def test_mean_infected_fraction_after_fixed_time(self):
        """After t=4 units the sequential engines report similar infection levels."""
        fractions = {
            engine: self._mean_infected_fraction(engine)
            for engine in SEQUENTIAL_ENGINE_NAMES
        }
        reference = fractions["agent"]
        assert 0.0 < reference < 1.0  # mid-epidemic: the comparison is informative
        for engine, fraction in fractions.items():
            assert fraction == pytest.approx(reference, abs=0.12), fractions

    def test_vector_fixed_time_fraction_sane(self):
        """The vector engine's mid-epidemic level differs by a bounded factor.

        Matching rounds double the infected set once per round (``2^{2t}``
        growth at two interactions per agent per time unit) where the
        sequential scheduler grows like ``e^{2t}``, so the vector epidemic
        runs somewhat behind at a fixed mid-epidemic time — by a scheduler
        constant, not unboundedly.
        """
        reference = self._mean_infected_fraction("agent")
        vector = self._mean_infected_fraction("vector")
        assert reference * 0.5 <= vector <= min(1.0, reference * 1.2), (
            vector,
            reference,
        )


class TestMajorityEquivalence:
    @staticmethod
    def _majority_stats(engine: str) -> tuple[float, float]:
        correct = 0
        consensus_times = []
        for run_index in range(MAJORITY_RUNS):
            simulator = build_engine(
                engine,
                ApproximateMajorityProtocol(x_fraction=0.7),
                MAJORITY_N,
                seed=3_000 + run_index,
            )
            consensus_times.append(
                simulator.run_until(
                    majority_consensus_predicate,
                    max_parallel_time=500,
                    check_interval=max(MAJORITY_N // 8, 16),
                )
            )
            if simulator.count(ApproximateMajorityProtocol.OPINION_Y) == 0:
                correct += 1
        return correct / MAJORITY_RUNS, statistics.fmean(consensus_times)

    def test_majority_correctness_rate_agrees(self):
        """A 70/30 split must be won by the initial majority on every engine."""
        rates = {}
        times = {}
        for engine in ENGINE_NAMES:
            rates[engine], times[engine] = self._majority_stats(engine)
        for engine, rate in rates.items():
            # Correctness is scheduler-independent: the vector engine is held
            # to the same bar as the sequential ones.
            assert rate >= 0.9, rates
        reference = times["agent"]
        for engine in SEQUENTIAL_ENGINE_NAMES:
            assert times[engine] == pytest.approx(reference, rel=0.35), times
        # The vector engine's consensus time differs by a scheduler constant.
        assert 0.3 * reference < times["vector"] < 1.5 * reference, times


# ---------------------------------------------------------------------------
# Engine x scheduler: the pluggable-scheduler equivalence grid
# ---------------------------------------------------------------------------

SCHED_N = 128
SCHED_RUNS = 12


def _epidemic_runs(
    engine: str, scheduler: str | None, options: dict, backend=None
) -> list:
    """Each run's completion time, its configuration at every check and,
    on the batched engine, its generator's final state."""
    runs = []
    for run_index in range(SCHED_RUNS):
        simulator = build_engine(
            engine,
            EpidemicProtocol(),
            SCHED_N,
            seed=5_000 + run_index,
            scheduler=scheduler,
            scheduler_options=options,
            backend=backend,
        )
        trajectory = []

        def completed(sim):
            trajectory.append(dict(sim.configuration().items()))
            return epidemic_completion_predicate(sim)

        elapsed = simulator.run_until(
            completed,
            max_parallel_time=120 * math.log(SCHED_N),
            check_interval=max(SCHED_N // 8, 16),
        )
        generator = getattr(simulator, "_rng", None)
        runs.append(
            (elapsed, trajectory, generator and generator.bit_generator.state)
        )
    return runs


def _epidemic_mean_time(
    engine: str, scheduler: str | None, options: dict, backend=None
) -> float:
    return statistics.fmean(
        run[0] for run in _epidemic_runs(engine, scheduler, options, backend)
    )


class TestEngineSchedulerGrid:
    """Cross-engine agreement parametrised over (engine, scheduler) pairs."""

    def test_agent_matching_equals_vector_matching(self):
        """Under the *same* scheduler the agent and vector engines run the
        same stochastic process, so completion times agree tightly — not
        just within the sequential-vs-matching constant-factor band."""
        agent = _epidemic_mean_time("agent", "matching", {})
        vector = _epidemic_mean_time("vector", "matching", {})
        assert agent == pytest.approx(vector, rel=0.2), (agent, vector)

    @pytest.mark.parametrize("engine", ["agent", "vector"])
    def test_matching_engines_within_band_of_sequential(self, engine):
        reference = _epidemic_mean_time("agent", "sequential", {})
        matching = _epidemic_mean_time(engine, "matching", {})
        assert 0.3 * reference < matching < 1.5 * reference, (matching, reference)

    @pytest.mark.parametrize(
        "scheduler,options,band",
        [
            ("weighted", {"lazy_fraction": 0.5, "lazy_rate": 0.2}, (0.2, 5.0)),
            ("two-block", {"intra": 0.9}, (0.2, 5.0)),
            ("quiescing", {"fraction": 0.25, "start": 0.0, "duration": 2.0}, (0.2, 5.0)),
        ],
    )
    def test_agent_and_vector_agree_under_nonuniform_schedulers(
        self, scheduler, options, band
    ):
        """The per-pair and round-based realisations of each scenario are
        analogous models, not identical processes; their epidemic completion
        times must stay within a constant factor of each other."""
        agent = _epidemic_mean_time("agent", scheduler, dict(options))
        vector = _epidemic_mean_time("vector", scheduler, dict(options))
        assert band[0] * agent < vector < band[1] * agent, (agent, vector)

    def test_state_weighted_agrees_between_count_and_batched(self):
        """The two count-level engines run the identical state-weighted
        distribution (batched via the multinomial, count per interaction)."""
        options = {"rates": (("I", 0.3),)}
        count = _epidemic_mean_time("count", "state-weighted", dict(options))
        batched = _epidemic_mean_time("batched", "state-weighted", dict(options))
        uniform = _epidemic_mean_time("count", "sequential", {})
        assert count == pytest.approx(batched, rel=0.3), (count, batched)
        # Throttling the infected agents must slow the epidemic down.
        assert count > 1.2 * uniform, (count, uniform)

    def test_incompatible_pairs_rejected(self):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            build_engine("count", EpidemicProtocol(), 64, scheduler="weighted")
        with pytest.raises(SimulationError):
            build_engine("vector", EpidemicProtocol(), 64, scheduler="sequential")
        with pytest.raises(SimulationError):
            build_engine("agent", EpidemicProtocol(), 64, scheduler="state-weighted")


# ---------------------------------------------------------------------------
# Engine x scheduler x backend: the array-backend seam joins the grid
# ---------------------------------------------------------------------------


def _grid_backends() -> list:
    """Non-reference array backends runnable here (native needs cffi and a
    C toolchain)."""
    from repro.backend.native_backend import NativeBackend

    if NativeBackend.available():
        return [pytest.param(NativeBackend(), id="native")]
    return []


class TestEngineSchedulerBackendGrid:
    """Every (engine, scheduler, backend) cell runs the numpy process.

    The numpy backend is bitwise-pinned by ``tests/backend``.  Every native
    kernel draws on the engine's generator in the numpy order, so each
    native cell must reproduce the numpy runs exactly: completion times,
    the configuration at every check and, on the batched engine, the
    generator's final state.
    """

    @pytest.mark.parametrize("backend", _grid_backends())
    @pytest.mark.parametrize(
        "engine,scheduler,options",
        [
            ("batched", None, {}),
            ("batched", "state-weighted", {"rates": (("I", 0.3),)}),
            ("vector", None, {}),
            ("vector", "weighted", {"lazy_fraction": 0.5, "lazy_rate": 0.2}),
        ],
    )
    def test_backend_agrees_with_numpy_reference(
        self, backend, engine, scheduler, options
    ):
        reference = _epidemic_runs(engine, scheduler, dict(options))
        observed = _epidemic_runs(engine, scheduler, dict(options), backend=backend)
        assert observed == reference, (engine, scheduler, backend.name)


# ---------------------------------------------------------------------------
# Coverage declaration: the grid's cells, as machine-readable literals
# ---------------------------------------------------------------------------

# `repro check` (rules M501/M502) and `repro engines --verify` cross-check
# these constants against the capability matrix without importing this
# module: every declared (engine, scheduler) and (array-engine, backend)
# cell must be listed here, and TestDeclaredCellCoverage below actually runs
# each listed cell.  Keep the literals in sync with any new scheduler policy,
# backend or engine — a mismatch fails the static-analysis CI job.

EXERCISED_CELLS = (
    ("agent", "sequential"),
    ("agent", "matching"),
    ("agent", "weighted"),
    ("agent", "two-block"),
    ("agent", "quiescing"),
    ("count", "sequential"),
    ("count", "state-weighted"),
    ("batched", "sequential"),
    ("batched", "state-weighted"),
    ("vector", "matching"),
    ("vector", "weighted"),
    ("vector", "two-block"),
    ("vector", "quiescing"),
    ("multiscale", "sequential"),
)

EXERCISED_BACKEND_CELLS = (
    ("batched", "numpy"),
    ("batched", "native"),
    ("vector", "numpy"),
    ("vector", "native"),
    ("multiscale", "numpy"),
    ("multiscale", "native"),
)

#: Valid options for the policies that require (or deserve) non-defaults.
_CELL_OPTIONS = {
    "weighted": {"lazy_fraction": 0.5, "lazy_rate": 0.2},
    "two-block": {"intra": 0.9},
    "quiescing": {"fraction": 0.25, "start": 0.0, "duration": 2.0},
    "state-weighted": {"rates": (("I", 0.5),)},
}


class TestDeclaredCellCoverage:
    """Every declared capability cell runs; the literals match the matrix."""

    def test_declaration_matches_capability_matrix(self):
        from repro.staticcheck.contracts import (
            declared_backend_cells,
            declared_scheduler_cells,
        )

        assert set(EXERCISED_CELLS) == declared_scheduler_cells()
        assert set(EXERCISED_BACKEND_CELLS) == declared_backend_cells()

    @pytest.mark.parametrize("engine,scheduler", EXERCISED_CELLS)
    def test_scheduler_cell_runs(self, engine, scheduler):
        protocol = EpidemicProtocol()
        simulator = build_engine(
            engine,
            protocol,
            32,
            seed=9,
            scheduler=scheduler,
            scheduler_options=dict(_CELL_OPTIONS.get(scheduler, {})),
        )
        elapsed = simulator.run_until(
            epidemic_completion_predicate, max_parallel_time=400, check_interval=8
        )
        assert elapsed > 0
        # The shared interface: outputs() is the configuration's histogram
        # through the protocol's output, and a negative run length is a
        # library error that leaves the clock where it was.
        expected: Counter = Counter()
        for state, count in simulator.configuration().items():
            expected[protocol.output(state)] += count
        assert simulator.outputs() == expected
        with pytest.raises(SimulationError):
            simulator.run_parallel_time(-1)
        assert simulator.parallel_time == elapsed

    @pytest.mark.parametrize("engine,backend_name", EXERCISED_BACKEND_CELLS)
    def test_backend_cell_runs(self, engine, backend_name):
        from repro.backend import get_backend

        backend = get_backend(backend_name)
        if backend_name == "native" and not backend.available():
            pytest.skip(backend.unavailable_reason() or "native backend unavailable")
        simulator = build_engine(
            engine, EpidemicProtocol(), 32, seed=9, backend=backend
        )
        elapsed = simulator.run_until(
            epidemic_completion_predicate, max_parallel_time=400, check_interval=8
        )
        assert elapsed > 0
