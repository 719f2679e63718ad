"""Tests for the batched configuration-level engine."""

from __future__ import annotations

import math

import pytest

from repro.backend.native_backend import NativeBackend
from repro.engine.batched_simulator import BatchedCountSimulator
from repro.engine.configuration import Configuration
from repro.engine.selection import build_engine
from repro.exceptions import ConvergenceError, SimulationError
from repro.protocols.base import FunctionalFiniteStateProtocol
from repro.protocols.epidemic import (
    EpidemicProtocol,
    EpidemicState,
    epidemic_completion_predicate,
)
from repro.protocols.leader_election import (
    FiniteStatePairwiseElimination,
    unique_leader_predicate,
)
from repro.protocols.majority import (
    ApproximateMajorityProtocol,
    majority_consensus_predicate,
)


class _GhostEpidemic(EpidemicProtocol):
    """Replaces only initial_state, under the epidemic's closed form."""

    def initial_state(self, agent_id):
        return "ghost"


class TestConstruction:
    def test_initial_counts_from_protocol(self):
        simulator = BatchedCountSimulator(EpidemicProtocol(), 100, seed=1)
        assert simulator.count(EpidemicState.INFECTED) == 1
        assert simulator.count(EpidemicState.SUSCEPTIBLE) == 99

    def test_explicit_initial_configuration(self):
        configuration = Configuration(
            {EpidemicState.INFECTED: 10, EpidemicState.SUSCEPTIBLE: 90}
        )
        simulator = BatchedCountSimulator(
            EpidemicProtocol(), 100, seed=1, initial_configuration=configuration
        )
        assert simulator.count(EpidemicState.INFECTED) == 10

    def test_initial_configuration_size_checked(self):
        configuration = Configuration({EpidemicState.INFECTED: 5})
        with pytest.raises(SimulationError):
            BatchedCountSimulator(
                EpidemicProtocol(), 100, initial_configuration=configuration
            )

    @pytest.mark.parametrize("engine", ["count", "batched", "multiscale"])
    def test_initial_configuration_state_set_checked(self, engine):
        configuration = Configuration({EpidemicState.INFECTED: 50, "ghost": 50})
        with pytest.raises(SimulationError, match="outside"):
            build_engine(
                engine, EpidemicProtocol(), 100,
                initial_configuration=configuration,
            )

    @pytest.mark.parametrize("engine", ["count", "batched", "multiscale"])
    @pytest.mark.parametrize(
        "protocol",
        [
            FunctionalFiniteStateProtocol(
                ("A", "B"), {("A", "B"): [("A", "A", 1.0)]}, initial="Z"
            ),
            _GhostEpidemic(),
        ],
        ids=["functional", "subclass"],
    )
    def test_protocol_initial_configuration_is_checked_too(self, engine, protocol):
        with pytest.raises(SimulationError, match="outside"):
            build_engine(engine, protocol, 10)

    def test_rejects_tiny_population(self):
        with pytest.raises(SimulationError):
            BatchedCountSimulator(EpidemicProtocol(), 1)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(SimulationError):
            BatchedCountSimulator(EpidemicProtocol(), 100, batch_size=0)

    def test_default_batch_size_is_sqrt_n(self):
        simulator = BatchedCountSimulator(EpidemicProtocol(), 10_000, seed=1)
        assert simulator.batch_size == 100

    def test_unknown_state_counts_as_zero(self):
        simulator = BatchedCountSimulator(EpidemicProtocol(), 100, seed=1)
        assert simulator.count("never-a-state") == 0


class TestDynamics:
    def test_population_size_is_conserved(self):
        simulator = BatchedCountSimulator(ApproximateMajorityProtocol(), 5_000, seed=2)
        simulator.run_parallel_time(5)
        assert simulator.configuration().size == 5_000

    def test_interaction_accounting_is_exact(self):
        simulator = BatchedCountSimulator(EpidemicProtocol(), 1_000, seed=3)
        simulator.run_interactions(12_345)
        assert simulator.interactions == 12_345
        assert simulator.parallel_time == pytest.approx(12.345)

    def test_negative_interactions_rejected(self):
        simulator = BatchedCountSimulator(EpidemicProtocol(), 100, seed=3)
        with pytest.raises(SimulationError):
            simulator.run_interactions(-1)

    def test_epidemic_completes_in_logarithmic_time(self):
        simulator = BatchedCountSimulator(EpidemicProtocol(), 50_000, seed=4)
        elapsed = simulator.run_until(
            epidemic_completion_predicate, max_parallel_time=50 * math.log(50_000)
        )
        assert simulator.count(EpidemicState.SUSCEPTIBLE) == 0
        assert elapsed < 24 * math.log(50_000)

    def test_majority_reaches_consensus_on_initial_majority(self):
        simulator = BatchedCountSimulator(
            ApproximateMajorityProtocol(x_fraction=0.8), 20_000, seed=5
        )
        simulator.run_until(majority_consensus_predicate, max_parallel_time=300)
        assert simulator.count(ApproximateMajorityProtocol.OPINION_Y) == 0

    def test_leader_election_terminates_with_single_leader(self):
        # Small n so the Theta(n)-time tail stays cheap; exercises the
        # small-count exact fallback in the endgame.
        simulator = BatchedCountSimulator(FiniteStatePairwiseElimination(), 300, seed=6)
        simulator.run_until(unique_leader_predicate, max_parallel_time=3_000)
        assert simulator.count(FiniteStatePairwiseElimination.LEADER) == 1
        assert simulator.fallback_batches + simulator.batched_batches > 0

    def test_run_until_budget_exhaustion_raises(self):
        simulator = BatchedCountSimulator(EpidemicProtocol(), 10_000, seed=7)
        with pytest.raises(ConvergenceError):
            simulator.run_until(
                lambda sim: sim.count(EpidemicState.INFECTED) < 0,
                max_parallel_time=1.0,
            )

    def test_reproducibility(self):
        runs = []
        for _ in range(2):
            simulator = BatchedCountSimulator(ApproximateMajorityProtocol(), 2_000, seed=42)
            simulator.run_parallel_time(5)
            runs.append(simulator.configuration())
        assert runs[0] == runs[1]

    def test_states_seen_accumulates(self):
        simulator = BatchedCountSimulator(
            ApproximateMajorityProtocol(x_fraction=0.5), 2_000, seed=8
        )
        simulator.run_parallel_time(3)
        assert ApproximateMajorityProtocol.BLANK in simulator.states_seen()

    def test_outputs_histogram_sums_to_population(self):
        simulator = BatchedCountSimulator(ApproximateMajorityProtocol(0.5), 3_000, seed=9)
        simulator.run_parallel_time(2)
        assert sum(simulator.outputs().values()) == 3_000


class TestSmallCountFallback:
    def test_tiny_population_runs_exactly(self):
        simulator = BatchedCountSimulator(
            FiniteStatePairwiseElimination(), 6, seed=10, small_count_threshold=8
        )
        simulator.run_interactions(500)
        # The leader state stays present (count 1) and is the only reactive
        # state, so every batch at this tiny n takes the exact path; the two
        # counters must account for every batch either way.
        assert simulator.fallback_batches > 0
        total_batches = -(-500 // simulator.batch_size)
        assert simulator.fallback_batches + simulator.batched_batches == total_batches
        assert simulator.configuration().size == 6
        assert simulator.count(FiniteStatePairwiseElimination.LEADER) == 1

    def test_fallback_can_be_disabled(self):
        simulator = BatchedCountSimulator(
            EpidemicProtocol(), 1_000, seed=11, small_count_threshold=0
        )
        simulator.run_parallel_time(30)
        assert simulator.count(EpidemicState.SUSCEPTIBLE) == 0

    def test_consumption_guard_never_goes_negative(self):
        # An aggressive protocol where every pair reacts: a,b -> b,a swaps
        # plus b,b -> a,a; tiny counts stress the guard.
        protocol = FunctionalFiniteStateProtocol(
            state_set=("a", "b"),
            transition_map={
                ("a", "a"): [("a", "b", 1.0)],
                ("b", "b"): [("a", "a", 1.0)],
            },
            initial=lambda agent_id: "a" if agent_id % 2 else "b",
        )
        simulator = BatchedCountSimulator(
            protocol, 40, seed=12, batch_size=30, small_count_threshold=0
        )
        for _ in range(50):
            simulator.run_interactions(30)
            configuration = simulator.configuration()
            assert configuration.size == 40
            assert all(count >= 0 for _, count in configuration.items())


class TestTracing:
    def test_run_with_trace_exact_sample_count(self):
        simulator = BatchedCountSimulator(EpidemicProtocol(), 500, seed=13)
        trace = simulator.run_with_trace(total_parallel_time=5, samples=7)
        assert len(trace) == 8  # initial point + exactly 7 checkpoints
        assert trace[0].parallel_time == 0.0
        assert trace[-1].interaction == 2_500
        assert all(point.configuration.size == 500 for point in trace)

    def test_trace_counts_are_monotone_for_epidemic(self):
        simulator = BatchedCountSimulator(EpidemicProtocol(), 500, seed=14)
        trace = simulator.run_with_trace(total_parallel_time=10, samples=20)
        infected = [point.configuration.count(EpidemicState.INFECTED) for point in trace]
        assert all(later >= earlier for earlier, later in zip(infected, infected[1:]))

    def test_run_with_trace_rejects_bad_samples(self):
        simulator = BatchedCountSimulator(EpidemicProtocol(), 100, seed=15)
        with pytest.raises(SimulationError):
            simulator.run_with_trace(total_parallel_time=1, samples=0)


_NATIVE = pytest.param(
    "native",
    marks=pytest.mark.skipif(
        not NativeBackend.available(), reason="native backend unavailable"
    ),
)


class TestBatchedSchedulerPolicies:
    @pytest.mark.parametrize(
        "n,options,error,expected",
        [
            # The last pair of positive-rate agents goes inside the
            # consumption-guard fallback of batch 20 (of 20 interactions).
            (400, {}, "fewer than two agents", (20, 380, 19, 0, 117596298)),
            # One-interaction batches reach a single leader; the next
            # batch's pair weights sum to zero.
            (
                10,
                {"batch_size": 1, "small_count_threshold": 0},
                "zero total weight",
                (1, 9, 9, 0, 140394751),
            ),
        ],
        ids=["exact-fallback", "zero-weight"],
    )
    @pytest.mark.parametrize("backend", ["numpy", _NATIVE])
    def test_a_failing_batch_stops_the_clock_before_it(
        self, backend, n, options, error, expected
    ):
        """With the follower rate at zero the election runs out of
        positive-rate pairs.  The run raises, the counts stay as the failing
        batch found them, only the batches before it count, and the
        generator is where that batch's draws left it, on every backend."""
        simulator = build_engine(
            "batched",
            FiniteStatePairwiseElimination(),
            n,
            seed=3,
            scheduler="state-weighted",
            scheduler_options={"rates": (("F", 0.0),)},
            backend=backend,
            **options,
        )
        with pytest.raises(SimulationError, match=error):
            simulator.run_interactions(10**6)
        leaders = simulator.count(FiniteStatePairwiseElimination.LEADER)
        assert (
            leaders,
            simulator.interactions,
            simulator.batched_batches,
            simulator.fallback_batches,
            int(simulator._rng.integers(0, 2**32)),
        ) == expected
        assert simulator.configuration().size == n
        assert simulator.states_seen() == {"L", "F"}

    def test_per_agent_scheduler_rejected(self):
        from repro.protocols.epidemic import EpidemicProtocol

        with pytest.raises(SimulationError):
            BatchedCountSimulator(EpidemicProtocol(), 1000, scheduler="two-block")

    def test_zero_rate_state_is_frozen_in_batches_and_fallback(self):
        from repro.engine.scheduler import SchedulerSpec
        from repro.protocols.epidemic import EpidemicProtocol

        spec = SchedulerSpec("state-weighted", (("rates", (("I", 0.0),)),))
        # Large n exercises the multinomial path, tiny batch the fallback.
        simulator = BatchedCountSimulator(
            EpidemicProtocol(), 2_000, seed=3, scheduler=spec
        )
        simulator.run_parallel_time(20)
        assert simulator.count("I") == 1

    def test_state_weighted_slows_the_epidemic(self):
        from repro.engine.scheduler import SchedulerSpec
        from repro.protocols.epidemic import EpidemicProtocol
        from repro.protocols.epidemic import epidemic_completion_predicate

        spec = SchedulerSpec("state-weighted", (("rates", (("I", 0.25),)),))
        times = {}
        for label, scheduler in (("uniform", None), ("weighted", spec)):
            samples = []
            for run_index in range(5):
                simulator = BatchedCountSimulator(
                    EpidemicProtocol(), 1_000, seed=100 + run_index,
                    scheduler=scheduler,
                )
                samples.append(
                    simulator.run_until(
                        epidemic_completion_predicate, max_parallel_time=500
                    )
                )
            times[label] = sum(samples) / len(samples)
        assert times["weighted"] > 1.5 * times["uniform"], times
