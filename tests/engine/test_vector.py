"""Tests for the vector engine: fields registry, generic kernel, selection."""

from __future__ import annotations

import math

import pytest

from repro.core.array_simulator import LogSizeVectorProtocol
from repro.core.parameters import ProtocolParameters
from repro.core.vector_leader import LeaderTerminatingVectorProtocol
from repro.engine.configuration import Configuration
from repro.engine.scheduler import SchedulerSpec
from repro.engine.selection import ENGINE_NAMES, build_engine
from repro.engine.vector import (
    FiniteStateVectorProtocol,
    VectorFields,
    VectorFiniteStateSimulator,
    VectorSimulator,
)
from repro.exceptions import ConvergenceError, SimulationError
from repro.harness.parallel import (
    build_finite_state_trials,
    build_vector_trials,
    run_trial,
)
from repro.protocols.base import FiniteStateProtocol, RandomizedTransition
from repro.protocols.epidemic import (
    EpidemicProtocol,
    EpidemicState,
    epidemic_completion_predicate,
)
from repro.protocols.majority import ApproximateMajorityProtocol
from repro.store.base import record_to_dict


class CoinFlipProtocol(FiniteStateProtocol):
    """Undecided pairs flip a fair coin: (U, U) -> (H, H) or (T, T)."""

    def states(self):
        return ("U", "H", "T")

    def initial_state(self, agent_id):
        return "U"

    def transitions(self, receiver, sender):
        if receiver == "U" and sender == "U":
            return (
                RandomizedTransition("H", "H", probability=0.5),
                RandomizedTransition("T", "T", probability=0.5),
            )
        return ()

    def output(self, state):
        return state

    def describe(self):
        return "CoinFlip"


class TestVectorFields:
    def test_rejects_tiny_population(self):
        with pytest.raises(SimulationError):
            VectorFields(1)

    def test_add_and_lookup(self):
        fields = VectorFields(10)
        array = fields.add("x", int, fill=3)
        assert (fields["x"] == 3).all()
        assert array is fields["x"]
        assert "x" in fields
        assert fields.names() == ("x",)

    def test_duplicate_field_rejected(self):
        fields = VectorFields(4)
        fields.add("x", int)
        with pytest.raises(SimulationError):
            fields.add("x", int)

    def test_tracking_unregistered_field_rejected(self):
        fields = VectorFields(4)
        with pytest.raises(SimulationError):
            fields.track("missing")

    def test_range_sampling_takes_running_maximum(self):
        fields = VectorFields(4)
        array = fields.add("x", int)
        fields.track("x")
        array[:] = [1, 5, 2, 0]
        fields.sample_ranges()
        array[:] = 0
        fields.sample_ranges()
        assert fields.max_observed("x") == 5


class TestFiniteStateKernel:
    def test_epidemic_completes(self):
        simulator = VectorFiniteStateSimulator(EpidemicProtocol(), 500, seed=2)
        elapsed = simulator.run_until(
            epidemic_completion_predicate, max_parallel_time=100
        )
        assert 0 < elapsed < 100
        assert simulator.count(EpidemicState.INFECTED) == 500
        assert simulator.count(EpidemicState.SUSCEPTIBLE) == 0
        assert simulator.outputs() == {True: 500}

    def test_randomized_transitions_split_roughly_evenly(self):
        simulator = VectorFiniteStateSimulator(CoinFlipProtocol(), 2_000, seed=4)
        simulator.run_until(
            lambda sim: sim.count("U") <= 1, max_parallel_time=500
        )
        heads = simulator.count("H")
        tails = simulator.count("T")
        assert heads + tails >= 1_999
        # Each decided pair is an independent fair coin: ~n/2 +- noise.
        assert 0.4 < heads / (heads + tails) < 0.6

    def test_reproducible_per_seed(self):
        outcomes = []
        for _ in range(2):
            simulator = VectorFiniteStateSimulator(EpidemicProtocol(), 300, seed=9)
            outcomes.append(
                simulator.run_until(
                    epidemic_completion_predicate, max_parallel_time=100
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_initial_configuration_respected(self):
        configuration = Configuration({"I": 150, "S": 150})
        simulator = VectorFiniteStateSimulator(
            EpidemicProtocol(), 300, seed=1, initial_configuration=configuration
        )
        assert simulator.count("I") == 150
        simulator.run_round()
        assert simulator.count("I") >= 150

    def test_initial_configuration_size_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            VectorFiniteStateSimulator(
                EpidemicProtocol(), 300, initial_configuration=Configuration({"I": 5})
            )

    def test_run_until_timeout_raises(self):
        simulator = VectorFiniteStateSimulator(EpidemicProtocol(), 400, seed=3)
        with pytest.raises(ConvergenceError):
            simulator.run_until(
                epidemic_completion_predicate, max_parallel_time=0.5
            )

    def test_round_accounting(self):
        simulator = VectorFiniteStateSimulator(EpidemicProtocol(), 101, seed=1)
        simulator.run_interactions(120)
        # Whole rounds of floor(101/2) = 50 interactions: 3 rounds = 150.
        assert simulator.rounds == 3
        assert simulator.interactions == 150
        assert simulator.parallel_time == pytest.approx(150 / 101)

    def test_run_with_trace_snapshots(self):
        simulator = VectorFiniteStateSimulator(EpidemicProtocol(), 200, seed=6)
        trace = simulator.run_with_trace(total_parallel_time=4.0, samples=4)
        assert len(trace) == 5
        assert trace[0].interaction == 0
        sizes = [point.configuration.size for point in trace]
        assert all(size == 200 for size in sizes)
        infected = [
            point.configuration.counts.get(EpidemicState.INFECTED, 0)
            for point in trace
        ]
        assert infected == sorted(infected)  # the epidemic only grows

    def test_run_with_trace_does_not_compound_round_overshoot(self):
        # Rounds of floor(101/2)=50 interactions never divide the 101-per-
        # time-unit boundaries: each snapshot must land on the first round
        # boundary at or after its exact boundary, not accumulate drift.
        simulator = VectorFiniteStateSimulator(EpidemicProtocol(), 101, seed=6)
        trace = simulator.run_with_trace(total_parallel_time=4.0, samples=4)
        boundaries = [101, 202, 303, 404]
        for point, boundary in zip(trace[1:], boundaries):
            assert boundary <= point.interaction < boundary + 50, (
                point.interaction,
                boundary,
            )
        assert simulator.interactions == trace[-1].interaction

    def test_majority_conserves_population(self):
        simulator = VectorFiniteStateSimulator(
            ApproximateMajorityProtocol(x_fraction=0.7), 301, seed=8
        )
        simulator.run_parallel_time(10)
        assert simulator.configuration().size == 301


class TestEngineSelection:
    def test_vector_listed(self):
        assert "vector" in ENGINE_NAMES

    def test_build_engine_returns_vector_simulator(self):
        simulator = build_engine("vector", EpidemicProtocol(), 64, seed=0)
        assert isinstance(simulator, VectorFiniteStateSimulator)
        assert simulator.population_size == 64

    def test_vector_rejects_engine_options(self):
        with pytest.raises(SimulationError):
            build_engine("vector", EpidemicProtocol(), 64, batch_size=32)

    def test_vector_accepts_initial_configuration(self):
        configuration = Configuration({"I": 10, "S": 54})
        simulator = build_engine(
            "vector", EpidemicProtocol(), 64, seed=0,
            initial_configuration=configuration,
        )
        assert simulator.count("I") == 10


class TestVectorSimulatorDriver:
    def test_predicate_free_kernel_runs_out_its_budget(self):
        # A finite-state kernel has no intrinsic done condition: the run
        # exhausts its budget and the kernel reports no result fields.
        kernel = FiniteStateVectorProtocol(EpidemicProtocol())
        simulator = VectorSimulator(kernel, 50, seed=0)
        with pytest.raises(ConvergenceError):
            simulator.run_until(VectorSimulator.all_done, max_parallel_time=2.0)
        assert simulator.rounds == int(2.0 * 50 / 25) + 1
        assert simulator.interactions == simulator.rounds * 25
        assert kernel.result_extra(simulator.fields) == {}

    def test_check_interval_validated(self):
        kernel = FiniteStateVectorProtocol(EpidemicProtocol())
        simulator = VectorSimulator(kernel, 50, seed=0)
        with pytest.raises(SimulationError):
            simulator.run_until(
                VectorSimulator.all_done, max_parallel_time=1.0, check_interval=0
            )
        assert simulator.rounds == 0

    def test_coarse_check_interval_checks_every_whole_rounds(self):
        # check_interval=120 at floor(100/2) = 50 interactions per round:
        # the predicate is checked every ceil(120 / 50) = 3 rounds.
        simulator = VectorSimulator(
            FiniteStateVectorProtocol(EpidemicProtocol()), 100, seed=0
        )
        checked = []

        def predicate(sim):
            checked.append(sim.rounds)
            return sim.rounds >= 4

        elapsed = simulator.run_until(
            predicate, max_parallel_time=100.0, check_interval=120
        )
        assert checked == [0, 3, 6]
        assert simulator.rounds == 6
        assert elapsed == pytest.approx(6 * 50 / 100)

    @pytest.mark.parametrize(
        "method, args", [("run_with_trace", (10.0, 3)), ("outputs", ())],
        ids=["run_with_trace", "outputs"],
    )
    @pytest.mark.parametrize(
        "kernel", [LogSizeVectorProtocol, LeaderTerminatingVectorProtocol]
    )
    def test_field_protocols_have_no_configuration(self, kernel, method, args):
        # Per-agent-field protocols keep no count configuration: tracing and
        # the output histogram raise one error, before the clock moves.
        simulator = VectorSimulator(
            kernel(ProtocolParameters.fast_test()), 50, seed=1
        )
        with pytest.raises(
            SimulationError, match=f"^{kernel.__name__} has no count configuration"
        ):
            getattr(simulator, method)(*args)
        assert simulator.rounds == 0
        assert simulator.interactions == 0

    def test_result_as_dict(self):
        # A finite-state protocol on the vector engine, recorded by the
        # harness: three rounds of 25 cross the budget of 1.0 * 50.
        (spec,) = build_finite_state_trials(
            [50], 1, engine="vector", protocol="epidemic", max_parallel_time=1.0
        )
        data = record_to_dict(run_trial(spec))
        assert data["population_size"] == 50
        assert data["converged"] is False
        assert math.isfinite(data["extra"]["interactions"])
        assert data["extra"]["interactions"] == 3 * 25


class TestVectorSchedulers:
    """Pluggable round schedulers on the vector engine."""

    def test_quiescing_starves_the_epidemic_source(self):
        # Agent 0 is the epidemic source and sits in the starved prefix, so
        # the infection cannot move while the window is open.
        simulator = VectorFiniteStateSimulator(
            EpidemicProtocol(),
            100,
            seed=4,
            scheduler=SchedulerSpec(
                "quiescing",
                (("duration", 5.0), ("fraction", 0.2), ("start", 0.0)),
            ),
        )
        simulator.run_parallel_time(4.0)
        assert simulator.count("I") == 1
        simulator.run_until(
            epidemic_completion_predicate, max_parallel_time=200
        )
        assert simulator.count("S") == 0

    def test_run_interactions_advances_the_clock_not_the_emitted_pairs(self):
        """Regression: ``run_interactions(k)`` used to count emitted pairs,
        so under a thinning scheduler it ran about twice the parallel time
        that ``run_parallel_time(k / n)`` did."""
        weighted = SchedulerSpec(
            "weighted", (("lazy_fraction", 0.5), ("lazy_rate", 0.1))
        )
        by_count, by_time = (
            VectorFiniteStateSimulator(
                EpidemicProtocol(), 200, seed=5, scheduler=weighted
            )
            for _ in range(2)
        )
        by_count.run_interactions(1_000)
        by_time.run_parallel_time(5.0)
        assert by_count.rounds == by_time.rounds == 10
        assert by_count.parallel_time == by_time.parallel_time == 5.0
        # ``interactions`` still reports the pairs actually emitted.
        assert by_count.interactions == by_time.interactions < 1_000

    def test_weighted_rounds_emit_fewer_interactions(self):
        simulator = VectorFiniteStateSimulator(
            EpidemicProtocol(),
            200,
            seed=5,
            scheduler=SchedulerSpec(
                "weighted", (("lazy_fraction", 0.5), ("lazy_rate", 0.1))
            ),
        )
        for _ in range(50):
            simulator.run_round()
        # ~55% of the agents are available per round on average, so the
        # emitted interactions stay well under the full 100 per round...
        assert simulator.interactions < 50 * 90
        # ...but the clock still ticks a full nominal round each time: idle
        # agents cost parallel time (lazy populations converge later).
        assert simulator.parallel_time == pytest.approx(50 * 100 / 200)

    def test_two_block_converges_and_conserves_population(self):
        simulator = VectorFiniteStateSimulator(
            EpidemicProtocol(),
            150,
            seed=6,
            scheduler=SchedulerSpec("two-block", (("intra", 0.95),)),
        )
        elapsed = simulator.run_until(
            epidemic_completion_predicate, max_parallel_time=500
        )
        assert elapsed > 0
        assert simulator.configuration().size == 150

    def test_prebuilt_round_scheduler_accepted_and_validated(self):
        from repro.engine.scheduler import MatchingRoundScheduler

        kernel = FiniteStateVectorProtocol(EpidemicProtocol())
        simulator = VectorSimulator(
            kernel, 60, seed=0, scheduler=MatchingRoundScheduler(60)
        )
        simulator.run_round()
        assert simulator.interactions == 30
        with pytest.raises(SimulationError):
            VectorSimulator(
                FiniteStateVectorProtocol(EpidemicProtocol()),
                60,
                scheduler=MatchingRoundScheduler(59),
            )

    def test_default_scheduler_stream_unchanged(self):
        # The refactor must not move the default matching engine off its
        # historical RNG stream: same seed, same trajectory as a manually
        # driven simulator without any scheduler argument.
        default = VectorFiniteStateSimulator(EpidemicProtocol(), 101, seed=9)
        explicit = VectorFiniteStateSimulator(
            EpidemicProtocol(), 101, seed=9, scheduler="matching"
        )
        for simulator in (default, explicit):
            simulator.run_interactions(500)
        assert default.configuration() == explicit.configuration()


class TestRunUntilBudgetExact:
    def test_check_interval_does_not_extend_the_budget(self):
        """Regression: with a coarse check_interval the run must still stop
        at the round that crosses the budget (historically exactly
        int(t*n/half)+1 rounds), not run whole extra check chunks."""
        simulator = VectorFiniteStateSimulator(EpidemicProtocol(), 100, seed=1)
        with pytest.raises(ConvergenceError):
            simulator.run_until(
                lambda sim: False, max_parallel_time=10.0, check_interval=500
            )
        assert simulator.rounds == int(10.0 * 100 / 50) + 1


class TestKernelBudgetEdge:
    def test_kernel_trial_stops_at_the_round_that_crosses_the_budget(self):
        # t*n = 50 * 200 = 10_000 is a multiple of floor(n/2) = 100: the
        # run stops after the round that crosses it, round 101.
        specs = build_vector_trials(
            [200], 2, protocol="figure2", params=ProtocolParameters.fast_test(),
            base_seed=0, max_parallel_time=50.0,
        )
        for spec in specs:
            record = run_trial(spec)
            assert not record.converged
            assert record.convergence_time is None
            assert record.extra["interactions"] == 10_100


class TestNominalTimeSemantics:
    def test_thinned_rounds_still_cost_full_time(self):
        """Regression: a lazy population must converge *later* in parallel
        time, not earlier — rate-thinned rounds used to advance the clock
        only by the pairs they executed, making laziness look like a
        speed-up."""
        import statistics

        def mean_time(scheduler):
            times = []
            for run_index in range(8):
                simulator = VectorFiniteStateSimulator(
                    EpidemicProtocol(), 200, seed=7_000 + run_index,
                    scheduler=scheduler,
                )
                times.append(
                    simulator.run_until(
                        epidemic_completion_predicate, max_parallel_time=400
                    )
                )
            return statistics.fmean(times)

        uniform = mean_time(None)
        lazy = mean_time(
            SchedulerSpec("weighted", (("lazy_fraction", 0.5), ("lazy_rate", 0.1)))
        )
        assert lazy > uniform, (lazy, uniform)
