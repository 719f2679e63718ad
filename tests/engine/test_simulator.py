"""Tests for the agent-level simulation engine."""

from __future__ import annotations

import pytest

from repro.engine.configuration import Configuration
from repro.engine.running import CountTracePoint, run_with_trace
from repro.engine.scheduler import (
    InteractionScheduler,
    RandomMatchingScheduler,
    SchedulerSpec,
    SequentialScheduler,
)
from repro.engine.selection import CountingSimulationAdapter, build_engine
from repro.engine.simulator import Simulation
from repro.exceptions import ConvergenceError, SimulationError
from repro.protocols.base import AgentProtocol
from repro.protocols.epidemic import EpidemicProtocol, EpidemicState
from repro.rng import RandomSource
from repro.types import InteractionPair, snapshot_boundaries


def everyone_infected(simulation: Simulation) -> bool:
    return all(simulation.protocol.output(state) for state in simulation.states)


class TouchCounting(AgentProtocol[int]):
    """Each agent counts the interactions it has taken part in."""

    def initial_state(self, agent_id: int) -> int:
        return 0

    def transition(self, receiver: int, sender: int, rng: RandomSource):
        return receiver + 1, sender + 1


class MaxPropagation(AgentProtocol[int]):
    """Max-propagation by epidemic: both agents take the larger value."""

    def __init__(self, initial_value) -> None:
        self._initial_value = initial_value

    def initial_state(self, agent_id: int) -> int:
        return self._initial_value(agent_id)

    def transition(self, receiver: int, sender: int, rng: RandomSource):
        maximum = max(receiver, sender)
        return maximum, maximum


class ReceiverAdds(AgentProtocol[int]):
    """Asymmetric: the receiver adds the sender's value, the sender keeps it."""

    def initial_state(self, agent_id: int) -> int:
        return agent_id + 1

    def transition(self, receiver: int, sender: int, rng: RandomSource):
        return receiver + sender, sender


class ScriptedScheduler(InteractionScheduler):
    """Emits a fixed list of ``(receiver, sender)`` pairs."""

    def __init__(self, n: int, rng: RandomSource, pairs) -> None:
        super().__init__(n, rng)
        self._pairs = iter(pairs)

    def _next_pair(self) -> InteractionPair:
        receiver, sender = next(self._pairs)
        return InteractionPair(receiver=receiver, sender=sender)


def predicate_log(holds_at: int | None = None):
    """A predicate that records the interaction count of every call."""
    calls: list[int] = []

    def predicate(simulation) -> bool:
        calls.append(simulation.interactions)
        return holds_at is not None and simulation.interactions >= holds_at

    return predicate, calls


class TestConstruction:
    def test_initial_states_from_protocol(self):
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 10, seed=1)
        assert simulation.count_where(lambda s: s == EpidemicState.INFECTED) == 1
        assert simulation.count_where(lambda s: s == EpidemicState.SUSCEPTIBLE) == 9

    def test_explicit_initial_states(self):
        protocol = EpidemicProtocol().as_agent_protocol()
        states = [EpidemicState.INFECTED] * 3 + [EpidemicState.SUSCEPTIBLE] * 2
        simulation = Simulation(protocol, 5, seed=1, initial_states=states)
        assert simulation.count_where(lambda s: s == EpidemicState.INFECTED) == 3

    def test_explicit_initial_states_length_checked(self):
        protocol = EpidemicProtocol().as_agent_protocol()
        with pytest.raises(SimulationError):
            Simulation(protocol, 5, seed=1, initial_states=[EpidemicState.INFECTED])

    def test_rejects_tiny_population(self):
        with pytest.raises(SimulationError):
            Simulation(EpidemicProtocol().as_agent_protocol(), 1, seed=1)

    def test_initial_states_list_is_copied(self):
        protocol = EpidemicProtocol().as_agent_protocol()
        states = [EpidemicState.INFECTED] + [EpidemicState.SUSCEPTIBLE] * 3
        simulation = Simulation(protocol, 4, seed=1, initial_states=states)
        states[1] = EpidemicState.INFECTED
        assert simulation.count_where(lambda s: s == EpidemicState.INFECTED) == 1

    def test_default_scheduler_is_the_papers_sequential_one(self):
        simulation = Simulation(TouchCounting(), 8, seed=1)
        assert type(simulation.scheduler) is SequentialScheduler
        assert simulation.scheduler.rng is simulation.rng

    def test_scheduler_name_selects_the_pair_stream(self):
        # One matching round is n/2 interactions touching every agent once,
        # which the sequential scheduler essentially never does.
        simulation = Simulation(TouchCounting(), 16, seed=3, scheduler="matching")
        assert isinstance(simulation.scheduler, RandomMatchingScheduler)
        simulation.run_interactions(8)
        assert simulation.states == [1] * 16
        simulation.run_interactions(16)
        assert simulation.states == [3] * 16

    def test_scheduler_spec_options_reach_the_pair_stream(self):
        spec = SchedulerSpec(
            "quiescing", (("duration", 100.0), ("fraction", 0.5), ("start", 0.0))
        )
        simulation = Simulation(TouchCounting(), 10, seed=4, scheduler=spec)
        simulation.run_interactions(60)
        # The first half of the agents is starved for the whole run.
        assert simulation.states[:5] == [0] * 5
        assert sum(simulation.states[5:]) == 120

    def test_prebuilt_scheduler_is_used_as_is(self):
        rng = RandomSource(seed=0)
        scheduler = ScriptedScheduler(3, rng, [(0, 1)])
        simulation = Simulation(TouchCounting(), 3, seed=5, scheduler=scheduler)
        assert simulation.scheduler is scheduler
        simulation.step()
        assert simulation.states == [1, 1, 0]

    def test_scheduler_population_must_match(self):
        scheduler = SequentialScheduler(5, RandomSource(seed=0))
        with pytest.raises(SimulationError, match="population size"):
            Simulation(TouchCounting(), 6, seed=1, scheduler=scheduler)

    def test_scheduler_without_a_pair_form_rejected(self):
        with pytest.raises(SimulationError, match="per-pair"):
            Simulation(TouchCounting(), 6, seed=1, scheduler="state-weighted")


class TestStepping:
    def test_step_counts_interactions(self):
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 6, seed=2)
        for _ in range(30):
            simulation.step()
        assert simulation.metrics.interactions == 30
        assert simulation.metrics.parallel_time == pytest.approx(5.0)
        assert simulation.interactions == 30
        assert simulation.parallel_time == pytest.approx(5.0)

    def test_run_interactions_matches_step_loop(self):
        """run_interactions reproduces a step() loop draw for draw."""
        batch = Simulation(EpidemicProtocol().as_agent_protocol(), 64, seed=99)
        batch.run_interactions(500)
        stepped = Simulation(EpidemicProtocol().as_agent_protocol(), 64, seed=99)
        for _ in range(500):
            stepped.step()
        assert batch.states == stepped.states
        assert batch.metrics.interactions == stepped.metrics.interactions
        assert batch.metrics.null_interactions == stepped.metrics.null_interactions
        # Both consumed the shared random stream identically.
        assert batch.rng.random() == stepped.rng.random()

    def test_run_parallel_time(self):
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 6, seed=2)
        simulation.run_parallel_time(3.0)
        assert simulation.metrics.interactions == 18

    def test_run_parallel_time_rounds_up_to_whole_interactions(self):
        simulation = Simulation(TouchCounting(), 6, seed=2)
        simulation.run_parallel_time(0.4)  # 2.4 interactions
        assert simulation.interactions == 3
        simulation.run_parallel_time(0.5)
        assert simulation.interactions == 6
        assert sum(simulation.states) == 12

    def test_run_interactions_rejects_negative(self):
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 6, seed=2)
        with pytest.raises(SimulationError):
            simulation.run_interactions(-1)

    def test_step_applies_the_transition_to_the_scheduled_pair(self):
        """The first state of the pair is the receiver's, the second the sender's."""
        rng = RandomSource(seed=0)
        scheduler = ScriptedScheduler(4, rng, [(3, 0), (0, 3), (1, 2)])
        simulation = Simulation(ReceiverAdds(), 4, seed=0, scheduler=scheduler)
        assert simulation.states == [1, 2, 3, 4]
        assert simulation.step() is None
        assert simulation.states == [1, 2, 3, 5]
        simulation.step()
        assert simulation.states == [6, 2, 3, 5]
        simulation.step()
        assert simulation.states == [6, 5, 3, 5]
        assert simulation.interactions == 3

    def test_null_interactions_count_steps_that_change_nothing(self):
        protocol = EpidemicProtocol().as_agent_protocol()
        settled = Simulation(
            protocol, 8, seed=1, initial_states=[EpidemicState.INFECTED] * 8
        )
        settled.run_interactions(50)
        assert settled.metrics.null_interactions == 50
        busy = Simulation(TouchCounting(), 8, seed=1)
        busy.run_interactions(50)
        assert busy.metrics.null_interactions == 0

    def test_epidemic_eventually_infects_everyone(self):
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 50, seed=3)
        elapsed = simulation.run_until(everyone_infected, max_parallel_time=200)
        assert elapsed > 0
        assert everyone_infected(simulation)

    def test_run_until_raises_on_budget_exhaustion(self):
        # With zero budget the epidemic cannot possibly finish from one source.
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 50, seed=3)
        with pytest.raises(ConvergenceError):
            simulation.run_until(everyone_infected, max_parallel_time=0.02)

    def test_run_until_immediate_predicate(self):
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 10, seed=4)
        elapsed = simulation.run_until(lambda sim: True, max_parallel_time=1)
        assert elapsed == 0.0

    def test_reproducibility_same_seed(self):
        runs = []
        for _ in range(2):
            simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 30, seed=7)
            elapsed = simulation.run_until(everyone_infected, max_parallel_time=200)
            runs.append(elapsed)
        assert runs[0] == runs[1]


class TestMaxPropagation:
    def test_maximum_spreads_to_everyone(self):
        protocol = MaxPropagation(initial_value=lambda agent_id: agent_id)
        simulation = Simulation(protocol, 40, seed=5)
        simulation.run_until(
            lambda sim: all(state == 39 for state in sim.states),
            max_parallel_time=200,
        )
        assert set(simulation.states) == {39}

    def test_count_where(self):
        protocol = MaxPropagation(initial_value=lambda agent_id: agent_id % 2)
        simulation = Simulation(protocol, 10, seed=6)
        assert simulation.count_where(lambda value: value == 1) == 5


class TestInspection:
    def test_configuration_snapshot(self):
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 12, seed=8)
        configuration = simulation.configuration()
        assert configuration.size == 12
        assert configuration.count(EpidemicState.INFECTED) == 1

    def test_outputs_uses_protocol_output(self):
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 4, seed=9)
        outputs = simulation.outputs()
        assert outputs.count(True) == 1
        assert outputs.count(False) == 3

    def test_state_tracking_counts_distinct_states(self):
        protocol = MaxPropagation(initial_value=lambda agent_id: agent_id)
        simulation = Simulation(protocol, 10, seed=10, track_states=True)
        simulation.run_parallel_time(20)
        assert simulation.metrics.distinct_states is not None
        assert 1 <= simulation.metrics.distinct_states <= 10

    def test_state_tracking_starts_from_the_initial_population(self):
        protocol = MaxPropagation(initial_value=lambda agent_id: agent_id)
        tracked = Simulation(protocol, 10, seed=10, track_states=True)
        assert tracked.metrics.distinct_states == 10
        untracked = Simulation(protocol, 10, seed=10)
        untracked.run_interactions(20)
        assert untracked.metrics.distinct_states is None

    def test_tracked_states_are_exactly_the_states_visited(self):
        tracked = Simulation(TouchCounting(), 12, seed=11, track_states=True)
        tracked.run_interactions(200)
        replay = Simulation(TouchCounting(), 12, seed=11)
        visited = set(replay.states)
        for _ in range(200):
            replay.step()
            visited.update(replay.states)
        assert replay.states == tracked.states
        assert tracked.metrics.state_usage.signatures == visited
        assert tracked.metrics.distinct_states == max(visited) + 1


class TestTrace:
    def test_run_with_trace_on_an_agent_protocol(self):
        """The shared snapshot loop runs on a plain Simulation of a
        non-finite-state protocol: samples + 1 points at the boundaries."""
        protocol = MaxPropagation(initial_value=lambda agent_id: agent_id)
        simulation = Simulation(protocol, 20, seed=2)
        trace = run_with_trace(simulation, total_parallel_time=5.0, samples=4)
        expected = [0, *snapshot_boundaries(100, 4)]  # 5 time units x 20 agents
        assert len(expected) == 5
        assert all(isinstance(point, CountTracePoint) for point in trace)
        assert [point.interaction for point in trace] == expected
        assert [point.parallel_time for point in trace] == [i / 20 for i in expected]
        assert trace[0].configuration == Configuration.from_states(range(20))
        assert trace[-1].configuration == simulation.configuration()
        holders = [point.configuration.count(19) for point in trace]
        assert holders == sorted(holders)
        # The engine method is the same loop on the same stream.
        method = Simulation(protocol, 20, seed=2)
        assert method.run_with_trace(total_parallel_time=5.0, samples=4) == trace

    def test_run_with_trace_rejects_zero_samples(self):
        simulation = Simulation(TouchCounting(), 8, seed=1)
        with pytest.raises(SimulationError, match="samples"):
            run_with_trace(simulation, total_parallel_time=1.0, samples=0)
        with pytest.raises(SimulationError, match="samples"):
            simulation.run_with_trace(total_parallel_time=1.0, samples=0)

    def test_trace_continues_from_the_current_position(self):
        simulation = Simulation(TouchCounting(), 10, seed=3)
        simulation.run_interactions(7)
        trace = run_with_trace(simulation, total_parallel_time=2.0, samples=4)
        assert [point.interaction for point in trace] == [7, 12, 17, 22, 27]
        # Every interaction adds two touches to the population's total.
        totals = [
            sum(touches * count for touches, count in point.configuration.items())
            for point in trace
        ]
        assert totals == [14, 24, 34, 44, 54]

    def test_snapshots_do_not_perturb_the_run(self):
        protocol = EpidemicProtocol().as_agent_protocol()
        traced = Simulation(protocol, 30, seed=12)
        run_with_trace(traced, total_parallel_time=3.0, samples=7)
        plain = Simulation(protocol, 30, seed=12)
        plain.run_interactions(90)
        assert traced.states == plain.states
        assert traced.rng.random() == plain.rng.random()


class TestRunUntil:
    """``Simulation.run_until`` is the shared predicate loop."""

    def test_predicate_checked_every_check_interval(self):
        simulation = Simulation(TouchCounting(), 10, seed=1)
        predicate, calls = predicate_log(holds_at=21)
        elapsed = simulation.run_until(predicate, max_parallel_time=10, check_interval=7)
        assert calls == [0, 7, 14, 21]
        assert elapsed == pytest.approx(2.1)
        assert simulation.interactions == 21

    def test_default_check_interval_is_one_unit_of_parallel_time(self):
        simulation = Simulation(TouchCounting(), 6, seed=1)
        predicate, calls = predicate_log(holds_at=18)
        assert simulation.run_until(predicate, max_parallel_time=10) == 3.0
        assert calls == [0, 6, 12, 18]

    def test_returns_the_first_checkpoint_where_the_predicate_holds(self):
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 40, seed=13)
        elapsed = simulation.run_until(
            everyone_infected, max_parallel_time=200, check_interval=5
        )
        replay = Simulation(EpidemicProtocol().as_agent_protocol(), 40, seed=13)
        while not everyone_infected(replay):
            replay.run_interactions(5)
        assert elapsed == replay.parallel_time
        assert simulation.states == replay.states

    def test_budget_exhaustion_stops_exactly_at_the_budget(self):
        simulation = Simulation(TouchCounting(), 10, seed=1)
        predicate, calls = predicate_log()
        with pytest.raises(ConvergenceError, match="2.5"):
            simulation.run_until(predicate, max_parallel_time=2.5)
        # Chunks of n=10 with a short last one: the budget is never overrun.
        assert calls == [0, 10, 20, 25]
        assert simulation.interactions == 25

    @pytest.mark.parametrize("check_interval", [0, -1])
    def test_rejects_non_positive_check_interval(self, check_interval):
        simulation = Simulation(TouchCounting(), 10, seed=1)
        with pytest.raises(SimulationError, match="check_interval"):
            simulation.run_until(
                lambda sim: False, max_parallel_time=1, check_interval=check_interval
            )
        assert simulation.interactions == 0


class TestCountingSimulationAdapter:
    """The agent engine behind the count API (``build_engine("agent", ...)``)."""

    def test_clock_forwards_to_the_simulation(self):
        adapter = build_engine("agent", EpidemicProtocol(), 16, seed=2)
        assert isinstance(adapter, CountingSimulationAdapter)
        adapter.run_interactions(40)
        assert adapter.interactions == adapter.simulation.interactions == 40
        assert adapter.parallel_time == adapter.simulation.parallel_time == 2.5

    def test_initial_configuration_seeds_the_agents(self):
        configuration = Configuration(
            {EpidemicState.INFECTED: 3, EpidemicState.SUSCEPTIBLE: 5}
        )
        adapter = build_engine(
            "agent", EpidemicProtocol(), 8, seed=2, initial_configuration=configuration
        )
        assert adapter.configuration() == configuration
        assert adapter.count(EpidemicState.INFECTED) == 3

    def test_rejects_mismatched_initial_configuration(self):
        configuration = Configuration({EpidemicState.INFECTED: 3})
        with pytest.raises(SimulationError, match="size 3"):
            build_engine(
                "agent", EpidemicProtocol(), 8, seed=2,
                initial_configuration=configuration,
            )

    def test_trace_matches_a_plain_simulation(self):
        adapter = build_engine("agent", EpidemicProtocol(), 32, seed=5)
        simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 32, seed=5)
        expected = run_with_trace(simulation, total_parallel_time=4.0, samples=4)
        assert adapter.run_with_trace(total_parallel_time=4.0, samples=4) == expected
