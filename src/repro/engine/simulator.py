"""Agent-level simulation engine.

:class:`Simulation` is the reference implementation of the paper's execution
model: a population of ``n`` agents, each holding a protocol-defined state
object, interacting in uniformly random ordered pairs.  It supports

* running for a fixed number of interactions or amount of parallel time,
  until a predicate holds (with an interaction budget), or with evenly
  spaced snapshots, through the interface every engine shares
  (:class:`repro.engine.running.Engine`),
* optional tracking of the distinct states used (space complexity), and
* snapshots of the population as :class:`~repro.engine.configuration.Configuration`
  multisets.

The engine never mutates state objects in place; protocols return fresh state
values from their transition, which keeps snapshots meaningful.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.engine.configuration import Configuration
from repro.engine.metrics import SimulationMetrics, StateUsageTracker
from repro.engine.running import Engine, check_population_size
from repro.engine.scheduler import InteractionScheduler, SchedulerSpec
from repro.exceptions import SimulationError
from repro.protocols.base import AgentProtocol
from repro.rng import RandomSource


class Simulation(Engine):
    """Drive an :class:`~repro.protocols.base.AgentProtocol` on ``n`` agents.

    Parameters
    ----------
    protocol:
        The protocol to run.
    population_size:
        Number of agents ``n`` (at least 2).
    seed:
        Seed for the shared random source (scheduler choices and agent coin
        flips).  Identical seeds reproduce identical executions.
    scheduler:
        Scheduling policy: a registered scheduler name (``"sequential"``,
        ``"matching"``, ``"weighted"``, ...), a
        :class:`~repro.engine.scheduler.SchedulerSpec` carrying options, or
        a pre-built :class:`~repro.engine.scheduler.InteractionScheduler`
        instance.  Defaults to the paper's
        :class:`~repro.engine.scheduler.SequentialScheduler`.
    track_states:
        When ``True``, the distinct state signatures visited by any agent are
        recorded (used for the space-complexity experiments).  Adds overhead
        proportional to the number of interactions.
    initial_states:
        Optional explicit list of initial states, overriding
        ``protocol.initial_state``.  Must have length ``population_size``.
    """

    def __init__(
        self,
        protocol: AgentProtocol,
        population_size: int,
        seed: int | None = None,
        scheduler: InteractionScheduler | SchedulerSpec | str | None = None,
        track_states: bool = False,
        initial_states: Sequence[Any] | None = None,
    ) -> None:
        check_population_size(population_size)
        self.protocol = protocol
        self.population_size = population_size
        self.rng = RandomSource(seed=seed)
        if isinstance(scheduler, InteractionScheduler):
            self.scheduler = scheduler
        else:
            spec = SchedulerSpec.coerce(scheduler)
            self.scheduler = spec.build_policy().make_pair_scheduler(
                population_size, self.rng
            )
        if self.scheduler.n != population_size:
            raise SimulationError(
                "scheduler population size does not match the simulation population size"
            )
        if initial_states is not None:
            if len(initial_states) != population_size:
                raise SimulationError(
                    f"initial_states has length {len(initial_states)}, "
                    f"expected {population_size}"
                )
            self.states: list[Any] = list(initial_states)
        else:
            self.states = [
                protocol.initial_state(agent_id) for agent_id in range(population_size)
            ]
        tracker = StateUsageTracker() if track_states else None
        if tracker is not None:
            tracker.observe_many(
                protocol.state_signature(state) for state in self.states
            )
        self.metrics = SimulationMetrics(
            population_size=population_size, state_usage=tracker
        )

    @property
    def interactions(self) -> int:
        """Interactions executed so far."""
        return self.metrics.interactions

    @property
    def parallel_time(self) -> float:
        """Parallel time elapsed so far."""
        return self.metrics.parallel_time

    # -- stepping ----------------------------------------------------------------

    def step(self) -> None:
        """Execute a single interaction."""
        pair = self.scheduler.next_pair()
        receiver_id, sender_id = pair.receiver, pair.sender
        receiver_before = self.states[receiver_id]
        sender_before = self.states[sender_id]
        receiver_after, sender_after = self.protocol.transition(
            receiver_before, sender_before, self.rng
        )
        self.states[receiver_id] = receiver_after
        self.states[sender_id] = sender_after
        changed = receiver_after != receiver_before or sender_after != sender_before
        self.metrics.record_interaction(changed=changed)
        if self.metrics.state_usage is not None and changed:
            self.metrics.state_usage.observe(
                self.protocol.state_signature(receiver_after)
            )
            self.metrics.state_usage.observe(self.protocol.state_signature(sender_after))

    def run_interactions(self, count: int) -> None:
        """Execute exactly ``count`` additional interactions."""
        if count < 0:
            raise SimulationError(f"interaction count must be non-negative, got {count}")
        for _ in range(count):
            self.step()

    # -- inspection ----------------------------------------------------------------

    def outputs(self) -> list[Any]:
        """Return the per-agent outputs as computed by the protocol.

        Unlike the other engines' histogram, a list: an agent-level
        protocol's outputs (per-agent estimates) are read agent by agent.
        """
        return [self.protocol.output(state) for state in self.states]

    def configuration(self) -> Configuration:
        """Return the current population as a configuration multiset.

        State signatures (which are hashable) are used as the multiset
        elements, so this works for protocols with unhashable state objects
        too.
        """
        return Configuration.from_states(
            self.protocol.state_signature(state) for state in self.states
        )

    def count_where(self, condition: Callable[[Any], bool]) -> int:
        """Count agents whose state satisfies ``condition``."""
        return sum(1 for state in self.states if condition(state))
