"""Tests for the leader-driven phase clock."""

from __future__ import annotations

import pytest

from repro.core.phase_clock import LeaderDrivenPhaseClock, PhaseClockAgent
from repro.engine.simulator import Simulation
from repro.exceptions import ProtocolError
from repro.protocols.base import AgentProtocol
from repro.rng import RandomSource


class _PhaseClockOnlyProtocol(AgentProtocol):
    """Wrap the leader-driven clock as a standalone protocol for simulation tests."""

    def __init__(self, phase_count: int) -> None:
        self.clock = LeaderDrivenPhaseClock(phase_count=phase_count)

    def initial_state(self, agent_id: int):
        return (agent_id == 0, PhaseClockAgent())

    def transition(self, receiver, sender, rng: RandomSource):
        receiver_leader, receiver_clock = receiver
        sender_leader, sender_clock = sender
        new_receiver, new_sender = self.clock.interact(
            receiver_clock, receiver_leader, sender_clock, sender_leader
        )
        return (receiver_leader, new_receiver), (sender_leader, new_sender)

    def output(self, state):
        return state[1].round

    def state_signature(self, state):
        return (state[0], state[1].phase, state[1].round)


class TestLeaderDrivenPhaseClock:
    def test_phase_count_validation(self):
        with pytest.raises(ProtocolError):
            LeaderDrivenPhaseClock(phase_count=2)

    def test_leader_advances_when_met_by_caught_up_agent(self):
        clock = LeaderDrivenPhaseClock(phase_count=4)
        leader = PhaseClockAgent(phase=1, round=0)
        follower = PhaseClockAgent(phase=1, round=0)
        new_leader, new_follower = clock.interact(leader, True, follower, False)
        assert new_leader.phase == 2
        assert new_follower.phase == 1

    def test_follower_adopts_later_reading(self):
        clock = LeaderDrivenPhaseClock(phase_count=4)
        behind = PhaseClockAgent(phase=0, round=0)
        ahead = PhaseClockAgent(phase=3, round=1)
        new_behind, new_ahead = clock.interact(behind, False, ahead, False)
        assert (new_behind.round, new_behind.phase) == (1, 3)
        assert (new_ahead.round, new_ahead.phase) == (1, 3)

    def test_leader_does_not_advance_when_ahead(self):
        clock = LeaderDrivenPhaseClock(phase_count=4)
        leader = PhaseClockAgent(phase=2, round=0)
        follower = PhaseClockAgent(phase=0, round=0)
        new_leader, new_follower = clock.interact(leader, True, follower, False)
        assert new_leader == leader
        assert new_follower.phase == 2

    def test_round_increments_on_wrap(self):
        clock = LeaderDrivenPhaseClock(phase_count=3)
        leader = PhaseClockAgent(phase=2, round=0)
        caught_up = PhaseClockAgent(phase=2, round=0)
        new_leader, _ = clock.interact(leader, True, caught_up, False)
        assert new_leader.phase == 0
        assert new_leader.round == 1

    def test_round_count_grows_with_time_in_simulation(self):
        protocol = _PhaseClockOnlyProtocol(phase_count=6)
        simulation = Simulation(protocol, 40, seed=1)
        simulation.run_parallel_time(50)
        early_rounds = protocol.output(simulation.states[0])
        simulation.run_parallel_time(150)
        late_rounds = protocol.output(simulation.states[0])
        assert late_rounds > early_rounds >= 0

    def test_followers_track_leader_round(self):
        protocol = _PhaseClockOnlyProtocol(phase_count=6)
        simulation = Simulation(protocol, 40, seed=2)
        simulation.run_parallel_time(200)
        rounds = [protocol.output(state) for state in simulation.states]
        # All agents should be within one round of the leader.
        assert max(rounds) - min(rounds) <= 1
