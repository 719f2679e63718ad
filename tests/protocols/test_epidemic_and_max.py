"""Tests for the one-way epidemic substrate."""

from __future__ import annotations

import statistics

import pytest

from repro.analysis.epidemic_theory import expected_epidemic_time
from repro.engine.count_simulator import CountSimulator
from repro.exceptions import ProtocolError
from repro.protocols.epidemic import (
    EpidemicProtocol,
    EpidemicState,
    epidemic_completion_predicate,
)


class TestEpidemicProtocol:
    def test_initial_sources(self):
        protocol = EpidemicProtocol(initial_infected=3)
        states = [protocol.initial_state(agent_id) for agent_id in range(5)]
        assert states.count(EpidemicState.INFECTED) == 3

    def test_rejects_no_sources(self):
        with pytest.raises(ProtocolError):
            EpidemicProtocol(initial_infected=0)

    def test_one_way_variant_only_infects_receiver(self):
        protocol = EpidemicProtocol(bidirectional=False)
        assert protocol.transitions(EpidemicState.SUSCEPTIBLE, EpidemicState.INFECTED)
        assert not protocol.transitions(EpidemicState.INFECTED, EpidemicState.SUSCEPTIBLE)

    def test_output_flags_infection(self):
        protocol = EpidemicProtocol()
        assert protocol.output(EpidemicState.INFECTED) is True
        assert protocol.output(EpidemicState.SUSCEPTIBLE) is False

    def test_describe(self):
        assert "bidirectional" in EpidemicProtocol().describe()

    def test_completion_time_close_to_lemma_a1(self):
        """Empirical mean completion time should sit near (n-1)/n * H_{n-1}.

        Lemma A.1's expectation corresponds to the epidemic in which an
        infected/susceptible pair always infects (our bidirectional variant);
        the strict one-way variant is a factor ~2 slower.
        """
        n = 2_000
        expected = expected_epidemic_time(n)

        bidirectional_times = []
        one_way_times = []
        for seed in range(5):
            simulator = CountSimulator(EpidemicProtocol(), n, seed=seed)
            bidirectional_times.append(
                simulator.run_until(epidemic_completion_predicate, max_parallel_time=400)
            )
            simulator = CountSimulator(
                EpidemicProtocol(bidirectional=False), n, seed=100 + seed
            )
            one_way_times.append(
                simulator.run_until(epidemic_completion_predicate, max_parallel_time=400)
            )

        mean_bidirectional = statistics.fmean(bidirectional_times)
        mean_one_way = statistics.fmean(one_way_times)
        assert 0.6 * expected < mean_bidirectional < 1.6 * expected
        assert 1.4 * expected < mean_one_way < 3.0 * expected

    def test_monotone_infection_count(self):
        simulator = CountSimulator(EpidemicProtocol(), 1_000, seed=3)
        previous = simulator.count(EpidemicState.INFECTED)
        for _ in range(20):
            simulator.run_parallel_time(0.5)
            current = simulator.count(EpidemicState.INFECTED)
            assert current >= previous
            previous = current
