"""Each closed-form ``initial_configuration`` equals the per-agent default.

The count-level engines start from ``protocol.initial_configuration(n)``.
The default folds ``initial_state(0..n-1)`` in first-appearance order; the
overrides must build the same configuration with no per-agent call, with the
same key order, because the count engine samples states in that order.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.configuration import Configuration
from repro.protocols.epidemic import EpidemicProtocol
from repro.protocols.leader_election import (
    FiniteStateCounterTermination,
    FiniteStatePairwiseElimination,
)
from repro.protocols.majority import ApproximateMajorityProtocol

sizes = st.integers(min_value=2, max_value=10_000)


def per_agent(protocol, population_size: int) -> Configuration:
    return Configuration.from_states(
        protocol.initial_state(agent_id) for agent_id in range(population_size)
    )


def assert_equals_default(protocol, population_size: int) -> None:
    override = protocol.initial_configuration(population_size)
    default = per_agent(protocol, population_size)
    assert list(override.items()) == list(default.items())


@settings(max_examples=60, deadline=None)
@given(
    population_size=sizes,
    initial_infected=st.integers(min_value=1, max_value=12_000),
    bidirectional=st.booleans(),
)
@example(population_size=2, initial_infected=1, bidirectional=True)
@example(population_size=7, initial_infected=7, bidirectional=False)
@example(population_size=3, initial_infected=10_000, bidirectional=True)
def test_epidemic(population_size, initial_infected, bidirectional):
    protocol = EpidemicProtocol(
        initial_infected=initial_infected, bidirectional=bidirectional
    )
    assert_equals_default(protocol, population_size)


@settings(max_examples=30, deadline=None)
@given(population_size=sizes)
def test_pairwise_elimination(population_size):
    assert_equals_default(FiniteStatePairwiseElimination(), population_size)


@settings(max_examples=60, deadline=None)
@given(
    population_size=sizes,
    counter_threshold=st.integers(min_value=1, max_value=12),
    eliminate_on_meeting=st.booleans(),
)
@example(population_size=2, counter_threshold=1, eliminate_on_meeting=True)
@example(population_size=10_000, counter_threshold=12, eliminate_on_meeting=False)
def test_counter_termination(population_size, counter_threshold, eliminate_on_meeting):
    protocol = FiniteStateCounterTermination(
        counter_threshold=counter_threshold,
        eliminate_on_meeting=eliminate_on_meeting,
    )
    assert_equals_default(protocol, population_size)


@settings(max_examples=60, deadline=None)
@given(
    population_size=st.one_of(sizes, st.integers(min_value=65_000, max_value=140_000)),
    x_fraction=st.one_of(
        st.sampled_from([0.0, 0.3, 0.6, 0.999, 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
@example(population_size=2, x_fraction=0.0)
@example(population_size=2, x_fraction=1.0)
@example(population_size=1 << 16, x_fraction=0.6)
@example(population_size=(1 << 16) + 1, x_fraction=0.999)
def test_majority(population_size, x_fraction):
    protocol = ApproximateMajorityProtocol(x_fraction=x_fraction)
    assert_equals_default(protocol, population_size)


def test_subclass_replacing_initial_state_falls_back_to_default():
    class OneFollower(FiniteStatePairwiseElimination):
        def initial_state(self, agent_id):
            return self.FOLLOWER if agent_id == 3 else self.LEADER

    assert_equals_default(OneFollower(), 10)
    assert OneFollower().initial_configuration(10).count(OneFollower.FOLLOWER) == 1
