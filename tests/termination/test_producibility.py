"""Tests for the m-rho-producibility closure."""

from __future__ import annotations

import pytest

from repro.exceptions import TerminationSpecError
from repro.protocols.base import FunctionalFiniteStateProtocol
from repro.protocols.epidemic import EpidemicProtocol, EpidemicState
from repro.protocols.majority import ApproximateMajorityProtocol
from repro.termination.producibility import ProducibilityAnalysis


def _chain_protocol(length: int = 4) -> FunctionalFiniteStateProtocol:
    """x_i, x_i -> x_{i+1}, q : level i+1 is (i+1)-producible from {x_0}.

    This is exactly the example in the paper's footnote 18.
    """
    states = [f"x{i}" for i in range(length + 1)] + ["q"]
    transitions = {
        (f"x{i}", f"x{i}"): [(f"x{i+1}", "q", 1.0)] for i in range(length)
    }
    return FunctionalFiniteStateProtocol(
        state_set=states, transition_map=transitions, initial="x0"
    )


class TestClosure:
    def test_epidemic_closure_is_whole_state_set(self):
        analysis = ProducibilityAnalysis(EpidemicProtocol())
        result = analysis.closure({EpidemicState.INFECTED, EpidemicState.SUSCEPTIBLE})
        assert result.closure == frozenset(
            {EpidemicState.INFECTED, EpidemicState.SUSCEPTIBLE}
        )
        assert result.closure_depth == 0  # nothing new is produced

    def test_chain_depths_match_transition_count(self):
        protocol = _chain_protocol(4)
        analysis = ProducibilityAnalysis(protocol)
        result = analysis.closure({"x0"})
        assert result.depth_of["x0"] == 0
        for level in range(1, 5):
            assert result.depth_of[f"x{level}"] == level
        assert result.depth_of["q"] == 1
        assert result.closure_depth == 4

    def test_levels_are_monotone(self):
        result = ProducibilityAnalysis(_chain_protocol(3)).closure({"x0"})
        for earlier, later in zip(result.levels, result.levels[1:]):
            assert earlier <= later

    def test_max_depth_truncates(self):
        result = ProducibilityAnalysis(_chain_protocol(5)).closure({"x0"}, max_depth=2)
        assert "x2" in result.closure
        assert "x3" not in result.closure

    def test_producible_at_depth(self):
        result = ProducibilityAnalysis(_chain_protocol(3)).closure({"x0"})
        assert result.producible_at_depth(0) == frozenset({"x0"})
        assert "x2" in result.producible_at_depth(2)
        with pytest.raises(TerminationSpecError):
            result.producible_at_depth(-1)

    def test_rho_threshold_filters_unlikely_transitions(self):
        protocol = FunctionalFiniteStateProtocol(
            state_set=["a", "b", "c"],
            transition_map={
                ("a", "a"): [("b", "b", 0.9), ("c", "c", 0.05)],
            },
            initial="a",
        )
        analysis = ProducibilityAnalysis(protocol)
        assert "c" in analysis.closure({"a"}, rho=0.01).closure
        assert "c" not in analysis.closure({"a"}, rho=0.5).closure
        assert "b" in analysis.closure({"a"}, rho=0.5).closure

    def test_unknown_initial_state_rejected(self):
        analysis = ProducibilityAnalysis(EpidemicProtocol())
        with pytest.raises(TerminationSpecError):
            analysis.closure({"not-a-state"})

    def test_empty_initial_set_rejected(self):
        analysis = ProducibilityAnalysis(EpidemicProtocol())
        with pytest.raises(TerminationSpecError):
            analysis.closure(set())

    def test_invalid_rho_rejected(self):
        analysis = ProducibilityAnalysis(EpidemicProtocol())
        with pytest.raises(TerminationSpecError):
            analysis.closure({EpidemicState.INFECTED}, rho=0.0)


class TestHelpers:
    def test_blank_not_producible_from_single_opinion(self):
        result = ProducibilityAnalysis(ApproximateMajorityProtocol()).closure({"X"})
        assert result.closure == frozenset({"X"})

    def test_terminated_states_producible(self):
        protocol = FunctionalFiniteStateProtocol(
            state_set=["idle", "armed", "done"],
            transition_map={
                ("idle", "idle"): [("armed", "idle", 1.0)],
                ("armed", "idle"): [("done", "idle", 1.0)],
            },
            initial="idle",
        )
        analysis = ProducibilityAnalysis(protocol)
        terminated = analysis.terminated_states_producible(
            {"idle"}, terminated=lambda state: state == "done"
        )
        assert terminated == frozenset({"done"})
