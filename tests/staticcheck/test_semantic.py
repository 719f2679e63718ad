"""Semantic analyzer (P1xx/C2xx): registry sweep + deliberately broken fixtures.

ISSUE contract: every registered protocol and CRN workload is analyzed in
CI and must be clean, or carry an expected-diagnostics fixture here; and a
deliberately broken protocol/CRN pair asserts that each rule actually fires.
"""

from __future__ import annotations

import pytest

from repro.crn.library import CRN_WORKLOADS
from repro.crn.model import CRN, Reaction
from repro.harness.parallel import KIND_FINITE_STATE, WORKLOADS
from repro.protocols.base import FunctionalFiniteStateProtocol
from repro.staticcheck.semantic import (
    analyze_crn,
    analyze_protocol,
    analyze_registries,
    reachable_indices,
    sample_initial_states,
    starvation_diagnostics,
)

# Registered workloads that are *expected* to report diagnostics, with the
# exact rule set they may emit.  Anything not listed here must be clean.
EXPECTED_PROTOCOL_DIAGNOSTICS = {
    # Non-consensus outputs by design: the leader protocol stabilises with
    # exactly one True agent; the termination protocol's per-agent "I have
    # terminated" flag spreads but never needs global consensus (paper
    # Section 3.4 builds on exactly this).
    "leader": {"P102"},
    "termination": {"P102"},
}

EXPECTED_CRN_DIAGNOSTICS: dict[str, set[str]] = {}


def _rules(diagnostics):
    return {d.rule for d in diagnostics}


class TestRegistrySweep:
    @pytest.mark.parametrize(
        "name",
        sorted(
            name
            for name, workload in WORKLOADS.items()
            if workload.kind == KIND_FINITE_STATE
        ),
    )
    def test_registered_protocol_clean_or_expected(self, name):
        protocol = WORKLOADS[name].factory()
        diagnostics = analyze_protocol(protocol, location=f"protocol:{name}")
        allowed = EXPECTED_PROTOCOL_DIAGNOSTICS.get(name, set())
        assert _rules(diagnostics) <= allowed, [
            (d.rule, d.message) for d in diagnostics
        ]

    @pytest.mark.parametrize("name", sorted(CRN_WORKLOADS))
    def test_registered_crn_clean_or_expected(self, name):
        diagnostics = analyze_crn(CRN_WORKLOADS[name].crn, location=f"crn:{name}")
        allowed = EXPECTED_CRN_DIAGNOSTICS.get(name, set())
        assert _rules(diagnostics) <= allowed, [
            (d.rule, d.message) for d in diagnostics
        ]

    def test_analyze_registries_covers_every_workload(self):
        diagnostics = analyze_registries()
        locations = {d.location.split(":", 2)[1] for d in diagnostics}
        # Only the expected locations may appear at all.
        expected = set(EXPECTED_PROTOCOL_DIAGNOSTICS) | set(EXPECTED_CRN_DIAGNOSTICS)
        assert locations <= expected


# -- broken protocol fixtures -------------------------------------------------


class _BrokenCompileProtocol:
    """compiled() raises: P100."""

    def initial_state(self, agent_id):
        return "A"

    def compiled(self):
        raise RuntimeError("deliberately broken table")


class _ForeignInitialProtocol(FunctionalFiniteStateProtocol):
    """initial_state returns a state outside the declared set: P104."""

    def initial_state(self, agent_id):
        return "GHOST"


def _two_state_protocol(output_map=None, extra_state=None):
    states = ["A", "B"] + ([extra_state] if extra_state else [])
    return FunctionalFiniteStateProtocol(
        state_set=states,
        transition_map={("A", "A"): [("A", "B", 1.0)]},
        initial="A",
        output_map=output_map,
    )


class TestBrokenProtocols:
    def test_p100_compile_failure(self):
        diagnostics = analyze_protocol(_BrokenCompileProtocol(), location="protocol:x")
        assert _rules(diagnostics) == {"P100"}
        assert diagnostics[0].severity == "error"

    def test_p101_unreachable_state(self):
        protocol = _two_state_protocol(
            output_map={"A": 0, "B": 0, "DEAD": 0}, extra_state="DEAD"
        )
        diagnostics = analyze_protocol(protocol, location="protocol:x")
        assert _rules(diagnostics) == {"P101"}
        assert "'DEAD'" in diagnostics[0].message

    def test_p102_output_instability_aggregated(self):
        # A and B are mutually inert once B exists?  No: (A,A) reacts, but
        # a pure {B} pair is inert; use two inert states with split outputs.
        protocol = FunctionalFiniteStateProtocol(
            state_set=["A", "B"],
            transition_map={},
            initial=lambda agent_id: "A" if agent_id % 2 == 0 else "B",
            output_map={"A": True, "B": False},
        )
        diagnostics = analyze_protocol(protocol, location="protocol:x")
        (diag,) = diagnostics
        assert diag.rule == "P102" and diag.severity == "warning"
        assert "1 reachable mutually-inert" in diag.message

    def test_p102_suppressed_when_outputs_agree(self):
        protocol = FunctionalFiniteStateProtocol(
            state_set=["A", "B"],
            transition_map={},
            initial=lambda agent_id: "A" if agent_id % 2 == 0 else "B",
            output_map={"A": True, "B": True},
        )
        assert analyze_protocol(protocol, location="protocol:x") == []

    def test_p103_starved_reactive_pair(self):
        protocol = _two_state_protocol(output_map={"A": 0, "B": 0})
        table = protocol.compiled()
        reach = reachable_indices(table, [table.index["A"]])
        diagnostics = starvation_diagnostics(
            table, reach, rates={"A": 0.0}, location="protocol:x"
        )
        assert diagnostics and all(d.rule == "P103" for d in diagnostics)
        assert all(d.severity == "error" for d in diagnostics)

    def test_p103_silent_with_positive_rates(self):
        protocol = _two_state_protocol(output_map={"A": 0, "B": 0})
        table = protocol.compiled()
        reach = reachable_indices(table, [table.index["A"]])
        assert (
            starvation_diagnostics(table, reach, rates={}, location="protocol:x")
            == []
        )

    def test_p104_foreign_initial_state(self):
        protocol = _ForeignInitialProtocol(
            state_set=["A", "B"],
            transition_map={("A", "A"): [("A", "B", 1.0)]},
            initial="A",
            output_map={"A": 0, "B": 0},
        )
        diagnostics = analyze_protocol(protocol, location="protocol:x")
        assert "P104" in _rules(diagnostics)
        assert "'GHOST'" in next(
            d.message for d in diagnostics if d.rule == "P104"
        )

    def test_sample_initial_states_dedupes(self):
        protocol = _two_state_protocol(output_map={"A": 0, "B": 0})
        assert sample_initial_states(protocol) == ("A",)


# -- broken CRN fixtures ------------------------------------------------------


def _raw_reaction(reactants, products, rate=1.0):
    """Bypass Reaction validation so the analyzer (not the model) reports."""
    reaction = object.__new__(Reaction)
    object.__setattr__(reaction, "reactants", tuple(reactants))
    object.__setattr__(reaction, "products", tuple(products))
    object.__setattr__(reaction, "rate", rate)
    return reaction


def _raw_crn(name, reactions, seeds=(), fractions=()):
    crn = object.__new__(CRN)
    object.__setattr__(crn, "name", name)
    object.__setattr__(crn, "reactions", tuple(reactions))
    object.__setattr__(crn, "seeds", tuple(seeds))
    object.__setattr__(crn, "fractions", tuple(fractions))
    return crn


class TestBrokenCRNs:
    def test_c201_dead_reaction_missing_reactant(self):
        crn = CRN.from_spec(
            ["X + Y -> X + X"], name="dead", fractions={"X": 1.0}
        )
        diagnostics = analyze_crn(crn, location="crn:dead")
        rules = _rules(diagnostics)
        assert "C201" in rules  # Y never present -> reaction never fires
        assert "C202" in rules  # ...and Y is an unreachable species

    def test_c201_single_seed_blocks_a_plus_a(self):
        crn = CRN.from_spec(
            ["L + L -> L + F"], name="pair", seeds={"L": 1}, fractions={"F": 1.0}
        )
        diagnostics = analyze_crn(crn, location="crn:pair")
        c201 = [d for d in diagnostics if d.rule == "C201"]
        assert len(c201) == 1 and "count 2" in c201[0].hint

    def test_a_plus_a_fires_with_two_seeds(self):
        crn = CRN.from_spec(
            ["L + L -> L + F"], name="pair", seeds={"L": 2}, fractions={"F": 1.0}
        )
        assert "C201" not in _rules(analyze_crn(crn, location="crn:pair"))

    def test_c203_non_conserving_reaction(self):
        crn = _raw_crn(
            "unbalanced",
            [_raw_reaction(("A", "B"), ("A",))],
            fractions=(("A", 0.5), ("B", 0.5)),
        )
        diagnostics = analyze_crn(crn, location="crn:unbalanced")
        assert "C203" in _rules(diagnostics)

    def test_c204_invalid_rate(self):
        crn = _raw_crn(
            "badrate",
            [_raw_reaction(("A", "B"), ("B", "B"), rate=-1.0)],
            fractions=(("A", 0.5), ("B", 0.5)),
        )
        diagnostics = analyze_crn(crn, location="crn:badrate")
        assert "C204" in _rules(diagnostics)

    def test_c205_extreme_rate_range(self):
        crn = CRN.from_spec(
            ["A + B -> B + B @ 1.0", "B + A -> A + A @ 1e8"],
            name="range",
            fractions={"A": 0.5, "B": 0.5},
        )
        diagnostics = analyze_crn(crn, location="crn:range")
        c205 = [d for d in diagnostics if d.rule == "C205"]
        assert len(c205) == 1 and c205[0].severity == "warning"

    def test_c206_tau_leap_ill_conditioning(self):
        # Stiff but below the C205 limit: only the tau-leap warning fires.
        crn = CRN.from_spec(
            ["A + B -> B + B @ 1.0", "B + A -> A + A @ 1e4"],
            name="stiff",
            fractions={"A": 0.5, "B": 0.5},
        )
        diagnostics = analyze_crn(crn, location="crn:stiff")
        rules = _rules(diagnostics)
        assert "C206" in rules and "C205" not in rules
        c206 = [d for d in diagnostics if d.rule == "C206"][0]
        assert c206.severity == "warning"
        assert "--leap-eps" in c206.hint

    def test_c206_quiet_below_threshold(self):
        crn = CRN.from_spec(
            ["A + B -> B + B @ 1.0", "B + A -> A + A @ 100.0"],
            name="mild",
            fractions={"A": 0.5, "B": 0.5},
        )
        assert "C206" not in _rules(analyze_crn(crn, location="crn:mild"))

    def test_clean_crn_reports_nothing(self):
        crn = CRN.from_spec(
            ["A + B -> B + B"], name="epi", fractions={"A": 0.9, "B": 0.1}
        )
        assert analyze_crn(crn, location="crn:epi") == []
