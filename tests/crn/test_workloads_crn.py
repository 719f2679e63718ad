"""Tests for the CRN workload library and its harness integration."""

from __future__ import annotations

import pytest

from repro.crn import CRN, CRN_WORKLOADS, compile_crn, get_crn_workload
from repro.crn.library import single_leader_predicate
from repro.exceptions import SimulationError
from repro.harness.parallel import (
    KIND_CRN,
    TrialSpec,
    build_crn_trials,
    run_trial,
    run_trials,
)


class TestLibrary:
    def test_expected_networks_registered(self):
        assert {
            "approximate-majority",
            "epidemic",
            "sir",
            "predator-prey",
            "leader",
        } <= set(CRN_WORKLOADS)

    def test_unknown_workload_rejected(self):
        with pytest.raises(SimulationError, match="unknown CRN workload"):
            get_crn_workload("nope")

    @pytest.mark.parametrize("name", sorted(CRN_WORKLOADS))
    def test_every_workload_compiles_in_both_modes(self, name):
        workload = get_crn_workload(name)
        for mode in ("uniform", "thinned"):
            compiled = compile_crn(workload.crn, mode=mode)
            compiled.protocol.validate()
        assert workload.crn.is_conserved(
            {species: 1 for species in workload.crn.species()}
        )
        assert workload.default_budget(workload.default_population) > 0

    @pytest.mark.parametrize("name", ["approximate-majority", "epidemic", "leader"])
    def test_workloads_converge_at_small_n(self, name):
        workload = get_crn_workload(name)
        compiled = compile_crn(workload.crn)
        simulator = compiled.build("count", 100, seed=4)
        simulator.run_until(
            workload.predicate,
            max_parallel_time=compiled.to_parallel_time(
                workload.default_budget(100)
            ),
        )
        assert workload.predicate(simulator)

    def test_predator_prey_conserves_and_oscillates(self):
        workload = get_crn_workload("predator-prey")
        compiled = compile_crn(workload.crn)
        simulator = compiled.build("batched", 3_000, seed=1)
        simulator.run_parallel_time(compiled.to_parallel_time(10.0))
        assert simulator.configuration().size == 3_000
        # Well before any extinction at this n, all three species coexist.
        assert all(simulator.count(s) > 0 for s in ("G", "R", "F"))


class TestCRNTrials:
    def test_build_and_run_registered_workload(self):
        specs = build_crn_trials([80, 120], 2, "epidemic", engine="count", base_seed=3)
        assert len(specs) == 4
        assert all(spec.kind == KIND_CRN for spec in specs)
        outcome = run_trials(specs, workers=1)
        assert all(record.converged for record in outcome.records)
        record = outcome.records[0]
        assert record.extra["crn"] == "epidemic"
        assert record.extra["crn_mode"] == "uniform"
        assert record.extra["counts"] == {"I": 80}
        assert record.extra["chemical_time"] == pytest.approx(
            record.convergence_time, rel=1e-9
        )  # epidemic rate scale is 1

    def test_parallel_workers_match_serial(self):
        specs = build_crn_trials([60], 4, "approximate-majority", engine="batched")
        serial = run_trials(specs, workers=1).records
        parallel = run_trials(specs, workers=2).records
        assert [r.convergence_time for r in serial] == [
            r.convergence_time for r in parallel
        ]

    def test_adhoc_network_needs_predicate_and_budget(self):
        crn = CRN.from_spec(["L + L -> L + F"], fractions={"L": 1.0})
        with pytest.raises(SimulationError, match="predicate"):
            build_crn_trials([50], 1, crn)
        with pytest.raises(SimulationError, match="budget"):
            build_crn_trials([50], 1, crn, predicate=single_leader_predicate)
        specs = build_crn_trials(
            [50],
            1,
            crn,
            predicate=single_leader_predicate,
            max_chemical_time=500.0,
        )
        record = run_trial(specs[0])
        assert record.converged
        assert record.extra["counts"]["L"] == 1

    def test_thinned_mode_flows_through(self):
        specs = build_crn_trials([60], 1, "leader", engine="count", mode="thinned")
        record = run_trial(specs[0])
        assert record.converged
        assert record.extra["crn_mode"] == "thinned"
        assert "chemical_time" not in record.extra

    def test_spec_validation(self):
        crn = CRN.from_spec(["L + L -> L + F"], fractions={"L": 1.0})
        common = dict(
            kind=KIND_CRN,
            population_size=50,
            size_index=0,
            run_index=0,
            crn=crn,
            predicate=single_leader_predicate,
        )
        with pytest.raises(SimulationError, match="thinned"):
            TrialSpec(**{**common, "crn_mode": "thinned", "engine": "vector"})
        with pytest.raises(SimulationError, match="lowering mode"):
            TrialSpec(**{**common, "crn_mode": "warp"})
        with pytest.raises(SimulationError, match="scheduler"):
            TrialSpec(**{**common, "scheduler": "sequential"})
        with pytest.raises(SimulationError, match="network itself"):
            TrialSpec(**{**common, "crn": "leader"})
        with pytest.raises(SimulationError, match="predicate"):
            TrialSpec(**{k: v for k, v in common.items() if k != "predicate"})
        with pytest.raises(SimulationError, match="kind='crn'"):
            TrialSpec(
                kind="finite-state",
                population_size=50,
                size_index=0,
                run_index=0,
                protocol="epidemic",
                crn=crn,
            )
