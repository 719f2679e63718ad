"""Tests for the density-lemma experiments and the Theorem 4.1 sweep."""

from __future__ import annotations

import pytest

from repro.analysis.balls_and_bins import count_survival_bound
from repro.exceptions import TerminationSpecError
from repro.protocols.epidemic import EpidemicProtocol, EpidemicState
from repro.protocols.leader_election import NonuniformCounterLeaderElection
from repro.protocols.majority import ApproximateMajorityProtocol
from repro.termination.definitions import DenseInitialFamily, TerminationSpec
from repro.termination.density import density_trajectory
from repro.termination.impossibility import (
    growth_ratio,
    measure_termination_time,
    termination_time_sweep,
)


class TestDensityTrajectory:
    def test_producible_states_reach_constant_fraction_in_constant_time(self):
        """Empirical Lemma 4.2 for the majority protocol from a dense start."""
        family = DenseInitialFamily(
            base_fractions={"X": 0.5, "Y": 0.5}, description="balanced opinions"
        )
        observation = density_trajectory(
            ApproximateMajorityProtocol(),
            family,
            population_size=2_000,
            observation_time=1.0,
            threshold_fraction=0.02,
            seed=1,
        )
        # All three states (X, Y and the blank B produced by X-Y meetings)
        # should be present in constant fraction after one unit of time.
        assert set(observation.fractions) == {"X", "Y", "B"}
        assert observation.min_fraction > 0.02
        assert all(
            reach_time is not None and reach_time <= 1.0
            for reach_time in observation.first_reach_times.values()
        )

    def test_minimum_fraction_stable_across_population_sizes(self):
        """The empirical delta of Lemma 4.2 does not vanish as n grows."""
        family = DenseInitialFamily(base_fractions={"X": 0.5, "Y": 0.5})
        fractions = [
            density_trajectory(
                ApproximateMajorityProtocol(),
                family,
                population_size,
                threshold_fraction=0.02,
                seed=3 + index,
            ).min_fraction
            for index, population_size in enumerate([500, 2_000, 8_000])
        ]
        assert all(fraction > 0.02 for fraction in fractions)
        # The smallest fraction should not collapse as n grows 16-fold.
        assert max(fractions) < 10 * min(fractions)

    def test_survival_bound_consistent_with_simulation(self):
        """Corollary E.3: a dense state's count should not collapse within time 1."""
        family = DenseInitialFamily.all_same_state(EpidemicState.SUSCEPTIBLE)
        observation = density_trajectory(
            EpidemicProtocol(initial_infected=1),
            # All susceptible: the epidemic cannot even start without a source,
            # but producibility from {S} alone is just {S}; use a mixed family.
            DenseInitialFamily(
                base_fractions={EpidemicState.INFECTED: 0.5, EpidemicState.SUSCEPTIBLE: 0.5}
            ),
            population_size=4_000,
            observation_time=1.0,
            threshold_fraction=1 / 81,
            seed=5,
        )
        assert family is not None
        # The infected state only grows; the susceptible state starts at n/2
        # and cannot fall below (n/2)/81 within one unit of time except with
        # probability ~2^-(n/162), so with n=4000 it must survive.
        assert observation.fractions[EpidemicState.SUSCEPTIBLE] > 0.5 / 81
        assert count_survival_bound(2_000) < 1e-6

    def test_parameter_validation(self):
        family = DenseInitialFamily.all_same_state("X")
        with pytest.raises(TerminationSpecError):
            density_trajectory(
                ApproximateMajorityProtocol(), family, 100, observation_time=0
            )
        with pytest.raises(TerminationSpecError):
            density_trajectory(
                ApproximateMajorityProtocol(), family, 100, threshold_fraction=2.0
            )


class TestTerminationTimeSweep:
    def _spec(self) -> TerminationSpec:
        return TerminationSpec(terminated_predicate=lambda state: state.terminated)

    def test_uniform_dense_protocol_terminates_in_constant_time(self):
        """The operational content of Theorem 4.1: flat termination time."""
        observations = termination_time_sweep(
            protocol_factory=lambda: NonuniformCounterLeaderElection(counter_threshold=8),
            spec=self._spec(),
            population_sizes=[32, 128, 512],
            runs_per_size=3,
            max_parallel_time=200.0,
            seed=7,
            check_interval=16,
        )
        assert all(obs.termination_probability == 1.0 for obs in observations)
        ratio = growth_ratio(observations)
        assert ratio is not None
        # The population grew 16x; the termination time must stay O(1).
        assert ratio < 3.0

    def test_termination_happens_before_leader_election_can_finish(self):
        """The signal fires long before the Omega(n)-time election stabilises,
        which is exactly why a uniform terminating protocol is useless here."""
        protocol = NonuniformCounterLeaderElection(counter_threshold=8)
        spec = self._spec()
        elapsed = measure_termination_time(
            protocol_factory=lambda: NonuniformCounterLeaderElection(counter_threshold=8),
            spec=spec,
            population_size=512,
            max_parallel_time=200.0,
            seed=11,
            check_interval=16,
        )
        assert elapsed is not None
        assert elapsed < 32  # far less than the Theta(n) = 512 stabilisation time
        assert protocol is not None

    def test_budget_exhaustion_counts_as_failure(self):
        observations = termination_time_sweep(
            protocol_factory=lambda: NonuniformCounterLeaderElection(
                counter_threshold=10_000_000
            ),
            spec=self._spec(),
            population_sizes=[16],
            runs_per_size=2,
            max_parallel_time=5.0,
            seed=13,
        )
        assert observations[0].failures == 2
        assert observations[0].termination_probability == 0.0
        assert observations[0].mean_time is None

    def test_runs_per_size_validated(self):
        with pytest.raises(TerminationSpecError):
            termination_time_sweep(
                protocol_factory=lambda: NonuniformCounterLeaderElection(8),
                spec=self._spec(),
                population_sizes=[16],
                runs_per_size=0,
            )

    def test_growth_ratio_edge_cases(self):
        assert growth_ratio([]) is None
