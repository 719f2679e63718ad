"""Tests for harmonic numbers and the geometric-maximum analysis (Appendix D.2)."""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

from repro.analysis.geometric import (
    exact_expected_maximum,
    expected_maximum_of_geometrics,
    expected_maximum_harmonic_form,
    geometric_pmf,
    likely_maximum_range,
    maximum_cdf,
    maximum_in_range_probability,
    maximum_lower_tail,
    maximum_two_sided_tail,
    maximum_upper_tail,
)
from repro.analysis.harmonic import euler_mascheroni, harmonic_number
from repro.exceptions import AnalysisError
from repro.rng import max_of_geometrics


def empirical_maximum_distribution(
    seed: int, population: int, trials: int
) -> list[int]:
    """``trials`` Monte-Carlo samples of ``M = max_{i<population} G_i`` for
    fair-coin geometric ``G_i``: the oracle the closed forms of Appendix D
    are checked against."""
    rng = np.random.default_rng(seed)
    return [max_of_geometrics(rng, population) for _ in range(trials)]


class TestHarmonic:
    def test_small_values_exact(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_asymptotic_branch_continuity(self):
        """The exact sum and the expansion agree where they hand over."""
        exact = sum(1.0 / k for k in range(1, 20_001))
        assert harmonic_number(20_000) == pytest.approx(exact, rel=1e-9)

    def test_growth_is_logarithmic(self):
        assert harmonic_number(10_000) - harmonic_number(1_000) == pytest.approx(
            math.log(10), rel=1e-3
        )

    def test_euler_mascheroni_value(self):
        assert euler_mascheroni() == pytest.approx(0.57721566, abs=1e-7)

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            harmonic_number(-1)


class TestGeometricDistribution:
    def test_pmf_sums_to_one(self):
        total = sum(geometric_pmf(value, 0.5) for value in range(1, 200))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_zero_below_support(self):
        assert geometric_pmf(0, 0.5) == 0.0

    def test_maximum_cdf_monotone(self):
        values = [maximum_cdf(t, population=100) for t in range(1, 30)]
        assert all(later >= earlier for earlier, later in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-3)


class TestExpectedMaximum:
    @pytest.mark.parametrize("population", [64, 256, 1024])
    def test_eisenberg_bracket_contains_exact_value(self, population):
        lower, upper = expected_maximum_of_geometrics(population)
        exact = exact_expected_maximum(population)
        assert lower <= exact <= upper

    def test_bracket_matches_paper_statement_for_fair_coins(self):
        """Lemma D.4: log2(N) + 1 < E[M] < log2(N) + 3/2 for N >= 50."""
        for population in (50, 500, 5_000):
            lower, upper = expected_maximum_of_geometrics(population)
            assert lower > math.log2(population) + 0.9
            assert upper < math.log2(population) + 1.6

    def test_monte_carlo_agreement(self):
        population = 512
        samples = empirical_maximum_distribution(seed=3, population=population, trials=600)
        mean = statistics.fmean(samples)
        assert mean == pytest.approx(exact_expected_maximum(population), abs=0.3)

    def test_harmonic_form_close_to_exact(self):
        assert expected_maximum_harmonic_form(1_000) == pytest.approx(
            exact_expected_maximum(1_000), abs=0.2
        )

    def test_validation(self):
        with pytest.raises(AnalysisError):
            exact_expected_maximum(0)
        with pytest.raises(AnalysisError):
            expected_maximum_of_geometrics(10, p=1.5)


class TestTailBounds:
    def test_two_sided_bound_dominates_monte_carlo(self):
        """Corollary D.6's 3.31 e^{-lambda/2} is a genuine upper bound."""
        population, trials = 200, 2_000
        samples = empirical_maximum_distribution(seed=5, population=population, trials=trials)
        expectation = exact_expected_maximum(population)
        for deviation in (2.0, 4.0, 6.0):
            empirical = sum(
                abs(sample - expectation) >= deviation for sample in samples
            ) / trials
            assert empirical <= maximum_two_sided_tail(deviation) + 0.02

    def test_upper_and_lower_tails_bounded_by_one(self):
        assert maximum_upper_tail(0.0) == 1.0
        assert maximum_lower_tail(0.0) <= 1.0

    def test_tails_decrease_with_deviation(self):
        assert maximum_upper_tail(6.0) < maximum_upper_tail(2.0)
        assert maximum_lower_tail(6.0) < maximum_lower_tail(2.0)
        assert maximum_two_sided_tail(8.0) < maximum_two_sided_tail(3.0)

    def test_lemma_d7_range_probability(self):
        assert maximum_in_range_probability(1_000) == pytest.approx(0.002)
        lower, upper = likely_maximum_range(1_000)
        assert lower < math.log2(1_000) < upper

    def test_lemma_d7_monte_carlo(self):
        """M lies in [log2 N - log2 ln N, 2 log2 N] in almost every trial."""
        population, trials = 256, 500
        samples = empirical_maximum_distribution(seed=7, population=population, trials=trials)
        lower, upper = likely_maximum_range(population)
        escapes = sum(not (lower <= sample <= upper) for sample in samples)
        assert escapes / trials < 0.05

    def test_validation(self):
        with pytest.raises(AnalysisError):
            maximum_upper_tail(-1.0)
        with pytest.raises(AnalysisError):
            likely_maximum_range(2)
