"""Protocol-level correctness bounds (Lemmas 3.2, 3.8, 3.11, 3.12, Theorem 3.1).

This module assembles the ingredient bounds (partition balance, ``logSize2``
range, epidemic tails, interaction concentration, averaged-maxima Chernoff)
into the paper's headline numbers:

* the worker/storage split deviates from ``n/2`` by more than ``a`` with
  probability at most ``e^{-2 a^2 / n}`` (Lemma 3.2);
* ``logSize2`` lies in ``[log2 n - log2 ln n, 2 log2 n + 1]`` except with
  probability ``1/n + e^{-n/18}`` (Lemma 3.8);
* the averaged estimate errs by more than 5.7 with probability at most
  ``6/n`` (Lemma 3.11), and the full protocol errs with probability at most
  ``9/n`` (Lemma 3.12 / Theorem 3.1).

The functions return the paper's bound values so that experiments can print
"claimed vs observed" tables.
"""

from __future__ import annotations

import math

from repro.analysis.epidemic_theory import corollary_3_5_probability
from repro.analysis.subexponential import corollary_d10_probability
from repro.exceptions import AnalysisError


def partition_deviation_probability(population: int, deviation: float) -> float:
    """Lemma 3.2: ``Pr[| |A| - n/2 | >= a] <= 2 e^{-2 a^2 / n}`` (two-sided)."""
    if population < 2:
        raise AnalysisError(f"population must be at least 2, got {population}")
    if deviation < 0:
        raise AnalysisError(f"deviation must be non-negative, got {deviation}")
    return min(1.0, 2.0 * math.exp(-2.0 * deviation * deviation / population))


def partition_within_third_probability(population: int) -> float:
    """Corollary 3.3: ``|A| in [n/3, 2n/3]`` fails with probability ``<= e^{-n/18}``."""
    if population < 2:
        raise AnalysisError(f"population must be at least 2, got {population}")
    return min(1.0, math.exp(-population / 18.0))


def log_size2_range(population: int) -> tuple[float, float]:
    """Lemma 3.8's likely range of ``logSize2``: ``[log2 n - log2 ln n, 2 log2 n + 1]``."""
    if population < 3:
        raise AnalysisError(f"population must be at least 3, got {population}")
    lower = math.log2(population) - math.log2(math.log(population))
    upper = 2.0 * math.log2(population) + 1.0
    return lower, upper


def log_size2_range_probability(population: int) -> float:
    """Lemma 3.8: ``logSize2`` escapes its range w.p. at most ``1/n + e^{-n/18}``."""
    if population < 2:
        raise AnalysisError(f"population must be at least 2, got {population}")
    return min(1.0, 1.0 / population + math.exp(-population / 18.0))


def averaging_error_probability(population: int, additive_error: float = 5.7) -> float:
    """Lemma 3.11: the averaged estimate errs by ``>= 5.7`` w.p. at most ``6/n``.

    The 5.7 decomposes as 4.7 (Corollary D.10, with ``N ~ n/2`` workers) plus
    1 (``log2(n/2) = log2 n - 1``); errors other than the paper's 5.7 are
    rejected because the decomposition is specific to that constant.
    """
    if population < 2:
        raise AnalysisError(f"population must be at least 2, got {population}")
    if abs(additive_error - 5.7) > 1e-9:
        raise AnalysisError("Lemma 3.11 is stated for additive error 5.7")
    return min(1.0, 6.0 / population)


def final_error_probability(population: int) -> float:
    """Lemma 3.12 / Theorem 3.1: ``Pr[|output - log2 n| >= 5.7] <= 9/n``.

    Union bound over: ``logSize2`` too small, the partition too unbalanced,
    a slow epidemic, an epoch ending early, and the averaging error.
    """
    if population < 2:
        raise AnalysisError(f"population must be at least 2, got {population}")
    return min(1.0, 9.0 / population)


def convergence_time_probability(population: int) -> float:
    """Corollary 3.10: convergence exceeds ``O(log^2 n)`` w.p. at most ``1/n^2``."""
    if population < 2:
        raise AnalysisError(f"population must be at least 2, got {population}")
    return min(1.0, 1.0 / population**2)


def state_bound_probability(population: int) -> float:
    """Lemma 3.9: the ``O(log^4 n)`` state bound fails w.p. ``O(log n / n)``.

    Returned as ``11 * log2(n) / n`` (the constant appearing in the proof).
    """
    if population < 2:
        raise AnalysisError(f"population must be at least 2, got {population}")
    return min(1.0, 11.0 * math.log2(population) / population)


def theorem_3_1_summary(population: int, sample_count: int | None = None) -> dict:
    """All of Theorem 3.1's claimed bounds for a given population size.

    Convenient for "claimed vs measured" comparisons.

    Parameters
    ----------
    population:
        Population size ``n``.
    sample_count:
        Optional ``K`` (number of epochs actually run); when given, the
        averaged-estimate bound of Corollary D.10 is evaluated for that ``K``.
    """
    if population < 3:
        raise AnalysisError(f"population must be at least 3, got {population}")
    summary = {
        "population": population,
        "additive_error_claim": 5.7,
        "error_probability_bound": final_error_probability(population),
        "convergence_failure_bound": convergence_time_probability(population),
        "state_bound_failure": state_bound_probability(population),
        "log_size2_range": log_size2_range(population),
        "log_size2_failure": log_size2_range_probability(population),
        "epidemic_failure": corollary_3_5_probability(population),
        "partition_failure": partition_within_third_probability(population),
    }
    if sample_count is not None:
        summary["averaging_failure"] = corollary_d10_probability(
            population, sample_count
        )
    return summary
