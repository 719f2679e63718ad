"""Closed-form probability results used by the paper (Appendices A, D, E).

These modules implement, as ordinary numeric functions, the quantities the
paper's analysis manipulates:

* :mod:`repro.analysis.harmonic` — harmonic numbers and the Euler–Mascheroni
  constant (epidemic expectations are harmonic sums).
* :mod:`repro.analysis.geometric` — geometric random variables and their
  maxima: exact/approximate expectation (Eisenberg), tail bounds
  (Lemmas D.4, D.5, D.7, Corollary D.6).
* :mod:`repro.analysis.subexponential` — sub-exponential random variables and
  the Chernoff bound for sums of maxima of geometrics (Lemmas D.2, D.3, D.8,
  Corollaries D.9, D.10).
* :mod:`repro.analysis.epidemic_theory` — epidemic completion time
  (Lemma A.1) and the sub-population variant (Corollaries 3.4, 3.5).
* :mod:`repro.analysis.interaction_bounds` — per-agent interaction-count
  concentration (Lemma 3.6, Corollary 3.7), the basis of the leaderless
  phase clock.
* :mod:`repro.analysis.balls_and_bins` — the timer lemma
  (Lemmas E.1, E.2, Corollary E.3) behind the density argument of Theorem 4.1.
* :mod:`repro.analysis.error_bounds` — the protocol-level corollaries
  (Lemma 3.2, 3.8, 3.11, 3.12) assembled from the pieces above, yielding the
  paper's headline numbers (additive error 5.7 with probability ``>= 1-9/n``).

Every function is validated against Monte-Carlo simulation in the test suite,
so the library doubles as an executable check of the paper's constants.
"""

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "harmonic": ["euler_mascheroni", "harmonic_number"],
    "geometric": [
        "expected_maximum_of_geometrics",
        "exact_expected_maximum",
        "geometric_pmf",
        "maximum_cdf",
        "maximum_lower_tail",
        "maximum_upper_tail",
        "maximum_two_sided_tail",
        "maximum_in_range_probability",
    ],
    "subexponential": [
        "sub_exponential_mgf_bound",
        "sum_of_maxima_tail",
        "average_additive_error_probability",
        "required_sample_count",
    ],
    "epidemic_theory": [
        "expected_epidemic_time",
        "epidemic_upper_tail",
        "subpopulation_epidemic_upper_tail",
        "epidemic_time_bound",
    ],
    "interaction_bounds": [
        "expected_interactions",
        "interaction_count_upper_tail",
        "interactions_upper_bound",
        "phase_clock_threshold",
    ],
    "balls_and_bins": [
        "empty_bins_bound",
        "state_depletion_bound",
        "count_survival_bound",
    ],
    "error_bounds": [
        "partition_deviation_probability",
        "log_size2_range",
        "log_size2_range_probability",
        "final_error_probability",
        "theorem_3_1_summary",
    ],
})
