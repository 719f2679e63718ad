"""Termination theory of Section 4: definitions, producibility, density experiments.

The paper's second main result (Theorem 4.1) states that a *uniform*,
*i.o.-dense* protocol cannot be ``kappa``-``t(n)``-terminating unless
``t(n) = O(1)``: from dense initial configurations, every state producible by
a bounded number of sufficiently likely transitions (in particular the
termination signal, if the protocol ever terminates) appears in ``Omega(n)``
count within constant parallel time.

This package makes the proof's ingredients executable:

* :mod:`repro.termination.definitions` — terminated configurations,
  ``kappa``-``t``-terminating specifications, ``alpha``-dense configurations
  and i.o.-dense families;
* :mod:`repro.termination.producibility` — the ``m``-``rho``-producible state
  closure ``Lambda_rho^m`` over a finite-state protocol's transition relation;
* :mod:`repro.termination.density` — empirical verification of the
  timer/density lemma (Lemma 4.2): trajectories of state counts from dense
  configurations;
* :mod:`repro.termination.impossibility` — the end-to-end experiment behind
  benchmark ``T-TERM``: the termination-signal time of a uniform protocol
  stays ``O(1)`` as ``n`` grows (and the signal therefore fires before the
  underlying task can possibly have completed), while leader-driven and
  nonuniform protocols delay it.
"""

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "definitions": [
        "DenseInitialFamily",
        "TerminationSpec",
        "is_alpha_dense",
        "is_terminated_configuration",
    ],
    "producibility": ["ProducibilityAnalysis"],
    "density": ["DensityObservation", "density_trajectory"],
    "impossibility": [
        "TerminationTimeObservation",
        "measure_termination_time",
        "termination_time_sweep",
    ],
})
