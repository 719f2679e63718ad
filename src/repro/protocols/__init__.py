"""Library of population protocols used as substrates and baselines.

This package contains:

* the abstract interfaces every protocol implements
  (:mod:`repro.protocols.base`),
* the one-way epidemic, the building block the paper relies on,
* baseline protocols from the related-work the paper positions itself
  against: the nonuniform counter protocol of Figure 1, finite-state
  pairwise-elimination leader election, 3-state approximate majority, the
  approximate counting protocol of Alistarh et al. [2], Michail's
  leader-driven exact counting [32], and
* the slow probability-1 exact upper-bound protocol of Section 3.3
  (:mod:`repro.protocols.exact_backup`).
"""

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": [
        "AgentProtocol",
        "FiniteStateProtocol",
        "ProtocolOutput",
        "RandomizedTransition",
    ],
    "compiled": ["CompiledTransitionTable", "compile_transition_table"],
    "epidemic": ["EpidemicProtocol", "EpidemicState"],
    "leader_election": [
        "FiniteStateCounterTermination",
        "FiniteStatePairwiseElimination",
        "NonuniformCounterLeaderElection",
    ],
    "majority": ["ApproximateMajorityProtocol"],
    "approximate_counting": ["AlistarhApproximateCounting"],
    "exact_counting_leader": ["LeaderExactCounting"],
    "exact_backup": ["ExactUpperBoundBackup"],
})
