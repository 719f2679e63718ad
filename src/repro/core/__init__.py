"""The paper's primary contribution: uniform size estimation and its variants.

Modules
-------
``parameters``
    :class:`ProtocolParameters` — the numeric constants of the protocol
    (phase-clock threshold factor 95, epoch-count factor 5, ...), with the
    paper's values as defaults and scaled-down presets for fast tests.
``fields`` / ``subprotocols``
    The per-agent state record of Protocol 1 and the paper's subroutines
    (``Partition-Into-A/S``, ``Propagate-Max-Clock-Value``, ``Restart``,
    ``Update-Sum``, ...), implemented as small functions mirroring the
    pseudocode.
``log_size_estimation``
    Protocol 1 — the uniform leaderless ``Log-Size-Estimation`` protocol
    (Theorem 3.1).
``synthetic_coin``
    Appendix B — the variant with no access to random bits (roles A/F,
    synthetic coins from the sender/receiver choice).
``leader_terminating``
    Section 3.4 — terminating size estimation with an initial leader
    (Theorem 3.13).
``probability_one``
    Section 3.3 — probability-1 upper bound on ``log2 n`` via the slow exact
    backup protocol.
``phase_clock``
    The leader-driven phase clock of Theorem 3.13 as a reusable component.
``composition``
    The restart-based composition scheme of Section 1.1 for running
    downstream (possibly nonuniform) protocols on top of the size estimate.
``array_simulator``
    Protocol 1 as a vector-engine kernel (numpy struct-of-arrays) for large
    populations — the engine behind the Figure 2 reproduction.
``vector_leader``
    The Theorem 3.13 leader-driven terminating protocol as a vector-engine
    kernel, scaling that experiment to ``n >= 10^6``.
"""

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "parameters": ["ProtocolParameters"],
    "fields": ["LogSizeAgentState", "Role"],
    "log_size_estimation": [
        "LogSizeEstimationProtocol",
        "all_agents_done",
        "estimate_error",
    ],
    "synthetic_coin": ["SyntheticCoinLogSizeEstimation"],
    "leader_terminating": ["LeaderTerminatingSizeEstimation"],
    "probability_one": ["ProbabilityOneUpperBoundProtocol"],
    "phase_clock": ["LeaderDrivenPhaseClock"],
    "composition": ["RestartComposition", "StagedComposition"],
    "array_simulator": ["LogSizeVectorProtocol"],
    "vector_leader": ["LeaderTerminatingVectorProtocol", "expected_termination_time"],
})
