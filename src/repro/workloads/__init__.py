"""Workload and initial-configuration generators for experiments."""

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "initial_configurations": [
        "alpha_dense_random_configuration",
        "all_identical_configuration",
        "leader_configuration",
        "two_state_split_configuration",
    ],
    "populations": ["geometric_sizes", "figure2_sizes", "parse_size_list"],
})
