"""Population-size lists for sweeps, from the CLI and the environment."""

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "populations": ["parse_size_list"],
})
