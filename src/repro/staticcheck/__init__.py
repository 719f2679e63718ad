"""Static analysis for the reproduction: ``repro check``.

Three analyzer families turn the repository's correctness conventions into
machine-checked contracts (see ``DESIGN.md``, "Static analysis"):

* :mod:`repro.staticcheck.semantic` — producibility-based protocol/CRN
  analysis (unreachable states, output instability, scheduler starvation,
  dead reactions);
* :mod:`repro.staticcheck.lint` — AST determinism lint (no global RNG, no
  wall clock on simulation paths);
* :mod:`repro.staticcheck.contracts` — cache-key completeness by
  perturbation and capability-matrix test coverage.

Entry point: :func:`repro.staticcheck.runner.run_check` (the ``repro check``
subcommand).  Committed exceptions: :mod:`repro.staticcheck.waivers`.
"""

from repro.staticcheck.diagnostics import (
    Diagnostic,
    Waiver,
    apply_waivers,
    exit_code,
    load_waiver_file,
    render_json,
    render_text,
)
from repro.staticcheck.runner import FAMILIES, run_check

__all__ = [
    "Diagnostic",
    "FAMILIES",
    "Waiver",
    "apply_waivers",
    "exit_code",
    "load_waiver_file",
    "render_json",
    "render_text",
    "run_check",
]
