"""Structured diagnostics shared by every ``repro check`` analyzer family.

A :class:`Diagnostic` is one finding: a stable rule id (``P101``, ``D301``,
``K401``, ...), a severity, a location (either ``path:line`` for source-level
rules or a logical coordinate such as ``protocol:leader`` for semantic
rules), a human message and a fix hint.  Analyzers return plain lists of
diagnostics; the runner applies waivers, renders text or JSON and computes
the process exit code.

Waivers
-------
A :class:`Waiver` suppresses one rule at one location *with a recorded
justification* — the point is accountability, not silencing: waived
diagnostics still appear in the output, marked with the justification, and
an unused waiver is itself reported (rule ``W001``) so stale exceptions
cannot accumulate.  Waivers match by exact rule id and by location prefix
(so ``src/repro/store/`` waives every file under that directory).

The committed waivers for this repository live in
:mod:`repro.staticcheck.waivers`; ad-hoc ones can be supplied to
``repro check --waivers FILE`` as JSON::

    {"waivers": [{"rule": "D302",
                  "location": "benchmarks/",
                  "justification": "benchmarks measure wall time"}]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "Diagnostic",
    "ERROR",
    "INFO",
    "SEVERITIES",
    "WARNING",
    "Waiver",
    "apply_waivers",
    "exit_code",
    "load_waiver_file",
    "render_json",
    "render_text",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"
SEVERITIES = (ERROR, WARNING, INFO)

#: Rule id used to report waivers that matched nothing.
UNUSED_WAIVER_RULE = "W001"


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    Attributes
    ----------
    rule:
        Stable rule id (``P1xx`` protocol semantics, ``C2xx`` CRN semantics,
        ``D3xx`` determinism lint, ``K4xx`` cache-key contracts, ``M5xx``
        capability matrix, ``W0xx`` meta).
    severity:
        ``"error"`` fails the check (unless waived), ``"warning"`` and
        ``"info"`` never do.
    location:
        ``path:line`` for source rules, or a logical coordinate such as
        ``protocol:majority`` / ``crn:epidemic`` / ``spec:TrialSpec``.
    message:
        What was found.
    hint:
        How to fix it (or how to waive it when the finding is intended).
    waived_by:
        Justification text of the waiver that matched, if any.
    """

    rule: str
    severity: str
    location: str
    message: str
    hint: str = ""
    waived_by: str | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def waived(self) -> bool:
        return self.waived_by is not None

    def as_dict(self) -> dict:
        payload = {
            "rule": self.rule,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }
        if self.waived_by is not None:
            payload["waived_by"] = self.waived_by
        return payload


@dataclass(frozen=True)
class Waiver:
    """A justified exception: suppress ``rule`` at locations under ``location``."""

    rule: str
    location: str
    justification: str

    def matches(self, diagnostic: Diagnostic) -> bool:
        return diagnostic.rule == self.rule and diagnostic.location.startswith(
            self.location
        )


def load_waiver_file(path: str | Path) -> tuple[Waiver, ...]:
    """Parse a JSON waiver file (see module docstring for the format)."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = raw.get("waivers", raw) if isinstance(raw, dict) else raw
    if not isinstance(entries, list):
        raise ValueError(f"waiver file {path}: expected a list of waiver objects")
    waivers = []
    for index, entry in enumerate(entries):
        try:
            waivers.append(
                Waiver(
                    rule=entry["rule"],
                    location=entry["location"],
                    justification=entry["justification"],
                )
            )
        except (TypeError, KeyError) as error:
            raise ValueError(
                f"waiver file {path}: entry {index} needs rule/location/"
                f"justification keys ({error})"
            ) from None
    return tuple(waivers)


def apply_waivers(
    diagnostics: Iterable[Diagnostic],
    waivers: Sequence[Waiver],
    suppress_unused_prefixes: Sequence[str] = (),
) -> list[Diagnostic]:
    """Mark waived diagnostics and append ``W001`` for unused waivers.

    ``suppress_unused_prefixes`` lists rule prefixes whose waivers should
    not be reported as stale — used when an analyzer family ran on a
    narrowed scope (e.g. ``--paths``), so its waivers may legitimately have
    had nothing to match.
    """
    used = [False] * len(waivers)
    result = []
    for diagnostic in diagnostics:
        for index, waiver in enumerate(waivers):
            if waiver.matches(diagnostic):
                used[index] = True
                diagnostic = replace(diagnostic, waived_by=waiver.justification)
                break
        result.append(diagnostic)
    for waiver, was_used in zip(waivers, used):
        if not was_used and not waiver.rule.startswith(
            tuple(suppress_unused_prefixes) or ("\0",)
        ):
            result.append(
                Diagnostic(
                    rule=UNUSED_WAIVER_RULE,
                    severity=WARNING,
                    location=waiver.location,
                    message=(
                        f"waiver for {waiver.rule} at {waiver.location!r} matched "
                        f"no diagnostic"
                    ),
                    hint="delete the stale waiver (or fix its location prefix)",
                )
            )
    return result


def exit_code(diagnostics: Iterable[Diagnostic]) -> int:
    """0 when every error is waived, 1 otherwise (warnings never fail)."""
    for diagnostic in diagnostics:
        if diagnostic.severity == ERROR and not diagnostic.waived:
            return 1
    return 0


_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


def _sorted(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    return sorted(
        diagnostics,
        key=lambda d: (_SEVERITY_ORDER[d.severity], d.rule, d.location),
    )


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    """Human-readable report, errors first."""
    diagnostics = _sorted(diagnostics)
    if not diagnostics:
        return "repro check: clean (no diagnostics)"
    lines = []
    counts = {ERROR: 0, WARNING: 0, INFO: 0}
    for diagnostic in diagnostics:
        if not diagnostic.waived:
            counts[diagnostic.severity] += 1
        flag = " [waived: " + diagnostic.waived_by + "]" if diagnostic.waived else ""
        lines.append(
            f"{diagnostic.severity.upper():7s} {diagnostic.rule} "
            f"{diagnostic.location}: {diagnostic.message}{flag}"
        )
        if diagnostic.hint:
            lines.append(f"        hint: {diagnostic.hint}")
    lines.append(
        f"{counts[ERROR]} error(s), {counts[WARNING]} warning(s), "
        f"{counts[INFO]} info (waived findings excluded from counts)"
    )
    return "\n".join(lines)


def render_json(diagnostics: Iterable[Diagnostic]) -> str:
    """Machine-readable report (stable field names, errors first)."""
    diagnostics = _sorted(diagnostics)
    payload = {
        "diagnostics": [diagnostic.as_dict() for diagnostic in diagnostics],
        "summary": {
            severity: sum(
                1
                for diagnostic in diagnostics
                if diagnostic.severity == severity and not diagnostic.waived
            )
            for severity in SEVERITIES
        },
        "exit_code": exit_code(diagnostics),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
