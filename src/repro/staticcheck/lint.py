"""Determinism contract lint (rules ``D3xx``) — stdlib ``ast`` only.

Reproducibility in this repository rests on one convention: *every* random
draw flows from an explicit, seeded :class:`numpy.random.Generator` (via
``repro.rng`` / ``spawn_seed``), and nothing on a simulation path reads the
wall clock.  These rules make the convention machine-checked:

``D301`` global RNG
    Any use of stdlib ``random`` (module import or ``from random import x``)
    or of a ``numpy.random`` *module-level* function (``np.random.seed``,
    ``np.random.random``, ...).  Constructing explicit generators is fine:
    ``default_rng``, ``Generator``, ``SeedSequence`` and the bit-generator
    classes are allowed.  Nothing in the tree is waived from this rule.
``D302`` wall clock
    Calls that read real time (``time.time``, ``time.perf_counter``,
    ``datetime.now``, ...).  Code that reads the clock on purpose (store
    leases, the telemetry recorder) carries waivers; the simulation and
    harness paths must stay clock-free so reruns are bit-identical.

The lint is intentionally syntactic: it flags names, not data flow, so it
can run with zero third-party dependencies and zero imports of the checked
code.  Locations are ``path:line`` relative to the repository root, which is
what the waiver prefixes match against.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Sequence

from repro.staticcheck.diagnostics import ERROR, Diagnostic

__all__ = ["lint_paths", "lint_source"]

#: numpy.random attributes that construct explicit generators (allowed).
_ALLOWED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "RandomState",  # legacy class, still an *explicit* generator object
    }
)

#: time-module attributes that read the real clock.
_WALL_CLOCK_TIME = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
    }
)

#: datetime attributes that read the real clock.
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.diagnostics: list[Diagnostic] = []
        #: local aliases of the numpy module (``numpy``, ``np``, ...).
        self.numpy_aliases: set[str] = set()
        #: local aliases of ``numpy.random`` itself (``import numpy.random as nr``).
        self.numpy_random_aliases: set[str] = set()
        #: local aliases of the stdlib ``time`` module.
        self.time_aliases: set[str] = set()
        #: local aliases of the ``datetime`` module.
        self.datetime_aliases: set[str] = set()
        #: local names bound to the ``datetime``/``date`` classes.
        self.datetime_classes: set[str] = set()

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random" and alias.asname is None:
                self._d301(node, "import random", "stdlib random module imported")
            elif alias.name == "random":
                self._d301(
                    node, f"import random as {alias.asname}",
                    "stdlib random module imported",
                )
            elif alias.name == "numpy":
                self.numpy_aliases.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname is None:
                    self.numpy_aliases.add("numpy")
                else:
                    self.numpy_random_aliases.add(alias.asname)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level == 0 and module == "random":
            names = ", ".join(alias.name for alias in node.names)
            self._d301(
                node,
                f"from random import {names}",
                "stdlib random functions draw from the hidden global generator",
            )
        elif node.level == 0 and module == "numpy.random":
            for alias in node.names:
                if alias.name not in _ALLOWED_NP_RANDOM:
                    self._d301(
                        node,
                        f"from numpy.random import {alias.name}",
                        "numpy.random module-level functions use the hidden "
                        "global generator",
                    )
        elif node.level == 0 and module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.numpy_random_aliases.add(alias.asname or "random")
        elif node.level == 0 and module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_TIME:
                    self._d302(node, f"from time import {alias.name}")
        elif node.level == 0 and module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.datetime_classes.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- attribute access ---------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        rendered = self._dotted(node)
        if rendered is not None:
            parts = rendered.split(".")
            # np.random.<fn> (via a numpy alias)
            if (
                len(parts) == 3
                and parts[0] in self.numpy_aliases
                and parts[1] == "random"
                and parts[2] not in _ALLOWED_NP_RANDOM
            ):
                self._d301(
                    node,
                    rendered,
                    "numpy.random module-level functions use the hidden "
                    "global generator",
                )
            # nr.<fn> (via a numpy.random alias)
            elif (
                len(parts) == 2
                and parts[0] in self.numpy_random_aliases
                and parts[0] not in self.numpy_aliases
                and parts[1] not in _ALLOWED_NP_RANDOM
            ):
                self._d301(
                    node,
                    rendered,
                    "numpy.random module-level functions use the hidden "
                    "global generator",
                )
            elif (
                len(parts) == 2
                and parts[0] in self.time_aliases
                and parts[1] in _WALL_CLOCK_TIME
            ):
                self._d302(node, rendered)
            elif (
                len(parts) == 2
                and parts[0] in self.datetime_classes
                and parts[1] in _WALL_CLOCK_DATETIME
            ):
                self._d302(node, rendered)
            elif (
                len(parts) == 3
                and parts[0] in self.datetime_aliases
                and parts[1] in ("datetime", "date")
                and parts[2] in _WALL_CLOCK_DATETIME
            ):
                self._d302(node, rendered)
        self.generic_visit(node)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _dotted(node: ast.Attribute) -> str | None:
        parts = [node.attr]
        value = node.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name):
            parts.append(value.id)
            return ".".join(reversed(parts))
        return None

    def _d301(self, node: ast.AST, what: str, why: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                rule="D301",
                severity=ERROR,
                location=f"{self.path}:{node.lineno}",
                message=f"global RNG: {what} ({why})",
                hint=(
                    "draw from an explicit seeded generator: repro.rng."
                    "RandomSource or numpy.random.default_rng(spawn_seed(...))"
                ),
            )
        )

    def _d302(self, node: ast.AST, what: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                rule="D302",
                severity=ERROR,
                location=f"{self.path}:{node.lineno}",
                message=f"wall clock: {what} (reruns stop being bit-identical)",
                hint=(
                    "simulation/harness paths must be clock-free; intentional "
                    "timing code (profilers, benchmarks) needs a waiver"
                ),
            )
        )


def lint_source(source: str, path: str) -> list[Diagnostic]:
    """Lint one module's source text; ``path`` labels the diagnostics."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Diagnostic(
                rule="D300",
                severity=ERROR,
                location=f"{path}:{error.lineno or 0}",
                message=f"could not parse: {error.msg}",
                hint="fix the syntax error",
            )
        ]
    linter = _Linter(path)
    linter.visit(tree)
    return linter.diagnostics


def lint_paths(
    paths: Sequence[str | Path], root: str | Path = "."
) -> list[Diagnostic]:
    """Lint every ``*.py`` file under the given files/directories.

    Locations are reported relative to ``root`` so committed waiver prefixes
    (``src/repro/...``) match regardless of the working directory.
    """
    root = Path(root).resolve()
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if not entry.is_absolute():
            entry = root / entry
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        else:
            files.append(entry)
    diagnostics: list[Diagnostic] = []
    for file in files:
        try:
            label = str(file.resolve().relative_to(root))
        except ValueError:
            label = str(file)
        diagnostics.extend(
            lint_source(file.read_text(encoding="utf-8"), path=label)
        )
    return diagnostics
