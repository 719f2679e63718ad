"""Every public top-level definition in ``src/repro`` has a consumer.

A definition is consumed when code outside ``tests/`` names it: a module
under ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``.  A name is
an AST ``Name``, an ``Attribute`` or an imported name, or the qualname of a
``module:qualname`` string (the references registries build by).  A name
inside the definition's own body does not count, and the ``__all__`` and
``lazy_exports`` tables hold plain strings, which do not count either.  A
definition under a ``@register_*`` decorator is consumed by name through
its registry.

What nothing consumes yet but stays is listed in ``ALLOWED``, each with the
reason it stays and the ROADMAP item that will consume it.  Everything else
gains a consumer or goes.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CONSUMERS = ("src", "benchmarks", "examples", "perfbench")

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_REFERENCE = re.compile(r"repro(?:\.\w+)*:(\w+)(?:\.\w+)*")

_CLAIMS = "The appendix lemmas as powered checks (the claims registry)"

#: ``path under src/repro`` (a package, ending in ``/``) or ``path:name`` ->
#: (why it stays, the ROADMAP item that will consume it).
ALLOWED = {
    "analysis/": (
        "the paper's lemma and theorem formulas: the predicted side of the "
        "claims registry's entries",
        _CLAIMS,
    ),
    "protocols/base.py:FunctionalFiniteStateProtocol": (
        "a finite-state protocol stated as data: the generator of the "
        "conformance harness's random protocols",
        "Differential conformance harness with stated statistical power",
    ),
    "core/probability_one.py:ProbabilityOneUpperBoundProtocol": (
        "the paper's Section 3.3 probability-1 upper bound on log2 n",
        _CLAIMS,
    ),
    "core/probability_one.py:upper_bound_holds": (
        "the predicate of Section 3.3's claim that the bound always holds",
        _CLAIMS,
    ),
}


def _decorator_name(decorator: ast.expr) -> str:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr
    return decorator.id if isinstance(decorator, ast.Name) else ""


def definitions() -> list[str]:
    """``path:name`` of every public top-level function and class in
    ``src/repro`` that no ``@register_*`` decorator hands to a registry."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.parse(path.read_text(), str(path)).body:
            if (
                isinstance(node, _DEFINITIONS)
                and not node.name.startswith("_")
                and not any(
                    _decorator_name(decorator).startswith("register_")
                    for decorator in node.decorator_list
                )
            ):
                found.append(f"{module}:{node.name}")
    return found


def _names(node: ast.AST):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rpartition(".")[2]
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            reference = _REFERENCE.fullmatch(child.value)
            if reference:
                yield reference.group(1)


def uses() -> dict[str, set[str]]:
    """``name -> {where}`` over every consumer directory: ``where`` is the
    file, plus ``:definition`` when the use sits in a top-level definition's
    body."""
    found = defaultdict(set)
    for directory in CONSUMERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            where = path.relative_to(ROOT).as_posix()
            for node in ast.parse(path.read_text(), str(path)).body:
                owner = where
                if isinstance(node, _DEFINITIONS):
                    owner = f"{where}:{node.name}"
                for name in _names(node):
                    found[name].add(owner)
    return found


def unconsumed() -> list[str]:
    """The definitions nothing but their own body names."""
    used = uses()
    return [
        definition
        for definition in definitions()
        if not used[definition.partition(":")[2]] - {f"src/repro/{definition}"}
    ]


def allowlisted(definition: str, key: str) -> bool:
    return definition == key or (key.endswith("/") and definition.startswith(key))


def test_every_public_definition_has_a_consumer():
    unused = [
        definition
        for definition in unconsumed()
        if not any(allowlisted(definition, key) for key in ALLOWED)
    ]
    assert not unused, (
        "nothing outside tests/ names these definitions; give each a consumer, "
        "delete it, or allowlist it with its reason: " + ", ".join(unused)
    )


def test_every_allowlist_entry_still_names_an_unconsumed_definition():
    unused = unconsumed()
    stale = [
        key for key in ALLOWED
        if not any(allowlisted(definition, key) for definition in unused)
    ]
    assert not stale, stale
