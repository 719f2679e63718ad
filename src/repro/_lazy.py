"""Names that import on first use: package exports and registry references.

A process imports only the modules it runs.  A package ``__init__`` lists
its exports by submodule and resolves each on first access through a PEP 562
module ``__getattr__`` (:func:`lazy_exports`), so importing a package loads
none of its submodules.  A registry names what it builds by
``module:qualname``, the reference a trial's cache key already uses for
callables: :func:`resolve` imports one, and a :class:`Reference` field holds
a callable or its reference and reads as the callable.
"""

from __future__ import annotations

import importlib
import sys
from typing import Iterable, Mapping

__all__ = ["Reference", "lazy_exports", "resolve"]


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]):
    """``(__all__, __getattr__, __dir__)`` of ``package``, whose names live in
    the submodules ``exports`` lists them under.

    A name imports its submodule on first access and is then a plain
    attribute of the package.
    """
    home = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home[name]}")
        namespace[name] = getattr(module, name)
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return list(home), __getattr__, __dir__


def resolve(reference: str):
    """The object a ``module:qualname`` reference names, imported now."""
    module, _, qualname = reference.partition(":")
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


_REQUIRED = object()


class Reference:
    """A dataclass field holding a callable or its ``module:qualname``.

    The field reads as the callable: a reference resolves on first read and
    the instance keeps what it resolved to.  ``default`` is the field's
    default; without one the field is required.
    """

    def __init__(self, default=_REQUIRED) -> None:
        self.default = default

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        self.slot = f"_{name}"

    def __get__(self, instance, owner=None):
        if instance is None:
            if self.default is _REQUIRED:
                raise AttributeError(self.name)
            return self.default
        value = instance.__dict__[self.slot]
        if isinstance(value, str):
            value = instance.__dict__[self.slot] = resolve(value)
        return value

    def __set__(self, instance, value) -> None:
        instance.__dict__[self.slot] = value
