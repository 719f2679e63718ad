"""Pluggable array backends: one seam, several implementations of the hot loops.

Four hot loops have a compiled version: the batched engine's multinomial
draw→apply, the vector engine's matching draw and ``Log-Size-Estimation``
round, and the multiscale engine's regime loop.  Their numpy forms are
dominated by per-step Python dispatch rather than by the arithmetic
(BENCH_engines.json: the batched one saturated near 10^7 interactions/s; a
multiscale regime step costs 60–85 µs on 3-species SIR).  This package
makes the implementation of those four kernels a *backend*, so an engine is
never forked to go faster.  A hot loop with only a numpy version lives in
the engine that runs it.

The backend is a setting of the process: ``REPRO_BACKEND``, which
``--backend`` sets for one CLI invocation.  Only the batched, vector and
multiscale engines resolve one, at construction (their ``backend=`` pins
one).  Every backend makes the numpy draws, so no trial spec or cache key
names one (staticcheck rule K407).

Backends
--------

``numpy``
    The reference implementation (:mod:`repro.backend.numpy_backend`) and
    the default.  Draw-for-draw **stream-preserving**: a seeded run produces
    bitwise-identical trajectories to the pre-seam engines.  Hot-loop
    invariants are hoisted out of the batch loop (incremental pair-weight
    rebuilds, cached per-pair outcome distributions, preallocated buffers),
    so the reference backend is itself faster than the inline code it
    replaced.
``native``
    C kernels (:mod:`repro.backend.native_backend`) compiled at first use
    through ``cffi`` and the system C compiler.  Each makes the numpy
    kernel's draws, in its order, on the engine's generator, so native runs
    are the numpy runs bit for bit: the batched advance (one C call per
    ``run_interactions``, about two orders of magnitude faster than numpy),
    the vector engine's matching and ``Log-Size-Estimation`` round, and
    the multiscale regime loop (one C call per advance).

Selecting an unavailable backend is never an error: :func:`resolve_backend`
warns and falls back to numpy, so numpy-only installs stay fully functional
(the graceful-fallback contract is pinned by ``tests/backend``).

The fused-kernel contract each backend implements is documented in
``DESIGN.md`` (Array backends); engines call :meth:`ArrayBackend.batched_kernel`
and friends and never branch on the backend name.
"""

from __future__ import annotations

import os
import warnings
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.array_simulator import LogSizeVectorProtocol
    from repro.crn.multiscale import MultiscaleSimulator
    from repro.protocols.compiled import CompiledTransitionTable

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "ArrayBackend",
    "backend_availability",
    "get_backend",
    "register_backend",
    "resolve_backend",
]

#: Environment variable naming the default backend for this process.
ENV_BACKEND = "REPRO_BACKEND"

#: The backend used when neither the caller nor the environment chooses one.
DEFAULT_BACKEND = "numpy"


class ArrayBackend:
    """Base class of the array-backend seam.

    A backend builds the *fused kernels* the engines run their hot loops
    through.  The base class implements every kernel with the reference
    numpy code path, so a subclass only overrides the kernels it actually
    accelerates — anything it leaves alone transparently runs the reference
    implementation.  Every kernel here has a native version.

    Kernel contract
    ---------------
    ``batched_kernel(table, state_rates, population_size, small_count_threshold)``
        Object with an ``advance(counts, max_interactions, batch_size, rng)
        -> (done, batched_batches, fallback_batches)`` method executing up
        to ``max_interactions`` interactions against the caller's count
        vector (mutated in place) with draws on ``rng``, and a boolean
        ``seen`` array marking every state index that gained an agent at
        any point.  A backend may advance one batch per call (the numpy
        reference) or everything in one call (the native backend,
        eliminating per-batch Python dispatch); a batch that fails leaves
        the counts as it found them, and is raised only after the batches
        before it are returned.
    ``draw_matching_arrays(members, rng)``
        The vector engine's round draw: one uniform matching of ``members``
        with uniformly oriented pairs, shared by every round scheduler.
    ``log_size_round_kernel(protocol)``
        A callable ``(rec, sen)`` applying one ``Log-Size-Estimation`` round
        to the protocol's fields, or ``None`` for its numpy sub-steps.
    ``multiscale_kernel(simulator)``
        A callable ``(target)`` running the multiscale engine's regime loop
        until its clock reaches ``target``, in place on the engine's counts,
        ``seen`` marks and critical flags, or ``None`` for the engine's
        numpy loop.
    """

    #: Registry key (``--backend <name>``).
    name: ClassVar[str] = ""

    @classmethod
    def available(cls) -> bool:
        """Whether the backend can run in this environment."""
        return True

    @classmethod
    def unavailable_reason(cls) -> str | None:
        """Why :meth:`available` is ``False`` (``None`` when available)."""
        return None

    # -- fused kernels (reference implementations; override to accelerate) ---

    def batched_kernel(
        self,
        table: "CompiledTransitionTable",
        state_rates: np.ndarray | None,
        population_size: int,
        small_count_threshold: int,
    ):
        """Build the batched engine's fused draw→apply kernel."""
        from repro.backend.numpy_backend import NumpyBatchedKernel

        return NumpyBatchedKernel(
            table, state_rates, population_size, small_count_threshold
        )

    def draw_matching_arrays(
        self, members: "int | np.ndarray", rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """One uniform random matching with uniformly oriented pairs."""
        from repro.engine.scheduler import draw_matching_arrays

        return draw_matching_arrays(members, rng)

    def log_size_round_kernel(self, protocol: "LogSizeVectorProtocol"):
        """Build the vector engine's ``Log-Size-Estimation`` round, or ``None``
        to keep the protocol's numpy sub-steps."""
        return None

    def multiscale_kernel(self, simulator: "MultiscaleSimulator"):
        """Build the multiscale engine's regime loop, or ``None`` to keep the
        engine's numpy loop."""
        return None

    def describe(self) -> str:
        """One-line description for ``repro engines`` output."""
        return self.name


BACKEND_REGISTRY: dict[str, type[ArrayBackend]] = {}
_INSTANCES: dict[str, ArrayBackend] = {}


def register_backend(cls: type[ArrayBackend]) -> type[ArrayBackend]:
    """Register a backend class under its ``name`` (usable as a decorator)."""
    if not cls.name:
        raise SimulationError("array backends must declare a non-empty name")
    BACKEND_REGISTRY[cls.name] = cls
    return cls


def backend_names() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(BACKEND_REGISTRY)


def get_backend(name: str) -> ArrayBackend:
    """Instantiate (and memoise) a registered backend, without fallback.

    Raises
    ------
    SimulationError
        For an unknown backend name.  Availability is *not* checked here;
        use :func:`resolve_backend` for the warn-and-fall-back behaviour.
    """
    try:
        cls = BACKEND_REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown backend {name!r}; registered: {', '.join(backend_names())}"
        ) from None
    if name not in _INSTANCES:
        _INSTANCES[name] = cls()
    return _INSTANCES[name]


def backend_availability() -> dict[str, str | None]:
    """Availability report: name → ``None`` (available) or the reason not."""
    return {
        name: None if cls.available() else cls.unavailable_reason()
        for name, cls in BACKEND_REGISTRY.items()
    }


def resolve_backend(
    backend: "ArrayBackend | str | None" = None,
) -> ArrayBackend:
    """Resolve a backend choice to a usable instance.

    ``None`` consults the ``REPRO_BACKEND`` environment variable and falls
    back to :data:`DEFAULT_BACKEND`.  A backend that is registered but not
    available in this environment (cffi or a C compiler missing) produces a
    :class:`UserWarning` and the numpy reference backend instead — numpy-only
    installs run every workload, just without the speedup.

    Raises
    ------
    SimulationError
        For a name that matches no registered backend.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    if backend is None:
        backend = os.environ.get(ENV_BACKEND) or DEFAULT_BACKEND
    if not isinstance(backend, str):
        raise SimulationError(
            f"backend must be a name or ArrayBackend, got {type(backend).__name__}"
        )
    resolved = get_backend(backend)
    if not resolved.available():
        reason = resolved.unavailable_reason() or "not available"
        warnings.warn(
            f"array backend {backend!r} is unavailable ({reason}); "
            f"falling back to the numpy reference backend",
            UserWarning,
            stacklevel=2,
        )
        return get_backend(DEFAULT_BACKEND)
    return resolved


# Import-time registration of the shipped backends.  The numpy backend must
# register first: it is the fallback every other backend resolves to.
from repro.backend import numpy_backend as _numpy_backend  # noqa: E402
from repro.backend import native_backend as _native_backend  # noqa: E402

#: Registered backend names (import-time snapshot for CLI choices).
BACKEND_NAMES = backend_names()
