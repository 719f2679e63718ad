"""Pluggable array backends: one seam, several implementations of the hot loops.

Every engine of :mod:`repro.engine` used to carry its hot loops inline —
the batched engine's multinomial draw→apply, the vector engine's matching
rounds, the state-weighted pair-weight computation the CRN "thinned" mode
leans on.  BENCH_engines.json showed all of them saturating near 10^7
interactions/s, dominated by per-batch Python dispatch rather than by the
arithmetic.  This package makes the kernel implementation a *backend* chosen
at engine construction time (``build_engine(..., backend=...)``,
``--backend`` on the CLI, or the ``REPRO_BACKEND`` environment variable), so
an engine is never forked to go faster.

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
    through ``cffi`` and the system C compiler.  The batched kernel (>=10x
    numpy at n >= 10^6) draws from its own generator, seeded from the
    engine's: distribution-identical, not bitwise.  The vector engine's
    matching and ``Log-Size-Estimation`` round are bitwise the numpy runs.

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
    implementation (e.g. the native backend inherits the finite-state round
    and tau-leap kernels).

    Kernel contract
    ---------------
    ``batched_kernel(table, state_rates, population_size, small_count_threshold, rng)``
        Object with an ``advance(counts, max_interactions, batch_size, rng)
        -> (done, batched_batches, fallback_batches)`` method executing up
        to ``max_interactions`` interactions against the caller's count
        vector (mutated in place), and a boolean ``seen`` array marking
        every state index that gained an agent at any point.  A backend may
        advance one batch per call (the numpy reference, preserving the
        historical per-batch RNG stream) or everything in one call (the
        native backend, eliminating per-batch Python dispatch).
    ``finite_round_kernel(table)``
        Object with an ``apply(state, rec, sen, rng)`` method applying one
        matching round of a compiled finite-state protocol to the per-agent
        state array.
    ``pair_weights(counts, rates)``
        The state-weighted ordered-pair weight matrix ``(r_i c_i)(r_j c_j)``
        (diagonal ``(r_i c_i) r_i (c_i - 1)``; ``rates=None`` is the uniform
        policy) — the count-level scheduling computation shared by the
        batched multinomial and the CRN thinned lowering.
    ``tau_leap_kernel(reactant_a, reactant_b, rate_coeff, stoich, rng)``
        The multiscale engine's hot kernel over per-channel reaction arrays:
        ``propensities(counts)`` evaluates the parallel-time channel rates,
        and ``leap(counts, mask, tau, rng) -> (ok, new_counts)`` fuses the
        propensity evaluation, Poisson draws (binomial-clamped near a
        channel's firing headroom) and the stoichiometry apply for one leap,
        reporting ``ok=False`` when a draw would drive a count negative so
        the engine can halve ``tau`` and redraw.
    ``draw_matching_arrays(members, rng)`` / ``thin_members(rates, rng)``
        The vector engine's round draws: the shared uniform matching and the
        per-agent rate thinning of the weighted round scheduler.
    ``log_size_round_kernel(protocol)``
        A callable ``(rec, sen)`` applying one ``Log-Size-Estimation`` round
        to the protocol's fields, or ``None`` for its numpy sub-steps.
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
        rng: np.random.Generator,
    ):
        """Build the batched engine's fused draw→apply kernel."""
        from repro.backend.numpy_backend import NumpyBatchedKernel

        return NumpyBatchedKernel(
            table, state_rates, population_size, small_count_threshold
        )

    def finite_round_kernel(self, table: "CompiledTransitionTable"):
        """Build the vector engine's fused matching-round kernel."""
        from repro.backend.numpy_backend import NumpyFiniteRoundKernel

        return NumpyFiniteRoundKernel(table)

    def pair_weights(
        self, counts: np.ndarray, rates: np.ndarray | None
    ) -> np.ndarray:
        """Ordered state-pair selection weights at the given counts."""
        from repro.backend.numpy_backend import pair_weight_matrix

        return pair_weight_matrix(counts, rates)

    def draw_matching_arrays(
        self, members: "int | np.ndarray", rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """One uniform random matching with uniformly oriented pairs."""
        from repro.engine.scheduler import draw_matching_arrays

        return draw_matching_arrays(members, rng)

    def thin_members(
        self, rates: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Rate-thinned member selection for weighted matching rounds."""
        return np.nonzero(rng.random(rates.size) < rates)[0]

    def log_size_round_kernel(self, protocol: "LogSizeVectorProtocol"):
        """Build the vector engine's ``Log-Size-Estimation`` round, or ``None``
        to keep the protocol's numpy sub-steps."""
        return None

    def tau_leap_kernel(
        self,
        reactant_a: np.ndarray,
        reactant_b: np.ndarray,
        rate_coeff: np.ndarray,
        stoich: np.ndarray,
        rng: np.random.Generator,
    ):
        """Build the multiscale engine's fused tau-leap kernel."""
        from repro.backend.numpy_backend import NumpyTauLeapKernel

        return NumpyTauLeapKernel(reactant_a, reactant_b, rate_coeff, stoich)

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
