"""Batched configuration-level simulation of finite-state protocols.

:class:`~repro.engine.count_simulator.CountSimulator` already reduces a
finite-state protocol to its state counts, but it still pays a Python-level
linear scan *per interaction*.  The headline experiments need 10^9–10^10
interactions, which demands per-*batch* rather than per-interaction work.

:class:`BatchedCountSimulator` advances the configuration in batches of
``~sqrt(n)`` interactions at a time:

1. the protocol is compiled once into dense integer transition tables
   (:func:`repro.protocols.compiled.compile_transition_table`);
2. for each batch of ``Delta`` interactions, the number of interactions
   hitting each ordered *state pair* ``(i, j)`` is drawn in one numpy
   multinomial over the ``S^2`` pair probabilities
   ``c_i c_j / (n (n - 1))`` (diagonal ``c_i (c_i - 1)``) computed from the
   current counts;
3. pairs with only null transitions are skipped wholesale; for each reactive
   pair the interactions are split among the protocol's randomized outcomes
   by a second multinomial, and all resulting count deltas are applied at
   once.

This replaces ``Theta(n)`` Python work per unit of parallel time with
``Theta(S^2 polylog)`` numpy work per batch — 10–100x faster for classic
protocols (epidemic, majority, leader election) at ``n >= 10^5``.

Array backends
--------------

The draw→apply loop itself lives behind the array-backend seam
(:mod:`repro.backend`): the engine owns the counts, the accounting and the
run interface, while a *fused kernel* built by the selected backend executes
the interactions.  The default numpy backend reproduces the historical RNG
stream bitwise; the native backend runs every batch of a call in compiled C
code that makes the same draws, so its runs are the numpy runs bit for bit,
about two orders of magnitude faster.  The backend is the process's
(``REPRO_BACKEND``, which ``--backend`` on the CLI sets for one
invocation); ``BatchedCountSimulator(..., backend=...)`` and
``build_engine(..., backend=...)`` pin one, as the tests and benchmarks do
for the numpy reference.  It reaches no record or cache key.  See
``DESIGN.md`` (Array backends) for the kernel contract and per-backend RNG
guarantees.

Approximation and exact fallback
--------------------------------

Within a batch the pair probabilities are frozen at the batch's starting
counts, whereas the true sequential process updates them after every
interaction.  With ``Delta = Theta(sqrt(n))`` the expected number of
*reactive collisions* (an agent whose state changed being selected again in
the same batch) is ``O(Delta^2 / n) = O(1)`` per batch, so the per-batch
distortion vanishes as ``n`` grows — the standard argument behind batched
population-protocol simulators.  Two exact safeguards are applied on top
(by every backend's kernel):

* if a batch draw would consume more agents of some state than are present
  (``sum_j m[i, j] + m[j, i] > c_i`` over reactive pairs), the draw is
  discarded and the whole batch is executed by exact sequential steps; and
* the same exact step-by-step path is used whenever every reactive state
  count is below ``small_count_threshold``, where frozen-rate batching would
  distort the distribution the most (e.g. the 2-leaders endgame of
  ``L, L -> L, F``).

The sequential path samples from the *same* compiled tables, so both paths
draw from identical transition distributions.  See ``DESIGN.md``
(Schedulers) for the accompanying discussion and the cross-engine
equivalence tests in ``tests/engine/test_cross_engine.py``.

Randomness comes from a dedicated ``numpy.random.Generator`` seeded like the
other engines; runs are reproducible per seed (but seed-for-seed trajectories
differ from :class:`CountSimulator`, which uses the stdlib generator — the
engines agree in distribution, not draw-for-draw).
"""

from __future__ import annotations

import math
import numbers
from typing import Hashable

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.engine.configuration import Configuration
from repro.engine.running import (
    CountArrayEngine,
    check_population_size,
    initial_configuration_for,
)
from repro.engine.scheduler import SchedulerSpec
from repro.exceptions import SimulationError
from repro.obs.recorder import RECORDER as _REC
from repro.protocols.base import FiniteStateProtocol
from repro.protocols.compiled import CompiledTransitionTable, compile_transition_table

__all__ = ["BatchedCountSimulator"]


class BatchedCountSimulator(CountArrayEngine):
    """Simulate a :class:`FiniteStateProtocol` by counts, many interactions at a time.

    Parameters
    ----------
    protocol:
        The finite-state protocol to simulate.
    population_size:
        Number of agents ``n`` (at least 2).
    seed:
        Seed for the numpy random generator; runs are reproducible per seed.
    initial_configuration:
        Optional explicit starting configuration (default:
        ``protocol.initial_configuration(population_size)``); its size must
        equal ``population_size`` and every state must belong to the
        protocol's declared state set.
    batch_size:
        Interactions per batch.  Defaults to ``max(1, round(sqrt(n)))``,
        which keeps the expected number of within-batch reactive collisions
        ``O(1)``.
    small_count_threshold:
        When every *reactive* state (a state that participates in some
        non-null ordered pair, given the current support) has count below
        this threshold, the engine steps exactly instead of batching.
        Defaults to ``8``; set to ``0`` to disable the small-count fallback
        (the consumption guard still protects against negative counts).
        A trial passes both in ``TrialSpec.engine_options``, checked by
        :meth:`check_options`.
    scheduler:
        Count-level scheduling policy (a registered name or a
        :class:`~repro.engine.scheduler.SchedulerSpec`).  The policy must
        expose per-state interaction weights — ``"sequential"`` (uniform,
        the default) or ``"state-weighted"`` (pair probabilities
        proportional to ``(r_i c_i)(r_j c_j)``); the batch multinomial and
        the exact fallback both honour the rates.
    backend:
        Array backend executing the hot loop: a registered name
        (``"numpy"``, ``"native"``), an
        :class:`~repro.backend.ArrayBackend` instance, or ``None`` for the
        process's backend (``REPRO_BACKEND`` or numpy).  An unavailable
        backend warns and falls back to numpy.
    """

    def __init__(
        self,
        protocol: FiniteStateProtocol,
        population_size: int,
        seed: int | None = None,
        initial_configuration: Configuration | None = None,
        batch_size: int | None = None,
        small_count_threshold: int = 8,
        scheduler: "SchedulerSpec | str | None" = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        check_population_size(population_size)
        options = self.check_options(
            batch_size=batch_size, small_count_threshold=small_count_threshold
        )
        self.protocol = protocol
        self.population_size = population_size
        self.table: CompiledTransitionTable = compile_transition_table(protocol)
        self._states = self.table.states
        self._state_index = self.table.index
        self._rng = np.random.default_rng(seed)
        size = self.table.num_states
        self._counts = np.zeros(size, dtype=np.int64)
        for state, count in initial_configuration_for(
            protocol, population_size, initial_configuration, self.table.index
        ).items():
            self._counts[self.table.index[state]] = count
        self.batch_size = options["batch_size"] or max(
            1, round(math.sqrt(population_size))
        )
        self.small_count_threshold = options["small_count_threshold"]
        self.scheduler_spec = SchedulerSpec.coerce(scheduler)
        # None = uniform rates (the historical code path, draw-for-draw
        # stream-preserving); else one activity rate per compiled state.
        self._state_rates = self.scheduler_spec.build_policy().state_rates(
            self.table.states
        )
        self.interactions = 0
        #: Diagnostics: batches applied via multinomial draws vs. executed
        #: by the exact sequential fallback.
        self.batched_batches = 0
        self.fallback_batches = 0
        self._states_seen: set[Hashable] = {
            self.table.states[position] for position in np.nonzero(self._counts)[0]
        }
        self.backend = resolve_backend(backend)
        self._kernel = self.backend.batched_kernel(
            self.table,
            self._state_rates,
            population_size,
            self.small_count_threshold,
        )

    @staticmethod
    def check_options(**options) -> dict:
        """The options given, checked and as ints (``batch_size=None`` keeps
        the default): the one check the constructor and trial specs run."""
        checked = dict(options)
        for name, least in (("batch_size", 1), ("small_count_threshold", 0)):
            value = options.get(name)
            if name not in options or (value is None and name == "batch_size"):
                continue
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise SimulationError(
                    f"{name} must be an integer >= {least}, got {value!r}"
                )
            checked[name] = int(value)
        return checked

    # -- inspection -----------------------------------------------------------

    @property
    def parallel_time(self) -> float:
        """Parallel time elapsed so far."""
        return self.interactions / self.population_size

    def _state_counts(self) -> np.ndarray:
        return self._counts

    def states_seen(self) -> frozenset[Hashable]:
        """All states that have had positive count at any point of the run."""
        seen = set(self._states_seen)
        seen.update(
            self.table.states[position]
            for position in np.nonzero(self._kernel.seen)[0]
        )
        return frozenset(seen)

    # -- stepping -------------------------------------------------------------

    def run_interactions(self, count: int) -> None:
        """Execute exactly ``count`` additional interactions.

        The fused draw→apply work happens in the backend kernel; this loop
        only does the accounting, and records one telemetry block per call
        (never per batch).  The numpy reference kernel advances one batch
        per call, the native kernel advances everything in a single call;
        both make the same draws.
        """
        if count < 0:
            raise SimulationError(f"interaction count must be non-negative, got {count}")
        t0 = _REC.now_ns()
        batched_before, fallback_before = self.batched_batches, self.fallback_batches
        remaining = count
        advances = 0
        while remaining > 0:
            done, batched, fallback = self._kernel.advance(
                self._counts, remaining, self.batch_size, self._rng
            )
            self.interactions += done
            self.batched_batches += batched
            self.fallback_batches += fallback
            remaining -= done
            advances += 1
        _REC.add_time("backend.kernel_advance", _REC.now_ns() - t0)
        _REC.count("backend.kernel_advances", advances)
        _REC.count("engine.batched_batches", self.batched_batches - batched_before)
        _REC.count("engine.fallback_batches", self.fallback_batches - fallback_before)
        _REC.count("engine.interactions", count)
