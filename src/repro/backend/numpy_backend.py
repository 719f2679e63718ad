"""Reference numpy backend: the stream-preserving implementation of the seam.

This module is the behavioural specification of the fused kernels.  Every
draw made by :class:`NumpyBatchedKernel` happens against the *engine's*
``numpy.random.Generator`` in exactly the call sequence the pre-seam inline
engine code used, so a seeded run through the numpy backend reproduces
historical trajectories bitwise (pinned against recorded fixtures by
``tests/backend/test_numpy_golden.py``).

The kernel is nevertheless faster than the code it replaced, by hoisting
everything that does not depend on the current batch out of the batch loop:

* the ``S x S`` pair-weight matrix is kept allocated across batches and only
  the rows/columns of states whose counts changed since the previous batch
  are recomputed (products of bitwise-identical float64 factors are
  bitwise-identical, so incremental rebuilds preserve the stream);
* per-pair outcome splitting tables — normalised multinomial ``pvals``,
  output state indices, the null mask — are precomputed once per protocol;
* the small-count reactive test caches its reactive/involved masks keyed on
  the support (which states are present), not on the counts;
* the count-delta buffer is preallocated.

Only what a fixed configuration determines is cached; anything depending on
the counts themselves is recomputed (incrementally) every batch.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.compiled import CompiledTransitionTable

__all__ = [
    "NumpyBackend",
    "NumpyBatchedKernel",
    "pair_weight_matrix",
]


def pair_weight_matrix(
    counts: np.ndarray, rates: np.ndarray | None
) -> np.ndarray:
    """Unnormalised ordered state-pair selection weights at ``counts``.

    Uniform policy (``rates=None``): ``c_i c_j`` off-diagonal,
    ``c_i (c_i - 1)`` on the diagonal.  A state-weighted policy scales every
    agent of state ``s`` by its rate ``r_s``: off-diagonal
    ``(r_i c_i)(r_j c_j)``, diagonal ``(r_i c_i) r_i (c_i - 1)``.
    """
    counts = counts.astype(np.float64)
    if rates is None:
        weights = np.outer(counts, counts)
        np.fill_diagonal(weights, counts * (counts - 1.0))
    else:
        scaled = rates * counts
        weights = np.outer(scaled, scaled)
        np.fill_diagonal(weights, scaled * rates * (counts - 1.0))
    return weights


class NumpyBatchedKernel:
    """Fused multinomial draw→apply kernel of the batched engine.

    One :meth:`advance` call executes a single batch (or its exact
    sequential fallback) against the caller's count vector, drawing from the
    caller's generator in the pre-seam call order — the stream-preservation
    contract of the numpy backend.

    Parameters mirror :meth:`repro.backend.ArrayBackend.batched_kernel`;
    ``state_rates=None`` selects the uniform scheduling policy.
    """

    def __init__(
        self,
        table: "CompiledTransitionTable",
        state_rates: np.ndarray | None,
        population_size: int,
        small_count_threshold: int,
    ) -> None:
        self.table = table
        self.state_rates = state_rates
        self.population_size = population_size
        self.small_count_threshold = small_count_threshold
        size = table.num_states
        #: States that gained an agent at any point (index space); the
        #: engine unions this into its ``states_seen`` bookkeeping.
        self.seen = np.zeros(size, dtype=bool)
        # Hoisted per-configuration invariants (see module docstring).
        self._weights = np.zeros((size, size), dtype=np.float64)
        self._scaled = np.zeros(size, dtype=np.float64)
        self._weight_counts: np.ndarray | None = None
        self._delta = np.zeros(size, dtype=np.int64)
        self._support_key: bytes | None = None
        self._involved: np.ndarray | None = None
        self._has_reactive_support = False
        self._splits = self._build_split_table()
        self._exact_table = self._build_exact_table()

    # -- hoisted invariant tables ---------------------------------------------

    def _build_split_table(self) -> list[list[tuple | None]]:
        """Per-pair outcome-splitting invariants.

        ``[i][j]`` is ``None`` for null pairs, else ``(pvals, outputs)``:
        ``pvals`` is the normalised multinomial argument over explicit
        outcomes plus the null bucket (``None`` when the single outcome is
        certain and no draw is needed), ``outputs`` the list of
        ``(receiver_out, sender_out)`` index pairs.  Normalising once here is
        bitwise-identical to the historical per-batch ``pvals / pvals.sum()``
        because the inputs and the operations are the same.
        """
        table = self.table
        size = table.num_states
        splits: list[list[tuple | None]] = []
        for i in range(size):
            row: list[tuple | None] = []
            for j in range(size):
                if table.is_null[i, j]:
                    row.append(None)
                    continue
                count = int(table.outcome_count[i, j])
                probabilities = table.outcome_probability[i, j, :count]
                null_mass = float(table.null_probability[i, j])
                if null_mass > 0.0 or count > 1:
                    pvals = np.append(probabilities, null_mass)
                    pvals = pvals / pvals.sum()
                else:
                    pvals = None
                outputs = [
                    (
                        int(table.outcome_receiver[i, j, k]),
                        int(table.outcome_sender[i, j, k]),
                    )
                    for k in range(count)
                ]
                row.append((pvals, outputs))
            splits.append(row)
        return splits

    def _build_exact_table(self) -> list[list[tuple | None]]:
        """Pure-Python view of the compiled tables for the exact fallback.

        ``[i][j]`` is ``None`` for null pairs, else ``(outcomes, randomized)``
        where ``outcomes`` is a list of ``(cumulative_probability,
        receiver_out, sender_out)`` and ``randomized`` says whether an
        outcome draw is needed at all.  Numpy scalar indexing per interaction
        is an order of magnitude slower than list access, which matters in
        the fallback regimes where every interaction goes through this path.
        """
        table = self.table
        size = table.num_states
        exact: list[list[tuple | None]] = []
        for i in range(size):
            row: list[tuple | None] = []
            for j in range(size):
                if table.is_null[i, j]:
                    row.append(None)
                    continue
                outcomes = []
                mass = 0.0
                for k in range(int(table.outcome_count[i, j])):
                    mass += float(table.outcome_probability[i, j, k])
                    outcomes.append(
                        (
                            mass,
                            int(table.outcome_receiver[i, j, k]),
                            int(table.outcome_sender[i, j, k]),
                        )
                    )
                randomized = len(outcomes) > 1 or table.null_probability[i, j] > 0.0
                row.append((outcomes, randomized))
            exact.append(row)
        return exact

    # -- per-batch computations -----------------------------------------------

    def _pair_pvals(self, counts: np.ndarray) -> np.ndarray:
        """Normalised pair probabilities, rebuilt incrementally.

        Only the rows and columns of states whose counts changed since the
        previous batch are recomputed; an unchanged entry keeps the value
        the full formula would produce, so the multinomial sees the same
        ``pvals`` as a from-scratch rebuild.
        """
        weights = self._weights
        rates = self.state_rates
        if self._weight_counts is None:
            weights[:] = pair_weight_matrix(counts, rates)
            self._scaled[:] = (
                counts.astype(np.float64)
                if rates is None
                else rates * counts.astype(np.float64)
            )
            self._weight_counts = counts.copy()
        else:
            changed = np.nonzero(counts != self._weight_counts)[0]
            if changed.size:
                scaled = self._scaled
                counts_f = counts[changed].astype(np.float64)
                if rates is None:
                    scaled[changed] = counts_f
                    diagonal = counts_f * (counts_f - 1.0)
                else:
                    scaled[changed] = rates[changed] * counts_f
                    diagonal = scaled[changed] * rates[changed] * (counts_f - 1.0)
                weights[changed, :] = scaled[changed, None] * scaled[None, :]
                weights[:, changed] = scaled[:, None] * scaled[None, changed]
                weights[changed, changed] = diagonal
                self._weight_counts[changed] = counts[changed]
        total = weights.sum()
        if total <= 0.0:
            raise SimulationError(
                "scheduler assigns zero total weight to the current configuration"
            )
        # Normalising by the actual float sum (exactly n(n-1) in exact
        # arithmetic for the uniform policy) keeps the vector a valid
        # multinomial pvals argument despite rounding.
        return weights / total

    def _reactive_counts_small(self, counts: np.ndarray) -> bool:
        """Whether every reactive state currently has a dangerously small count.

        A state is *reactive* here if it is present and participates in some
        non-null ordered pair with another *present* state.  The reactive and
        involved masks depend only on the support, so they are cached keyed
        on which states are present rather than recomputed per batch.
        """
        if self.small_count_threshold == 0:
            return False
        present = counts > 0
        key = present.tobytes()
        if key != self._support_key:
            reactive = ~self.table.is_null & present[:, None] & present[None, :]
            self._has_reactive_support = bool(reactive.any())
            self._involved = reactive.any(axis=1) | reactive.any(axis=0)
            self._support_key = key
        if not self._has_reactive_support:
            return False
        return bool(np.all(counts[self._involved] < self.small_count_threshold))

    # -- the fused advance ----------------------------------------------------

    def advance(
        self,
        counts: np.ndarray,
        max_interactions: int,
        batch_size: int,
        rng: np.random.Generator,
    ) -> tuple[int, int, int]:
        """Advance one batch; return ``(done, batched, fallback)`` increments.

        The reference kernel deliberately advances a *single* batch per call
        — the engine's Python loop over batches is part of the historical
        RNG-stream contract (each batch draws its multinomial separately).
        The native backend advances all ``max_interactions`` in one call.
        """
        batch = min(batch_size, max_interactions)
        if self._reactive_counts_small(counts):
            self._run_exact(counts, batch, rng)
            return batch, 0, 1
        pair_counts = rng.multinomial(
            batch, self._pair_pvals(counts).ravel()
        ).reshape(self.table.outcome_count.shape)
        reactive = np.where(self.table.is_null, 0, pair_counts)
        if not reactive.any():
            return batch, 1, 0
        consumed = reactive.sum(axis=1) + reactive.sum(axis=0)
        if np.any(consumed > counts):
            # The frozen-rate draw used more agents of some state than exist;
            # the batch cannot be applied consistently, so execute it exactly.
            self._run_exact(counts, batch, rng)
            return batch, 0, 1
        delta = self._delta
        delta[:] = 0
        seen = self.seen
        splits = self._splits
        rows, cols = np.nonzero(reactive)
        for i, j in zip(rows.tolist(), cols.tolist()):
            occurrences = int(reactive[i, j])
            pvals, outputs = splits[i][j]
            if pvals is not None:
                split = rng.multinomial(occurrences, pvals)[: len(outputs)]
            else:
                split = (occurrences,)
            for (receiver_out, sender_out), events in zip(outputs, split):
                events = int(events)
                if events == 0:
                    continue
                delta[i] -= events
                delta[j] -= events
                delta[receiver_out] += events
                delta[sender_out] += events
                seen[receiver_out] = True
                seen[sender_out] = True
        counts += delta
        return batch, 1, 0

    # -- exact sequential fallback --------------------------------------------

    def _run_exact(
        self, counts_array: np.ndarray, count: int, rng: np.random.Generator
    ) -> None:
        """Execute ``count`` interactions one at a time, exactly.

        Works on plain Python lists with thresholds pre-drawn in one block,
        so the exact path costs the same as the count engine's per-step loop
        rather than paying numpy scalar/RNG overhead every interaction.  The
        receiver is sampled by count weight, the sender among the remaining
        ``n - 1`` agents (the threshold shift is the same construction as
        :meth:`CountSimulator._sample_state_weighted`).  Under a
        state-weighted policy the same loop runs on rate-scaled float
        weights (:meth:`_run_exact_weighted`).
        """
        if self.state_rates is not None:
            self._run_exact_weighted(counts_array, count, rng)
            return
        n = self.population_size
        counts = counts_array.tolist()
        cumulative = []
        total = 0
        for value in counts:
            total += value
            cumulative.append(total)
        receiver_draws = rng.integers(0, n, size=count).tolist()
        sender_draws = rng.integers(0, n - 1, size=count).tolist()
        exact = self._exact_table
        seen = self.seen
        for threshold, co_threshold in zip(receiver_draws, sender_draws):
            receiver = bisect_right(cumulative, threshold)
            if co_threshold >= cumulative[receiver] - 1:
                co_threshold += 1
            sender = bisect_right(cumulative, co_threshold)
            entry = exact[receiver][sender]
            if entry is None:
                continue
            outcomes, randomized = entry
            if randomized:
                draw = rng.random()
                for mass, receiver_out, sender_out in outcomes:
                    if draw < mass:
                        break
                else:
                    continue  # residual mass = null transition
            else:
                _, receiver_out, sender_out = outcomes[0]
            counts[receiver] -= 1
            counts[sender] -= 1
            counts[receiver_out] += 1
            counts[sender_out] += 1
            seen[receiver_out] = True
            seen[sender_out] = True
            total = 0
            cumulative = []
            for value in counts:
                total += value
                cumulative.append(total)
        counts_array[:] = counts

    def _run_exact_weighted(
        self, counts_array: np.ndarray, count: int, rng: np.random.Generator
    ) -> None:
        """Exact per-interaction stepping under per-state activity rates.

        Samples the ordered pair of distinct agents ``(a, b)`` with
        probability proportional to ``r_a r_b`` — the *same* joint
        distribution the batch multinomial of :meth:`_pair_pvals` draws
        from, so the two paths stay interchangeable within one run.
        Implemented as two independent rate-weighted state draws with
        same-agent rejection: a same-state draw ``(i, i)`` is the same agent
        with probability ``1 / c_i`` and is then redrawn.
        """
        rates = self.state_rates.tolist()
        counts = counts_array.tolist()

        def _cumulative() -> tuple[list[float], float, int]:
            cumulative: list[float] = []
            total = 0.0
            positive_agents = 0
            for rate, value in zip(rates, counts):
                total += rate * value
                cumulative.append(total)
                if rate > 0:
                    positive_agents += value
            return cumulative, total, positive_agents

        def _draw_state() -> int:
            return min(
                bisect_right(cumulative, rng.random() * total),
                len(counts) - 1,
            )

        cumulative, total, positive_agents = _cumulative()
        exact = self._exact_table
        seen = self.seen
        for _ in range(count):
            if total <= 0.0 or positive_agents < 2:
                raise SimulationError(
                    "state-weighted scheduler: fewer than two agents have a "
                    "positive rate; no ordered pair can be selected"
                )
            while True:
                receiver = _draw_state()
                sender = _draw_state()
                if receiver != sender:
                    break
                if counts[receiver] >= 2 and (
                    rng.random() * counts[receiver] >= 1.0
                ):
                    break
            entry = exact[receiver][sender]
            if entry is None:
                continue
            outcomes, randomized = entry
            if randomized:
                draw = rng.random()
                for mass, receiver_out, sender_out in outcomes:
                    if draw < mass:
                        break
                else:
                    continue  # residual mass = null transition
            else:
                _, receiver_out, sender_out = outcomes[0]
            counts[receiver] -= 1
            counts[sender] -= 1
            counts[receiver_out] += 1
            counts[sender_out] += 1
            seen[receiver_out] = True
            seen[sender_out] = True
            cumulative, total, positive_agents = _cumulative()
        counts_array[:] = counts


from repro.backend import ArrayBackend, register_backend  # noqa: E402


@register_backend
class NumpyBackend(ArrayBackend):
    """The reference backend: always available, bitwise stream-preserving."""

    name = "numpy"

    def describe(self) -> str:
        return "reference kernels on the engine RNG stream (always available)"
