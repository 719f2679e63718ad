"""Native C backend: the batched, vector and multiscale hot loops compiled
with cffi + cc.

This backend needs only what most dev boxes and CI images already carry:
``cffi`` and a C compiler.  Its one C module holds the batched engine's
advance (:class:`NativeBatchedKernel`: the pair multinomial, consumption
guard, outcome splits and exact fallbacks of
:class:`~repro.backend.numpy_backend.NumpyBatchedKernel`, every batch of a
``run_interactions`` call in one C call, so a batch costs O(S^2) binomial
draws and no Python dispatch), the vector-engine kernels: the matching
draw (:meth:`NativeBackend.draw_matching_arrays`), the
``Log-Size-Estimation`` round (:class:`NativeLogSizeRound`), and a run loop
that repeats the two under the uniform matching scheduler
(:meth:`NativeLogSizeRound.run`), so a Figure 2 run to all-done makes one
C call per 64 rounds instead of two per round; and the multiscale engine's
regime loop (:class:`NativeMultiscaleLoop`: exact bursts, Cao tau-leaps,
the Dormand–Prince stretch and the hand-back, one C call per advance).

The extension module is compiled on first use and cached on disk keyed by a
hash of the C source, the compiler flags and ``numpy.__version__``
(``REPRO_NATIVE_CACHE`` overrides the cache directory; the default is
``repro-native-cache`` under the system temporary directory).  Compilation
failures, a missing compiler or a missing cffi simply mark the backend
unavailable — :func:`repro.backend.resolve_backend` then warns and falls
back to numpy, so nothing ever hard-fails.

RNG-stream contract: every kernel draws on the engine generator's own
``bitgen_t`` through numpy's distribution functions
(``random_multinomial``, ``random_bounded_uint64_fill``,
``random_interval``, ``random_standard_uniform``, ``random_geometric``,
``random_exponential``, ``random_binomial``, ``random_poisson``, from the
``libnpyrandom`` static library numpy ships, linked in: hence the numpy
version in the cache name), in the numpy reference's order and on its
float64 arithmetic (``-ffp-contract=off`` keeps products and sums unfused),
so batched, vector and multiscale runs on ``native`` are the numpy runs bit
for bit.  Some of what they repeat is numpy-internal, not exported API: the
pairwise summation order of ``ndarray.sum`` (the pair weights, the
multiscale rate totals), ``Generator.permutation``'s shuffle loop, which the
matching repeats, and ``maximum``/``minimum``'s NaN and signed-zero rules;
``tests/backend`` pins them.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import sys
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from repro.backend import ArrayBackend, register_backend
from repro.backend.numpy_backend import outcome_split_pvals
from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.array_simulator import LogSizeVectorProtocol
    from repro.crn.multiscale import MultiscaleSimulator
    from repro.protocols.compiled import CompiledTransitionTable

__all__ = [
    "ENV_NATIVE_CACHE", "NativeBackend", "NativeBatchedKernel", "NativeLogSizeRound",
    "NativeMultiscaleLoop",
]

#: Environment variable overriding where compiled kernels are cached.
ENV_NATIVE_CACHE = "REPRO_NATIVE_CACHE"

#: State of one Log-Size-Estimation round kernel: the nine field arrays, the
#: constants, the counts the kernel keeps, and the generator's ``bitgen_t``.
_LOG_SIZE_STRUCT = """
typedef struct {
    int8_t *role;
    int64_t *time, *total, *epoch, *gr, *log_size2;
    uint8_t *done, *updated;
    double *output;
    int64_t n, unassigned, done_count, log_size2_offset;
    double clock_threshold_factor, epochs_factor, output_offset, p;
    void *bitgen;
} repro_log_size;
"""

#: One batched kernel: the compiled transition tables, the normalised
#: outcome-split ``pvals``, the rates (``NULL`` for the uniform policy), the
#: ``seen`` marks and the generator's ``bitgen_t``.
_BATCHED_STRUCT = """
typedef struct {
    int64_t size, kmax, population, small_threshold;
    const int64_t *outcome_count, *receiver_out, *sender_out;
    const double *probability, *null_probability, *split_pvals, *rates;
    uint8_t *seen;
    void *bitgen;
    /* Work space, allocated per call: the S^2 pair weights and pair counts,
     * per-state masses (scaled counts, then cumulative rates) and tallies
     * (consumed agents, then the counts an exact batch started from), one
     * outcome split, and the exact fallback's 2 * batch integer draws. */
    double *weights, *masses;
    int64_t *pair_counts, *tally, *split;
    uint64_t *draws;
} repro_batched;
"""

#: One multiscale engine: its reaction system, regime thresholds and
#: Dormand–Prince tableau, the engine's counts, ``seen`` marks and critical
#: flags (written in place), its clock, counters and regime flags (read and
#: written back around a call), and the generator's ``bitgen_t``.
_MULTISCALE_STRUCT = """
typedef struct {
    int64_t species, channels, population, exact_burst, max_leap_retries;
    const int64_t *reactant_a, *reactant_b, *stoich;
    const uint8_t *is_diagonal, *is_reactant, *needs_two;
    const double *rate_coeff, *stoich_f, *stoich_f2, *consumption;
    const double *dp_a, *dp_b5, *dp_b4;
    double leap_eps, critical_threshold, ode_threshold, hysteresis, exact_multiple;
    double *counts;
    uint8_t *seen, *critical;
    double parallel_time;
    int64_t exact_events, leaps, ode_steps, switches;
    int initialised, in_ode, ode_fractional;
    void *bitgen;
    /* Work space, allocated per call: per-channel rates, running sums,
     * leap means and headrooms; per-species sums and ODE vectors, the seven
     * Dormand-Prince stages; leap draws and a sort order; channel masks. */
    double *lam, *cumulative, *means, *heads, *sums, *next, *y, *y5, *y4, *stages;
    int64_t *draws, *order;
    uint8_t *active, *noncritical, *critical_active, *kind, *relevant;
} repro_multiscale;
"""

_CDEF = _LOG_SIZE_STRUCT + _BATCHED_STRUCT + _MULTISCALE_STRUCT + """
double repro_pairwise_sum(const double *a, int64_t n);
int repro_batched_advance(
    repro_batched *k, int64_t *counts, int64_t interactions,
    int64_t batch_size, int64_t *progress);
void repro_draw_matching(
    const int64_t *members, int64_t m, int64_t *order, void *bitgen);
int repro_log_size_round(
    repro_log_size *s, const int64_t *rec, const int64_t *sen, int64_t pairs);
int64_t repro_log_size_run(
    repro_log_size *s, int64_t *order, int64_t max_rounds, int stop_when_done,
    int64_t *tallies);
int repro_multiscale_advance(repro_multiscale *m, double target);
"""

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>
#include "numpy/random/distributions.h"
""" + _LOG_SIZE_STRUCT + _BATCHED_STRUCT + _MULTISCALE_STRUCT + r"""

/* ---- Batched engine: NumpyBatchedKernel.advance in C.  It draws on the
 * engine generator's bitgen_t through numpy's random_multinomial,
 * random_bounded_uint64_fill and random_standard_uniform, in the reference's
 * order and on the same float64 arithmetic, so its runs are the numpy runs
 * bit for bit. */

/* numpy's pairwise float64 sum, which ndarray.sum runs on a contiguous
 * array: sequential below 8 terms, 8 accumulators up to 128, halved above. */
double repro_pairwise_sum(const double *a, int64_t n) {
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (i = 0; i < 8; i++) r[i] = a[i];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++) r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return repro_pairwise_sum(a, half) + repro_pairwise_sum(a + half, n - half);
}

/* Whether a reactive pair of present states exists and every state in one
 * has fewer than small_threshold agents (_reactive_counts_small). */
static int counts_small(const repro_batched *k, const int64_t *counts) {
    int any_reactive = 0;
    for (int64_t i = 0; i < k->size; i++) {
        if (counts[i] <= 0) continue;
        for (int64_t j = 0; j < k->size; j++) {
            if (counts[j] <= 0 || k->outcome_count[i * k->size + j] == 0) continue;
            any_reactive = 1;
            if (counts[i] >= k->small_threshold || counts[j] >= k->small_threshold)
                return 0;
        }
    }
    return any_reactive;
}

/* One exact interaction of the ordered pair (receiver, sender), drawing its
 * outcome as _run_exact does.  Returns whether an outcome fired. */
static int interact(repro_batched *k, int64_t *counts, int64_t receiver,
                    int64_t sender) {
    int64_t pair = receiver * k->size + sender;
    int64_t outcomes = k->outcome_count[pair], chosen = 0;
    if (outcomes == 0) return 0;
    const double *probability = k->probability + pair * k->kmax;
    if (outcomes > 1 || k->null_probability[pair] > 0.0) {
        double u = random_standard_uniform(k->bitgen), mass = 0.0;
        for (; chosen < outcomes; chosen++) {
            mass += probability[chosen];
            if (u < mass) break;
        }
        if (chosen == outcomes) return 0;  /* residual mass = null transition */
    }
    int64_t r_out = k->receiver_out[pair * k->kmax + chosen];
    int64_t s_out = k->sender_out[pair * k->kmax + chosen];
    counts[receiver]--;
    counts[sender]--;
    counts[r_out]++;
    counts[s_out]++;
    k->seen[r_out] = k->seen[s_out] = 1;
    return 1;
}

/* _run_exact: all receivers drawn with integers(0, n), then all senders
 * with integers(0, n - 1), then one uniform per randomized interaction. */
static void exact_uniform(repro_batched *k, int64_t *counts, int64_t batch) {
    uint64_t *receivers = k->draws, *senders = k->draws + batch;
    uint64_t n = (uint64_t)k->population;
    random_bounded_uint64_fill(k->bitgen, 0, n - 1, batch, false, receivers);
    random_bounded_uint64_fill(k->bitgen, 0, n - 2, batch, false, senders);
    for (int64_t step = 0; step < batch; step++) {
        int64_t threshold = (int64_t)receivers[step];
        int64_t co_threshold = (int64_t)senders[step];
        int64_t receiver = 0, sender = 0, cumulative = counts[0];
        while (threshold >= cumulative) cumulative += counts[++receiver];
        if (co_threshold >= cumulative - 1) co_threshold++;
        cumulative = counts[0];
        while (co_threshold >= cumulative) cumulative += counts[++sender];
        interact(k, counts, receiver, sender);
    }
}

/* The rate-weighted cumulative masses, summed in state order; returns the
 * total and counts the agents whose rate is positive. */
static double weighted_masses(repro_batched *k, const int64_t *counts,
                              int64_t *positive_agents) {
    double total = 0.0;
    *positive_agents = 0;
    for (int64_t i = 0; i < k->size; i++) {
        total += k->rates[i] * (double)counts[i];
        k->masses[i] = total;
        if (k->rates[i] > 0.0) *positive_agents += counts[i];
    }
    return total;
}

/* bisect_right over the cumulative masses, clamped to the last state. */
static int64_t draw_state(repro_batched *k, double total) {
    double u = random_standard_uniform(k->bitgen) * total;
    int64_t i = 0;
    while (i < k->size - 1 && !(u < k->masses[i])) i++;
    return i;
}

/* _run_exact_weighted: two rate-weighted state draws with same-agent
 * rejection per interaction.  Returns 2, with the counts as the batch
 * found them, when fewer than two agents have a positive rate. */
static int exact_weighted(repro_batched *k, int64_t *counts, int64_t batch) {
    int64_t positive_agents;
    double total = weighted_masses(k, counts, &positive_agents);
    int64_t *start = k->tally;
    for (int64_t i = 0; i < k->size; i++) start[i] = counts[i];
    for (int64_t step = 0; step < batch; step++) {
        if (total <= 0.0 || positive_agents < 2) {
            for (int64_t i = 0; i < k->size; i++) counts[i] = start[i];
            return 2;
        }
        int64_t receiver, sender;
        for (;;) {
            receiver = draw_state(k, total);
            sender = draw_state(k, total);
            if (receiver != sender) break;
            if (counts[receiver] >= 2 &&
                random_standard_uniform(k->bitgen) * (double)counts[receiver] >= 1.0)
                break;
        }
        if (interact(k, counts, receiver, sender))
            total = weighted_masses(k, counts, &positive_agents);
    }
    return 0;
}

/* The batch's pair multinomial over the frozen pair weights (_pair_pvals):
 * 0, or 1 for zero total weight, or 3 for pvals numpy's multinomial
 * rejects. */
static int draw_pairs(repro_batched *k, const int64_t *counts, int64_t batch,
                      binomial_t *binomial) {
    int64_t size = k->size, pairs = size * size;
    double *weights = k->weights, *scaled = k->masses;
    for (int64_t i = 0; i < size; i++) {
        double count = (double)counts[i];
        scaled[i] = k->rates ? k->rates[i] * count : count;
    }
    for (int64_t i = 0; i < size; i++) {
        double count = (double)counts[i];
        for (int64_t j = 0; j < size; j++)
            weights[i * size + j] = scaled[i] * scaled[j];
        weights[i * size + i] = k->rates
            ? scaled[i] * k->rates[i] * (count - 1.0) : count * (count - 1.0);
    }
    double total = repro_pairwise_sum(weights, pairs);
    if (total <= 0.0) return 1;
    int valid = 1;
    for (int64_t p = 0; p < pairs; p++) {
        weights[p] /= total;
        valid &= weights[p] >= 0.0 && weights[p] <= 1.0;
        k->pair_counts[p] = 0;
    }
    if (!valid) return 3;
    random_multinomial(k->bitgen, batch, k->pair_counts, weights, pairs, binomial);
    return 0;
}

/* Split each reactive pair's interactions among its outcomes, row by row,
 * and apply them. */
static void apply_pairs(repro_batched *k, int64_t *counts, binomial_t *binomial) {
    int64_t size = k->size, width = k->kmax + 1;
    for (int64_t pair = 0; pair < size * size; pair++) {
        int64_t occurrences = k->pair_counts[pair];
        int64_t outcomes = k->outcome_count[pair];
        if (occurrences == 0 || outcomes == 0) continue;
        int64_t *split = k->split;
        if (outcomes > 1 || k->null_probability[pair] > 0.0) {
            for (int64_t q = 0; q <= outcomes; q++) split[q] = 0;
            random_multinomial(k->bitgen, occurrences, split,
                               (double *)k->split_pvals + pair * width,
                               outcomes + 1, binomial);
        } else {
            split[0] = occurrences;
        }
        for (int64_t q = 0; q < outcomes; q++) {
            int64_t events = split[q];
            if (events == 0) continue;
            int64_t r_out = k->receiver_out[pair * k->kmax + q];
            int64_t s_out = k->sender_out[pair * k->kmax + q];
            counts[pair / size] -= events;
            counts[pair % size] -= events;
            counts[r_out] += events;
            counts[s_out] += events;
            k->seen[r_out] = k->seen[s_out] = 1;
        }
    }
}

/* Run `interactions` interactions in batches of `batch_size`, adding the
 * interactions, batched batches and fallback batches it completes to
 * progress[0..2].  Returns 0; or the code of the batch that failed (1, 2
 * and 3 as above), which leaves the counts as that batch found them; or 4
 * when its work space cannot be allocated. */
int repro_batched_advance(repro_batched *k, int64_t *counts,
                          int64_t interactions, int64_t batch_size,
                          int64_t *progress) {
    int64_t size = k->size, pairs = size * size;
    int64_t batch = interactions < batch_size ? interactions : batch_size;
    void *work = malloc(sizeof(double) * (size_t)(pairs + size)
        + sizeof(int64_t) * (size_t)(pairs + size + k->kmax + 1)
        + sizeof(uint64_t) * (size_t)(2 * batch));
    if (!work) return 4;
    k->weights = (double *)work;
    k->masses = k->weights + pairs;
    k->pair_counts = (int64_t *)(k->masses + size);
    k->tally = k->pair_counts + pairs;
    k->split = k->tally + size;
    k->draws = (uint64_t *)(k->split + k->kmax + 1);
    binomial_t binomial = {0};
    int code = 0;
    for (int64_t done = 0; done < interactions; done += batch) {
        if (batch > interactions - done) batch = interactions - done;
        int fallback = k->small_threshold > 0 && counts_small(k, counts);
        if (!fallback) {
            code = draw_pairs(k, counts, batch, &binomial);
            if (code) break;
            /* The consumption guard, over reactive pairs only. */
            int64_t *consumed = k->tally;
            for (int64_t i = 0; i < size; i++) consumed[i] = 0;
            for (int64_t pair = 0; pair < pairs; pair++) {
                if (k->outcome_count[pair] == 0) continue;
                consumed[pair / size] += k->pair_counts[pair];
                consumed[pair % size] += k->pair_counts[pair];
            }
            for (int64_t i = 0; i < size; i++) fallback |= consumed[i] > counts[i];
            if (!fallback) apply_pairs(k, counts, &binomial);
        }
        if (fallback && k->rates) {
            code = exact_weighted(k, counts, batch);
            if (code) break;
        } else if (fallback) {
            exact_uniform(k, counts, batch);
        }
        progress[0] += batch;
        progress[1 + fallback] += 1;
    }
    free(work);
    return code;
}

/* ---- Vector engine: both kernels draw on the engine generator's bitgen_t
 * through numpy's own distribution functions, in the numpy reference's
 * order, so their runs are the numpy runs bit for bit. */

/* repro.engine.scheduler.draw_matching_arrays: Generator.permutation's
 * Fisher-Yates from the top over `members` (NULL: 0..m-1), then one uniform
 * per pair; u >= 0.5 swaps receiver order[k] and sender order[half + k].
 * The swap goes through a mask, not a branch: the coin would mispredict
 * half the time. */
void repro_draw_matching(
    const int64_t *members, int64_t m, int64_t *order, void *bitgen)
{
    bitgen_t *state = (bitgen_t *)bitgen;
    int64_t half = m / 2, swap;
    for (int64_t i = 0; i < m; i++) order[i] = members ? members[i] : i;
    for (int64_t i = m - 1; i > 0; i--) {
        int64_t j = (int64_t)random_interval(state, (uint64_t)i);
        swap = order[i]; order[i] = order[j]; order[j] = swap;
    }
    for (int64_t k = 0; k < half; k++) {
        int64_t mask = -(int64_t)!(random_standard_uniform(state) < 0.5);
        swap = (order[k] ^ order[half + k]) & mask;
        order[k] ^= swap;
        order[half + k] ^= swap;
    }
}

/* One round of repro.core.array_simulator.LogSizeVectorProtocol, a pass per
 * numpy sub-step in its order.  Matched pairs are disjoint, so a pass
 * touches each pair's own two agents only; drawing passes visit receivers,
 * then senders, in pair order, as the numpy fancy-index draws do.  Role
 * tests are branch-free; only rare events (draws, deposits) branch. */
enum { UNASSIGNED = 0, WORKER = 1, STORAGE = 2 };

static inline int64_t geometric(repro_log_size *s) {
    return random_geometric((bitgen_t *)s->bitgen, s->p);
}

static inline void mark_done(repro_log_size *s, int64_t a) {
    if (!s->done[a]) { s->done[a] = 1; s->done_count++; }
}

static inline int epochs_finished(const repro_log_size *s, int64_t a) {
    return (double)s->epoch[a] >= s->epochs_factor * (double)s->log_size2[a];
}

static inline int timer_done(const repro_log_size *s, int64_t a) {
    return (double)s->time[a]
        >= s->clock_threshold_factor * (double)s->log_size2[a];
}

static void assign(repro_log_size *s, int64_t a, int role) {
    s->role[a] = role;
    if (role == WORKER) s->log_size2[a] = geometric(s) + s->log_size2_offset;
    s->unassigned--;
}

/* Move-to-Next-G.R.V, then the done test of a worker that advanced. */
static void next_epoch(repro_log_size *s, int64_t a, int64_t epoch) {
    s->epoch[a] = epoch;
    s->time[a] = 0;
    s->gr[a] = geometric(s);
    s->updated[a] = 0;
    if (epochs_finished(s, a)) mark_done(s, a);
}

/* Phase-clock tick plus Check-if-Timer-Done-and-Increment-Epoch. */
static inline void tick(repro_log_size *s, int64_t a) {
    int worker = s->role[a] == WORKER;
    s->time[a] += worker;
    if (worker & !s->done[a] & s->updated[a] & timer_done(s, a))
        next_epoch(s, a, s->epoch[a] + 1);
}

/* logSize2 max-propagation with Restart. */
static inline void adopt_log_size2(repro_log_size *s, int64_t a, int64_t from) {
    if (s->log_size2[a] >= s->log_size2[from]) return;
    s->log_size2[a] = s->log_size2[from];
    s->time[a] = s->total[a] = s->epoch[a] = 0;
    s->gr[a] = geometric(s);
    if (s->done[a]) { s->done[a] = 0; s->done_count--; }
    s->updated[a] = 0;
    s->output[a] = NAN;
}

static inline void worker_catch_up(repro_log_size *s, int64_t a, int64_t from) {
    if ((s->role[a] == WORKER) & (s->role[from] == WORKER)
        & (s->epoch[a] < s->epoch[from]))
        next_epoch(s, a, s->epoch[from]);
}

/* Mark a storage agent done and (re)compute its announced estimate. */
static void finish_storage(repro_log_size *s, int64_t a) {
    if (s->epoch[a] <= 0) return;
    if (epochs_finished(s, a)) mark_done(s, a);
    if (s->done[a])
        s->output[a] = (double)s->total[a] / (double)s->epoch[a]
            + s->output_offset;
}

static void storage_catch_up(repro_log_size *s, int64_t r, int64_t q) {
    int64_t ahead = s->epoch[r] >= s->epoch[q] ? r : q, total = s->total[ahead];
    if (s->epoch[r] == s->epoch[q] && s->total[r] > total) total = s->total[r];
    if (s->epoch[r] == s->epoch[q] && s->total[q] > total) total = s->total[q];
    s->epoch[r] = s->epoch[q] = s->epoch[ahead];
    s->total[r] = s->total[q] = total;
    finish_storage(s, r);
    finish_storage(s, q);
}

static void update_sum(repro_log_size *s, int64_t worker, int64_t storage) {
    if (s->done[worker]) return;
    if ((s->epoch[worker] == s->epoch[storage]) & timer_done(s, worker)) {
        s->epoch[storage]++;
        s->total[storage] += s->gr[worker];
        s->updated[worker] = 1;
        finish_storage(s, storage);
    } else if (s->epoch[worker] < s->epoch[storage]) {
        s->updated[worker] = 1;
    }
}

static inline void propagate_output(repro_log_size *s, int64_t r, int64_t q) {
    double out_r = s->output[r], out_s = s->output[q];
    int keep_r = (s->role[r] == STORAGE) & s->done[r];
    int keep_s = (s->role[q] == STORAGE) & s->done[q];
    double new_r = (keep_s & !isnan(out_s) & !keep_r) ? out_s : out_r;
    double new_s = (keep_r & !isnan(out_r) & !keep_s) ? out_r : out_s;
    /* Second-hand propagation: fill empty outputs from any non-empty one. */
    s->output[r] = (!!isnan(new_r) & !isnan(out_s)) ? out_s : new_r;
    s->output[q] = (!!isnan(new_s) & !isnan(out_r)) ? out_r : new_s;
}

static void log_size_round(
    repro_log_size *s, const int64_t *rec, const int64_t *sen, int64_t pairs)
{
    const int8_t *role = s->role;
    if (s->unassigned > 0) {
        for (int64_t k = 0; k < pairs; k++)
            if (role[rec[k]] == UNASSIGNED && role[sen[k]] == UNASSIGNED) {
                assign(s, sen[k], WORKER);
                assign(s, rec[k], STORAGE);
            }
        for (int64_t k = 0; k < pairs; k++)
            if (role[rec[k]] == UNASSIGNED && role[sen[k]] != UNASSIGNED)
                assign(s, rec[k], role[sen[k]] == WORKER ? STORAGE : WORKER);
        for (int64_t k = 0; k < pairs; k++)
            if (role[sen[k]] == UNASSIGNED && role[rec[k]] != UNASSIGNED)
                assign(s, sen[k], role[rec[k]] == WORKER ? STORAGE : WORKER);
    }
    for (int64_t k = 0; k < pairs; k++) tick(s, rec[k]);
    for (int64_t k = 0; k < pairs; k++) tick(s, sen[k]);
    for (int64_t k = 0; k < pairs; k++) adopt_log_size2(s, rec[k], sen[k]);
    for (int64_t k = 0; k < pairs; k++) adopt_log_size2(s, sen[k], rec[k]);
    for (int64_t k = 0; k < pairs; k++) worker_catch_up(s, rec[k], sen[k]);
    for (int64_t k = 0; k < pairs; k++) worker_catch_up(s, sen[k], rec[k]);
    /* Storage catch-up, Update-Sum and gr draw nothing and each applies to
     * one kind of pair, so one pass does all three. */
    for (int64_t k = 0; k < pairs; k++) {
        int64_t r = rec[k], q = sen[k];
        int kinds = role[r] << 2 | role[q];
        if (kinds == (STORAGE << 2 | STORAGE)) storage_catch_up(s, r, q);
        else if (kinds == (WORKER << 2 | STORAGE)) update_sum(s, r, q);
        else if (kinds == (STORAGE << 2 | WORKER)) update_sum(s, q, r);
        else if (kinds == (WORKER << 2 | WORKER)) {
            int64_t gr = s->gr[r] > s->gr[q] ? s->gr[r] : s->gr[q];
            int same_epoch = s->epoch[r] == s->epoch[q];
            s->gr[r] = same_epoch ? gr : s->gr[r];
            s->gr[q] = same_epoch ? gr : s->gr[q];
        }
    }
    if (s->done_count > 0)
        for (int64_t k = 0; k < pairs; k++) propagate_output(s, rec[k], sen[k]);
}

/* Returns 1, before touching any field, if an index is outside [0, n). */
int repro_log_size_round(
    repro_log_size *s, const int64_t *rec, const int64_t *sen, int64_t pairs)
{
    uint64_t outside = 0, n = (uint64_t)s->n;
    for (int64_t k = 0; k < pairs; k++)
        outside |= ((uint64_t)rec[k] >= n) | ((uint64_t)sen[k] >= n);
    if (outside) return 1;
    log_size_round(s, rec, sen, pairs);
    return 0;
}

/* time.perf_counter_ns's clock (0 where the platform lacks it). */
static inline int64_t now_ns(void) {
#ifdef CLOCK_MONOTONIC
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
#else
    return 0;
#endif
}

/* VectorSimulator's rounds under the uniform matching scheduler, back to
 * back: draw the matching of all n agents into `order` (n entries), apply
 * the round to its pairs, and stop after `max_rounds` rounds or, with
 * `stop_when_done`, after the first round that leaves every agent done.
 * With `tallies`, adds the nanoseconds spent drawing and applying to
 * tallies[0] and tallies[1].  Returns the rounds run. */
int64_t repro_log_size_run(
    repro_log_size *s, int64_t *order, int64_t max_rounds, int stop_when_done,
    int64_t *tallies)
{
    int64_t half = s->n / 2, rounds = 0;
    while (rounds < max_rounds) {
        int64_t t0 = tallies ? now_ns() : 0;
        repro_draw_matching(NULL, s->n, order, s->bitgen);
        int64_t t1 = tallies ? now_ns() : 0;
        log_size_round(s, order, order + half, half);
        if (tallies) {
            tallies[0] += t1 - t0;
            tallies[1] += now_ns() - t1;
        }
        rounds++;
        if (stop_when_done && s->done_count == s->n) break;
    }
    return rounds;
}

/* ---- Multiscale engine: MultiscaleSimulator._run_regimes in C.  It draws
 * on the engine generator's bitgen_t through numpy's random_exponential,
 * random_standard_uniform, random_binomial and random_poisson, in the
 * reference's order, and repeats its float64 operations one for one, so its
 * runs are the numpy runs bit for bit.  Each helper names the reference
 * method it repeats. */

/* np.maximum and np.minimum: a NaN wins, and of two equal values (0.0 and
 * -0.0) the second. */
static inline double np_max(double a, double b) {
    return isnan(a) ? a : isnan(b) ? b : a > b ? a : b;
}
static inline double np_min(double a, double b) {
    return isnan(a) ? a : isnan(b) ? b : a < b ? a : b;
}

/* Python's min and max of two floats: the first unless the second is
 * strictly smaller (larger). */
static inline double py_min(double a, double b) { return b < a ? b : a; }
static inline double py_max(double a, double b) { return b > a ? b : a; }

/* ndarray.sum: the identity 0.0 plus the pairwise sum. */
static inline double np_sum(const double *a, int64_t n) {
    return 0.0 + repro_pairwise_sum(a, n);
}

/* ReactionSystem.propensities. */
static void propensities(const repro_multiscale *m, const double *counts,
                         double *lam) {
    for (int64_t e = 0; e < m->channels; e++) {
        double ca = counts[m->reactant_a[e]];
        double cb = m->is_diagonal[e] ? ca - 1.0 : counts[m->reactant_b[e]];
        lam[e] = m->rate_coeff[e] * np_max(ca, 0.0) * np_max(cb, 0.0);
    }
}

/* ReactionSystem.min_reactant of channel e. */
static inline double min_reactant(const repro_multiscale *m,
                                  const double *counts, int64_t e) {
    return np_min(counts[m->reactant_a[e]], counts[m->reactant_b[e]]);
}

/* ReactionSystem.channel_sum: each row of `matrix` times `rates`, summed in
 * channel order as np.add.accumulate does. */
static void channel_sum(const repro_multiscale *m, const double *matrix,
                        const double *rates, double *out) {
    int64_t channels = m->channels;
    for (int64_t i = 0; i < m->species; i++) {
        const double *row = matrix + i * channels;
        double sum = channels ? row[0] * rates[0] : 0.0;
        for (int64_t e = 1; e < channels; e++) sum += row[e] * rates[e];
        out[i] = sum;
    }
}

/* ReactionSystem.derivative, with m->cumulative as its rate buffer. */
static void derivative(repro_multiscale *m, const double *counts, double *out) {
    propensities(m, counts, m->cumulative);
    channel_sum(m, m->stoich_f, m->cumulative, out);
}

/* np.cumsum of lam over the masked channels (all with mask NULL). */
static void cumulate(repro_multiscale *m, const uint8_t *mask) {
    double sum = 0.0;
    for (int64_t e = 0; e < m->channels; e++) {
        double rate = !mask || mask[e] ? m->lam[e] : 0.0;
        sum = e ? sum + rate : rate;
        m->cumulative[e] = sum;
    }
}

/* np.searchsorted(m->cumulative, value, side="right"), clamped to the last
 * channel: the channel an exact event fires. */
static int64_t pick_channel(const repro_multiscale *m, double value) {
    int64_t e = 0;
    while (e < m->channels && !(value < m->cumulative[e])) e++;
    return e < m->channels - 1 ? e : m->channels - 1;
}

static void fire(repro_multiscale *m, double *counts, int64_t channel) {
    for (int64_t i = 0; i < m->species; i++)
        counts[i] = counts[i] + (double)m->stoich[i * m->channels + channel];
}

static int non_negative(const repro_multiscale *m, const double *counts) {
    int ok = 1;
    for (int64_t i = 0; i < m->species; i++) ok &= counts[i] >= 0.0;
    return ok;
}

/* MultiscaleSimulator._note_seen. */
static void note_seen(repro_multiscale *m) {
    for (int64_t i = 0; i < m->species; i++) m->seen[i] |= m->counts[i] > 0.0;
}

/* The rates at the counts, and which channels can fire; returns whether
 * any can. */
static int active_propensities(repro_multiscale *m) {
    int any = 0;
    propensities(m, m->counts, m->lam);
    for (int64_t e = 0; e < m->channels; e++) {
        m->active[e] = m->lam[e] > 0.0;
        any |= m->active[e];
    }
    return any;
}

/* RegimeController.classify; returns whether the system is in the ODE
 * regime. */
static int classify(repro_multiscale *m) {
    double recover = m->critical_threshold * m->hysteresis, floor = INFINITY;
    int critical_active = 0;
    for (int64_t e = 0; e < m->channels; e++) {
        double low = min_reactant(m, m->counts, e);
        if (low < m->critical_threshold) m->critical[e] = 1;
        else if (!m->initialised || low >= recover) m->critical[e] = 0;
        if (m->active[e]) {
            floor = np_min(floor, low);
            critical_active |= m->critical[e];
        }
    }
    m->initialised = 1;
    if (m->in_ode ? floor < m->ode_threshold / m->hysteresis
                  : floor >= m->ode_threshold && !critical_active) {
        m->in_ode = !m->in_ode;
        m->switches++;
    }
    return m->in_ode;
}

/* The module's integer_counts, in place on m->counts: largest-remainder
 * rounding with numpy's stable argsort (an insertion sort, NaN last). */
static inline int np_less(double a, double b) {
    return a < b || (b != b && a == a);
}

static void integer_counts(repro_multiscale *m) {
    int64_t species = m->species, *order = m->order;
    double *clipped = m->y, *floors = m->y5, *keys = m->y4;
    for (int64_t i = 0; i < species; i++) {
        clipped[i] = np_max(m->counts[i], 0.0);
        floors[i] = floor(clipped[i]);
    }
    int64_t deficit = m->population - (int64_t)np_sum(floors, species);
    for (int64_t i = 0; i < species; i++) {
        keys[i] = deficit > 0 ? -(clipped[i] - floors[i]) : clipped[i] - floors[i];
        int64_t j = i;
        for (; j > 0 && np_less(keys[i], keys[order[j - 1]]); j--)
            order[j] = order[j - 1];
        order[j] = i;
    }
    for (int64_t k = 0, taken = 0; k < species && deficit; k++) {
        int64_t i = order[k];
        if (deficit > 0) {
            if (k == deficit) break;
            floors[i] += 1.0;
        } else {
            if (taken == -deficit) break;
            if (floors[i] > 0) { floors[i] -= 1.0; taken++; }
        }
    }
    for (int64_t i = 0; i < species; i++) m->counts[i] = floors[i];
}

/* MultiscaleSimulator._cao_tau over the `mask` channels. */
static double cao_tau(repro_multiscale *m, const uint8_t *mask,
                      double remaining) {
    int64_t species = m->species;
    double *masked = m->cumulative, *mu = m->sums, *sigma2 = m->sums + species;
    for (int64_t i = 0; i < species; i++) m->relevant[i] = 0;
    for (int64_t e = 0; e < m->channels; e++) {
        masked[e] = mask[e] ? m->lam[e] : 0.0;
        if (mask[e]) m->relevant[m->reactant_a[e]] = m->relevant[m->reactant_b[e]] = 1;
    }
    channel_sum(m, m->stoich_f, masked, mu);
    channel_sum(m, m->stoich_f2, masked, sigma2);
    double tau = INFINITY;
    int any = 0;
    for (int64_t i = 0; i < species; i++) {
        if (!m->relevant[i]) continue;
        double count = m->counts[i], g = m->is_reactant[i] ? 2.0 : 1.0;
        if (m->needs_two[i] && count > 1.0)
            g = g + 1.0 / np_max(count - 1.0, 1.0);
        double bound = np_max(m->leap_eps * count / g, 1.0);
        double by_mean = mu[i] != 0.0 ? bound / fabs(mu[i]) : INFINITY;
        double by_var = sigma2[i] > 0.0 ? bound * bound / sigma2[i] : INFINITY;
        double candidate = np_min(by_mean, by_var);
        tau = any ? np_min(tau, candidate) : candidate;
        any = 1;
    }
    return py_min(tau, remaining);
}

/* MultiscaleSimulator._exact_burst. */
static void exact_burst(repro_multiscale *m, double target) {
    bitgen_t *bitgen = (bitgen_t *)m->bitgen;
    for (int64_t burst = 0; burst < m->exact_burst; burst++) {
        propensities(m, m->counts, m->lam);
        double total = np_sum(m->lam, m->channels);
        if (total <= 0.0) { m->parallel_time = target; return; }
        double wait = random_exponential(bitgen, 1.0 / total);
        if (m->parallel_time + wait >= target) {
            m->parallel_time = target;
            return;
        }
        m->parallel_time += wait;
        cumulate(m, NULL);
        fire(m, m->counts,
             pick_channel(m, random_standard_uniform(bitgen) * total));
        m->exact_events++;
        note_seen(m);
    }
}

/* Generator.poisson's largest mean. */
#define POISSON_LAM_MAX (9223372036854775807.0 - sqrt(9223372036854775807.0) * 10.0)

/* ReactionSystem.leap at the rates in m->lam, into m->next: binomial draws
 * for the clamped channels, then Poisson draws for the others, each in
 * channel order.  Returns whether every count stays non-negative; or, before
 * its draws, the code of the argument check numpy's binomial (3) or
 * Poisson (4: too large or NaN, 5: negative) fails. */
static int leap_draws(repro_multiscale *m, const uint8_t *mask, double tau,
                      binomial_t *binomial) {
    int64_t species = m->species, channels = m->channels;
    bitgen_t *bitgen = (bitgen_t *)m->bitgen;
    for (int64_t e = 0; e < channels; e++) {
        m->draws[e] = 0;
        m->kind[e] = 0;
        if (!(mask[e] && m->lam[e] > 0.0)) continue;
        double head = INFINITY;
        for (int64_t i = 0; i < species; i++) {
            double consumed = m->consumption[i * channels + e];
            if (consumed > 0.0) head = np_min(head, floor(m->counts[i] / consumed));
        }
        m->means[e] = m->lam[e] * tau;
        m->heads[e] = head;
        m->kind[e] = m->means[e] > 0.1 * head ? 1 : 2;
    }
    int invalid = 0;
    for (int64_t e = 0; e < channels; e++)
        if (m->kind[e] == 1) {
            m->means[e] = np_min(m->means[e] / m->heads[e], 1.0);
            invalid |= !(m->means[e] >= 0.0 && m->means[e] <= 1.0);
        }
    if (invalid) return 3;
    for (int64_t e = 0; e < channels; e++)
        if (m->kind[e] == 1)
            m->draws[e] = random_binomial(
                bitgen, m->means[e], (int64_t)m->heads[e], binomial);
    int large = 0, negative = 0;
    for (int64_t e = 0; e < channels; e++)
        if (m->kind[e] == 2) {
            large |= !(m->means[e] <= POISSON_LAM_MAX);
            negative |= !(m->means[e] >= 0.0);
        }
    if (large || negative) return large ? 4 : 5;
    for (int64_t e = 0; e < channels; e++)
        if (m->kind[e] == 2) m->draws[e] = random_poisson(bitgen, m->means[e]);
    for (int64_t i = 0; i < species; i++) {
        int64_t change = 0;
        for (int64_t e = 0; e < channels; e++)
            change += m->stoich[i * channels + e] * m->draws[e];
        m->next[i] = m->counts[i] + (double)change;
    }
    return non_negative(m, m->next);
}

/* MultiscaleSimulator._leap at the rates in m->lam; returns 0, or the
 * code of a failed draw-argument check. */
static int leap(repro_multiscale *m, double tau1, double target,
                binomial_t *binomial) {
    bitgen_t *bitgen = (bitgen_t *)m->bitgen;
    double remaining = target - m->parallel_time;
    int64_t critical = 0;
    for (int64_t e = 0; e < m->channels; e++)
        if (m->critical_active[e]) m->cumulative[critical++] = m->lam[e];
    double a_critical = np_sum(m->cumulative, critical);
    double tau2 = a_critical > 0.0
        ? random_exponential(bitgen, 1.0 / a_critical) : INFINITY;
    double tau = py_min(py_min(tau1, tau2), remaining);
    for (int64_t attempt = 0; attempt < m->max_leap_retries; attempt++) {
        int ok = leap_draws(m, m->noncritical, tau, binomial);
        if (ok > 1) return ok;
        if (ok && tau2 <= tau && a_critical > 0.0) {
            cumulate(m, m->critical_active);
            fire(m, m->next,
                 pick_channel(m, random_standard_uniform(bitgen) * a_critical));
            ok = non_negative(m, m->next);
        }
        if (ok) {
            for (int64_t i = 0; i < m->species; i++) m->counts[i] = m->next[i];
            m->parallel_time += tau;
            m->leaps++;
            note_seen(m);
            return 0;
        }
        tau /= 2.0;
    }
    exact_burst(m, target);
    return 0;
}

/* MultiscaleSimulator._ode_advance; returns 1, with the counts and clock
 * as it found them, when the step size stalls. */
static int ode_advance(repro_multiscale *m, double target) {
    int64_t species = m->species;
    double *y = m->y, *y5 = m->y5, *y4 = m->y4, *next = m->next;
    double *stages = m->stages;
    double exit_threshold = m->ode_threshold / m->hysteresis;
    for (int64_t i = 0; i < species; i++) y[i] = m->counts[i];
    double t = m->parallel_time, rtol = 1e-6;
    double atol = 1e-9 * (double)m->population;
    double h = py_min(1.0, target - t);
    derivative(m, y, stages);
    int64_t stalls = 0;
    while (t < target) {
        h = py_min(h, target - t);
        for (int row = 1; row < 7; row++) {
            const double *a = m->dp_a + 7 * row;
            for (int64_t i = 0; i < species; i++) {
                double increment = 0.0;
                for (int j = 0; j < row; j++)
                    increment += a[j] * stages[j * species + i];
                next[i] = y[i] + h * increment;
            }
            derivative(m, next, stages + row * species);
        }
        for (int64_t i = 0; i < species; i++) {
            double sum5 = 0.0, sum4 = 0.0;
            for (int j = 0; j < 7; j++) sum5 += m->dp_b5[j] * stages[j * species + i];
            for (int j = 0; j < 7; j++) sum4 += m->dp_b4[j] * stages[j * species + i];
            y5[i] = y[i] + h * sum5;
            y4[i] = y[i] + h * sum4;
            double scale = atol + rtol * np_max(fabs(y[i]), fabs(y5[i]));
            double scaled = (y5[i] - y4[i]) / scale;
            next[i] = scaled * scaled;
        }
        double error = sqrt(np_sum(next, species) / (double)species);
        if (error <= 1.0) {
            t += h;
            for (int64_t i = 0; i < species; i++) y[i] = np_max(y5[i], 0.0);
            derivative(m, y, stages);
            m->ode_steps++;
            stalls = 0;
            propensities(m, y, m->lam);
            double floor = INFINITY;
            int any = 0;
            for (int64_t e = 0; e < m->channels; e++)
                if (m->lam[e] > 0.0) {
                    floor = np_min(floor, min_reactant(m, y, e));
                    any = 1;
                }
            if (any && floor < exit_threshold) break;
        } else if (++stalls > 60) {
            return 1;
        }
        double factor = error > 0.0 ? 0.9 * pow(error, -0.2) : 5.0;
        h *= py_min(5.0, py_max(0.2, factor));
        h = py_max(h, 1e-14 * py_max(1.0, fabs(target)));
    }
    for (int64_t i = 0; i < species; i++) m->counts[i] = y[i];
    m->ode_fractional = 1;
    note_seen(m);
    m->parallel_time = py_min(t, target);
    return 0;
}

/* The regime loop until the clock reaches `target`.  Returns 0; 1 when the
 * ODE integrator stalls (the clock stays where the stalled stretch began);
 * 2 when its work space cannot be allocated; or 3 to 5 when a leap's draw
 * arguments fail numpy's checks (leap_draws).  A failed call leaves the
 * clock where the failing step began. */
int repro_multiscale_advance(repro_multiscale *m, double target) {
    int64_t species = m->species, channels = m->channels;
    void *work = malloc(sizeof(double) * (size_t)(4 * channels + 13 * species)
        + sizeof(int64_t) * (size_t)(channels + species)
        + (size_t)(4 * channels + species));
    if (!work) return 2;
    m->lam = (double *)work;
    m->cumulative = m->lam + channels;
    m->means = m->cumulative + channels;
    m->heads = m->means + channels;
    m->sums = m->heads + channels;
    m->next = m->sums + 2 * species;
    m->y = m->next + species;
    m->y5 = m->y + species;
    m->y4 = m->y5 + species;
    m->stages = m->y4 + species;
    m->draws = (int64_t *)(m->stages + 7 * species);
    m->order = m->draws + channels;
    m->active = (uint8_t *)(m->order + species);
    m->noncritical = m->active + channels;
    m->critical_active = m->noncritical + channels;
    m->kind = m->critical_active + channels;
    m->relevant = m->kind + channels;
    binomial_t binomial = {0};
    double guard = 1e-12 * py_max(1.0, fabs(target));
    int code = 0;
    while (m->parallel_time < target - guard) {
        if (!active_propensities(m)) break;  /* absorbed */
        if (classify(m)) {
            if ((code = ode_advance(m, target))) break;
            continue;
        }
        if (m->ode_fractional) {
            integer_counts(m);
            m->ode_fractional = 0;
            if (!active_propensities(m)) break;
        }
        int any_noncritical = 0;
        for (int64_t e = 0; e < channels; e++) {
            m->noncritical[e] = m->active[e] && !m->critical[e];
            m->critical_active[e] = m->active[e] && m->critical[e];
            any_noncritical |= m->noncritical[e];
        }
        if (!any_noncritical) { exact_burst(m, target); continue; }
        double total = np_sum(m->lam, channels);
        double tau1 = cao_tau(m, m->noncritical, target - m->parallel_time);
        if (tau1 < m->exact_multiple / total) { exact_burst(m, target); continue; }
        if ((code = leap(m, tau1, target, &binomial))) break;
    }
    if (!code) m->parallel_time = target;
    free(work);
    return code;
}
"""

#: Optimise, but never fuse a multiply and an add: numpy's float64 loops
#: round each product before the sum.
_COMPILE_ARGS = ["-O3", "-ffp-contract=off"]

# Compilation state: None = not yet attempted, else (lib, ffi) or the cached
# failure reason string.
_COMPILED: "tuple | None" = None
_FAILURE: str | None = None


def _cache_dir() -> str:
    override = os.environ.get(ENV_NATIVE_CACHE)
    if override:
        os.makedirs(override, exist_ok=True)
        return override
    base = os.path.join(tempfile.gettempdir(), "repro-native-cache")
    os.makedirs(base, exist_ok=True)
    return base


def _module_name() -> str:
    # The module links numpy's distribution functions in statically: a build
    # must never outlive the numpy whose draws it reproduces.
    digest = hashlib.sha256(
        (_CDEF + _SOURCE + " ".join(_COMPILE_ARGS) + np.__version__).encode()
    ).hexdigest()[:12]
    return f"_repro_native_{digest}"


def _load_compiled():
    """Compile (or load the cached build of) the kernel module.

    Returns ``(lib, ffi)``; raises on any failure (missing cffi, missing
    compiler, broken toolchain) — the caller converts that into backend
    unavailability.
    """
    global _COMPILED, _FAILURE
    if _COMPILED is not None:
        return _COMPILED
    if _FAILURE is not None:
        raise RuntimeError(_FAILURE)
    try:
        from cffi import FFI

        cache = _cache_dir()
        name = _module_name()
        module = _find_built_module(cache, name)
        if module is None:
            ffi_builder = FFI()
            ffi_builder.cdef(_CDEF)
            ffi_builder.set_source(
                name,
                _SOURCE,
                include_dirs=[np.get_include()],
                library_dirs=[
                    os.path.join(os.path.dirname(np.__file__), "random", "lib")
                ],
                libraries=["npyrandom"] + (["m"] if os.name == "posix" else []),
                extra_compile_args=_COMPILE_ARGS,
            )
            ffi_builder.compile(tmpdir=cache, verbose=False)
            module = _find_built_module(cache, name)
            if module is None:
                raise RuntimeError("compiled extension not found after build")
        _COMPILED = (module.lib, module.ffi)
        return _COMPILED
    except Exception as error:  # noqa: BLE001 - any failure = unavailable
        _FAILURE = f"{type(error).__name__}: {error}"
        raise RuntimeError(_FAILURE) from error


def _find_built_module(cache: str, name: str):
    """Import this interpreter's build of the extension from the cache (the
    default cache is shared by every interpreter of a user)."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(cache, name + suffix)
        if not os.path.exists(path):
            continue
        spec = importlib.util.spec_from_file_location(name, path)
        if spec is None or spec.loader is None:
            return None
        module = importlib.util.module_from_spec(spec)
        sys.modules.setdefault(name, module)
        spec.loader.exec_module(module)
        return module
    return None


class NativeBatchedKernel:
    """:class:`~repro.backend.numpy_backend.NumpyBatchedKernel` in C, bitwise.

    One :meth:`advance` runs every batch of a ``run_interactions`` call in a
    single C call that makes the reference's draws, in its order, on the
    generator it is given.  A batch that fails leaves the counts as it found
    them, as the reference's does; the batches before it are returned first
    and the next call raises, so the engine's clock and batch counters stop
    where the reference's stop.
    """

    def __init__(
        self,
        table: "CompiledTransitionTable",
        state_rates: np.ndarray | None,
        population_size: int,
        small_count_threshold: int,
    ) -> None:
        self._lib, self._ffi = _load_compiled()
        size, width = table.num_states, table.max_outcomes
        self.seen = np.zeros(size, dtype=bool)
        split = np.zeros((size, size, width + 1), dtype=np.float64)
        for i, j in zip(*np.nonzero(~table.is_null)):
            pvals = outcome_split_pvals(table, i, j)
            if pvals is not None:
                split[i, j, : pvals.size] = pvals
        state = self._state = self._ffi.new("repro_batched *")
        state.size, state.kmax = size, width
        state.population = population_size
        state.small_threshold = small_count_threshold
        # The C side keeps raw pointers: hold every array for as long as the
        # kernel lives.
        self._arrays = {
            "outcome_count": table.outcome_count,
            "receiver_out": table.outcome_receiver,
            "sender_out": table.outcome_sender,
            "probability": table.outcome_probability,
            "null_probability": table.null_probability,
            "split_pvals": split,
            "rates": None if state_rates is None
            else np.ascontiguousarray(state_rates, dtype=np.float64),
            "seen": self.seen,
        }
        for name, array in self._arrays.items():
            if array is not None:
                setattr(state, name, self._ffi.cast("void *", array.ctypes.data))
        self._progress = np.zeros(3, dtype=np.int64)
        self._error: Exception | None = None

    def advance(
        self,
        counts: np.ndarray,
        max_interactions: int,
        batch_size: int,
        rng: np.random.Generator,
    ) -> tuple[int, int, int]:
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        if not (_is_index_array(counts) and counts.size == self._state.size):
            raise SimulationError(
                f"counts must be a contiguous int64 array of {self._state.size} states"
            )
        if batch_size < 1:
            raise SimulationError(f"batch size must be positive, got {batch_size}")
        self._state.bitgen = _bitgen(self._ffi, rng)
        progress = self._progress
        progress[:] = 0
        code = self._lib.repro_batched_advance(
            self._state,
            self._ffi.cast("int64_t *", counts.ctypes.data),
            max_interactions,
            batch_size,
            self._ffi.cast("int64_t *", progress.ctypes.data),
        )
        if code:
            error = _batch_error(code)
            if progress[0] == 0:
                raise error
            self._error = error
        return int(progress[0]), int(progress[1]), int(progress[2])


def _batch_error(code: int) -> Exception:
    """The reference's exception for a failed batch's return code."""
    if code == 1:
        return SimulationError(
            "scheduler assigns zero total weight to the current configuration"
        )
    if code == 2:
        return SimulationError(
            "state-weighted scheduler: fewer than two agents have a "
            "positive rate; no ordered pair can be selected"
        )
    if code == 3:
        return ValueError("pvals < 0, pvals > 1 or pvals contains NaNs")
    return MemoryError("native batched kernel: no memory for its work space")


def _is_index_array(array) -> bool:
    return (
        isinstance(array, np.ndarray)
        and array.dtype == np.int64
        and array.ndim == 1
        and array.flags.c_contiguous
    )


def _bitgen(ffi, rng: np.random.Generator):
    """The ``bitgen_t *`` of ``rng``'s bit generator."""
    return ffi.cast("void *", rng.bit_generator.ctypes.bit_generator.value)


#: The nine fields of ``LogSizeVectorProtocol.init_fields``, by dtype.
_LOG_SIZE_FIELDS = {
    "role": np.int8, "time": np.int64, "total": np.int64, "epoch": np.int64,
    "gr": np.int64, "log_size2": np.int64, "done": np.bool_,
    "updated": np.bool_, "output": np.float64,
}


class NativeLogSizeRound:
    """One ``Log-Size-Estimation`` round in C, bitwise the numpy sub-steps.

    Bound to one protocol's nine field arrays and generator, a call with a
    round's ``(rec, sen)`` pairs does what the numpy sub-steps of
    :class:`~repro.core.array_simulator.LogSizeVectorProtocol` do, drawing
    through numpy's ``random_geometric`` on the same ``bitgen_t`` in the
    same order.  :meth:`run` repeats the uniform matching draw and the round
    in one call.  The kernel counts the unassigned and the done agents, so a
    round costs O(pairs) once the partition is complete and :meth:`all_done`
    costs O(1); it therefore owns ``role`` and ``done``, which nothing else
    may write after binding.  It draws without ``Generator.lock``: a
    simulator's generator is used from one thread only.
    """

    def __init__(self, protocol: "LogSizeVectorProtocol") -> None:
        self._lib, self._ffi = _load_compiled()
        state = self._state = self._ffi.new("repro_log_size *")
        state.n = n = protocol.role.size
        # The C side keeps raw pointers: hold every field's buffer, and the
        # generator, for as long as the kernel lives.
        self._buffers = []
        for name, dtype in _LOG_SIZE_FIELDS.items():
            array = getattr(protocol, name)
            if not (array.dtype == dtype and array.shape == (n,)
                    and array.flags.c_contiguous):
                raise SimulationError(
                    f"field {name!r} must be a contiguous {np.dtype(dtype)} "
                    f"array of {n} agents"
                )
            self._buffers.append(self._ffi.from_buffer(array, require_writable=True))
            setattr(state, name, self._ffi.cast("void *", self._buffers[-1]))
        state.unassigned = int(np.count_nonzero(protocol.role == 0))
        state.done_count = int(np.count_nonzero(protocol.done))
        params = protocol.params
        for name in ("clock_threshold_factor", "epochs_factor", "output_offset"):
            setattr(state, name, getattr(params, name))
        state.log_size2_offset = int(params.log_size2_offset)
        state.p = params.geometric_success_probability
        self._rng = protocol.rng
        state.bitgen = _bitgen(self._ffi, self._rng)
        self._order = self._ffi.new("int64_t[]", n)

    def __call__(self, rec: np.ndarray, sen: np.ndarray) -> None:
        if not (_is_index_array(rec) and _is_index_array(sen)) or rec.size != sen.size:
            raise SimulationError(
                "matched pairs must be contiguous int64 arrays of equal length"
            )
        rec_buffer = self._ffi.from_buffer("int64_t[]", rec)
        sen_buffer = self._ffi.from_buffer("int64_t[]", sen)
        if self._lib.repro_log_size_round(
            self._state, rec_buffer, sen_buffer, rec.size
        ):
            raise SimulationError(
                f"a matched pair names an agent outside [0, {self._state.n})"
            )

    def run(
        self, rounds: int, stop_when_done: bool, tallies: np.ndarray | None = None
    ) -> int:
        """Run up to ``rounds`` rounds, each drawing the uniform matching of
        all ``n`` agents (:func:`~repro.engine.scheduler.draw_matching_arrays`
        on the bound generator) and applying the round to it; with
        ``stop_when_done``, stop after the first round that leaves every
        agent done.  Adds the nanoseconds spent drawing and applying to
        ``tallies[0]`` and ``tallies[1]`` (an int64 array) when given.
        Returns the rounds run."""
        counters = self._ffi.NULL
        if tallies is not None:
            if not (_is_index_array(tallies) and tallies.size >= 2):
                raise SimulationError("tallies must be a contiguous int64 array of 2")
            counters = self._ffi.from_buffer("int64_t[]", tallies, require_writable=True)
        return self._lib.repro_log_size_run(
            self._state, self._order, rounds, stop_when_done, counters
        )

    def all_done(self) -> bool:
        """Whether every agent is done, from the kernel's count."""
        return self._state.done_count == self._state.n


class NativeMultiscaleLoop:
    """The multiscale engine's regime loop in C, bitwise the numpy loop.

    Bound to one :class:`~repro.crn.multiscale.MultiscaleSimulator`, a call
    ``(target)`` does what the engine's ``_run_regimes(target)`` does, in
    one C call: propensities, the hysteresis classification, the Cao tau,
    clamped binomial and Poisson leaps with their halving retries, exact
    bursts, the Dormand–Prince stretch and the largest-remainder hand-back.
    It writes the engine's counts, ``seen`` marks and critical flags in
    place, so it owns them: nothing else may replace those arrays after
    binding.  The clock, the regime counters and the regime flags are read
    before each call and written back after it.
    """

    def __init__(self, simulator: "MultiscaleSimulator") -> None:
        from repro.crn import multiscale

        self._lib, self._ffi = _load_compiled()
        self._simulator = simulator
        system, controller = simulator.system, simulator.controller
        state = self._state = self._ffi.new("repro_multiscale *")
        state.species, state.channels = system.num_species, system.num_channels
        state.population = simulator.population_size
        state.exact_burst = multiscale._EXACT_BURST
        state.max_leap_retries = multiscale._MAX_LEAP_RETRIES
        state.exact_multiple = multiscale._EXACT_MULTIPLE
        state.leap_eps = simulator.leap_eps
        state.critical_threshold = controller.critical_threshold
        state.ode_threshold = controller.ode_threshold
        state.hysteresis = controller.hysteresis
        tableau = np.zeros((7, 7))
        for row, coefficients in enumerate(multiscale._DP_A):
            tableau[row, : len(coefficients)] = coefficients
        constants = {
            name: (getattr(system, name), np.int64)
            for name in ("reactant_a", "reactant_b", "stoich")
        } | {
            name: (getattr(system, name), np.bool_)
            for name in ("is_diagonal", "is_reactant", "needs_two")
        } | {
            name: (getattr(system, name), np.float64)
            for name in ("rate_coeff", "stoich_f", "stoich_f2", "consumption")
        } | {
            "dp_a": (tableau, np.float64),
            "dp_b5": (multiscale._DP_B5, np.float64),
            "dp_b4": (multiscale._DP_B4, np.float64),
        }
        # The C side keeps raw pointers: hold every array for as long as the
        # kernel lives.
        self._arrays = [
            np.ascontiguousarray(array, dtype=dtype)
            for array, dtype in constants.values()
        ]
        for name, array in zip(constants, self._arrays):
            setattr(state, name, self._ffi.cast("void *", array.ctypes.data))
        for name, array, dtype in (
            ("counts", simulator._counts, np.float64),
            ("seen", simulator._seen, np.bool_),
            ("critical", controller._critical, np.bool_),
        ):
            if not (array.dtype == dtype and array.ndim == 1
                    and array.flags.c_contiguous and array.flags.writeable):
                raise SimulationError(
                    f"the multiscale {name} must be a writable contiguous "
                    f"{np.dtype(dtype)} array"
                )
            self._arrays.append(array)
            setattr(state, name, self._ffi.cast("void *", array.ctypes.data))
        state.bitgen = _bitgen(self._ffi, simulator._rng)
        self._stalled = multiscale._ODE_STALLED

    def __call__(self, target: float) -> None:
        simulator, state = self._simulator, self._state
        controller = simulator.controller
        state.parallel_time = simulator.parallel_time
        state.exact_events = simulator.exact_events
        state.leaps = simulator.leaps
        state.ode_steps = simulator.ode_steps
        state.switches = controller.switches
        state.initialised = controller._initialised
        state.in_ode = controller._ode
        state.ode_fractional = simulator._ode_fractional
        code = self._lib.repro_multiscale_advance(state, target)
        simulator.parallel_time = state.parallel_time
        simulator.exact_events = state.exact_events
        simulator.leaps = state.leaps
        simulator.ode_steps = state.ode_steps
        controller.switches = state.switches
        controller._initialised = bool(state.initialised)
        controller._ode = bool(state.in_ode)
        simulator._ode_fractional = bool(state.ode_fractional)
        if code == 1:
            raise SimulationError(self._stalled)
        if code == 2:
            raise MemoryError("native multiscale loop: no memory for its work space")
        if code:
            raise ValueError(_LEAP_ARGUMENT_ERRORS[code])


#: numpy's messages for the leap draw arguments its checks reject.
_LEAP_ARGUMENT_ERRORS = {
    3: "p < 0, p > 1 or p contains NaNs",
    4: "lam value too large",
    5: "lam < 0 or lam contains NaNs",
}


@register_backend
class NativeBackend(ArrayBackend):
    """C backend: available when cffi plus a working C compiler are found."""

    name = "native"

    @classmethod
    def available(cls) -> bool:
        try:
            _load_compiled()
        except Exception:  # noqa: BLE001 - unavailability, not an error
            return False
        return True

    @classmethod
    def unavailable_reason(cls) -> str | None:
        if cls.available():
            return None
        return _FAILURE or "cffi or a C compiler is missing"

    def batched_kernel(
        self,
        table: "CompiledTransitionTable",
        state_rates: np.ndarray | None,
        population_size: int,
        small_count_threshold: int,
    ) -> NativeBatchedKernel:
        return NativeBatchedKernel(
            table, state_rates, population_size, small_count_threshold
        )

    def draw_matching_arrays(
        self, members: "int | np.ndarray", rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """The reference's matching, drawn in C on ``rng``'s stream (integer
        or contiguous int64 members; anything else runs the reference)."""
        lib, ffi = _load_compiled()
        if isinstance(members, (int, np.integer)):
            source, count = ffi.NULL, max(int(members), 0)
        elif _is_index_array(members):
            source, count = ffi.from_buffer("int64_t[]", members), members.size
        else:
            count = None
        if count is None or not isinstance(rng, np.random.Generator):
            return super().draw_matching_arrays(members, rng)
        order = np.empty(count, dtype=np.int64)
        lib.repro_draw_matching(
            source, count, ffi.from_buffer("int64_t[]", order), _bitgen(ffi, rng)
        )
        half = count // 2
        return order[:half], order[half : 2 * half]

    def log_size_round_kernel(
        self, protocol: "LogSizeVectorProtocol"
    ) -> NativeLogSizeRound:
        return NativeLogSizeRound(protocol)

    def multiscale_kernel(
        self, simulator: "MultiscaleSimulator"
    ) -> NativeMultiscaleLoop:
        return NativeMultiscaleLoop(simulator)

    def describe(self) -> str:
        if self.available():
            return ("cffi-compiled C kernels (batched advance, vector "
                    "matching and rounds, multiscale regime loop), bitwise "
                    "the numpy runs")
        return f"cffi-compiled C kernels (unavailable: {_FAILURE or 'no toolchain'})"
