"""Native C backend: the batched and vector hot loops compiled with cffi + cc.

This backend needs only what most dev boxes and CI images already carry:
``cffi`` and a C compiler.  Its one C module holds the batched draw→apply
loop — xoshiro256++ RNG, inverse-CDF pair sampling over the cumulative
``S^2`` weight table, consumption guard, outcome splitting and the exact
sequential fallback, invoked once per ``run_interactions`` call, which
removes *all* per-batch Python dispatch (~3–5 ns per interaction on
commodity x86) — and the vector-engine kernels: the matching draw
(:meth:`NativeBackend.draw_matching_arrays`), the ``Log-Size-Estimation``
round (:class:`NativeLogSizeRound`), and a run loop that repeats the two
under the uniform matching scheduler
(:meth:`NativeLogSizeRound.run`), so a Figure 2 run to all-done makes one
C call per 64 rounds instead of two per round.

The extension module is compiled on first use and cached on disk keyed by a
hash of the C source and of ``numpy.__version__`` (``REPRO_NATIVE_CACHE``
overrides the cache directory; the default is ``repro-native-cache`` under
the system temporary directory).  Compilation failures, a missing compiler
or a missing cffi simply mark the backend unavailable —
:func:`repro.backend.resolve_backend` then warns and falls back to numpy, so
nothing ever hard-fails.

RNG-stream contract: the batched kernel's xoshiro stream is seeded once per
kernel from the engine's generator, so batched runs are reproducible per
seed but distribution-identical (not bitwise) to the numpy backend, pinned
by the parity suite in ``tests/backend``.  The vector kernels draw on the
engine generator's own ``bitgen_t`` through numpy's ``random_interval``,
``random_standard_uniform`` and ``random_geometric`` (from the
``libnpyrandom`` static library numpy ships, linked in: hence the numpy
version in the cache name), in the numpy reference's order, so vector runs
on ``native`` are the numpy runs bit for bit.  ``Generator.permutation``'s
shuffle loop, which the matching repeats, is numpy-internal, not exported
API; ``tests/backend/test_native_vector.py`` pins it.
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
from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.array_simulator import LogSizeVectorProtocol
    from repro.protocols.compiled import CompiledTransitionTable

__all__ = [
    "ENV_NATIVE_CACHE", "NativeBackend", "NativeBatchedKernel", "NativeLogSizeRound",
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

_CDEF = _LOG_SIZE_STRUCT + """
long long repro_batched_advance(
    long long *counts, long long size, long long kmax,
    const long long *receiver_out, const long long *sender_out,
    const double *probability, const long long *outcome_count,
    const double *null_probability, const double *rates, int uniform,
    long long population, long long total_interactions, long long batch_size,
    long long small_threshold, unsigned long long *rng_state,
    unsigned char *seen, long long *stats);
void repro_draw_matching(
    const int64_t *members, int64_t m, int64_t *order, void *bitgen);
int repro_log_size_round(
    repro_log_size *s, const int64_t *rec, const int64_t *sen, int64_t pairs);
int64_t repro_log_size_run(
    repro_log_size *s, int64_t *order, int64_t max_rounds, int stop_when_done,
    int64_t *tallies);
"""

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>
#include "numpy/random/distributions.h"
""" + _LOG_SIZE_STRUCT + r"""

/* xoshiro256++ (Blackman & Vigna, public domain reference implementation
 * structure): a small, fast generator with 2^256-1 period; ample for
 * simulation draws. */
static inline uint64_t rotl64(const uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

static inline uint64_t xo_next(uint64_t *s) {
    const uint64_t result = rotl64(s[0] + s[3], 23) + s[0];
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl64(s[3], 45);
    return result;
}

/* Uniform double in [0, 1) with 53 random bits. */
static inline double xo_double(uint64_t *s) {
    return (double)(xo_next(s) >> 11) * (1.0 / 9007199254740992.0);
}

/* One exact interaction loop: `batch` sequential steps on the counts.
 * Returns 0, or 2 for the degenerate weighted configuration. */
static long long exact_interactions(
    long long *counts, long long size, long long kmax,
    const long long *receiver_out, const long long *sender_out,
    const double *probability, const long long *outcome_count,
    const double *null_probability, const double *rates, int uniform,
    long long population, long long batch, uint64_t *rng,
    unsigned char *seen)
{
    for (long long step = 0; step < batch; step++) {
        long long receiver = size - 1, sender = size - 1;
        if (uniform) {
            long long threshold = (long long)(xo_double(rng) * (double)population);
            if (threshold >= population) threshold = population - 1;
            long long co_threshold =
                (long long)(xo_double(rng) * (double)(population - 1));
            if (co_threshold >= population - 1) co_threshold = population - 2;
            long long cum = 0, receiver_cum = population;
            for (long long i = 0; i < size; i++) {
                cum += counts[i];
                if (threshold < cum) { receiver = i; receiver_cum = cum; break; }
            }
            if (co_threshold >= receiver_cum - 1) co_threshold += 1;
            cum = 0;
            for (long long j = 0; j < size; j++) {
                cum += counts[j];
                if (co_threshold < cum) { sender = j; break; }
            }
        } else {
            double total = 0.0;
            long long positive_agents = 0;
            for (long long i = 0; i < size; i++) {
                total += rates[i] * (double)counts[i];
                if (rates[i] > 0.0) positive_agents += counts[i];
            }
            if (total <= 0.0 || positive_agents < 2) return 2;
            for (;;) {
                double u = xo_double(rng) * total, mass = 0.0;
                receiver = size - 1;
                for (long long i = 0; i < size; i++) {
                    mass += rates[i] * (double)counts[i];
                    if (u < mass) { receiver = i; break; }
                }
                u = xo_double(rng) * total; mass = 0.0;
                sender = size - 1;
                for (long long j = 0; j < size; j++) {
                    mass += rates[j] * (double)counts[j];
                    if (u < mass) { sender = j; break; }
                }
                if (receiver != sender) break;
                /* Same-state draw: same agent with probability 1/c, else a
                 * valid distinct ordered pair. */
                if (counts[receiver] >= 2 &&
                    xo_double(rng) * (double)counts[receiver] >= 1.0) break;
            }
        }
        long long pair_outcomes = outcome_count[receiver * size + sender];
        if (pair_outcomes == 0) continue;
        const double *pair_probability =
            probability + (receiver * size + sender) * kmax;
        long long chosen = 0;
        int fired = 1;
        if (pair_outcomes > 1 ||
            null_probability[receiver * size + sender] > 0.0) {
            double u = xo_double(rng), mass = 0.0;
            fired = 0;
            for (long long k = 0; k < pair_outcomes; k++) {
                mass += pair_probability[k];
                if (u < mass) { chosen = k; fired = 1; break; }
            }
        }
        if (!fired) continue;  /* residual mass = null transition */
        long long r_out = receiver_out[(receiver * size + sender) * kmax + chosen];
        long long s_out = sender_out[(receiver * size + sender) * kmax + chosen];
        counts[receiver] -= 1;
        counts[sender] -= 1;
        counts[r_out] += 1;
        counts[s_out] += 1;
        seen[r_out] = 1;
        seen[s_out] = 1;
    }
    return 0;
}

/* Whether some reactive pair exists among present states while no state
 * touching one reaches the small-count threshold. */
static int counts_small(
    const long long *counts, long long size,
    const long long *outcome_count, long long small_threshold)
{
    int any_reactive = 0;
    for (long long i = 0; i < size; i++) {
        if (counts[i] <= 0) continue;
        for (long long j = 0; j < size; j++) {
            if (counts[j] <= 0 || outcome_count[i * size + j] == 0) continue;
            any_reactive = 1;
            if (counts[i] >= small_threshold || counts[j] >= small_threshold)
                return 0;
        }
    }
    return any_reactive;
}

long long repro_batched_advance(
    long long *counts, long long size, long long kmax,
    const long long *receiver_out, const long long *sender_out,
    const double *probability, const long long *outcome_count,
    const double *null_probability, const double *rates, int uniform,
    long long population, long long total_interactions, long long batch_size,
    long long small_threshold, unsigned long long *rng_state,
    unsigned char *seen, long long *stats)
{
    uint64_t *rng = (uint64_t *)rng_state;
    long long pairs = size * size;
    double *cumulative = (double *)malloc((size_t)pairs * sizeof(double));
    long long *pair_counts = (long long *)malloc((size_t)pairs * sizeof(long long));
    long long *per_state = (long long *)malloc((size_t)size * 2 * sizeof(long long));
    if (!cumulative || !pair_counts || !per_state) {
        free(cumulative); free(pair_counts); free(per_state);
        return 3;  /* allocation failure */
    }
    long long *consumed = per_state;
    long long *delta = per_state + size;
    long long code = 0;
    long long done = 0;
    while (done < total_interactions) {
        long long batch = total_interactions - done;
        if (batch > batch_size) batch = batch_size;
        if (small_threshold > 0 &&
            counts_small(counts, size, outcome_count, small_threshold)) {
            code = exact_interactions(counts, size, kmax, receiver_out,
                sender_out, probability, outcome_count, null_probability,
                rates, uniform, population, batch, rng, seen);
            if (code != 0) goto out;
            stats[1] += 1;
            done += batch;
            continue;
        }
        /* Frozen pair weights at the batch's starting counts, cumulated for
         * inverse-CDF sampling. */
        double mass = 0.0;
        for (long long i = 0; i < size; i++) {
            double scaled_i = uniform ? (double)counts[i]
                                      : rates[i] * (double)counts[i];
            for (long long j = 0; j < size; j++) {
                double weight;
                if (i == j) {
                    weight = uniform
                        ? (double)counts[i] * ((double)counts[i] - 1.0)
                        : scaled_i * rates[i] * ((double)counts[i] - 1.0);
                } else {
                    double scaled_j = uniform ? (double)counts[j]
                                              : rates[j] * (double)counts[j];
                    weight = scaled_i * scaled_j;
                }
                mass += weight;
                cumulative[i * size + j] = mass;
            }
        }
        if (mass <= 0.0) { code = 1; goto out; }
        /* Tally the batch: iid categorical pair draws by binary search. */
        for (long long p = 0; p < pairs; p++) pair_counts[p] = 0;
        for (long long step = 0; step < batch; step++) {
            double u = xo_double(rng) * mass;
            long long lo = 0, hi = pairs - 1;
            while (lo < hi) {
                long long mid = (lo + hi) / 2;
                if (u < cumulative[mid]) hi = mid; else lo = mid + 1;
            }
            pair_counts[lo] += 1;
        }
        /* Consumption guard over reactive pairs only. */
        for (long long i = 0; i < size; i++) consumed[i] = 0;
        for (long long i = 0; i < size; i++)
            for (long long j = 0; j < size; j++) {
                if (outcome_count[i * size + j] == 0) continue;
                long long occurrences = pair_counts[i * size + j];
                consumed[i] += occurrences;
                consumed[j] += occurrences;
            }
        int guard_tripped = 0;
        for (long long i = 0; i < size; i++)
            if (consumed[i] > counts[i]) { guard_tripped = 1; break; }
        if (guard_tripped) {
            code = exact_interactions(counts, size, kmax, receiver_out,
                sender_out, probability, outcome_count, null_probability,
                rates, uniform, population, batch, rng, seen);
            if (code != 0) goto out;
            stats[1] += 1;
            done += batch;
            continue;
        }
        /* Split each reactive pair's occurrences among its outcomes and
         * apply all deltas at once. */
        for (long long i = 0; i < size; i++) delta[i] = 0;
        for (long long i = 0; i < size; i++)
            for (long long j = 0; j < size; j++) {
                long long pair_outcomes = outcome_count[i * size + j];
                if (pair_outcomes == 0) continue;
                long long occurrences = pair_counts[i * size + j];
                if (occurrences == 0) continue;
                const double *pair_probability =
                    probability + (i * size + j) * kmax;
                if (pair_outcomes == 1 &&
                    null_probability[i * size + j] <= 0.0) {
                    /* Certain single outcome: no draws, apply in bulk. */
                    long long r_out = receiver_out[(i * size + j) * kmax];
                    long long s_out = sender_out[(i * size + j) * kmax];
                    delta[i] -= occurrences;
                    delta[j] -= occurrences;
                    delta[r_out] += occurrences;
                    delta[s_out] += occurrences;
                    seen[r_out] = 1;
                    seen[s_out] = 1;
                    continue;
                }
                for (long long e = 0; e < occurrences; e++) {
                    long long chosen = 0;
                    int fired = 0;
                    double u = xo_double(rng), outcome_mass = 0.0;
                    for (long long k = 0; k < pair_outcomes; k++) {
                        outcome_mass += pair_probability[k];
                        if (u < outcome_mass) { chosen = k; fired = 1; break; }
                    }
                    if (!fired) continue;
                    long long r_out =
                        receiver_out[(i * size + j) * kmax + chosen];
                    long long s_out =
                        sender_out[(i * size + j) * kmax + chosen];
                    delta[i] -= 1;
                    delta[j] -= 1;
                    delta[r_out] += 1;
                    delta[s_out] += 1;
                    seen[r_out] = 1;
                    seen[s_out] = 1;
                }
            }
        for (long long i = 0; i < size; i++) counts[i] += delta[i];
        stats[0] += 1;
        done += batch;
    }
out:
    free(cumulative);
    free(pair_counts);
    free(per_state);
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
"""

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
        (_CDEF + _SOURCE + np.__version__).encode()
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
                extra_compile_args=["-O3"],
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
    """Batched-engine kernel dispatching into the compiled C routine."""

    def __init__(
        self,
        table: "CompiledTransitionTable",
        state_rates: np.ndarray | None,
        population_size: int,
        small_count_threshold: int,
        rng: np.random.Generator,
    ) -> None:
        self._lib, self._ffi = _load_compiled()
        self.table = table
        self.population_size = population_size
        self.small_count_threshold = small_count_threshold
        self.seen = np.zeros(table.num_states, dtype=bool)
        self._seen_bytes = np.zeros(table.num_states, dtype=np.uint8)
        self._stats = np.zeros(2, dtype=np.int64)
        self._uniform = state_rates is None
        self._rates = (
            np.ones(table.num_states, dtype=np.float64)
            if state_rates is None
            else np.ascontiguousarray(state_rates, dtype=np.float64)
        )
        # xoshiro state seeded from the engine generator; >= 1 keeps the
        # state away from the all-zero fixed point.
        self._rng_state = rng.integers(
            1, 2**63, size=4, dtype=np.uint64
        )

    def _pointer(self, ctype: str, array: np.ndarray):
        return self._ffi.cast(ctype, array.ctypes.data)

    def advance(
        self,
        counts: np.ndarray,
        max_interactions: int,
        batch_size: int,
        rng: np.random.Generator,
    ) -> tuple[int, int, int]:
        table = self.table
        before_batched = int(self._stats[0])
        before_fallback = int(self._stats[1])
        code = self._lib.repro_batched_advance(
            self._pointer("long long *", counts),
            table.num_states,
            table.max_outcomes,
            self._pointer("const long long *", table.outcome_receiver),
            self._pointer("const long long *", table.outcome_sender),
            self._pointer("const double *", table.outcome_probability),
            self._pointer("const long long *", table.outcome_count),
            self._pointer("const double *", table.null_probability),
            self._pointer("const double *", self._rates),
            0 if not self._uniform else 1,
            self.population_size,
            max_interactions,
            batch_size,
            self.small_count_threshold,
            self._pointer("unsigned long long *", self._rng_state),
            self._pointer("unsigned char *", self._seen_bytes),
            self._pointer("long long *", self._stats),
        )
        if code == 1:
            raise SimulationError(
                "scheduler assigns zero total weight to the current configuration"
            )
        if code == 2:
            raise SimulationError(
                "state-weighted scheduler: fewer than two agents have a "
                "positive rate; no ordered pair can be selected"
            )
        if code != 0:
            raise SimulationError(f"native batched kernel failed (code {code})")
        np.logical_or(self.seen, self._seen_bytes.view(bool), out=self.seen)
        return (
            max_interactions,
            int(self._stats[0]) - before_batched,
            int(self._stats[1]) - before_fallback,
        )


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
        rng: np.random.Generator,
    ) -> NativeBatchedKernel:
        return NativeBatchedKernel(
            table, state_rates, population_size, small_count_threshold, rng
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

    def describe(self) -> str:
        if self.available():
            return ("cffi-compiled C kernels (batched: distribution-identical "
                    "to numpy; vector rounds: bitwise numpy)")
        return f"cffi-compiled C kernels (unavailable: {_FAILURE or 'no toolchain'})"
