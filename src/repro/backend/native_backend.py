"""Native C backend: the batched hot loop compiled with cffi + the system cc.

This backend needs only what most dev boxes and CI images already carry:
``cffi`` and a C compiler.  The batched draw→apply loop is a single C
function — xoshiro256++ RNG, inverse-CDF pair sampling over the cumulative
``S^2`` weight table, consumption guard, outcome splitting and the exact
sequential fallback — invoked once per ``run_interactions`` call, which
removes *all* per-batch Python dispatch (~3–5 ns per interaction on
commodity x86).

The extension module is compiled on first use and cached on disk keyed by a
hash of the C source (``REPRO_NATIVE_CACHE`` overrides the cache directory;
the default is ``repro-native-cache`` under the system temporary
directory).  Compilation failures, a missing compiler or a missing cffi
simply mark the backend unavailable — :func:`repro.backend.resolve_backend`
then warns and falls back to numpy, so nothing ever hard-fails.

RNG-stream contract: the kernel's xoshiro stream is seeded once per kernel
from the engine's generator, so runs are reproducible per seed but
distribution-identical (not bitwise) to the numpy backend, pinned by the
parity suite in ``tests/backend``.

The vector-round and tau-leap kernels are *not* overridden: this backend
accelerates the batched engine and inherits the numpy reference kernels for
the rest (the seam's whole point — partial backends compose with the
fallback), so vector and multiscale runs on ``native`` are bitwise the
numpy runs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from repro.backend import ArrayBackend, register_backend
from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.compiled import CompiledTransitionTable

__all__ = ["ENV_NATIVE_CACHE", "NativeBackend", "NativeBatchedKernel"]

#: Environment variable overriding where compiled kernels are cached.
ENV_NATIVE_CACHE = "REPRO_NATIVE_CACHE"

_CDEF = """
long long repro_batched_advance(
    long long *counts, long long size, long long kmax,
    const long long *receiver_out, const long long *sender_out,
    const double *probability, const long long *outcome_count,
    const double *null_probability, const double *rates, int uniform,
    long long population, long long total_interactions, long long batch_size,
    long long small_threshold, unsigned long long *rng_state,
    unsigned char *seen, long long *stats);
"""

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

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
    digest = hashlib.sha256((_CDEF + _SOURCE).encode()).hexdigest()[:12]
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
                name, _SOURCE, extra_compile_args=["-O3"]
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
    """Import the built extension from the cache directory, if present."""
    for entry in sorted(os.listdir(cache)):
        if entry.startswith(name) and entry.endswith((".so", ".pyd", ".dylib")):
            spec = importlib.util.spec_from_file_location(
                name, os.path.join(cache, entry)
            )
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

    def describe(self) -> str:
        if self.available():
            return "cffi-compiled C kernels (distribution-identical to numpy)"
        return f"cffi-compiled C kernels (unavailable: {_FAILURE or 'no toolchain'})"
