"""Vectorised ``Log-Size-Estimation`` on the vector engine.

Reproducing Figure 2 at the paper's population sizes requires on the order of
``10^9``–``10^10`` pairwise interactions, far beyond what a per-interaction
Python loop can do.  This module expresses the *same* protocol as a
:class:`~repro.engine.vector.VectorProtocol`: all agent fields live in numpy
arrays (struct-of-arrays), and the shared random-matching-round scheduler of
:class:`~repro.engine.vector.VectorSimulator` applies the transition kernel
to every matched pair simultaneously.

The matching-round scheduler is a standard approximation of the sequential
uniform-pair scheduler (each agent gets exactly one interaction per round
instead of a Poisson-distributed number per unit of time); epidemic
completion, the leaderless phase clock and the averaging of geometric maxima
behave identically up to constant factors.  See ``DESIGN.md`` (Schedulers)
and the cross-validation test in
``tests/core/test_array_simulator.py``, which checks that the two engines
agree on accuracy and on the growth shape of the convergence time.

Semantics implemented (in the same per-interaction order as the agent-level
protocol): role partition, phase-clock tick + epoch advance, ``logSize2``
max-propagation with restart, epoch catch-up (worker-worker and
storage-storage), ``Update-Sum`` deposits, per-epoch ``gr`` max-propagation,
and output announcement/propagation.

Run it as ``VectorSimulator(LogSizeVectorProtocol(params), n, seed=...)``,
then ``simulator.run_until(VectorSimulator.all_done, max_parallel_time)``
(which raises :class:`~repro.exceptions.ConvergenceError` when the budget
runs out); :meth:`LogSizeVectorProtocol.result_extra` reports the estimates
and state counts.  The kernel is reused by the leader-driven terminating
variant in :mod:`repro.core.vector_leader`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend import ArrayBackend
from repro.core.parameters import ProtocolParameters
from repro.engine.vector import VectorFields, VectorProtocol

# Role encoding in the arrays.
ROLE_UNASSIGNED = 0
ROLE_WORKER = 1
ROLE_STORAGE = 2


class LogSizeVectorProtocol(VectorProtocol):
    """Vectorised transition kernel of Protocol 1 (``Log-Size-Estimation``).

    Parameters
    ----------
    params:
        Protocol constants (defaults to the paper's values).
    """

    tracked_fields = ("time", "epoch", "gr", "total", "log_size2")

    def __init__(self, params: ProtocolParameters | None = None) -> None:
        self.params = params or ProtocolParameters.paper()
        self._partition_complete = False
        self._compiled_round = None

    def describe(self) -> str:
        return f"VectorLogSizeEstimation({self.params.describe()})"

    def init_fields(self, fields: VectorFields, rng: np.random.Generator) -> None:
        self.rng = rng
        self.role = fields.add("role", np.int8, fill=ROLE_UNASSIGNED)
        self.time = fields.add("time", np.int64)
        self.total = fields.add("total", np.int64)
        self.epoch = fields.add("epoch", np.int64)
        self.gr = fields.add("gr", np.int64, fill=1)
        self.log_size2 = fields.add("log_size2", np.int64, fill=1)
        self.done = fields.add("done", bool)
        self.updated = fields.add("updated", bool)
        self.output = fields.add("output", np.float64, fill=np.nan)

    # -- random draws --------------------------------------------------------

    def _draw_geometric(self, count: int) -> np.ndarray:
        """Vector of i.i.d. geometric samples (support ``{1, 2, ...}``)."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return self.rng.geometric(
            self.params.geometric_success_probability, size=count
        ).astype(np.int64)

    def _draw_log_size2(self, count: int) -> np.ndarray:
        return self._draw_geometric(count) + self.params.log_size2_offset

    # -- per-round sub-steps -------------------------------------------------

    def _partition(self, rec: np.ndarray, sen: np.ndarray) -> None:
        role = self.role
        role_r = role[rec]
        role_s = role[sen]
        both_unassigned = (role_r == ROLE_UNASSIGNED) & (role_s == ROLE_UNASSIGNED)
        if both_unassigned.any():
            new_workers = sen[both_unassigned]
            role[new_workers] = ROLE_WORKER
            self.log_size2[new_workers] = self._draw_log_size2(new_workers.size)
            role[rec[both_unassigned]] = ROLE_STORAGE

        rec_unassigned = (role_r == ROLE_UNASSIGNED) & (role_s != ROLE_UNASSIGNED)
        if rec_unassigned.any():
            to_storage = rec[rec_unassigned & (role_s == ROLE_WORKER)]
            role[to_storage] = ROLE_STORAGE
            to_worker = rec[rec_unassigned & (role_s == ROLE_STORAGE)]
            role[to_worker] = ROLE_WORKER
            self.log_size2[to_worker] = self._draw_log_size2(to_worker.size)

        sen_unassigned = (role_s == ROLE_UNASSIGNED) & (role_r != ROLE_UNASSIGNED)
        if sen_unassigned.any():
            to_storage = sen[sen_unassigned & (role_r == ROLE_WORKER)]
            role[to_storage] = ROLE_STORAGE
            to_worker = sen[sen_unassigned & (role_r == ROLE_STORAGE)]
            role[to_worker] = ROLE_WORKER
            self.log_size2[to_worker] = self._draw_log_size2(to_worker.size)

        if not (role == ROLE_UNASSIGNED).any():
            self._partition_complete = True

    def _restart(self, agents: np.ndarray) -> None:
        """``Restart`` for the given absolute agent indices."""
        if agents.size == 0:
            return
        self.time[agents] = 0
        self.total[agents] = 0
        self.epoch[agents] = 0
        self.gr[agents] = self._draw_geometric(agents.size)
        self.done[agents] = False
        self.updated[agents] = False
        self.output[agents] = np.nan

    def _move_to_next(self, agents: np.ndarray) -> None:
        """``Move-to-Next-G.R.V`` for worker indices that advanced an epoch."""
        if agents.size == 0:
            return
        self.time[agents] = 0
        self.gr[agents] = self._draw_geometric(agents.size)
        self.updated[agents] = False

    def _check_timer(self, agents: np.ndarray) -> None:
        """``Check-if-Timer-Done-and-Increment-Epoch`` for worker indices."""
        if agents.size == 0:
            return
        threshold = self.params.clock_threshold_factor * self.log_size2[agents]
        ready = (
            ~self.done[agents]
            & self.updated[agents]
            & (self.time[agents] >= threshold)
        )
        advancing = agents[ready]
        if advancing.size == 0:
            return
        self.epoch[advancing] += 1
        self._move_to_next(advancing)
        finished = (
            self.epoch[advancing]
            >= self.params.epochs_factor * self.log_size2[advancing]
        )
        self.done[advancing[finished]] = True

    def _tick_clocks(self, rec: np.ndarray, sen: np.ndarray) -> None:
        workers_rec = rec[self.role[rec] == ROLE_WORKER]
        workers_sen = sen[self.role[sen] == ROLE_WORKER]
        self.time[workers_rec] += 1
        self.time[workers_sen] += 1
        self._check_timer(workers_rec)
        self._check_timer(workers_sen)

    def _propagate_log_size2(self, rec: np.ndarray, sen: np.ndarray) -> None:
        ls_r = self.log_size2[rec]
        ls_s = self.log_size2[sen]
        rec_behind = ls_r < ls_s
        if rec_behind.any():
            agents = rec[rec_behind]
            self.log_size2[agents] = ls_s[rec_behind]
            self._restart(agents)
        sen_behind = ls_s < ls_r
        if sen_behind.any():
            agents = sen[sen_behind]
            self.log_size2[agents] = ls_r[sen_behind]
            self._restart(agents)

    def _finish_storage(self, agents: np.ndarray) -> None:
        """Mark storage agents done and (re)compute their announced estimate."""
        if agents.size == 0:
            return
        limit = self.params.epochs_factor * self.log_size2[agents]
        newly_done = (~self.done[agents]) & (self.epoch[agents] >= limit) & (
            self.epoch[agents] > 0
        )
        self.done[agents[newly_done]] = True
        done_here = agents[self.done[agents] & (self.epoch[agents] > 0)]
        if done_here.size:
            self.output[done_here] = (
                self.total[done_here] / self.epoch[done_here]
                + self.params.output_offset
            )

    def _propagate_epoch(self, rec: np.ndarray, sen: np.ndarray) -> None:
        role_r = self.role[rec]
        role_s = self.role[sen]
        epoch_r = self.epoch[rec]
        epoch_s = self.epoch[sen]

        both_workers = (role_r == ROLE_WORKER) & (role_s == ROLE_WORKER)
        if both_workers.any():
            rec_behind = both_workers & (epoch_r < epoch_s)
            if rec_behind.any():
                agents = rec[rec_behind]
                self.epoch[agents] = epoch_s[rec_behind]
                self._move_to_next(agents)
                finished = self.epoch[agents] >= (
                    self.params.epochs_factor * self.log_size2[agents]
                )
                self.done[agents[finished]] = True
            sen_behind = both_workers & (epoch_s < epoch_r)
            if sen_behind.any():
                agents = sen[sen_behind]
                self.epoch[agents] = epoch_r[sen_behind]
                self._move_to_next(agents)
                finished = self.epoch[agents] >= (
                    self.params.epochs_factor * self.log_size2[agents]
                )
                self.done[agents[finished]] = True

        both_storage = (role_r == ROLE_STORAGE) & (role_s == ROLE_STORAGE)
        if both_storage.any():
            rec_behind = both_storage & (epoch_r < epoch_s)
            if rec_behind.any():
                agents = rec[rec_behind]
                self.epoch[agents] = epoch_s[rec_behind]
                self.total[agents] = self.total[sen[rec_behind]]
            sen_behind = both_storage & (epoch_s < epoch_r)
            if sen_behind.any():
                agents = sen[sen_behind]
                self.epoch[agents] = epoch_r[sen_behind]
                self.total[agents] = self.total[rec[sen_behind]]
            equal = both_storage & (self.epoch[rec] == self.epoch[sen])
            if equal.any():
                maximum = np.maximum(self.total[rec[equal]], self.total[sen[equal]])
                self.total[rec[equal]] = maximum
                self.total[sen[equal]] = maximum
            storage_involved = np.concatenate([rec[both_storage], sen[both_storage]])
            self._finish_storage(storage_involved)

    def _update_sum(self, rec: np.ndarray, sen: np.ndarray) -> None:
        role_r = self.role[rec]
        role_s = self.role[sen]
        worker_rec = (role_r == ROLE_WORKER) & (role_s == ROLE_STORAGE)
        worker_sen = (role_s == ROLE_WORKER) & (role_r == ROLE_STORAGE)
        if not worker_rec.any() and not worker_sen.any():
            return
        workers = np.concatenate([rec[worker_rec], sen[worker_sen]])
        storages = np.concatenate([sen[worker_rec], rec[worker_sen]])
        active = ~self.done[workers]
        workers = workers[active]
        storages = storages[active]
        if workers.size == 0:
            return
        threshold = self.params.clock_threshold_factor * self.log_size2[workers]
        deposit = (self.epoch[workers] == self.epoch[storages]) & (
            self.time[workers] >= threshold
        )
        if deposit.any():
            dep_workers = workers[deposit]
            dep_storages = storages[deposit]
            self.epoch[dep_storages] += 1
            self.total[dep_storages] += self.gr[dep_workers]
            self.updated[dep_workers] = True
            self._finish_storage(dep_storages)
        lagging = (~deposit) & (self.epoch[workers] < self.epoch[storages])
        if lagging.any():
            self.updated[workers[lagging]] = True

    def _propagate_gr(self, rec: np.ndarray, sen: np.ndarray) -> None:
        both_workers = (self.role[rec] == ROLE_WORKER) & (
            self.role[sen] == ROLE_WORKER
        )
        same_epoch = both_workers & (self.epoch[rec] == self.epoch[sen])
        if not same_epoch.any():
            return
        rec_agents = rec[same_epoch]
        sen_agents = sen[same_epoch]
        maximum = np.maximum(self.gr[rec_agents], self.gr[sen_agents])
        self.gr[rec_agents] = maximum
        self.gr[sen_agents] = maximum

    def _propagate_output(self, rec: np.ndarray, sen: np.ndarray) -> None:
        if not self.done.any():
            return
        out_r = self.output[rec]
        out_s = self.output[sen]
        auth_r = (self.role[rec] == ROLE_STORAGE) & self.done[rec] & ~np.isnan(out_r)
        auth_s = (self.role[sen] == ROLE_STORAGE) & self.done[sen] & ~np.isnan(out_s)
        keep_rec = (self.role[rec] == ROLE_STORAGE) & self.done[rec]
        keep_sen = (self.role[sen] == ROLE_STORAGE) & self.done[sen]
        rec_listens = auth_s & ~keep_rec
        sen_listens = auth_r & ~keep_sen
        self.output[rec[rec_listens]] = out_s[rec_listens]
        self.output[sen[sen_listens]] = out_r[sen_listens]
        # Second-hand propagation: fill empty outputs from any non-empty one.
        fill_rec = np.isnan(self.output[rec]) & ~np.isnan(out_s)
        fill_sen = np.isnan(self.output[sen]) & ~np.isnan(out_r)
        self.output[rec[fill_rec]] = out_s[fill_rec]
        self.output[sen[fill_sen]] = out_r[fill_sen]

    # -- VectorProtocol interface --------------------------------------------

    def bind_backend(self, backend: ArrayBackend) -> None:
        """Run rounds through ``backend``'s compiled round, if it has one;
        otherwise through the numpy sub-steps above (the reference)."""
        self._compiled_round = backend.log_size_round_kernel(self)

    def matching_loop(self):
        """The compiled round's run loop.  It applies this class's round
        only, so a subclass that adds steps to a round (the
        leader-terminating protocol) runs round by round."""
        if type(self) is LogSizeVectorProtocol:
            return self._compiled_round
        return None

    def apply_round(
        self,
        fields: VectorFields,
        rec: np.ndarray,
        sen: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        if self._compiled_round is not None:
            self._compiled_round(rec, sen)
            return
        if not self._partition_complete:
            self._partition(rec, sen)
        self._tick_clocks(rec, sen)
        self._propagate_log_size2(rec, sen)
        self._propagate_epoch(rec, sen)
        self._update_sum(rec, sen)
        self._propagate_gr(rec, sen)
        self._propagate_output(rec, sen)

    def all_done(self, fields: VectorFields) -> bool:
        """Figure 2's convergence condition: every agent finished all epochs
        (the compiled round's O(1) count when one is bound)."""
        if self._compiled_round is not None:
            return self._compiled_round.all_done()
        return bool(self.done.all())

    # -- estimates and result building ---------------------------------------

    def estimates(self) -> np.ndarray:
        """Per-agent estimates currently reported (NaN where unavailable)."""
        return self.output

    def max_additive_error(self, population_size: int) -> float:
        """``max_agent |estimate - log2 n|`` over agents reporting an estimate."""
        reported = self.estimates()
        reported = reported[~np.isnan(reported)]
        if reported.size == 0:
            return math.inf
        return float(np.abs(reported - math.log2(population_size)).max())

    def distinct_state_bound(self, fields: VectorFields) -> int:
        """Product of realised field ranges (the Lemma 3.9 style state count)."""
        return int(
            (fields.max_observed("log_size2") + 1)
            * (fields.max_observed("gr") + 1)
            * (fields.max_observed("time") + 1)
            * (fields.max_observed("epoch") + 1)
        )

    def result_extra(self, fields: VectorFields) -> dict:
        """The run's result fields.

        ``final_estimate_mean`` / ``_min`` / ``_max`` summarise the per-agent
        estimates (NaN while none is reported); ``max_additive_error`` is
        ``max_agent |estimate - log2 n|``; ``log_size2`` is the (common)
        final weak estimate; ``distinct_state_bound`` is the product of the
        realised field ranges that Lemma 3.9 bounds by ``O(log^4 n)``.
        """
        reported = self.estimates()
        reported = reported[~np.isnan(reported)]
        if reported.size:
            mean_estimate = float(reported.mean())
            min_estimate = float(reported.min())
            max_estimate = float(reported.max())
        else:
            mean_estimate = min_estimate = max_estimate = math.nan
        return {
            "final_estimate_mean": mean_estimate,
            "final_estimate_min": min_estimate,
            "final_estimate_max": max_estimate,
            "max_additive_error": self.max_additive_error(fields.n),
            "log_size2": int(self.log_size2.max()),
            "distinct_state_bound": self.distinct_state_bound(fields),
        }


def expected_convergence_time(population_size: int, params: ProtocolParameters) -> float:
    """Rough a-priori estimate of the convergence time (used to size budgets).

    The protocol runs ``K = epochs_factor * logSize2`` epochs, each lasting
    about ``clock_threshold_factor * logSize2 / 2`` units of parallel time
    (each agent has about two interactions per unit of time), with
    ``logSize2 ~ log2 n + 2``.  Benchmarks multiply this by a safety factor to
    obtain their budgets.
    """
    log_estimate = math.log2(max(2, population_size)) + params.log_size2_offset + 1
    per_epoch = params.clock_threshold_factor * log_estimate / 2.0
    return params.epochs_factor * log_estimate * per_epoch
