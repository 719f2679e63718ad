"""Adaptive multiscale engine: exact SSA → tau-leaping → mean-field ODE.

Every existing engine is *interaction-bound*: simulating parallel time ``t``
costs ``Theta(n t)`` work because each of the ``n t`` interactions (null or
not) is drawn, so ``n = 10^6`` is the practical ceiling (BENCH_crn.json).
This module trades exactness for *count-bound* cost: per step it partitions
the compiled reaction channels into

``exact``
    Channels whose minimum reactant count is below the *critical threshold*
    fire one event at a time as an exact continuous-time jump process —
    small-count fluctuations (a lone infected agent, the last few minority
    agents) are where discreteness decides the outcome.
``tau-leap``
    Channels with intermediate counts advance by Poisson leaps whose length
    is chosen by the Cao–Gillespie selector: the leap ``tau`` bounds the
    expected relative change of every reactant count by ``leap_eps``, so
    propensities are near-constant across the leap.  Draws whose mean is a
    large fraction of a channel's firing headroom use binomial clamping, and
    a leap that would drive any count negative is halved and redrawn.
``ODE``
    When every active channel's reactant counts exceed the *ODE threshold*,
    relative fluctuations are ``O(1/sqrt(count))`` and the whole system
    advances deterministically along the mean-field ODE (an embedded
    Dormand–Prince RK45 with adaptive step control; no scipy dependency).

A :class:`RegimeController` owns the partition and applies hysteresis — a
channel leaves a regime only after crossing ``HYSTERESIS`` times the entry
threshold — so trajectories hovering at a boundary do not thrash between
integrators.

Propensity model (why this is engine-shaped, not CRN-shaped)
------------------------------------------------------------
The engine consumes any :class:`~repro.protocols.base.FiniteStateProtocol`
through its compiled transition table.  Under the paper's uniform sequential
scheduler, the ordered state pair ``(a, b)`` is drawn with probability
``w_ab(c) / (n (n-1))`` where ``w_ab = c_a c_b`` (``c_a (c_a - 1)`` on the
diagonal), and an explicit outcome with probability ``p`` fires.  In
parallel-time units (``n`` interactions per unit) the channel therefore
fires at rate ``p * w_ab(c) / (n - 1)`` — exactly the event process the
interaction-bound engines realise, minus the null interactions they spend
time drawing.  For a CRN lowered in ``uniform`` mode these channel rates sum
to the mass-action propensities divided by the rate scale ``Gamma``
(``repro.crn.compile``), so chemical-time statistics convert through the
same ``parallel = Gamma * chemical`` mapping as every other engine.

Because the propensity model *is* the uniform well-mixed scheduler,
non-uniform scheduling policies are rejected: a weighted, two-block or
quiescing scenario changes the pair distribution per agent identity, which
a count-level mean-field treatment cannot express (see ``DESIGN.md``,
Multiscale CRN engine).

Determinism is per ``(seed, leap_eps, regime_thresholds)``: a run is exactly
reproducible from its seed, on every machine and backend.  The float
matrix-vector products sum in channel order
(:meth:`ReactionSystem.channel_sum`), not through BLAS, whose order depends
on the CPU kernel.
The engine resolves an array backend: the numpy loop below is the
reference, and the native backend runs the same loop in C, one call per
advance, making its draws in its order on its float64 arithmetic, so both
produce the same runs bit for bit.  Trajectories are *not* bitwise
comparable across engines (the approximation changes the sampled process,
not just the stream).  Validation is distributional — tau-leap moments
must match the SSA reference (``benchmarks/bench_multiscale.py``).
"""

from __future__ import annotations

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
from repro.protocols.compiled import compile_transition_table

__all__ = [
    "DEFAULT_CRITICAL_THRESHOLD",
    "DEFAULT_LEAP_EPS",
    "DEFAULT_ODE_THRESHOLD",
    "HYSTERESIS",
    "MultiscaleSimulator",
    "ReactionSystem",
    "RegimeController",
    "integer_counts",
]

#: Default Cao–Gillespie leap tolerance: bound on the expected relative
#: propensity change per leap.  0.05 is the literature's standard setting.
DEFAULT_LEAP_EPS = 0.05
#: Channels whose minimum reactant count is below this are simulated exactly.
DEFAULT_CRITICAL_THRESHOLD = 20.0
#: All active channels' reactant counts must exceed this before the system
#: switches to the mean-field ODE (relative fluctuation ~ 3e-3 at 1e5).
DEFAULT_ODE_THRESHOLD = 1e5
#: A regime is left only after crossing this multiple of its entry
#: threshold, so counts hovering at a boundary do not thrash integrators.
HYSTERESIS = 2.0

#: A leap shorter than this multiple of the mean exact-event spacing is not
#: worth its overhead; run a burst of exact events instead (Cao's rule).
_EXACT_MULTIPLE = 10.0
#: Number of exact events per burst before regimes are reclassified.
_EXACT_BURST = 64
#: Halve-and-redraw attempts before a failing leap falls back to exact.
_MAX_LEAP_RETRIES = 8
#: The error a stalled ODE stretch raises, on every backend.
_ODE_STALLED = (
    "the mean-field ODE integrator stalled (step size underflow); the system "
    "may be too stiff for the ODE regime — raise the ODE threshold via "
    "regime_thresholds"
)

#: RK45 (Dormand–Prince) Butcher tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
#: 5th-order solution weights (same as the last A row: FSAL pair).
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
#: 4th-order embedded weights for the error estimate.
_DP_B4 = np.array(
    [
        5179 / 57600,
        0.0,
        7571 / 16695,
        393 / 640,
        -92097 / 339200,
        187 / 2100,
        1 / 40,
    ]
)


def integer_counts(values: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative float counts to integers summing exactly to ``total``.

    Largest-remainder rounding: floor everything, then hand the missing
    agents to the largest fractional parts (or reclaim from the smallest,
    if float drift pushed the sum high).  Used whenever the ODE regime hands
    a continuous state back to a stochastic regime.
    """
    clipped = np.maximum(values, 0.0)
    floors = np.floor(clipped)
    deficit = total - int(floors.sum())
    if deficit > 0:
        order = np.argsort(-(clipped - floors), kind="stable")
        floors[order[:deficit]] += 1.0
    elif deficit < 0:
        order = np.argsort(clipped - floors, kind="stable")
        taken = 0
        for position in order:
            if taken == -deficit:
                break
            if floors[position] > 0:
                floors[position] -= 1.0
                taken += 1
    return floors


class ReactionSystem:
    """The per-channel reaction view of a compiled transition table at size ``n``.

    One *channel* is one explicit outcome of one ordered state pair: channel
    ``e`` has reactant state indices ``reactant_a[e], reactant_b[e]``, fires
    at parallel-time rate ``rate_coeff[e] * w(c)`` (``rate_coeff = p/(n-1)``,
    ``w`` the ordered-pair weight) and applies the net stoichiometry column
    ``stoich[:, e]``.  Channels whose net stoichiometry is zero (state swaps)
    are dropped: they change no count, and the engine's clock is parallel
    time rather than interactions, so they carry no information here.
    """

    def __init__(self, protocol: FiniteStateProtocol, population_size: int) -> None:
        table = compile_transition_table(protocol)
        self.states: tuple[Hashable, ...] = table.states
        self.index = table.index
        self.population_size = population_size
        size = table.num_states

        reactant_a: list[int] = []
        reactant_b: list[int] = []
        coeff: list[float] = []
        columns: list[np.ndarray] = []
        for i in range(size):
            for j in range(size):
                for k in range(int(table.outcome_count[i, j])):
                    column = np.zeros(size, dtype=np.int64)
                    column[i] -= 1
                    column[j] -= 1
                    column[int(table.outcome_receiver[i, j, k])] += 1
                    column[int(table.outcome_sender[i, j, k])] += 1
                    if not column.any():
                        continue  # pure state swap: a count-level no-op
                    reactant_a.append(i)
                    reactant_b.append(j)
                    coeff.append(
                        float(table.outcome_probability[i, j, k])
                        / (population_size - 1)
                    )
                    columns.append(column)

        self.num_species = size
        self.num_channels = len(columns)
        self.reactant_a = np.array(reactant_a, dtype=np.int64)
        self.reactant_b = np.array(reactant_b, dtype=np.int64)
        self.rate_coeff = np.array(coeff, dtype=np.float64)
        self.stoich = (
            np.stack(columns, axis=1)
            if columns
            else np.zeros((size, 0), dtype=np.int64)
        )
        self.is_diagonal = self.reactant_a == self.reactant_b
        #: The stoichiometry as floats, and squared, for :meth:`channel_sum`.
        self.stoich_f = self.stoich.astype(np.float64)
        self.stoich_f2 = self.stoich_f**2
        #: Per-channel consumption coefficients (``max(-stoich, 0)``).
        self.consumption = np.maximum(-self.stoich, 0).astype(np.float64)
        self._consumes = self.consumption > 0.0
        # Cao's g-factors: every channel is a pair interaction, so reactant
        # species get order 2; species some channel consumes twice get the
        # count-dependent 2 + 1/(c-1) correction at runtime.
        self.is_reactant = np.zeros(size, dtype=bool)
        self.is_reactant[self.reactant_a] = True
        self.is_reactant[self.reactant_b] = True
        self.needs_two = np.zeros(size, dtype=bool)
        if self.num_channels:
            self.needs_two[self.reactant_a[self.is_diagonal]] = True
        for array in (
            self.reactant_a,
            self.reactant_b,
            self.rate_coeff,
            self.stoich,
            self.stoich_f,
            self.stoich_f2,
            self.is_diagonal,
            self.consumption,
            self._consumes,
            self.is_reactant,
            self.needs_two,
        ):
            array.setflags(write=False)

    def propensities(self, counts: np.ndarray) -> np.ndarray:
        """Parallel-time channel rates at float ``counts`` (clipped at 0)."""
        ca = counts[self.reactant_a]
        cb = np.where(self.is_diagonal, ca - 1.0, counts[self.reactant_b])
        return self.rate_coeff * np.maximum(ca, 0.0) * np.maximum(cb, 0.0)

    def min_reactant(self, counts: np.ndarray) -> np.ndarray:
        """Per-channel minimum reactant count — the regime-deciding scale."""
        return np.minimum(counts[self.reactant_a], counts[self.reactant_b])

    def g_factors(self, counts: np.ndarray) -> np.ndarray:
        """Cao's per-species ``g_i`` at the current counts."""
        g = np.where(self.is_reactant, 2.0, 1.0)
        if self.needs_two.any():
            doubled = self.needs_two & (counts > 1.0)
            g = g + np.where(doubled, 1.0 / np.maximum(counts - 1.0, 1.0), 0.0)
        return g

    def channel_sum(self, matrix: np.ndarray, rates: np.ndarray) -> np.ndarray:
        """``matrix @ rates``, each species' terms summed in channel order.

        ``@`` hands float products to BLAS, whose summation order depends on
        the CPU kernel; a fixed order keeps a seeded run the same on every
        machine, and lets the native regime loop repeat it bit for bit.
        """
        if not self.num_channels:
            return np.zeros(self.num_species)
        return np.add.accumulate(matrix * rates, axis=1)[:, -1]

    def derivative(self, counts: np.ndarray) -> np.ndarray:
        """Mean-field ODE right-hand side (counts per unit parallel time)."""
        return self.channel_sum(self.stoich_f, self.propensities(counts))

    def _headroom(self, counts: np.ndarray) -> np.ndarray:
        """Largest number of firings each channel's consumed species allow."""
        with np.errstate(divide="ignore", invalid="ignore"):
            caps = np.where(
                self._consumes,
                np.floor(counts[:, None] / self.consumption),
                np.inf,
            )
        return caps.min(axis=0)

    def leap(
        self,
        counts: np.ndarray,
        mask: np.ndarray,
        tau: float,
        rng: np.random.Generator,
    ) -> tuple[bool, np.ndarray]:
        """One Poisson tau-leap over the ``mask`` channels, drawn on ``rng``.

        Draws whose mean exceeds 10% of a channel's firing headroom ``L``
        (the largest count of firings the consumed species allow) are
        clamped to ``Binomial(L, mean/L)`` — same mean, support bounded by
        the headroom — so a single channel can never overdraw its own
        reactants.  Returns ``(ok, new_counts)``; ``ok=False`` means
        channels competing for a shared species drove some count negative,
        and the caller should halve ``tau`` and call again.
        """
        lam = self.propensities(counts)
        active = mask & (lam > 0.0)
        draws = np.zeros(lam.size, dtype=np.int64)
        if active.any():
            means = lam[active] * tau
            headroom = self._headroom(counts)[active]
            clamp = means > 0.1 * headroom
            fired = np.zeros(means.size, dtype=np.int64)
            if clamp.any():
                trials = headroom[clamp].astype(np.int64)
                fired[clamp] = rng.binomial(
                    trials, np.minimum(means[clamp] / headroom[clamp], 1.0)
                )
            if (~clamp).any():
                fired[~clamp] = rng.poisson(means[~clamp])
            draws[active] = fired
        new_counts = counts + self.stoich @ draws
        return bool((new_counts >= 0.0).all()), new_counts


def _regime_thresholds(value) -> tuple[float, float]:
    """``(critical, ode)`` as floats, checked: ``0 < critical < ode``."""
    try:
        critical, ode = (float(number) for number in value)
    except (TypeError, ValueError):
        raise SimulationError(
            f"regime_thresholds must be a (critical, ode) pair of numbers, "
            f"got {value!r}"
        ) from None
    if not 0.0 < critical < ode:
        raise SimulationError(
            f"regime_thresholds must satisfy 0 < critical < ode, "
            f"got ({critical}, {ode})"
        )
    return critical, ode


class RegimeController:
    """Stateful exact / tau-leap / ODE partition with hysteresis.

    Per channel, a *critical* flag (exact handling) is set when the minimum
    reactant count drops below ``critical`` and cleared only once it exceeds
    ``critical * HYSTERESIS``.  Globally, the *ODE* flag is set when every
    active channel's minimum reactant count reaches ``ode`` (and none is
    critical) and cleared only when one drops below ``ode / HYSTERESIS``.
    Channels with zero propensity never influence either decision.
    """

    def __init__(
        self,
        num_channels: int,
        critical: float = DEFAULT_CRITICAL_THRESHOLD,
        ode: float = DEFAULT_ODE_THRESHOLD,
        hysteresis: float = HYSTERESIS,
    ) -> None:
        self.critical_threshold, self.ode_threshold = _regime_thresholds(
            (critical, ode)
        )
        if not hysteresis >= 1.0:
            raise SimulationError(f"hysteresis must be >= 1, got {hysteresis}")
        self.hysteresis = float(hysteresis)
        self._critical = np.ones(num_channels, dtype=bool)
        self._initialised = False
        self._ode = False
        self.switches = 0

    @property
    def in_ode(self) -> bool:
        """Whether the controller currently assigns the whole system to ODE."""
        return self._ode

    def critical_mask(self) -> np.ndarray:
        """The current per-channel critical flags (a copy)."""
        return self._critical.copy()

    def classify(
        self, min_reactant: np.ndarray, active: np.ndarray
    ) -> tuple[str, np.ndarray]:
        """Update the partition; return ``("ode"|"stochastic", critical_mask)``."""
        if not self._initialised:
            self._critical = min_reactant < self.critical_threshold
            self._initialised = True
        else:
            became_critical = min_reactant < self.critical_threshold
            recovered = min_reactant >= self.critical_threshold * self.hysteresis
            flipped = (became_critical & ~self._critical) | (
                recovered & self._critical
            )
            if flipped.any():
                self._critical = np.where(
                    became_critical, True, np.where(recovered, False, self._critical)
                )
        if active.any():
            floor = float(min_reactant[active].min())
        else:
            floor = np.inf
        if self._ode:
            if floor < self.ode_threshold / self.hysteresis:
                self._ode = False
                self.switches += 1
        else:
            if floor >= self.ode_threshold and not (self._critical & active).any():
                self._ode = True
                self.switches += 1
        return ("ode" if self._ode else "stochastic"), self._critical


class MultiscaleSimulator(CountArrayEngine):
    """Count-level engine advancing a protocol through adaptive regimes.

    A :class:`~repro.engine.running.CountArrayEngine` like the batched
    engine, so harness code, predicates and the CLI treat it as
    ``engine="multiscale"``.  Its clock is continuous:
    ``run_interactions(k)`` advances ``k / n`` units of parallel time,
    :meth:`run_parallel_time` exactly ``time``, and ``interactions`` reports
    the *effective* interaction count ``round(parallel_time * n)`` — the
    work an interaction-bound engine would have spent to get here, which is
    what makes "effective interactions/s" comparable across BENCH files.

    Parameters
    ----------
    leap_eps:
        Cao–Gillespie tolerance: bound on the expected relative propensity
        change per leap, in ``(0, 0.5]``; ``None`` uses
        ``DEFAULT_LEAP_EPS``.  Smaller is more accurate and slower.
    regime_thresholds:
        ``(critical, ode)`` count thresholds of the
        :class:`RegimeController`.  ``None`` uses the defaults.  A trial
        passes both in ``TrialSpec.engine_options``, checked by
        :meth:`check_options`; they join its key at the top level.
    backend:
        Array backend for the regime loop (a registered name, an
        :class:`~repro.backend.ArrayBackend` instance, or ``None`` for the
        process's backend).  The native backend runs the loop in C and
        makes the numpy loop's draws, so the choice never changes a run.
    scheduler:
        Accepted for interface parity; only the uniform ``"sequential"``
        policy is valid — the propensity model *is* uniform mixing (see the
        module docstring), so any other policy raises ``SimulationError``.
    """

    def __init__(
        self,
        protocol: FiniteStateProtocol,
        population_size: int,
        seed: int | None = None,
        initial_configuration: Configuration | None = None,
        scheduler: SchedulerSpec | str | None = None,
        leap_eps: float | None = None,
        regime_thresholds: tuple[float, float] | None = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        check_population_size(population_size)
        options = self.check_options(
            leap_eps=leap_eps, regime_thresholds=regime_thresholds
        )
        spec = SchedulerSpec.coerce(scheduler, default="sequential")
        if spec.name != "sequential":
            raise SimulationError(
                f"the multiscale engine assumes uniform mixing (its propensity "
                f"model is the mean-field limit of the sequential scheduler); "
                f"scheduler {spec.name!r} is not supported — run non-uniform "
                f"scenarios on the agent/count/batched/vector engines"
            )
        self.scheduler_spec = spec
        self.protocol = protocol
        self.population_size = population_size
        self.leap_eps = options["leap_eps"] or DEFAULT_LEAP_EPS
        self.regime_thresholds = options["regime_thresholds"] or (
            DEFAULT_CRITICAL_THRESHOLD, DEFAULT_ODE_THRESHOLD
        )

        self.system = ReactionSystem(protocol, population_size)
        self._states = self.system.states
        self._state_index = self.system.index
        self.controller = RegimeController(
            self.system.num_channels, *self.regime_thresholds
        )
        self._rng = np.random.default_rng(seed)

        self._counts = np.zeros(self.system.num_species, dtype=np.float64)
        for state, count in initial_configuration_for(
            protocol, population_size, initial_configuration, self.system.index
        ).items():
            self._counts[self.system.index[state]] = count
        self._seen = self._counts > 0.0
        self._ode_fractional = False

        self.parallel_time = 0.0
        #: Event/step counters per regime, for benchmarks and tests.
        self.exact_events = 0
        self.leaps = 0
        self.ode_steps = 0
        self.backend = resolve_backend(backend)
        self._kernel = self.backend.multiscale_kernel(self)

    @staticmethod
    def check_options(**options) -> dict:
        """The options given, checked and as floats (``None`` keeps a
        default): the one check the constructor and trial specs run, so
        ``(10, 10000)`` and ``(10.0, 1e4)`` are one key."""
        checked = dict(options)
        eps = options.get("leap_eps")
        if eps is not None:
            if not (isinstance(eps, numbers.Real) and 0.0 < eps <= 0.5):
                raise SimulationError(f"leap_eps must be in (0, 0.5], got {eps!r}")
            checked["leap_eps"] = float(eps)
        if options.get("regime_thresholds") is not None:
            checked["regime_thresholds"] = _regime_thresholds(
                options["regime_thresholds"]
            )
        return checked

    # -- inspection -----------------------------------------------------------

    @property
    def interactions(self) -> int:
        """Effective interactions: ``round(parallel_time * n)``."""
        return int(round(self.parallel_time * self.population_size))

    @property
    def regime(self) -> str:
        """The controller's current global regime (``"stochastic"``/``"ode"``)."""
        return "ode" if self.controller.in_ode else "stochastic"

    def regime_stats(self) -> dict[str, int]:
        """Per-regime work counters (exact events, leaps, ODE steps, switches)."""
        return {
            "exact_events": self.exact_events,
            "leaps": self.leaps,
            "ode_steps": self.ode_steps,
            "regime_switches": self.controller.switches,
        }

    def _state_counts(self) -> np.ndarray:
        """The counts, rounded (sum preserved) while in the ODE regime."""
        if self._ode_fractional:
            return integer_counts(self._counts, self.population_size)
        return self._counts

    def states_seen(self) -> frozenset[Hashable]:
        """All states that have had positive count at any point of the run."""
        return frozenset(
            state
            for position, state in enumerate(self.system.states)
            if self._seen[position]
        )

    # -- stepping -------------------------------------------------------------

    def run_interactions(self, count: int) -> None:
        """Advance ``count / n`` units of parallel time."""
        if count < 0:
            raise SimulationError(f"interaction count must be >= 0, got {count}")
        self._advance_to(self.parallel_time + count / self.population_size)

    def run_parallel_time(self, time: float) -> None:
        """Advance exactly ``time`` further units of parallel time.

        Overrides the shared ``ceil(time * n) / n`` rounding: the clock is
        continuous, and an ad-hoc ``--reaction`` run reports the chemical
        time it reached.
        """
        if time < 0:
            raise SimulationError(f"parallel time must be non-negative, got {time}")
        self._advance_to(self.parallel_time + time)

    # -- the regime loop ------------------------------------------------------

    def _advance_to(self, target: float) -> None:
        # Telemetry is one block per advance, recorded after the regime loop:
        # the loop itself stays clock-free (determinism: regime decisions
        # depend only on counts and the RNG stream, never on telemetry).
        t0 = _REC.now_ns()
        before = self.regime_stats()
        if self._kernel is not None:
            self._kernel(target)
        else:
            self._run_regimes(target)
        _REC.add_time("multiscale.advance", _REC.now_ns() - t0)
        for name, value in self.regime_stats().items():
            _REC.count(f"multiscale.{name}", value - before[name])

    def _run_regimes(self, target: float) -> None:
        """The reference regime loop, to ``target``."""
        guard = 1e-12 * max(1.0, abs(target))
        while self.parallel_time < target - guard:
            lam = self.system.propensities(self._counts)
            active = lam > 0.0
            if not active.any():
                # Absorbed: nothing can ever fire again, jump the clock.
                break
            regime, critical = self.controller.classify(
                self.system.min_reactant(self._counts), active
            )
            if regime == "ode":
                self._ode_advance(target)
                continue
            if self._ode_fractional:
                self._leave_ode_counts()
                lam = self.system.propensities(self._counts)
                active = lam > 0.0
                if not active.any():
                    break
            noncritical = active & ~critical
            if not noncritical.any():
                # Everything active is critical: plain exact SSA.
                self._exact_burst(target)
                continue
            total = float(lam.sum())
            tau1 = self._cao_tau(lam, noncritical, target - self.parallel_time)
            if tau1 < _EXACT_MULTIPLE / total:
                self._exact_burst(target)
                continue
            self._leap(lam, noncritical, critical & active, tau1, target)
        self.parallel_time = target

    def _leave_ode_counts(self) -> None:
        """Round the state back to integers when leaving the ODE regime."""
        if self._ode_fractional:
            self._counts = integer_counts(self._counts, self.population_size)
            self._ode_fractional = False

    def _note_seen(self) -> None:
        self._seen |= self._counts > 0.0

    def _cao_tau(
        self, lam: np.ndarray, mask: np.ndarray, remaining: float
    ) -> float:
        """The Cao–Gillespie leap length over the non-critical channels."""
        system = self.system
        lam_masked = np.where(mask, lam, 0.0)
        mu = system.channel_sum(system.stoich_f, lam_masked)
        sigma2 = system.channel_sum(system.stoich_f2, lam_masked)
        relevant = np.zeros(system.num_species, dtype=bool)
        relevant[system.reactant_a[mask]] = True
        relevant[system.reactant_b[mask]] = True
        bound = np.maximum(
            self.leap_eps * self._counts / system.g_factors(self._counts), 1.0
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            by_mean = np.where(mu != 0.0, bound / np.abs(mu), np.inf)
            by_var = np.where(sigma2 > 0.0, bound * bound / sigma2, np.inf)
        candidates = np.minimum(by_mean, by_var)[relevant]
        tau = float(candidates.min()) if candidates.size else np.inf
        return min(tau, remaining)

    def _exact_burst(self, target: float) -> None:
        """A burst of exact CTMC events (the SSA fallback regime)."""
        system = self.system
        for _ in range(_EXACT_BURST):
            lam = system.propensities(self._counts)
            total = float(lam.sum())
            if total <= 0.0:
                self.parallel_time = target
                return
            wait = self._rng.exponential(1.0 / total)
            if self.parallel_time + wait >= target:
                # Memorylessness: the discarded residual clock is immaterial.
                self.parallel_time = target
                return
            self.parallel_time += wait
            cumulative = np.cumsum(lam)
            channel = int(
                np.searchsorted(cumulative, self._rng.random() * total, side="right")
            )
            channel = min(channel, system.num_channels - 1)
            self._counts += system.stoich[:, channel]
            self.exact_events += 1
            self._note_seen()

    def _leap(
        self,
        lam: np.ndarray,
        noncritical: np.ndarray,
        critical_active: np.ndarray,
        tau1: float,
        target: float,
    ) -> None:
        """One tau-leap: Poisson/binomial advance plus at most one critical event."""
        system = self.system
        remaining = target - self.parallel_time
        a_critical = float(lam[critical_active].sum())
        tau2 = (
            self._rng.exponential(1.0 / a_critical) if a_critical > 0.0 else np.inf
        )
        tau = min(tau1, tau2, remaining)
        for _ in range(_MAX_LEAP_RETRIES):
            ok, new_counts = system.leap(self._counts, noncritical, tau, self._rng)
            if ok and tau2 <= tau and a_critical > 0.0:
                cumulative = np.cumsum(np.where(critical_active, lam, 0.0))
                channel = int(
                    np.searchsorted(
                        cumulative, self._rng.random() * a_critical, side="right"
                    )
                )
                channel = min(channel, system.num_channels - 1)
                new_counts = new_counts + system.stoich[:, channel]
                ok = bool((new_counts >= 0.0).all())
            if ok:
                self._counts = new_counts
                self.parallel_time += tau
                self.leaps += 1
                self._note_seen()
                return
            tau /= 2.0
        # Clamping kept failing: the counts are effectively critical.
        self._exact_burst(target)

    def _ode_advance(self, target: float) -> None:
        """Integrate the mean-field ODE until ``target`` or a regime exit."""
        system = self.system
        exit_threshold = self.controller.ode_threshold / self.controller.hysteresis
        y = self._counts.astype(np.float64, copy=True)
        t = self.parallel_time
        rtol = 1e-6
        atol = 1e-9 * self.population_size
        h = min(1.0, target - t)
        k1 = system.derivative(y)
        stalls = 0
        while t < target:
            h = min(h, target - t)
            stages = [k1]
            for row in range(1, 7):
                increment = sum(
                    coefficient * stage
                    for coefficient, stage in zip(_DP_A[row], stages)
                )
                stages.append(system.derivative(y + h * increment))
            y5 = y + h * sum(b * k for b, k in zip(_DP_B5, stages))
            y4 = y + h * sum(b * k for b, k in zip(_DP_B4, stages))
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            error = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
            if error <= 1.0:
                t += h
                y = np.maximum(y5, 0.0)
                k1 = system.derivative(y)
                self.ode_steps += 1
                stalls = 0
                lam = system.propensities(y)
                floor_counts = system.min_reactant(y)[lam > 0.0]
                if floor_counts.size and float(floor_counts.min()) < exit_threshold:
                    break
            else:
                stalls += 1
                if stalls > 60:
                    raise SimulationError(_ODE_STALLED)
            factor = 0.9 * error ** -0.2 if error > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
            h = max(h, 1e-14 * max(1.0, abs(target)))
        self._counts = y
        self._ode_fractional = True
        self._note_seen()
        self.parallel_time = min(t, target)
