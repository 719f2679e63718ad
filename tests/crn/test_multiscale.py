"""Multiscale engine: regime switching, clamping, conservation, distribution.

The engine trades exactness for count-bound cost, so its tests target the
places the approximation can go wrong rather than bitwise trajectories:

- the :class:`RegimeController` must not thrash at thresholds (hysteresis),
- binomial clamping must keep counts non-negative under a stiff network,
- the exact <-> tau-leap <-> ODE handoffs must conserve the population,
- and tau-leap statistics must match the exact SSA reference in
  distribution at overlapping sizes (the same moment z-score methodology as
  ``benchmarks/bench_multiscale.py``, at test-sized budgets).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.crn import CRN, compile_crn, simulate_ssa
from repro.crn.multiscale import (
    DEFAULT_CRITICAL_THRESHOLD,
    DEFAULT_ODE_THRESHOLD,
    MultiscaleSimulator,
    RegimeController,
    integer_counts,
)
from repro.engine.selection import build_engine
from repro.exceptions import SimulationError
from repro.protocols.epidemic import EpidemicProtocol, EpidemicState

SIR = CRN.from_spec(
    ["S + I -> I + I @ 2.0", "I -> R @ 1.0"],
    name="sir",
    seeds={"I": 2},
    fractions={"S": 1.0},
)

#: Stiff fixture: the fast reaction burns B four orders of magnitude faster
#: than A is replenished, so naive Poisson leaps would overdraw B.
STIFF = CRN.from_spec(
    ["A + B -> C + C @ 1e4", "C + C -> A + B @ 1.0"],
    name="stiff",
    fractions={"A": 0.5, "B": 0.5},
)


class TestIntegerCounts:
    def test_preserves_total_with_fractional_parts(self):
        values = np.array([1.6, 2.7, 0.7])
        rounded = integer_counts(values, 5)
        assert rounded.sum() == 5
        # Largest remainders (.7, .7) win the two missing agents over .6.
        assert list(rounded) == [1.0, 3.0, 1.0]

    def test_reclaims_when_drift_pushes_sum_high(self):
        values = np.array([3.0, 3.0, 0.2])
        rounded = integer_counts(values, 5)
        assert rounded.sum() == 5
        assert rounded.min() >= 0

    def test_clips_negative_drift(self):
        values = np.array([-1e-9, 4.3, 0.7])
        rounded = integer_counts(values, 5)
        assert rounded.sum() == 5
        assert rounded.min() >= 0


class TestRegimeController:
    def test_threshold_validation(self):
        with pytest.raises(SimulationError):
            RegimeController(2, critical=0.0)
        with pytest.raises(SimulationError):
            RegimeController(2, critical=50.0, ode=50.0)
        with pytest.raises(SimulationError):
            RegimeController(2, hysteresis=0.5)

    def test_critical_flag_does_not_thrash_inside_the_band(self):
        # Oscillating between 15 and 25 around critical=20 with hysteresis 2:
        # recovery needs >= 40, so once critical the flag must stick.
        controller = RegimeController(1, critical=20.0, ode=1e5, hysteresis=2.0)
        active = np.array([True])
        flags = []
        for count in [15.0, 25.0] * 20:
            _, critical = controller.classify(np.array([count]), active)
            flags.append(bool(critical[0]))
        assert all(flags)

    def test_critical_flag_clears_past_the_hysteresis_band(self):
        controller = RegimeController(1, critical=20.0, ode=1e5, hysteresis=2.0)
        active = np.array([True])
        controller.classify(np.array([10.0]), active)
        assert controller.critical_mask()[0]
        _, critical = controller.classify(np.array([45.0]), active)
        assert not critical[0]

    def test_ode_flag_does_not_thrash_inside_the_band(self):
        # Oscillating between 0.9e5 and 1.5e5 around ode=1e5 with hysteresis
        # 2: exit needs < 5e4, so after entering, the regime must stick.
        controller = RegimeController(1, critical=20.0, ode=1e5, hysteresis=2.0)
        active = np.array([True])
        controller.classify(np.array([1.5e5]), active)
        assert controller.in_ode
        switches_after_entry = controller.switches
        for count in [0.9e5, 1.5e5] * 20:
            regime, _ = controller.classify(np.array([count]), active)
            assert regime == "ode"
        assert controller.switches == switches_after_entry

    def test_ode_exit_below_the_band(self):
        controller = RegimeController(1, critical=20.0, ode=1e5, hysteresis=2.0)
        active = np.array([True])
        controller.classify(np.array([2e5]), active)
        regime, _ = controller.classify(np.array([4e4]), active)
        assert regime == "stochastic" and not controller.in_ode
        assert controller.switches == 2

    def test_critical_channel_blocks_ode_entry(self):
        controller = RegimeController(2, critical=20.0, ode=1e5)
        active = np.array([True, True])
        regime, _ = controller.classify(np.array([2e5, 5.0]), active)
        assert regime == "stochastic"


class TestConstruction:
    def test_rejects_non_uniform_scheduler(self):
        # Through the selection seam: the capability matrix rejects first.
        with pytest.raises(SimulationError, match="not compatible"):
            build_engine(
                "multiscale", EpidemicProtocol(), 64, seed=0,
                scheduler="state-weighted",
            )
        # Direct construction: the engine explains *why* (mean-field model).
        with pytest.raises(SimulationError, match="uniform mixing"):
            MultiscaleSimulator(
                EpidemicProtocol(), 64, seed=0, scheduler="state-weighted"
            )

    def test_accepts_explicit_sequential_scheduler(self):
        engine = build_engine(
            "multiscale", EpidemicProtocol(), 64, seed=0, scheduler="sequential"
        )
        assert engine.regime == "stochastic"

    def test_leap_eps_bounds(self):
        for bad in (0.0, -0.1, 0.6):
            with pytest.raises(SimulationError, match="leap_eps"):
                MultiscaleSimulator(EpidemicProtocol(), 64, seed=0, leap_eps=bad)

    def test_regime_thresholds_validation(self):
        with pytest.raises(SimulationError, match="regime_thresholds"):
            MultiscaleSimulator(
                EpidemicProtocol(), 64, seed=0, regime_thresholds="nope"
            )
        with pytest.raises(SimulationError):
            MultiscaleSimulator(
                EpidemicProtocol(), 64, seed=0, regime_thresholds=(100.0, 50.0)
            )

    def test_unknown_engine_option_rejected(self):
        with pytest.raises(SimulationError, match="multiscale"):
            build_engine(
                "multiscale", EpidemicProtocol(), 64, seed=0, batch_size=32
            )

    def test_builds_a_billion_agents_from_the_protocol(self):
        # The epidemic's initial configuration has a closed form, so the
        # engine needs neither an explicit configuration nor n initial_state
        # calls at n = 10^9.
        n = 1_000_000_000
        engine = build_engine("multiscale", EpidemicProtocol(), n, seed=5)
        assert engine.count(EpidemicState.INFECTED) == 1
        engine.run_until(
            lambda e: e.count(EpidemicState.SUSCEPTIBLE) == 0,
            max_parallel_time=200.0,
        )
        assert engine.count(EpidemicState.INFECTED) == n


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        runs = []
        for _ in range(2):
            engine = compile_crn(SIR).build("multiscale", 5000, seed=21)
            trace = engine.run_with_trace(4.0, samples=8)
            runs.append([dict(point.configuration.items()) for point in trace])
        assert runs[0] == runs[1]

    def test_leap_eps_changes_the_leap_schedule(self):
        # A tighter tolerance must take shorter leaps (and hence more of
        # them) over the same horizon.
        leaps = []
        for eps in (0.05, 0.01):
            engine = compile_crn(SIR).build(
                "multiscale", 50_000, seed=21, leap_eps=eps
            )
            engine.run_parallel_time(8.0)
            leaps.append(engine.regime_stats()["leaps"])
        assert leaps[1] > leaps[0]


def _channel_order_sums(matrix: np.ndarray, rates: np.ndarray) -> list[float]:
    """Each row of ``matrix`` times ``rates``, summed channel by channel."""
    sums = []
    for row in matrix.tolist():
        total = row[0] * rates[0]
        for coefficient, rate in zip(row[1:], rates[1:]):
            total += coefficient * rate
        sums.append(total)
    return sums


def _multiscale_engines():
    """A multiscale engine per library network and finite-state protocol,
    as zero-argument factories."""
    from repro.crn.library import get_crn_workload
    from repro.protocols.majority import ApproximateMajorityProtocol

    def network(name):
        compiled = compile_crn(get_crn_workload(name).crn)
        return lambda: compiled.build("multiscale", 1_000, seed=1)

    def protocol(factory):
        return lambda: build_engine("multiscale", factory(), 1_000, seed=1)

    networks = ("sir", "approximate-majority", "predator-prey", "epidemic", "leader")
    return [pytest.param(network(name), id=name) for name in networks] + [
        pytest.param(protocol(EpidemicProtocol), id="protocol-epidemic"),
        pytest.param(protocol(ApproximateMajorityProtocol), id="protocol-majority"),
    ]


class TestChannelOrderSums:
    """The reference's float matrix-vector products sum in channel order, not
    through BLAS, whose order depends on the CPU kernel; the native loop
    repeats that order, so both are the same on every machine."""

    @pytest.mark.parametrize("build", _multiscale_engines())
    def test_derivative_and_cao_sums_are_channel_order_loops(
        self, build, monkeypatch
    ):
        engine = build()
        system = engine.system
        captured = []
        channel_sum = type(system).channel_sum

        def recording(self, matrix, rates):
            captured.append((matrix, rates.tolist()))
            return channel_sum(self, matrix, rates)

        monkeypatch.setattr(type(system), "channel_sum", recording, raising=False)
        rng = np.random.default_rng(17)
        for _ in range(300):
            counts = rng.random(system.num_species) * 10.0 ** rng.integers(0, 12)
            if rng.random() < 0.5:
                counts = np.floor(counts)
            rates = system.propensities(counts)
            assert system.derivative(counts).tolist() == _channel_order_sums(
                system.stoich_f, rates.tolist()
            )
            engine._counts = counts
            mask = rng.random(system.num_channels) < 0.7
            captured.clear()
            engine._cao_tau(rates, mask, 1.0)
            (mu_matrix, mu_rates), (var_matrix, var_rates) = captured
            assert mu_matrix is system.stoich_f and var_matrix is system.stoich_f2
            masked = np.where(mask, rates, 0.0).tolist()
            assert mu_rates == var_rates == masked
            assert channel_sum(system, system.stoich_f, rates).tolist() == (
                _channel_order_sums(system.stoich_f, rates.tolist())
            )
            assert channel_sum(system, system.stoich_f2, rates).tolist() == (
                _channel_order_sums(system.stoich**2, rates.tolist())
            )


class TestStiffClamping:
    """Counts must never go negative when leaps press against headroom."""

    def test_counts_stay_non_negative_and_conserved(self):
        n = 4000
        # critical=1 disables the exact fallback almost everywhere, forcing
        # the binomial clamp / halve-and-redraw path to do the work.
        engine = compile_crn(STIFF).build(
            "multiscale", n, seed=5, regime_thresholds=(1.0, 1e7)
        )
        for _ in range(50):
            engine.run_parallel_time(0.02)
            counts = dict(engine.configuration().items())
            assert all(count >= 0 for count in counts.values())
            assert sum(counts.values()) == n

    def test_aggressive_eps_still_clamps(self):
        n = 2000
        engine = compile_crn(STIFF).build(
            "multiscale", n, seed=9, leap_eps=0.5, regime_thresholds=(1.0, 1e7)
        )
        engine.run_parallel_time(1.0)
        counts = dict(engine.configuration().items())
        assert all(count >= 0 for count in counts.values())
        assert sum(counts.values()) == n


class TestRegimeHandoffs:
    """Exact <-> tau-leap <-> ODE transitions preserve the population."""

    def test_epidemic_crosses_all_regimes_and_conserves_n(self):
        n = 2_000_000
        engine = build_engine(
            "multiscale", EpidemicProtocol(), n, seed=3,
            regime_thresholds=(DEFAULT_CRITICAL_THRESHOLD, 1e4),
        )
        for _ in range(40):
            engine.run_parallel_time(1.0)
            assert sum(count for _, count in engine.configuration().items()) == n
        stats = engine.regime_stats()
        # One infected seed -> exact; growth -> leaps; bulk -> ODE; and the
        # S-exhaustion endgame must hand control back out of the ODE.
        assert stats["exact_events"] > 0
        assert stats["leaps"] > 0
        assert stats["ode_steps"] > 0
        assert stats["regime_switches"] >= 2
        assert engine.count(EpidemicState.INFECTED) == n

    def test_interactions_reports_effective_work(self):
        engine = build_engine("multiscale", EpidemicProtocol(), 1000, seed=0)
        engine.run_interactions(2500)
        assert engine.interactions == 2500
        assert engine.parallel_time == pytest.approx(2.5)

    def test_absorbed_system_jumps_the_clock(self):
        engine = build_engine("multiscale", EpidemicProtocol(), 500, seed=1)
        time = engine.run_until(
            lambda e: e.count(EpidemicState.INFECTED) == 500,
            max_parallel_time=200.0,
        )
        engine.run_parallel_time(100.0)
        assert engine.parallel_time == pytest.approx(time + 100.0)
        assert engine.count(EpidemicState.INFECTED) == 500


class TestDistributionVsSSA:
    """Tau-leap moments must match the exact SSA at overlapping sizes."""

    @staticmethod
    def _z(sample_a, sample_b):
        mean_a, mean_b = np.mean(sample_a), np.mean(sample_b)
        var_a = np.var(sample_a, ddof=1) / len(sample_a)
        var_b = np.var(sample_b, ddof=1) / len(sample_b)
        return abs(mean_a - mean_b) / math.sqrt(var_a + var_b)

    def test_sir_infected_moments_match(self):
        n, chem_time, runs = 2000, 2.0, 25
        compiled = compile_crn(SIR)
        horizon = compiled.rate_scale * chem_time
        leap_counts = []
        for seed in range(runs):
            engine = compiled.build("multiscale", n, seed=seed)
            engine.run_parallel_time(horizon)
            leap_counts.append(engine.count("I"))
        ssa_counts = [
            simulate_ssa(SIR, n, [chem_time], seed=1000 + seed).counts["I"][0]
            for seed in range(runs)
        ]
        assert self._z(leap_counts, ssa_counts) < 4.0

    def test_ode_means_match_tau_leap_at_large_n(self):
        # As n grows the ODE limit must reproduce tau-leap means: run the
        # same epidemic with the ODE regime enabled vs disabled and compare
        # the infected fraction at a fixed time.
        n, horizon = 1_000_000, 12.0
        fractions = []
        for ode_threshold in (1e4, 1e12):
            engine = build_engine(
                "multiscale", EpidemicProtocol(), n, seed=2,
                regime_thresholds=(DEFAULT_CRITICAL_THRESHOLD, ode_threshold),
            )
            engine.run_parallel_time(horizon)
            fractions.append(engine.count(EpidemicState.INFECTED) / n)
        assert abs(fractions[0] - fractions[1]) < 0.05

    def test_default_ode_threshold_exceeds_critical(self):
        assert DEFAULT_ODE_THRESHOLD > DEFAULT_CRITICAL_THRESHOLD
