"""Tests for the interaction schedulers and the scheduler-policy layer."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.engine.scheduler import (
    MatchingRoundScheduler,
    QuiescingPairScheduler,
    QuiescingRoundScheduler,
    RandomMatchingScheduler,
    SchedulerSpec,
    SequentialScheduler,
    TwoBlockPairScheduler,
    TwoBlockRoundScheduler,
    WeightedMatchingRoundScheduler,
    WeightedPairScheduler,
    draw_matching_arrays,
    get_scheduler_policy,
    scheduler_names,
)
from repro.exceptions import SimulationError
from repro.rng import RandomSource


class TestSequentialScheduler:
    def test_pairs_are_valid(self):
        scheduler = SequentialScheduler(8, RandomSource(seed=1))
        for _ in range(1000):
            pair = scheduler.next_pair()
            assert pair.receiver != pair.sender
            assert 0 <= pair.receiver < 8
            assert 0 <= pair.sender < 8

    def test_interaction_count_and_parallel_time(self):
        scheduler = SequentialScheduler(10, RandomSource(seed=2))
        for _ in range(25):
            scheduler.next_pair()
        assert scheduler.interactions_emitted == 25
        assert scheduler.parallel_time_elapsed == pytest.approx(2.5)

    def test_all_ordered_pairs_reachable(self):
        scheduler = SequentialScheduler(4, RandomSource(seed=3))
        seen = {scheduler.next_pair().as_tuple() for _ in range(3000)}
        assert len(seen) == 12  # 4 * 3 ordered pairs

    def test_roughly_uniform_over_agents(self):
        scheduler = SequentialScheduler(5, RandomSource(seed=4))
        participation = Counter()
        for _ in range(5000):
            pair = scheduler.next_pair()
            participation[pair.receiver] += 1
            participation[pair.sender] += 1
        expected = 2 * 5000 / 5
        for agent in range(5):
            assert abs(participation[agent] - expected) < 0.15 * expected

    def test_rejects_population_below_two(self):
        with pytest.raises(SimulationError):
            SequentialScheduler(1, RandomSource(seed=5))


class TestRandomMatchingScheduler:
    def test_each_round_touches_every_agent_once_even_n(self):
        n = 8
        scheduler = RandomMatchingScheduler(n, RandomSource(seed=1))
        agents = []
        for _ in range(n // 2):
            pair = scheduler.next_pair()
            agents.extend(pair.as_tuple())
        assert sorted(agents) == list(range(n))
        assert scheduler.rounds_completed == 1

    def test_odd_population_leaves_one_agent_idle_per_round(self):
        n = 7
        scheduler = RandomMatchingScheduler(n, RandomSource(seed=2))
        agents = []
        for _ in range(n // 2):
            pair = scheduler.next_pair()
            agents.extend(pair.as_tuple())
        assert len(agents) == 6
        assert len(set(agents)) == 6

    def test_pairs_are_valid_across_rounds(self):
        scheduler = RandomMatchingScheduler(10, RandomSource(seed=3))
        for _ in range(500):
            pair = scheduler.next_pair()
            assert pair.receiver != pair.sender

    def test_orientation_is_roughly_balanced(self):
        scheduler = RandomMatchingScheduler(2, RandomSource(seed=4))
        receiver_zero = sum(
            scheduler.next_pair().receiver == 0 for _ in range(2000)
        )
        assert 800 < receiver_zero < 1200

    def test_interactions_emitted_tracks_pairs(self):
        scheduler = RandomMatchingScheduler(6, RandomSource(seed=5))
        for _ in range(9):  # three full rounds of 3 pairs
            scheduler.next_pair()
        assert scheduler.interactions_emitted == 9
        assert scheduler.rounds_completed == 3


class TestSharedMatchingImplementation:
    """Regression: both matching code paths draw from one implementation.

    ``engine/vector.py`` used to re-implement the random-matching round
    independently of :class:`RandomMatchingScheduler`.  Both now call
    :func:`draw_matching_arrays`; the same numpy seed must yield the
    identical matching sequence through either path.
    """

    @pytest.mark.parametrize("n", [8, 9, 50, 51])
    def test_same_seed_same_matchings_across_both_code_paths(self, n):
        seed = 12345
        round_scheduler = MatchingRoundScheduler(n)
        round_rng = np.random.default_rng(seed)
        pair_scheduler = RandomMatchingScheduler(
            n, RandomSource(seed=0), matching_rng=np.random.default_rng(seed)
        )
        for _ in range(5):  # five full rounds
            receivers, senders = round_scheduler.draw_round(round_rng, 0.0)
            emitted = [pair_scheduler.next_pair() for _ in range(n // 2)]
            assert [pair.receiver for pair in emitted] == receivers.tolist()
            assert [pair.sender for pair in emitted] == senders.tolist()

    def test_round_scheduler_is_the_shared_draw(self):
        rec_direct, sen_direct = draw_matching_arrays(20, np.random.default_rng(7))
        rec_round, sen_round = MatchingRoundScheduler(20).draw_round(
            np.random.default_rng(7), 0.0
        )
        assert rec_direct.tolist() == rec_round.tolist()
        assert sen_direct.tolist() == sen_round.tolist()

    def test_subset_matching_only_touches_members(self):
        members = np.array([3, 5, 8, 13, 21])
        receivers, senders = draw_matching_arrays(members, np.random.default_rng(1))
        touched = set(receivers.tolist()) | set(senders.tolist())
        assert touched <= set(members.tolist())
        assert len(touched) == 4  # floor(5/2) disjoint pairs, one member idle


class TestWeightedPairScheduler:
    def test_lazy_agents_participate_proportionally_less(self):
        n, lazy_rate = 40, 0.1
        scheduler = WeightedPairScheduler(
            n, RandomSource(seed=3), lazy_fraction=0.5, lazy_rate=lazy_rate
        )
        participation = Counter()
        draws = 40_000
        for _ in range(draws):
            pair = scheduler.next_pair()
            assert pair.receiver != pair.sender
            participation[pair.receiver] += 1
            participation[pair.sender] += 1
        lazy = sum(participation[agent] for agent in range(n // 2))
        busy = sum(participation[agent] for agent in range(n // 2, n))
        # Expected ratio of per-agent participation is lazy_rate = 0.1.
        ratio = lazy / busy
        assert 0.05 < ratio < 0.2, ratio

    def test_rejects_degenerate_rates(self):
        with pytest.raises(SimulationError):
            WeightedPairScheduler(4, RandomSource(0), lazy_fraction=1.0, lazy_rate=0.0)


class TestTwoBlockPairScheduler:
    def test_cross_block_fraction_matches_intra(self):
        n, intra = 40, 0.8
        scheduler = TwoBlockPairScheduler(n, RandomSource(seed=5), intra=intra)
        boundary = scheduler.block_boundary
        cross = 0
        draws = 20_000
        for _ in range(draws):
            pair = scheduler.next_pair()
            assert pair.receiver != pair.sender
            if (pair.receiver < boundary) != (pair.sender < boundary):
                cross += 1
        assert cross / draws == pytest.approx(1 - intra, abs=0.03)

    def test_singleton_block_always_crosses(self):
        scheduler = TwoBlockPairScheduler(
            10, RandomSource(seed=6), intra=1.0, split=0.05
        )
        assert scheduler.block_boundary == 1
        for _ in range(200):
            pair = scheduler.next_pair()
            if 0 in (pair.receiver, pair.sender):
                # The lone block-A agent can only interact across.
                assert {pair.receiver, pair.sender} != {0}

    def test_option_validation(self):
        with pytest.raises(SimulationError):
            TwoBlockPairScheduler(10, RandomSource(0), intra=1.5)
        with pytest.raises(SimulationError):
            TwoBlockPairScheduler(10, RandomSource(0), split=0.0)


class TestQuiescingPairScheduler:
    def test_starved_agents_frozen_inside_window_only(self):
        n = 20
        scheduler = QuiescingPairScheduler(
            n, RandomSource(seed=7), fraction=0.25, start=0.0, duration=2.0
        )
        starved = set(range(scheduler.starved_count))
        assert starved == {0, 1, 2, 3, 4}
        in_window = [scheduler.next_pair() for _ in range(2 * n)]  # t < 2
        for pair in in_window:
            assert pair.receiver not in starved
            assert pair.sender not in starved
        after = [scheduler.next_pair() for _ in range(200 * n)]
        touched = {pair.receiver for pair in after} | {pair.sender for pair in after}
        assert starved <= touched  # the window has ended

    def test_rejects_starving_almost_everyone(self):
        with pytest.raises(SimulationError):
            QuiescingPairScheduler(4, RandomSource(0), fraction=0.9)


class TestRoundSchedulers:
    def test_weighted_round_thins_lazy_agents(self):
        n = 60
        scheduler = WeightedMatchingRoundScheduler(n, lazy_fraction=0.5, lazy_rate=0.1)
        rng = np.random.default_rng(11)
        lazy_hits = busy_hits = total_pairs = 0
        for _ in range(400):
            receivers, senders = scheduler.draw_round(rng, 0.0)
            assert receivers.size == senders.size
            agents = np.concatenate([receivers, senders])
            assert len(set(agents.tolist())) == agents.size  # disjoint pairs
            lazy_hits += int((agents < n // 2).sum())
            busy_hits += int((agents >= n // 2).sum())
            total_pairs += receivers.size
        assert total_pairs < 400 * (n // 2)  # rate-thinned rounds
        assert lazy_hits / max(1, busy_hits) < 0.25

    def test_two_block_round_structure(self):
        scheduler = TwoBlockRoundScheduler(30, intra=0.5, split=0.5)
        rng = np.random.default_rng(13)
        saw_intra = saw_cross = False
        for _ in range(100):
            receivers, senders = scheduler.draw_round(rng, 0.0)
            agents = np.concatenate([receivers, senders])
            assert len(set(agents.tolist())) == agents.size
            cross = (receivers < 15) != (senders < 15)
            if cross.all() and cross.size:
                saw_cross = True
            if (~cross).all() and cross.size:
                saw_intra = True
        assert saw_intra and saw_cross

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("option", ["start", "duration"])
    @pytest.mark.parametrize(
        "form",
        [
            lambda n, **options: QuiescingPairScheduler(n, RandomSource(0), **options),
            QuiescingRoundScheduler,
        ],
        ids=["pair", "round"],
    )
    def test_quiescing_forms_reject_non_finite_windows(self, form, option, value):
        # Both forms run their policy's check; they used to test only
        # `< 0`, which NaN passes, and accept an endless window.
        with pytest.raises(SimulationError, match="finite"):
            form(20, **{option: value})

    def test_quiescing_round_respects_window(self):
        scheduler = QuiescingRoundScheduler(20, fraction=0.25, start=1.0, duration=5.0)
        rng = np.random.default_rng(17)
        receivers, senders = scheduler.draw_round(rng, 3.0)  # inside the window
        agents = set(receivers.tolist()) | set(senders.tolist())
        assert agents.isdisjoint(range(5))
        assert receivers.size == (20 - 5) // 2
        receivers, senders = scheduler.draw_round(rng, 10.0)  # after the window
        assert receivers.size == 10


class TestSchedulerSpecAndRegistry:
    def test_known_names_registered(self):
        names = scheduler_names()
        for expected in (
            "sequential",
            "matching",
            "weighted",
            "two-block",
            "quiescing",
            "state-weighted",
        ):
            assert expected in names

    def test_unknown_name_rejected_at_spec_construction(self):
        with pytest.raises(SimulationError):
            SchedulerSpec(name="warp-drive")

    def test_unknown_option_rejected(self):
        with pytest.raises(SimulationError):
            SchedulerSpec("two-block", (("warp", 9),)).build_policy()

    def test_invalid_option_value_rejected(self):
        with pytest.raises(SimulationError):
            SchedulerSpec("weighted", (("lazy_rate", 0.0),)).build_policy()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "name,option",
        [
            ("state-weighted", "rates"),
            ("state-weighted", "default_rate"),
            ("quiescing", "start"),
            ("quiescing", "duration"),
        ],
    )
    def test_non_finite_option_values_rejected(self, name, option, value):
        # NaN passes a `< 0` check; a NaN or infinite rate or window must
        # fail in the constructor, not as a numpy error mid-run (or, for a
        # window, as a starvation that never starts).
        raw = f"I:{value}" if option == "rates" else value
        with pytest.raises(SimulationError, match="finite"):
            SchedulerSpec(name, ((option, raw),)).build_policy()

    def test_coerce_forms(self):
        assert SchedulerSpec.coerce(None, default="matching").name == "matching"
        assert SchedulerSpec.coerce("weighted").name == "weighted"
        spec = SchedulerSpec("two-block", (("intra", 0.95),))
        assert SchedulerSpec.coerce(spec) is spec
        with pytest.raises(SimulationError):
            SchedulerSpec.coerce(spec, options={"intra": 0.5})

    def test_capability_errors_are_informative(self):
        with pytest.raises(SimulationError, match="per-pair"):
            SchedulerSpec("state-weighted").build_policy().make_pair_scheduler(
                8, RandomSource(0)
            )
        with pytest.raises(SimulationError, match="count-compressed"):
            SchedulerSpec("two-block").build_policy().state_rate_function()
        with pytest.raises(SimulationError, match="round"):
            SchedulerSpec("sequential").build_policy().make_round_scheduler(8)

    def test_label_and_cache_payload(self):
        spec = SchedulerSpec("two-block", (("intra", 0.95),))
        assert spec.label() == "two-block(intra=0.95)"
        payload = spec.cache_payload()
        assert payload["name"] == "two-block"
        assert payload["options"] == [("intra", "0.95")]

    def test_state_weighted_rates(self):
        policy = get_scheduler_policy("state-weighted")(
            rates=(("I", 0.5),), default_rate=1.0
        )
        rate_of = policy.state_rate_function()
        assert rate_of("I") == 0.5
        assert rate_of("S") == 1.0
        rates = policy.state_rates(["I", "S"])
        assert rates.tolist() == [0.5, 1.0]


class TestOptionCoercion:
    """Typed option validation at resolve time (no raw strings reach the
    policy constructors, no bare ValueError escapes)."""

    def test_resolve_coerces_string_values_to_floats(self):
        from repro.engine.selection import resolve_scheduler_spec

        spec = resolve_scheduler_spec("agent", "two-block", {"intra": "0.95"})
        assert spec.options == (("intra", 0.95),)
        assert isinstance(spec.options[0][1], float)

    def test_resolve_rejects_uncoercible_values_with_clear_error(self):
        from repro.engine.selection import resolve_scheduler_spec

        with pytest.raises(SimulationError, match="'lazy_rate'.*must be a float"):
            resolve_scheduler_spec("agent", "weighted", {"lazy_rate": "abc"})

    def test_resolve_rejects_unknown_option_keys(self):
        from repro.engine.selection import resolve_scheduler_spec

        with pytest.raises(SimulationError, match="does not accept option 'bogus'"):
            resolve_scheduler_spec("agent", "weighted", {"bogus": 1})
        with pytest.raises(SimulationError, match="allowed: none"):
            resolve_scheduler_spec("count", "sequential", {"bogus": 1})

    def test_coerced_spec_is_canonical_for_cache_identity(self):
        string_spec = SchedulerSpec("two-block", (("intra", "0.95"),)).coerced()
        float_spec = SchedulerSpec("two-block", (("intra", 0.95),)).coerced()
        assert string_spec == float_spec
        assert string_spec.cache_payload() == float_spec.cache_payload()

    def test_coerced_is_identity_for_already_typed_options(self):
        spec = SchedulerSpec("two-block", (("intra", 0.95),))
        assert spec.coerced() is spec

    def test_build_policy_applies_coercion(self):
        policy = SchedulerSpec("weighted", (("lazy_rate", "0.25"),)).build_policy()
        assert policy.lazy_rate == 0.25
        with pytest.raises(SimulationError, match="must be a float"):
            SchedulerSpec("weighted", (("lazy_rate", "abc"),)).build_policy()

    def test_state_weighted_structured_rates_pass_through(self):
        from repro.engine.selection import resolve_scheduler_spec

        spec = resolve_scheduler_spec(
            "count", "state-weighted", {"rates": "I:0.5", "default_rate": "2"}
        )
        options = spec.options_dict()
        assert options["rates"] == "I:0.5"  # parsed by the policy itself
        assert options["default_rate"] == 2.0

    def test_trial_spec_surfaces_bad_option_values_at_build_time(self):
        from repro.harness.parallel import build_finite_state_trials

        with pytest.raises(SimulationError, match="must be a float"):
            build_finite_state_trials(
                [64],
                1,
                protocol="epidemic",
                engine="agent",
                scheduler="two-block",
                scheduler_options={"intra": "wide"},
            )

    def test_trial_cache_key_is_canonical_across_option_types(self):
        # Regression: a string "0.95" and the float 0.95 (or the int 1 the
        # CLI parses vs a library caller's 1.0) must name the same trial —
        # otherwise a resumed sweep re-executes every cached trial.
        from repro.harness.parallel import build_finite_state_trials

        def key(value):
            (spec,) = build_finite_state_trials(
                [64],
                1,
                protocol="epidemic",
                engine="agent",
                scheduler="two-block",
                scheduler_options={"intra": value},
            )
            return spec.cache_key()

        assert key("0.95") == key(0.95)
        assert key(1) == key(1.0)
        assert key(0.95) != key(0.9)
