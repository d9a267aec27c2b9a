"""Aggregation, shift tests, and the period-dummy regression."""

from __future__ import annotations

import math
import random
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from regsent.errors import DataValidationError
from regsent.regional import (
    RegionSentiment,
    SentimentLabel,
    aggregate,
    pooled_shift_test,
    shift_regression,
    shift_summary,
    shift_test,
)

EVENT = date(2019, 10, 13)


def obs(region, day_offset, positive):
    """A located, classified post: (region, timestamp, label)."""
    ts = datetime(2019, 10, 13, 12, 0, tzinfo=timezone.utc) + timedelta(days=day_offset)
    return region, ts, SentimentLabel.POSITIVE if positive else SentimentLabel.NEGATIVE


def fold(observations, threshold, event_day="before"):
    """`aggregate` over `obs` posts, each under its own id: (regions, n_neutral, n_without_region)."""
    located = {f"p{i}": (region, ts.date()) for i, (region, ts, _) in enumerate(observations)}
    predictions = [(f"p{i}", label) for i, (_, _, label) in enumerate(observations)]
    return aggregate(located, predictions, EVENT, threshold, event_day)


def rs(region_id, pb, nb, pa, na, included=True):
    return RegionSentiment(
        region_id=region_id, n_pos_before=pb, n_neg_before=nb,
        n_pos_after=pa, n_neg_after=na, included=included,
    )


class TestAggregate:
    def test_mean_and_inclusion(self):
        observations = (
            [obs("R1", -5, True)] * 30 + [obs("R1", -5, False)] * 20
            + [obs("R1", 5, True)] * 30 + [obs("R1", 5, False)] * 21
        )
        regions, neutral, skipped = fold(observations, threshold=100)
        assert neutral == skipped == 0
        (r,) = regions
        assert (r.n_pos_before, r.n_neg_before, r.n_pos_after, r.n_neg_after) == (30, 20, 30, 21)
        assert abs(r.mean_sentiment - 60 / 101) < 1e-12
        assert r.included  # 101 > 100

    def test_exactly_threshold_excluded_one_more_included(self):
        at_100 = [obs("A", -1, i % 2 == 0) for i in range(100)]
        at_101 = [obs("B", -1, i % 2 == 0) for i in range(101)]
        regions, _, _ = fold(at_100 + at_101, threshold=100)
        by_id = {r.region_id: r for r in regions}
        assert by_id["A"].total == 100 and not by_id["A"].included
        assert by_id["B"].total == 101 and by_id["B"].included

    def test_event_day_counts_as_before_unless_after(self):
        regions, _, _ = fold([obs("R", 0, True)], threshold=0, event_day="before")
        assert regions[0].n_pos_before == 1 and regions[0].n_pos_after == 0
        regions, _, _ = fold([obs("R", 0, True)], threshold=0, event_day="after")
        assert regions[0].n_pos_before == 0 and regions[0].n_pos_after == 1

    def test_event_day_typo_raises(self):
        with pytest.raises(ValueError, match="event_day must be 'before' or 'after'"):
            fold([obs("R", 0, True)], threshold=0, event_day="afterwards")

    def test_posts_without_region_counted(self):
        observations = [obs(None, -1, True), obs("", 1, False), obs("R", 1, False)]
        regions, _, skipped = fold(observations, threshold=0)
        assert skipped == 2
        assert len(regions) == 1

    @pytest.mark.parametrize("label", list(SentimentLabel))
    def test_every_label_needs_a_located_id(self, label):
        located = {"p": ("R", date(2019, 10, 1))}
        regions, neutral, _ = aggregate(located, [("p", SentimentLabel.NEUTRAL)], EVENT, 0, "before")
        assert neutral == 1 and regions == []
        with pytest.raises(DataValidationError, match="^prediction for unknown post id 'ghost'$"):
            aggregate(located, [("p", SentimentLabel.POSITIVE), ("ghost", label)], EVENT, 0, "before")

    def test_against_recount_oracle(self):
        rng = random.Random(55)
        observations = [
            obs(f"R{rng.randint(1, 5)}", rng.randint(-30, 30), rng.random() < 0.6)
            for _ in range(800)
        ]
        regions, _, skipped = fold(observations, threshold=50)
        assert skipped == 0
        for r in regions:
            mine = [(ts, label) for region, ts, label in observations if region == r.region_id]
            pos = sum(label is SentimentLabel.POSITIVE for _, label in mine)
            before = sum(ts.date() <= EVENT for ts, _ in mine)
            assert r.total == len(mine)
            assert r.n_pos_before + r.n_pos_after == pos
            assert r.n_pos_before + r.n_neg_before == before
            assert abs(r.mean_sentiment - pos / len(mine)) < 1e-12
            assert r.included == (len(mine) > 50)
        assert sum(r.total for r in regions) == len(observations)

    @given(
        st.lists(st.tuples(
            st.sampled_from([None, "", "A", "B", "C"]),  # region
            st.integers(-2, 2),  # day offset from the event day
            st.integers(0, 23),  # hour, so event-day posts fall at any time of that day
            st.sampled_from(list(SentimentLabel)),
            st.booleans(),  # whether the post has a prediction
        ), max_size=60),
        st.integers(0, 6),
        st.sampled_from(["before", "after"]),
    )
    @settings(max_examples=200)
    def test_matches_brute_force_count(self, posts, threshold, event_day):
        located = {
            f"p{i}": (region, datetime(2019, 10, 13 + offset, hour, tzinfo=timezone.utc).date())
            for i, (region, offset, hour, _, _) in enumerate(posts)
        }
        predictions = [(f"p{i}", label) for i, (*_, label, predicted) in enumerate(posts) if predicted]
        regions, neutral, no_region = aggregate(located, predictions, EVENT, threshold, event_day)

        polar = [(*located[post_id], label) for post_id, label in predictions if label is not SentimentLabel.NEUTRAL]
        assert neutral == len(predictions) - len(polar)
        assert no_region == sum(not region for region, _, _ in polar)

        def count(region, positive, before):
            return sum(
                r == region and (label is SentimentLabel.POSITIVE) == positive
                and (day < EVENT or (day == EVENT and event_day == "before")) == before
                for r, day, label in polar
            )

        expected = {
            region: tuple(count(region, positive, before) for before in (True, False) for positive in (True, False))
            for region in {region for region, _, _ in polar if region}
        }
        assert [r.region_id for r in regions] == sorted(expected)
        for r in regions:
            assert (r.n_pos_before, r.n_neg_before, r.n_pos_after, r.n_neg_after) == expected[r.region_id]
            assert r.included == (sum(expected[r.region_id]) > threshold)


class TestShiftTest:
    def test_symmetric_table_is_null(self):
        result = shift_test(25, 25, 25, 25)
        assert result.chi2 == 0.0
        assert result.p_value == 1.0
        assert not result.degenerate

    def test_hand_computed_table(self):
        # chi2 = 60 * (10*10 - 20*20)^2 / 30^4 = 6.667, p ~ 0.0098
        result = shift_test(10, 20, 20, 10)
        assert abs(result.chi2 - 60 * (100 - 400) ** 2 / 30**4) < 1e-12
        assert abs(result.chi2 - 6.666666666666667) < 1e-12
        assert abs(result.p_value - 0.0098) < 2e-4

    def test_zero_margin_convention(self):
        result = shift_test(0, 0, 10, 20)
        assert result.degenerate
        assert result.chi2 == 0.0 and result.p_value == 1.0

    @given(st.tuples(*[st.integers(1, 200)] * 4))
    @settings(max_examples=200)
    def test_row_swap_and_transpose_invariance(self, table):
        a, b, c, d = table
        base = shift_test(a, b, c, d).chi2
        assert abs(shift_test(c, d, a, b).chi2 - base) < 1e-10 * max(1.0, base)
        assert abs(shift_test(a, c, b, d).chi2 - base) < 1e-10 * max(1.0, base)

    @given(st.tuples(*[st.integers(1, 500)] * 4))
    @settings(max_examples=200)
    def test_equals_squared_two_proportion_z(self, table):
        a, b, c, d = table
        n1, n2 = a + b, c + d
        p1, p2 = a / n1, c / n2
        pooled = (a + c) / (n1 + n2)
        z = (p1 - p2) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
        chi2 = shift_test(a, b, c, d).chi2
        assert abs(chi2 - z * z) < 1e-10 * max(1.0, chi2)
        # matching p-values through the distributional identity
        assert abs(shift_test(a, b, c, d).p_value - 2 * scipy_stats.norm.sf(abs(z))) < 1e-8

    def test_pooled_table_near_reference_statistic(self):
        # construct a pooled table whose statistic lands on ~0.477 and check
        # the implied p-value against the 0.490 reference
        half = 250_000
        best_x = min(range(200, 600), key=lambda x: abs(shift_test(half, half, half + x, half - x).chi2 - 0.477))
        result = shift_test(half, half, half + best_x, half - best_x)
        assert abs(result.chi2 - 0.477) < 5e-3
        assert abs(result.p_value - 0.490) < 2e-3

    def test_pooled_over_regions_matches_summed_table(self):
        regions = [rs("R1", 10, 12, 9, 14), rs("R2", 30, 20, 35, 25), rs("R3", 5, 5, 5, 5, included=False)]
        pooled = pooled_shift_test(regions)
        direct = shift_test(40, 32, 44, 39)
        assert pooled.chi2 == direct.chi2


class TestShiftRegression:
    def test_no_change_gives_zero_flag_p_one(self):
        regions = [rs("A", 30, 20, 30, 20), rs("B", 10, 40, 10, 40), rs("C", 25, 25, 25, 25)]
        fit = shift_regression(regions)
        assert abs(fit.beta[1]) < 1e-14
        assert fit.p[1] > 0.9999

    def test_two_region_dummy_identity(self):
        regions = [rs("A", 32, 18, 21, 29), rs("B", 15, 35, 28, 22)]
        fit = shift_regression(regions)
        before = (32 / 50 + 15 / 50) / 2
        after = (21 / 50 + 28 / 50) / 2
        assert abs(fit.beta[1] - (after - before)) < 1e-12
        assert abs(fit.beta[0] - before) < 1e-12

    def test_small_effect_rarely_significant(self):
        # effect -0.0061 against residual sd 0.09 across 126 regions: the
        # period flag should stay insignificant at 5% in at least 90 of 100 runs
        insignificant = 0
        for s in range(100):
            rng = np.random.default_rng(11000 + s)
            regions = []
            for i in range(126):
                mb = float(np.clip(rng.normal(0.4724, 0.09), 0.01, 0.99))
                ma = float(np.clip(rng.normal(0.4724 - 0.0061, 0.09), 0.01, 0.99))
                pb = int(round(mb * 10000))
                pa = int(round(ma * 10000))
                regions.append(rs(f"R{i:03d}", pb, 10000 - pb, pa, 10000 - pa))
            fit = shift_regression(regions)
            insignificant += fit.p[1] >= 0.05
        assert insignificant >= 90

    def test_fewer_than_two_regions_fatal(self):
        with pytest.raises(DataValidationError):
            shift_regression([rs("A", 10, 10, 10, 10)])

    def test_empty_period_region_skipped(self, caplog):
        regions = [rs("A", 30, 20, 30, 20), rs("B", 10, 40, 12, 38), rs("C", 10, 10, 0, 0)]
        fit = shift_regression(regions)
        assert fit.n == 4  # C contributes nothing


class TestShiftSummary:
    def test_counts(self):
        per_region = {f"R{i}": shift_test(25, 25, 25, 25) for i in range(4)}
        summary = shift_summary(per_region, alpha=0.05)
        assert summary["n_significant"] == 0 and summary["n_tested"] == 4

    def test_one_significant(self):
        per_region = {"R1": shift_test(25, 25, 25, 25), "R9": shift_test(100, 300, 300, 100)}
        summary = shift_summary(per_region, alpha=0.05)
        assert summary["n_significant"] == 1
        assert summary["significant_regions"] == ["R9"]

    def test_null_simulation_within_binomial_band(self):
        # no true shift: significants at alpha=0.05 over 126 regions should
        # land inside the central 99% binomial band around 6.3
        rng = np.random.default_rng(606)
        per_region = {}
        for i in range(126):
            pb = int(rng.binomial(200, 0.5))
            pa = int(rng.binomial(200, 0.5))
            per_region[f"R{i}"] = shift_test(pb, 200 - pb, pa, 200 - pa)
        summary = shift_summary(per_region, alpha=0.05)
        assert 0 <= summary["n_significant"] <= 13
