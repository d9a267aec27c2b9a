"""Regression, AIC selection, and distribution-function checks against
independent oracles (scipy, closed-form normal equations, brute force)."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from regsent import stats
from regsent.errors import RankDeficiencyError
from regsent.stats import (
    DesignMatrix,
    _best_move,
    chi2_sf,
    design_matrix,
    f_sf,
    gaussian_aic,
    ols,
    standardize,
    stepwise,
    student_t_sf,
    subset_design,
)


def random_design(rng, n=None, k=None, name_prefix="x"):
    n = n or int(rng.integers(25, 200))
    k = k or int(rng.integers(1, 10))
    cols = rng.standard_normal((n, k))
    beta = rng.normal(0.0, 1.0, k)
    y = 0.5 + cols @ beta + rng.standard_normal(n)
    names = [f"{name_prefix}{i:02d}" for i in range(k)]
    return design_matrix(names, cols, y)


class TestDistributions:
    def test_chi2_sf_reference_points(self):
        assert 0.488 <= chi2_sf(0.477) <= 0.492
        assert abs(chi2_sf(3.841) - 0.05) < 5e-4
        assert chi2_sf(0.0) == 1.0

    def test_student_t_sf_at_zero_is_exact_half(self):
        for df in (1, 5, 30, 125, 1000):
            assert student_t_sf(0.0, df) == 0.5

    def test_two_sided_t_near_normal_for_large_df(self):
        assert abs(2 * student_t_sf(1.96, 1000) - 0.0502) < 5e-4

    def test_against_scipy_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            df = int(rng.integers(1, 250))
            x = float(rng.uniform(0, 60))
            assert abs(chi2_sf(x) - scipy_stats.chi2.sf(x, 1)) < 1e-10
            t = float(rng.uniform(-12, 12))
            assert abs(student_t_sf(t, df) - scipy_stats.t.sf(t, df)) < 1e-10
            f = float(rng.uniform(0, 30))
            d1 = int(rng.integers(1, 40))
            assert abs(f_sf(f, d1, df) - scipy_stats.f.sf(f, d1, df)) < 1e-10

    def test_chi2_equals_squared_normal_tail(self):
        rng = np.random.default_rng(8)
        for z in rng.uniform(-6, 6, 300):
            assert abs(chi2_sf(z * z) - 2 * scipy_stats.norm.sf(abs(z))) < 1e-8

    def test_chi2_sf_relative_error_down_the_tail(self):
        # every value the reference can tell from zero, from p = 1 down to 1e-300 (x about 1370)
        xs = np.linspace(0.0, 1400.0, 14001)
        for x, reference in zip(xs, scipy_stats.chi2.sf(xs, 1)):
            if reference >= 1e-300:
                assert abs(chi2_sf(float(x)) - reference) <= 1e-12 * reference, x

    def test_monotone_and_bounded(self):
        values = [student_t_sf(t, 7) for t in np.linspace(-8, 8, 101)]
        assert all(1 >= a >= b >= 0 for a, b in zip(values, values[1:]))


class TestOls:
    def test_exact_line(self):
        x = np.arange(10, dtype=float)
        y = 3.0 + 2.0 * x
        fit = ols(design_matrix(["x"], x.reshape(-1, 1), y))
        assert np.allclose(fit.beta, [3.0, 2.0], atol=1e-10)
        assert fit.r2 == 1.0
        assert np.allclose(fit.residuals, 0.0, atol=1e-10)

    def test_orthogonal_regressor_gets_zero_slope(self):
        # x sums to zero and y is constant: zero correlation by construction
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0] * 4)
        y = np.ones(20) * 0.3
        fit = ols(design_matrix(["x"], x.reshape(-1, 1), y))
        assert abs(fit.beta[1]) < 1e-10

    def test_zero_correlation_slope_p_near_one(self):
        # y symmetric in x: slope exactly zero, noise in the intercept only
        x = np.concatenate([np.arange(1, 11.0), -np.arange(1, 11.0)])
        y = np.concatenate([np.arange(1, 11.0) ** 2, np.arange(1, 11.0) ** 2])
        fit = ols(design_matrix(["x"], x.reshape(-1, 1), y))
        assert abs(fit.beta[1]) < 1e-10
        assert fit.p[1] > 0.999

    def test_matches_normal_equations_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            d = random_design(rng)
            fit = ols(d)
            xtx = d.X.T @ d.X
            beta = np.linalg.solve(xtx, d.X.T @ d.y)
            resid = d.y - d.X @ beta
            rss = float(resid @ resid)
            se = np.sqrt(rss / (d.n - d.k - 1) * np.diag(np.linalg.inv(xtx)))
            assert np.allclose(fit.beta, beta, rtol=1e-8)
            assert np.allclose(fit.se, se, rtol=1e-8)
            assert np.allclose(fit.t, beta / se, rtol=1e-8)
            assert np.linalg.norm(d.X.T @ fit.residuals) <= 1e-8 * np.linalg.norm(d.y)

    def test_pvalues_match_scipy(self):
        rng = np.random.default_rng(11)
        d = random_design(rng, n=60, k=3)
        fit = ols(d)
        expected = 2 * scipy_stats.t.sf(np.abs(fit.t), d.n - d.k - 1)
        assert np.allclose(fit.p, expected, atol=1e-10)
        f_expected = scipy_stats.f.sf(fit.f_stat, d.k, d.n - d.k - 1)
        assert abs(fit.f_p - f_expected) < 1e-10

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        cols = np.column_stack([x, 2.0 * x])
        d = design_matrix(["first", "copy_of_first"], cols, rng.standard_normal(30))
        with pytest.raises(RankDeficiencyError, match="copy_of_first"):
            ols(d)

    def test_constant_column_rejected_at_build(self):
        with pytest.raises(ValueError, match="constant"):
            design_matrix(["flat"], np.ones((10, 1)), np.arange(10.0))

    def test_zero_noise_recovery_across_condition_numbers(self):
        rng = np.random.default_rng(5)
        n, k = 80, 4
        for cond in (1e0, 1e3, 1e6):
            u, _ = np.linalg.qr(rng.standard_normal((n, k)))
            v, _ = np.linalg.qr(rng.standard_normal((k, k)))
            sv = np.logspace(0, math.log10(cond), k)[::-1]
            cols = u @ np.diag(sv) @ v.T
            beta = rng.normal(0, 1, k)
            y = 1.0 + cols @ beta
            fit = ols(design_matrix([f"c{i}" for i in range(k)], cols, y))
            assert np.allclose(fit.beta[1:], beta, rtol=1e-9, atol=1e-9)

    def test_dummy_coefficient_equals_group_mean_difference(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = int(rng.integers(4, 40))
            g0 = rng.normal(0.5, 0.1, m)
            g1 = rng.normal(0.45, 0.1, m)
            y = np.concatenate([g0, g1])
            flag = np.concatenate([np.zeros(m), np.ones(m)])
            fit = ols(design_matrix(["flag"], flag.reshape(-1, 1), y))
            assert abs(fit.beta[1] - (g1.mean() - g0.mean())) < 1e-12
            assert abs(fit.beta[0] - g0.mean()) < 1e-12

    def test_adding_predictor_never_decreases_r2(self):
        rng = np.random.default_rng(13)
        for seed in range(15):
            r = np.random.default_rng(seed)
            d = random_design(r, n=60, k=5)
            sub = subset_design(d, d.names[:-1])
            assert ols(d).r2 >= ols(sub).r2 - 1e-12

    def test_adj_r2_identity(self):
        rng = np.random.default_rng(17)
        d = random_design(rng, n=50, k=4)
        fit = ols(d)
        expected = 1 - (1 - fit.r2) * (fit.n - 1) / (fit.n - d.k - 1)
        assert abs(fit.adj_r2 - expected) < 1e-12


class TestStandardize:
    def test_two_point_column(self):
        d = design_matrix(["x"], np.array([[0.0], [2.0], [0.0], [2.0]]), np.array([0.0, 1.0, 0.1, 0.9]))
        sd_x = np.std([0, 2, 0, 2], ddof=1)
        z = standardize(d)
        assert abs(z.X[:, 1].mean()) < 1e-12 and abs(z.X[:, 1].std(ddof=1) - 1.0) < 1e-12
        assert np.array_equal(z.X[:, 0], np.ones(4))
        assert np.allclose(sorted(set(np.round(z.X[:, 1], 6))), sorted({(0 - 1) / sd_x, (2 - 1) / sd_x}), atol=1e-6)

    def test_two_observation_scaling_constant(self):
        # (0, 2) with the n-1 divisor maps to -1/sqrt(2), +1/sqrt(2)
        col = np.array([0.0, 2.0])
        scaled = (col - col.mean()) / col.std(ddof=1)
        assert np.allclose(scaled, [-0.7071, 0.7071], atol=5e-5)

    def test_already_standardized_unchanged(self):
        rng = np.random.default_rng(3)
        col = rng.standard_normal(40)
        col = (col - col.mean()) / col.std(ddof=1)
        d = design_matrix(["z"], col.reshape(-1, 1), rng.standard_normal(40))
        z = standardize(d)
        assert np.allclose(z.X, d.X, atol=1e-12)

    def test_fit_invariants_under_standardization(self):
        rng = np.random.default_rng(9)
        d = random_design(rng, n=90, k=4)
        z = standardize(d)
        assert np.allclose(z.X[:, 1:].mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.X[:, 1:].std(axis=0, ddof=1), 1.0, atol=1e-12)
        raw, std = ols(d), ols(z)
        assert np.allclose(d.X @ raw.beta, z.X @ std.beta, atol=1e-10)
        assert abs(raw.r2 - std.r2) < 1e-9
        assert abs(raw.f_stat - std.f_stat) < 1e-9 * max(1.0, raw.f_stat)
        assert abs(raw.aic - std.aic) < 1e-9 * abs(raw.aic)
        assert np.allclose(raw.t[1:], std.t[1:], rtol=1e-9)

    def test_zero_variance_fatal(self):
        d = DesignMatrix(names=("x",), X=np.column_stack([np.ones(5), np.ones(5)]), y=np.arange(5.0))
        with pytest.raises(ValueError, match="zero variance"):
            standardize(d)


class TestAic:
    def test_monotone_in_rss(self):
        assert gaussian_aic(2.0, 50, 3) > gaussian_aic(1.0, 50, 3)

    def test_difference_formula(self):
        # convention constant cancels in differences: only n ln ratio + 2*dk remains
        n = 77
        a = gaussian_aic(3.0, n, 4) - gaussian_aic(2.0, n, 6)
        assert abs(a - (n * math.log(3.0 / 2.0) + 2 * (4 - 6))) < 1e-10

    def test_noise_predictor_increases_aic_iff_rss_drop_small(self):
        rng = np.random.default_rng(23)
        hits = 0
        for seed in range(25):
            r = np.random.default_rng(seed)
            n = 60
            x = r.standard_normal((n, 1))
            noise = r.standard_normal((n, 1))
            y = 1.0 + 2.0 * x[:, 0] + r.standard_normal(n)
            small = ols(design_matrix(["x"], x, y))
            big = ols(design_matrix(["x", "noise"], np.hstack([x, noise]), y))
            # exact condition: AIC increases iff n ln(rss_big/rss_small) > -2
            increases = big.aic > small.aic
            predicted = n * math.log(big.rss / small.rss) > -2.0
            assert increases == predicted
            hits += increases
        assert hits > 15  # pure-noise predictors usually hurt

    def test_zero_rss_sentinel(self):
        with pytest.warns(RuntimeWarning):
            assert gaussian_aic(0.0, 10, 1) == float("-inf")


class TestStepwise:
    def test_noise_predictor_dropped(self):
        rng = np.random.default_rng(3)
        n = 200
        signal = rng.standard_normal(n)
        noise = rng.standard_normal(n)
        y = 1.0 + 2.0 * signal + 0.1 * rng.standard_normal(n)
        d = design_matrix(["signal", "noise"], np.column_stack([signal, noise]), y)
        result = stepwise(d)
        assert result.selected == ("signal",)
        assert result.trace == ((1, "drop", "noise", result.fit.aic),)

    def test_pure_noise_reduces_to_intercept_only(self):
        rng = np.random.default_rng(42)
        n = 150
        cols = rng.standard_normal((n, 3))
        y = rng.standard_normal(n)
        result = stepwise(design_matrix(["a", "b", "c"], cols, y))
        assert result.selected == ()
        assert result.fit.names == ()

    def test_forward_from_empty_finds_signal(self):
        rng = np.random.default_rng(6)
        n = 150
        cols = rng.standard_normal((n, 4))
        y = 0.2 + 1.5 * cols[:, 2] + 0.2 * rng.standard_normal(n)
        result = stepwise(design_matrix(["a", "b", "c", "d"], cols, y), direction="forward", start="empty")
        assert "c" in result.selected
        assert result.trace[0][1:3] == ("add", "c")

    def test_trace_aic_strictly_decreasing_and_final_is_minimum(self):
        rng = np.random.default_rng(10)
        d = random_design(rng, n=120, k=8)
        result = stepwise(d)
        aics = [result.start_aic] + [move[3] for move in result.trace]
        assert all(a > b for a, b in zip(aics, aics[1:]))
        assert abs(result.fit.aic - aics[-1]) < 1e-9 or not result.trace

    def test_tie_break_by_name_not_input_order(self):
        tied = [
            (5.0, "zeta", "drop", {"zeta"}),
            (5.0, "alpha", "drop", {"alpha"}),
            (6.0, "mid", "add", {"mid"}),
        ]
        assert _best_move(tied)[1] == "alpha"
        assert _best_move(list(reversed(tied)))[1] == "alpha"

    def test_direction_validation(self):
        rng = np.random.default_rng(1)
        d = random_design(rng, n=30, k=2)
        with pytest.raises(ValueError):
            stepwise(d, direction="sideways")
        with pytest.raises(ValueError):
            stepwise(d, start="middle")


def reference_stepwise(d, direction, start):
    """(trace, start_aic) of the search with every candidate fitted through ols()."""
    current = set(d.names) if start == "full" else set()
    current_aic = ols(subset_design(d, current)).aic
    start_aic = current_aic
    trace = []
    while True:
        candidates = []
        if direction in ("backward", "both"):
            candidates += [(current - {name}, name, "drop") for name in d.names if name in current]
        if direction in ("forward", "both"):
            candidates += [(current | {name}, name, "add") for name in d.names if name not in current]
        if not candidates:
            break
        best_aic, name, action, after = _best_move(
            [(ols(subset_design(d, after)).aic, name, action, after) for after, name, action in candidates])
        if best_aic >= current_aic:
            break
        current, current_aic = after, best_aic
        trace.append((len(trace) + 1, action, name, best_aic))
    return tuple(trace), start_aic


def near_collinear_design(rng):
    """A design with a few active predictors, some columns near copies of others (r up to 0.999)."""
    n = int(rng.integers(40, 250))
    k = int(rng.integers(3, 13))
    cols = rng.standard_normal((n, k))
    for j in rng.choice(np.arange(1, k), int(rng.integers(1, k)), replace=False):
        rho = rng.uniform(0.9, 0.999)
        cols[:, j] = rho * cols[:, int(rng.integers(0, j))] + math.sqrt(1.0 - rho * rho) * cols[:, j]
    beta = np.zeros(k)
    active = rng.choice(k, int(rng.integers(1, k // 2 + 2)), replace=False)
    beta[active] = rng.normal(0.0, 0.5, len(active))
    y = 0.3 + cols @ beta + rng.standard_normal(n)
    d = design_matrix([f"x{i:02d}" for i in range(k)], cols, y)
    return standardize(d) if rng.random() < 0.5 else d


class TestStepwiseScreening:
    """Ranking candidates on one QR factor of [X, y] takes the moves fitting every candidate takes."""

    @pytest.mark.parametrize("direction, start", itertools.product(("backward", "forward", "both"), ("full", "empty")))
    def test_trace_equals_fitting_every_candidate(self, direction, start):
        moves = 0
        for seed in range(100):
            d = near_collinear_design(np.random.default_rng(7000 + seed))
            result = stepwise(d, direction, start)
            trace, start_aic = reference_stepwise(d, direction, start)
            assert result.trace == trace, seed
            assert result.start_aic == start_aic, seed
            refit = ols(subset_design(d, result.selected))
            for field in ("beta", "se", "p"):
                assert np.array_equal(getattr(result.fit, field), getattr(refit, field)), (seed, field)
            assert result.fit.aic == refit.aic, seed
            moves += len(trace)
        assert moves > 100 or (direction, start) in (("backward", "empty"), ("forward", "full"))  # no move allowed

    def test_candidates_are_not_fitted_through_qr_of_the_design(self, monkeypatch):
        calls = 0
        fit = stats._qr_rank_checked

        def counted(d):
            nonlocal calls
            calls += 1
            return fit(d)

        monkeypatch.setattr(stats, "_qr_rank_checked", counted)
        result = stepwise(near_collinear_design(np.random.default_rng(11)), "both", "full")
        assert result.trace
        assert calls <= len(result.trace) + 3

    @pytest.mark.parametrize("direction, start", [("forward", "empty"), ("both", "empty"), ("both", "full")])
    def test_rank_deficient_candidate_names_the_column(self, direction, start):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 120))
        y = 1.0 + 2.0 * a - 1.5 * b + 0.3 * rng.standard_normal(120)
        d = design_matrix(["a", "b", "c"], np.column_stack([a, b, a + b]), y)
        with pytest.raises(RankDeficiencyError, match="at column 'c'"):
            stepwise(d, direction, start)
