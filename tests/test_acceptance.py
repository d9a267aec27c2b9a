"""Acceptance suite: ten criteria, each at its stated tolerance.

Each test prints one `ACCEPTANCE <n> ...: PASS/FAIL` line (visible with
`pytest -s`). Oracles are independent of the code paths they check: closed
form normal equations, brute-force enumeration, finite differences, hand
arithmetic, and byte comparison.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np

import replication as fixtures
from conftest import coherent_clean_config, fuzz_post_text, generative_corpus, run_cli
from regsent.preprocess import clean_text, hashtag_report
from regsent.regional import RegionSentiment, aggregate, shift_regression, shift_test
from regsent.sentiment import (
    LabeledExample,
    SentimentLabel,
    evaluate,
    logistic_loss_and_grad,
    predict,
    pseudo_label,
    train,
)
from regsent.stats import chi2_sf, design_matrix, ols, stepwise, student_t_sf

from datetime import date, datetime, timedelta, timezone


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def _rel_close(a, b, rtol=1e-8, atol=1e-12):
    return np.allclose(a, b, rtol=rtol, atol=atol)


def test_criterion_01_ols_matches_normal_equations_oracle():
    with criterion(1, "OLS oracle equivalence"):
        start = time.perf_counter()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 201))
            k = int(rng.integers(1, 11))
            while n <= k + 2:
                n += k + 2
            cols = rng.standard_normal((n, k))
            y = 0.3 + cols @ rng.normal(0, 1, k) + rng.standard_normal(n)
            d = design_matrix([f"v{i:02d}" for i in range(k)], cols, y)
            fit = ols(d)
            xtx = d.X.T @ d.X
            beta = np.linalg.solve(xtx, d.X.T @ y)
            resid = y - d.X @ beta
            rss = float(resid @ resid)
            xtx_inv = np.linalg.inv(xtx)
            se = np.sqrt(rss / (n - k - 1) * np.diag(xtx_inv))
            tss = float(((y - y.mean()) ** 2).sum())
            r2 = 1 - rss / tss
            assert _rel_close(fit.beta, beta)
            assert _rel_close(fit.se, se)
            assert _rel_close(fit.t, beta / se)
            assert math.isclose(fit.r2, r2, rel_tol=1e-8, abs_tol=1e-12)
            assert float(np.linalg.norm(d.X.T @ fit.residuals)) <= 1e-8 * float(np.linalg.norm(y))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def _oracle_rss(X1: np.ndarray, y: np.ndarray) -> float:
    beta = np.linalg.solve(X1.T @ X1, X1.T @ y)
    r = y - X1 @ beta
    return float(r @ r)


def _oracle_aic(rss: float, n: int, k: int) -> float:
    return n * math.log(2 * math.pi) + n * math.log(rss / n) + n + 2 * (k + 2)


def _oracle_stepwise(cols: np.ndarray, names: list[str], y: np.ndarray):
    """Independent greedy evaluator: normal-equations RSS, every single move,
    strict improvement, lexicographic-name ties."""
    n = len(y)
    ones = np.ones((n, 1))

    def aic_of(selected: set[str]) -> float:
        idx = [names.index(s) for s in names if s in selected]
        X1 = np.hstack([ones, cols[:, idx]]) if idx else ones
        return _oracle_aic(_oracle_rss(X1, y), n, len(idx))

    current = set(names)
    current_aic = aic_of(current)
    trace = []
    while True:
        candidates = []
        for name in names:
            after = current - {name} if name in current else current | {name}
            action = "drop" if name in current else "add"
            candidates.append((aic_of(after), name, action, after))
        best = min(candidates, key=lambda c: (c[0], c[1]))
        if best[0] >= current_aic:
            break
        current, current_aic = best[3], best[0]
        trace.append((best[2], best[1], best[0]))
    return trace, current, current_aic


def test_criterion_02_stepwise_matches_bruteforce_and_exhaustive_ranking():
    with criterion(2, "stepwise vs exhaustive"):
        start = time.perf_counter()
        in_top3 = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(80, 201))
            k = int(rng.integers(4, 13))
            idx = np.arange(k)
            corr = 0.3 ** np.abs(np.subtract.outer(idx, idx))
            cols = rng.standard_normal((n, k)) @ np.linalg.cholesky(corr).T
            beta = np.zeros(k)
            active = rng.choice(k, int(rng.integers(1, max(2, k // 2) + 1)), replace=False)
            beta[active] = rng.normal(0, 0.6, len(active)) + np.sign(rng.standard_normal(len(active))) * 0.3
            y = 0.5 + cols @ beta + rng.standard_normal(n)
            names = [f"p{i:02d}" for i in range(k)]
            d = design_matrix(names, cols, y)
            result = stepwise(d)

            oracle_trace, oracle_sel, oracle_aic = _oracle_stepwise(cols, names, y)
            assert [(m[1], m[2]) for m in result.trace] == [(t[0], t[1]) for t in oracle_trace]
            for mine, theirs in zip(result.trace, oracle_trace):
                assert abs(mine[3] - theirs[2]) <= 1e-8 * max(1.0, abs(theirs[2]))
            assert set(result.selected) == oracle_sel

            ones = np.ones((n, 1))
            better = 0
            for r in range(k + 1):
                for subset in itertools.combinations(range(k), r):
                    X1 = np.hstack([ones, cols[:, list(subset)]]) if subset else ones
                    if _oracle_aic(_oracle_rss(X1, y), n, r) < result.fit.aic - 1e-9:
                        better += 1
            in_top3 += better <= 2
        elapsed = time.perf_counter() - start
        assert in_top3 >= 95, f"only {in_top3}/100 in the exhaustive top 3"
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_03_distribution_accuracy():
    with criterion(3, "distribution accuracy"):
        assert 0.488 <= chi2_sf(0.477) <= 0.492
        assert abs(chi2_sf(3.841) - 0.0500) <= 5e-4
        for df in (1, 5, 30, 125):
            assert student_t_sf(0.0, df) == 0.5


# Reference standard errors used for the coefficient-recovery band.
_REFERENCE_SE = {
    "intercept": 0.0070,
    "sentiment": 0.0070,
    "urbanization": 0.0140,
    "divorces_per_capita": 0.0090,
    "migration_balance": 0.0080,
    "median_age": 0.0090,
}


def test_criterion_04_replication_fixture_recovery_and_selection():
    with criterion(4, "replication fixture recovery + selection"):
        start = time.perf_counter()
        successes = 0
        for seed in range(100):
            design = fixtures.replication_design(seed)
            d = design_matrix(design.names, design.columns, design.y)
            fit = ols(d)
            ok = abs(fit.beta[0] - design.intercept) < 2 * _REFERENCE_SE["intercept"]
            for i, name in enumerate(design.names):
                ok = ok and abs(fit.beta[i + 1] - design.betas[i]) < 2 * _REFERENCE_SE[name]
            selected = stepwise(d).selected
            ok = ok and set(selected) == set(design.names)
            successes += ok
        elapsed = time.perf_counter() - start
        assert successes >= 85, f"only {successes}/100 replications succeeded"
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def _regions_from_means(means_before, means_after, denom=10_000):
    regions = []
    for i, (mb, ma) in enumerate(zip(means_before, means_after)):
        pb = int(round(mb * denom))
        pa = int(round(ma * denom))
        regions.append(RegionSentiment(
            region_id=f"R{i:03d}", n_pos_before=pb, n_neg_before=denom - pb,
            n_pos_after=pa, n_neg_after=denom - pa, included=True,
        ))
    return regions


def test_criterion_05_dummy_identity_and_null_shift():
    with criterion(5, "period-dummy identity + null shift"):
        rng = np.random.default_rng(77)
        for _ in range(20):
            m = int(rng.integers(3, 60))
            mb = np.clip(rng.normal(0.5, 0.1, m), 0.01, 0.99)
            ma = np.clip(rng.normal(0.5, 0.1, m), 0.01, 0.99)
            regions = _regions_from_means(mb, ma)
            fit = shift_regression(regions)
            exact_before = np.mean([r.mean_before for r in regions])
            exact_after = np.mean([r.mean_after for r in regions])
            assert abs(fit.beta[1] - (exact_after - exact_before)) < 1e-12
        insignificant = 0
        for s in range(100):
            r = np.random.default_rng(33000 + s)
            mb = np.clip(r.normal(0.4724, 0.09, 126), 0.01, 0.99)
            ma = np.clip(r.normal(0.4724, 0.09, 126), 0.01, 0.99)
            fit = shift_regression(_regions_from_means(mb, ma))
            insignificant += fit.p[1] >= 0.05
        assert insignificant >= 90, f"flag significant too often: {100 - insignificant}/100"


def test_criterion_06_chi2_identities():
    with criterion(6, "chi-squared identities"):
        result = shift_test(25, 25, 25, 25)
        assert result.chi2 == 0.0 and result.p_value == 1.0
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b, c, d = (int(v) for v in rng.integers(1, 400, 4))
            base = shift_test(a, b, c, d).chi2
            assert abs(shift_test(c, d, a, b).chi2 - base) <= 1e-10 * max(1.0, base)
            assert abs(shift_test(a, c, b, d).chi2 - base) <= 1e-10 * max(1.0, base)
            n1, n2 = a + b, c + d
            pooled = (a + c) / (n1 + n2)
            z = (a / n1 - c / n2) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
            assert abs(base - z * z) <= 1e-10 * max(1.0, base)


def test_criterion_07_classifier_checks():
    with criterion(7, "classifier checks"):
        model = train(
            [LabeledExample(("good",), SentimentLabel.POSITIVE),
             LabeledExample(("bad",), SentimentLabel.NEGATIVE)],
            "naive_bayes", smoothing=1.0,
        )
        pred = predict(model, ["good"])
        assert abs(float(pred.scores[model.classes.index(SentimentLabel.POSITIVE)]) - 2 / 3) < 1e-12

        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(5, 20))
            v = int(rng.integers(2, 10))
            k = int(rng.integers(2, 4))
            X = rng.integers(0, 4, size=(n, v)).astype(float)
            y = rng.integers(0, k, size=n)
            w = rng.normal(0, 0.5, (k, v))
            b = rng.normal(0, 0.5, k)
            _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, 0.01)
            eps = 1e-6
            num_w = np.zeros_like(w)
            for i in range(k):
                for j in range(v):
                    up, down = w.copy(), w.copy()
                    up[i, j] += eps
                    down[i, j] -= eps
                    num_w[i, j] = (logistic_loss_and_grad(up, b, X, y, 0.01)[0]
                                   - logistic_loss_and_grad(down, b, X, y, 0.01)[0]) / (2 * eps)
            assert np.linalg.norm(grad_w - num_w) / max(1.0, np.linalg.norm(num_w)) < 1e-5

        start = time.perf_counter()
        rng2 = random.Random(8)
        separable = []
        for i in range(200):
            if i % 2:
                separable.append(LabeledExample(
                    tuple(rng2.choice(["fine", "nice", "sunny"]) for _ in range(4)), SentimentLabel.POSITIVE))
            else:
                separable.append(LabeledExample(
                    tuple(rng2.choice(["bleak", "rough", "rainy"]) for _ in range(4)), SentimentLabel.NEGATIVE))
        logistic = train(separable, "logistic")
        assert evaluate(logistic, separable).accuracy >= 0.99
        assert time.perf_counter() - start < 5.0


def test_criterion_08_pseudo_labeling_contract():
    with criterion(8, "pseudo-labeling contract"):
        labeled = generative_corpus(300, seed=41)
        snapshot = [(e.tokens, e.label) for e in labeled]
        heldout = generative_corpus(200, seed=42)
        pool_truth = generative_corpus(500, seed=43)
        model = train(labeled, "naive_bayes")
        pseudo = pseudo_label(model, [e.tokens for e in pool_truth])
        combined = labeled + pseudo
        assert all(combined[i] is labeled[i] for i in range(len(labeled)))
        assert [(e.tokens, e.label) for e in labeled] == snapshot

        heldout_acc = evaluate(model, heldout).accuracy
        truth = {e.tokens: e.label for e in pool_truth}
        agreement = sum(e.label is truth[e.tokens] for e in pseudo) / len(pseudo)
        assert agreement >= heldout_acc - 0.05, f"{agreement:.3f} vs heldout {heldout_acc:.3f}"


def test_criterion_09_preprocessing_anchors():
    with criterion(9, "preprocessing anchors"):
        config = coherent_clean_config()
        rng = random.Random(4242)
        accepted = 0
        for i in range(1000):
            cp = clean_text(fuzz_post_text(rng), config)
            again = clean_text(" ".join(cp.tokens + cp.kept_emojis), config)
            assert again.tokens == cp.tokens
            accepted += cp.accepted
        assert accepted > 100  # the fuzz corpus genuinely exercises acceptance

        # constructed misspelling corpus: exactly 47 of 1000 posts carry one
        # out-of-dictionary token, everything else passes the earlier gates
        words = sorted(config.dictionary - config.stop_words)
        posts = []
        for i in range(1000):
            tokens = [words[(i + j) % len(words)] for j in range(5)]
            if i < 47:
                tokens[2] = "zzqqx"
            posts.append(" ".join(tokens))
        results = [clean_text(text, config) for text in posts]
        misspelled = sum(r.rejected_reason == "misspelled" for r in results)
        assert misspelled == 47
        assert all(r.rejected_reason in (None, "misspelled") for r in results)
        assert misspelled / len(posts) == 0.047

        # hashtag share anchor: top tag at 964 occurrences of 56 374 total
        filler_counts = [893] * 62 + [44]
        assert sum(filler_counts) + 964 == 56_374
        tag_texts = [" ".join("#unity" for _ in range(964))]
        for i, count in enumerate(filler_counts):
            tag_texts.append(" ".join(f"#tag{i:03d}" for _ in range(count)))
        report = hashtag_report(tag_texts)
        assert sum(row.count for row in report) == 56_374
        top = report[0]
        assert top.item == "unity"
        assert abs(top.share - 0.0171) <= 1e-4  # within 0.01 percentage points

        # strict inclusion threshold
        event = date(2019, 10, 13)
        def obs(region, n):  # (id, region, timestamp, label) of n posts
            base = datetime(2019, 10, 1, tzinfo=timezone.utc)
            labels = (SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE)
            return [(f"{region}{i}", region, base + timedelta(minutes=i), labels[i % 2]) for i in range(n)]
        posts = obs("at", 100) + obs("above", 101)
        located = {post_id: (region, ts.date()) for post_id, region, ts, _ in posts}
        regions, _, _ = aggregate(located, [(post_id, label) for post_id, *_, label in posts], event, 100, "before")
        by_id = {r.region_id: r for r in regions}
        assert not by_id["at"].included
        assert by_id["above"].included


def test_criterion_10_pipeline_byte_identical(tmp_path):
    with criterion(10, "pipeline determinism"):
        start = time.perf_counter()
        fixture = tmp_path / "fixture"
        result = run_cli(["make-fixture", "--out", str(fixture), "--seed", "13"])
        assert result.returncode == 0, result.stderr
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            result = run_cli(["pipeline", "--config", str(fixture / "config.json"), "--out", str(out)])
            assert result.returncode == 0, result.stderr
            outs.append(out)
        a, b = outs
        names_a = sorted(p.name for p in a.iterdir())
        assert names_a == sorted(p.name for p in b.iterdir())
        different = [
            name for name in names_a
            if (a / name).read_bytes() != (b / name).read_bytes()
        ]
        assert different == [], f"artifacts differ: {different}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
