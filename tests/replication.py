from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from regsent.errors import write_records
from regsent.regional import RegionSentiment


# ---------------------------------------------------------------------------
# Regression replication design
# ---------------------------------------------------------------------------

TABLE_INTERCEPT = 0.4246
TABLE_BETAS = {
    "sentiment": -0.0133,
    "urbanization": -0.0439,
    "divorces_per_capita": -0.0278,
    "migration_balance": -0.0459,
    "median_age": -0.0208,
}
#: Correlations between standardized regressors. Negative correlation between
#: the large-coefficient pairs lowers the explained variance for a fixed R2
#: target, which shrinks the noise floor enough for the smallest slope to be
#: reliably retained by AIC selection (independent regressors leave it with
#: |t| ~ 2, too unstable to survive selection in most replications).
TABLE_CORRELATIONS = {
    ("urbanization", "migration_balance"): -0.6,
    ("divorces_per_capita", "median_age"): -0.5,
}
TABLE_R2 = 0.51
TABLE_N = 126


@dataclass(frozen=True)
class ReplicationDesign:
    names: tuple[str, ...]
    columns: np.ndarray  # (n, 5), each column standardized (mean 0, sd 1, n-1 divisor)
    y: np.ndarray
    betas: np.ndarray
    intercept: float
    sigma: float


def _correlation_matrix(names: tuple[str, ...]) -> np.ndarray:
    k = len(names)
    sigma = np.eye(k)
    for (a, b), rho in TABLE_CORRELATIONS.items():
        i, j = names.index(a), names.index(b)
        sigma[i, j] = sigma[j, i] = rho
    return sigma


def replication_design(seed: int, n: int = TABLE_N, r2: float = TABLE_R2) -> ReplicationDesign:
    """Synthetic outcome data with the known slopes and a calibrated noise floor.

    Regressors are drawn from the correlated Gaussian above and then exactly
    standardized; sigma^2 = beta' Sigma beta * (1 - r2) / r2 so the population
    R-squared matches the target.
    """
    names = tuple(TABLE_BETAS)
    betas = np.array([TABLE_BETAS[name] for name in names])
    corr = _correlation_matrix(names)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, len(names))) @ np.linalg.cholesky(corr).T
    cols = (raw - raw.mean(axis=0)) / raw.std(axis=0, ddof=1)
    explained = float(betas @ corr @ betas)
    sigma = float(np.sqrt(explained * (1.0 - r2) / r2))
    y = TABLE_INTERCEPT + cols @ betas + rng.standard_normal(n) * sigma
    return ReplicationDesign(
        names=names, columns=cols, y=y, betas=betas, intercept=TABLE_INTERCEPT, sigma=sigma
    )


def write_replication_fixture(directory: str | Path, seed: int = 2019) -> Path:
    """CSV form of the replication design for the regression subcommands.

    The sentiment regressor is stored as a per-region positive share with
    counts that reproduce it exactly (total 1000 posts per region); the other
    regressors are stored on plausible raw scales. Standardizing recovers the
    design columns, so the fitted (standardized) coefficients keep the known
    values. Includes two pure-noise features so selection has work to do.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    base = replication_design(seed)
    n = len(base.y)
    rng = np.random.default_rng(seed + 1)

    # Quantize sentiment to count data, then rebuild the outcome with the
    # quantized (re-standardized) column so the design stays exactly linear.
    share = np.round(1000 * (0.5 + 0.1 * base.columns[:, 0])) / 1000
    z_sent = (share - share.mean()) / share.std(ddof=1)
    cols = base.columns.copy()
    cols[:, 0] = z_sent
    y = base.intercept + cols @ base.betas + rng.standard_normal(n) * base.sigma
    if y.min() <= 0.0 or y.max() >= 1.0:
        raise AssertionError("outcome left (0, 1); adjust the seed")

    # Raw scales; affine maps leave the standardized columns unchanged.
    raw_scale = {
        "urbanization": (0.55, 0.15),
        "divorces_per_capita": (0.002, 0.0005),
        "migration_balance": (0.0, 0.005),
        "median_age": (41.0, 2.5),
    }
    noise_features = {
        "unemployment": rng.normal(0.05, 0.015, n),
        "avg_salary": rng.normal(5200.0, 600.0, n),
    }

    def features():
        for i in range(n):
            row = [f"Q{i + 1:03d}", int(rng.integers(60000, 900000)), repr(float(y[i]))]
            for j, name in enumerate(base.names):
                if name == "sentiment":
                    continue
                mean, sd = raw_scale[name]
                row.append(repr(float(mean + sd * cols[i, j])))
            for name in sorted(noise_features):
                row.append(repr(float(noise_features[name][i])))
            yield row

    feature_names = [name for name in base.names if name != "sentiment"]
    header = ["region_id", "population", "outcome"] + feature_names + sorted(noise_features)
    write_records(directory / "region_features.csv", "csv", features(), header)

    def sentiments():
        for i in range(n):
            n_pos = int(round(share[i] * 1000))
            pos_before = n_pos // 2
            pos_after = n_pos - pos_before
            yield RegionSentiment(f"Q{i + 1:03d}", pos_before, 500 - pos_before, pos_after, 500 - pos_after, True).row()

    write_records(directory / "region_sentiment.csv", "csv", sentiments(), RegionSentiment.COLUMNS)

    config = {
        "paths": {"region_table": "region_features.csv"},
        "regression": {
            "standardize": True,
            "features": header[3:],
        },
        "seed": seed,
    }
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return config_path
