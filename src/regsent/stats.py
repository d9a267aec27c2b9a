"""Least squares with full inference, AIC, stepwise predictor selection, and
the distribution survival functions backing every p-value in the toolkit.

The survival functions are self-contained so that results do not depend on
an external stats stack: t and F through a continued-fraction evaluation of
the regularized incomplete beta integral, and chi-squared with one degree of
freedom through math.erfc.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, RankDeficiencyError

__all__ = [
    "DesignMatrix",
    "OlsFit",
    "StepwiseResult",
    "chi2_sf",
    "design_matrix",
    "f_sf",
    "format_fit_table",
    "gaussian_aic",
    "ols",
    "regularized_incomplete_beta",
    "significance_stars",
    "standardize",
    "stepwise",
    "student_t_sf",
    "subset_design",
]

_MAX_ITER = 500
_CONV_EPS = 3e-15
_TINY = 1e-300

# Rank tolerance for the QR diagonal, relative to the largest column norm.
_RANK_RTOL = 1e-10


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CONV_EPS:
            return h
    raise NumericalError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta integral on [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Symmetry transform keeps the continued fraction in its fast-converging zone.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def chi2_sf(x: float) -> float:
    """Survival function of the chi-squared distribution with one degree of
    freedom: erfc(sqrt(x / 2)) (Abramowitz & Stegun, Handbook of Mathematical
    Functions, 26.4)."""
    if x <= 0.0:
        return 1.0
    return math.erfc(math.sqrt(x / 2.0))


def student_t_sf(t: float, df: int) -> float:
    """Survival function of Student's t. Exactly 0.5 at t = 0."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if t == 0.0:
        return 0.5
    if t < 0.0:
        return 1.0 - student_t_sf(-t, df)
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)


def f_sf(f: float, df1: int, df2: int) -> float:
    """Survival function of the F distribution."""
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------

class DesignMatrix(NamedTuple):
    """Regression design: leading intercept column plus named predictors."""

    names: tuple[str, ...]
    X: np.ndarray  # shape (n, k+1); column 0 is the intercept
    y: np.ndarray  # shape (n,)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return len(self.names)


def design_matrix(names: "list[str] | tuple[str, ...]", columns, y) -> DesignMatrix:
    """Build and validate a DesignMatrix from predictor columns and a response.

    `columns` is (n, k) without the intercept; the intercept is prepended here.
    Rejects non-finite values, constant predictor columns, duplicate names, and
    designs with too few observations (n must exceed k + 1).
    """
    names = tuple(names)
    y = np.asarray(y, dtype=float)
    cols = np.asarray(columns, dtype=float)
    if cols.shape != (len(y), len(names)):
        raise ValueError(f"columns shape {cols.shape} does not match {len(y)} rows x {len(names)} names")
    if len(set(names)) != len(names):
        raise ValueError("duplicate predictor names")
    if not np.all(np.isfinite(cols)) or not np.all(np.isfinite(y)):
        raise ValueError("design contains non-finite values")
    n = len(y)
    if n <= len(names) + 1:
        raise ValueError(f"need more than {len(names) + 1} observations, got {n}")
    for j, name in enumerate(names):
        if cols[:, j].max() == cols[:, j].min():
            raise ValueError(f"predictor '{name}' is constant")
    X = np.column_stack([np.ones(n), cols])
    return DesignMatrix(names=names, X=X, y=y)


def subset_design(d: DesignMatrix, keep: "set[str] | list[str] | tuple[str, ...]") -> DesignMatrix:
    """Design restricted to `keep` predictors, preserving original column order."""
    keep = set(keep)
    unknown = keep - set(d.names)
    if unknown:
        raise KeyError(f"unknown predictors: {sorted(unknown)}")
    idx = [0] + [i + 1 for i, name in enumerate(d.names) if name in keep]
    names = tuple(name for name in d.names if name in keep)
    return DesignMatrix(names=names, X=d.X[:, idx], y=d.y)


def standardize(d: DesignMatrix) -> DesignMatrix:
    """Center and scale every predictor column to mean 0, sd 1 (n-1 divisor).

    The intercept column is untouched.
    """
    cols = d.X[:, 1:]
    means = cols.mean(axis=0)
    sds = cols.std(axis=0, ddof=1)
    zero = np.nonzero(sds == 0.0)[0]
    if zero.size:
        raise ValueError(f"predictor '{d.names[int(zero[0])]}' has zero variance")
    X = np.column_stack([np.ones(d.n), (cols - means) / sds])
    return DesignMatrix(names=d.names, X=X, y=d.y)


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------

class OlsFit(NamedTuple):
    """OLS estimates with the usual inference battery."""

    names: tuple[str, ...]          # predictor names; beta[0] is the intercept
    beta: np.ndarray
    se: np.ndarray
    t: np.ndarray
    p: np.ndarray
    r2: float
    adj_r2: float
    f_stat: float
    f_p: float
    aic: float
    rss: float
    residuals: np.ndarray
    n: int


def gaussian_aic(rss: float, n_obs: int, n_predictors: int) -> float:
    """AIC under a Gaussian likelihood with estimated variance.

    Parameter count is n_predictors + 1 coefficients plus the variance:
    AIC = n ln(2 pi) + n ln(RSS / n) + n + 2 (n_predictors + 2).
    rss = 0 yields a -inf sentinel with a RuntimeWarning.
    """
    if rss < 0.0:
        raise ValueError("rss must be nonnegative")
    if rss == 0.0:
        warnings.warn("residual sum of squares is zero; AIC sentinel -inf", RuntimeWarning, stacklevel=2)
        return float("-inf")
    return (
        n_obs * math.log(2.0 * math.pi)
        + n_obs * math.log(rss / n_obs)
        + n_obs
        + 2.0 * (n_predictors + 2)
    )


def _qr_rank_checked(d: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with a tolerance-based rank check naming the offending column."""
    Q, R = np.linalg.qr(d.X)
    tol = _RANK_RTOL * float(np.linalg.norm(d.X, axis=0).max())
    diag = np.abs(np.diag(R))
    bad = np.nonzero(diag < tol)[0]
    if bad.size:
        i = int(bad[0])
        col = "intercept" if i == 0 else d.names[i - 1]
        raise RankDeficiencyError(f"design matrix is rank deficient at column '{col}'")
    return Q, R


def ols(d: DesignMatrix) -> OlsFit:
    """Least squares via QR with standard errors, t/p, R2, F, and AIC.

    p-values are two-sided against Student's t with n - k - 1 degrees of
    freedom. Raises RankDeficiencyError when a column is (numerically)
    collinear with its predecessors.
    """
    Q, R = _qr_rank_checked(d)
    n, p_cols = d.X.shape
    beta = np.linalg.solve(R, Q.T @ d.y)
    fitted = d.X @ beta
    residuals = d.y - fitted
    rss = float(residuals @ residuals)
    dof = n - p_cols
    sigma2 = rss / dof
    r_inv = np.linalg.solve(R, np.eye(p_cols))
    xtx_inv_diag = (r_inv * r_inv).sum(axis=1)
    se = np.sqrt(sigma2 * xtx_inv_diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0.0, beta / np.where(se > 0.0, se, 1.0), np.where(beta == 0.0, 0.0, np.inf * np.sign(beta)))
    p = np.array([2.0 * student_t_sf(abs(float(ti)), dof) for ti in t])
    tss = float(((d.y - d.y.mean()) ** 2).sum())
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof
    k = d.k
    if k == 0:
        f_stat, f_p = 0.0, 1.0
    elif rss == 0.0 or tss == 0.0:
        f_stat, f_p = float("inf"), 0.0
    else:
        f_stat = max(0.0, (tss - rss) / k / sigma2)
        f_p = f_sf(f_stat, k, dof)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        aic = gaussian_aic(rss, n, k)
    return OlsFit(
        names=d.names,
        beta=beta,
        se=se,
        t=t,
        p=p,
        r2=r2,
        adj_r2=adj_r2,
        f_stat=f_stat,
        f_p=f_p,
        aic=aic,
        rss=rss,
        residuals=residuals,
        n=n,
    )


# ---------------------------------------------------------------------------
# Stepwise selection
# ---------------------------------------------------------------------------

class StepwiseResult(NamedTuple):
    """Greedy AIC search outcome: selected set, final fit, and the move trace."""

    selected: tuple[str, ...]
    fit: OlsFit
    trace: tuple[tuple[int, str, str, float], ...]  # (step, action, name, aic)
    start_aic: float


def _best_move(candidates: "list[tuple[float, str, str, set[str]]]"):
    """Lowest-AIC candidate; exact ties resolve by predictor name, never by
    the order candidates were produced in."""
    return min(candidates, key=lambda c: (c[0], c[1]))


def stepwise(d: DesignMatrix, direction: str = "both", start: str = "full") -> StepwiseResult:
    """Greedy single-move AIC minimization over predictor subsets.

    At each step every allowed add/drop of one predictor is evaluated; the
    lowest-AIC move is taken when it strictly improves the current AIC,
    otherwise the search stops. Ties are broken by lexicographic predictor
    name. The intercept is never a move candidate.

    Candidates are ranked on the RSS read from one QR factor R of [X, y]:
    since [X_S, y] = Q R[:, S + y], the last diagonal entry of the QR of that
    small slice is the subset's residual norm (Bjorck, Numerical Methods for
    Least Squares Problems, SIAM 1996, section 1.3). The best candidate is
    refitted with ols(), and that fit decides whether the move is taken, so
    start_aic, the trace and the returned fit are what ols() reports.
    """
    if direction not in ("backward", "forward", "both"):
        raise ValueError(f"unknown direction {direction!r}")
    if start not in ("full", "empty"):
        raise ValueError(f"unknown start {start!r}")

    R = np.linalg.qr(np.column_stack([d.X, d.y]), mode="r")
    col_norms = np.linalg.norm(d.X, axis=0)

    def screened_aic(keep: set[str]) -> float:
        idx = [0] + [i + 1 for i, name in enumerate(d.names) if name in keep]
        r = np.linalg.qr(R[:, idx + [-1]], mode="r")
        if np.any(np.abs(np.diag(r))[:-1] < _RANK_RTOL * col_norms[idx].max()):
            return ols(subset_design(d, keep)).aic  # ols() decides, naming the column
        return gaussian_aic(float(r[-1, -1] ** 2), d.n, len(idx) - 1)

    current: set[str] = set(d.names) if start == "full" else set()
    current_fit = ols(subset_design(d, current))
    start_aic = current_fit.aic
    trace: list[tuple[int, str, str, float]] = []
    while True:
        candidates: list[tuple[float, str, str, set[str]]] = []
        for name in d.names:
            action, move = ("drop", "backward") if name in current else ("add", "forward")
            if direction in (move, "both"):
                after = current ^ {name}  # current with `name` dropped or added
                candidates.append((screened_aic(after), name, action, after))
        if not candidates:
            break
        _, best_name, best_action, best_set = _best_move(candidates)
        best_fit = ols(subset_design(d, best_set))
        if best_fit.aic >= current_fit.aic:
            break
        current, current_fit = best_set, best_fit
        trace.append((len(trace) + 1, best_action, best_name, best_fit.aic))

    return StepwiseResult(
        selected=tuple(name for name in d.names if name in current),
        fit=current_fit,
        trace=tuple(trace),
        start_aic=start_aic,
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def significance_stars(p: float) -> str:
    """Stars at the 10/5/1% levels."""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def format_fit_table(fit: OlsFit, title: str = "OLS fit") -> str:
    """Plain-text coefficient table: estimate with stars, SE in parentheses."""
    rows = [("intercept", fit.beta[0], fit.se[0], fit.p[0])]
    rows += [
        (name, fit.beta[i + 1], fit.se[i + 1], fit.p[i + 1])
        for i, name in enumerate(fit.names)
    ]
    width = max(len("Prob (F-statistic)"), max(len(r[0]) for r in rows))
    rule = "=" * (width + 22)
    lines = [title, rule]
    for name, b, s, p in rows:
        lines.append(f"{name:<{width}}  {b: .4f}{significance_stars(p):<3} ({s:.4f})")
    lines.append("-" * (width + 22))
    f_p_text = "<0.0001" if fit.f_p < 1e-4 else f"{fit.f_p:.4f}"
    lines.append(f"{'R-squared':<{width}}   {fit.r2:.4f}")
    lines.append(f"{'Adj. R-squared':<{width}}   {fit.adj_r2:.4f}")
    lines.append(f"{'Prob (F-statistic)':<{width}}   {f_p_text}")
    lines.append(f"{'AIC':<{width}}   {fit.aic:.1f}")
    lines.append(f"{'Observations':<{width}}   {fit.n}")
    lines.append("Stars: * p<0.1, ** p<0.05, *** p<0.01. Standard errors in parentheses.")
    return "\n".join(lines)
