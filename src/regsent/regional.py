"""Per-region sentiment aggregation, before/after split, and shift tests.

Binary labels are encoded negative=0 / positive=1, so a region's mean
sentiment is exactly its positive share. Regions enter the analysis only when
their classified-post total strictly exceeds the threshold. The per-region
shift tests are a mapping region_id -> `ShiftTestResult`, as `shift_summary`
and `write_shift_csv` take them.
"""

from __future__ import annotations

from datetime import date
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import DataValidationError, warn, write_records

if TYPE_CHECKING:  # stats loads numpy, so the shift test and regression import it when they run
    from . import stats

__all__ = [
    "RegionSentiment",
    "SentimentLabel",
    "ShiftTestResult",
    "aggregate",
    "pooled_shift_test",
    "shift_regression",
    "shift_summary",
    "shift_test",
    "shift_test_for_region",
    "write_shift_csv",
]


class SentimentLabel(Enum):
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"

    @classmethod
    def parse(cls, raw: str) -> "SentimentLabel":
        try:
            return cls(raw.strip().lower())
        except ValueError:
            raise DataValidationError(f"unknown sentiment label {raw!r}") from None


class RegionSentiment(NamedTuple):
    """A region's period counts: one record of `region_sentiment.csv`, whose columns are COLUMNS."""

    COLUMNS = (  # not annotated: a class attribute, not a field
        "region_id", "n_pos_before", "n_neg_before", "n_pos_after", "n_neg_after", "mean_sentiment", "included",
    )

    region_id: str
    n_pos_before: int
    n_neg_before: int
    n_pos_after: int
    n_neg_after: int
    included: bool

    @property
    def total(self) -> int:
        return self.n_pos_before + self.n_neg_before + self.n_pos_after + self.n_neg_after

    @property
    def mean_sentiment(self) -> float:
        """Positive share over both periods."""
        return (self.n_pos_before + self.n_pos_after) / self.total

    @property
    def mean_before(self) -> float:
        return self.n_pos_before / (self.n_pos_before + self.n_neg_before)

    @property
    def mean_after(self) -> float:
        return self.n_pos_after / (self.n_pos_after + self.n_neg_after)

    def row(self) -> tuple:
        """The fields of this region's record, in COLUMNS order."""
        return (self.region_id, self.n_pos_before, self.n_neg_before, self.n_pos_after, self.n_neg_after,
                repr(self.mean_sentiment), self.included)

    @classmethod
    def from_row(cls, row: Mapping[str, str]) -> RegionSentiment:
        """The region of a record keyed by COLUMNS, as `aggregate` writes them; ValueError when it cannot be.

        `mean_sentiment` is derived, so it is not read.
        """
        region_id = row["region_id"]
        if not region_id:
            raise ValueError("empty region_id")
        counts = [int(row[column]) for column in cls.COLUMNS[1:5]]
        for column, count in zip(cls.COLUMNS[1:5], counts):
            if count < 0:
                raise ValueError(f"{column} must not be negative, got {count}")
        if not sum(counts):
            raise ValueError(f"region {region_id!r} has no classified posts")
        if row["included"] not in ("True", "False"):
            raise ValueError(f"included must be True or False, got {row['included']!r}")
        return cls(region_id, *counts, included=row["included"] == "True")


def aggregate(
    located: Mapping[str, tuple[str | None, date]],
    predictions: Iterable[tuple[str, SentimentLabel]],
    event_date: date,
    threshold: int,
    event_day: str,
) -> tuple[list[RegionSentiment], int, int]:
    """Fold (id, label) `predictions` into per-region period counts, in one pass.

    `located` maps a post id to its (region or None, UTC day), the one part of
    a post's time it reads; `pipeline` shares each distinct pair. Every label
    needs its id in `located` (DataValidationError otherwise); neutral labels
    are then skipped and counted, and a post without a region is excluded
    and counted. Posts dated exactly on the event count as "before" when
    `event_day` is "before" and as "after" when it is "after". Inclusion is
    strict: total > threshold. Returns (regions sorted by region_id,
    n_neutral, n_without_region).
    """
    if event_day not in ("before", "after"):
        raise ValueError(f"event_day must be 'before' or 'after', got {event_day!r}")
    counts: dict[str, list[int]] = {}  # [pos_before, neg_before, pos_after, neg_after]
    neutral = no_region = 0
    for post_id, label in predictions:
        if post_id not in located:
            raise DataValidationError(f"prediction for unknown post id {post_id!r}")
        if label is SentimentLabel.NEUTRAL:
            neutral += 1
            continue
        region_id, day = located[post_id]
        if not region_id:
            no_region += 1
            continue
        before = day <= event_date if event_day == "before" else day < event_date
        slot = (0 if before else 2) + (label is not SentimentLabel.POSITIVE)
        counts.setdefault(region_id, [0, 0, 0, 0])[slot] += 1
    regions = [RegionSentiment(region_id, *c, included=sum(c) > threshold) for region_id, c in sorted(counts.items())]
    return regions, neutral, no_region


class ShiftTestResult(NamedTuple):
    """Chi-squared test of equal positive share before vs after (df = 1)."""

    chi2: float
    p_value: float
    degenerate: bool = False  # a zero margin forced the chi2=0, p=1 convention


def shift_test(
    n_pos_before: int,
    n_neg_before: int,
    n_pos_after: int,
    n_neg_after: int,
) -> ShiftTestResult:
    """2x2 period-by-polarity test: chi2 = N (ad - bc)^2 / product of margins.

    Any zero margin makes the statistic undefined; by convention that yields
    chi2 = 0, p = 1, flagged via `degenerate`.
    """
    a, b, c, d = n_pos_before, n_neg_before, n_pos_after, n_neg_after
    n = a + b + c + d
    margins = ((a + b), (c + d), (a + c), (b + d))
    if any(m == 0 for m in margins):
        return ShiftTestResult(chi2=0.0, p_value=1.0, degenerate=True)
    from . import stats
    chi2 = n * (a * d - b * c) ** 2 / (margins[0] * margins[1] * margins[2] * margins[3])
    return ShiftTestResult(chi2=float(chi2), p_value=stats.chi2_sf(float(chi2)))


def shift_test_for_region(rs: RegionSentiment) -> ShiftTestResult:
    return shift_test(rs.n_pos_before, rs.n_neg_before, rs.n_pos_after, rs.n_neg_after)


def pooled_shift_test(regions: Sequence[RegionSentiment]) -> ShiftTestResult:
    """Global test on counts pooled over the included regions."""
    rows = [r for r in regions if r.included]
    return shift_test(
        sum(r.n_pos_before for r in rows),
        sum(r.n_neg_before for r in rows),
        sum(r.n_pos_after for r in rows),
        sum(r.n_neg_after for r in rows),
    )


def shift_summary(per_region: Mapping[str, ShiftTestResult], alpha: float) -> dict[str, Any]:
    """The per-region fields of `shift_summary.json`: how many region_id-keyed tests, and which have p < alpha."""
    significant = sorted(region_id for region_id, result in per_region.items() if result.p_value < alpha)
    return {"n_tested": len(per_region), "n_significant": len(significant), "significant_regions": significant}


def shift_regression(regions: Sequence[RegionSentiment]) -> stats.OlsFit:
    """OLS of period mean sentiment on an after-period dummy.

    Each usable region contributes its before mean (flag 0) and after mean
    (flag 1); regions with an empty period cannot produce that period's mean
    and are skipped with a warning. Fewer than two usable regions is fatal.
    """
    from . import stats
    rows = [r for r in regions if r.included]
    usable: list[RegionSentiment] = []
    for r in rows:
        if (r.n_pos_before + r.n_neg_before) == 0 or (r.n_pos_after + r.n_neg_after) == 0:
            warn(__name__, "region %s lacks posts in one period; skipped in shift regression", r.region_id)
            continue
        usable.append(r)
    if len(usable) < 2:
        raise DataValidationError("shift regression needs at least two regions with both periods")
    usable.sort(key=lambda r: r.region_id)
    y = [r.mean_before for r in usable] + [r.mean_after for r in usable]
    flag = [0.0] * len(usable) + [1.0] * len(usable)
    design = stats.design_matrix(("after_period",), [[f] for f in flag], y)
    return stats.ols(design)


def write_shift_csv(
    regions: Sequence[RegionSentiment],
    results: dict[str, ShiftTestResult],
    path: str | Path,
) -> None:
    """Per-region CSV with counts, mean, inclusion, and the test outcome."""
    def rows():
        for r in regions:
            test = results.get(r.region_id)
            yield (*r.row(), repr(test.chi2) if test else "", repr(test.p_value) if test else "")

    write_records(path, "csv", rows(), (*RegionSentiment.COLUMNS, "chi2", "p"))
