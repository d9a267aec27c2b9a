"""Deterministic synthetic fixtures: a small end-to-end input set and a
regression replication design with known coefficients.

Everything here is seeded; two calls with the same seed produce byte-identical
files, which the CLI determinism checks rely on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .errors import write_records
from .regional import RegionSentiment

__all__ = [
    "ReplicationDesign",
    "replication_design",
    "write_corpus_fixture",
    "write_replication_fixture",
]

EVENT_DATE = date(2019, 10, 13)

POSITIVE_WORDS = [
    "great", "happy", "love", "bright", "win", "proud", "hope", "enjoy",
    "calm", "glad", "smile", "warm", "lucky", "strong", "kind",
]
NEGATIVE_WORDS = [
    "bad", "sad", "angry", "dark", "lose", "fear", "tired", "gray",
    "cold", "upset", "worry", "pain", "weak", "bitter", "slow",
]
NEUTRAL_WORDS = [
    "city", "road", "train", "market", "coffee", "river", "office", "school",
    "garden", "bridge", "street", "window", "paper", "radio", "evening",
    "morning", "meeting", "weather", "station", "library",
]
STOP_WORDS = ["a", "an", "and", "at", "but", "in", "is", "it", "of", "on", "or", "the", "to", "was", "we"]
# Same set as the stop words: the short-post rule then counts exactly the
# content words, which keeps cleaning idempotent on its own output.
CONJUNCTIONS = list(STOP_WORDS)
LEMMA_PAIRS = [
    ("winning", "win"), ("loved", "love"), ("smiling", "smile"),
    ("worried", "worry"), ("colder", "cold"), ("happier", "happy"),
    ("roads", "road"), ("trains", "train"), ("cities", "city"),
    ("markets", "market"), ("gardens", "garden"), ("mornings", "morning"),
]
MISSPELLINGS = ["grreat", "hapy", "luv", "anggry", "tirred", "weathr"]

EMOJI_POLARITY = {
    "\U0001F600": "pos",  # grinning face
    "\U0001F60A": "pos",  # smiling face
    "\U0001F60D": "pos",  # heart eyes
    "\U0001F44D": "pos",  # thumbs up
    "\U0001F31F": "pos",  # glowing star (kept rare so the share gate bites)
    "\U0001F621": "neg",  # pouting face
    "\U0001F622": "neg",  # crying face
    "\U0001F44E": "neg",  # thumbs down
    "\U0001F494": "neg",  # broken heart
    "\U0001F610": "ambiguous",
    "\U0001F914": "ambiguous",
}
_EMOJI_WEIGHTS = [0.22, 0.14, 0.05, 0.08, 0.005, 0.16, 0.12, 0.06, 0.04, 0.06, 0.045]

HASHTAGS = ["cityfest", "morningrun", "coffeetime", "localnews", "gameday", "weekend"]
_HASHTAG_WEIGHTS = [0.4, 0.2, 0.15, 0.12, 0.08, 0.05]

# region_id -> (places as (name, importance, place_population), region population,
#               sampling weight, positivity)
_REGIONS: dict[str, tuple[list[tuple[str, float, int]], int, float, float]] = {
    "R01": ([("northgate", 0.9, 610000), ("harbor point", 0.5, 82000)], 780000, 0.16, 0.62),
    "R02": ([("springfield", 0.8, 420000)], 515000, 0.14, 0.36),
    "R03": ([("fairview", 0.7, 350000)], 450000, 0.12, 0.55),
    "R04": ([("eastvale", 0.6, 290000)], 390000, 0.11, 0.42),
    "R05": ([("windmere", 0.6, 180000)], 260000, 0.10, 0.58),
    "R06": ([("oakridge", 0.5, 150000)], 215000, 0.09, 0.40),
    "R07": ([("lakeshore", 0.5, 120000), ("springfield", 0.3, 9000)], 170000, 0.08, 0.52),
    "R08": ([("stonebridge", 0.4, 95000)], 140000, 0.07, 0.47),
    "R09": ([("millbrook", 0.4, 70000), ("fairview", 0.2, 4000)], 110000, 0.05, 0.60),
    "R10": ([("westfield", 0.3, 52000)], 90000, 0.04, 0.35),
    "R11": ([("graniteville", 0.3, 40000)], 72000, 0.025, 0.50),
    "R12": ([("ironwood", 0.2, 28000)], 60000, 0.015, 0.45),
}


def _dictionary_words() -> list[str]:
    words = set(POSITIVE_WORDS) | set(NEGATIVE_WORDS) | set(NEUTRAL_WORDS) | set(STOP_WORDS)
    for inflected, lemma in LEMMA_PAIRS:
        words.add(inflected)
        words.add(lemma)
    return sorted(words)


def _make_text(rng: random.Random, polarity: str, *, decorate: bool = True) -> str:
    """One synthetic post body with the requested polarity."""
    if polarity == "neutral":
        words = rng.sample(NEUTRAL_WORDS, rng.randint(4, 6))
    else:
        pool = POSITIVE_WORDS if polarity == "positive" else NEGATIVE_WORDS
        other = NEGATIVE_WORDS if polarity == "positive" else POSITIVE_WORDS
        words = [rng.choice(other if rng.random() < 0.12 else pool) for _ in range(rng.randint(2, 4))]
        words += rng.sample(NEUTRAL_WORDS, rng.randint(2, 4))
    for _ in range(rng.randint(1, 3)):
        words.insert(rng.randrange(len(words) + 1), rng.choice(STOP_WORDS))
    if rng.random() < 0.3:
        inflected, _ = rng.choice(LEMMA_PAIRS)
        words.insert(rng.randrange(len(words) + 1), inflected)
    text = " ".join(words)
    if not decorate:
        return text
    if rng.random() < 0.25:
        tag = rng.choices(HASHTAGS, weights=_HASHTAG_WEIGHTS)[0]
        text += f" #{tag}"
    if rng.random() < 0.15:
        text += f" @user{rng.randint(1, 99)}"
    if rng.random() < 0.10:
        text += f" https://example.net/{rng.randint(100, 999)}"
    if rng.random() < 0.35:
        emoji = rng.choices(list(EMOJI_POLARITY), weights=_EMOJI_WEIGHTS)[0]
        text += f" {emoji}"
    return text


def write_corpus_fixture(directory: str | Path, n_posts: int = 500, seed: int = 13) -> Path:
    """Write the full synthetic input set (posts, gazetteer, resources, config).

    Returns the path of the generated config file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    # --- resources ---------------------------------------------------------
    write_records(directory / "dictionary.txt", "txt", _dictionary_words())
    write_records(directory / "stop_words.txt", "txt", sorted(STOP_WORDS))
    write_records(directory / "conjunctions.txt", "txt", sorted(CONJUNCTIONS))
    write_records(directory / "lemmas.txt", "txt", [f"{w} {l}" for w, l in sorted(LEMMA_PAIRS)])
    write_records(directory / "emoji_polarity.txt", "txt", [f"{e} {p}" for e, p in EMOJI_POLARITY.items()])

    # --- gazetteer ----------------------------------------------------------
    write_records(directory / "gazetteer.csv", "csv", (
        (name, f"{name} commune", region_id, "province west", importance, place_pop)
        for region_id, (places, _pop, _w, _theta) in _REGIONS.items()
        for name, importance, place_pop in places
    ), ("place_name", "commune", "region_id", "province", "importance", "population"))

    # --- posts --------------------------------------------------------------
    region_ids = list(_REGIONS)
    weights = [_REGIONS[r][2] for r in region_ids]

    def posts():
        for i in range(n_posts):
            region = rng.choices(region_ids, weights=weights)[0]
            places, _pop, _w, theta = _REGIONS[region]
            polarity = "positive" if rng.random() < theta else "negative"
            text = _make_text(rng, polarity)
            roll = rng.random()
            if roll < 0.04:  # misspelled -> rejected downstream
                text += " " + rng.choice(MISSPELLINGS)
            elif roll < 0.07:  # too short -> rejected downstream
                text = " ".join(rng.sample(NEUTRAL_WORDS, 2))
            place = rng.choice(places)[0]
            if rng.random() < 0.03:
                place = "nowhere junction"  # not in the gazetteer
            lang = "pl" if rng.random() < 0.95 else "en"
            offset = timedelta(days=rng.randint(-30, 30), hours=rng.randint(0, 23), minutes=rng.randint(0, 59))
            ts = datetime.combine(EVENT_DATE, datetime.min.time(), tzinfo=timezone.utc) + offset
            yield {
                "id": f"p{i:06d}",
                "text": text,
                "timestamp": ts.isoformat(),
                "place": place,
                "lang": lang,
            }

    write_records(directory / "posts.jsonl", "jsonl", posts())

    # --- training data -------------------------------------------------------
    def training():
        labels = ["negative"] * 240 + ["positive"] * 240 + ["neutral"] * 120
        for i, label in enumerate(labels):
            text = _make_text(rng, label, decorate=(rng.random() < 0.4))
            if rng.random() < 0.02:
                text += " " + rng.choice(MISSPELLINGS)
            yield f"t{i:05d}", label, text

    write_records(directory / "training.csv", "csv", training(), ("id", "label", "text"))

    # --- region features ------------------------------------------------------
    def features():
        for region_id, (_places, population, _w, theta) in _REGIONS.items():
            urbanization = round(rng.uniform(0.25, 0.9), 3)
            divorces = round(rng.uniform(0.001, 0.004), 5)
            migration = round(rng.uniform(-0.01, 0.01), 5)
            median_age = round(rng.uniform(36.0, 46.0), 1)
            outcome = 0.45 - 0.4 * (theta - 0.5) - 0.08 * (urbanization - 0.55) + rng.gauss(0.0, 0.02)
            outcome = min(0.95, max(0.05, round(outcome, 4)))
            yield region_id, population, outcome, urbanization, divorces, migration, median_age

    write_records(directory / "region_features.csv", "csv", features(), (
        "region_id", "population", "outcome",
        "urbanization", "divorces_per_capita", "migration_balance", "median_age",
    ))

    # --- config ----------------------------------------------------------------
    config = {
        "paths": {
            "posts": "posts.jsonl",
            "gazetteer": "gazetteer.csv",
            "dictionary": "dictionary.txt",
            "lemmas": "lemmas.txt",
            "stop_words": "stop_words.txt",
            "conjunctions": "conjunctions.txt",
            "emoji_polarity": "emoji_polarity.txt",
            "training_data": "training.csv",
            "region_table": "region_features.csv",
        },
        "language": "pl",
        "event_date": EVENT_DATE.isoformat(),
        "posts_format": "jsonl",
        "thresholds": {"min_region_posts": 15, "emoji_min_share": 0.01},
        "classifier": {
            "kind": "naive_bayes",
            "binary": True,
            "smoothing": 1.0,
            "pseudo_label": True,
            "test_fraction": 0.2,
        },
        "regression": {
            "standardize": True,
            "features": ["urbanization", "divorces_per_capita", "migration_balance", "median_age"],
        },
        "seed": seed,
    }
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return config_path


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
