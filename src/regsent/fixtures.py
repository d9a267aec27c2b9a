"""Deterministic synthetic input set for `regsent make-fixture`: posts, a
gazetteer, cleaning resources, labelled training text, region features and a
config that ties them together.

Everything here is seeded; two calls with the same seed produce byte-identical
files, which the CLI determinism checks rely on.
"""

from __future__ import annotations

import json
import random
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

from .errors import write_records

__all__ = ["write_corpus_fixture"]

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
