"""Seeded input generators for the benchmark workloads.

Each generator writes a complete regsent input set (posts, gazetteer,
resources, training data, region table, config) into a directory and returns
a `Workload` with the ground truth the inputs imply. The same (name, seed,
scale) always produces byte-identical files; `scale` shrinks every size for
the benchmark's own smoke tests and is 1.0 for measured runs.

Why each workload exists (which layer it makes do most of the work) is in
WHY below and in README.md next to this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import unicodedata
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

WHY = {
    "posts-20k": "bundled fixture at the reference 20k posts: cleaning and emoji reports (preprocess) do most of the work",
    "vocab-logistic": "2k-word vocabulary with logistic training and pseudo-labels: the sentiment layer does most of the work",
    "communes": "2.5k communes and a 5k-row gazetteer: region resolution, regional tests and stepwise OLS do most of the work",
}

EVENT_DATE = date(2019, 10, 13)

INPUT_FILES = (
    "posts.jsonl", "gazetteer.csv", "dictionary.txt", "lemmas.txt", "stop_words.txt",
    "conjunctions.txt", "emoji_polarity.txt", "training.csv", "region_features.csv", "config.json",
)


@dataclass
class Workload:
    name: str
    directory: Path
    config: Path
    n_posts: int
    expected_region: dict[str, str]  # normalized place name -> region id, "" when unresolvable
    accuracy_floor: float | None = None  # guaranteed held-out accuracy of the final model
    sizes: dict = field(default_factory=dict)

    def inputs_sha256(self) -> str:
        """sha256 over the generated input files, in a fixed order."""
        digest = hashlib.sha256()
        for name in INPUT_FILES:
            digest.update(name.encode() + b"\0")
            digest.update(hashlib.sha256((self.directory / name).read_bytes()).digest())
        return digest.hexdigest()


def normalize_place(name: str) -> str:
    """Place matching key as the README documents it: NFC, case-folded, stripped."""
    return unicodedata.normalize("NFC", name).casefold().strip()


def expected_regions(gazetteer_rows) -> dict[str, str]:
    """Max-importance region per place name; ties go to the smallest region_id."""
    best: dict[str, tuple[float, str]] = {}
    for place, region_id, importance in gazetteer_rows:
        key = normalize_place(place)
        current = best.get(key)
        if current is None or (-importance, region_id) < (-current[0], current[1]):
            best[key] = (importance, region_id)
    return {key: region for key, (_, region) in best.items()}


def read_gazetteer_rows(path: Path) -> list[tuple[str, str, float]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return [(r["place_name"], r["region_id"], float(r["importance"])) for r in csv.DictReader(handle)]


def _scaled(n: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(n * scale)))


# ---------------------------------------------------------------------------
# posts-20k: the bundled fixture at the ROADMAP reference size
# ---------------------------------------------------------------------------

def _posts_20k(directory: Path, seed: int, scale: float) -> Workload:
    from regsent.fixtures import write_corpus_fixture

    n_posts = _scaled(20000, scale, 400)
    config = write_corpus_fixture(directory, n_posts=n_posts, seed=seed)
    gazetteer = read_gazetteer_rows(directory / "gazetteer.csv")
    return Workload(
        name="posts-20k",
        directory=directory,
        config=config,
        n_posts=n_posts,
        expected_region=expected_regions(gazetteer),
        sizes={"posts": n_posts, "gazetteer_rows": len(gazetteer), "training_rows": 600},
    )


# ---------------------------------------------------------------------------
# Shared writers for the generated workloads
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnoprstuwyząćęłńóśźż"
_SYLLABLES = [c + v for c in "bcdfghjklmnprstwzż" for v in "aeiouyąę"]
STOP_WORDS = ["a", "ale", "do", "i", "jak", "jest", "na", "nie", "o", "od", "się", "to", "w", "z", "że"]
EMOJI_POLARITY = {
    "\U0001F600": "pos", "\U0001F44D": "pos", "\U0001F622": "neg",
    "\U0001F621": "neg", "\U0001F610": "ambiguous",
}
_HASHTAGS = ["wybory", "miasto", "pogoda", "mecz", "praca"]


def _unique_words(rng: random.Random, n: int, taken: set[str], lo: int = 5, hi: int = 9) -> list[str]:
    words: list[str] = []
    while len(words) < n:
        word = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(lo, hi)))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _place_names(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    names: list[str] = []
    while len(names) < n:
        name = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if rng.random() < 0.3:
            name += " " + rng.choice(["wielka", "mała", "górna", "dolna", "nowa", "stara"])
        if name not in taken:
            taken.add(name)
            names.append(name)
    return names


@dataclass(frozen=True)
class _Vocabulary:
    positive: list[str]
    negative: list[str]
    neutral: list[str]
    lemmas: dict[str, str]  # inflected -> lemma

    def text(self, rng: random.Random, polarity: str, n_sentiment: tuple[int, int], n_neutral: tuple[int, int]) -> str:
        words = rng.sample(self.neutral, rng.randint(*n_neutral))
        if polarity != "neutral":
            pool, other = (self.positive, self.negative) if polarity == "positive" else (self.negative, self.positive)
            words += [rng.choice(other if rng.random() < 0.05 else pool) for _ in range(rng.randint(*n_sentiment))]
        rng.shuffle(words)
        for _ in range(rng.randint(1, 2)):
            words.insert(rng.randrange(len(words) + 1), rng.choice(STOP_WORDS))
        if rng.random() < 0.3:
            words.insert(rng.randrange(len(words) + 1), rng.choice(sorted(self.lemmas)))
        return " ".join(words)


def _make_vocabulary(rng: random.Random, n_polar: int, n_neutral: int, n_lemmas: int) -> _Vocabulary:
    taken = set(STOP_WORDS)
    positive = _unique_words(rng, n_polar, taken)
    negative = _unique_words(rng, n_polar, taken)
    neutral = _unique_words(rng, n_neutral, taken)
    lemmas = {}
    for lemma in rng.sample(neutral, n_lemmas):
        inflected = lemma + "ami"
        if inflected not in taken:
            taken.add(inflected)
            lemmas[inflected] = lemma
    return _Vocabulary(positive, negative, neutral, lemmas)


def _decorate(rng: random.Random, text: str) -> str:
    if rng.random() < 0.15:
        text += " #" + rng.choice(_HASHTAGS)
    if rng.random() < 0.1:
        text += f" @konto{rng.randint(1, 99)}"
    if rng.random() < 0.2:
        text += " " + rng.choice(list(EMOJI_POLARITY))
    return text


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def _write_resources(directory: Path, vocab: _Vocabulary) -> None:
    words = set(vocab.positive) | set(vocab.negative) | set(vocab.neutral) | set(STOP_WORDS) | set(vocab.lemmas)
    _write_lines(directory / "dictionary.txt", sorted(words))
    _write_lines(directory / "stop_words.txt", sorted(STOP_WORDS))
    _write_lines(directory / "conjunctions.txt", sorted(STOP_WORDS))
    _write_lines(directory / "lemmas.txt", [f"{w} {l}" for w, l in sorted(vocab.lemmas.items())])
    _write_lines(directory / "emoji_polarity.txt", [f"{e} {p}" for e, p in EMOJI_POLARITY.items()])


def _write_gazetteer(directory: Path, rows: list[tuple[str, str, float, int]]) -> None:
    with (directory / "gazetteer.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["place_name", "commune", "region_id", "province", "importance", "population"])
        for place, region_id, importance, population in rows:
            writer.writerow([place, f"gmina {place}", region_id, f"województwo {region_id[:2]}", importance, population])


def _write_training(directory: Path, rng: random.Random, vocab: _Vocabulary, counts: dict[str, int],
                    n_sentiment: tuple[int, int], n_neutral: tuple[int, int]) -> None:
    labels = [label for label, n in counts.items() for _ in range(n)]
    with (directory / "training.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "label", "text"])
        for i, label in enumerate(labels):
            writer.writerow([f"t{i:05d}", label, vocab.text(rng, label, n_sentiment, n_neutral)])


def _timestamp(rng: random.Random) -> str:
    offset = timedelta(days=rng.randint(-30, 30), hours=rng.randint(0, 23), minutes=rng.randint(0, 59))
    return (datetime.combine(EVENT_DATE, datetime.min.time(), tzinfo=timezone.utc) + offset).isoformat()


def _write_posts(directory: Path, rng: random.Random, vocab: _Vocabulary, places: list[tuple[str, float]],
                 n_sentiment: tuple[int, int], n_neutral: tuple[int, int]) -> None:
    """One post per (declared place, positive share) entry, in the given order."""
    with (directory / "posts.jsonl").open("w", encoding="utf-8", newline="") as handle:
        for i, (place, theta) in enumerate(places):
            polarity = "positive" if rng.random() < theta else "negative"
            record = {
                "id": f"p{i:06d}",
                "text": _decorate(rng, vocab.text(rng, polarity, n_sentiment, n_neutral)),
                "timestamp": _timestamp(rng),
                "place": place,
                "lang": "pl" if rng.random() < 0.97 else "en",
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _write_region_table(directory: Path, rng: random.Random, regions: list[tuple[str, int, float]],
                        features: list[str]) -> None:
    """Outcome = a linear function of the region's positivity and the first
    three features plus noise, so selection keeps a few and drops the rest."""
    with (directory / "region_features.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["region_id", "population", "outcome", *features])
        for region_id, population, theta in regions:
            values = [round(rng.gauss(0.0, 1.0), 4) for _ in features]
            outcome = 0.45 - 0.3 * (theta - 0.5) + 0.04 * sum(values[:3]) + rng.gauss(0.0, 0.03)
            writer.writerow([region_id, population, min(0.95, max(0.05, round(outcome, 4))), *values])


def _write_config(directory: Path, seed: int, *, kind: str, min_region_posts: int, features: list[str]) -> Path:
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
        "thresholds": {"min_region_posts": min_region_posts, "emoji_min_share": 0.01},
        "classifier": {"kind": kind, "binary": True, "pseudo_label": True, "test_fraction": 0.2},
        "regression": {"standardize": True, "features": features},
        "seed": seed,
    }
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# vocab-logistic: a large vocabulary for the logistic classifier
# ---------------------------------------------------------------------------

def _vocab_logistic(directory: Path, seed: int, scale: float) -> Workload:
    rng = random.Random(seed)
    n_polar = _scaled(300, scale, 20)
    vocab = _make_vocabulary(rng, n_polar, _scaled(1400, scale, 60), _scaled(100, scale, 10))
    _write_resources(directory, vocab)
    n_sent, n_neut = (4, 6), (3, 5)

    n_regions = 20
    taken: set[str] = set()
    names = _place_names(rng, n_regions, taken)
    regions = [(f"{2 * (i % 8) + 2:02d}{i + 1:05d}", rng.randint(20000, 900000), rng.uniform(0.35, 0.65))
               for i in range(n_regions)]
    _write_gazetteer(directory, [(name, rid, round(rng.uniform(0.2, 1.0), 2), pop)
                                 for name, (rid, pop, _) in zip(names, regions)])
    n_labeled = _scaled(1000, scale, 60)
    _write_training(directory, rng, vocab, {"negative": n_labeled, "positive": n_labeled,
                                            "neutral": n_labeled // 2}, n_sent, n_neut)
    n_posts = _scaled(4000, scale, 200)
    places = []
    for _ in range(n_posts):
        i = rng.randrange(n_regions)
        places.append((names[i], regions[i][2]))
    _write_posts(directory, rng, vocab, places, n_sent, n_neut)
    features = ["urbanization", "unemployment", "median_age", "migration_balance"]
    _write_region_table(directory, rng, regions, features)
    config = _write_config(directory, seed, kind="logistic", min_region_posts=max(5, n_posts // 80), features=features)
    expected = {normalize_place(name): rid for name, (rid, _, _) in zip(names, regions)}
    return Workload(
        name="vocab-logistic",
        directory=directory,
        config=config,
        n_posts=n_posts,
        expected_region=expected,
        accuracy_floor=0.85,  # polar texts carry 4-6 class words, 5% from the other class
        sizes={
            "posts": n_posts,
            "training_rows": 5 * n_labeled // 2,
            "vocabulary": 2 * n_polar + len(vocab.neutral) + len(vocab.lemmas),
            "regions": n_regions,
        },
    )


# ---------------------------------------------------------------------------
# communes: commune-level geography with an ambiguous gazetteer
# ---------------------------------------------------------------------------

def _communes(directory: Path, seed: int, scale: float) -> Workload:
    rng = random.Random(seed)
    vocab = _make_vocabulary(rng, 20, 60, 10)
    _write_resources(directory, vocab)
    n_sent, n_neut = (2, 3), (2, 3)

    n_regions = _scaled(2500, scale, 60)
    taken: set[str] = set()
    primary = _place_names(rng, n_regions, taken)
    shared = _place_names(rng, n_regions // 10, taken)
    unknown = _place_names(rng, n_regions // 25, taken)
    regions = [(f"{2 * (i % 16) + 2:02d}{i + 1:05d}", rng.randint(2000, 120000), rng.uniform(0.3, 0.7))
               for i in range(n_regions)]
    region_ids = [rid for rid, _, _ in regions]

    # Every region has its own primary name plus one row under a shared name;
    # importances on a 0.1 grid make max-importance ties common among the
    # several regions that share a name.
    rows = [(name, rid, round(rng.uniform(0.5, 1.0), 1), pop) for name, (rid, pop, _) in zip(primary, regions)]
    order = list(range(n_regions))
    rng.shuffle(order)
    for k, i in enumerate(order):
        rid, pop, _ = regions[i]
        rows.append((shared[k % len(shared)], rid, round(rng.uniform(0.1, 0.4), 1), pop // 10))
    rng.shuffle(rows)
    _write_gazetteer(directory, rows)
    expected = expected_regions((place, rid, imp) for place, rid, imp, _ in rows)
    for name in unknown:
        expected[normalize_place(name)] = ""

    _write_training(directory, rng, vocab, {"negative": 200, "positive": 200, "neutral": 100}, n_sent, n_neut)

    # 70% of regions get four posts under their own name (most of them pass
    # min_region_posts=2), a third of the rest one; shared and unknown names
    # add posts whose resolution depends on disambiguation or fails.
    theta = {rid: t for rid, _, t in regions}
    places: list[tuple[str, float]] = []
    busy = set(order[: int(n_regions * 0.7)])
    for i, name in enumerate(primary):
        for _ in range(4 if i in busy else int(i % 3 == 0)):
            places.append((name.title() if rng.random() < 0.05 else name, regions[i][2]))
    for name in shared:
        for _ in range(2):
            places.append((name, theta[expected[normalize_place(name)]]))
    for name in unknown:
        places.append((name, 0.5))
    rng.shuffle(places)
    _write_posts(directory, rng, vocab, places, n_sent, n_neut)

    features = [f"feature_{j:02d}" for j in range(1, 21)]
    _write_region_table(directory, rng, regions, features)
    config = _write_config(directory, seed, kind="naive_bayes", min_region_posts=2, features=features)
    return Workload(
        name="communes",
        directory=directory,
        config=config,
        n_posts=len(places),
        expected_region=expected,
        sizes={
            "posts": len(places),
            "regions": n_regions,
            "gazetteer_rows": len(rows),
            "declared_places": len({place for place, _ in places}),
            "region_features": len(features),
        },
    )


GENERATORS = {"posts-20k": _posts_20k, "vocab-logistic": _vocab_logistic, "communes": _communes}


def generate(name: str, directory: Path, seed: int, scale: float = 1.0) -> Workload:
    """Write workload `name` for `seed` into `directory` (created if missing)."""
    directory.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](directory, seed, scale)


REFERENCE_SEED = 1

if __name__ == "__main__":
    # Re-record workloads.json (sizes, input digest and rationale at the
    # reference seed); run from the root of a checkout.
    import shutil
    import sys

    sys.path.insert(0, "src")
    record = {}
    scratch = Path(".bench_work") / "reference"
    if scratch.parent.exists():
        sys.exit(".bench_work exists; is a benchmark running in this checkout?")
    try:
        for name in GENERATORS:
            wl = generate(name, scratch / name, REFERENCE_SEED)
            record[name] = {"seed": REFERENCE_SEED, "sizes": wl.sizes, "sha256": wl.inputs_sha256(), "why": WHY[name]}
    finally:
        shutil.rmtree(scratch.parent, ignore_errors=True)
    out = Path(__file__).resolve().parent / "workloads.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
