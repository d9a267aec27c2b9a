"""Shared test helpers: coherent cleaning configs, generative corpora, and a
CLI runner."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from regsent import fixtures
from regsent.preprocess import CleanConfig
from regsent.sentiment import LabeledExample, SentimentLabel

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def coherent_clean_config(**overrides) -> CleanConfig:
    """CleanConfig built from the bundled pools.

    Coherent in the sense the cleaning docs require: conjunctions cover the
    stop words, the lemma map is idempotent, and lemma values live in the
    dictionary but not in the stop set.
    """
    dictionary = (
        set(fixtures.POSITIVE_WORDS)
        | set(fixtures.NEGATIVE_WORDS)
        | set(fixtures.NEUTRAL_WORDS)
        | set(fixtures.STOP_WORDS)
        | {w for pair in fixtures.LEMMA_PAIRS for w in pair}
    )
    base = dict(
        dictionary=frozenset(dictionary),
        lemma_map=dict(fixtures.LEMMA_PAIRS),
        stop_words=frozenset(fixtures.STOP_WORDS),
        conjunctions=frozenset(fixtures.CONJUNCTIONS),
        emoji_whitelist=frozenset({"\U0001F600", "\U0001F622"}),
    )
    base.update(overrides)
    return CleanConfig(**base)


def fuzz_post_text(rng: random.Random) -> str:
    """Random post text exercising every cleaning step."""
    words = [rng.choice(fixtures.NEUTRAL_WORDS + fixtures.POSITIVE_WORDS + fixtures.NEGATIVE_WORDS)
             for _ in range(rng.randint(0, 9))]
    for _ in range(rng.randint(0, 3)):
        words.insert(rng.randrange(len(words) + 1), rng.choice(fixtures.STOP_WORDS))
    if rng.random() < 0.3:
        inflected, _ = rng.choice(fixtures.LEMMA_PAIRS)
        words.insert(rng.randrange(len(words) + 1), inflected)
    if rng.random() < 0.15:
        words.insert(rng.randrange(len(words) + 1), rng.choice(fixtures.MISSPELLINGS))
    decorations = []
    if rng.random() < 0.4:
        decorations.append("#" + rng.choice(fixtures.HASHTAGS))
    if rng.random() < 0.3:
        decorations.append(f"@user{rng.randint(1, 50)}")
    if rng.random() < 0.3:
        decorations.append(f"https://example.org/{rng.randint(1, 999)}")
    if rng.random() < 0.5:
        decorations.append(rng.choice(["\U0001F600", "\U0001F622", "\U0001F914", "\U0001F680"]))
    if rng.random() < 0.4:
        decorations.append(rng.choice(["!!", "...", "123", "?!", ";)"]))
    tokens = words + decorations
    rng.shuffle(tokens)
    joiner = "  " if rng.random() < 0.2 else " "
    text = joiner.join(tokens)
    if rng.random() < 0.3:
        text = text.upper() if rng.random() < 0.5 else text.title()
    return text or "x"


# Generative two-class corpus: overlapping word distributions with known labels.
_GEN_POS = ["bright", "smile", "glad", "warm", "win", "hope", "calm", "proud"]
_GEN_NEG = ["gray", "worry", "pain", "cold", "lose", "fear", "tired", "upset"]
_GEN_NEUTRAL = ["city", "river", "train", "office", "market", "paper", "radio", "window"]


def generative_example(rng: random.Random) -> LabeledExample:
    positive = rng.random() < 0.5
    own, other = (_GEN_POS, _GEN_NEG) if positive else (_GEN_NEG, _GEN_POS)
    tokens = []
    for _ in range(6):
        roll = rng.random()
        if roll < 0.55:
            tokens.append(rng.choice(own))
        elif roll < 0.65:
            tokens.append(rng.choice(other))
        else:
            tokens.append(rng.choice(_GEN_NEUTRAL))
    label = SentimentLabel.POSITIVE if positive else SentimentLabel.NEGATIVE
    return LabeledExample(tokens=tuple(tokens), label=label)


def generative_corpus(n: int, seed: int) -> list[LabeledExample]:
    rng = random.Random(seed)
    return [generative_example(rng) for _ in range(n)]


# Python source that makes every later `import numpy` in its interpreter raise ImportError.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None"


def run_python(argv: list[str], cwd: str | Path | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter, with this checkout's src on its path, run with `argv`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cwd, env=env)


def run_cli(args: list[str], cwd: str | Path | None = None) -> subprocess.CompletedProcess:
    return run_python(["-m", "regsent.cli", *args], cwd)
