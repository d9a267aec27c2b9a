"""Post normalization chain and corpus-level hashtag/emoji diagnostics.

Cleaning is `clean_text` alone, one fixed step order run top to bottom:
links, mentions, hashtags, emoji filtering, non-word stripping, whitespace
collapse, short-post rejection, misspelling rejection, lemmatization,
stop-word removal. The spell gate reads the tokens before lemmatization, and
stop words are dropped after it. A gate that fails sets the rejection reason
and the post keeps no tokens; rejection is a value, not an error. `clean_text`
takes the text alone: the caller keeps the post's id.

Two steps run only on a text they can match, and both gates are exact. The
link step needs a literal `://` (no other character matches `:` or `/`) or
`www.` in the lowered text (under IGNORECASE only `w` and `W` match `w`, and
`str.lower` maps one character at a time). The emoji scans skip a text that is
ASCII or has no character in U+2600-U+2BFF or U+1F300-U+1FAFF, the two spans
that hold every block of `_EMOJI_RANGES`.

Non-word stripping works a whitespace-split word at a time: a word that is all
letters (most of them) is kept whole, and only the others are tested a
character at a time, each non-letter becoming a space and counted. Whitespace
never takes part in the lowercasing context of a final sigma, so rejoining the
words with single spaces gives the tokens of stripping the whole text. A
`CleanConfig`'s `spellings` dict memoizes what the later steps make of each
dictionary token it meets, and of no other token, so the memo holds at most
the dictionary.

The frequency reports count over plain texts and return their `FrequencyRow`s,
sorted. The hashtag report matches the NFC text with its links dropped, as
`clean_text` does: a combining mark is not a regex word character, so a
decomposed tag would otherwise be cut at its first one, and a link's
`#fragment` is no hashtag.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from collections import Counter
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Annotated, Iterable, Mapping, NamedTuple, Sequence

from .errors import read_records, write_records

__all__ = [
    "CleanConfig",
    "CleanPost",
    "FrequencyRow",
    "clean_text",
    "emoji_report",
    "hashtag_report",
    "load_emoji_polarity",
    "load_lemma_map",
    "load_word_list",
    "select_emoji_whitelist",
    "write_frequency_csv",
]

URL_RE = re.compile(r"https?://\S+|\bwww\.\S+", re.IGNORECASE)
MENTION_RE = re.compile(r"@\w+")
HASHTAG_RE = re.compile(r"#\w+")

# Codepoint blocks treated as emoji during cleaning and emoji reports.
_EMOJI_RANGES = ((0x1F300, 0x1F5FF), (0x1F600, 0x1F64F), (0x1F680, 0x1F6FF), (0x1F900, 0x1F9FF),
                 (0x1FA70, 0x1FAFF), (0x2600, 0x26FF), (0x2700, 0x27BF), (0x2B00, 0x2BFF))

# One compiled character class over every block above, and one over the two spans that hold them all. One span
# from U+2600 to U+1FAFF scans a little faster, but compiling its 55 000 BMP code points costs 6 ms at every start.
EMOJI_RE = re.compile("[" + "".join(f"\\U{lo:08X}-\\U{hi:08X}" for lo, hi in _EMOJI_RANGES) + "]")
_EMOJI_SPANS = re.compile(r"[\u2600-\u2BFF\U0001F300-\U0001FAFF]")


def _drop_links(text: str) -> tuple[str, int]:
    """`URL_RE.subn(" ", text)`, run only where a link is possible (see the module docstring)."""
    return URL_RE.subn(" ", text) if "://" in text or "www." in text.lower() else (text, 0)


def _emojis(text: str) -> Sequence[str]:
    """`EMOJI_RE.findall(text)`, run only where an emoji is possible (see the module docstring)."""
    return () if text.isascii() or not _EMOJI_SPANS.search(text) else EMOJI_RE.findall(text)


class CleanConfig(NamedTuple):
    """Normalization resources plus the short-post threshold.

    `min_words` is the config's `cleaning` section; the resources are not
    config keys. For clean_text() to be idempotent on its own rendered output
    the resources must be coherent: conjunctions should cover the stop words,
    and the lemma map should be idempotent with values inside the dictionary
    and outside the stop set (the bundled fixtures satisfy this).
    """

    dictionary: frozenset[str] = frozenset()
    lemma_map: Mapping[str, str] = MappingProxyType({})
    stop_words: frozenset[str] = frozenset()
    conjunctions: frozenset[str] = frozenset()
    emoji_whitelist: frozenset[str] = frozenset()
    min_words: Annotated[int, {"min": 0}] = 3  # reject posts with <= min_words non-conjunction tokens
    # clean_text's memo, a dictionary token -> what it leaves: one dict per config; None memoizes within a call only
    spellings: dict[str, tuple[str, ...]] | None = None


class CleanPost(NamedTuple):
    """Cleaned post: word tokens, retained emojis, and removal accounting.

    Rejected posts carry a reason ("too_short" or "misspelled") and an empty
    token list. `removed` counts occurrences for links/mentions/hashtags and
    characters for nonword; emojis_dropped counts non-whitelisted emoji.
    """

    tokens: tuple[str, ...]
    kept_emojis: tuple[str, ...]
    removed: Mapping[str, int]
    rejected_reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.rejected_reason is None


def clean_text(raw_text: str, config: CleanConfig) -> CleanPost:
    """`raw_text` through the chain of the module docstring; the caller keeps the text's id."""
    removed = {"links": 0, "mentions": 0, "hashtags": 0, "nonword": 0, "emojis_dropped": 0}
    text = unicodedata.normalize("NFC", raw_text)
    text, removed["links"] = _drop_links(text)
    text, removed["mentions"] = MENTION_RE.subn(" ", text)
    text, removed["hashtags"] = HASHTAG_RE.subn(" ", text)

    found = _emojis(text)
    kept_emojis = tuple(ch for ch in found if ch in config.emoji_whitelist)
    removed["emojis_dropped"] = len(found) - len(kept_emojis)
    if found:
        text = EMOJI_RE.sub(" ", text)

    words = text.split()
    for i, word in enumerate(words):
        if not word.isalpha():
            words[i] = "".join([ch if ch.isalpha() else " " for ch in word])
            removed["nonword"] += words[i].count(" ")  # a word holds no whitespace, so every space is a replacement
    memo = {} if config.spellings is None else config.spellings
    content, spelled, tokens = 0, True, []
    for token in " ".join(words).lower().split():
        content += token not in config.conjunctions
        if (kept := memo.get(token)) is None:
            if token not in config.dictionary:  # the post is rejected, so its tokens are never needed
                spelled = False
                continue
            lemma = config.lemma_map.get(token, token)
            kept = memo[token] = () if lemma in config.stop_words else (sys.intern(lemma),)
        tokens += kept
    reason = None
    if content <= config.min_words:
        reason, tokens = "too_short", []
    elif not spelled:
        reason, tokens = "misspelled", []
    return CleanPost(tuple(tokens), kept_emojis, removed, reason)


# ---------------------------------------------------------------------------
# Frequency reports
# ---------------------------------------------------------------------------

class FrequencyRow(NamedTuple):
    item: str
    count: int
    share: float


def _frequency_rows(counts: Counter[str]) -> tuple[FrequencyRow, ...]:
    """Item counts sorted by count desc then item asc; share = count / the total count."""
    total = counts.total()
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(FrequencyRow(item, count, count / total) for item, count in ordered)


def hashtag_report(texts: Iterable[str]) -> tuple[FrequencyRow, ...]:
    """Occurrence counts of `#word` hashtags (lowercased, '#' stripped), as `clean_text` finds and counts them."""
    texts = (_drop_links(unicodedata.normalize("NFC", text))[0] for text in texts if "#" in text)  # NFC adds no '#'
    return _frequency_rows(Counter(match[1:].lower() for text in texts for match in HASHTAG_RE.findall(text)))


def emoji_report(texts: Iterable[str]) -> tuple[FrequencyRow, ...]:
    """Occurrence counts of emoji codepoints across the `texts`."""
    return _frequency_rows(Counter(ch for text in texts for ch in _emojis(text)))


def select_emoji_whitelist(
    texts: Iterable[str],
    polarity: Mapping[str, str],
    min_share: float = 0.01,
) -> frozenset[str]:
    """Emojis with unambiguous polarity and at least `min_share` of all emoji in the `texts`.

    Polarity values are "pos", "neg", or "ambiguous"; only pos/neg qualify.
    An emoji-free corpus yields an empty set.
    """
    return frozenset(
        row.item
        for row in emoji_report(texts)
        if polarity.get(row.item) in ("pos", "neg") and row.share >= min_share
    )


def write_frequency_csv(rows: Iterable[FrequencyRow], path: str | Path) -> None:
    write_records(path, "csv", ((row.item, row.count, repr(row.share)) for row in rows), ("item", "count", "share"))


# ---------------------------------------------------------------------------
# Resource file loaders (one term per line, UTF-8)
# ---------------------------------------------------------------------------

def load_word_list(path: str | Path) -> frozenset[str]:
    return frozenset(read_records(path, "txt", lambda word: unicodedata.normalize("NFC", word.lower())))


def _pair(line: str, expected: str, values: tuple[str, ...] = ()) -> list[str]:
    """The two whitespace-separated fields of a word-list line, the second one of `values` if any are given."""
    parts = line.split()
    if len(parts) != 2 or (values and parts[1] not in values):
        raise ValueError(f"expected '{expected}', got {line!r}")
    return parts


def load_lemma_map(path: str | Path) -> dict[str, str]:
    """Lemma file: `word lemma` per line (whitespace separated), each word (lowercased, NFC) on one line."""
    return dict(read_records(path, "txt", lambda line: [
        unicodedata.normalize("NFC", part.lower()) for part in _pair(line, "word lemma")
    ], key=("word", itemgetter(0))))


def load_emoji_polarity(path: str | Path) -> dict[str, str]:
    """Polarity file: `emoji polarity` per line, polarity in pos|neg|ambiguous, each emoji on one line."""
    polarities = ("pos", "neg", "ambiguous")
    return dict(read_records(path, "txt", lambda line: _pair(line, "emoji pos|neg|ambiguous", polarities),
                             key=("emoji", itemgetter(0))))
