"""Normalization chain and corpus diagnostics.

The core fixture is a 30-post table whose expected outputs were traced by
hand, step by step, against the documented cleaning order (links, mentions,
hashtags, emoji filter, non-word strip, whitespace, short gate, spelling
gate, lemmas, stops).
"""

from __future__ import annotations

import random
import re
import sys
import tempfile
import unicodedata
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coherent_clean_config, fuzz_post_text
from regsent import fixtures
from regsent.errors import DataValidationError
from regsent.preprocess import (
    _EMOJI_RANGES,
    _EMOJI_SPANS,
    EMOJI_RE,
    HASHTAG_RE,
    MENTION_RE,
    URL_RE,
    CleanConfig,
    clean_text,
    emoji_report,
    hashtag_report,
    load_emoji_polarity,
    load_lemma_map,
    load_word_list,
    select_emoji_whitelist,
)

GRIN = "\U0001F600"   # whitelisted
CRY = "\U0001F622"    # whitelisted
THINK = "\U0001F914"  # not whitelisted
ROBOT = "\U0001F916"  # not whitelisted

TRACE_STOPS = frozenset({"the", "a", "and", "in", "on", "is"})
TRACE_CONFIG = CleanConfig(
    dictionary=frozenset({
        "the", "a", "and", "in", "on", "is",
        "walk", "walked", "walks", "run", "running", "city", "cities",
        "good", "day", "sun", "rain", "park", "dog", "cat", "tree", "river",
        "song", "bird", "light", "road", "home", "coffee", "train", "table",
        "ok", "long", "today", "dzień", "dobry",
    }),
    lemma_map={"walked": "walk", "walks": "walk", "running": "run", "cities": "city"},
    stop_words=TRACE_STOPS,
    conjunctions=TRACE_STOPS,
    emoji_whitelist=frozenset({GRIN, CRY}),
)


def counters(links=0, mentions=0, hashtags=0, nonword=0, emojis_dropped=0):
    return {
        "links": links, "mentions": mentions, "hashtags": hashtags,
        "nonword": nonword, "emojis_dropped": emojis_dropped,
    }


# (text, expected tokens, expected kept emojis, expected removal counters,
#  expected rejection reason)
HAND_TRACE = [
    ("good day sun park", ("good", "day", "sun", "park"), (), counters(), None),
    ("the good day in park", (), (), counters(), "too_short"),
    ("good day sun park rain http://x.io/a", ("good", "day", "sun", "park", "rain"), (), counters(links=1), None),
    ("Good Day Sun Park http://x.io www.y.com", ("good", "day", "sun", "park"), (), counters(links=2), None),
    ("@bob good day sun park", ("good", "day", "sun", "park"), (), counters(mentions=1), None),
    ("good day sun park #fun #sun", ("good", "day", "sun", "park"), (), counters(hashtags=2), None),
    (f"good day {GRIN} sun park", ("good", "day", "sun", "park"), (GRIN,), counters(), None),
    (f"good day {ROBOT} sun park", ("good", "day", "sun", "park"), (), counters(emojis_dropped=1), None),
    ("good day, sun park!", ("good", "day", "sun", "park"), (), counters(nonword=2), None),
    ("good day 42 sun park", ("good", "day", "sun", "park"), (), counters(nonword=2), None),
    ("walked walks in the park day", ("walk", "walk", "park", "day"), (), counters(), None),
    ("good day sun parq", (), (), counters(), "misspelled"),
    ("ok http://a.b @u", (), (), counters(links=1, mentions=1), "too_short"),
    (f"{GRIN} {CRY} good day sun park", ("good", "day", "sun", "park"), (GRIN, CRY), counters(), None),
    ("GOOD DAY SUN PARK", ("good", "day", "sun", "park"), (), counters(), None),
    ("good    day  sun     park", ("good", "day", "sun", "park"), (), counters(), None),
    (f"good day sun park {GRIN}{THINK}", ("good", "day", "sun", "park"), (GRIN,), counters(emojis_dropped=1), None),
    ("city cities day park", ("city", "city", "day", "park"), (), counters(), None),
    ("the a and in on is", (), (), counters(), "too_short"),
    ("– – –", (), (), counters(nonword=3), "too_short"),
    ("good day sun park run road", ("good", "day", "sun", "park", "run", "road"), (), counters(), None),
    ("dzień dobry park sun", ("dzień", "dobry", "park", "sun"), (), counters(), None),
    ("good day @a @b @c sun park", ("good", "day", "sun", "park"), (), counters(mentions=3), None),
    ("#tag day", (), (), counters(hashtags=1), "too_short"),
    ("good day sun park walked", ("good", "day", "sun", "park", "walk"), (), counters(), None),
    ("is the walk good and long today", ("walk", "good", "long", "today"), (), counters(), None),
    ("good day sun park https://x.io/q?a=1&b=2", ("good", "day", "sun", "park"), (), counters(links=1), None),
    ("rain rain rain rain", ("rain", "rain", "rain", "rain"), (), counters(), None),
    ("good day sun park 5kg", (), (), counters(nonword=1), "misspelled"),
    (f"walks in the city {GRIN} good day", ("walk", "city", "good", "day"), (GRIN,), counters(), None),
]


class TestCleanHandTrace:
    @pytest.mark.parametrize("case", HAND_TRACE, ids=[f"post{i:02d}" for i in range(len(HAND_TRACE))])
    def test_matches_hand_trace(self, case):
        text, tokens, emojis, removed, reason = case
        cp = clean_text(text, TRACE_CONFIG)
        assert cp.tokens == tokens
        assert cp.kept_emojis == emojis
        assert dict(cp.removed) == removed
        assert cp.rejected_reason == reason

    def test_rejected_posts_have_empty_tokens(self):
        for text, _, _, _, reason in HAND_TRACE:
            cp = clean_text(text, TRACE_CONFIG)
            if reason is not None:
                assert cp.tokens == ()
                assert not cp.accepted


class TestCleanProperties:
    def test_idempotent_on_own_output(self):
        config = coherent_clean_config()
        rng = random.Random(99)
        accepted = 0
        for _ in range(200):
            cp = clean_text(fuzz_post_text(rng), config)
            again = clean_text(" ".join(cp.tokens + cp.kept_emojis), config)
            assert again.tokens == cp.tokens
            accepted += cp.accepted
        assert accepted > 20  # the fuzzer must exercise the accept path

    def test_tokens_never_contain_forbidden_material(self):
        config = coherent_clean_config()
        rng = random.Random(5)
        for _ in range(300):
            cp = clean_text(fuzz_post_text(rng), config)
            for token in cp.tokens:
                assert not token.startswith(("@", "#"))
                assert "http" not in token or token in config.dictionary
                assert token.isalpha()
                assert token == token.lower()

    def test_short_rule_counts_before_stop_removal(self):
        # five tokens, two of them conjunctions: three content words is too few
        config = coherent_clean_config()
        cp = clean_text("the city and river bridge", config)
        assert cp.rejected_reason == "too_short"


def is_emoji(ch: str) -> bool:
    return any(lo <= ord(ch) <= hi for lo, hi in _EMOJI_RANGES)


def reference_clean_text(raw_text: str, config: CleanConfig):
    """clean_text with its emoji step done one character at a time.

    The link, mention and hashtag removals run here first, so the emoji scan
    sees the text clean_text's own scan sees. clean_text then runs on the
    emoji-blanked text, where those steps find nothing, so every later step is
    clean_text's own and a difference can only come from the emoji step.
    """
    text = unicodedata.normalize("NFC", raw_text)
    removed = {}
    for key, pattern in (("links", URL_RE), ("mentions", MENTION_RE), ("hashtags", HASHTAG_RE)):
        text, removed[key] = pattern.subn(" ", text)
    kept = [ch for ch in text if is_emoji(ch) and ch in config.emoji_whitelist]
    removed["emojis_dropped"] = sum(is_emoji(ch) for ch in text) - len(kept)
    text = "".join(" " if is_emoji(ch) else ch for ch in text)
    rest = clean_text(text, config)
    return rest.tokens, tuple(kept), {**rest.removed, **removed}, rest.rejected_reason


# each range end and its neighbours, whitelisted and other emoji, ASCII, and words the dictionary knows
_RANGE_ENDS = [chr(cp) for lo, hi in _EMOJI_RANGES for cp in (lo - 1, lo, hi, hi + 1)]
_PIECES = (
    st.sampled_from(_RANGE_ENDS + [GRIN, CRY, THINK, ROBOT])
    | st.characters(max_codepoint=127)
    | st.sampled_from([f" {word} " for word in fixtures.NEUTRAL_WORDS + fixtures.POSITIVE_WORDS])
)
_TEXTS = st.lists(_PIECES, max_size=40).map("".join)


class TestEmojiScanner:
    def test_compiled_class_matches_exactly_the_ranges(self):
        matched = [cp for cp in range(0x110000) if EMOJI_RE.fullmatch(chr(cp))]
        assert matched == [cp for lo, hi in sorted(_EMOJI_RANGES) for cp in range(lo, hi + 1)]
        assert all(_EMOJI_SPANS.fullmatch(chr(cp)) for cp in matched)  # the emoji scanner's prefilter misses none

    @settings(max_examples=300, deadline=None)
    @given(text=_TEXTS)
    def test_clean_text_matches_per_character_reference(self, text):
        config = coherent_clean_config()
        cp = clean_text(text, config)
        assert (cp.tokens, cp.kept_emojis, dict(cp.removed), cp.rejected_reason) == \
            reference_clean_text(text, config)

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_TEXTS, max_size=6))
    def test_emoji_report_matches_per_character_count(self, texts):
        counts = Counter(ch for text in texts for ch in text if is_emoji(ch))
        report = emoji_report(texts)
        assert [(row.item, row.count) for row in report] == sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert sum(row.count for row in report) == sum(counts.values())


def per_character_clean(raw_text: str) -> tuple[list[str], dict[str, int]]:
    """The tokens and removal counts of clean_text's chain, non-word characters stripped one at a time.

    The oracle for clean_text's word-level pass: every character that is
    neither a letter nor whitespace becomes a space and is counted, the text
    is lowercased whole and split. No emoji is whitelisted.
    """
    text = unicodedata.normalize("NFC", raw_text)
    removed = {}
    for key, pattern in (("links", URL_RE), ("mentions", MENTION_RE), ("hashtags", HASHTAG_RE)):
        text, removed[key] = pattern.subn(" ", text)
    text, removed["emojis_dropped"] = EMOJI_RE.subn(" ", text)
    chars = []
    removed["nonword"] = 0
    for ch in text:
        if ch.isalpha() or ch.isspace():
            chars.append(ch)
        else:
            removed["nonword"] += 1
            chars.append(" ")
    return "".join(chars).lower().split(), removed


def word_level_clean(text: str) -> tuple[list[str], dict[str, int]]:
    """clean_text's tokens and counts, with gates that pass every token the oracle finds."""
    tokens, _ = per_character_clean(text)
    cp = clean_text(text, CleanConfig(dictionary=frozenset(tokens), min_words=0))
    return list(cp.tokens), dict(cp.removed)


_SPACES = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]
# letters whose lowercasing depends on context (final sigma) or grows (İ), a titlecase
# letter, non-letters that str.isalnum or \w accept, and every whitespace character
_NONWORD_ALPHABET = (
    list("azAZąćęłńóśźżĄĆĘŁŃÓŚŹŻΣİǅ") + list("09½_.,!?'-@#:/") + ["\x00", GRIN] + _SPACES
)


class TestNonWordPass:
    """clean_text strips non-word characters word by word; the per-character loop is the reference."""

    @settings(max_examples=500, deadline=None)
    @given(text=st.lists(st.sampled_from(_NONWORD_ALPHABET), max_size=30).map("".join))
    def test_matches_per_character_loop(self, text):
        assert word_level_clean(text) == per_character_clean(text)

    def test_final_sigma_beside_every_whitespace_character(self):
        for ch in _SPACES:
            for text in (f"aΣ{ch}b", f"Σ{ch}Σ", f"x.Σ{ch}b"):
                assert word_level_clean(text) == per_character_clean(text), (text, hex(ord(ch)))


class TestHashtagReport:
    def test_single_hashtag_full_share(self):
        report = hashtag_report(["only #one here"])
        assert sum(row.count for row in report) == 1
        assert report[0].item == "one"
        assert report[0].share == 1.0

    def test_decomposed_hashtag_counts_as_its_composed_form(self):
        """`\\w` does not match a combining mark, so the report reads the NFC text, as clean_text does."""
        text = "#PiSświętuje #Łódź #PiSświętuje"
        composed = hashtag_report([unicodedata.normalize("NFC", text)])
        assert hashtag_report([unicodedata.normalize("NFD", text)]) == composed
        assert [(row.item, row.count) for row in composed] == [("pisświętuje", 2), ("łódź", 1)]

    def test_counts_match_naive_scan(self):
        rng = random.Random(7)
        tags = [f"tag{i}" for i in range(40)]
        texts = []
        for _ in range(120):
            body = " ".join(f"#{rng.choice(tags)}" for _ in range(rng.randint(0, 5)))
            texts.append(f"text {body}")
        report = hashtag_report(texts)
        oracle = Counter()
        for text in texts:
            oracle.update(match.lower() for match in re.findall(r"#(\w+)", text))
        assert sum(row.count for row in report) == sum(oracle.values())
        assert {r.item: r.count for r in report} == dict(oracle)

    def test_sorted_by_count_then_item(self):
        report = hashtag_report(["#b #a #a #c #b #d"])
        assert [r.item for r in report] == ["a", "b", "c", "d"]

    def test_shares_sum_to_one_before_truncation(self):
        rng = random.Random(3)
        texts = [" ".join(f"#t{rng.randint(0, 30)}" for _ in range(4)) for _ in range(50)]
        report = hashtag_report(texts)
        assert abs(sum(r.share for r in report) - 1.0) < 1e-12

    def test_fragment_inside_a_link_is_no_hashtag(self):
        """clean_text removes a link whole, its `#fragment` with it, so the report does not count the fragment."""
        text = "read http://x.pl/a#intro now #vote"
        assert clean_text(text, TRACE_CONFIG).removed["hashtags"] == 1
        assert [(row.item, row.count) for row in hashtag_report([text])] == [("vote", 1)]


# pieces the link and emoji gates must not miss: letters that case-fold to ASCII (long s, Kelvin sign,
# dotted and dotless i), every case of `w`, the pieces of `://` and `www.`, Polish letters, each emoji
# block's ends and their neighbours, hashtags, mentions and words the dictionary knows
_GATE_PIECES = st.sampled_from(
    list("ſKİıWw:/.#@ ąćęłńóśźżĄŁŻ") + ["://", "www.", "WwW.", "HTTPS://", "http", "s", "x", "a.pl", "#tag"]
    + _RANGE_ENDS + [GRIN, CRY, THINK] + [f" {word} " for word in fixtures.NEUTRAL_WORDS[:8]]
)
_GATE_TEXTS = st.lists(_GATE_PIECES, max_size=30).map("".join)
# non-ASCII characters outside every emoji block: Polish letters and each block's neighbours that no block holds
_NOT_EMOJI = [ch for ch in "ąćęłńóśźżſİı" + "".join(_RANGE_ENDS) if not is_emoji(ch)]


class TestGates:
    """The link step and the emoji scans run only where they can match; the ungated chain is the reference."""

    @settings(max_examples=1000, deadline=None)
    @given(text=_GATE_TEXTS)
    def test_clean_text_matches_ungated_chain(self, text):
        config = coherent_clean_config()
        cp = clean_text(text, config)
        assert (cp.tokens, cp.kept_emojis, dict(cp.removed), cp.rejected_reason) == \
            reference_clean_text(text, config)

    @settings(max_examples=1000, deadline=None)
    @given(text=_GATE_TEXTS)
    def test_hashtag_report_counts_what_clean_text_removes(self, text):
        count = sum(row.count for row in hashtag_report([text]))
        assert count == clean_text(text, coherent_clean_config()).removed["hashtags"]

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(_GATE_TEXTS | st.text(st.sampled_from(_NOT_EMOJI + ["a", " "]), min_size=1), max_size=6))
    def test_emoji_report_matches_per_character_count(self, texts):
        counts = Counter(ch for text in texts for ch in text if is_emoji(ch))
        assert [(row.item, row.count) for row in emoji_report(texts)] == \
            sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def emoji_posts(counts_by_emoji: dict[str, int]) -> list[str]:
    texts = []
    for emoji, count in counts_by_emoji.items():
        remaining = count
        while remaining > 0:
            chunk = min(remaining, 500)
            texts.append(emoji * chunk)
            remaining -= chunk
    return texts


class TestEmojiWhitelist:
    UMBRELLA = "☔"

    def test_high_share_positive_included(self):
        posts = emoji_posts({GRIN: 1228, THINK: 2000, self.UMBRELLA: 6772})
        polarity = {GRIN: "pos", THINK: "ambiguous"}
        report = emoji_report(posts)
        assert abs(dict((r.item, r.share) for r in report)[GRIN] - 0.1228) < 1e-12
        assert select_emoji_whitelist(posts, polarity) == {GRIN}

    def test_ambiguous_excluded_even_with_large_share(self):
        posts = emoji_posts({THINK: 2000, GRIN: 8000})
        assert THINK not in select_emoji_whitelist(posts, {THINK: "ambiguous", GRIN: "pos"})

    def test_boundary_share_included(self):
        posts = emoji_posts({CRY: 100, self.UMBRELLA: 9900})
        polarity = {CRY: "neg"}
        assert select_emoji_whitelist(posts, polarity, min_share=0.01) == {CRY}
        assert select_emoji_whitelist(posts, polarity, min_share=0.0101) == frozenset()

    def test_empty_corpus_empty_set(self):
        assert select_emoji_whitelist(["no emoji here"], {GRIN: "pos"}) == frozenset()


class TestSpellGate:
    """The misspelling gate, through clean_text with no short-post, conjunction or stop-word rule in the way."""

    DICT = frozenset({"good", "day", "walk", "sun"})
    CONFIG = CleanConfig(dictionary=DICT, min_words=0)

    def test_all_known_passes(self):
        cp = clean_text("good day", self.CONFIG)
        assert cp.accepted and cp.tokens == ("good", "day")

    def test_one_unknown_fails(self):
        cp = clean_text("good dey", self.CONFIG)
        assert cp.rejected_reason == "misspelled" and cp.tokens == ()

    @given(st.lists(st.sampled_from(["good", "day", "walk", "sun", "xyz", "qq"]), min_size=1, max_size=12))
    def test_iff_subset_property(self, tokens):
        cp = clean_text(" ".join(tokens), self.CONFIG)
        assert cp.accepted == set(tokens).issubset(self.DICT)
        assert cp.rejected_reason in (None, "misspelled")

    def test_gate_reads_the_tokens_before_lemmatization(self):
        lemma_map = {"walked": "walk"}
        inflection_known = CleanConfig(dictionary=frozenset({"walked"}), lemma_map=lemma_map, min_words=0)
        assert clean_text("walked walked", inflection_known).tokens == ("walk", "walk")
        lemma_known = CleanConfig(dictionary=frozenset({"walk"}), lemma_map=lemma_map, min_words=0)
        assert clean_text("walked walked", lemma_known).rejected_reason == "misspelled"


class TestShortPostGate:
    CONFIG = CleanConfig(dictionary=frozenset({"good", "day", "sun", "and", "or"}),
                         conjunctions=frozenset({"and", "or"}), min_words=2)

    def test_conjunctions_do_not_count_towards_min_words(self):
        assert clean_text("good and day or", self.CONFIG).rejected_reason == "too_short"
        assert clean_text("good and day sun", self.CONFIG).accepted

    def test_short_gate_comes_before_the_spell_gate(self):
        assert clean_text("xyz qq", self.CONFIG).rejected_reason == "too_short"


class TestLemmatizeAndStop:
    """Lemmas and stop words, through clean_text with a dictionary that knows every token and no short-post rule."""

    VOCAB = ["walk", "walked", "walks", "city", "cities", "the", "a", "an", "run"]
    LEMMAS = {"walked": "walk", "walks": "walk", "cities": "city", "an": "a"}
    STOPS = frozenset({"the", "a"})
    CONFIG = CleanConfig(dictionary=frozenset(VOCAB), lemma_map=LEMMAS, stop_words=STOPS, min_words=0)

    def test_inflections_map_to_lemma(self):
        assert clean_text("walked walks", self.CONFIG).tokens == ("walk", "walk")

    def test_lemma_that_is_a_stop_word_is_dropped(self):
        assert clean_text("an city", self.CONFIG).tokens == ("city",)

    def test_empty(self):
        cp = clean_text("the a an", self.CONFIG)
        assert cp.accepted and cp.tokens == ()

    def test_matches_map_then_filter_oracle(self):
        rng = random.Random(11)
        tokens = [rng.choice(self.VOCAB) for _ in range(100)]
        expected = [self.LEMMAS.get(t, t) for t in tokens]
        expected = [t for t in expected if t not in self.STOPS]
        assert clean_text(" ".join(tokens), self.CONFIG).tokens == tuple(expected)


def test_removed_keys_in_fixed_order():
    """clean.jsonl writes `removed` in its key order, accepted or rejected."""
    keys = ["links", "mentions", "hashtags", "nonword", "emojis_dropped"]
    for text, *_ in HAND_TRACE:
        assert list(clean_text(text, TRACE_CONFIG).removed) == keys


class TestTokenMemo:
    """`clean_text` looks each dictionary token up once per `CleanConfig`; a shared config cleans as fresh ones."""

    RESOURCES = dict(
        dictionary=frozenset({"good", "day", "walked", "walk", "the", "and", "οδος", "οδοσ", "i\u0307stanbul", "ok"}),
        lemma_map={"walked": "walk"},
        stop_words=frozenset({"the", "and"}),
        conjunctions=frozenset({"and"}),
        emoji_whitelist=frozenset({GRIN}),
        min_words=2,
    )
    # dictionary words, their case and punctuation variants, final sigma (ΟΔΟΣ lowercases to οδος, ΟΔΟΣΑ to
    # οδοσα), İ (lowercases to i + a combining dot), misspellings, digits-only words and emoji
    WORDS = ["good", "Good", "GOOD!", "day", "day,", "walked", "Walked.", "the", "and", "ΟΔΟΣ", "ΟΔΟΣ.", "Σ",
             "ΟΔΟΣΑ", "İstanbul", "İSTANBUL", "ok", "o.k", "dey", "goood", "2019", "12:30", "--", GRIN, THINK,
             f"good{GRIN}", "#day", "@good"]

    def assert_bound(self, config):
        """Every memo key is a dictionary token, mapped to what lemmas and stop words leave of it, interned."""
        for token, kept in config.spellings.items():
            assert token in config.dictionary, token
            lemma = config.lemma_map.get(token, token)
            assert kept == (() if lemma in config.stop_words else (lemma,))
            assert all(sys.intern(piece) is piece for piece in kept)

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join), max_size=12))
    def test_shared_config_cleans_as_a_fresh_one(self, texts):
        shared = CleanConfig(**self.RESOURCES, spellings={})
        for text in texts:
            assert clean_text(text, shared) == clean_text(text, CleanConfig(**self.RESOURCES))
        self.assert_bound(shared)

    def test_a_word_in_accepted_and_rejected_posts(self):
        config = CleanConfig(**self.RESOURCES, spellings={})
        texts = ["good day ΟΔΟΣ", "good dey ΟΔΟΣ", "good", "Good day walked İstanbul 2019", "good day ΟΔΟΣ"]
        got = [clean_text(text, config) for text in texts]
        assert got == [clean_text(text, CleanConfig(**self.RESOURCES)) for text in texts]
        assert [cp.rejected_reason for cp in got] == [None, "misspelled", "too_short", None, None]
        assert got[0].tokens == ("good", "day", "οδος")
        assert set(config.spellings) == {"good", "day", "οδος", "walked", "i\u0307stanbul"}

    def test_memo_grows_with_the_dictionary_not_the_corpus(self):
        config = CleanConfig(**self.RESOURCES, spellings={})
        words = [f"{case}{n}{mark}" for n in range(500) for case in ("good", "Good", "GoOd", "GOOD")
                 for mark in ("", "!", ",")] + [f"good{n}x{n}" for n in range(500)] + [f"typo{n}" for n in range(500)]
        for i in range(0, len(words), 4):
            clean_text(" ".join(words[i:i + 4]), config)
        assert set(config.spellings) == {"good"}
        self.assert_bound(config)


def _split_lines_oracle(text: str, path: Path, kind: str):
    """A word-list file read line by line over `str.splitlines`, as each loader is specified.

    A word or emoji that a lemma or polarity file lists twice fails at its second line.
    """
    words: set[str] = set()
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if kind == "words":
            words.add(unicodedata.normalize("NFC", line.lower()))
            continue
        parts = line.split()
        if kind == "lemmas":
            if len(parts) != 2:
                return f"{path}:{number}: expected 'word lemma', got {line!r}"
            (key, value), what = (unicodedata.normalize("NFC", part.lower()) for part in parts), "word"
        else:
            if len(parts) != 2 or parts[1] not in ("pos", "neg", "ambiguous"):
                return f"{path}:{number}: expected 'emoji pos|neg|ambiguous', got {line!r}"
            (key, value), what = parts, "emoji"
        if first_line.setdefault(key, number) != number:
            return f"{path}:{number}: duplicate {what} {key!r}, first used at line {first_line[key]}"
        mapping[key] = value
    return frozenset(words) if kind == "words" else mapping


class TestWordListLoaders:
    # every line boundary str.splitlines knows, other whitespace, case and a combining accent
    PIECES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ", "\t", "\xa0",
              "Ab", "e\u0301", "\u00c9", GRIN, "pos", "neg", "ambiguous", "happy"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
    def test_loaders_read_lines_as_splitlines_cuts_them(self, text):
        loaders = {"words": load_word_list, "lemmas": load_lemma_map, "polarity": load_emoji_polarity}
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "list.txt"
            path.write_bytes(text.encode("utf-8"))
            for kind, load in loaders.items():
                try:
                    got = load(path)
                except DataValidationError as exc:
                    got = str(exc)
                assert got == _split_lines_oracle(text, path, kind)
