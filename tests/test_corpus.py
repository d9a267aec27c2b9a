"""Ingestion, gazetteer resolution, and count diagnostics."""

from __future__ import annotations

import csv
import json
import logging
import random
import re
import sys
import unicodedata
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regsent.corpus import (
    GazetteerEntry,
    RawPost,
    filter_located,
    load_gazetteer,
    load_posts,
    load_region_table,
    normalize_place,
    region_counts,
    resolve_region,
)
from regsent.errors import DataValidationError
from regsent import pipeline
from regsent.fixtures import write_corpus_fixture
from regsent.pipeline import load_config, stage_clean, stage_ingest
from regsent.preprocess import CleanConfig, clean_text
from regsent.sentiment import Prediction, SentimentLabel
from regsent.stats import design_matrix, ols

TS = "2019-10-01T12:00:00+00:00"


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def write_posts(path, records, fmt):
    if fmt == "jsonl":
        write_jsonl(path, records)
        return
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)


def read_posts(path, fmt="jsonl"):
    """(posts, skipped) of the posts file at `path`: `load_posts` iterated to the end."""
    posts, counts = load_posts(path, fmt)
    posts = list(posts)
    assert counts["loaded"] == len(posts)
    return posts, counts["skipped"]


def make_post(i, place="northgate", lang="pl", text="hello world"):
    return RawPost(
        id=f"p{i}",
        text=text,
        timestamp=datetime(2019, 10, 1, tzinfo=timezone.utc),
        place_name=place,
        language=lang,
    )


class TestLoadPosts:
    def test_clean_records(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [
            {"id": "a", "text": "one", "timestamp": TS, "place": "x", "lang": "pl"},
            {"id": "b", "text": "two", "timestamp": TS, "place": "y", "lang": "pl"},
            {"id": "c", "text": "three", "timestamp": TS, "place": None, "lang": None},
        ])
        posts, skipped = read_posts(path)
        assert len(posts) == 3 and skipped == 0
        assert posts[2].place_name is None and posts[2].language is None

    def test_empty_text_dropped_and_counted(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [
            {"id": "a", "text": "one", "timestamp": TS},
            {"id": "b", "text": "", "timestamp": TS},
            {"id": "c", "text": "three", "timestamp": TS},
        ])
        posts, skipped = read_posts(path)
        assert [p.id for p in posts] == ["a", "c"]
        assert skipped == 1

    def test_missing_id_and_malformed_json_skipped(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text(
            json.dumps({"text": "no id", "timestamp": TS}) + "\n"
            + "{broken json\n"
            + "[" * 100_000 + "\n"  # nested past the recursion limit of json.loads
            + json.dumps({"id": "ok", "text": "fine", "timestamp": TS}) + "\n",
            encoding="utf-8",
        )
        posts, skipped = read_posts(path)
        assert [p.id for p in posts] == ["ok"]
        assert skipped == 3

    def test_lone_surrogate_skipped_and_counted(self, tmp_path, caplog):
        # valid JSON decoding to a lone surrogate, which no UTF-8 file holds (a truncated post may end in one);
        # an escaped pair decodes to one code point, and an escaped backslash starts no escape
        path = tmp_path / "posts.jsonl"
        path.write_text(
            '{"id": "lone", "text": "good \\ud800 day", "timestamp": "%s"}\n' % TS
            + '{"id": "low", "text": "fine", "timestamp": "%s", "place": "\\udfff"}\n' % TS
            + '{"id": "pair", "text": "good \\ud83d\\ude00 day", "timestamp": "%s"}\n' % TS
            + '{"id": "escaped", "text": "good \\\\ud800 day", "timestamp": "%s"}\n' % TS,
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING, logger="regsent.corpus"):
            posts, skipped = read_posts(path)
        assert [(p.id, p.text) for p in posts] == [("pair", "good \U0001F600 day"), ("escaped", "good \\ud800 day")]
        assert skipped == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping malformed post record at {path}:{line}" for line in (1, 2)]

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(OSError):
            read_posts(tmp_path / "missing.jsonl")

    def test_fifty_record_roundtrip_against_reference_parser(self, tmp_path):
        rng = random.Random(50)
        records = []
        for i in range(50):
            records.append({
                "id": f"id{i:03d}",
                "text": f"text {i} {'ż' * rng.randint(1, 3)}",
                "timestamp": f"2019-{rng.randint(9, 11):02d}-{rng.randint(1, 28):02d}T{rng.randint(0, 23):02d}:05:00Z",
                "place": rng.choice(["alpha", "beta", None]),
                "lang": rng.choice(["pl", "en", None]),
            })
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, records)
        posts, skipped = read_posts(path)
        assert skipped == 0 and len(posts) == 50
        # reference parse: independent of the loader under test
        for post, record in zip(posts, records):
            assert post.id == record["id"]
            assert post.text == record["text"]
            expected_ts = datetime.fromisoformat(record["timestamp"].replace("Z", "+00:00"))
            assert post.timestamp == expected_ts
            assert post.place_name == record["place"]
            assert post.language == record["lang"]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_duplicate_id_fatal_naming_both_lines(self, tmp_path, fmt):
        """The posts are read as they are iterated, through `filter_located` too: a third record repeating the
        first id raises only after the two posts before it have been yielded and counted."""
        records = [
            {"id": "a", "text": "one", "timestamp": TS, "place": "x", "lang": "pl"},
            {"id": "b", "text": "two", "timestamp": TS, "place": "y", "lang": "pl"},
            {"id": "a", "text": "three", "timestamp": TS, "place": "z", "lang": "pl"},
        ]
        path = tmp_path / f"posts.{fmt}"
        write_posts(path, records, fmt)
        first, again = (1, 3) if fmt == "jsonl" else (2, 4)  # a CSV's first record is on line 2
        posts, counts = load_posts(path, fmt)
        located = filter_located(posts, "pl")
        assert [next(located).id, next(located).id] == ["a", "b"]
        assert counts == {"loaded": 2, "skipped": 0}
        with pytest.raises(DataValidationError, match=f":{again}: duplicate post id 'a', first used at line {first}$"):
            next(located)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_timestamp_past_datetime_range_skipped_and_counted(self, tmp_path, caplog, fmt):
        # valid RFC 3339, but 9999-12-31T23:59:59-01:00 is past datetime.max once moved to UTC
        records = [
            {"id": "a", "text": "one", "timestamp": TS, "place": "x", "lang": "pl"},
            {"id": "b", "text": "two", "timestamp": "9999-12-31T23:59:59-01:00", "place": "y", "lang": "pl"},
            {"id": "c", "text": "three", "timestamp": TS, "place": "z", "lang": "pl"},
        ]
        path = tmp_path / f"posts.{fmt}"
        write_posts(path, records, fmt)
        with caplog.at_level(logging.WARNING, logger="regsent.corpus"):
            posts, skipped = read_posts(path, fmt=fmt)
        assert [p.id for p in posts] == ["a", "c"] and skipped == 1
        line = 2 if fmt == "jsonl" else 3
        assert [r.getMessage() for r in caplog.records] == [f"skipping malformed post record at {path}:{line}"]

    @pytest.mark.parametrize("field, value", [
        ("id", True), ("id", 1.5), ("id", ["a"]), ("id", {"a": 1}),
        ("text", ["hello", "world"]), ("text", 7), ("text", {"a": 1}), ("text", True),
        ("timestamp", 1569931200), ("timestamp", [TS]), ("timestamp", None),
        ("place", {"a": 1}), ("place", ["x"]), ("place", 3), ("place", False),
        ("lang", ["pl"]), ("lang", 1), ("lang", True),
    ])
    def test_json_field_of_the_wrong_type_skipped_and_counted(self, tmp_path, caplog, field, value):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [
            {"id": "a", "text": "one", "timestamp": TS, "place": "x", "lang": "pl"},
            {"id": "b", "text": "two", "timestamp": TS, "place": "y", "lang": "pl", field: value},
        ])
        with caplog.at_level(logging.WARNING, logger="regsent.corpus"):
            posts, skipped = read_posts(path)
        assert [p.id for p in posts] == ["a"] and skipped == 1
        assert [r.getMessage() for r in caplog.records] == [f"skipping malformed post record at {path}:2"]

    def test_integer_id_and_null_or_absent_place_and_lang_accepted(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [
            {"id": 7, "text": "one", "timestamp": TS, "place": None, "lang": None},
            {"id": "b", "text": "two", "timestamp": TS},
        ])
        posts, skipped = read_posts(path)
        assert skipped == 0
        assert [(p.id, p.place_name, p.language) for p in posts] == [("7", None, None), ("b", None, None)]

    def test_csv_line_is_where_the_record_starts(self, tmp_path):
        records = [
            {"id": "a", "text": "two\nlines", "timestamp": TS, "place": "x", "lang": "pl"},
            {"id": "b", "text": "one", "timestamp": TS, "place": "y", "lang": "pl"},
            {"id": "b", "text": "again", "timestamp": TS, "place": "z", "lang": "pl"},
        ]
        path = tmp_path / "posts.csv"
        write_posts(path, records, "csv")
        # header on line 1, "a" on lines 2-3, so the first "b" starts on line 4 and the second on 5
        with pytest.raises(DataValidationError, match=r":5: duplicate post id 'b', first used at line 4$"):
            read_posts(path, fmt="csv")

    def test_csv_format(self, tmp_path):
        path = tmp_path / "posts.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "text", "timestamp", "place", "lang"])
            writer.writerow(["a", "hello there", TS, "northgate", "pl"])
            writer.writerow(["", "orphan", TS, "", ""])
        posts, skipped = read_posts(path, fmt="csv")
        assert [p.id for p in posts] == ["a"] and skipped == 1
        assert posts[0].place_name == "northgate"


class TestFilterLocated:
    def test_identity_when_all_match(self):
        posts = [make_post(i) for i in range(4)]
        assert list(filter_located(posts, "pl")) == posts

    def test_counts(self):
        posts = [make_post(i) for i in range(7)] + [make_post(i + 10, place=None) for i in range(3)]
        assert len(list(filter_located(posts, "pl"))) == 7

    def test_mixed_language_predicate_recheck(self):
        rng = random.Random(4)
        posts = [
            make_post(i, place=rng.choice(["a", None]), lang=rng.choice(["pl", "en", "PL", None]))
            for i in range(60)
        ]
        kept = list(filter_located(posts, "pl"))
        for post in posts:
            expected = bool(post.place_name) and post.language is not None and post.language.lower() == "pl"
            assert (post in kept) == expected

    @given(st.lists(st.tuples(st.booleans(), st.sampled_from(["pl", "en", None]))))
    def test_idempotent(self, flags):
        posts = [
            make_post(i, place="town" if has_place else None, lang=lang)
            for i, (has_place, lang) in enumerate(flags)
        ]
        once = list(filter_located(posts, "pl"))
        assert list(filter_located(once, "pl")) == once


def entry(name, region, importance):
    return GazetteerEntry(place_name=name, region_id=region, province="prov", importance=importance)


def index(entries):
    """The name index `load_gazetteer` returns for a gazetteer of `entries`."""
    out = {}
    for e in entries:
        out.setdefault(normalize_place(e.place_name), []).append(e)
    return out


def full_scan(place_name, entries):
    """(region or None, whether regions tied) of the top-importance entry whose normalised name matches, by one scan
    of every entry: the reference the name index must agree with."""
    key = normalize_place(place_name)
    best, tied = None, False
    for e in entries:
        if normalize_place(e.place_name) != key:
            continue
        if best is None or e.importance > best.importance:
            best, tied = e, False
        elif e.importance == best.importance and e.region_id != best.region_id:
            tied = True
            if e.region_id < best.region_id:
                best = e
    return (best and best.region_id), tied


class TestResolveRegion:
    def test_unique_name(self):
        assert resolve_region("alpha", index([entry("alpha", "R1", 0.5)])) == "R1"

    def test_highest_importance_wins(self):
        gaz = [entry("york", "R1", 0.7), entry("york", "R2", 0.4)]
        assert resolve_region("york", index(gaz)) == "R1"
        assert resolve_region("york", index(reversed(gaz))) == "R1"

    def test_case_and_unicode_normalization(self):
        gaz = index([entry("Łódź", "R9", 0.9)])
        assert resolve_region("łódź", gaz) == "R9"
        assert resolve_region("ŁÓDŹ", gaz) == "R9"

    def test_no_match_returns_none(self):
        assert resolve_region("nowhere", index([entry("alpha", "R1", 0.5)])) is None

    def test_tie_breaks_to_smallest_region_id(self, caplog):
        gaz = [entry("twin", "R7", 0.6), entry("twin", "R2", 0.6)]
        with caplog.at_level(logging.WARNING, logger="regsent.corpus"):
            assert resolve_region("twin", index(gaz)) == "R2"
        assert any("tie" in record.message for record in caplog.records)
        assert resolve_region("twin", index(reversed(gaz))) == "R2"

    def test_against_exhaustive_argmax_oracle(self):
        rng = random.Random(20)
        names = ["a", "b", "c", "d", "e"]  # 5 ambiguous names
        gaz = []
        for i in range(20):
            name = rng.choice(names) if i < 15 else f"solo{i}"
            gaz.append(entry(name, f"R{rng.randint(1, 9)}", round(rng.random(), 3)))
        for name in names + ["solo15", "missing"]:
            got = resolve_region(name, index(gaz))
            matches = [e for e in gaz if e.place_name == name]
            if not matches:
                assert got is None
            else:
                top = max(e.importance for e in matches)
                best = min((e for e in matches if e.importance == top), key=lambda e: e.region_id)
                assert got == best.region_id

    @given(st.permutations(list(range(6))))
    def test_gazetteer_order_never_matters(self, order):
        base = [
            entry("p", "R3", 0.5), entry("p", "R1", 0.5), entry("p", "R2", 0.9),
            entry("q", "R4", 0.2), entry("other", "R5", 1.0), entry("p", "R6", 0.1),
        ]
        shuffled = [base[i] for i in order]
        assert resolve_region("p", index(shuffled)) == "R2"
        assert resolve_region("q", index(shuffled)) == "R4"


class TestIngestGazetteerIndex:
    SPELLINGS = (str, str.upper, str.lower, str.title, lambda name: unicodedata.normalize("NFD", name))

    def test_stage_ingest_resolves_as_a_full_scan(self, tmp_path, caplog):
        """Case, NFC/NFD and importance-tie variants resolve, and ties warn, as a scan of the whole gazetteer."""
        rng = random.Random(61)
        names = ["Łódź", "Kraków", "Zielona Góra", "Großdorf", "Bielsko-Biała", "Ærøskøbing", "York"]
        entries = [  # importances from a small set, so ties are common
            entry(rng.choice(self.SPELLINGS)(name), f"R{i}{j}", rng.choice([0.2, 0.5, 0.5, 0.9]))
            for i, name in enumerate(names) for j in range(rng.randint(1, 4))
        ]
        with (tmp_path / "gazetteer.csv").open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["place_name", "commune", "region_id", "province", "importance", "population"])
            writer.writerows([e.place_name, "", e.region_id, e.province, e.importance, 100] for e in entries)
        places = [rng.choice(self.SPELLINGS)(rng.choice(names + ["Nowhere"])) for _ in range(80)]
        places += [" york ", "KRAKÓW", unicodedata.normalize("NFD", "łódź")]
        write_jsonl(tmp_path / "posts.jsonl", [
            {"id": f"p{i}", "text": "hello", "timestamp": TS, "place": place, "lang": "pl"}
            for i, place in enumerate(places)
        ])
        (tmp_path / "config.json").write_text(json.dumps({
            "paths": {"posts": "posts.jsonl", "gazetteer": "gazetteer.csv"},
        }), encoding="utf-8")
        # one scan per distinct raw place, as ingest's cache makes one call
        scans = {place: full_scan(place, entries) for place in dict.fromkeys(places)}
        expected = {place: region for place, (region, _) in scans.items()}
        with caplog.at_level(logging.WARNING, logger="regsent.corpus"):
            stage_ingest(load_config(tmp_path / "config.json"), tmp_path / "out")
            ingest_ties = sum("importance tie" in r.message for r in caplog.records)
        with (tmp_path / "out" / "located.jsonl").open(encoding="utf-8") as handle:
            got = [(row["place"], row["region"]) for row in map(json.loads, handle)]
        assert got == [(place, expected[place] or "") for place in places]
        assert ingest_ties == sum(tied for _, tied in scans.values()) > 0
        assert None in expected.values() and len(set(expected.values())) > len(names) / 2


class TestPostRepresentation:
    """Per-post records are immutable and slotted, loaded posts naming one place share its string, and cleaned
    tokens are interned."""

    RECORDS = {
        "raw": (RawPost("p", "text", datetime(2019, 1, 1, tzinfo=timezone.utc)), "text"),
        "clean": (clean_text("too short", CleanConfig()), "tokens"),
        "prediction": (Prediction(SentimentLabel.POSITIVE, np.array([0.25, 0.75]), False), "fallback"),
    }

    @pytest.mark.parametrize("kind", RECORDS)
    def test_record_is_immutable_and_has_no_dict(self, kind):
        record, field = self.RECORDS[kind]
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_accepted_and_fallback_read_as_before(self):
        accepted = clean_text("good day in the park today", CleanConfig(
            dictionary=frozenset("good day in the park today".split()), min_words=1))
        rejected = self.RECORDS["clean"][0]
        assert (accepted.accepted, accepted.rejected_reason) == (True, None)
        assert (rejected.accepted, rejected.rejected_reason) == (False, "too_short")
        prediction = self.RECORDS["prediction"][0]
        assert prediction.fallback is False and prediction.label is SentimentLabel.POSITIVE
        assert Prediction(SentimentLabel.NEGATIVE, np.array([1.0, 0.0]), True).fallback is True

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_load_posts_shares_place_and_language(self, tmp_path, fmt):
        records = [{"id": f"p{i}", "text": "hello", "timestamp": TS, "place": "Zielona Góra", "lang": "pl-PL"}
                   for i in range(2)]
        path = tmp_path / f"posts.{fmt}"
        if fmt == "jsonl":
            write_jsonl(path, records)
        else:
            with path.open("w", encoding="utf-8", newline="") as handle:
                writer = csv.DictWriter(handle, list(records[0]))
                writer.writeheader()
                writer.writerows(records)
        first, second = load_posts(path, fmt)[0]
        assert first.place_name is second.place_name and first.language is second.language

    def test_clean_tokens_are_shared(self, tmp_path):
        config = load_config(write_corpus_fixture(tmp_path / "fixture", n_posts=60))
        stage_ingest(config, tmp_path / "out")
        _, _, (_, token_lists) = stage_clean(config, tmp_path / "out", pipeline._located_posts(tmp_path / "out"))
        assert token_lists and all(sys.intern(token) is token for tokens in token_lists for token in tokens)


class TestRegionCounts:
    def test_single_region(self):
        counts = region_counts(["R1"] * 10, {"R1": 1000})
        assert counts["R1"] == (10, 0.01)

    def test_counts_conserved(self):
        ids = ["R1"] * 6 + ["R2"] * 4
        counts = region_counts(ids, {})
        assert sum(count for count, _ in counts.values()) == 10

    def test_missing_population_reports_none(self):
        counts = region_counts(["R1", "R2"], {"R1": 10})
        assert counts["R1"] == (1, 0.1)
        assert counts["R2"] == (1, None)

    def test_resolvable_plus_unresolvable_sums_to_input(self):
        gaz = [entry("alpha", "R1", 0.5), entry("beta", "R2", 0.5)]
        places = ["alpha", "beta", "alpha", "gamma", None]
        posts = [make_post(i, place=p) for i, p in enumerate(places)]
        resolved = [resolve_region(p.place_name, index(gaz)) if p.place_name else None for p in posts]
        region_ids = [r for r in resolved if r]
        counts = region_counts(region_ids, {})
        unresolved = sum(1 for r in resolved if r is None)
        assert sum(count for count, _ in counts.values()) + unresolved == len(posts)

    def test_count_scales_with_population(self):
        # counts built as an affine function of population plus noise; the fit
        # recovers slope 0.0145 and intercept -1160.98 within 2 standard errors
        rng = np.random.default_rng(110)
        slope, intercept = 0.0145, -1160.98
        populations = rng.uniform(90_000, 1_900_000, 150)
        counted = intercept + slope * populations + rng.normal(0, 60, 150)
        fit = ols(design_matrix(["population"], populations.reshape(-1, 1), counted))
        assert abs(fit.beta[1] - slope) < 2 * fit.se[1]
        assert abs(fit.beta[0] - intercept) < 2 * fit.se[0]
        assert fit.p[1] < 1e-6


class TestTableLoaders:
    def test_gazetteer_roundtrip_and_validation(self, tmp_path):
        path = tmp_path / "gaz.csv"
        path.write_text(
            "place_name,commune,region_id,province,importance,population\n"
            "alpha,alpha c,R1,prov,0.5,1000\n"
            "alpha,alpha c,R2,prov,0.4,500\n",
            encoding="utf-8",
        )
        assert load_gazetteer(path) == {"alpha": [entry("alpha", "R1", 0.5), entry("alpha", "R2", 0.4)]}

    def test_gazetteer_duplicate_pair_fatal(self, tmp_path):
        path = tmp_path / "gaz.csv"
        path.write_text(
            "place_name,commune,region_id,province,importance,population\n"
            "alpha,c,R1,p,0.5,10\nalpha,c,R1,p,0.6,10\n",
            encoding="utf-8",
        )
        with pytest.raises(DataValidationError,
                           match=r":3: duplicate \(place_name, region_id\) \('alpha', 'R1'\), first used at line 2$"):
            load_gazetteer(path)

    def test_gazetteer_importance_range(self, tmp_path):
        path = tmp_path / "gaz.csv"
        path.write_text(
            "place_name,commune,region_id,province,importance,population\n"
            "alpha,c,R1,p,1.5,10\n",
            encoding="utf-8",
        )
        with pytest.raises(DataValidationError, match="importance"):
            load_gazetteer(path)

    @pytest.mark.parametrize("row, reason", [
        ("alpha,c,,p,0.5,10", "empty region_id"),
        ("   ,c,R1,p,0.5,10", "empty place_name"),
    ], ids=["region-id", "place-name"])
    def test_gazetteer_empty_key_fatal(self, tmp_path, row, reason):
        # an empty region_id would count its place's posts unresolved, and a blank place a post's blank place resolved
        path = tmp_path / "gaz.csv"
        path.write_text("place_name,commune,region_id,province,importance,population\n"
                        f"beta,c,R2,p,0.5,10\n{row}\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(path))}:3: {reason}$"):
            load_gazetteer(path)

    def test_region_table(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(
            "region_id,population,outcome,urbanization,median_age\n"
            "R1,1000,0.45,0.8,40\nR2,2000,0.5,0.3,42\n",
            encoding="utf-8",
        )
        rows = load_region_table(path)
        assert rows[0].features == {"urbanization": 0.8, "median_age": 40.0}

    def test_region_table_outcome_range(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text("region_id,population,outcome\nR1,10,1.2\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="outcome"):
            load_region_table(path)

    def test_region_table_empty_id_fatal(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text("region_id,population,outcome\nR1,10,0.5\n,11,0.4\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(path))}:3: empty region_id$"):
            load_region_table(path)

    def test_region_table_duplicate_id(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text("region_id,population,outcome\nR1,10,0.5\nR1,11,0.4\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=r":3: duplicate region_id 'R1', first used at line 2$"):
            load_region_table(path)
