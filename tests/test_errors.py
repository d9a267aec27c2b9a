"""The record writer and reader: a JSON-lines line is exactly `json.dumps(record, ensure_ascii=False)`, and a line
reads back as `json.loads` reads it."""

from __future__ import annotations

import csv
import io
import json
import json.encoder
import re
from datetime import timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsent import errors, pipeline
from regsent.errors import iter_records, read_records, write_records
from regsent.preprocess import CleanPost

# characters an encoder must escape or keep as is: quote, backslash, controls, NUL, a line
# separator JSON leaves raw, non-ASCII letters and an emoji
_SPECIAL = st.sampled_from(['"', "\\", "\x00", "\x01", "\x1f", "\x7f", "\n", "\t", " ", "\u2028", "ą", "Σ", "👍", "a"])
_STRINGS = st.text(_SPECIAL | st.characters())
_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
_KEYS = _STRINGS | st.integers() | _FLOATS | st.booleans() | st.none()  # json writes a non-string key as its text


def _values(strings):
    scalars = st.none() | st.booleans() | st.integers() | _FLOATS | strings
    return st.recursive(scalars, lambda children: (
        st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
    ), max_leaves=12)


@pytest.mark.parametrize("encoder", ["c-encoder", "fallback"])
@settings(max_examples=300, deadline=None)
@given(value=_values(st.text(_SPECIAL | st.characters() | st.sampled_from(["\ud800", "\udfff"]))))  # lone surrogates
def test_json_line_is_json_dumps(encoder, value):
    make_encoder = json.encoder.c_make_encoder if encoder == "c-encoder" else None
    if encoder == "c-encoder" and make_encoder is None:
        pytest.skip("this Python has no _json accelerator")
    assert errors._line_encoder(make_encoder)(value) == json.dumps(value, ensure_ascii=False)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(_values(_STRINGS), max_size=5))
def test_write_records_jsonl_is_json_dumps_lines(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "records.jsonl"
    expected = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)
    try:
        expected_bytes = expected.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which no UTF-8 file holds: the writer raises too
        with pytest.raises(UnicodeEncodeError):
            write_records(path, "jsonl", records)
        return
    write_records(path, "jsonl", records)
    assert path.read_bytes() == expected_bytes


# what ingest can write: no lone surrogate reaches its output, as the posts file is UTF-8
_WRITTEN = st.text(_SPECIAL | st.characters(exclude_categories=("Cs",)))
_TIMESTAMPS = st.datetimes(timezones=st.none() | st.builds(
    timezone, st.timedeltas(min_value=timedelta(hours=-23), max_value=timedelta(hours=23))))


@settings(max_examples=300, deadline=None)
@given(post_id=_WRITTEN, text=_WRITTEN, timestamp=_TIMESTAMPS, place=_WRITTEN, lang=_WRITTEN,
       region=st.none() | _WRITTEN)
def test_located_line_is_json_dumps(post_id, text, timestamp, place, lang, region):
    record = {"id": post_id, "text": text, "timestamp": timestamp.isoformat(), "place": place, "lang": lang,
              "region": region or ""}
    assert pipeline._located_line(post_id, text, timestamp, place, lang, region) == json.dumps(
        record, ensure_ascii=False)


@settings(max_examples=300, deadline=None)
@given(post_id=_WRITTEN, tokens=st.lists(_WRITTEN, max_size=4).map(tuple),
       emojis=st.lists(_WRITTEN, max_size=3).map(tuple),
       removed=st.dictionaries(_WRITTEN, st.integers(min_value=0), max_size=5),
       rejected=st.sampled_from([None, "too_short", "misspelled"]))
def test_clean_line_is_json_dumps(post_id, tokens, emojis, removed, rejected):
    record = {"id": post_id, "tokens": tokens, "kept_emojis": emojis, "removed": removed, "rejected": rejected}
    assert pipeline._clean_line(post_id, CleanPost(tokens, emojis, removed, rejected)) == json.dumps(
        record, ensure_ascii=False)


@pytest.mark.parametrize("fmt", ["json", "JSONL", "tsv", ""])
def test_iter_records_rejects_an_unknown_format(fmt):
    with pytest.raises(ValueError, match=re.escape(f"unknown record format {fmt!r}")):
        next(iter_records(io.StringIO("a,b\n1,2\n"), fmt, "t"))


@pytest.mark.parametrize("fmt", ["json", "JSONL", "tsv", ""])
def test_write_records_rejects_an_unknown_format(tmp_path, fmt):
    with pytest.raises(ValueError, match=re.escape(f"unknown record format {fmt!r}")):
        write_records(tmp_path / "records", fmt, [{"a": 1}])
    assert not (tmp_path / "records").exists()


def _loads(decode, text):
    """What `decode(text)` gives, as a comparable (type, text) pair: its value's repr or its exception's message."""
    try:
        value = decode(text)
    except Exception as exc:  # the point is to compare the exceptions themselves
        return type(exc), str(exc)
    return type(value), repr(value)


# JSON whitespace and characters JSON does not count as whitespace: form feed, no-break space, line separator
_SPACES = st.text(st.sampled_from(" \t\r\n\x0c\u00a0\u2028"), max_size=3)
_JUNK = st.text(st.sampled_from('[]{}",:0123456789.eE+-tfnrulsaINfiy\\ '), max_size=12)


@settings(max_examples=500, deadline=None)
@given(bom=st.sampled_from(["", "\ufeff"]), before=_SPACES, after=_SPACES, cut=st.integers(0, 2),
       extra=st.sampled_from(["", "1", "x", "{}", "]", '"']), ensure_ascii=st.booleans(),
       value=_values(_STRINGS), junk=_JUNK, use_junk=st.booleans())
def test_json_value_is_json_loads(bom, before, after, cut, extra, ensure_ascii, value, junk, use_junk):
    """Each line decodes to json.loads's value, or raises json.loads's exception with its message."""
    dumped = junk if use_junk else json.dumps(value, ensure_ascii=ensure_ascii)
    text = bom + before + dumped[:len(dumped) - cut] + after + extra
    assert _loads(errors._json_value, text) == _loads(json.loads, text)


_EDGES = {
    "empty": "", "newline": "\n", "nan": "NaN", "infinity": "-Infinity\r\n", "constants": "[Infinity, NaN]",
    "bom": "\ufeff{}", "two-values": "{} {}", "two-numbers": "1 2", "truncated": '{"a": 1', "surrogate": '"\\ud800"',
    "deep-list": "[" * 100_000 + "]" * 100_000, "deep-object": '{"a":' * 100_000,
    # a value is returned at once only when one line feed is all that follows it
    "line-feed-then-junk": "1\nx", "two-lines": "{}\n{}", "two-line-feeds": '"a"\n\n', "line-feed-then-space": "[]\n ",
    "crlf": "{}\r\n", "indented": "  {}\n", "tab-indented": "\t[]\n", "blank-first-line": "\n{}\n",
}


@pytest.mark.parametrize("text", _EDGES.values(), ids=_EDGES)
def test_json_value_is_json_loads_at_the_edges(text):
    assert _loads(errors._json_value, text) == _loads(json.loads, text)


# CSV fields holding the delimiter, quotes and every line break the reader splits on, so that some are quoted
_CSV_FIELD = st.lists(st.sampled_from(["a", "é", " ", ",", '"', "\n", "\r", "\r\n"]), max_size=6).map("".join)
_CSV_FIELDS = st.lists(_CSV_FIELD, min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_CSV_FIELD, min_size=3, max_size=3), max_size=8))
def test_csv_records_read_back_as_written(tmp_path_factory, rows):
    """Each CSV record `write_records` writes reads back as its fields, whatever line breaks, quotes and commas they hold."""
    path = tmp_path_factory.getbasetemp() / "records.csv"
    write_records(path, "csv", rows, ("a", "b", "c"))
    assert read_records(path, "csv", lambda record: [record["a"], record["b"], record["c"]]) == rows


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_CSV_FIELDS, st.sampled_from(["\n", "\r\n"]), st.integers(0, 2),
                               st.sampled_from(["\n", "\r\n"])), max_size=8),
       header_end=st.sampled_from(["\n", "\r\n"]))
def test_csv_record_lines_are_the_lines_they_start_on(rows, header_end):
    """Each CSV record is numbered with the physical line it starts on, after quoted line breaks and blank lines."""
    text, expected = "a,b,c" + header_end, []
    for fields, end, blanks, blank in rows:
        expected.append((len(re.findall(r"\r\n|\r|\n", text)) + 1, fields))
        line = io.StringIO(newline="")
        csv.writer(line, lineterminator="\r\n").writerow(fields)  # "\r\n", so that a field holding either is quoted
        text += line.getvalue()[:-2] + end + blank * blanks
    records = list(iter_records(io.StringIO(text, newline=""), "csv", "t.csv"))
    assert [line for line, _ in records] == [line for line, _ in expected]
    for (_, record), (_, fields) in zip(records, expected):
        if len(fields) == 3:
            assert record == dict(zip("abc", fields))
