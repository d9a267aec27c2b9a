"""The record writer: JSON-lines lines are exactly `json.dumps(record, ensure_ascii=False)`."""

from __future__ import annotations

import json
import json.encoder

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsent import errors
from regsent.errors import write_records

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
    write_records(path, "jsonl", records)
    expected = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)
    assert path.read_bytes() == expected.encode("utf-8")
