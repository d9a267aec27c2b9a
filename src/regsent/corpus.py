"""Corpus ingestion: posts, gazetteer, region tables, and count diagnostics.

File formats (all UTF-8):
  posts        JSON lines {"id","text","timestamp","place","lang"} or CSV with
               the same columns; a timestamp is an RFC 3339 date-time or a
               bare date (`_TIMESTAMP`).
  gazetteer    CSV place_name,commune,region_id,province,importance,population;
               commune and population are not read.
  region table CSV region_id,population,outcome,<feature columns...>

Every file is read through `errors.iter_records`, so the line a message names
is the physical line the record starts on, also after a quoted line break.
Malformed posts are skipped and counted; a malformed gazetteer or region row
is fatal: one DataValidationError `<path>:<line>: <reason>`, such as an empty
gazetteer place_name or region_id, or an empty region table region_id. So is a
repeated post id, gazetteer (place_name, region_id) or region table region_id,
with the one message of `errors.unique_key`. `load_posts` reads the posts file
as its posts are iterated and `filter_located` filters them as they come, so a
caller holds only the posts it keeps.

Place matching lives here alone: `load_gazetteer` files each entry under its
`normalize_place` name, and `resolve_region` looks a place up in that index.
`region_counts` maps each region_id to a plain (count, per_capita) pair.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import MALFORMED, iter_records, open_input, read_records, unique_key, warn

__all__ = [
    "GazetteerEntry",
    "RawPost",
    "RegionRecord",
    "filter_located",
    "load_gazetteer",
    "load_posts",
    "load_region_table",
    "match_timestamp",
    "normalize_place",
    "parse_date",
    "parse_timestamp",
    "region_counts",
    "resolve_region",
]


class RawPost(NamedTuple):
    """One ingested micro-post."""

    id: str
    text: str
    timestamp: datetime
    place_name: str | None = None
    language: str | None = None


class GazetteerEntry(NamedTuple):
    """Place name -> administrative region, with a disambiguation score."""

    place_name: str
    region_id: str
    province: str
    importance: float


class RegionRecord(NamedTuple):
    """One region row: outcome share plus named socio-economic features."""

    region_id: str
    population: int
    outcome: float
    features: Mapping[str, float]


# An RFC 3339 date-time (T and Z in either case, a fraction of any length, an offset that may be left out) or a bare
# date. The parsers below build the value from these groups, so every supported Python reads a timestamp alike.
_TIMESTAMP = re.compile(
    r"(?P<year>[0-9]{4})-(?P<month>[0-9]{2})-(?P<day>[0-9]{2})"
    r"(?:[Tt ](?P<hour>[0-9]{2}):(?P<minute>[0-9]{2}):(?P<second>[0-9]{2})(?:\.(?P<fraction>[0-9]+))?"
    r"(?:[Zz]|(?P<sign>[+-])(?P<offset_hour>[01][0-9]|2[0-3]):(?P<offset_minute>[0-5][0-9]))?)?"
)


def parse_date(raw: str) -> date:
    """A `YYYY-MM-DD` date."""
    if not (match := _TIMESTAMP.fullmatch(raw)) or match["hour"]:
        raise ValueError(f"not a YYYY-MM-DD date: {raw!r}")
    return date(int(match["year"]), int(match["month"]), int(match["day"]))


@lru_cache(maxsize=None)  # at most 2 * 24 * 60 offsets pass `_TIMESTAMP`
def _utc_offset(sign: str, hours: str, minutes: str) -> timezone:
    offset = timedelta(hours=int(hours), minutes=int(minutes))
    return timezone(-offset if sign == "-" else offset)


def match_timestamp(raw: str) -> re.Match[str]:
    """The `_TIMESTAMP` match of `raw`, ValueError if there is none; it builds no datetime, so Feb 30 matches."""
    if not (match := _TIMESTAMP.fullmatch(raw)):
        raise ValueError(f"not an RFC 3339 timestamp: {raw!r}")
    return match


def parse_timestamp(raw: str) -> datetime:
    """A `_TIMESTAMP` in UTC: a time with no offset and a bare date are read as UTC, a fraction is cut to microseconds."""
    year, month, day, hour, minute, second, fraction, sign, offset_hour, offset_minute = match_timestamp(raw).groups()
    ts = datetime(int(year), int(month), int(day), int(hour or 0), int(minute or 0), int(second or 0),
                  int(fraction[:6].ljust(6, "0")) if fraction else 0,
                  _utc_offset(sign, offset_hour, offset_minute) if sign else timezone.utc)
    return ts.astimezone(timezone.utc)


def _post_from_record(record: Mapping[str, object]) -> RawPost | None:
    """None when the record fails the ingestion filter: an id that is neither a
    string nor an integer, a text, timestamp, place or language that is not a
    string (place and language may be null or absent), an empty id or text.
    Place and language are interned: one string object per distinct value, however many posts."""
    post_id, text, ts = record.get("id"), record.get("text"), record.get("timestamp")
    place, lang = record.get("place"), record.get("lang")
    if type(post_id) not in (str, int) or type(text) is not str or type(ts) is not str:
        return None  # `type`, not isinstance: a JSON true is not the post id 'True'
    if (place is not None and type(place) is not str) or (lang is not None and type(lang) is not str):
        return None
    if post_id == "" or not text.strip():
        return None
    return RawPost(str(post_id), text, parse_timestamp(ts), sys.intern(place) if place else None,
                   sys.intern(lang) if lang else None)


def load_posts(path: str | Path, fmt: str = "jsonl") -> tuple[Iterator[RawPost], dict[str, int]]:
    """Posts from JSONL or CSV, read as they are iterated, and the counts of the records read so far.

    The counts are `loaded` posts and `skipped` records, final once the posts
    are exhausted. Records with a missing id, empty text, or unparsable fields
    are skipped and counted; input order is preserved. An unreadable file
    raises, and so do a CSV header without an id, text or timestamp column and
    a post id used twice (DataValidationError naming both lines), each when
    iteration reaches it: the posts before it have been yielded.
    """
    path = Path(path)
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown posts format {fmt!r}")
    counts = {"loaded": 0, "skipped": 0}

    def posts() -> Iterator[RawPost]:
        check = unique_key(str(path), "post id", attrgetter("id"))
        with open_input(path) as handle:
            for line_no, record in iter_records(handle, fmt, str(path), columns=("id", "text", "timestamp")):
                try:
                    post = _post_from_record(record) if isinstance(record, dict) else None
                except MALFORMED:
                    post = None
                if post is None:
                    counts["skipped"] += 1
                    warn(__name__, "skipping malformed post record at %s:%d", path, line_no)
                else:
                    check(line_no, post)
                    counts["loaded"] += 1
                    yield post

    return posts(), counts


def filter_located(posts: Iterable[RawPost], language: str) -> Iterator[RawPost]:
    """The posts that declare a place and carry the requested language tag, as `posts` is iterated.

    Idempotent; tag comparison is case-insensitive (IETF convention).
    """
    lang = language.lower()
    return (p for p in posts if p.place_name and p.language is not None and p.language.lower() == lang)


def normalize_place(name: str) -> str:
    """Matching key for place names: NFC normalization + case folding."""
    return unicodedata.normalize("NFC", name).casefold().strip()


def load_gazetteer(path: str | Path) -> dict[str, list[GazetteerEntry]]:
    """The gazetteer as its name index: each `normalize_place` name -> the entries filed under it, in file order."""

    def to_entry(row: dict[str, str]) -> GazetteerEntry:
        importance = float(row["importance"])
        if not (0.0 <= importance <= 1.0):
            raise ValueError(f"importance {importance} outside [0, 1]")
        if not row["place_name"].strip():  # no post's place could match it
            raise ValueError("empty place_name")
        if not row["region_id"]:
            raise ValueError("empty region_id")
        return GazetteerEntry(row["place_name"], row["region_id"], row["province"], importance)

    index: dict[str, list[GazetteerEntry]] = {}
    for entry in read_records(path, "csv", to_entry,
                              columns=("place_name", "commune", "region_id", "province", "importance", "population"),
                              key=("(place_name, region_id)", attrgetter("place_name", "region_id"))):
        index.setdefault(normalize_place(entry.place_name), []).append(entry)
    return index


def resolve_region(place_name: str, gazetteer: Mapping[str, Sequence[GazetteerEntry]]) -> str | None:
    """Region of the top-importance entry filed under the place in the name index `gazetteer`; None if none is.

    Among regions tied at the top importance the smallest region_id wins, whatever the file order, and the tie warns.
    """
    candidates = gazetteer.get(normalize_place(place_name), ())
    if not candidates:
        return None
    top = max(entry.importance for entry in candidates)
    regions = sorted({entry.region_id for entry in candidates if entry.importance == top})
    if len(regions) > 1:
        warn(__name__, "importance tie for place %r resolved to region %s", place_name, regions[0])
    return regions[0]


def region_counts(
    region_ids: Iterable[str],
    populations: Mapping[str, int],
) -> dict[str, tuple[int, float | None]]:
    """Each region_id, in sorted order -> (its post count, the population-weighted count count/pop).

    A region missing from `populations` reports per_capita as None, not zero.
    """
    return {
        region_id: (count, count / pop if (pop := populations.get(region_id)) else None)
        for region_id, count in sorted(Counter(region_ids).items())
    }


_REGION_TABLE_FIXED = ("region_id", "population", "outcome")


def load_region_table(path: str | Path) -> list[RegionRecord]:
    """Region table rows; every non-fixed column becomes a named feature."""

    def to_record(row: dict[str, str]) -> RegionRecord:
        region_id = row["region_id"]
        if not region_id:
            raise ValueError("empty region_id")
        population = int(row["population"])
        outcome = float(row["outcome"])
        features = {name: float(value) for name, value in row.items() if name not in _REGION_TABLE_FIXED}
        if not (0.0 <= outcome <= 1.0):
            raise ValueError(f"outcome {outcome} outside [0, 1]")
        if population <= 0:
            raise ValueError("population must be positive")
        return RegionRecord(region_id=region_id, population=population, outcome=outcome, features=features)

    return list(read_records(path, "csv", to_record, columns=_REGION_TABLE_FIXED,
                             key=("region_id", attrgetter("region_id"))))
