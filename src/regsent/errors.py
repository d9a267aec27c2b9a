"""Error taxonomy shared across the toolkit, and the one reader and writer of record files.

`open_input` maps an unreadable file onto the taxonomy; `iter_records` and
`read_records` read every CSV, JSON-lines and word-list file, configured input
or intermediate, as they are iterated, so a bad record fails as one
`<name>:<line>: <reason>` line whose line is the physical line the record
starts on. A key used twice in a keyed file fails the same way (`unique_key`),
as `<name>:<line>: duplicate <what> <value!r>, first used at line <n>`, before
the repeat is yielded. `write_records` writes every CSV, JSON-lines and
word-list file the toolkit produces, and `warn` issues every warning.

JSON lines are read through one decoder built at import, where `json.loads`
sets one up per record: the scanner `json.loads` runs, called once per line where
`json.loads` calls it, past the leading whitespace, at column 0 on nearly every
line; a line that is not one JSON value goes to `json.loads` itself, so its error
is the one it raises. Ingest and clean build each `located.jsonl` and
`clean.jsonl` line themselves. Any other JSON line is encoded by the stdlib
encoder's `encode`, the call `json.dumps(value, ensure_ascii=False)` makes, and
so is the value read from a line holding a `\\u` escape, to find a lone surrogate.

The CLI maps these onto exit codes: ConfigError -> 1, DataValidationError -> 2,
NumericalError -> 3, and any other exception -> 4 (`error[internal]`).
"""

from __future__ import annotations

import csv
import json
import re
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO


class ConfigError(Exception):
    """Bad configuration or usage: missing files, unparsable settings."""


class DataValidationError(ValueError):
    """Input data violates a documented contract (schema, range, duplicate)."""


class NumericalError(ArithmeticError):
    """A numerical procedure cannot proceed (e.g. rank-deficient design)."""


class RankDeficiencyError(NumericalError):
    """Design matrix is rank deficient; message names the collinear column."""


# what parsing or converting a malformed record raises
MALFORMED = (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError)


_json_line = json.JSONEncoder(ensure_ascii=False).encode  # what `json.dumps(value, ensure_ascii=False)` calls
_SURROGATE = re.compile(r"[\ud800-\udfff]")  # a code point no UTF-8 file can hold
_scan_value, _skip_space = json.JSONDecoder().scan_once, json.decoder.WHITESPACE.match


def _json_value(text: str) -> Any:
    """`json.loads(text)` through the decoder built at import, one scan of the line."""
    start = _skip_space(text, 0).end() if text[:1] in " \t\n\r" else 0  # JSON's whitespace, which json.loads skips
    try:
        value, end = _scan_value(text, start)
    except StopIteration:  # no value where one starts: json.loads raises its error
        return json.loads(text)
    if text[end:] == "\n" or _skip_space(text, end).end() == len(text):  # most lines end in one line feed
        return value
    return json.loads(text)  # extra data: json.loads raises its error


@contextmanager
def open_input(path: str | Path, name: str | None = None) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text, a leading byte-order mark dropped (newlines untranslated, as csv wants).

    A directory, a file the process may not read, or bytes that are not UTF-8
    (found while the caller reads) raise a DataValidationError naming the file
    as `name`, the path by default. A missing file stays an OSError.
    """
    name = name or str(path)
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{name} is not UTF-8: {exc}") from None
    except (IsADirectoryError, PermissionError) as exc:
        raise DataValidationError(f"cannot read {name}: {exc.strerror}") from None


def iter_records(handle: TextIO, fmt: str, name: str, columns: Sequence[str] = ()) -> Iterator[tuple[int, Any]]:
    """(line, record) for each record of a `csv`, `jsonl` or `txt` file (another `fmt` is a ValueError), blanks skipped.

    `line` is the physical line the record starts on. A CSV record is a dict
    keyed by the header, which must hold `columns` and name no column twice; a
    CSV fault such as an oversized field ends the file with a DataValidationError
    naming `name`.
    A CSV record with more or fewer fields than the header is a ValueError naming
    both counts, and a JSON-lines record is the line's JSON value or the exception
    parsing it raised, a ValueError for a value holding a lone surrogate, which
    no UTF-8 file can, so that a caller may skip the record and read on. A `txt`
    record is a word-list line, stripped; its lines are the ones `str.splitlines` cuts.
    """
    if fmt not in ("csv", "jsonl", "txt"):
        raise ValueError(f"unknown record format {fmt!r}")
    if fmt == "txt":
        for line, text in enumerate(handle.read().splitlines(), 1):
            if text.strip():
                yield line, text.strip()
        return
    if fmt == "jsonl":
        for line, text in enumerate(handle, 1):
            if not text.isspace():  # a line read from a file is never empty
                try:
                    record = _json_value(text)
                    # only a \u escape writes a lone surrogate (the decoder joins an escaped pair)
                    if "\\u" in text and (lone := _SURROGATE.search(_json_line(record))):
                        raise ValueError(f"lone surrogate {lone.group()!r}")
                except MALFORMED as exc:
                    record = exc
                yield line, record
        return
    reader = csv.reader(handle)
    start = 1  # the line the record being parsed starts on: the one after every line the reader has pulled
    try:
        header = next(reader, [])
        missing = [column for column in columns if column not in header]
        if missing:
            raise DataValidationError(f"{name}:{start}: missing columns {missing}")
        repeated = sorted({column for column in header if header.count(column) > 1})
        if repeated:  # a dict record would keep only the last column of each name
            raise DataValidationError(f"{name}:{start}: repeated columns {repeated}")
        start = reader.line_num + 1
        for fields in reader:
            if fields:  # csv reads a blank line as []
                yield start, dict(zip(header, fields)) if len(fields) == len(header) else ValueError(
                    f"{len(fields)} fields where the header has {len(header)}")
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataValidationError(f"{name}:{start}: {exc}") from None


def unique_key(name: str, what: str, key: Callable[[Any], Any]) -> Callable[[int, Any], None]:
    """The check that no two records of the file `name` share a `key`: call it with each record's line and the record.

    A repeat raises DataValidationError `<name>:<line>: duplicate <what> <value!r>, first used at line <n>`.
    """
    first_line: dict[Any, int] = {}

    def check(line: int, record: Any) -> None:
        value = key(record)
        first = first_line.setdefault(value, line)
        if first != line:
            raise DataValidationError(f"{name}:{line}: duplicate {what} {value!r}, first used at line {first}")

    return check


def read_records(path: str | Path, fmt: str, convert: Callable[[Any], Any], name: str | None = None,
                 columns: Sequence[str] = (), key: tuple[str, Callable[[Any], Any]] | None = None) -> Iterator:
    """`convert` of each record of the record file at `path` (see `iter_records`), read as it is iterated.

    A record that does not parse, or that `convert` rejects with one of
    MALFORMED, raises DataValidationError `<name>:<line>: <reason>` when the
    iteration reaches it; `name` is the path by default. A (what, getter) `key`
    is `unique_key` of each result, checked before the result is yielded.
    """
    name = name or str(path)
    check = unique_key(name, *key) if key else lambda line, record: None
    with open_input(path, name) as handle:
        for line, record in iter_records(handle, fmt, name, columns):
            try:
                if isinstance(record, Exception):
                    raise record
                value = convert(record)
            except MALFORMED as exc:
                reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
                raise DataValidationError(f"{name}:{line}: {reason}") from None
            check(line, value)
            yield value


def warn(logger: str, message: str, *args: Any) -> None:
    """`logging.getLogger(logger).warning(message, *args)`; logging is imported only when a warning is issued."""
    import logging
    logging.getLogger(logger).warning(message, *args, stacklevel=2)


def write_records(path: str | Path, fmt: str, records: Iterable[Any], header: Sequence[str] = ()) -> None:
    """Write `records` to `path` as UTF-8, one per line ending in a line feed, consuming them as it goes.

    A `csv` record is a row of fields under the `header` row, a `jsonl` record
    any JSON value (non-ASCII kept as is) and a `txt` record one line: a word-list
    line, or a JSON line its stage built. Another `fmt` is a ValueError.
    """
    if fmt not in ("csv", "jsonl", "txt"):
        raise ValueError(f"unknown record format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if fmt == "csv":
            # csv quotes the line terminator's characters: rows end in "\r\n", so that a lone "\r" is quoted, then in "\n"
            writer = csv.writer(SimpleNamespace(write=lambda row: handle.write(row[:-2] + "\n")), lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(records)
            return
        line = _json_line if fmt == "jsonl" else str
        for record in records:
            handle.write(line(record) + "\n")
