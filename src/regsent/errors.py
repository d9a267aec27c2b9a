"""Error taxonomy shared across the toolkit, and `open_input`, which maps an
unreadable input file onto it.

The CLI maps these onto exit codes: ConfigError -> 1, DataValidationError -> 2,
NumericalError -> 3, and any other exception -> 4 (`error[internal]`).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


class ConfigError(Exception):
    """Bad configuration or usage: missing files, unparsable settings."""


class DataValidationError(ValueError):
    """Input data violates a documented contract (schema, range, duplicate)."""


class NumericalError(ArithmeticError):
    """A numerical procedure cannot proceed (e.g. rank-deficient design)."""


class RankDeficiencyError(NumericalError):
    """Design matrix is rank deficient; message names the collinear column."""


@contextmanager
def open_input(path: str | Path) -> Iterator[TextIO]:
    """Open a configured input file as UTF-8 text (newlines untranslated, as csv wants).

    A directory, a file the process may not read, or bytes that are not UTF-8
    (found while the caller reads) raise a DataValidationError naming the path.
    A missing file stays an OSError.
    """
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path} is not UTF-8: {exc}") from None
    except (IsADirectoryError, PermissionError) as exc:
        raise DataValidationError(f"cannot read {path}: {exc.strerror}") from None
