"""Error taxonomy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 1, DataValidationError -> 2,
NumericalError -> 3, and any other exception -> 4 (`error[internal]`).
"""

from __future__ import annotations


class ConfigError(Exception):
    """Bad configuration or usage: missing files, unparsable settings."""


class DataValidationError(ValueError):
    """Input data violates a documented contract (schema, range, duplicate)."""


class NumericalError(ArithmeticError):
    """A numerical procedure cannot proceed (e.g. rank-deficient design)."""


class RankDeficiencyError(NumericalError):
    """Design matrix is rank deficient; message names the collinear column."""
