"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can surface
it without string matching.
"""

from __future__ import annotations


class CliffordError(Exception):
    """Base class; ``code`` is stable across releases."""

    code = "error"


class DimensionError(CliffordError):
    """Operands live in algebras of different m, or a matrix shape is wrong."""

    code = "dimension_mismatch"


class FieldMismatchError(CliffordError):
    """Operands constructed over different scalar fields."""

    code = "field_mismatch"


class OutOfRangeError(CliffordError):
    """Parameter outside the supported desk-scale range."""

    code = "out_of_range"


class ZeroSpinorError(CliffordError):
    """Operation undefined on the zero spinor."""

    code = "zero_spinor"


class NotTotallyNullError(CliffordError):
    """Vector set fails the totally-null-plane conditions."""

    code = "not_totally_null"


class SingularTransformError(CliffordError):
    """Singular change of basis: the induced product map is the zero map."""

    code = "singular_transform"


class MalformedInputError(CliffordError):
    """Unparseable or schema-violating external input."""

    code = "malformed_input"


class InternalCheckError(CliffordError):
    """A build-time self-check failed; indicates a defect, not bad input."""

    code = "internal"


QUOTE_LIMIT = 80


def quote_input(value) -> str:
    """An offending input as an error message quotes it: its repr, cut to the
    first QUOTE_LIMIT characters (of the string, or of a non-string's repr)
    and followed by the full length when cut, so a message stays short
    however large the input is."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= QUOTE_LIMIT:
        return repr(value)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"
