"""Exception types raised by the segmentation pipeline, and the one check
that turns a non-integer argument into a ``ValueError`` naming it."""

import operator


def _integer(name: str, value: object) -> int:
    """``value`` as an ``int``, or ``ValueError`` naming the argument ``name``.

    A numpy integer or a bool is taken as the ``int`` it stands for; a
    float, ``None``, a string or any other non-integer is refused.
    """
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ValueError(f"{name}: {exc}") from None


class NeutrosegError(Exception):
    """Base class for all domain and input errors in this package."""


class EmptyImage(NeutrosegError):
    """The image contains no pixels."""


class ConstantImage(NeutrosegError):
    """All pixels sit in a single quantized gray level; nothing to split."""


class NoCandidates(NeutrosegError):
    """No quantized threshold lies strictly inside the occupied gray range."""


class ThresholdOutOfRange(NeutrosegError):
    """Threshold is not strictly between the occupied gray extremes."""


class UnsortedThresholds(NeutrosegError):
    """Thresholds must be strictly ascending and inside (0, 1)."""


class DimensionMismatch(NeutrosegError):
    """Segmentation and image describe different pixel grids."""


class PgmError(NeutrosegError):
    """Base class for malformed PGM input."""


class BadMagic(PgmError):
    """Input does not start with a supported PGM magic number."""


class TruncatedData(PgmError):
    """Header or raster ends before the declared amount of data."""


class MaxvalOutOfRange(PgmError):
    """Declared maximum gray value is outside the supported 8-bit range."""


class SampleOutOfRange(PgmError):
    """A raster sample exceeds the declared maximum gray value."""
