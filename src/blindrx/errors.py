"""Exception types raised across the library.

Every error derives from :class:`BlindRxError` so batch drivers can catch
one base class, record the failure, and keep going. Errors raised by the
blind chain name the failing step in ``stage``: a class default where the
error has one source, or the ``stage`` argument where it has several.
:func:`finite_number` is the one check every artifact reader applies to a
number it reads back.
"""

import math


def finite_number(name: str, value, allow_inf: bool = False):
    """``value`` if it is a finite int or float (not a bool), or +inf where
    ``allow_inf``; anything else raises TypeError naming ``name``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and (math.isfinite(value) or (allow_inf and value == math.inf))):
        wanted = "a finite number or +inf" if allow_inf else "a finite number"
        raise TypeError(f"{name} must be {wanted}, got {value!r}")
    return value


class BlindRxError(Exception):
    """Base class for all library errors."""

    stage: str | None = None

    def __init__(self, message: str = "", stage: str | None = None):
        super().__init__(message)
        if stage is not None:
            self.stage = stage


class NonLinearModulationError(BlindRxError):
    """A constellation was requested for a modulation without one."""


class InvalidRolloffError(BlindRxError):
    """Root-raised-cosine rolloff outside the open interval (0, 1)."""


class IndexOutOfRangeError(BlindRxError):
    """Symbol index does not address a constellation point."""


class SignalTooShortError(BlindRxError):
    """Input signal has too few samples for the requested operation."""


class ZeroPowerSignalError(BlindRxError):
    """Operation requires a signal with nonzero mean power."""


class TruncatedFileError(BlindRxError):
    """Dataset payload file is shorter than its metadata claims."""


class FormatVersionMismatchError(BlindRxError):
    """Dataset was written with an incompatible format version."""


class NoBandDetectedError(BlindRxError):
    """No contiguous run of spectrum bins exceeded the detection threshold."""

    stage = "band_segment"


class InvalidBandwidthError(BlindRxError):
    """Coarse bandwidth must be positive to derive a symbol-rate window."""

    stage = "fine_symbol_rate"


class CmaDivergenceError(BlindRxError):
    """Constant-modulus tap magnitudes blew past the divergence guard."""

    stage = "cma_equalize"


class NonFiniteInputError(BlindRxError):
    """The received record holds a NaN or infinite sample."""

    stage = "input"


class LengthMismatchError(BlindRxError):
    """Two signals that must be compared sample-by-sample differ in length."""


class EmptySetError(BlindRxError):
    """Aggregate requested over an empty record collection."""


class EmptyOverlapError(BlindRxError):
    """Decoded and reference symbol sequences share at most one position."""
