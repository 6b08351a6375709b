"""Shared DSP primitives: mixing, lowpass filtering, fractional resampling."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev
from scipy import signal as sp_signal

LOWPASS_TAPS = 65
INTERP_HALF_WIDTH = 8
_INTERP_KAISER_BETA = 8.0
_FARROW_DEGREE = 16


def frequency_shift(x: np.ndarray, freq: float, phase: float = 0.0) -> np.ndarray:
    """Multiply by a complex exponential: out[k] = x[k] * exp(j*(2*pi*freq*k + phase))."""
    x = np.asarray(x)
    k = np.arange(x.size)
    return x * np.exp(1j * (2.0 * np.pi * freq * k + phase))


def lowpass(x: np.ndarray, cutoff: float) -> np.ndarray:
    """Windowed-sinc lowpass, length preserved, group delay compensated.

    ``cutoff`` is the -6 dB edge in cycles/sample and is clipped to stay
    strictly inside (0, 0.5).
    """
    cutoff = float(np.clip(cutoff, 1e-4, 0.499))
    taps = sp_signal.firwin(LOWPASS_TAPS, cutoff, fs=1.0)
    return np.convolve(np.asarray(x), taps, mode="same")


def mean_power(x: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(x)) ** 2))


def _kernel(d: np.ndarray) -> np.ndarray:
    """The interpolation kernel: a sinc under a Kaiser window of half-width 8."""
    inside = np.clip(1.0 - (d / INTERP_HALF_WIDTH) ** 2, 0.0, None)
    window = np.i0(_INTERP_KAISER_BETA * np.sqrt(inside)) / np.i0(_INTERP_KAISER_BETA)
    return np.sinc(d) * window


def _farrow_table() -> np.ndarray:
    """Row j: the coefficients of powers of t = 2*mu - 1 that fit the kernel
    at mu - (j - 7), mu in [0, 1); one Chebyshev least-squares solve fits all."""
    t = np.cos(np.pi * (np.arange(4 * _FARROW_DEGREE) + 0.5) / (4 * _FARROW_DEGREE))
    offsets = np.arange(-INTERP_HALF_WIDTH + 1, INTERP_HALF_WIDTH + 1)
    targets = _kernel((t[:, None] + 1.0) / 2.0 - offsets)
    vander = chebyshev.chebvander(t, _FARROW_DEGREE)
    fitted = np.linalg.lstsq(vander, targets, rcond=None)[0]
    return np.array([chebyshev.cheb2poly(tap) for tap in fitted.T])


_FARROW_TABLE = _farrow_table()


def interpolate_at(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Band-limited interpolation of ``x`` at fractional sample positions.

    Uses a Kaiser-windowed sinc kernel of half-width 8. Positions outside
    the record are treated as zero-padded context, so callers may probe a
    few samples past either end without error.

    Farrow form (Farrow, ISCAS 1988): each tap of the kernel is a
    polynomial in the fractional position, so the record is filtered once
    per polynomial coefficient, at only the samples that some position
    needs, and each output is one Horner sum over those filter outputs.
    """
    x = np.asarray(x)
    positions = np.atleast_1d(np.asarray(positions, dtype=np.float64))
    base = np.floor(positions)
    t = 2.0 * (positions - base) - 1.0
    # one dtype on both sides of the product keeps it on the BLAS path
    table = _FARROW_TABLE.astype(np.result_type(x, _FARROW_TABLE))
    pad = 2 * INTERP_HALF_WIDTH
    windows = sliding_window_view(np.pad(x.astype(table.dtype, copy=False), pad), pad)
    # window r holds x[r - 16 : r], the kernel's support at base r - 9; the
    # first and the last window hold only padding, so farther probes clip there
    rows = np.clip(base + pad - INTERP_HALF_WIDTH + 1, 0, len(windows) - 1).astype(np.int64)
    needed = np.flatnonzero(np.bincount(rows, minlength=len(windows)))
    bank = np.empty((table.shape[1], len(windows)), table.dtype)
    bank[:, needed] = (windows[needed] @ table).T
    out = bank[-1, rows]
    for coefficient in bank[-2::-1]:
        out = out * t + coefficient[rows]
    return out


def resample_to_sps(x: np.ndarray, sps_in: float, sps_out: int) -> np.ndarray:
    """Resample from ``sps_in`` samples/symbol to exactly ``sps_out``.

    The m-th output sample sits at input position m * sps_in / sps_out; the
    position is computed per output sample so no stride error accumulates.
    """
    stride = float(sps_in) / float(sps_out)
    count = int(np.floor((x.size - 1) / stride)) + 1
    positions = np.arange(count) * stride
    return interpolate_at(x, positions)
