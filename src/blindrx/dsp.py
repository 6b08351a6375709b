"""Shared DSP primitives: mixing, lowpass filtering, fractional resampling."""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal
from scipy import special

LOWPASS_TAPS = 65
_INTERP_HALF_WIDTH = 8
_INTERP_KAISER_BETA = 8.0


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


def _kaiser_window(offsets: np.ndarray) -> np.ndarray:
    inside = np.clip(1.0 - (offsets / _INTERP_HALF_WIDTH) ** 2, 0.0, None)
    return special.i0(_INTERP_KAISER_BETA * np.sqrt(inside)) / special.i0(_INTERP_KAISER_BETA)


def interpolate_at(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Band-limited interpolation of ``x`` at fractional sample positions.

    Uses a Kaiser-windowed sinc kernel of half-width 8. Positions outside
    the record are treated as zero-padded context, so callers may probe a
    few samples past either end without error.
    """
    x = np.asarray(x)
    positions = np.atleast_1d(np.asarray(positions, dtype=np.float64))
    base = np.floor(positions).astype(np.int64)
    offsets = np.arange(-_INTERP_HALF_WIDTH + 1, _INTERP_HALF_WIDTH + 1)
    idx = base[:, None] + offsets[None, :]
    valid = (idx >= 0) & (idx < x.size)
    frac = positions[:, None] - idx
    weights = np.sinc(frac) * _kaiser_window(frac)
    gathered = np.where(valid, x[np.clip(idx, 0, x.size - 1)], 0.0)
    return np.sum(gathered * weights, axis=1)


def resample_to_sps(x: np.ndarray, sps_in: float, sps_out: int) -> np.ndarray:
    """Resample from ``sps_in`` samples/symbol to exactly ``sps_out``.

    The m-th output sample sits at input position m * sps_in / sps_out; the
    position is computed per output sample so no stride error accumulates.
    """
    stride = float(sps_in) / float(sps_out)
    count = int(np.floor((x.size - 1) / stride)) + 1
    positions = np.arange(count) * stride
    return interpolate_at(x, positions)
