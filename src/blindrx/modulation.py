"""Modulation alphabets, pulse shaping, and baseband modulators.

All linear constellations are normalized to unit average power so that a
unit-variance noise process corresponds directly to 0 dB SNR at one sample
per symbol. The two continuous-phase types (GMSK, CPFSK) are generated as
unit-envelope waveforms and never expose a constellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidRolloffError,
    NonLinearModulationError,
)

GMSK_BT = 0.35
GMSK_FILTER_SPAN = 4
CPFSK_MOD_INDEX = 0.5


class ModulationType(Enum):
    OOK = "ook"
    ASK4 = "ask4"
    ASK8 = "ask8"
    BPSK = "bpsk"
    QPSK = "qpsk"
    PSK8 = "psk8"
    PSK16 = "psk16"
    PSK32 = "psk32"
    APSK16 = "apsk16"
    APSK32 = "apsk32"
    APSK64 = "apsk64"
    QAM16 = "qam16"
    QAM32 = "qam32"
    QAM64 = "qam64"
    GMSK = "gmsk"
    CPFSK = "cpfsk"

    @property
    def is_linear(self) -> bool:
        return self not in (ModulationType.GMSK, ModulationType.CPFSK)

    @classmethod
    def from_name(cls, name: str) -> "ModulationType":
        return cls(name.strip().lower())


@dataclass
class SymbolSequence:
    """Integer constellation indices paired with their complex points."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must have equal length")

    def __len__(self) -> int:
        return int(self.indices.size)


def _gray_permutation(order: int) -> np.ndarray:
    """Positions such that point ``i`` lands at location gray(i)."""
    codes = np.arange(order)
    return codes ^ (codes >> 1)


def _normalize_power(points: np.ndarray) -> np.ndarray:
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


def _psk(order: int, phase_offset: float) -> np.ndarray:
    angles = 2.0 * np.pi * _gray_permutation(order) / order + phase_offset
    return np.exp(1j * angles)


def _ask(order: int) -> np.ndarray:
    # Unipolar amplitude ladder starting at zero, OOK being the order-2 case.
    return _normalize_power(np.arange(order).astype(np.complex128))


def _square_qam(side: int) -> np.ndarray:
    levels = 2.0 * np.arange(side) - (side - 1)
    gray = _gray_permutation(side)
    i_axis = levels[np.argsort(gray)]
    points = np.empty(side * side, dtype=np.complex128)
    for i in range(side):
        for q in range(side):
            points[i * side + q] = i_axis[i] + 1j * i_axis[q]
    return _normalize_power(points)


def _cross_qam32() -> np.ndarray:
    # 6x6 grid with the four corner points removed, row-major order.
    levels = np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])
    points = []
    for q in levels[::-1]:
        for i in levels:
            if abs(i) == 5.0 and abs(q) == 5.0:
                continue
            points.append(i + 1j * q)
    return _normalize_power(np.array(points, dtype=np.complex128))


def _apsk(ring_sizes: tuple[int, ...], ring_radii: tuple[float, ...]) -> np.ndarray:
    points = []
    for size, radius in zip(ring_sizes, ring_radii):
        offset = np.pi / size
        angles = 2.0 * np.pi * np.arange(size) / size + offset
        points.append(radius * np.exp(1j * angles))
    return _normalize_power(np.concatenate(points))


@lru_cache(maxsize=None)
def constellation(m: ModulationType) -> np.ndarray:
    """Unit-average-power constellation for a linear modulation type.

    Ordering is deterministic: Gray-coded placements for the PSK and square
    QAM families, ring-major for APSK, row-major for the QAM32 cross.

    Raises
    ------
    NonLinearModulationError
        If ``m`` is GMSK or CPFSK.
    """
    if not m.is_linear:
        raise NonLinearModulationError(f"{m.value} has no constellation")
    if m is ModulationType.OOK:
        points = _ask(2)
    elif m is ModulationType.ASK4:
        points = _ask(4)
    elif m is ModulationType.ASK8:
        points = _ask(8)
    elif m is ModulationType.BPSK:
        points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
    elif m is ModulationType.QPSK:
        points = _psk(4, np.pi / 4.0)
    elif m is ModulationType.PSK8:
        points = _psk(8, 0.0)
    elif m is ModulationType.PSK16:
        points = _psk(16, 0.0)
    elif m is ModulationType.PSK32:
        points = _psk(32, 0.0)
    elif m is ModulationType.APSK16:
        points = _apsk((4, 12), (1.0, 2.85))
    elif m is ModulationType.APSK32:
        points = _apsk((4, 12, 16), (1.0, 2.84, 5.27))
    elif m is ModulationType.APSK64:
        points = _apsk((4, 12, 20, 28), (1.0, 2.2, 3.6, 5.2))
    elif m is ModulationType.QAM16:
        points = _square_qam(4)
    elif m is ModulationType.QAM32:
        points = _cross_qam32()
    else:
        points = _square_qam(8)
    points.setflags(write=False)
    return points


def rrc_taps(beta: float, span_symbols: int, samples_per_symbol: int) -> np.ndarray:
    """Root-raised-cosine taps, odd length, normalized to unit energy.

    The closed form has removable singularities at t = 0 and t = 1/(4*beta)
    symbol periods; both are evaluated by their analytic limits.

    Parameters
    ----------
    beta : float
        Rolloff factor, strictly inside (0, 1).
    span_symbols : int
        Filter span in symbol periods (>= 4). Tap count is
        ``span_symbols * samples_per_symbol + 1``.
    samples_per_symbol : int
        Oversampling factor (>= 1).
    """
    if not 0.0 < beta < 1.0:
        raise InvalidRolloffError(f"rolloff {beta} outside (0, 1)")
    if span_symbols < 4:
        raise ValueError("span_symbols must be >= 4")
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")

    n_taps = span_symbols * samples_per_symbol + 1
    half = (n_taps - 1) // 2
    # Symmetric integer grid keeps h[n] == h[L-1-n] bit exact.
    t = np.arange(-half, half + 1) / float(samples_per_symbol)

    taps = np.empty(n_taps)
    singular_origin = np.isclose(t, 0.0)
    singular_quarter = np.isclose(np.abs(t), 1.0 / (4.0 * beta))
    regular = ~(singular_origin | singular_quarter)

    tr = t[regular]
    num = np.sin(np.pi * tr * (1.0 - beta)) + 4.0 * beta * tr * np.cos(
        np.pi * tr * (1.0 + beta)
    )
    den = np.pi * tr * (1.0 - (4.0 * beta * tr) ** 2)
    taps[regular] = num / den
    taps[singular_origin] = 1.0 - beta + 4.0 * beta / np.pi
    taps[singular_quarter] = (beta / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
    )
    return taps / np.sqrt(np.sum(taps**2))


_NRZ_LEVELS = np.array([-1.0 + 0.0j, 1.0 + 0.0j])


def map_symbols(m: ModulationType, indices) -> SymbolSequence:
    """Pair symbol indices with their points.

    A linear type maps through its constellation; a continuous-phase type
    maps its bits to the NRZ levels -1 and +1 that drive its frequency.
    """
    points = constellation(m) if m.is_linear else _NRZ_LEVELS
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= points.size):
        raise IndexOutOfRangeError(
            f"index outside [0, {points.size}) for {m.value}"
        )
    return SymbolSequence(indices=idx, values=points[idx])


def _gaussian_freq_taps(bt: float, span_symbols: int, sps: int) -> np.ndarray:
    """Gaussian frequency-pulse smoother normalized to unit DC gain."""
    half = span_symbols * sps // 2
    t = np.arange(-half, half + 1) / float(sps)
    sigma = np.sqrt(np.log(2.0)) / (2.0 * np.pi * bt)
    taps = np.exp(-0.5 * (t / sigma) ** 2)
    return taps / np.sum(taps)


def _cpm_waveform(freq_per_sample: np.ndarray) -> np.ndarray:
    phase = 2.0 * np.pi * np.cumsum(freq_per_sample)
    return np.exp(1j * phase)


def modulate_gmsk(bits, samples_per_symbol: int) -> np.ndarray:
    """Gaussian minimum-shift keying at BT = 0.35, modulation index 1/2.

    Bits map to +/-1, are held for one symbol, smoothed by a Gaussian
    filter spanning four symbols, and integrated into a continuous phase.
    Every output sample has unit magnitude.
    """
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size == 0:
        raise ValueError("bits must be non-empty")
    nrz = 2.0 * bits - 1.0
    held = np.repeat(nrz, samples_per_symbol)
    smooth = np.convolve(held, _gaussian_freq_taps(GMSK_BT, GMSK_FILTER_SPAN, samples_per_symbol), mode="same")
    freq = CPFSK_MOD_INDEX * smooth / (2.0 * samples_per_symbol)
    return _cpm_waveform(freq)


def modulate_cpfsk(bits, samples_per_symbol: int) -> np.ndarray:
    """Binary CPFSK with rectangular frequency pulse and index 1/2."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size == 0:
        raise ValueError("bits must be non-empty")
    nrz = 2.0 * bits - 1.0
    held = np.repeat(nrz, samples_per_symbol)
    freq = CPFSK_MOD_INDEX * held / (2.0 * samples_per_symbol)
    return _cpm_waveform(freq)
