"""Genie-aided recovery, symbol-rate resampling, and symbol decoding.

The genie path undoes impairments with full knowledge of the generator
labels. ``decode_packet`` resamples, decodes and scores a packet of the
blind and the genie path alike, so both are scored by the same machinery.
"""

from __future__ import annotations

import numpy as np

from .blind import TIMING_SPS, EstimateSet, GARDNER_TAU_LIMITS, timing_tau
from .dsp import frequency_shift, interpolate_at, lowpass
from .errors import (
    EmptyOverlapError,
    NonFiniteInputError,
    NonLinearModulationError,
    SignalTooShortError,
)
from .generator import TxGroundTruth
from .modulation import ModulationType, SymbolSequence, constellation

PHASE_LOOP_GAIN = 0.5
GENIE_LPF_MARGIN = 1.1


def genie_equalize(z: np.ndarray, channel: np.ndarray, n0: float) -> np.ndarray:
    """Frequency-domain MMSE equalization with the true channel.

    Z_hat[k] = Z[k] * conj(H[k]) / (|H[k]|^2 + N0), where H is the FFT of
    the channel impulse response zero-padded to the record length. The
    equalization is circular; edge effects are negligible because the
    record is much longer than the channel.
    """
    z = np.asarray(z)
    channel = np.asarray(channel, dtype=np.complex128)
    energy = np.sum(np.abs(channel) ** 2)
    if energy <= 0.0:
        raise ValueError("channel impulse response has no energy")
    if n0 < 0.0:
        raise ValueError("noise density must be >= 0")
    h = np.fft.fft(channel, n=z.size)
    gain2 = np.abs(h) ** 2
    if n0 == 0.0 and np.any(gain2 == 0.0):
        raise ZeroDivisionError("channel spectral null with zero noise density")
    spectrum = np.fft.fft(z) * np.conj(h) / (gain2 + n0)
    return np.fft.ifft(spectrum)


def genie_chain(truth: TxGroundTruth) -> EstimateSet:
    """The exact labels as estimates; a NaN or Inf sample fails at ``input``."""
    if not np.isfinite(truth.y).all():
        raise NonFiniteInputError("received record holds NaN or Inf samples")
    p = truth.params
    return EstimateSet(f0_hat=p.f0, tau_hat=p.tau, t0_hat=p.t0)


def genie_output(truth: TxGroundTruth) -> np.ndarray:
    """The genie signal: exact carrier removal, a lowpass to the known
    bandwidth (skipped when n0 is 0, where the optimal noise filter is
    allpass) and the MMSE inverse of the true channel."""
    p = truth.params
    z = frequency_shift(truth.y, -p.f0, -p.phi0)
    if truth.n0 > 0.0:
        bandwidth = (1.0 + p.beta) / (2.0 * p.tau)
        z = lowpass(z, GENIE_LPF_MARGIN * bandwidth)
    return genie_equalize(z, p.channel, truth.n0)


def symbol_resample(z: np.ndarray, tau_hat: float, t0_hat: float) -> np.ndarray:
    """Extract one soft symbol per period at the estimated timing phase.

    Equivalent to resampling to ``TIMING_SPS`` samples per symbol with the
    Gardner-stage interpolator, skipping ``round(t0_hat * P)`` samples,
    and keeping every P-th one; implemented by evaluating the interpolator
    directly at those positions so no stride drift accumulates.
    """
    if not GARDNER_TAU_LIMITS[0] <= tau_hat <= GARDNER_TAU_LIMITS[1]:
        raise ValueError(f"tau_hat {tau_hat} outside {GARDNER_TAU_LIMITS}")
    if not 0.0 <= t0_hat < 1.0:
        raise ValueError(f"t0_hat {t0_hat} outside [0, 1)")
    z = np.asarray(z)
    p = TIMING_SPS
    skip = int(round(t0_hat * p))
    resampled_len = int(np.floor((z.size - 1) * p / tau_hat)) + 1
    count = (resampled_len - skip) // p
    if count < 1:
        raise SignalTooShortError("fewer than one symbol after timing skip")
    positions = (skip + np.arange(count) * p) * (tau_hat / p)
    return interpolate_at(z, positions)


def decode_symbols(
    soft: np.ndarray, m: ModulationType, first_symbol: complex
) -> np.ndarray:
    """Decision-directed decoding with a first-order phase tracking loop.

    The loop phase is seeded from the known first symbol,
    e_f = arg(first_symbol * conj(soft[0])), so any constant constellation
    rotation is absorbed; each later symbol is corrected by e^(j e_f),
    sliced to the nearest constellation point, and the residual phase
    error arg(decision * conj(corrected)) updates the loop with gain 1/2.
    A decision at the origin (OOK, ASK) carries no phase and updates nothing.
    Returns the int64 constellation index of each decision.
    """
    if not m.is_linear:
        raise NonLinearModulationError(f"cannot decode {m.value} symbols")
    soft = np.asarray(soft, dtype=np.complex128)
    if soft.size == 0:
        raise ValueError("soft symbol sequence is empty")
    points = constellation(m)

    hard = np.empty(soft.size, dtype=np.int64)
    e_f = float(np.angle(first_symbol * np.conj(soft[0])))
    hard[0] = int(np.argmin(np.abs(soft[0] * np.exp(1j * e_f) - points)))
    for k in range(1, soft.size):
        corrected = soft[k] * np.exp(1j * e_f)
        hard[k] = int(np.argmin(np.abs(corrected - points)))
        decision = points[hard[k]]
        if decision != 0.0:  # an origin decision has no phase; arg(-0+0j) is pi
            err = float(np.angle(decision * np.conj(corrected)))
            e_f += PHASE_LOOP_GAIN * err
    return hard


def ser(hard: np.ndarray, truth: SymbolSequence) -> float:
    """Symbol error rate of decision indices ``hard`` against the truth.

    Position 0 is excluded (the decoder was given that symbol); the
    comparison runs over min(len(hard), len(truth)) indices.
    """
    n = min(len(hard), len(truth))
    if n <= 1:
        raise EmptyOverlapError("need at least two overlapping symbols")
    mismatches = np.count_nonzero(hard[1:n] != truth.indices[1:n])
    return float(mismatches) / float(n - 1)


def decode_packet(
    truth: TxGroundTruth, recovered: np.ndarray, estimates: EstimateSet
) -> float:
    """SER of ``recovered`` sampled at the estimated timing (tau clamped by
    ``timing_tau``) and decoded from the first labelled symbol."""
    soft = symbol_resample(recovered, timing_tau(estimates.tau_hat), estimates.t0_hat)
    hard = decode_symbols(soft, truth.modulation, truth.symbols.values[0])
    return ser(hard, truth.symbols)
