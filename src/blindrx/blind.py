"""Fully blind transmit-parameter estimation.

The chain mirrors a classical non-iterative receiver: coarse band
segmentation on a Welch spectrum, cyclostationary refinement of carrier
offset (spectral line of z^4 at 4*f0) and symbol rate (line of |z|^2 at
1/tau), Gardner timing recovery on a resampled stream, and a single-pass
constant-modulus equalizer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sp_signal

from .dsp import INTERP_HALF_WIDTH, frequency_shift, lowpass, mean_power, resample_to_sps
from .errors import (
    CmaDivergenceError,
    InvalidBandwidthError,
    NoBandDetectedError,
    NonFiniteInputError,
    SignalTooShortError,
    ZeroPowerSignalError,
)

STAGE1_FFT = 64
STAGE2_FFT = 256
THRESHOLD_OVER_N0 = 2.0
CFO_GRID_POINTS = 100
CFO_ALPHA_HALF_WINDOW = 1e-3
RATE_GRID_POINTS = 100
RATE_WINDOW = (0.85, 1.15)
RATE_LOW_CONFIDENCE_RATIO = 3.0
TIMING_SPS = 64
CMA_TAPS = 20
CMA_STEP = 1e-4
CMA_DIVERGENCE_LIMIT = 1e3
GARDNER_TAU_LIMITS = (3.0, 20.0)


@dataclass
class BandEstimate:
    """Occupied-band edges in cycles/sample, b1 < b2."""

    b1: float
    b2: float
    stages: tuple[tuple[float, float], ...]  # (center, halfwidth) applied

    @property
    def center(self) -> float:
        return 0.5 * (self.b1 + self.b2)

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.b2 - self.b1)


@dataclass
class RateEstimate:
    tau: float
    peak_to_mean: float

    @property
    def low_confidence(self) -> bool:
        return self.peak_to_mean < RATE_LOW_CONFIDENCE_RATIO


@dataclass
class TimingEstimate:
    t0: float
    crossing_found: bool


@dataclass
class EstimateSet:
    """Everything a recovery path needs to know about one signal."""

    f0_hat: float
    tau_hat: float
    t0_hat: float
    eq_taps: np.ndarray | None = None
    band: BandEstimate | None = None
    diagnostics: dict = field(default_factory=dict)
    residual_cfo: float = 0.0

    def to_line(self) -> dict:
        """The fields of an ``est.jsonl`` line, blind or genie, ready for JSON.

        A missing band or tap set is null; :meth:`from_line` reads it back.
        """
        line = asdict(self)
        if self.eq_taps is not None:
            line["eq_taps"] = [[float(t.real), float(t.imag)] for t in self.eq_taps]
        return line

    @classmethod
    def from_line(cls, line: dict) -> "EstimateSet":
        """The estimates of a line written from :meth:`to_line`.

        The estimates, the band's stages and the taps must be finite
        numbers, and a tap set must not be empty.
        """
        values = {f.name: line[f.name] for f in fields(cls)}
        for name in ("f0_hat", "tau_hat", "t0_hat", "residual_cfo"):
            _finite_number(name, values[name])
        band, taps = values["band"], values["eq_taps"]
        if band is not None:
            stages = _finite_pairs("band.stages", band["stages"])
            values["band"] = BandEstimate(band["b1"], band["b2"], stages)
        if taps is not None:
            taps = _finite_pairs("eq_taps", taps)
            if not taps:
                raise ValueError("eq_taps must not be empty")
            values["eq_taps"] = np.array([complex(re, im) for re, im in taps])
        return cls(**values)


def _finite_number(name: str, value) -> float:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value)):
        raise TypeError(f"{name} must be a finite number, got {value!r}")
    return value


def _finite_pairs(name: str, pairs) -> tuple[tuple[float, float], ...]:
    """Unpacking raises TypeError or ValueError on anything but pairs."""
    return tuple((_finite_number(name, a), _finite_number(name, b)) for a, b in pairs)


def _unit_scale(z: np.ndarray) -> float:
    """The power of two that brings the largest |re| or |im| of ``z`` into [0.5, 1).

    Squares and fourth powers of the scaled samples cannot overflow, and
    the scale is exact, so it moves no argmax and no ratio. A zero input
    keeps scale 1; the exponent stops at 1022 so the scale stays finite.
    """
    _, exponent = np.frexp(max(np.abs(z.real).max(), np.abs(z.imag).max()))
    return 2.0 ** min(-int(exponent), 1022)


def fft_bins(fft_size: int) -> np.ndarray:
    """Bin center frequencies from -1/2 to +1/2 cycles/sample."""
    return np.fft.fftshift(np.fft.fftfreq(fft_size))


def welch_psd(x: np.ndarray, fft_size: int) -> np.ndarray:
    """Welch spectrum over 50%-overlapped Hann segments.

    Scaled so white noise of per-sample variance N0 averages to bin value
    N0; bins run from -1/2 to +1/2 cycles/sample.
    """
    x = np.asarray(x)
    if x.size < fft_size:
        raise SignalTooShortError(
            f"need at least {fft_size} samples, got {x.size}", stage="welch_psd"
        )
    _, pxx = sp_signal.welch(
        x,
        fs=1.0,
        window="hann",
        nperseg=fft_size,
        noverlap=fft_size // 2,
        detrend=False,
        return_onesided=False,
        scaling="density",
    )
    return np.fft.fftshift(pxx.real)


def _occupied_run(pxx: np.ndarray, threshold: float) -> tuple[int, int] | None:
    """Largest contiguous above-threshold run, bridging single-bin dips.

    "Largest" is measured by total bin power, which coincides with run
    length in normal operation but stays anchored to the signal when a
    noise-free spectrum scatters float-level dust above the threshold.
    """
    mask = pxx > threshold
    if not mask.any():
        return None
    bridged = mask.copy()
    interior = mask[:-2] & ~mask[1:-1] & mask[2:]
    bridged[1:-1] |= interior
    edges = np.flatnonzero(np.diff(bridged, prepend=False, append=False)).tolist()
    runs = zip(edges[::2], [e - 1 for e in edges[1::2]])
    return max(runs, key=lambda r: float(np.sum(pxx[r[0] : r[1] + 1])))


def _segment_stage(
    x: np.ndarray, fft_size: int, n0: float | None
) -> tuple[float, float]:
    """One detect-shift-filter pass; returns (center, halfwidth)."""
    pxx = welch_psd(x, fft_size)
    floor = float(np.median(pxx)) if n0 is None else float(n0)
    run = _occupied_run(pxx, THRESHOLD_OVER_N0 * floor)
    if run is None:
        raise NoBandDetectedError(
            f"no bin exceeded {THRESHOLD_OVER_N0} x noise floor"
        )
    freqs = fft_bins(fft_size)
    lo, hi = freqs[run[0]], freqs[run[1]]
    center = 0.5 * (lo + hi)
    halfwidth = max(0.5 * (hi - lo), 0.5 / fft_size)
    return center, halfwidth


def _recenter(x: np.ndarray, center: float, halfwidth: float) -> np.ndarray:
    """Shift ``center`` to DC and lowpass to 1.2 x ``halfwidth``."""
    return lowpass(frequency_shift(x, -center), 1.2 * halfwidth)


def band_segment(
    x: np.ndarray, n0: float | None = None
) -> tuple[BandEstimate, np.ndarray]:
    """Two-stage coarse band detection.

    Stage one uses a 64-bin spectrum; the signal is then recentered and
    lowpass filtered before a 256-bin refinement pass. The detection
    threshold is twice the noise density (supplied, or estimated as the
    median spectrum bin). Returns the cumulative band estimate and the
    recentered, filtered signal.
    """
    x = np.asarray(x)
    if x.size < 256:
        raise SignalTooShortError(
            "band segmentation needs >= 256 samples", stage="band_segment"
        )
    stage1 = _segment_stage(x, STAGE1_FFT, n0)
    filtered = _recenter(x, *stage1)
    stage2 = _segment_stage(filtered, STAGE2_FFT, n0)
    refined = _recenter(filtered, *stage2)
    center, halfwidth = stage1[0] + stage2[0], stage2[1]
    band = BandEstimate(center - halfwidth, center + halfwidth, (stage1, stage2))
    return band, refined


def _line_search(values: np.ndarray, grid: np.ndarray) -> tuple[int, np.ndarray]:
    """|sum_k values[k] exp(-j*2*pi*a*k)| at each a of an equispaced grid.

    A chirp-z transform (Rabiner, Schafer & Rader 1969) evaluates the zoomed
    band in O(N log N) without a grid-by-N basis.
    """
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    spectrum = sp_signal.czt(
        values, m=grid.size, w=np.exp(-2j * np.pi * step), a=np.exp(2j * np.pi * grid[0])
    )
    objective = np.abs(spectrum)
    return int(np.argmax(objective)), objective


def fine_cfo(z: np.ndarray, f0_coarse: float) -> float:
    """Refine the carrier offset from the fourth-power spectral line.

    Searches |sum_k z[k]^4 exp(-j*2*pi*a*k)| over 100 equally spaced
    cycle frequencies a in [4*f0_coarse - 0.001, 4*f0_coarse + 0.001],
    endpoints included, and returns argmax / 4. ``z`` is first brought to
    unit scale (see ``_unit_scale``), so z^4 neither overflows nor
    underflows.
    """
    z = np.asarray(z)
    if z.size < 256:
        raise SignalTooShortError("fine CFO needs >= 256 samples", stage="fine_cfo")
    grid = np.linspace(
        4.0 * f0_coarse - CFO_ALPHA_HALF_WINDOW,
        4.0 * f0_coarse + CFO_ALPHA_HALF_WINDOW,
        CFO_GRID_POINTS,
    )
    best, _ = _line_search((z * _unit_scale(z)) ** 4, grid)
    return float(grid[best]) / 4.0


def fine_symbol_rate(z: np.ndarray, bw_coarse: float) -> RateEstimate:
    """Refine samples-per-symbol from the squared-envelope spectral line.

    The coarse bandwidth is taken as the coarse symbol rate 1/tau_c; the
    search covers 100 equally spaced cycle frequencies from 0.85/tau_c to
    1.15/tau_c inclusive. A peak-to-mean objective ratio below 3 marks the
    estimate low-confidence (constant-envelope inputs land here).
    """
    z = np.asarray(z)
    if bw_coarse <= 0.0:
        raise InvalidBandwidthError("coarse bandwidth must be positive")
    grid = np.linspace(
        RATE_WINDOW[0] * bw_coarse, RATE_WINDOW[1] * bw_coarse, RATE_GRID_POINTS
    )
    best, objective = _line_search(np.abs(z) ** 2, grid)
    peak_to_mean = float(objective[best] / np.mean(objective))
    return RateEstimate(tau=1.0 / float(grid[best]), peak_to_mean=peak_to_mean)


def timing_tau(tau_hat: float) -> float:
    """Clamp a rate estimate into the range the timing interpolator accepts."""
    return float(np.clip(tau_hat, *GARDNER_TAU_LIMITS))


def gardner_timing(z: np.ndarray, tau_hat: float) -> TimingEstimate:
    """Estimate the symbol-fraction timing offset with a Gardner detector.

    The signal is resampled to 64 samples per symbol, the per-sample
    Gardner error e[k] = (z[k - P/2] - z[k + P/2]) * conj(z[k]) is folded
    into one symbol period, and the zero down-crossing of the averaged
    real part is located by linear interpolation. The down-crossing sits
    mid-transition, half a period after the symbol peak, so the returned
    offset is shifted by P/2.
    """
    if not GARDNER_TAU_LIMITS[0] <= tau_hat <= GARDNER_TAU_LIMITS[1]:
        raise ValueError(f"tau_hat {tau_hat} outside {GARDNER_TAU_LIMITS}")
    z = np.asarray(z)
    p = TIMING_SPS
    zi = resample_to_sps(z, tau_hat, p)
    # drop samples whose interpolation kernel saw zero padding
    guard = int(np.ceil(INTERP_HALF_WIDTH * p / tau_hat))
    zi = zi[guard : zi.size - guard]
    if zi.size < 3 * p:
        raise SignalTooShortError(
            "too few samples for timing recovery", stage="gardner_timing"
        )
    half = p // 2
    k = np.arange(half, zi.size - half)
    err = np.real((zi[k - half] - zi[k + half]) * np.conj(zi[k]))

    phases = (k + guard) % p  # phase 0 = first sample of the record
    profile = np.bincount(phases, err, minlength=p) / np.maximum(
        np.bincount(phases, minlength=p), 1
    )

    swing = float(profile.max() - profile.min())
    nxt = np.roll(profile, -1)
    crossings = np.flatnonzero((profile >= 0.0) & (nxt < 0.0))
    if crossings.size == 0 or swing <= 1e-3 * mean_power(zi):
        return TimingEstimate(t0=0.0, crossing_found=False)
    drops = profile[crossings] - nxt[crossings]
    idx = crossings[int(np.argmax(drops))]
    frac = profile[idx] / (profile[idx] - nxt[idx])
    crossing = idx + frac
    t0 = ((crossing - half) % p) / p
    return TimingEstimate(t0=float(t0), crossing_found=True)


def cma_equalize(z: np.ndarray, step: float = CMA_STEP) -> np.ndarray:
    """Single-pass constant-modulus equalization; returns the final taps.

    The input is normalized to unit mean power, then one stochastic
    gradient step w <- w - step * g * (|g|^2 - 1) * conj(r) is taken per
    sample with g = w^T r, step mu = 1e-4, 20 taps, center-tap
    initialization. ``_apply_taps`` filters a signal with them.

    Divergence (a tap magnitude above 1e3) is checked after every step,
    but the taps are scanned only when a running bound on their largest
    magnitude passes half the limit: a step moves no tap by more than
    |step * g * (|g|^2 - 1)| * max|zn|. The halved threshold leaves room
    for rounding in the bound, so a step that diverges is never missed.
    """
    z = np.asarray(z)
    if z.size <= 2 * CMA_TAPS:
        raise SignalTooShortError(
            f"need more than {2 * CMA_TAPS} samples", stage="cma_equalize"
        )
    power = mean_power(z)
    if power <= 0.0:
        raise ZeroPowerSignalError("cannot equalize a zero signal", stage="cma_equalize")
    zn = z / np.sqrt(power)
    windows = sliding_window_view(zn, CMA_TAPS)
    peak = np.abs(zn).max()

    w = np.zeros(CMA_TAPS, dtype=np.complex128)
    w[CMA_TAPS // 2] = 1.0
    bound = 1.0
    for m, (r, conj_r) in enumerate(zip(windows, np.conj(windows))):
        g = np.dot(w, r)
        c = step * g * (np.abs(g) ** 2 - 1.0)
        w = w - c * conj_r
        bound += np.abs(c) * peak
        if bound > 0.5 * CMA_DIVERGENCE_LIMIT:
            bound = np.abs(w).max()
            if bound > CMA_DIVERGENCE_LIMIT:
                raise CmaDivergenceError(f"tap magnitude exceeded at step {m}")
    return w


def _apply_taps(z: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Normalize to unit mean power and filter, center tap at zero delay."""
    return np.convolve(z / np.sqrt(mean_power(z)), taps[::-1], mode="same")


def blind_chain(y: np.ndarray, n0: float | None = None) -> EstimateSet:
    """Run the full blind pipeline on one received record.

    Stage order: band segmentation (which recenters and filters), residual
    fine CFO correction, fine symbol rate, Gardner timing, CMA
    equalization. Returns the estimates; :func:`equalized_output` builds
    the equalized signal from them.
    Stage failures raise library errors carrying a ``stage`` attribute;
    a record that is too short or holds a NaN or Inf sample fails at stage
    ``input``.

    The record is first brought to unit scale (see ``_unit_scale``), and n0
    by the square of that scale; every stage is invariant to that exact
    scale, so the answers are those of the record as given.
    """
    y = np.asarray(y)
    if y.size < 256:
        raise SignalTooShortError("blind chain needs >= 256 samples", stage="input")
    if not np.isfinite(y).all():
        raise NonFiniteInputError("received record holds NaN or Inf samples")
    scale = _unit_scale(y)
    y = y * scale
    if n0 is not None:
        n0 = float(n0) * scale * scale
    band, x1 = band_segment(y, n0)
    residual = fine_cfo(x1, 0.0)
    x2 = frequency_shift(x1, -residual)
    f0_hat = band.center + residual

    rate = fine_symbol_rate(x2, 2.0 * band.halfwidth)
    tau_for_timing = timing_tau(rate.tau)
    timing = gardner_timing(x2, tau_for_timing)
    return EstimateSet(
        f0_hat=float(f0_hat),
        tau_hat=float(rate.tau),
        t0_hat=float(timing.t0),
        eq_taps=cma_equalize(x2),
        band=band,
        diagnostics={
            "rate_peak_to_mean": rate.peak_to_mean,
            "rate_low_confidence": rate.low_confidence,
            "timing_crossing_found": timing.crossing_found,
            "tau_clipped_for_timing": tau_for_timing != rate.tau,
        },
        residual_cfo=residual,
    )


def equalized_output(y: np.ndarray, estimates: EstimateSet) -> np.ndarray:
    """The blind chain's equalized signal, built from its estimates.

    Replays the unit scaling, the segmentation stages, the residual CFO
    and the final CMA taps of :func:`blind_chain`, so estimates read back
    from an ``est.jsonl`` line give the same signal bit for bit.
    """
    x = np.asarray(y)
    x = x * _unit_scale(x)
    for center, halfwidth in estimates.band.stages:
        x = _recenter(x, center, halfwidth)
    x = frequency_shift(x, -estimates.residual_cfo)
    return _apply_taps(x, estimates.eq_taps)
