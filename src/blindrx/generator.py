"""Synthetic single-carrier dataset generation.

Each record is produced by one deterministic chain: random data is
modulated, upsampled to ``N_UP`` samples per symbol (linear types are
root-raised-cosine shaped, continuous-phase types are synthesized at
``N_UP`` directly), a timing offset is realized by dropping leading
samples, the stream is integer-decimated to its final rate, faded by a
3-tap channel, rotated by carrier frequency/phase offsets, and buried in
white Gaussian noise.

Labels store *realized* quantities: ``tau`` is the rational samples/symbol
value ``N_UP / D`` actually produced by the decimator, and ``t0`` is the
fraction of a symbol period at which the first symbol peak occurs inside
the received window. With that convention a receiver that skips
``round(t0 * P)`` samples of the P-per-symbol resampled stream lands
exactly on symbol peaks, and the timing grid has exactly ``N_UP`` distinct
values. :func:`timing_slice` is the one map from labels to the samples
removed and the decimation that realize them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from scipy import signal as sp_signal

from .dsp import frequency_shift, mean_power
from .errors import (
    FormatVersionMismatchError,
    SignalTooShortError,
    TruncatedFileError,
    ZeroPowerSignalError,
)
from .modulation import (
    ModulationType,
    SymbolSequence,
    constellation,
    map_symbols,
    modulate_cpfsk,
    modulate_gmsk,
    rrc_taps,
)

N_UP = 64
RRC_SPAN_SYMBOLS = 12
F0_RANGE = (-0.01, 0.01)
SNR_RANGE_DB = (0.0, 20.0)
TAU_RANGE = (4.0, 16.0)
BETA_CHOICES = (0.15, 0.25, 0.35)
DISCRETE_SNRS_DB = (0.0, 5.0, 10.0, 15.0, 20.0)
DATASET_FORMAT_VERSION = 1
_CPM_WARMUP_SYMBOLS = 8

_MASK64 = (1 << 64) - 1


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; (seed, stream) fully determines the draws."""
    key = ((int(seed) & _MASK64) << 64) | (int(stream) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class TxParams:
    """Generator-side impairment parameters for one signal."""

    f0: float
    phi0: float
    t0: float
    tau: float
    beta: float
    snr_db: float
    sigma: float
    channel: np.ndarray

    def __post_init__(self) -> None:
        self.channel = np.asarray(self.channel, dtype=np.complex128)


@dataclass
class DatasetSpec:
    """Shape of a generated dataset."""

    count: int
    seed: int = 0
    n_r: int = 1024
    snr_levels_db: tuple[float, ...] | None = None
    modulations: tuple[ModulationType, ...] = tuple(ModulationType)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.n_r < 128:
            raise ValueError("n_r must be >= 128")
        if not self.modulations:
            raise ValueError("modulation subset must be non-empty")
        self.modulations = tuple(self.modulations)
        if self.snr_levels_db is not None:
            self.snr_levels_db = tuple(float(s) for s in self.snr_levels_db)
            if any(math.isnan(s) or s == -math.inf for s in self.snr_levels_db):
                raise ValueError(f"SNR levels must be dB or inf, got {self.snr_levels_db}")


@dataclass
class TxGroundTruth:
    """One received signal plus every label the generator knows."""

    params: TxParams
    modulation: ModulationType
    y: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    symbols: SymbolSequence
    n0: float


def sample_params(rng, spec: DatasetSpec) -> tuple[TxParams, ModulationType]:
    """Draw one parameter set uniformly over the dataset ranges.

    The timing draws are quantized onto the label grid: tau to
    ``N_UP / floor(N_UP / tau_draw)``, and t0 to the symbol-peak phase left
    after removing ``round(t0_draw * N_UP)`` samples. The draw order is part
    of the determinism contract; do not reorder.
    """
    modulation = spec.modulations[int(rng.integers(len(spec.modulations)))]
    f0 = float(rng.uniform(*F0_RANGE))
    phi0 = float(rng.uniform(0.0, 2.0 * np.pi))
    t0_draw = float(rng.uniform(0.0, 1.0))
    tau_nominal = float(rng.uniform(*TAU_RANGE))
    beta = BETA_CHOICES[int(rng.integers(len(BETA_CHOICES)))]
    if spec.snr_levels_db is None:
        snr_db = float(rng.uniform(*SNR_RANGE_DB))
    else:
        snr_db = spec.snr_levels_db[int(rng.integers(len(spec.snr_levels_db)))]

    tau = N_UP / int(N_UP // tau_nominal)
    t0 = ((N_UP - int(round(t0_draw * N_UP))) % N_UP) / N_UP

    sigma = float(rng.uniform(0.0, tau))
    channel = build_fading(sigma, rng)
    params = TxParams(
        f0=f0,
        phi0=phi0,
        t0=t0,
        tau=tau,
        beta=beta,
        snr_db=snr_db,
        sigma=sigma,
        channel=channel,
    )
    return params, modulation


def timing_slice(tau: float, t0: float) -> tuple[int, int]:
    """(samples removed, decimation) that realize the labels ``tau``, ``t0``.

    The waveform at ``N_UP`` samples/symbol, with its leading samples
    removed, is kept every ``decimation``-th sample. Labels must lie on the
    grid: tau = N_UP / D for an integer D in [1, N_UP], and t0 a multiple of
    1 / N_UP in [0, 1); anything else raises ValueError.
    """
    decimation = int(round(N_UP / tau)) if 1.0 <= tau <= N_UP else 0
    if (
        decimation == 0
        or N_UP / decimation != tau
        or not 0.0 <= t0 < 1.0
        or t0 * N_UP % 1.0 != 0.0
    ):
        raise ValueError(f"tau {tau} / t0 {t0} is off the 1/{N_UP} grid")
    return (N_UP - int(round(t0 * N_UP))) % N_UP, decimation


def build_fading(sigma: float, rng) -> np.ndarray:
    """Unit-energy impulse response with taps at {0, round(s/2), round(s)}.

    Tap values are i.i.d. circular complex Gaussians (Rayleigh magnitude,
    uniform phase); coincident delays add before normalization.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    delays = [0, int(round(sigma / 2.0)), int(round(sigma))]
    gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2.0)
    taps = np.zeros(max(delays) + 1, dtype=np.complex128)
    for delay, gain in zip(delays, gains):
        taps[delay] += gain
    return taps / np.sqrt(np.sum(np.abs(taps) ** 2))


def add_awgn(x: np.ndarray, snr_db: float | None, rng) -> tuple[np.ndarray, float]:
    """Add circular white Gaussian noise at the requested SNR.

    ``snr_db=None`` (or +inf) is the noise-free flag: the input is returned
    untouched with N0 = 0. Otherwise the per-sample noise variance is
    N0 = mean_power(x) / 10**(snr_db / 10); NaN and -inf raise ValueError.
    """
    x = np.asarray(x)
    if snr_db is None or snr_db == math.inf:
        return x.copy(), 0.0
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be a dB value, inf or None, got {snr_db}")
    power = mean_power(x)
    if power <= 0.0:
        raise ZeroPowerSignalError("cannot set an SNR for a zero-power signal")
    n0 = power / (10.0 ** (snr_db / 10.0))
    noise = np.sqrt(n0 / 2.0) * (
        rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    )
    return x + noise, float(n0)


def _shaped_upsampled(
    modulation: ModulationType, rng: np.random.Generator, n_symbols: int, beta: float
) -> tuple[np.ndarray, int, np.ndarray]:
    """Modulate ``n_symbols`` at N_UP samples/symbol.

    Returns (waveform, origin, indices) where ``origin`` is the upsampled
    index of symbol 0's nominal sampling instant.
    """
    if modulation.is_linear:
        indices = rng.integers(constellation(modulation).size, size=n_symbols)
        upsampled = np.zeros(n_symbols * N_UP, dtype=np.complex128)
        upsampled[::N_UP] = map_symbols(modulation, indices).values
        taps = rrc_taps(beta, RRC_SPAN_SYMBOLS, N_UP)
        # Unit peak-sample gain so symbol-instant samples sit on the
        # constellation (up to the pulse's own symbol-spaced tails).
        taps = taps / taps.max()
        shaped = sp_signal.fftconvolve(upsampled, taps, mode="full")
        origin = RRC_SPAN_SYMBOLS * N_UP // 2
        return shaped, origin, indices

    bits = rng.integers(2, size=n_symbols + _CPM_WARMUP_SYMBOLS)
    if modulation is ModulationType.GMSK:
        shaped = modulate_gmsk(bits, N_UP)
    else:
        shaped = modulate_cpfsk(bits, N_UP)
    return shaped, _CPM_WARMUP_SYMBOLS * N_UP, bits[_CPM_WARMUP_SYMBOLS:]


def generate_one(
    spec: DatasetSpec,
    index: int,
    params: TxParams | None = None,
    modulation: ModulationType | None = None,
) -> TxGroundTruth:
    """Run the full generation chain for record ``index``.

    Passing ``params``/``modulation`` bypasses sampling and drives the
    chain with explicit values (the noise and data draws still come from
    the record's own stream), which is how controlled test signals are
    built. Explicit labels must be realizable: tau = N_UP / D for an
    integer D, and t0 a multiple of 1 / N_UP.
    """
    rng = make_rng(spec.seed, index)
    if params is None:
        params, sampled_mod = sample_params(rng, spec)
        if modulation is None:
            modulation = sampled_mod
    elif modulation is None:
        raise ValueError("explicit params require an explicit modulation")

    removed, decimation = timing_slice(params.tau, params.t0)
    n_symbols_label = spec.n_r // math.ceil(params.tau)
    n_symbols_gen = math.ceil(spec.n_r * decimation / N_UP) + 6

    shaped, origin, indices = _shaped_upsampled(
        modulation, rng, n_symbols_gen, params.beta
    )

    history = params.channel.size - 1
    first = origin + removed - history * decimation
    last = origin + removed + (spec.n_r - 1) * decimation
    if first < 0 or last >= shaped.size:
        raise SignalTooShortError("generated waveform does not cover the record")
    stream = shaped[first : last + 1 : decimation]

    z2 = stream[history:].copy()
    z1 = np.convolve(stream, params.channel, mode="full")[
        history : history + spec.n_r
    ]
    y_clean = frequency_shift(z1, params.f0, params.phi0)
    y, n0 = add_awgn(y_clean, params.snr_db, rng)

    first_symbol = math.ceil(removed / N_UP)
    label_slice = slice(first_symbol, first_symbol + n_symbols_label)
    symbols = map_symbols(modulation, indices[label_slice])

    return TxGroundTruth(
        params=params,
        modulation=modulation,
        y=y,
        z1=z1,
        z2=z2,
        symbols=symbols,
        n0=n0,
    )


# The label table stores every TxParams field under its own name; the
# channel is written as [re, im] pairs.
_SCALAR_PARAMS = tuple(f.name for f in fields(TxParams) if f.name != "channel")


def _record_meta(record: TxGroundTruth) -> dict:
    p = record.params
    return {
        **{name: getattr(p, name) for name in _SCALAR_PARAMS},
        "channel": [[float(c.real), float(c.imag)] for c in p.channel],
        "modulation": record.modulation.value,
        "n0": record.n0,
        "symbol_indices": [int(i) for i in record.symbols.indices],
    }


def record_from_meta(meta: dict, y, z1=None, z2=None) -> TxGroundTruth:
    """Rebuild one record from its label-table entry and its IQ arrays."""
    modulation = ModulationType.from_name(meta["modulation"])
    params = TxParams(
        **{name: meta[name] for name in _SCALAR_PARAMS},
        channel=np.array([complex(re, im) for re, im in meta["channel"]]),
    )
    return TxGroundTruth(
        params=params,
        modulation=modulation,
        y=y,
        z1=z1,
        z2=z2,
        symbols=map_symbols(modulation, meta["symbol_indices"]),
        n0=meta["n0"],
    )


_IQ_FILES = ("y.iq", "z1.iq", "z2.iq")


class DatasetWriter:
    """Incremental dataset writer; records stream straight to disk.

    ``meta.json`` exists only after a close that ends a run without an
    exception: it is written under a temporary name and renamed into place,
    and a stale one is removed on open, since opening truncates the IQ
    files it described. An interrupted run leaves no label table.
    """

    def __init__(self, path, spec: DatasetSpec):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.spec = spec
        self._metas: list[dict] = []
        (self.path / "meta.json").unlink(missing_ok=True)
        self._handles = [open(self.path / name, "wb") for name in _IQ_FILES]

    def append(self, record: TxGroundTruth) -> None:
        """Write one record; each of y, z1 and z2 must hold ``spec.n_r`` samples."""
        streams = [
            np.ascontiguousarray(getattr(record, attr), dtype="<c8")
            for attr in ("y", "z1", "z2")
        ]
        sizes = [samples.size for samples in streams]
        if sizes != [self.spec.n_r] * 3:
            raise ValueError(f"record sizes {sizes} != spec n_r {self.spec.n_r}")
        for fh, samples in zip(self._handles, streams):
            fh.write(samples.tobytes())
        self._metas.append(_record_meta(record))

    def close(self) -> None:
        for fh in self._handles:
            fh.close()
        meta = {
            "format_version": DATASET_FORMAT_VERSION,
            "n_r": self.spec.n_r,
            "count": len(self._metas),
            "spec": {
                **asdict(self.spec),
                "modulations": [m.value for m in self.spec.modulations],
            },
            "records": self._metas,
        }
        partial = self.path / "meta.json.partial"
        with open(partial, "w") as fh:
            json.dump(meta, fh, sort_keys=True, separators=(",", ":"))
        os.replace(partial, self.path / "meta.json")

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:
            for fh in self._handles:
                fh.close()


def write_dataset(path, records, spec: DatasetSpec) -> None:
    """Write records to a dataset directory (meta.json + raw IQ streams).

    IQ payloads are interleaved little-endian float32 I/Q pairs, one
    fixed-length record after another, in label-table order.
    """
    with DatasetWriter(path, spec) as writer:
        for record in records:
            writer.append(record)


def read_dataset(path) -> list[TxGroundTruth]:
    """Read back a dataset directory written by :func:`write_dataset`."""
    meta = read_meta(path)
    signals = iter_record_signals(path, meta, ("y", "z1", "z2"))
    return [record_from_meta(rec, *arrays) for rec, arrays in zip(meta["records"], signals)]


def dataset_fingerprint(path) -> str:
    """SHA-256 of a dataset's ``meta.json`` bytes."""
    return hashlib.sha256((Path(path) / "meta.json").read_bytes()).hexdigest()


def read_meta(path) -> dict:
    """Load only the label table of a dataset directory."""
    with open(Path(path) / "meta.json") as fh:
        meta = json.load(fh)
    if meta.get("format_version") != DATASET_FORMAT_VERSION:
        raise FormatVersionMismatchError(
            f"dataset format {meta.get('format_version')!r}, "
            f"expected {DATASET_FORMAT_VERSION}"
        )
    return meta


def iter_record_signals(path, meta: dict, names):
    """Yield per-record IQ arrays without loading whole streams.

    ``meta`` is the table :func:`read_meta` returned. ``names`` selects among
    ("y", "z1", "z2"); each item is a tuple of complex128 arrays in that order.
    """
    path = Path(path)
    count, n_r = meta["count"], meta["n_r"]
    handles = [open(path / f"{n}.iq", "rb") for n in names]
    try:
        for _ in range(count):
            arrays = []
            for fh in handles:
                raw = fh.read(n_r * 8)
                if len(raw) < n_r * 8:
                    raise TruncatedFileError("IQ stream ended early")
                arrays.append(np.frombuffer(raw, dtype="<c8").astype(np.complex128))
            yield tuple(arrays)
    finally:
        for fh in handles:
            fh.close()
