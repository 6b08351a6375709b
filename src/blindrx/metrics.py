"""Evaluation metrics and report aggregation.

Per-signal records carry absolute estimation errors, a phase-invariant
reconstruction loss, and a symbol error rate; aggregation groups them by
method, SNR bucket, and modulation into MAE tables, SER CDFs, and packet
error rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .blind import EstimateSet
from .errors import EmptySetError, LengthMismatchError, finite_number
from .generator import TxParams

# Scores assigned to records whose blind chain failed outright: the worst
# error each estimate can take on (range width for f0 and tau, half a
# symbol for the circular timing offset).
FAILED_F0_ERROR = 0.02
FAILED_TAU_ERROR = 12.0
FAILED_T0_ERROR = 0.5
# status of a record whose modulation is not decoded: it is no packet
NOT_DECODED = "not_decoded"


@dataclass
class EvalRecord:
    """Scores for one (signal, method) pair."""

    signal_id: int
    modulation: str
    snr_db: float
    method: str
    abs_f0_err: float
    abs_tau_err: float
    circ_t0_err: float
    recon_loss: float | None = None
    ser: float | None = None
    status: str = "ok"

    def __post_init__(self) -> None:
        # each value must match its annotation: a float field takes a finite
        # int or float (snr_db also +inf, a noise-free record), and only the
        # "| None" fields take None
        for f in fields(self):
            value = getattr(self, f.name)
            kind = {"int": int, "str": str}.get(f.type)
            if value is None and f.type.endswith("| None"):
                continue
            if kind is None:
                finite_number(f.name, value, allow_inf=f.name == "snr_db")
            elif isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")


@dataclass
class AggregateRow:
    method: str
    snr_db: float
    modulation: str
    count: int
    mae_f0: float | None
    mae_tau: float | None
    mae_t0: float | None
    mean_recon_loss: float | None
    packets: int
    per: float | None
    ser_cdf: list[tuple[float, float]] = field(default_factory=list)


def phase_invariant_loss(z_hat: np.ndarray, z: np.ndarray) -> float:
    """Reconstruction loss blind to a global phase rotation.

    (1/N) * (||z_hat||^2 + ||z||^2 - 2 * |<z_hat, z>|); zero exactly when
    z_hat = z * exp(j*phi) for some phi, and equal to the minimum over phi
    of the plain mean squared error.
    """
    z_hat = np.asarray(z_hat)
    z = np.asarray(z)
    if z_hat.size != z.size:
        raise LengthMismatchError(f"{z_hat.size} vs {z.size} samples")
    energy = np.sum(np.abs(z_hat) ** 2) + np.sum(np.abs(z) ** 2)
    cross = np.abs(np.vdot(z_hat, z))
    return float((energy - 2.0 * cross) / z.size)


def circular_t0_error(t0_a: float, t0_b: float) -> float:
    d = abs(t0_a - t0_b) % 1.0
    return min(d, 1.0 - d)


def estimation_errors(
    est: EstimateSet, truth: TxParams
) -> tuple[float, float, float]:
    """Absolute f0 and tau errors plus the circular t0 error."""
    return (
        abs(est.f0_hat - truth.f0),
        abs(est.tau_hat - truth.tau),
        circular_t0_error(est.t0_hat, truth.t0),
    )


def ser_cdf(sers) -> list[tuple[float, float]]:
    """Empirical CDF sampled at each distinct SER value."""
    values = np.asarray(list(sers), dtype=np.float64)
    if values.size == 0:
        raise EmptySetError("no SER values to aggregate")
    distinct = np.unique(values)
    return [
        (float(v), float(np.count_nonzero(values <= v) / values.size))
        for v in distinct
    ]


def per(records) -> float:
    """Packet error rate: fraction of records with any symbol error.

    Records without an SER (failed recovery) count as packet errors.
    """
    records = list(records)
    if not records:
        raise EmptySetError("no records")
    bad = sum(1 for r in records if r.ser is None or r.ser > 0.0)
    return bad / len(records)


def _bucket(snr_db: float, buckets: tuple[float, ...]) -> float:
    """The nearest of the ascending ``buckets``; +inf (noise-free) is the top one."""
    if snr_db == math.inf:
        return buckets[-1]
    return min(buckets, key=lambda b: abs(b - snr_db))


def _mean(values) -> float | None:
    # an exactly rounded sum does not depend on the order of the members
    return math.fsum(values) / len(values) if values else None


def aggregate(records, snr_buckets) -> list[AggregateRow]:
    """Group records by (method, SNR bucket, modulation) and reduce.

    Every method/bucket combination additionally gets an all-modulations
    row with modulation set to ``"*"``. ``count``, the MAEs and the mean
    loss cover every member; ``per`` covers the ``packets`` members whose
    decoding was attempted or whose chain failed (every status but
    ``NOT_DECODED``). Output order is deterministic, and no row depends on
    the order of ``records``.
    """
    records = list(records)
    buckets = tuple(sorted(float(b) for b in snr_buckets))
    if not buckets:
        raise ValueError("need at least one SNR bucket")
    if not all(math.isfinite(b) for b in buckets):
        raise ValueError(f"SNR buckets must be finite dB values, got {buckets}")
    groups: dict[tuple[str, float, str], list[EvalRecord]] = {}
    for r in records:
        b = _bucket(r.snr_db, buckets)
        groups.setdefault((r.method, b, r.modulation), []).append(r)
        groups.setdefault((r.method, b, "*"), []).append(r)

    methods = sorted({r.method for r in records})
    modulations = sorted({r.modulation for r in records} | {"*"})
    rows = []
    for method in methods:
        for bucket in buckets:
            for modulation in modulations:
                members = groups.get((method, bucket, modulation), [])
                packets = [r for r in members if r.status != NOT_DECODED]
                losses = [r.recon_loss for r in members if r.recon_loss is not None]
                sers = [r.ser for r in members if r.ser is not None]
                rows.append(
                    AggregateRow(
                        method=method,
                        snr_db=bucket,
                        modulation=modulation,
                        count=len(members),
                        mae_f0=_mean([r.abs_f0_err for r in members]),
                        mae_tau=_mean([r.abs_tau_err for r in members]),
                        mae_t0=_mean([r.circ_t0_err for r in members]),
                        mean_recon_loss=_mean(losses),
                        packets=len(packets),
                        per=per(packets) if packets else None,
                        ser_cdf=ser_cdf(sers) if sers else [],
                    )
                )
    return rows
