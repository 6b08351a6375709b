import numpy as np
import pytest

from blindrx.blind import EstimateSet
from blindrx.errors import EmptySetError, LengthMismatchError
from blindrx.generator import TxParams
from blindrx.metrics import (
    EvalRecord,
    aggregate,
    estimation_errors,
    per,
    phase_invariant_loss,
    ser_cdf,
)


def random_signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def make_record(method="blind", snr_db=10.0, modulation="bpsk", ser=0.0, **kw):
    defaults = dict(
        signal_id=0,
        modulation=modulation,
        snr_db=snr_db,
        method=method,
        abs_f0_err=1e-3,
        abs_tau_err=0.1,
        circ_t0_err=0.01,
        recon_loss=0.5,
        ser=ser,
    )
    defaults.update(kw)
    return EvalRecord(**defaults)


# ------------------------------------------------------------------- loss


def test_loss_zero_for_phase_rotation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = random_signal(rng, 128)
        phi = rng.uniform(0, 2 * np.pi)
        assert abs(phase_invariant_loss(z * np.exp(1j * phi), z)) < 1e-10


def test_loss_zero_for_identity():
    rng = np.random.default_rng(2)
    z = random_signal(rng, 64)
    assert abs(phase_invariant_loss(z, z)) < 1e-12


def test_loss_scaling_algebra():
    # loss(2z, z) = (4 + 1 - 4) * ||z||^2 / N = ||z||^2 / N
    rng = np.random.default_rng(3)
    z = random_signal(rng, 64)
    expected = np.sum(np.abs(z) ** 2) / z.size
    assert abs(phase_invariant_loss(2 * z, z) - expected) < 1e-9


def test_loss_nonnegative_and_discriminates():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = random_signal(rng, 32)
        b = random_signal(rng, 32)
        loss = phase_invariant_loss(a, b)
        assert loss >= 0.0
        assert loss > 1e-6  # independent draws are never phase copies


def test_loss_equals_min_mse_over_phase_grid():
    rng = np.random.default_rng(5)
    grid = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
    rotations = np.exp(1j * grid)
    for _ in range(20):
        n = int(rng.integers(8, 64))
        z_hat = random_signal(rng, n)
        z = random_signal(rng, n)
        mses = [
            np.mean(np.abs(z_hat * r - z) ** 2) for r in rotations
        ]
        assert abs(phase_invariant_loss(z_hat, z) - min(mses)) < 1e-6


def test_loss_length_mismatch():
    with pytest.raises(LengthMismatchError):
        phase_invariant_loss(np.ones(4, dtype=complex), np.ones(5, dtype=complex))


# ----------------------------------------------------------------- errors


def truth_params(f0=0.005, tau=8.0, t0=0.02):
    return TxParams(
        f0=f0, phi0=0.0, t0=t0, tau=tau, beta=0.35, snr_db=10.0,
        sigma=0.0, channel=np.array([1.0 + 0j]),
    )


def test_estimation_errors_exact_match():
    est = EstimateSet(f0_hat=0.005, tau_hat=8.0, t0_hat=0.02)
    assert estimation_errors(est, truth_params()) == (0.0, 0.0, 0.0)


def test_estimation_errors_t0_wraparound():
    est = EstimateSet(f0_hat=0.005, tau_hat=8.0, t0_hat=0.98)
    errors = estimation_errors(est, truth_params(t0=0.02))
    assert abs(errors[2] - 0.04) < 1e-12


def test_estimation_errors_f0_arithmetic():
    est = EstimateSet(f0_hat=0.0049, tau_hat=8.0, t0_hat=0.02)
    errors = estimation_errors(est, truth_params(f0=0.005))
    assert abs(errors[0] - 1e-4) < 1e-15


# -------------------------------------------------------------------- CDF


def test_ser_cdf_basic():
    assert ser_cdf([0.0, 0.0, 0.5]) == [(0.0, 2 / 3), (0.5, 1.0)]


def test_ser_cdf_all_zero():
    assert ser_cdf([0.0, 0.0]) == [(0.0, 1.0)]


def test_ser_cdf_monotone_ends_at_one():
    rng = np.random.default_rng(6)
    values = rng.uniform(0, 1, size=500)
    cdf = ser_cdf(values)
    fractions = [f for _, f in cdf]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == 1.0
    # median of uniform draws sits near the 0.5 quantile
    median_ser = next(v for v, f in cdf if f >= 0.5)
    assert abs(median_ser - 0.5) < 0.08


def test_ser_cdf_empty():
    with pytest.raises(EmptySetError):
        ser_cdf([])


# -------------------------------------------------------------------- PER


def test_per_one_third():
    records = [make_record(ser=s) for s in (0.0, 0.1, 0.0)]
    assert per(records) == pytest.approx(1 / 3)


def test_per_all_zero():
    assert per([make_record(ser=0.0) for _ in range(5)]) == 0.0


def test_per_all_nonzero():
    assert per([make_record(ser=0.5) for _ in range(5)]) == 1.0


def test_per_counts_failures_as_errors():
    records = [make_record(ser=None, status="NoBandDetected"), make_record(ser=0.0)]
    assert per(records) == 0.5


def test_per_complements_zero_fraction():
    rng = np.random.default_rng(7)
    records = [make_record(ser=float(s)) for s in rng.choice([0.0, 0.2], size=100)]
    zero_fraction = sum(1 for r in records if r.ser == 0.0) / len(records)
    assert per(records) + zero_fraction == 1.0


def test_per_empty():
    with pytest.raises(EmptySetError):
        per([])


# -------------------------------------------------------------- aggregate


def test_aggregate_single_record_per_bucket():
    records = [make_record(snr_db=s, ser=0.0) for s in (0.0, 5.0, 10.0)]
    rows = aggregate(records, (0.0, 5.0, 10.0))
    star = [r for r in rows if r.modulation == "*" and r.count == 1]
    assert len(star) == 3
    assert all(r.mae_f0 == pytest.approx(1e-3) for r in star)


def test_aggregate_mean():
    records = [
        make_record(snr_db=10.0, abs_f0_err=1e-3),
        make_record(snr_db=10.0, abs_f0_err=3e-3),
    ]
    rows = aggregate(records, (10.0,))
    star = next(r for r in rows if r.modulation == "*")
    assert star.mae_f0 == pytest.approx(2e-3)


def test_aggregate_empty_bucket_emitted():
    records = [make_record(snr_db=0.0)]
    rows = aggregate(records, (0.0, 20.0))
    empty = next(r for r in rows if r.snr_db == 20.0 and r.modulation == "*")
    assert empty.count == 0
    assert empty.packets == 0
    assert empty.mae_f0 is None
    assert empty.per is None


def test_aggregate_per_counts_only_packets():
    records = [
        make_record(ser=0.0, status="ok"),
        make_record(signal_id=1, ser=None, status="not_decoded", abs_f0_err=3e-3),
    ]
    for row in aggregate(records, (10.0,)):
        assert (row.count, row.packets, row.per) == (2, 1, 0.0)
        assert row.mae_f0 == pytest.approx(2e-3)


def test_aggregate_not_decoded_only_has_no_per():
    records = [make_record(ser=None, status="not_decoded")]
    row = next(r for r in aggregate(records, (10.0,)) if r.modulation == "*")
    assert (row.count, row.packets, row.per, row.ser_cdf) == (1, 0, None, [])


@pytest.mark.parametrize("bucket", [np.nan, np.inf, -np.inf])
def test_aggregate_rejects_non_finite_buckets(bucket):
    with pytest.raises(ValueError):
        aggregate([make_record()], (10.0, bucket))
    with pytest.raises(ValueError):
        aggregate([], (bucket,))



def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(8)
    records = [
        make_record(
            snr_db=float(rng.choice([0, 10, 20])),
            modulation=str(rng.choice(["bpsk", "qpsk"])),
            ser=float(rng.choice([0.0, 0.3])),
            abs_f0_err=float(rng.uniform(0, 0.01)),
        )
        for _ in range(60)
    ]
    rows_a = aggregate(records, (0.0, 10.0, 20.0))
    shuffled = list(records)
    rng.shuffle(shuffled)
    rows_b = aggregate(shuffled, (0.0, 10.0, 20.0))
    assert rows_a == rows_b


def test_aggregate_buckets_by_nearest():
    records = [make_record(snr_db=7.4), make_record(snr_db=7.6)]
    rows = aggregate(records, (5.0, 10.0))
    five = next(r for r in rows if r.snr_db == 5.0 and r.modulation == "*")
    ten = next(r for r in rows if r.snr_db == 10.0 and r.modulation == "*")
    assert five.count == 1
    assert ten.count == 1
