import numpy as np
import pytest

from blindrx.errors import EmptyOverlapError, NonFiniteInputError, NonLinearModulationError
from blindrx.generator import DatasetSpec, TxParams, build_fading, generate_one, make_rng
from blindrx.modulation import ModulationType, SymbolSequence, constellation, map_symbols
from blindrx.blind import EstimateSet, timing_tau
from blindrx.recovery import (
    RecoveredSymbols,
    decode_packet,
    decode_symbols,
    genie_chain,
    genie_equalize,
    genie_output,
    ser,
    symbol_resample,
)

SPEC = DatasetSpec(count=1, seed=90, n_r=1024)


def clean_record(index, modulation=ModulationType.BPSK, tau=8.0, t0=0.0,
                 beta=0.35, f0=0.0, phi0=0.0, snr_db=np.inf, channel=None,
                 sigma=0.0):
    params = TxParams(
        f0=f0, phi0=phi0, t0=t0, tau=tau, beta=beta, snr_db=snr_db,
        sigma=sigma,
        channel=np.array([1.0 + 0.0j]) if channel is None else channel,
    )
    return generate_one(SPEC, index, params=params, modulation=modulation)


# ---------------------------------------------------------- genie equalize


def test_genie_equalize_identity_channel():
    rng = make_rng(91)
    z = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    out = genie_equalize(z, np.array([1.0, 0.0, 0.0]), 0.0)
    assert np.max(np.abs(out - z)) < 1e-9


def test_genie_equalize_pure_delay():
    rng = make_rng(92)
    z = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    out = genie_equalize(z, np.array([0.0, 1.0, 0.0]), 0.0)
    assert np.max(np.abs(out - np.roll(z, -1))) < 1e-9


def test_genie_equalize_null_with_zero_noise():
    # [1, -1] has H = 0 at DC's opposite bin; inversion undefined at N0=0
    z = np.ones(64, dtype=np.complex128)
    with pytest.raises(ZeroDivisionError):
        genie_equalize(z, np.array([1.0, 0.0, 0.0, 0.0, -1.0]), 0.0)


def test_genie_equalize_improves_mse():
    for i in range(50):
        rng = make_rng(93, i)
        sigma = float(rng.uniform(2.0, 8.0))
        channel = build_fading(sigma, rng)
        rec = clean_record(i, sigma=sigma, channel=channel)
        before = np.mean(np.abs(rec.z1 - rec.z2) ** 2)
        after = np.mean(
            np.abs(genie_equalize(rec.z1, channel, 1e-4) - rec.z2) ** 2
        )
        assert after <= before


def test_genie_equalize_round_trip():
    # circular convolution then MMSE inversion with N0=0 is the identity
    # for channels without spectral nulls
    count = 0
    i = 0
    while count < 30:
        rng = make_rng(94, i)
        i += 1
        taps = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
        h = np.fft.fft(taps, n=256)
        if np.min(np.abs(h)) < 0.05:
            continue
        count += 1
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        convolved = np.fft.ifft(np.fft.fft(x) * h)
        back = genie_equalize(convolved, taps, 0.0)
        assert np.sqrt(np.mean(np.abs(back - x) ** 2)) < 1e-6


# ------------------------------------------------------------- genie chain


def test_genie_chain_noise_free_identity():
    for i in range(20):
        rng = make_rng(95, i)
        rec = clean_record(
            i,
            modulation=ModulationType.QPSK,
            tau=64 / int(rng.integers(4, 17)),
            f0=float(rng.uniform(-0.01, 0.01)),
            phi0=float(rng.uniform(0, 2 * np.pi)),
            channel=np.array([np.exp(1j * rng.uniform(0, 2 * np.pi))]),
        )
        estimates, recovered = genie_chain(rec), genie_output(rec)
        rms = np.sqrt(np.mean(np.abs(recovered - rec.z2) ** 2))
        assert rms < 1e-3
        assert estimates.f0_hat == rec.params.f0
        assert estimates.tau_hat == rec.params.tau
        assert estimates.t0_hat == rec.params.t0
        assert recovered.size == rec.y.size


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_genie_chain_rejects_non_finite_input(bad):
    rec = clean_record(3, modulation=ModulationType.QPSK)
    rec.y[200] = bad
    with pytest.raises(NonFiniteInputError) as info:
        genie_chain(rec)
    assert info.value.stage == "input"


# ---------------------------------------------------------- symbol resample


def test_symbol_resample_clean_bpsk():
    # No matched filter exists in this chain, so symbol-spaced RRC tails
    # set the soft-symbol dispersion floor: 0.103/0.125/0.137 RMS for
    # beta = 0.15/0.25/0.35, predicted independently from the pulse tail
    # sums. The ensemble average must match that prediction.
    from blindrx.modulation import rrc_taps

    for beta in (0.15, 0.25, 0.35):
        taps = rrc_taps(beta, 12, 64)
        taps = taps / taps.max()
        center = (taps.size - 1) // 2
        predicted = np.sqrt(2.0 * np.sum(taps[center::64][1:] ** 2))
        values = []
        for i in range(10):
            rec = clean_record(300 + i, beta=beta, t0=0.25)
            soft = symbol_resample(rec.z2, 8.0, 0.25)
            truth = rec.symbols.values[: soft.size]
            soft = soft[: truth.size]
            phi = np.angle(np.sum(soft * np.conj(truth)))
            values.append(
                np.sqrt(np.mean(np.abs(soft * np.exp(-1j * phi) - truth) ** 2))
            )
        measured = float(np.mean(values))
        assert abs(measured - predicted) / predicted < 0.25
        assert measured < 0.16


def test_symbol_resample_zero_offset_starts_at_origin():
    rec = clean_record(4)
    soft = symbol_resample(rec.z2, 8.0, 0.0)
    assert abs(soft[0] - rec.z2[0]) < 1e-9


def test_symbol_resample_count():
    rec = clean_record(5, tau=8.0)
    soft = symbol_resample(rec.z2, 8.0, 0.0)
    assert abs(soft.size - 128) <= 1
    # one grid step of rate error changes the count by at most one
    soft_off = symbol_resample(rec.z2, 8.0 + 0.024, 0.0)
    assert abs(soft_off.size - soft.size) <= 1


def test_symbol_resample_validates_inputs():
    rec = clean_record(6)
    with pytest.raises(ValueError):
        symbol_resample(rec.z2, 2.0, 0.0)
    with pytest.raises(ValueError):
        symbol_resample(rec.z2, 8.0, 1.5)


# ----------------------------------------------------------------- decode


@pytest.mark.parametrize(
    "m",
    [m for m in ModulationType if m.is_linear],
)
def test_decode_constant_rotation_all_linear(m):
    rng = make_rng(96)
    points = constellation(m)
    indices = rng.integers(points.size, size=128)
    soft = points[indices] * np.exp(1j * np.pi / 5)
    decoded = decode_symbols(soft, m, points[indices[0]])
    assert np.array_equal(decoded.hard, indices)


def test_decode_tracks_residual_cfo():
    rng = make_rng(97)
    for m in (ModulationType.BPSK, ModulationType.QPSK):
        points = constellation(m)
        indices = rng.integers(points.size, size=128)
        drift = 2 * np.pi * 1e-4 * 8.0 * np.arange(128)  # 1e-4 cyc/sample at tau=8
        soft = points[indices] * np.exp(1j * drift)
        decoded = decode_symbols(soft, m, points[indices[0]])
        truth = SymbolSequence(indices=indices, values=points[indices])
        assert ser(decoded, truth) == 0.0


def test_decode_exact_points():
    points = constellation(ModulationType.QAM16)
    indices = np.arange(16)
    decoded = decode_symbols(points[indices], ModulationType.QAM16, points[0])
    assert np.array_equal(decoded.hard, indices)
    assert np.array_equal(decoded.decoded, points[indices])


def test_decode_global_phase_invariance():
    rng = make_rng(98)
    points = constellation(ModulationType.QPSK)
    indices = rng.integers(4, size=200)
    soft = points[indices] + 0.05 * (
        rng.standard_normal(200) + 1j * rng.standard_normal(200)
    )
    truth = SymbolSequence(indices=indices, values=points[indices])
    reference = ser(decode_symbols(soft, ModulationType.QPSK, points[indices[0]]), truth)
    for phi in rng.uniform(0, 2 * np.pi, size=8):
        rotated = soft * np.exp(1j * phi)
        s = ser(decode_symbols(rotated, ModulationType.QPSK, points[indices[0]]), truth)
        assert s == reference


def test_decode_rejects_nonlinear():
    with pytest.raises(NonLinearModulationError):
        decode_symbols(np.ones(4, dtype=complex), ModulationType.GMSK, 1.0)


# --------------------------------------------------------------------- SER


def make_recovered(indices):
    indices = np.asarray(indices)
    return RecoveredSymbols(
        soft=np.zeros(indices.size, dtype=complex),
        hard=indices,
        decoded=np.zeros(indices.size, dtype=complex),
    )


def test_ser_identical_zero():
    truth = map_symbols(ModulationType.QPSK, [0, 1, 2, 3, 0])
    assert ser(make_recovered([0, 1, 2, 3, 0]), truth) == 0.0


def test_ser_all_different_one():
    truth = map_symbols(ModulationType.QPSK, [0, 0, 0, 0])
    assert ser(make_recovered([1, 1, 1, 1]), truth) == 1.0


def test_ser_length_mismatch_arithmetic():
    rng = make_rng(99)
    truth_idx = rng.integers(4, size=128)
    decoded_idx = truth_idx[:127].copy()
    flip = rng.choice(np.arange(1, 127), size=12, replace=False)
    decoded_idx[flip] = (decoded_idx[flip] + 1) % 4
    truth = map_symbols(ModulationType.QPSK, truth_idx)
    assert ser(make_recovered(decoded_idx), truth) == 12 / 126


def test_ser_excludes_first_position():
    truth = map_symbols(ModulationType.BPSK, [0, 1, 1])
    assert ser(make_recovered([1, 1, 1]), truth) == 0.0


def test_ser_empty_overlap():
    truth = map_symbols(ModulationType.BPSK, [0])
    with pytest.raises(EmptyOverlapError):
        ser(make_recovered([0]), truth)


# ------------------------------------------------------------- decode packet


def test_decode_packet_clamps_tau_for_the_resampler():
    # A tone's rate estimate (tau_hat 74.5) is outside the interpolator's
    # range: the resampler alone refuses it, decode_packet clamps it first.
    rec = clean_record(7, modulation=ModulationType.QPSK, snr_db=20.0)
    recovered = genie_output(rec)
    estimates = EstimateSet(f0_hat=0.0, tau_hat=74.5, t0_hat=rec.params.t0)
    with pytest.raises(ValueError):
        symbol_resample(recovered, estimates.tau_hat, estimates.t0_hat)
    soft = symbol_resample(recovered, timing_tau(estimates.tau_hat), estimates.t0_hat)
    decoded = decode_symbols(soft, rec.modulation, rec.symbols.values[0])
    assert decode_packet(rec, recovered, estimates) == ser(decoded, rec.symbols)


def test_decode_packet_ook_origin_decision_keeps_the_loop():
    # A decision at OOK's origin point gives arg(-0+0j) = pi for a corrected
    # symbol with a negative real part; updating the loop with it turned this
    # record's phase a quarter-turn at symbol 15 (SER 0.331).
    spec = DatasetSpec(count=1, seed=4242, snr_levels_db=(20.0,),
                       modulations=(ModulationType.OOK,))
    rec = generate_one(spec, 0)
    assert decode_packet(rec, genie_output(rec), genie_chain(rec)) == 0.0
