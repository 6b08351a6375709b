import dataclasses
import json

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from blindrx import blind
from blindrx.blind import (
    CFO_GRID_POINTS,
    CMA_DIVERGENCE_LIMIT,
    CMA_TAPS,
    RATE_GRID_POINTS,
    RATE_LOW_CONFIDENCE_RATIO,
    EstimateSet,
    band_segment,
    blind_chain,
    cma_equalize,
    equalized_output,
    fft_bins,
    fine_cfo,
    fine_symbol_rate,
    gardner_timing,
    welch_psd,
    _apply_taps,
    _line_search,
    _occupied_run,
    _segment_stage,
)
from blindrx.dsp import frequency_shift, lowpass, mean_power
from blindrx.errors import (
    BlindRxError,
    CmaDivergenceError,
    InvalidBandwidthError,
    NoBandDetectedError,
    NonFiniteInputError,
    SignalTooShortError,
    ZeroPowerSignalError,
)
from blindrx.cli import main
from blindrx.generator import (
    DatasetSpec,
    TxParams,
    generate_one,
    make_rng,
    read_dataset,
    write_dataset,
)
from blindrx.modulation import ModulationType
from blindrx.recovery import genie_chain

SPEC = DatasetSpec(count=1, seed=50, n_r=1024)


def clean_record(index, modulation, f0=0.0, tau=8.0, beta=0.35, t0=0.0,
                 snr_db=20.0, phi0=0.0):
    params = TxParams(
        f0=f0, phi0=phi0, t0=t0, tau=tau, beta=beta, snr_db=snr_db,
        sigma=0.0, channel=np.array([1.0 + 0.0j]),
    )
    return generate_one(SPEC, index, params=params, modulation=modulation)


def complex_noise(rng, n, variance=1.0):
    return np.sqrt(variance / 2.0) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )


# ------------------------------------------------------------------- welch


def test_welch_white_noise_level():
    rng = make_rng(60)
    x = complex_noise(rng, 100_000, variance=1.0)
    pxx = welch_psd(x, 256)
    assert abs(np.mean(pxx) - 1.0) < 0.05


def test_welch_tone_peak_location():
    k = np.arange(4096)
    x = np.exp(2j * np.pi * 0.1 * k)
    pxx = welch_psd(x, 256)
    freqs = fft_bins(256)
    assert abs(freqs[np.argmax(pxx)] - 0.1) <= 0.5 / 256


def test_welch_zero_signal():
    assert np.all(welch_psd(np.zeros(1024, dtype=np.complex128), 64) == 0.0)


def test_welch_phase_invariant():
    rng = make_rng(61)
    x = complex_noise(rng, 2048)
    a = welch_psd(x, 128)
    b = welch_psd(x * np.exp(1j * 1.234), 128)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_welch_too_short():
    with pytest.raises(SignalTooShortError):
        welch_psd(np.zeros(100, dtype=np.complex128), 256)


# ----------------------------------------------------------- band segment


def test_band_segment_stage_bounds():
    # bin-resolution bounds: 2/64 after the coarse stage, 2/256 refined
    for i in range(40):
        rec = clean_record(i, ModulationType.BPSK, f0=0.005,
                           phi0=float(make_rng(62, i).uniform(0, 2 * np.pi)))
        center1, _ = _segment_stage(rec.y, 64, rec.n0)
        assert abs(center1 - 0.005) <= 2.0 / 64
        band, _ = band_segment(rec.y, rec.n0)
        assert abs(band.center - 0.005) <= 2.0 / 256


def test_band_segment_invariants():
    rec = clean_record(0, ModulationType.QPSK, f0=-0.004)
    band, centered = band_segment(rec.y, rec.n0)
    assert band.b1 < band.b2
    assert abs(band.center - 0.5 * (band.b1 + band.b2)) < 1e-12
    assert abs(band.halfwidth - 0.5 * (band.b2 - band.b1)) < 1e-12
    assert centered.size == rec.y.size


def test_band_segment_noise_only_rejects():
    detections = 0
    trials = 200
    for i in range(trials):
        noise = complex_noise(make_rng(63, i), 1024, variance=1.0)
        try:
            band_segment(noise, 1.0)
            detections += 1
        except NoBandDetectedError:
            pass
    assert detections / trials <= 0.01


def test_band_segment_dc_tone_blind_floor():
    x = np.ones(1024, dtype=np.complex128)
    band, _ = band_segment(x, None)
    assert abs(band.center) <= 1.0 / 64


def test_band_segment_too_short():
    with pytest.raises(SignalTooShortError):
        band_segment(np.ones(128, dtype=np.complex128))


def reference_occupied_run(pxx, threshold):
    """The run finder as a start/stop scan over the bridged mask."""
    mask = pxx > threshold
    if not mask.any():
        return None
    bridged = mask.copy()
    bridged[1:-1] |= mask[:-2] & ~mask[1:-1] & mask[2:]
    runs = []
    start = None
    for i, occupied in enumerate(bridged):
        if occupied and start is None:
            start = i
        elif not occupied and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(bridged) - 1))
    return max(runs, key=lambda r: float(np.sum(pxx[r[0] : r[1] + 1])))


def test_occupied_run_matches_scan_reference():
    # Bin powers of 0, 1 and 2 make equal-power runs (ties go to the
    # first) and runs that touch either end of the spectrum.
    rng = make_rng(65)
    spectra = [np.zeros(5), np.ones(3), np.array([1.0, 0.0, 0.0, 1.0]),
               np.array([2.0, 0.0, 1.0, 1.0]), np.array([1.0, 0.0, 1.0, 0.0, 0.0, 2.0])]
    for _ in range(2000):
        n = int(rng.integers(3, 257))
        occupied = rng.random(n) < rng.uniform(0.1, 0.9)
        spectra.append(occupied * rng.integers(1, 3, size=n).astype(float))
    for pxx in spectra:
        run = _occupied_run(pxx, 0.5)
        assert run == reference_occupied_run(pxx, 0.5)
        assert run is None or all(type(edge) is int for edge in run)


# --------------------------------------------------------------- fine CFO


def test_fine_cfo_oracle_bound():
    # Grid step in f0 is 0.002/99/4 = 5.05e-6: with the true value half a
    # step off-grid the per-trial error alternates between ~2.5e-6 and
    # ~7.6e-6, so the spec's one-grid-step figure holds for the mean.
    errors = []
    for i in range(100):
        rec = clean_record(
            i, ModulationType.QPSK, f0=0.005,
            phi0=float(make_rng(64, i).uniform(0, 2 * np.pi)),
        )
        errors.append(abs(fine_cfo(rec.y, 0.005) - 0.005))
    errors = np.array(errors)
    assert errors.mean() <= 5e-6
    assert errors.max() <= 3 * 5.05e-6


def test_fine_cfo_constant_signal():
    # the 100-point grid straddles zero, so the argmax lands on one of the
    # two neighbors at +/- half an alpha step (1.01e-5 / 2 / 4 in f0)
    z = np.ones(1024, dtype=np.complex128)
    assert abs(fine_cfo(z, 0.0)) <= 3e-6


def test_fine_cfo_window_endpoints_inclusive():
    # a pure line exactly at the upper window edge must be reachable
    k = np.arange(2048)
    edge = 0.001
    z4_line = np.exp(2j * np.pi * (edge / 4.0) * k)  # z^4 line at alpha=edge
    assert abs(fine_cfo(z4_line, 0.0) - edge / 4.0) < 1e-15


def test_fine_cfo_equivariance():
    rec = clean_record(7, ModulationType.BPSK, f0=0.002)
    base = fine_cfo(rec.y, 0.002)
    delta = 0.0013
    shifted = fine_cfo(frequency_shift(rec.y, delta), 0.002 + delta)
    assert abs((shifted - delta) - base) < 1e-9


@pytest.mark.parametrize("scale", [1e80, 1e-80, 1e154])
def test_blind_chain_f0_is_scale_invariant(scale):
    # at 1e80 an unscaled z**4 overflows and the CFO search lands on its
    # window edge (f0_hat 0.001703125 on this QPSK record); at 1e154 an
    # unscaled |z|**2 overflows and the chain answers f0_hat -0.472 and
    # tau_hat 150.6
    rec = generate_one(DatasetSpec(count=20, seed=5, n_r=1024), 13)
    assert rec.modulation is ModulationType.QPSK
    base = blind_chain(rec.y, n0=rec.n0)
    scaled = blind_chain(rec.y * scale, n0=rec.n0 * scale**2)
    assert abs(scaled.f0_hat - base.f0_hat) < 1e-12
    assert abs(scaled.tau_hat - base.tau_hat) < 1e-12
    assert abs(scaled.t0_hat - base.t0_hat) < 1e-12


# -------------------------------------------------------------- fine rate


def test_fine_symbol_rate_oracle_bound():
    errors = []
    for i in range(100):
        rec = clean_record(
            i, ModulationType.BPSK,
            phi0=float(make_rng(65, i).uniform(0, 2 * np.pi)),
        )
        tau, _ = fine_symbol_rate(rec.y, 1.0 / 8.0)
        errors.append(abs(tau - 8.0))
    errors = np.array(errors)
    assert np.mean(errors <= 0.2) >= 0.95
    assert np.median(errors) <= 0.05


def test_fine_symbol_rate_gmsk_low_confidence():
    params = TxParams(f0=0.0, phi0=0.0, t0=0.0, tau=8.0, beta=0.35,
                      snr_db=20.0, sigma=0.0, channel=np.array([1.0 + 0j]))
    rec = generate_one(SPEC, 3, params=params, modulation=ModulationType.GMSK)
    _, peak_to_mean = fine_symbol_rate(rec.y, 1.0 / 8.0)
    assert peak_to_mean < RATE_LOW_CONFIDENCE_RATIO


def test_fine_symbol_rate_window_lower_endpoint():
    k = np.arange(4096)
    bw = 0.125
    alpha_edge = 0.85 * bw
    z = np.sqrt(1.0 + 0.9 * np.cos(2 * np.pi * alpha_edge * k)).astype(complex)
    tau, _ = fine_symbol_rate(z, bw)
    assert abs(tau - 1.0 / alpha_edge) < 1e-12


def test_fine_symbol_rate_phase_invariant():
    rec = clean_record(9, ModulationType.QPSK)
    a, _ = fine_symbol_rate(rec.y, 1.0 / 8.0)
    b, _ = fine_symbol_rate(rec.y * np.exp(1j * 0.77), 1.0 / 8.0)
    assert a == b


def test_fine_symbol_rate_requires_positive_bandwidth():
    with pytest.raises(InvalidBandwidthError):
        fine_symbol_rate(np.ones(256, dtype=complex), 0.0)


# ----------------------------------------------------------------- gardner


def test_gardner_oracle_half_symbol():
    hits = 0
    trials = 300
    for i in range(trials):
        rec = clean_record(
            i, ModulationType.BPSK, t0=0.5,
            phi0=float(make_rng(66, i).uniform(0, 2 * np.pi)),
        )
        t0, _ = gardner_timing(rec.y, 8.0)
        d = abs(t0 - 0.5) % 1.0
        hits += min(d, 1.0 - d) <= 1.0 / 32.0
    assert hits / trials >= 0.90


def test_gardner_wraparound_near_zero():
    rec = clean_record(11, ModulationType.BPSK, t0=0.0)
    t0, _ = gardner_timing(rec.y, 8.0)
    d = abs(t0 - 0.0) % 1.0
    assert min(d, 1.0 - d) <= 1.0 / 32.0


def test_gardner_constant_signal_no_crossing():
    assert gardner_timing(np.ones(1024, dtype=np.complex128), 8.0) == (0.0, False)


def test_gardner_tau_precondition():
    with pytest.raises(ValueError):
        gardner_timing(np.ones(1024, dtype=np.complex128), 2.0)


# --------------------------------------------------------------------- CMA


def dispersion(x):
    p = mean_power(x)
    return float(np.mean((np.abs(x / np.sqrt(p)) ** 2 - 1.0) ** 2))


def test_cma_zero_step_returns_initialization():
    rng = make_rng(67)
    z = complex_noise(rng, 500)
    taps = cma_equalize(z, step=0.0)
    expected = np.zeros(20, dtype=np.complex128)
    expected[10] = 1.0
    assert np.array_equal(taps, expected)
    np.testing.assert_allclose(_apply_taps(z, taps), z / np.sqrt(mean_power(z)), rtol=1e-12)


def test_cma_constant_modulus_input_stays_put():
    # clean QPSK at one sample per symbol is already constant modulus
    rng = make_rng(68)
    points = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(4, size=600)))
    taps = cma_equalize(points)
    assert abs(taps[10] - 1.0) < 0.05
    assert np.max(np.abs(np.delete(taps, 10))) < 0.05
    assert dispersion(_apply_taps(points, taps)) <= dispersion(points) + 1e-6


def test_cma_improves_two_tap_channel():
    wins = 0
    trials = 500
    channel = np.array([1.0, 0.4j])
    for i in range(trials):
        rng = make_rng(69, i)
        points = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(4, size=800)))
        z = np.convolve(points, channel, mode="same")
        z = z + complex_noise(rng, z.size, variance=mean_power(z) / 100.0)
        wins += dispersion(_apply_taps(z, cma_equalize(z))) < dispersion(z)
    assert wins / trials >= 0.90


def test_cma_length_guard():
    with pytest.raises(SignalTooShortError):
        cma_equalize(np.ones(40, dtype=np.complex128))


# ------------------------------------------------------------- blind chain


def test_blind_chain_clean_bpsk():
    # Chain-level bounds: the carrier estimate is segmentation-limited and
    # the rate estimate inherits the bandwidth-as-rate bias; the timing
    # phase additionally drifts with any rate error, so it only gets a
    # range check here (stage-level accuracy is tested above).
    rec = clean_record(21, ModulationType.BPSK, f0=0.004, t0=0.25, beta=0.15)
    estimates = blind_chain(rec.y, n0=rec.n0)
    recovered = equalized_output(rec.y, estimates)
    assert abs(estimates.f0_hat - 0.004) <= 2.0 / 256
    assert abs(estimates.tau_hat - 8.0) <= 1.5
    assert 0.0 <= estimates.t0_hat < 1.0
    assert recovered.size == rec.y.size
    assert estimates.eq_taps.size == 20


def test_blind_chain_noise_only():
    noise = complex_noise(make_rng(70), 1024)
    with pytest.raises(NoBandDetectedError):
        blind_chain(noise, n0=1.0)


def test_blind_chain_estimates_serializable():
    # the est.jsonl line of a blind and of a genie run reads back as the
    # estimates that wrote it
    rec = clean_record(23, ModulationType.QPSK)
    for estimates in (blind_chain(rec.y, n0=rec.n0), genie_chain(rec)):
        back = EstimateSet.from_line(json.loads(json.dumps(estimates.to_line())))
        if estimates.eq_taps is None:
            assert back.eq_taps is None
        else:
            assert np.array_equal(back.eq_taps, estimates.eq_taps)
        assert dataclasses.replace(back, eq_taps=None) == dataclasses.replace(
            estimates, eq_taps=None
        )


def test_equalized_output_rebuilds_chain_output(tmp_path):
    # The estimate line is the only thing decode keeps of a blind run, so
    # the output rebuilt from its JSON must equal the one rebuilt from the
    # chain's own estimates, bit for bit, under both n0 policies. The
    # tone's rate estimate is far above GARDNER_TAU_LIMITS, so its timing
    # ran on a clipped tau.
    spec = DatasetSpec(count=6, seed=52, n_r=1024, snr_levels_db=(10.0, 20.0),
                       modulations=(ModulationType.BPSK, ModulationType.QAM16))
    records = [generate_one(spec, i) for i in range(5)]
    tone = np.exp(2j * np.pi * 0.003 * np.arange(1024))
    tone += complex_noise(make_rng(77), 1024, variance=0.01)
    records.append(dataclasses.replace(records[0], y=tone, n0=0.01))
    write_dataset(tmp_path / "ds", records, spec)
    stored = read_dataset(tmp_path / "ds")
    clipped = []
    for policy in ("known", "estimated"):
        est = tmp_path / f"{policy}.jsonl"
        assert main(["estimate", "--dataset", str(tmp_path / "ds"), "--out", str(est),
                     "--n0", policy]) == 0
        lines = [json.loads(raw) for raw in est.read_text().splitlines()]
        assert [line["status"] for line in lines] == ["ok"] * 6
        for line, rec in zip(lines, stored):
            n0 = rec.n0 if policy == "known" else None
            expected = equalized_output(rec.y, blind_chain(rec.y, n0=n0))
            rebuilt = equalized_output(rec.y, EstimateSet.from_line(line))
            assert rebuilt.tobytes() == expected.tobytes()
            clipped.append(line["diagnostics"]["tau_clipped_for_timing"])
    assert clipped[5]


# ------------------------------------------- equivalence with the dense forms


def dense_line_search(values, grid):
    """The line search as a grid-by-N basis product."""
    k = np.arange(values.size)
    objective = np.abs(np.exp(-2j * np.pi * np.outer(grid, k)) @ values)
    return int(np.argmax(objective)), objective


def chain_signal(n_r, index):
    spec = DatasetSpec(count=index + 1, seed=53, n_r=n_r, snr_levels_db=(10.0,),
                       modulations=(ModulationType.QPSK,))
    record = generate_one(spec, index)
    _, x1 = band_segment(record.y, record.n0)
    return record, x1


@pytest.mark.parametrize("n_r", [1024, 8192])
def test_line_search_matches_dense_basis(n_r):
    record, x1 = chain_signal(n_r, 0)
    bw = 1.0 / record.params.tau
    f0 = record.params.f0
    cases = [
        # fine_symbol_rate's window around the coarse rate
        (np.abs(x1) ** 2, np.linspace(0.85 * bw, 1.15 * bw, RATE_GRID_POINTS)),
        # blind_chain's centred residual CFO search
        (x1**4, np.linspace(-1e-3, 1e-3, CFO_GRID_POINTS)),
        # criterion 6's fine_cfo(y, f0): a window off the origin
        (record.y**4, np.linspace(4 * f0 - 1e-3, 4 * f0 + 1e-3, CFO_GRID_POINTS)),
    ]
    for values, grid in cases:
        best, objective = _line_search(values, grid)
        ref_best, ref_objective = dense_line_search(values, grid)
        assert best == ref_best
        np.testing.assert_allclose(objective, ref_objective, rtol=1e-9)


def reference_cma(z, step, limit=CMA_DIVERGENCE_LIMIT):
    """CMA with the tap scan after every step."""
    zn = z / np.sqrt(mean_power(z))
    w = np.zeros(CMA_TAPS, dtype=np.complex128)
    w[CMA_TAPS // 2] = 1.0
    for m in range(zn.size - CMA_TAPS + 1):
        r = zn[m : m + CMA_TAPS]
        g = np.dot(w, r)
        w = w - step * g * (np.abs(g) ** 2 - 1.0) * np.conj(r)
        if np.abs(w).max() > limit:
            raise CmaDivergenceError(f"tap magnitude exceeded at step {m}")
    return w, _apply_taps(z, w)


def cma_input(name):
    if name == "noise":
        return complex_noise(make_rng(71), 4000)
    return chain_signal(1024, 1)[1]


# With the limit at 2.2 the taps (max 1.005) never diverge, but the running
# bound passes half the limit 59 times in 3981 steps, so scans and resets
# interleave with skipped steps.
@pytest.mark.parametrize("name, step, limit", [
    ("chain", 1e-4, CMA_DIVERGENCE_LIMIT),
    ("chain", 0.0, CMA_DIVERGENCE_LIMIT),
    ("noise", 0.01, CMA_DIVERGENCE_LIMIT),
    ("noise", 0.01, 2.2),
])
def test_cma_matches_per_step_reference_bit_for_bit(monkeypatch, name, step, limit):
    monkeypatch.setattr(blind, "CMA_DIVERGENCE_LIMIT", limit)
    z = cma_input(name)
    ref_taps, ref_output = reference_cma(z, step, limit)
    taps = cma_equalize(z, step)
    assert taps.tobytes() == ref_taps.tobytes()
    assert _apply_taps(z, taps).tobytes() == ref_output.tobytes()


# Divergence at step 2, at step 3340 of 3981 after thousands of unscanned
# steps, and at step 0 under a limit of 1.002, where every step is scanned.
@pytest.mark.parametrize("name, step, limit", [
    ("chain", 0.5, CMA_DIVERGENCE_LIMIT),
    ("noise", 0.03, CMA_DIVERGENCE_LIMIT),
    ("noise", 0.01, 1.002),
])
def test_cma_divergence_at_the_reference_step(monkeypatch, name, step, limit):
    monkeypatch.setattr(blind, "CMA_DIVERGENCE_LIMIT", limit)
    z = cma_input(name)
    with pytest.raises(CmaDivergenceError) as expected:
        reference_cma(z, step, limit)
    with pytest.raises(CmaDivergenceError) as got:
        cma_equalize(z, step)
    assert str(got.value) == str(expected.value)
    assert got.value.stage == "cma_equalize"


# ------------------------------------------------------- failure by cause


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_blind_chain_rejects_non_finite_input(bad):
    rec = clean_record(24, ModulationType.QPSK)
    y = rec.y.copy()
    y[500] = bad
    with pytest.raises(NonFiniteInputError) as info:
        blind_chain(y, n0=rec.n0)
    assert info.value.stage == "input"


def test_chain_errors_name_their_stage():
    cases = [
        (lambda: blind_chain(np.ones(255, dtype=np.complex128)), SignalTooShortError, "input"),
        (lambda: band_segment(np.ones(255)), SignalTooShortError, "band_segment"),
        (lambda: welch_psd(np.ones(63), 64), SignalTooShortError, "welch_psd"),
        (lambda: fine_cfo(np.ones(255), 0.0), SignalTooShortError, "fine_cfo"),
        (lambda: fine_symbol_rate(np.ones(300), 0.0), InvalidBandwidthError,
         "fine_symbol_rate"),
        (lambda: gardner_timing(np.ones(8), 8.0), SignalTooShortError, "gardner_timing"),
        (lambda: cma_equalize(np.ones(40)), SignalTooShortError, "cma_equalize"),
        (lambda: cma_equalize(np.zeros(100)), ZeroPowerSignalError, "cma_equalize"),
        (lambda: blind_chain(complex_noise(make_rng(70), 1024), n0=1.0),
         NoBandDetectedError, "band_segment"),
    ]
    for call, error, stage in cases:
        with pytest.raises(error) as info:
            call()
        assert info.value.stage == stage


@st.composite
def received_records(draw):
    """Lengths 0-2048 at scales 1e-300-1e300: noise, band-limited noise,
    tones and constants, some with a NaN or Inf sample."""
    n = draw(st.one_of(st.integers(0, 2048), st.integers(256, 2048)))
    rng = make_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(["noise", "band", "tone", "constant"]))
    if kind == "tone":
        y = np.exp(2j * np.pi * draw(st.floats(-0.5, 0.5)) * np.arange(n))
    elif kind == "constant":
        y = np.full(n, complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))))
    else:
        y = complex_noise(rng, n)
        if kind == "band" and n:
            y = lowpass(y, draw(st.floats(0.01, 0.3)))
    y = y * 10.0 ** draw(st.integers(-300, 300))
    bad = draw(st.sampled_from([None, None, None, np.nan, np.inf, -np.inf]))
    if bad is not None and n:
        y[draw(st.integers(0, n - 1))] = bad
    return y


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(y=received_records(), n0=st.sampled_from([None, 1.0]))
def test_blind_chain_property_finite_or_library_error(y, n0):
    try:
        estimates = blind_chain(y, n0=n0)
    except BlindRxError as exc:
        assert exc.stage is not None
        if not np.isfinite(y).all() and y.size >= 256:
            assert isinstance(exc, NonFiniteInputError)
        return
    assert np.isfinite([estimates.f0_hat, estimates.tau_hat, estimates.t0_hat]).all()
    assert np.isfinite(estimates.eq_taps).all()
    output = equalized_output(y, estimates)
    assert np.isfinite(output).all()
    line = json.loads(json.dumps(estimates.to_line()))
    assert equalized_output(y, EstimateSet.from_line(line)).tobytes() == output.tobytes()
