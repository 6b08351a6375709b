import math

import numpy as np
import pytest

from blindrx.dsp import frequency_shift
from blindrx.errors import (
    FormatVersionMismatchError,
    TruncatedFileError,
    ZeroPowerSignalError,
)
from blindrx.generator import (
    N_UP,
    DatasetSpec,
    DatasetWriter,
    TxParams,
    add_awgn,
    build_fading,
    generate_one,
    make_rng,
    read_dataset,
    sample_params,
    timing_slice,
    write_dataset,
)
from blindrx.modulation import ModulationType


def identity_params(tau=8.0, beta=0.35, t0=0.0, f0=0.0, phi0=0.0, snr_db=np.inf):
    return TxParams(
        f0=f0,
        phi0=phi0,
        t0=t0,
        tau=tau,
        beta=beta,
        snr_db=snr_db,
        sigma=0.0,
        channel=np.array([1.0 + 0.0j]),
    )


# -------------------------------------------------------------- sampling


def test_sample_params_deterministic():
    spec = DatasetSpec(count=10, seed=123)
    a, mod_a = sample_params(make_rng(9, 4), spec)
    b, mod_b = sample_params(make_rng(9, 4), spec)
    assert mod_a is mod_b
    assert (a.f0, a.phi0, a.t0, a.tau, a.beta, a.snr_db, a.sigma) == (
        b.f0,
        b.phi0,
        b.t0,
        b.tau,
        b.beta,
        b.snr_db,
        b.sigma,
    )
    assert np.array_equal(a.channel, b.channel)


def test_sample_params_ranges():
    spec = DatasetSpec(count=1, seed=5)
    for i in range(300):
        p, m = sample_params(make_rng(5, i), spec)
        assert -0.01 <= p.f0 <= 0.01
        assert 0.0 <= p.phi0 < 2 * np.pi
        assert 0.0 <= p.t0 < 1.0
        assert 4.0 <= p.tau <= 16.0
        assert p.beta in (0.15, 0.25, 0.35)
        assert 0.0 <= p.snr_db <= 20.0
        assert 0.0 <= p.sigma <= p.tau
        assert abs(np.sum(np.abs(p.channel) ** 2) - 1.0) < 1e-9
        assert (64 / p.tau) == int(64 / p.tau)


def test_sample_params_f0_mean_bound():
    # standard-error bound for a uniform[-0.01, 0.01] mean over 1e5 draws
    n = 100_000
    rng = make_rng(77)
    spec = DatasetSpec(count=1, seed=77)
    values = np.empty(n)
    for i in range(n):
        values[i] = float(rng.uniform(-0.01, 0.01))
    bound = 3.0 * (0.02 / np.sqrt(12.0)) / np.sqrt(n)
    assert abs(values.mean()) < bound
    del spec


def test_sample_params_modulation_frequencies():
    spec = DatasetSpec(count=1, seed=3)
    n = 100_000
    rng = make_rng(3)
    counts = np.zeros(16)
    for _ in range(n):
        counts[int(rng.integers(16))] += 1
    assert np.all(np.abs(counts / n - 1.0 / 16.0) < 0.01)
    del spec


def test_discrete_snr_levels():
    spec = DatasetSpec(count=1, seed=8, snr_levels_db=(0, 5, 10, 15, 20))
    seen = set()
    for i in range(200):
        p, _ = sample_params(make_rng(8, i), spec)
        seen.add(p.snr_db)
    assert seen <= {0.0, 5.0, 10.0, 15.0, 20.0}
    assert len(seen) == 5


# ------------------------------------------------------------ timing/rate


class ScriptedUniforms:
    """A generator whose uniform draws are scripted fractions of their range.

    ``sample_params`` draws uniforms in the order f0, phi0, t0, tau, snr
    (continuous SNR only), sigma; integer and normal draws come from a real
    stream.
    """

    def __init__(self, fractions):
        self._fractions = iter(fractions)
        self._rng = make_rng(0)

    def uniform(self, low, high):
        return low + next(self._fractions) * (high - low)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        return self._rng.standard_normal(*args, **kwargs)


def sample_timing(t0_draw, tau_draw):
    """(tau, t0) labels that sample_params gives for these timing draws."""
    fractions = [0.5, 0.5, t0_draw, (tau_draw - 4.0) / 12.0, 0.5, 0.5]
    params, _ = sample_params(ScriptedUniforms(fractions), DatasetSpec(count=1))
    return params.tau, params.t0


def reference_timing_slice(tau, t0):
    """The label -> (removed, decimation) map generate_one inlined before timing_slice."""
    decimation = max(int(round(N_UP / tau)), 1)
    if N_UP / decimation != tau or t0 * N_UP % 1.0 != 0.0:
        raise ValueError(f"tau {tau} / t0 {t0} is off the 1/{N_UP} grid")
    return (N_UP - int(round(t0 * N_UP))) % N_UP, decimation


def test_timing_zero_removes_nothing():
    assert timing_slice(8.0, 0.0) == (0, 8)


def test_timing_half_symbol_removes_32():
    assert timing_slice(8.0, 0.5) == (32, 8)


def test_rate_realization():
    tau, _ = sample_timing(0.0, 7.3)
    assert tau == 8.0  # 64 / floor(64 / 7.3)
    assert timing_slice(tau, 0.0) == (0, 8)


def test_timing_draw_of_a_whole_symbol_is_label_zero():
    # a t0 draw that rounds to 64 removed samples is the label 0, which
    # removes none
    tau, t0 = sample_timing(0.999, 11.0)
    assert (tau, t0) == (64 / 5, 0.0)
    assert timing_slice(tau, t0) == (0, 5)


def test_timing_slice_matches_generate_one_reference_on_every_label():
    for decimation in range(4, 17):
        tau = N_UP / decimation
        for k in range(N_UP):
            t0 = k / N_UP
            removed, got_decimation = timing_slice(tau, t0)
            assert (removed, got_decimation) == reference_timing_slice(tau, t0)
            # label -> slice -> label is the identity
            assert N_UP / got_decimation == tau
            assert ((N_UP - removed) % N_UP) / N_UP == t0


@pytest.mark.parametrize("labels", [
    {"tau": 7.3}, {"t0": 0.3}, {"t0": 1.0}, {"t0": -0.25}, {"t0": float("nan")},
    {"tau": 0.0}, {"tau": 0.5}, {"tau": float("nan")}, {"tau": float("inf")},
])
def test_explicit_labels_must_be_realizable(labels):
    # tau = 7.3 would be realized as 64 / round(64 / 7.3) = 7.11 under a
    # 7.3 label; t0 = 0.3 is not on the 1/64 timing grid, and t0 must lie
    # in [0, 1) and tau in [1, 64].
    spec = DatasetSpec(count=1, seed=15, n_r=512)
    with pytest.raises(ValueError):
        generate_one(spec, 0, params=identity_params(**labels),
                     modulation=ModulationType.BPSK)


# ----------------------------------------------------------------- fading


def test_fading_sigma_zero_single_unit_tap():
    taps = build_fading(0.0, make_rng(4))
    assert taps.size == 1
    assert abs(abs(taps[0]) - 1.0) < 1e-9


def test_fading_delay_positions():
    taps = build_fading(4.0, make_rng(4))
    assert taps.size == 5
    assert np.all(taps[[0, 2, 4]] != 0)
    assert np.all(taps[[1, 3]] == 0)


def test_fading_unit_energy():
    for i in range(50):
        sigma = float(make_rng(10, i).uniform(0, 16))
        taps = build_fading(sigma, make_rng(11, i))
        assert abs(np.sum(np.abs(taps) ** 2) - 1.0) < 1e-9


# -------------------------------------------------------------- CFO/noise


def test_cfo_identity_and_negation():
    x = (np.arange(32) + 1.0).astype(np.complex128)
    assert np.allclose(frequency_shift(x, 0.0, 0.0), x)
    assert np.allclose(frequency_shift(x, 0.0, np.pi), -x)


def test_cfo_pure_tone_peak():
    x = np.ones(4096, dtype=np.complex128)
    out = frequency_shift(x, 0.01, 0.0)
    spectrum = np.abs(np.fft.fft(out))
    peak_freq = np.fft.fftfreq(out.size)[np.argmax(spectrum)]
    assert abs(peak_freq - 0.01) < 1.0 / out.size


def test_cfo_preserves_magnitude():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    out = frequency_shift(x, 0.0037, 1.1)
    np.testing.assert_allclose(np.abs(out), np.abs(x), rtol=1e-14, atol=0)


def test_awgn_infinite_snr_identity():
    x = np.ones(64, dtype=np.complex128)
    for snr_db in (None, math.inf):
        out, n0 = add_awgn(x, snr_db, make_rng(1))
        assert np.array_equal(out, x)
        assert n0 == 0.0


def test_awgn_zero_db_power_ratio():
    n = 100_000
    x = np.ones(n, dtype=np.complex128)
    out, n0 = add_awgn(x, 0.0, make_rng(2))
    noise_power = np.mean(np.abs(out - x) ** 2)
    assert abs(noise_power / 1.0 - 1.0) < 0.05
    assert abs(n0 - 1.0) < 1e-12


def test_awgn_deterministic():
    x = np.ones(256, dtype=np.complex128)
    a, _ = add_awgn(x, 10.0, make_rng(3))
    b, _ = add_awgn(x, 10.0, make_rng(3))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_awgn_rejects_nan_and_minus_inf(snr_db):
    with pytest.raises(ValueError):
        add_awgn(np.ones(16, dtype=np.complex128), snr_db, make_rng(4))
    with pytest.raises(ValueError):
        DatasetSpec(count=1, snr_levels_db=(10.0, snr_db))


def test_awgn_zero_power_rejected():
    with pytest.raises(ZeroPowerSignalError):
        add_awgn(np.zeros(16, dtype=np.complex128), 10.0, make_rng(4))


# ------------------------------------------------------------ generate_one


def test_identity_chain():
    spec = DatasetSpec(count=1, seed=1, n_r=1024)
    rec = generate_one(spec, 0, params=identity_params(), modulation=ModulationType.BPSK)
    assert np.array_equal(rec.y, rec.z1)
    assert np.array_equal(rec.z1, rec.z2)


def test_record_lengths():
    spec = DatasetSpec(count=4, seed=2, n_r=1024)
    for i in range(4):
        rec = generate_one(spec, i)
        assert rec.y.size == 1024
        assert rec.z1.size == 1024
        assert rec.z2.size == 1024
        assert np.all(np.isfinite(rec.y.view(np.float64)))


def test_symbol_count_tau8():
    spec = DatasetSpec(count=1, seed=3, n_r=1024)
    rec = generate_one(spec, 0, params=identity_params(tau=8.0), modulation=ModulationType.BPSK)
    assert len(rec.symbols) == 128


def test_label_consistency():
    spec = DatasetSpec(count=1, seed=9, n_r=1024)
    for i in range(30):
        rec = generate_one(spec, i)
        assert len(rec.symbols) == 1024 // math.ceil(rec.params.tau)
        assert (64 / rec.params.tau) == int(64 / rec.params.tau)


def test_generate_deterministic():
    spec = DatasetSpec(count=1, seed=42, n_r=1024)
    a = generate_one(spec, 7)
    b = generate_one(spec, 7)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.symbols.indices, b.symbols.indices)
    assert a.modulation is b.modulation


def test_energy_preserved_flat_channel():
    spec = DatasetSpec(count=1, seed=6, n_r=1024)
    for i in range(10):
        params, mod = sample_params(make_rng(spec.seed, i), spec)
        params.sigma = 0.0
        params.channel = build_fading(0.0, make_rng(99, i))
        rec = generate_one(spec, i, params=params, modulation=mod)
        p1 = np.mean(np.abs(rec.z1) ** 2)
        p2 = np.mean(np.abs(rec.z2) ** 2)
        assert abs(p1 / p2 - 1.0) < 0.02


# ---------------------------------------------------------------- dataset IO


def test_dataset_round_trip(tmp_path):
    spec = DatasetSpec(count=3, seed=11, n_r=1024)
    records = [generate_one(spec, i) for i in range(3)]
    write_dataset(tmp_path / "ds", records, spec)
    loaded = read_dataset(tmp_path / "ds")
    assert len(loaded) == 3
    for orig, back in zip(records, loaded):
        assert np.array_equal(back.y, orig.y.astype(np.complex64).astype(np.complex128))
        assert np.array_equal(back.symbols.indices, orig.symbols.indices)
        assert back.params.tau == orig.params.tau
        assert back.params.t0 == orig.params.t0
        assert back.modulation is orig.modulation
        assert np.array_equal(
            back.params.channel,
            orig.params.channel.astype(np.complex128),
        )


def test_dataset_write_read_write_idempotent(tmp_path):
    spec = DatasetSpec(count=2, seed=12, n_r=512)
    records = [generate_one(spec, i) for i in range(2)]
    write_dataset(tmp_path / "a", records, spec)
    loaded = read_dataset(tmp_path / "a")
    write_dataset(tmp_path / "b", loaded, spec)
    for name in ("meta.json", "y.iq", "z1.iq", "z2.iq"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_truncated_dataset_rejected(tmp_path):
    spec = DatasetSpec(count=2, seed=13, n_r=256)
    records = [generate_one(spec, i) for i in range(2)]
    write_dataset(tmp_path / "ds", records, spec)
    payload = (tmp_path / "ds" / "y.iq").read_bytes()
    (tmp_path / "ds" / "y.iq").write_bytes(payload[:-16])
    with pytest.raises(TruncatedFileError):
        read_dataset(tmp_path / "ds")


def test_version_mismatch_rejected(tmp_path):
    spec = DatasetSpec(count=1, seed=14, n_r=256)
    write_dataset(tmp_path / "ds", [generate_one(spec, 0)], spec)
    meta_path = tmp_path / "ds" / "meta.json"
    meta_path.write_text(meta_path.read_text().replace('"format_version":1', '"format_version":99'))
    with pytest.raises(FormatVersionMismatchError):
        read_dataset(tmp_path / "ds")


def test_interrupted_write_leaves_no_meta(tmp_path):
    spec = DatasetSpec(count=3, seed=15, n_r=256)
    records = [generate_one(spec, i) for i in range(3)]
    write_dataset(tmp_path / "ds", records, spec)
    complete = (tmp_path / "ds" / "meta.json").read_bytes()
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
        "meta.json", "y.iq", "z1.iq", "z2.iq"]
    # a rewrite that fails after one record must not leave the old label
    # table (or a new one) claiming records the IQ files no longer hold
    with pytest.raises(RuntimeError):
        with DatasetWriter(tmp_path / "ds", spec) as writer:
            writer.append(records[0])
            raise RuntimeError("interrupted")
    assert not (tmp_path / "ds" / "meta.json").exists()
    write_dataset(tmp_path / "ds", records, spec)
    assert (tmp_path / "ds" / "meta.json").read_bytes() == complete


def test_empty_dataset(tmp_path):
    write_dataset(tmp_path / "ds", [], DatasetSpec(count=1, seed=16, n_r=256))
    assert read_dataset(tmp_path / "ds") == []


def test_append_rejects_a_record_of_another_length(tmp_path):
    # the IQ files are fixed-length records of spec.n_r samples; a record of
    # another length would shift every record after it
    spec = DatasetSpec(count=2, seed=17, n_r=256)
    longer = generate_one(DatasetSpec(count=2, seed=17, n_r=512), 1)
    with DatasetWriter(tmp_path / "ds", spec) as writer:
        writer.append(generate_one(spec, 0))
        with pytest.raises(ValueError):
            writer.append(longer)
    assert read_dataset(tmp_path / "ds")[0].y.size == 256
    assert (tmp_path / "ds" / "y.iq").stat().st_size == 256 * 8


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(count=0, seed=1)
    with pytest.raises(ValueError):
        DatasetSpec(count=1, seed=1, n_r=64)
