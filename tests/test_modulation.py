import numpy as np
import pytest

from blindrx.errors import (
    IndexOutOfRangeError,
    InvalidRolloffError,
    NonLinearModulationError,
)
from blindrx.modulation import (
    ModulationType,
    constellation,
    map_symbols,
    modulate_cpfsk,
    modulate_gmsk,
    rrc_taps,
)

LINEAR = [m for m in ModulationType if m.is_linear]

EXPECTED_SIZES = {
    ModulationType.OOK: 2,
    ModulationType.ASK4: 4,
    ModulationType.ASK8: 8,
    ModulationType.BPSK: 2,
    ModulationType.QPSK: 4,
    ModulationType.PSK8: 8,
    ModulationType.PSK16: 16,
    ModulationType.PSK32: 32,
    ModulationType.APSK16: 16,
    ModulationType.APSK32: 32,
    ModulationType.APSK64: 64,
    ModulationType.QAM16: 16,
    ModulationType.QAM32: 32,
    ModulationType.QAM64: 64,
}


def test_sixteen_variants_with_two_nonlinear():
    assert len(ModulationType) == 16
    assert sum(not m.is_linear for m in ModulationType) == 2
    assert not ModulationType.GMSK.is_linear
    assert not ModulationType.CPFSK.is_linear


@pytest.mark.parametrize("m", LINEAR)
def test_constellation_unit_power_and_size(m):
    points = constellation(m)
    assert points.size == EXPECTED_SIZES[m]
    assert abs(np.mean(np.abs(points) ** 2) - 1.0) < 1e-12
    # all points distinct
    assert np.unique(np.round(points, 9)).size == points.size


def test_bpsk_is_antipodal():
    assert np.allclose(constellation(ModulationType.BPSK), [1.0, -1.0])


def test_qpsk_is_quadrature_set():
    points = constellation(ModulationType.QPSK)
    expected = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
    seen = {complex(np.round(p * np.sqrt(2), 9)) for p in points}
    assert seen == expected


def test_qam16_mean_power_by_direct_summation():
    points = constellation(ModulationType.QAM16)
    total = 0.0
    for p in points:
        total += p.real**2 + p.imag**2
    assert abs(total / 16 - 1.0) < 1e-12


def test_nonlinear_constellation_rejected():
    with pytest.raises(NonLinearModulationError):
        constellation(ModulationType.GMSK)
    with pytest.raises(NonLinearModulationError):
        constellation(ModulationType.CPFSK)


def test_ook_levels():
    points = constellation(ModulationType.OOK)
    assert abs(points[0]) < 1e-12
    assert abs(points[1] - np.sqrt(2)) < 1e-12


def test_apsk_ring_counts():
    radii16 = np.unique(np.round(np.abs(constellation(ModulationType.APSK16)), 6))
    radii64 = np.unique(np.round(np.abs(constellation(ModulationType.APSK64)), 6))
    assert radii16.size == 2
    assert radii64.size == 4


# ------------------------------------------------------------------ RRC


def test_rrc_symmetric_odd_peak_centered():
    taps = rrc_taps(0.35, 8, 64)
    assert taps.size == 8 * 64 + 1
    assert np.array_equal(taps, taps[::-1])
    assert np.argmax(taps) == (taps.size - 1) // 2


@pytest.mark.parametrize("beta,span,sps", [(0.15, 8, 16), (0.25, 12, 4), (0.35, 6, 64)])
def test_rrc_unit_energy(beta, span, sps):
    taps = rrc_taps(beta, span, sps)
    assert abs(np.sum(taps**2) - 1.0) < 1e-9


@pytest.mark.parametrize(
    "span,bound",
    [
        # Rectangular truncation at span 12 leaves a 7.6e-3 residual at the
        # edge lag for beta=0.25; the cascade converges to Nyquist as the
        # span grows.
        (12, 1e-2),
        (16, 1e-3),
        (32, 2e-4),
    ],
)
def test_rrc_cascade_is_nyquist(span, bound):
    sps = 4
    taps = rrc_taps(0.25, span, sps)
    cascade = np.convolve(taps, taps)
    center = (cascade.size - 1) // 2
    symbol_samples = cascade[center::sps]
    assert abs(symbol_samples[0] - 1.0) < 1e-3
    assert np.max(np.abs(symbol_samples[1:])) < bound


def test_rrc_invalid_rolloff():
    for beta in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidRolloffError):
            rrc_taps(beta, 8, 8)


def test_rrc_quarter_singularity_grid():
    # beta=0.25, sps=4 puts samples exactly on t = 1/(4*beta) = 1 symbol.
    taps = rrc_taps(0.25, 12, 4)
    assert np.all(np.isfinite(taps))


# ------------------------------------------------------- linear modulation


def test_modulate_linear_bpsk():
    seq = map_symbols(ModulationType.BPSK, [0, 1, 0])
    assert np.allclose(seq.values, [1.0, -1.0, 1.0])


def test_modulate_linear_constant_qpsk():
    seq = map_symbols(ModulationType.QPSK, [0, 0, 0, 0])
    assert np.unique(seq.values).size == 1


def test_modulate_linear_bijection():
    seq = map_symbols(ModulationType.QAM16, list(range(16)))
    assert np.unique(np.round(seq.values, 9)).size == 16


def test_modulate_linear_pure_function():
    a = map_symbols(ModulationType.PSK8, [1, 5, 3])
    b = map_symbols(ModulationType.PSK8, [1, 5, 3])
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.indices, b.indices)


def test_modulate_linear_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        map_symbols(ModulationType.QPSK, [0, 4])


@pytest.mark.parametrize("modulation", [ModulationType.GMSK, ModulationType.CPFSK])
def test_map_symbols_continuous_phase_bits_are_nrz(modulation):
    seq = map_symbols(modulation, [0, 1, 1])
    assert np.array_equal(seq.values, [-1.0, 1.0, 1.0])
    with pytest.raises(IndexOutOfRangeError):
        map_symbols(modulation, [2])


# ------------------------------------------------------------- GMSK/CPFSK


@pytest.mark.parametrize("modulator", [modulate_gmsk, modulate_cpfsk])
def test_cpm_constant_envelope(modulator):
    rng = np.random.default_rng(5)
    bits = rng.integers(2, size=64)
    signal = modulator(bits, 8)
    assert np.max(np.abs(np.abs(signal) - 1.0)) < 1e-9


def test_gmsk_all_zero_bits_monotone_phase():
    signal = modulate_gmsk(np.zeros(32, dtype=int), 8)
    phase = np.unwrap(np.angle(signal))
    steps = np.diff(phase)
    assert np.all(steps < 0.0)


def test_cpfsk_all_zero_bits_constant_tone():
    signal = modulate_cpfsk(np.zeros(32, dtype=int), 8)
    freq = np.diff(np.unwrap(np.angle(signal))) / (2 * np.pi)
    assert np.allclose(freq, freq[0], atol=1e-12)
    assert abs(freq[0] + 0.5 / (2 * 8)) < 1e-12


def test_gmsk_alternating_bits_frequency_sign_alternates():
    sps = 8
    bits = np.arange(48) % 2
    signal = modulate_gmsk(bits, sps)
    freq = np.diff(np.unwrap(np.angle(signal)))
    # instantaneous frequency at bit centers, away from filter edges
    centers = np.arange(8, 40) * sps + sps // 2
    values = freq[centers]
    signs = np.sign(values)
    assert np.all(signs[:-1] != signs[1:])


def test_cpfsk_phase_continuity_on_bit_flip():
    sps = 8
    bits = np.array([0] * 10 + [1] + [0] * 10)
    signal = modulate_cpfsk(bits, sps)
    steps = np.abs(np.diff(np.unwrap(np.angle(signal))))
    assert steps.max() <= np.pi * 0.5 / sps + 1e-12


def test_cpm_rejects_empty_bits():
    with pytest.raises(ValueError):
        modulate_gmsk([], 8)
    with pytest.raises(ValueError):
        modulate_cpfsk([], 8)
