import numpy as np

from blindrx.dsp import _FARROW_TABLE, _kernel, interpolate_at, resample_to_sps
from blindrx.generator import make_rng


def reference_interpolate_at(x, positions):
    """The interpolator with its Kaiser window evaluated by ``np.i0``."""
    x = np.asarray(x)
    positions = np.atleast_1d(np.asarray(positions, dtype=np.float64))
    base = np.floor(positions).astype(np.int64)
    offsets = np.arange(-7, 9)
    idx = base[:, None] + offsets[None, :]
    valid = (idx >= 0) & (idx < x.size)
    frac = positions[:, None] - idx
    inside = np.clip(1.0 - (frac / 8) ** 2, 0.0, None)
    window = np.i0(8.0 * np.sqrt(inside)) / np.i0(8.0)
    gathered = np.where(valid, x[np.clip(idx, 0, x.size - 1)], 0.0)
    return np.sum(gathered * np.sinc(frac) * window, axis=1)


def test_interpolate_at_matches_numpy_i0_kernel():
    rng = make_rng(80)
    x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    # interior points, integer positions, and probes up to 9 samples past
    # either end, where part or all of the kernel sees zero padding
    positions = np.concatenate([
        rng.uniform(0.0, 1023.0, 4000),
        np.arange(0.0, 1024.0, 37.0),
        np.linspace(-9.0, 0.5, 97),
        np.linspace(1022.5, 1032.0, 97),
    ])
    got = interpolate_at(x, positions)
    expected = reference_interpolate_at(x, positions)
    assert np.max(np.abs(got - expected)) <= 1e-13


def test_resample_to_sps_matches_numpy_i0_kernel():
    rng = make_rng(81)
    x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    for tau in (4.0, 64.0 / 11.0, 16.0):
        stride = tau / 64.0
        positions = np.arange(int(np.floor(511 / stride)) + 1) * stride
        got = resample_to_sps(x, tau, 64)
        assert np.max(np.abs(got - reference_interpolate_at(x, positions))) <= 1e-13


def test_interpolate_at_integer_positions_are_samples():
    x = make_rng(82).standard_normal(64).astype(np.complex128)
    np.testing.assert_allclose(interpolate_at(x, np.arange(64.0)), x, atol=1e-12)


def test_farrow_table_matches_kernel():
    mu = np.linspace(0.0, 1.0, 20001)[:-1]
    fitted = np.polynomial.polynomial.polyval(2.0 * mu - 1.0, _FARROW_TABLE.T)
    exact = _kernel(mu - np.arange(-7, 9)[:, None])
    assert np.max(np.abs(fitted - exact)) <= 1e-14


def test_interpolate_at_long_record_dense_and_sparse():
    rng = make_rng(83)
    x = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
    # a Gardner-style call: every position at 64 samples/symbol, tau 4.1
    stride = 4.1 / 64.0
    dense = np.arange(int(np.floor(8191 / stride)) + 1) * stride
    # a symbol_resample-style call: one position per symbol, tau 12
    sparse = (5 + 64 * np.arange(681)) * (12.0 / 64.0)
    for positions in (dense, sparse):
        got = interpolate_at(x, positions)
        assert np.max(np.abs(got - reference_interpolate_at(x, positions))) <= 1e-13
