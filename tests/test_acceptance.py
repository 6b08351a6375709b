"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Seeds are fixed; every expected value is either exact arithmetic or
a Monte-Carlo bound frozen from an independent oracle run.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from blindrx.blind import (
    blind_chain,
    equalized_output,
    fine_cfo,
    fine_symbol_rate,
    gardner_timing,
)
from blindrx.cli import main as cli_main
from blindrx.errors import BlindRxError
from blindrx.generator import (
    DatasetSpec,
    TxParams,
    generate_one,
    make_rng,
    read_dataset,
    write_dataset,
)
from blindrx.metrics import (
    FAILED_F0_ERROR,
    FAILED_T0_ERROR,
    FAILED_TAU_ERROR,
    circular_t0_error,
    phase_invariant_loss,
)
from blindrx.modulation import ModulationType, constellation
from blindrx.recovery import decode_packet, decode_symbols, genie_chain, genie_output

BPSK_QPSK = (ModulationType.BPSK, ModulationType.QPSK)


def announce(number, passed, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def random_signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_criterion_1_phase_invariance():
    start = time.time()
    rng = make_rng(1001)
    worst = 0.0
    for _ in range(1000):
        z = random_signal(rng, 256)
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        worst = max(worst, abs(phase_invariant_loss(z * np.exp(1j * phi), z)))
    elapsed = time.time() - start
    announce(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"max |loss(z, z*e^jphi)| = {worst:.2e} over 1000 signals "
        f"(< 1e-10), {elapsed:.1f}s (< 5s)",
    )


def test_criterion_2_loss_minimality():
    start = time.time()
    rng = make_rng(1002)
    grid = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 65))
        z_hat = random_signal(rng, n)
        z = random_signal(rng, n)
        direct = phase_invariant_loss(z_hat, z)
        brute = min(float(np.mean(np.abs(z_hat * r - z) ** 2)) for r in grid)
        worst = max(worst, abs(direct - brute))
    elapsed = time.time() - start
    announce(
        2,
        worst < 1e-6 and elapsed < 30.0,
        f"max |loss - grid min MSE| = {worst:.2e} over 100 pairs "
        f"(< 1e-6), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_genie_identity():
    start = time.time()
    spec = DatasetSpec(count=100, seed=1003, n_r=1024)
    rng = make_rng(1003)
    worst_rms = 0.0
    packets_in_error = 0
    for i in range(100):
        removed = int(round(float(rng.uniform()) * 64))
        t0 = ((64 - removed) % 64) / 64
        params = TxParams(
            f0=float(rng.uniform(-0.01, 0.01)),
            phi0=float(rng.uniform(0.0, 2.0 * np.pi)),
            t0=t0,
            tau=64.0 / int(rng.integers(4, 17)),
            beta=float(rng.choice([0.15, 0.25, 0.35])),
            snr_db=np.inf,
            sigma=0.0,
            channel=np.array([np.exp(1j * float(rng.uniform(0, 2 * np.pi)))]),
        )
        modulation = BPSK_QPSK[i % 2]
        record = generate_one(spec, i, params=params, modulation=modulation)
        estimates, recovered = genie_chain(record), genie_output(record)
        worst_rms = max(
            worst_rms, float(np.sqrt(np.mean(np.abs(recovered - record.z2) ** 2)))
        )
        packets_in_error += decode_packet(record, recovered, estimates) > 0.0
    elapsed = time.time() - start
    announce(
        3,
        worst_rms < 1e-3 and packets_in_error == 0 and elapsed < 30.0,
        f"noise-free genie: worst RMS to clean signal = {worst_rms:.2e} "
        f"(< 1e-3), packets with symbol errors = {packets_in_error}/100 (= 0), "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_4_genie_fading_per():
    start = time.time()
    spec = DatasetSpec(
        count=1000, seed=1004, n_r=1024, snr_levels_db=(20.0,), modulations=BPSK_QPSK
    )
    errors = {m: 0 for m in BPSK_QPSK}
    totals = {m: 0 for m in BPSK_QPSK}
    for i in range(1000):
        record = generate_one(spec, i)
        estimates, recovered = genie_chain(record), genie_output(record)
        totals[record.modulation] += 1
        errors[record.modulation] += decode_packet(record, recovered, estimates) > 0.0
    per_bpsk = errors[ModulationType.BPSK] / totals[ModulationType.BPSK]
    per_qpsk = errors[ModulationType.QPSK] / totals[ModulationType.QPSK]
    elapsed = time.time() - start
    announce(
        4,
        per_bpsk <= 0.10 and per_qpsk <= 0.20 and elapsed < 300.0,
        f"genie PER at 20 dB over Table-grid fading draws: BPSK "
        f"{per_bpsk:.3f} (<= 0.10), QPSK {per_qpsk:.3f} (<= 0.20), "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_5_blind_vs_genie_ordering():
    start = time.time()
    snrs = (5.0, 10.0, 15.0, 20.0)
    n = 500
    detail = []
    ok = True
    for snr in snrs:
        spec = DatasetSpec(
            count=n, seed=1005, n_r=1024, snr_levels_db=(snr,), modulations=BPSK_QPSK
        )
        genie_pkt_err = blind_pkt_err = 0
        genie_f0 = []
        blind_f0 = []
        for i in range(n):
            record = generate_one(spec, i)
            g_est, g_rec = genie_chain(record), genie_output(record)
            genie_f0.append(abs(g_est.f0_hat - record.params.f0))
            genie_pkt_err += decode_packet(record, g_rec, g_est) > 0.0
            try:
                b_est = blind_chain(record.y, n0=record.n0)
                b_rec = equalized_output(record.y, b_est)
                blind_f0.append(abs(b_est.f0_hat - record.params.f0))
                blind_pkt_err += decode_packet(record, b_rec, b_est) > 0.0
            except BlindRxError:
                blind_f0.append(FAILED_F0_ERROR)
                blind_pkt_err += 1
        g_per, b_per = genie_pkt_err / n, blind_pkt_err / n
        g_mae, b_mae = float(np.mean(genie_f0)), float(np.mean(blind_f0))
        ok = ok and g_per <= b_per and g_mae <= b_mae
        detail.append(
            f"{snr:.0f}dB PER {g_per:.3f}<={b_per:.3f} "
            f"MAEf0 {g_mae:.1e}<={b_mae:.1e}"
        )
    elapsed = time.time() - start
    announce(
        5,
        ok and elapsed < 900.0,
        "genie <= blind at every SNR: " + "; ".join(detail) + f"; {elapsed:.0f}s (< 900s)",
    )


def test_criterion_6_estimator_bounds():
    # Per-stage oracle bounds: each stage receives the input its operation
    # example specifies (true coarse CFO, window centered on the true rate,
    # true samples-per-symbol for the timing detector).
    start = time.time()
    spec = DatasetSpec(count=1000, seed=1006, n_r=1024)
    rng = make_rng(1006)
    f0_errors, tau_errors, t0_errors = [], [], []
    for i in range(1000):
        removed = int(round(float(rng.uniform()) * 64))
        t0 = ((64 - removed) % 64) / 64
        params = TxParams(
            f0=float(rng.uniform(-0.01, 0.01)),
            phi0=float(rng.uniform(0.0, 2.0 * np.pi)),
            t0=t0,
            tau=64.0 / int(rng.integers(4, 17)),
            beta=float(rng.choice([0.15, 0.25, 0.35])),
            snr_db=20.0,
            sigma=0.0,
            channel=np.array([np.exp(1j * float(rng.uniform(0, 2 * np.pi)))]),
        )
        record = generate_one(spec, i, params=params, modulation=BPSK_QPSK[i % 2])
        f0_errors.append(abs(fine_cfo(record.y, params.f0) - params.f0))
        rate = fine_symbol_rate(record.y, 1.0 / params.tau)
        tau_errors.append(abs(rate.tau - params.tau))
        timing = gardner_timing(record.y, params.tau)
        t0_errors.append(circular_t0_error(timing.t0, params.t0))
    mean_f0 = float(np.mean(f0_errors))
    mean_tau = float(np.mean(tau_errors))
    t0_hits = float(np.mean(np.asarray(t0_errors) <= 1.0 / 16.0))
    elapsed = time.time() - start
    announce(
        6,
        mean_f0 <= 1e-4 and mean_tau <= 0.5 and t0_hits >= 0.85 and elapsed < 300.0,
        f"stage oracles at 20 dB, sigma=0, 1000 BPSK/QPSK signals: "
        f"mean|f0 err| = {mean_f0:.2e} (<= 1e-4), mean|tau err| = {mean_tau:.3f} "
        f"(<= 0.5), t0 within 1/16: {t0_hits:.1%} (>= 85%), {elapsed:.0f}s (< 300s)",
    )


def test_criterion_7_blind_error_trend_vs_snr():
    start = time.time()
    snrs = (0.0, 5.0, 10.0, 15.0, 20.0)
    n = 1000
    maes = {"f0": [], "tau": [], "t0": []}
    ses = {"f0": [], "tau": [], "t0": []}
    for snr in snrs:
        spec = DatasetSpec(count=n, seed=1007, n_r=1024, snr_levels_db=(snr,))
        errors = {"f0": [], "tau": [], "t0": []}
        for i in range(n):
            record = generate_one(spec, i)
            try:
                est = blind_chain(record.y, n0=record.n0)
                errors["f0"].append(abs(est.f0_hat - record.params.f0))
                errors["tau"].append(abs(est.tau_hat - record.params.tau))
                errors["t0"].append(circular_t0_error(est.t0_hat, record.params.t0))
            except BlindRxError:
                errors["f0"].append(FAILED_F0_ERROR)
                errors["tau"].append(FAILED_TAU_ERROR)
                errors["t0"].append(FAILED_T0_ERROR)
        for key, values in errors.items():
            values = np.asarray(values)
            maes[key].append(float(values.mean()))
            ses[key].append(float(values.std(ddof=1) / np.sqrt(n)))
    verdicts = {}
    for key in maes:
        violations = []
        for i in range(len(snrs) - 1):
            slack = math.hypot(ses[key][i], ses[key][i + 1])
            if maes[key][i + 1] > maes[key][i] + slack:
                violations.append(f"{snrs[i]:.0f}->{snrs[i+1]:.0f}dB")
        verdicts[key] = violations
    elapsed = time.time() - start
    curves = "; ".join(
        f"{key}: " + ",".join(f"{v:.4g}" for v in maes[key]) for key in maes
    )
    failures = {k: v for k, v in verdicts.items() if v}
    announce(
        7,
        not failures and elapsed < 900.0,
        f"blind MAE vs SNR non-increasing within 1 SE; curves [{curves}]; "
        f"violations: {failures or 'none'}; {elapsed:.0f}s (< 900s)",
    )


def test_criterion_8_determinism_format_throughput(tmp_path):
    # (a) byte-identical end-to-end rerun
    def pipeline(root: Path):
        root.mkdir()
        cli_main(["generate", "--out", str(root / "ds"), "--count", "60",
                  "--seed", "1008", "--snr", "0,10,20", "--mods", "bpsk,qpsk"])
        cli_main(["estimate", "--dataset", str(root / "ds"),
                  "--out", str(root / "est.jsonl"), "--method", "both"])
        cli_main(["decode", "--dataset", str(root / "ds"),
                  "--estimates", str(root / "est.jsonl"),
                  "--out", str(root / "eval.jsonl"), "--method", "both"])
        cli_main(["report", "--records", str(root / "eval.jsonl"),
                  "--out", str(root / "report"), "--snr", "0,10,20"])
        payload = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                payload[str(path.relative_to(root))] = path.read_bytes()
        return payload

    identical = pipeline(tmp_path / "run1") == pipeline(tmp_path / "run2")

    # (b) bit-exact dataset round trip
    spec = DatasetSpec(count=5, seed=1008, n_r=1024)
    records = [generate_one(spec, i) for i in range(5)]
    write_dataset(tmp_path / "rt1", records, spec)
    loaded = read_dataset(tmp_path / "rt1")
    write_dataset(tmp_path / "rt2", loaded, spec)
    round_trip = all(
        (tmp_path / "rt1" / name).read_bytes() == (tmp_path / "rt2" / name).read_bytes()
        for name in ("meta.json", "y.iq", "z1.iq", "z2.iq")
    )

    # (c) 10 000-signal generation under two minutes
    start = time.time()
    cli_main(["generate", "--out", str(tmp_path / "big"), "--count", "10000",
              "--seed", "1008"])
    gen_elapsed = time.time() - start

    announce(
        8,
        identical and round_trip and gen_elapsed < 120.0,
        f"pipeline rerun byte-identical: {identical}; dataset round trip "
        f"bit-exact: {round_trip}; 10k-signal generation {gen_elapsed:.0f}s (< 120s)",
    )


def test_criterion_9_decoder_loop_oracle():
    rng = make_rng(1009)
    total_errors = 0
    cases = 0
    for modulation in BPSK_QPSK:
        points = constellation(modulation)
        for phi in (0.0, np.pi / 7.0, np.pi / 3.0, 0.9 * np.pi):
            for cfo in (0.0, 5e-5, 1e-4):
                indices = rng.integers(points.size, size=128)
                drift = 2.0 * np.pi * cfo * 8.0 * np.arange(128)
                soft = points[indices] * np.exp(1j * (phi + drift))
                decoded = decode_symbols(soft, modulation, points[indices[0]])
                total_errors += int(np.count_nonzero(decoded.hard[1:] != indices[1:]))
                cases += 1
    announce(
        9,
        total_errors == 0,
        f"decision loop absorbed constant offsets and residual CFO up to "
        f"1e-4 cyc/sample: {total_errors} symbol errors over {cases} "
        f"BPSK/QPSK packets (= 0)",
    )
