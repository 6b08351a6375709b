import csv
import json
from pathlib import Path

import numpy as np
import pytest

from blindrx import blind, recovery
from blindrx.cli import main
from blindrx.generator import (
    DatasetSpec,
    TxGroundTruth,
    TxParams,
    generate_one,
    make_rng,
    read_meta,
    write_dataset,
)
from blindrx.modulation import ModulationType, SymbolSequence


def run(*argv):
    return main(list(argv))


def dir_bytes(path):
    return {
        p.name: p.read_bytes() for p in sorted(Path(path).iterdir()) if p.is_file()
    }


def noise_record(n_r=1024, seed=1234):
    rng = make_rng(seed)
    noise = (rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)) / np.sqrt(2)
    params = TxParams(
        f0=0.0, phi0=0.0, t0=0.0, tau=8.0, beta=0.35, snr_db=0.0,
        sigma=0.0, channel=np.array([1.0 + 0j]),
    )
    return TxGroundTruth(
        params=params,
        modulation=ModulationType.BPSK,
        y=noise,
        z1=noise,
        z2=noise,
        symbols=SymbolSequence(indices=[0, 1, 0], values=[1.0, -1.0, 1.0]),
        n0=1.0,
    )


# ----------------------------------------------------------------- generate


def test_generate_deterministic(tmp_path):
    for name in ("a", "b"):
        assert run(
            "generate", "--out", str(tmp_path / name), "--count", "20",
            "--seed", "7", "--nr", "512",
        ) == 0
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def test_generate_worker_count_invariant(tmp_path):
    run("generate", "--out", str(tmp_path / "w1"), "--count", "12",
        "--seed", "3", "--nr", "512", "--workers", "1")
    run("generate", "--out", str(tmp_path / "w2"), "--count", "12",
        "--seed", "3", "--nr", "512", "--workers", "2")
    assert dir_bytes(tmp_path / "w1") == dir_bytes(tmp_path / "w2")


def test_generate_zero_count_is_config_error(tmp_path):
    assert run("generate", "--out", str(tmp_path / "x"), "--count", "0") == 1


def test_generate_discrete_snr_labels(tmp_path):
    run("generate", "--out", str(tmp_path / "snr"), "--count", "40",
        "--seed", "9", "--nr", "512", "--snr", "0,5,10,15,20")
    meta = read_meta(tmp_path / "snr")
    assert {r["snr_db"] for r in meta["records"]} <= {0.0, 5.0, 10.0, 15.0, 20.0}


def test_generate_modulation_subset(tmp_path):
    run("generate", "--out", str(tmp_path / "mods"), "--count", "30",
        "--seed", "4", "--nr", "512", "--mods", "bpsk,qpsk")
    meta = read_meta(tmp_path / "mods")
    assert {r["modulation"] for r in meta["records"]} <= {"bpsk", "qpsk"}


@pytest.mark.parametrize("snr", ["--snr=-inf", "--snr=nan", "--snr=10,nan"])
def test_generate_rejects_nan_and_minus_inf_snr(tmp_path, capsys, snr):
    out = tmp_path / "x"
    assert run("generate", "--out", str(out), "--count", "4", snr) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (out / "meta.json").exists()


def test_generate_plus_inf_snr_is_noise_free(tmp_path):
    out = tmp_path / "clean"
    assert run("generate", "--out", str(out), "--count", "4", "--nr", "512",
               "--snr", "inf") == 0
    assert {r["n0"] for r in read_meta(out)["records"]} == {0.0}


def test_missing_required_flag_exits_one(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("generate", "--out", str(tmp_path / "x"))
    assert err.value.code == 1


# ----------------------------------------------------------------- estimate


@pytest.fixture()
def small_dataset(tmp_path):
    path = tmp_path / "ds"
    run("generate", "--out", str(path), "--count", "12", "--seed", "21",
        "--snr", "20", "--mods", "bpsk,qpsk")
    return path


def test_estimate_genie_matches_labels(tmp_path, small_dataset):
    out = tmp_path / "est.jsonl"
    assert run("estimate", "--dataset", str(small_dataset), "--out", str(out),
               "--method", "genie") == 0
    meta = read_meta(small_dataset)
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 12
    for line, rec in zip(lines, meta["records"]):
        assert line["status"] == "ok"
        assert line["f0_hat"] == rec["f0"]
        assert line["tau_hat"] == rec["tau"]
        assert line["t0_hat"] == rec["t0"]


def test_estimate_genie_builds_no_signal(tmp_path, small_dataset, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("estimate must not build the genie signal")

    monkeypatch.setattr(recovery, "genie_equalize", refuse)
    out = tmp_path / "est.jsonl"
    assert run("estimate", "--dataset", str(small_dataset), "--out", str(out),
               "--method", "genie") == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [line["status"] for line in lines] == ["ok"] * 12


def test_estimate_blind_and_failure_recorded(tmp_path):
    path = tmp_path / "mixed"
    spec = DatasetSpec(count=3, seed=5, n_r=1024,
                       snr_levels_db=(20.0,),
                       modulations=(ModulationType.BPSK,))
    records = [generate_one(spec, 0), noise_record(), generate_one(spec, 2)]
    write_dataset(path, records, spec)
    out = tmp_path / "est.jsonl"
    assert run("estimate", "--dataset", str(path), "--out", str(out),
               "--method", "blind", "--n0", "known") == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["status"] == "ok"
    assert lines[1]["status"] == "NoBandDetected"
    assert lines[1]["stage"] == "band_segment"
    assert lines[2]["status"] == "ok"
    assert len(lines[0]["eq_taps"]) == 20


def test_estimate_non_finite_record_fails_at_input(tmp_path):
    spec = DatasetSpec(count=2, seed=5, n_r=1024, snr_levels_db=(20.0,),
                       modulations=(ModulationType.BPSK,))
    records = [generate_one(spec, 0), generate_one(spec, 1)]
    records[1].y[100] = complex(np.nan, 0.0)
    write_dataset(tmp_path / "ds", records, spec)
    out = tmp_path / "est.jsonl"
    assert run("estimate", "--dataset", str(tmp_path / "ds"), "--out", str(out)) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [l["status"] for l in lines] == ["ok", "NonFiniteInput"]
    assert lines[1]["stage"] == "input"
    assert "stage" not in lines[0]


def test_non_finite_record_fails_both_methods_at_input(tmp_path):
    spec = DatasetSpec(count=2, seed=5, n_r=1024, snr_levels_db=(20.0,),
                       modulations=(ModulationType.BPSK,))
    records = [generate_one(spec, 0), generate_one(spec, 1)]
    records[1].y[100] = complex(np.nan, 0.0)
    write_dataset(tmp_path / "ds", records, spec)
    est, out = tmp_path / "est.jsonl", tmp_path / "eval.jsonl"
    assert run("estimate", "--dataset", str(tmp_path / "ds"), "--out", str(est),
               "--method", "both") == 0
    lines = [json.loads(l) for l in est.read_text().splitlines()]
    assert [(l["method"], l["status"]) for l in lines[2:]] == [
        ("blind", "NonFiniteInput"), ("genie", "NonFiniteInput")]
    assert lines[3]["stage"] == "input"
    assert run("decode", "--dataset", str(tmp_path / "ds"), "--estimates", str(est),
               "--out", str(out), "--method", "both") == 0
    text = out.read_text()
    assert "NaN" not in text
    assert [json.loads(l)["status"] for l in text.splitlines()[2:]] == [
        "NonFiniteInput", "NonFiniteInput"]


def test_estimate_deterministic(tmp_path, small_dataset):
    outs = []
    for name in ("e1.jsonl", "e2.jsonl"):
        out = tmp_path / name
        run("estimate", "--dataset", str(small_dataset), "--out", str(out),
            "--method", "both")
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_estimate_missing_dataset_is_io_error(tmp_path):
    assert run("estimate", "--dataset", str(tmp_path / "nope"),
               "--out", str(tmp_path / "est.jsonl")) == 2


# ------------------------------------------------------------------- decode


def test_decode_genie_clean_bpsk(tmp_path):
    path = tmp_path / "bpsk"
    run("generate", "--out", str(path), "--count", "20", "--seed", "31",
        "--snr", "20", "--mods", "bpsk")
    est = tmp_path / "est.jsonl"
    run("estimate", "--dataset", str(path), "--out", str(est), "--method", "genie")
    out = tmp_path / "eval.jsonl"
    assert run("decode", "--dataset", str(path), "--estimates", str(est),
               "--out", str(out), "--method", "genie") == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 20
    zero_ser = sum(1 for l in lines if l["ser"] == 0.0)
    assert zero_ser >= 19  # >= 95%
    assert all(l["abs_f0_err"] == 0.0 for l in lines)


def test_decode_failure_counts_as_packet_error(tmp_path):
    path = tmp_path / "mixed"
    spec = DatasetSpec(count=2, seed=6, n_r=1024,
                       snr_levels_db=(20.0,),
                       modulations=(ModulationType.BPSK,))
    write_dataset(path, [generate_one(spec, 0), noise_record()], spec)
    est = tmp_path / "est.jsonl"
    run("estimate", "--dataset", str(path), "--out", str(est), "--method", "blind")
    out = tmp_path / "eval.jsonl"
    run("decode", "--dataset", str(path), "--estimates", str(est),
        "--out", str(out), "--method", "blind")
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    failed = lines[1]
    assert failed["status"] == "NoBandDetected"
    assert failed["ser"] is None
    assert failed["abs_f0_err"] == 0.02
    assert failed["abs_tau_err"] == 12.0
    assert failed["circ_t0_err"] == 0.5


def test_estimate_and_decode_worker_count_invariant(tmp_path, small_dataset):
    outputs = {}
    for workers in ("1", "2"):
        est, out = tmp_path / f"est{workers}.jsonl", tmp_path / f"eval{workers}.jsonl"
        assert run("estimate", "--dataset", str(small_dataset), "--out", str(est),
                   "--method", "both", "--workers", workers) == 0
        assert run("decode", "--dataset", str(small_dataset), "--estimates", str(est),
                   "--out", str(out), "--method", "both", "--workers", workers) == 0
        outputs[workers] = (est.read_bytes(), out.read_bytes())
    assert outputs["1"] == outputs["2"]


def test_decode_scores_persisted_blind_estimates(tmp_path, small_dataset, monkeypatch):
    est = tmp_path / "est.jsonl"
    run("estimate", "--dataset", str(small_dataset), "--out", str(est),
        "--method", "both", "--n0", "estimated")
    first, second = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    assert run("decode", "--dataset", str(small_dataset), "--estimates", str(est),
               "--out", str(first), "--method", "both") == 0

    def refuse(*args, **kwargs):
        raise RuntimeError("decode must not re-run the blind chain")

    monkeypatch.setattr(blind, "blind_chain", refuse)
    assert run("decode", "--dataset", str(small_dataset), "--estimates", str(est),
               "--out", str(second), "--method", "both", "--n0", "estimated") == 0
    assert first.read_bytes() == second.read_bytes()


def edited(change):
    def edit(raw):
        line = json.loads(raw)
        change(line)
        return json.dumps(line) + "\n"
    return edit


# Each edit breaks line 2, record 0's genie line, which is always ok.
BROKEN_LINE_2 = {
    "missing_field": edited(lambda line: line.pop("band")),
    "no_signal_id": edited(lambda line: line.pop("signal_id")),
    "not_json": lambda raw: raw[:-2] + "\n",
    "not_object": lambda raw: "[]\n",
    "status_not_str": edited(lambda line: line.update(status=5)),
    "estimate_not_number": edited(lambda line: line.update(f0_hat="x")),
    "estimate_too_large": edited(lambda line: line.update(t0_hat=10**400)),
    "stages_not_numbers": edited(lambda line: line.update(
        band={"b1": -0.1, "b2": 0.1, "stages": [["x", 1]]})),
    "taps_empty": edited(lambda line: line.update(eq_taps=[])),
}
# These break line 1, record 0's blind line, which is ok on this dataset.
BROKEN_LINE_1 = {
    "blind_band_null": edited(lambda line: line.update(band=None)),
    "blind_taps_null": edited(lambda line: line.update(eq_taps=None)),
}
BROKEN = {**{name: (2, edit) for name, edit in BROKEN_LINE_2.items()},
          **{name: (1, edit) for name, edit in BROKEN_LINE_1.items()}}


@pytest.mark.parametrize(
    "mismatch", ["dataset", "missing_line", "n0_policy", "duplicate", *BROKEN])
def test_decode_rejects_estimates_that_do_not_fit(tmp_path, small_dataset, capsys, mismatch):
    est = tmp_path / "est.jsonl"
    run("estimate", "--dataset", str(small_dataset), "--out", str(est),
        "--method", "both", "--n0", "known")
    lines = est.read_text().splitlines(keepends=True)
    dataset, extra = small_dataset, []
    if mismatch == "dataset":
        dataset = tmp_path / "other"
        run("generate", "--out", str(dataset), "--count", "12", "--seed", "22",
            "--snr", "20", "--mods", "bpsk,qpsk")
    elif mismatch == "missing_line":
        est.write_text("".join(lines[:-1]))
    elif mismatch == "n0_policy":
        extra = ["--n0", "estimated"]
    elif mismatch == "duplicate":
        est.write_text("".join(lines * 2))
    else:
        number, edit = BROKEN[mismatch]
        assert json.loads(lines[number - 1])["status"] == "ok"
        lines[number - 1] = edit(lines[number - 1])
        est.write_text("".join(lines))
    capsys.readouterr()
    out = tmp_path / "eval.jsonl"
    assert run("decode", "--dataset", str(dataset), "--estimates", str(est),
               "--out", str(out), "--method", "both", *extra) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    if mismatch in BROKEN:
        assert f"{est} line {BROKEN[mismatch][0]}:" in err
    if mismatch == "duplicate":
        assert f"{est} line {len(lines) + 1}: ValueError(\"a second line" in err


def test_decode_deterministic(tmp_path, small_dataset):
    est = tmp_path / "est.jsonl"
    run("estimate", "--dataset", str(small_dataset), "--out", str(est),
        "--method", "both")
    outs = []
    for name in ("d1.jsonl", "d2.jsonl"):
        out = tmp_path / name
        run("decode", "--dataset", str(small_dataset), "--estimates", str(est),
            "--out", str(out), "--method", "both")
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ------------------------------------------------------------------- report


def test_report_single_record(tmp_path):
    eval_path = tmp_path / "eval.jsonl"
    record = {
        "signal_id": 0, "modulation": "bpsk", "snr_db": 10.0,
        "method": "genie", "abs_f0_err": 0.0, "abs_tau_err": 0.0,
        "circ_t0_err": 0.0, "recon_loss": 0.1, "ser": 0.0, "status": "ok",
    }
    eval_path.write_text(json.dumps(record) + "\n")
    out = tmp_path / "report"
    assert run("report", "--records", str(eval_path), "--out", str(out)) == 0
    mae = (out / "mae_vs_snr.csv").read_text().splitlines()
    assert mae[0] == "method,snr_db,count,mae_f0,mae_tau,mae_t0,mean_recon_loss"
    data_rows = [r for r in mae[1:] if r.split(",")[2] != "0"]
    assert len(data_rows) == 1
    per_rows = (out / "per_vs_snr.csv").read_text().splitlines()
    assert any("bpsk" in row for row in per_rows)


def test_report_mixed_methods_and_idempotent(tmp_path, small_dataset):
    est = tmp_path / "est.jsonl"
    run("estimate", "--dataset", str(small_dataset), "--out", str(est),
        "--method", "both")
    eval_path = tmp_path / "eval.jsonl"
    run("decode", "--dataset", str(small_dataset), "--estimates", str(est),
        "--out", str(eval_path), "--method", "both")
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    run("report", "--records", str(eval_path), "--out", str(out_a), "--snr", "20")
    run("report", "--records", str(eval_path), "--out", str(out_b), "--snr", "20")
    assert dir_bytes(out_a) == dir_bytes(out_b)
    payload = json.loads((out_a / "report.json").read_text())
    methods = {row["method"] for row in payload["mae"]}
    assert methods == {"blind", "genie"}


def test_report_states_each_row_once(tmp_path, small_dataset):
    # qpsk is not decoded here: its records are in the MAE rows but no packets
    est, eval_path = tmp_path / "est.jsonl", tmp_path / "eval.jsonl"
    run("estimate", "--dataset", str(small_dataset), "--out", str(est), "--method", "both")
    assert run("decode", "--dataset", str(small_dataset), "--estimates", str(est),
               "--out", str(eval_path), "--method", "both", "--mods", "bpsk") == 0
    out = tmp_path / "report"
    assert run("report", "--records", str(eval_path), "--out", str(out), "--snr", "20") == 0
    bundle = json.loads((out / "report.json").read_text())
    assert set(bundle) == {"snr_buckets_db", "mae"}
    rows = {(r["method"], r["snr_db"], r["modulation"]): r for r in bundle["mae"]}
    assert len(rows) == len(bundle["mae"]) == 2 * 3
    with open(out / "per_vs_snr.csv", newline="") as fh:
        table = {(r["method"], float(r["snr_db"]), r["modulation"]): r
                 for r in csv.DictReader(fh)}
    assert {key[2] for key in table} == {"bpsk"}
    for key, row in rows.items():
        if key[2] == "*":
            assert (row["count"], row["packets"]) == (12, rows[key[:2] + ("bpsk",)]["packets"])
        elif key in table:
            assert (float(table[key]["per"]), int(table[key]["count"])) == (
                row["per"], row["packets"])
        else:
            assert (row["per"], row["packets"]) == (None, 0)


@pytest.mark.parametrize("snr", ["nan", "inf", "10,-inf"])
def test_report_rejects_non_finite_buckets(tmp_path, capsys, snr):
    eval_path = tmp_path / "empty.jsonl"
    eval_path.write_text("")
    out = tmp_path / "report"
    assert run("report", "--records", str(eval_path), "--out", str(out), "--snr", snr) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


@pytest.mark.parametrize("line", [
    '{"signal_id":0,"bogus":1}',
    '{"signal_id":0,"modulation":"bpsk","snr_db":"x","method":"blind",'
    '"abs_f0_err":0.0,"abs_tau_err":0.0,"circ_t0_err":0.0}',
], ids=["unknown-key", "wrong-type"])
def test_report_malformed_line_is_config_error(tmp_path, capsys, line):
    eval_path = tmp_path / "eval.jsonl"
    eval_path.write_text(line + "\n")
    assert run("report", "--records", str(eval_path),
               "--out", str(tmp_path / "report")) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"{eval_path} line 1" in err


def test_report_empty_records(tmp_path):
    eval_path = tmp_path / "empty.jsonl"
    eval_path.write_text("")
    out = tmp_path / "report"
    assert run("report", "--records", str(eval_path), "--out", str(out)) == 0
    assert (out / "mae_vs_snr.csv").read_text().splitlines()[0].startswith("method")
