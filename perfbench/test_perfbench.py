"""Tests of the benchmark's own code: spans, wrappers, checks, inputs."""

import json
import math
import sys
import types
from pathlib import Path

import pytest

import checks
import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans(monkeypatch):
    # outer [0, 10] > a [1, 4] > b [2, 3]; outer > c [5, 9]
    monkeypatch.setattr(spans, "_now", FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer = spans.Tracer()
    outer = tracer.open("outer")
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(outer)
    self_times = {s.name: s.self_time for s in tracer.spans}
    assert self_times == {"outer": 3, "a": 2, "b": 1, "c": 4}
    assert tracer.parent_of(tracer.spans[b]).name == "a"
    assert layers.self_time_problems(tracer, {outer: 10.0}) == []
    assert layers.self_time_problems(tracer, {outer: 12.0})


def test_close_out_of_order_is_an_error():
    tracer = spans.Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake")

    def work(x, scale=1):
        return x * scale

    def items(n):
        yield from range(n)

    module.work = work
    module.items = items
    monkeypatch.setitem(sys.modules, "perfbench_fake", module)
    return module


def test_install_wraps_and_restore_puts_back(fake_module):
    original_work, original_items = fake_module.work, fake_module.items
    tracer = spans.Tracer()
    targets = [
        spans.Target("perfbench_fake", "work", "fake.work", lambda x, **kw: {"x": x}),
        spans.Target("perfbench_fake", "items", "fake.items"),
    ]
    with spans.traced(tracer, targets):
        assert fake_module.work is not original_work
        assert fake_module.work(3, scale=2) == 6
        assert list(fake_module.items(2)) == [0, 1]
    assert fake_module.work is original_work
    assert fake_module.items is original_items
    names = [s.name for s in tracer.spans]
    # one span per call, one per generator item plus the exhausting next()
    assert names == ["fake.work", "fake.items", "fake.items", "fake.items"]
    assert tracer.spans[0].attrs == {"x": 3}


def test_failed_install_restores_what_it_patched(fake_module):
    original = fake_module.work
    targets = [spans.Target("perfbench_fake", "work", "fake.work"),
               spans.Target("perfbench_fake", "missing", "fake.missing")]
    with pytest.raises(KeyError):
        spans.install(spans.Tracer(), targets)
    assert fake_module.work is original


def test_targets_patch_the_caller_bindings():
    import blindrx.blind
    import blindrx.dsp
    import blindrx.recovery

    before = (blindrx.blind.resample_to_sps, blindrx.recovery.interpolate_at,
              blindrx.dsp.interpolate_at)
    tracer = spans.Tracer()
    with spans.traced(tracer, layers.TARGETS):
        assert blindrx.blind.resample_to_sps is not before[0]
        assert blindrx.recovery.interpolate_at is not before[1]
        blindrx.blind.resample_to_sps(__import__("numpy").ones(64), 8.0, 64)
    assert (blindrx.blind.resample_to_sps, blindrx.recovery.interpolate_at,
            blindrx.dsp.interpolate_at) == before
    assert [s.name for s in tracer.spans] == ["dsp.resample_to_sps", "dsp.interpolate_at"]
    assert tracer.spans[0].attrs == {"tau": 8.0}
    assert tracer.spans[1].attrs == {"samples": 505}


def _eval(signal_id, method, status="ok", ser=None, errs=(0.0, 0.0, 0.0), loss=None,
          mod="bpsk"):
    return {"signal_id": signal_id, "modulation": mod, "snr_db": 20.0, "method": method,
            "abs_f0_err": errs[0], "abs_tau_err": errs[1], "circ_t0_err": errs[2],
            "recon_loss": loss, "ser": ser, "status": status}


EVAL_FIXTURE = [
    _eval(0, "blind", ser=0.1, errs=(0.001, 0.5, 0.1), loss=1.0),
    _eval(0, "genie", ser=0.0, loss=0.1),
    _eval(1, "blind", status="NoBandDetected", errs=(0.02, 12.0, 0.5)),
    _eval(1, "genie", ser=0.0, loss=0.3),
    _eval(2, "blind", status="not_decoded", errs=(0.003, 1.5, 0.3), loss=2.0, mod="qam16"),
    _eval(2, "genie", status="not_decoded", loss=0.2, mod="qam16"),
]


def test_quality_from_evaluation_lines():
    q = checks.quality(EVAL_FIXTURE)
    assert q["blind_per"] == 1.0  # record 0 has a symbol error, record 1 failed
    assert q["genie_per"] == 0.0
    assert q["blind_mae_f0"] == pytest.approx((0.001 + 0.02 + 0.003) / 3)
    assert q["blind_mae_tau"] == pytest.approx((0.5 + 12.0 + 1.5) / 3)
    assert q["blind_mae_t0"] == pytest.approx(0.3)
    assert q["blind_recon_loss"] == pytest.approx(1.5)  # failed record has no loss


def _write_jsonl(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


def test_evaluation_checks(tmp_path):
    meta = {"records": [{"modulation": "bpsk"}, {"modulation": "bpsk"},
                        {"modulation": "qam16"}]}
    vocabulary = checks.status_vocabulary()
    assert {"ok", "not_decoded", "NoBandDetected", "CmaDivergence"} <= vocabulary
    good = _write_jsonl(tmp_path / "good.jsonl", EVAL_FIXTURE)
    args = (meta, ["blind", "genie"], vocabulary, {"bpsk", "qpsk"})
    assert checks.check_evaluations(good, *args) == []

    bad_genie = [dict(line) for line in EVAL_FIXTURE]
    bad_genie[1]["abs_tau_err"] = 0.25
    assert checks.check_evaluations(_write_jsonl(tmp_path / "g.jsonl", bad_genie), *args)
    unknown = [dict(line) for line in EVAL_FIXTURE]
    unknown[2]["status"] = "Exploded"
    assert checks.check_evaluations(_write_jsonl(tmp_path / "u.jsonl", unknown), *args)
    short = _write_jsonl(tmp_path / "s.jsonl", EVAL_FIXTURE[:-1])
    assert checks.check_evaluations(short, *args)


def test_estimate_checks_reject_non_finite_ok_lines(tmp_path):
    meta = {"records": [{"f0": 0.001, "tau": 8.0, "t0": 0.25}]}
    lines = [{"signal_id": 0, "method": "blind", "status": "ok", "f0_hat": math.nan,
              "tau_hat": 8.0, "t0_hat": 0.2},
             {"signal_id": 0, "method": "genie", "status": "ok", "f0_hat": 0.001,
              "tau_hat": 8.0, "t0_hat": 0.25}]
    path = _write_jsonl(tmp_path / "est.jsonl", lines)
    problems = checks.check_estimates(path, meta, ["blind", "genie"],
                                      checks.status_vocabulary())
    assert len(problems) == 1 and "non-finite" in problems[0]


def test_packets_build_is_deterministic(tmp_path):
    draws_a = workloads.build_packets(tmp_path / "a", 2, seed=7)
    draws_b = workloads.build_packets(tmp_path / "b", 2, seed=7)
    workloads.build_packets(tmp_path / "c", 2, seed=8)
    assert draws_a == draws_b >= 2
    digest = workloads.dataset_digest(tmp_path / "a")
    assert digest == workloads.dataset_digest(tmp_path / "b")
    assert digest != workloads.dataset_digest(tmp_path / "c")
    meta = json.loads((tmp_path / "a" / "meta.json").read_text())
    assert all(r["tau"] <= workloads.TAU_PACKET_LIMIT for r in meta["records"])
    assert {r["modulation"] for r in meta["records"]} <= {"bpsk", "qpsk"}


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}


def test_tau_buckets_and_tail_level():
    assert [layers.tau_bucket(64 / d) for d in (16, 12, 11, 8, 7, 4)] == [
        "tau_4-5.33", "tau_4-5.33", "tau_5.82-8", "tau_5.82-8", "tau_9.14-16", "tau_9.14-16"]
    assert [layers.tail_level(n) for n in (5, 40, 100, 200, 1000)] == [50, 75, 90, 95, 99]
