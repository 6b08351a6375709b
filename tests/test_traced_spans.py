"""The traced benchmark's wrappers see every layer the CLI stages reach.

``perfbench/layers.py`` patches the bindings each module calls through.
A call that reaches a function under another name goes untraced, and the
traced benchmark run then reports a span that did not fire. This test runs
the four CLI stages under the same wrappers on a small dataset.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402

from blindrx.cli import main  # noqa: E402


def test_every_expected_span_fires(tmp_path):
    data, est, ev = tmp_path / "data", tmp_path / "est.jsonl", tmp_path / "eval.jsonl"
    tracer = spans.Tracer()
    with spans.traced(tracer, layers.TARGETS):
        assert main(["generate", "--out", str(data), "--count", "6", "--seed", "21",
                     "--snr", "20", "--mods", "bpsk,qpsk"]) == 0
        assert main(["estimate", "--dataset", str(data), "--out", str(est),
                     "--method", "both"]) == 0
        assert main(["decode", "--dataset", str(data), "--estimates", str(est),
                     "--out", str(ev), "--method", "both"]) == 0
        assert main(["report", "--records", str(ev), "--out", str(tmp_path / "report"),
                     "--snr", "20"]) == 0
    est_lines = [json.loads(raw) for raw in est.read_text().splitlines()]
    eval_lines = [json.loads(raw) for raw in ev.read_text().splitlines()]
    expected = layers.expected_spans(("blind", "genie"), True, False, est_lines,
                                     eval_lines, True)
    # the cli.* spans are the benchmark's own roots around each stage
    expected = {name for name in expected if not name.startswith("cli.")}
    fired = {span.name for span in tracer.spans}
    assert not expected - fired, f"spans that did not fire: {sorted(expected - fired)}"
