"""The traced layers: where each wrapper goes and the per-layer metrics.

Layers are the blindrx modules. Each ``Target`` patches the binding the
*caller* uses (see ``spans``), so a function bound into several modules
appears once per binding, always under the name of the module that defines
it. ``per_layer_metrics`` turns the recorded spans into the metrics that
``BENCHMARK.json`` lists under ``per_layer``; ``PER_LAYER`` is that list.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import Target, Tracer

LINE_SEARCH_GRID = 100  # blind.CFO_GRID_POINTS == blind.RATE_GRID_POINTS
COMPLEX128_BYTES = 16
CMA_TAPS = 20  # blind.CMA_TAPS

# Realized tau is 64 / D for an integer decimation D, so these buckets
# hold D = 12..16, D = 8..11 and D = 4..7.
TAU_BUCKETS = (("tau_4-5.33", 16.0 / 3.0), ("tau_5.82-8", 8.0), ("tau_9.14-16", math.inf))
BLIND_STATUSES = (
    "ok", "NoBandDetected", "SignalTooShort", "ZeroPowerSignal", "InvalidBandwidth",
    "CmaDivergence",
)
STAGES = ("generate", "estimate", "decode", "report")


def _n(x, *_, **__):
    return {"n": len(x)}


def _tau(x, tau, *_, **__):
    return {"tau": float(tau)}


def _samples(x, positions, *_, **__):
    return {"samples": len(positions)}


TARGETS = (
    # cli binds these with ``from .generator import ...``
    Target("blindrx.cli", "generate_one", "generator.generate_one"),
    Target("blindrx.cli", "read_meta", "generator.read_meta"),
    Target("blindrx.cli", "iter_record_signals", "generator.iter_record_signals"),
    Target("blindrx.cli", "record_from_meta", "generator.record_from_meta"),
    # the packets build calls generator.generate_one / write_dataset
    Target("blindrx.generator", "generate_one", "generator.generate_one"),
    Target("blindrx.generator", "read_meta", "generator.read_meta"),
    Target("blindrx.generator:DatasetWriter", "append", "generator.DatasetWriter.append"),
    Target("blindrx.generator", "rrc_taps", "modulation.rrc_taps"),
    Target("blindrx.generator", "frequency_shift", "dsp.frequency_shift"),
    # blind chain; cli calls blind.blind_chain through the module
    Target("blindrx.blind", "blind_chain", "blind.blind_chain"),
    Target("blindrx.blind", "band_segment", "blind.band_segment"),
    Target("blindrx.blind", "welch_psd", "blind.welch_psd"),
    Target("blindrx.blind", "fine_cfo", "blind.fine_cfo", _n),
    Target("blindrx.blind", "fine_symbol_rate", "blind.fine_symbol_rate", _n),
    Target("blindrx.blind", "gardner_timing", "blind.gardner_timing"),
    Target("blindrx.blind", "cma_equalize", "blind.cma_equalize", _n),
    Target("blindrx.blind", "frequency_shift", "dsp.frequency_shift"),
    Target("blindrx.blind", "lowpass", "dsp.lowpass"),
    Target("blindrx.blind", "resample_to_sps", "dsp.resample_to_sps", _tau),
    Target("blindrx.dsp", "interpolate_at", "dsp.interpolate_at", _samples),
    # recovery
    Target("blindrx.recovery", "genie_chain", "recovery.genie_chain"),
    Target("blindrx.recovery", "genie_equalize", "recovery.genie_equalize"),
    Target("blindrx.recovery", "symbol_resample", "recovery.symbol_resample", _tau),
    Target("blindrx.recovery", "decode_symbols", "recovery.decode_symbols", _n),
    Target("blindrx.recovery", "interpolate_at", "dsp.interpolate_at", _samples),
    Target("blindrx.recovery", "lowpass", "dsp.lowpass"),
    Target("blindrx.recovery", "frequency_shift", "dsp.frequency_shift"),
    # metrics
    Target("blindrx.metrics", "aggregate", "metrics.aggregate"),
    Target("blindrx.metrics", "phase_invariant_loss", "metrics.phase_invariant_loss"),
)

_MS_PER_CALL = (
    "dsp.lowpass", "dsp.frequency_shift",
    "blind.band_segment", "blind.welch_psd", "blind.fine_cfo", "blind.fine_symbol_rate",
    "blind.gardner_timing", "blind.cma_equalize",
    "recovery.genie_chain", "recovery.genie_equalize", "recovery.symbol_resample",
    "recovery.decode_symbols",
    "generator.generate_one", "generator.DatasetWriter.append", "generator.read_meta",
    "generator.iter_record_signals", "generator.record_from_meta",
    "modulation.rrc_taps", "metrics.aggregate", "metrics.phase_invariant_loss",
)
_INTERP_SPLITS = ("gardner", "symbol_resample") + tuple(b for b, _ in TAU_BUCKETS)

PER_LAYER = (
    [("dsp.interpolate_at.ms", "ms")]
    + [(f"dsp.interpolate_at.{s}.ms", "ms") for s in _INTERP_SPLITS]
    + [("dsp.interpolate_at.ms_per_record", "ms/record"),
       ("dsp.interpolate_at.samples", "samples/record"),
       ("dsp.lowpass.calls", "calls/record"),
       ("blind.line_search.basis_bytes", "bytes"),
       ("blind.cma_equalize.steps", "steps"),
       ("blind.blind_chain.ms_p50", "ms"),
       ("blind.blind_chain.ms_tail", "ms"),
       ("blind.blind_chain.calls_per_record", "calls/record")]
    + [(f"blind.status.{s}.count", "count") for s in BLIND_STATUSES + ("other",)]
    + [("blind.ok_share", "ratio"),
       ("recovery.decode_symbols.symbols", "symbols"),
       ("modulation.rrc_taps.calls", "calls/record")]
    + [(f"{name}.ms", "ms") for name in _MS_PER_CALL]
    + [(f"cli.{stage}.self_ms", "ms/record") for stage in STAGES]
    + [("trace.overhead_share", "ratio")]
)


def tau_bucket(tau: float) -> str:
    return next(name for name, upper in TAU_BUCKETS if tau <= upper + 1e-9)


def tail_level(n: int) -> int:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    return next((q for q in (99, 95, 90, 75) if n * (100 - q) / 100 >= 10), 50)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_time_problems(tracer: Tracer, roots) -> list[str]:
    """Check that self times add up to each root span's wall time.

    ``roots`` maps span index to the wall time the benchmark measured
    around it with its own clock. Every span must have a non-negative
    self time, and the self times of a root's subtree must sum to that
    wall time (the root span's own bookkeeping aside).
    """
    totals: dict[int, float] = defaultdict(float)
    problems = []
    for index, span in enumerate(tracer.spans):
        if span.self_time < -1e-9:
            problems.append(f"span {span.name} has negative self time")
        root = index
        while tracer.spans[root].parent is not None:
            root = tracer.spans[root].parent
        totals[root] += span.self_time
    for index, wall in roots.items():
        gap = abs(totals[index] - wall)
        if gap > max(1e-3, 0.01 * wall):
            problems.append(
                f"{tracer.spans[index].name}: self times sum to {totals[index]:.6f} s, "
                f"wall {wall:.6f} s"
            )
    return problems


def per_layer_metrics(tracer: Tracer, records: int, generated: int, est_lines,
                      overhead_share: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes.

    ``records`` counts the records the traced stages processed and
    ``generated`` the records the generator synthesized (packets draws
    included); ``est_lines`` are the estimate lines of the traced passes.
    """
    self_ms: dict[str, list[float]] = defaultdict(list)
    dur_ms: dict[str, list[float]] = defaultdict(list)
    interp: dict[str, list[float]] = defaultdict(list)
    samples = 0
    basis = []
    steps = []
    symbols = []
    for span in tracer.spans:
        self_ms[span.name].append(span.self_time * 1e3)
        dur_ms[span.name].append(span.duration * 1e3)
        if span.name == "dsp.interpolate_at":
            parent = tracer.parent_of(span)
            caller = "gardner" if parent.name == "dsp.resample_to_sps" else "symbol_resample"
            interp[caller].append(span.self_time * 1e3)
            interp[tau_bucket(parent.attrs["tau"])].append(span.self_time * 1e3)
            samples += span.attrs["samples"]
        elif span.name in ("blind.fine_cfo", "blind.fine_symbol_rate"):
            basis.append(LINE_SEARCH_GRID * span.attrs["n"] * COMPLEX128_BYTES)
        elif span.name == "blind.cma_equalize":
            steps.append(span.attrs["n"] - CMA_TAPS + 1)
        elif span.name == "recovery.decode_symbols":
            symbols.append(span.attrs["n"])

    def mean(values):
        return math.fsum(values) / len(values) if values else 0.0

    out = {
        "dsp.interpolate_at.ms": mean(self_ms["dsp.interpolate_at"]),
        "dsp.interpolate_at.ms_per_record": math.fsum(self_ms["dsp.interpolate_at"]) / records,
        "dsp.interpolate_at.samples": samples / records,
        "dsp.lowpass.calls": len(self_ms["dsp.lowpass"]) / records,
        "blind.line_search.basis_bytes": mean(basis),
        "blind.cma_equalize.steps": mean(steps),
        "blind.blind_chain.calls_per_record": len(dur_ms["blind.blind_chain"]) / records,
        "recovery.decode_symbols.symbols": mean(symbols),
        "modulation.rrc_taps.calls": len(self_ms["modulation.rrc_taps"]) / max(generated, 1),
        "trace.overhead_share": overhead_share,
    }
    for split in _INTERP_SPLITS:
        out[f"dsp.interpolate_at.{split}.ms"] = mean(interp[split])
    chain = sorted(dur_ms["blind.blind_chain"])
    out["blind.blind_chain.ms_p50"] = percentile(chain, 50) if chain else 0.0
    out["blind.blind_chain.ms_tail"] = percentile(chain, tail_level(len(chain))) if chain else 0.0
    blind_status = [line["status"] for line in est_lines if line["method"] == "blind"]
    for status in BLIND_STATUSES:
        out[f"blind.status.{status}.count"] = blind_status.count(status)
    out["blind.status.other.count"] = sum(s not in BLIND_STATUSES for s in blind_status)
    out["blind.ok_share"] = blind_status.count("ok") / len(blind_status) if blind_status else 0.0
    for name in _MS_PER_CALL:
        out[f"{name}.ms"] = mean(self_ms[name])
    for stage in STAGES:
        out[f"cli.{stage}.self_ms"] = math.fsum(self_ms[f"cli.{stage}"]) / records
    return {name: out[name] for name, _ in PER_LAYER}


def expected_spans(methods, generated_cli: bool, built_packets: bool, est_lines,
                   eval_lines, has_linear: bool) -> set[str]:
    """Span names that must fire on the traced passes, given what they held."""
    expected = {
        "cli.estimate", "cli.decode", "cli.report",
        "generator.read_meta", "generator.iter_record_signals", "generator.record_from_meta",
        "metrics.aggregate",
    }
    if generated_cli:
        expected |= {"cli.generate"}
    if generated_cli or built_packets:
        expected |= {"generator.generate_one", "generator.DatasetWriter.append",
                     "dsp.frequency_shift"}
        if has_linear:
            expected.add("modulation.rrc_taps")
    if "blind" in methods:
        expected |= {"blind.blind_chain", "blind.band_segment", "blind.welch_psd",
                     "dsp.lowpass", "dsp.frequency_shift"}
        if any(e["method"] == "blind" and e["status"] == "ok" for e in est_lines):
            expected |= {"blind.fine_cfo", "blind.fine_symbol_rate", "blind.gardner_timing",
                         "dsp.resample_to_sps", "dsp.interpolate_at", "blind.cma_equalize",
                         "metrics.phase_invariant_loss"}
    if "genie" in methods:
        expected |= {"recovery.genie_chain", "recovery.genie_equalize",
                     "metrics.phase_invariant_loss"}
    if any(e.get("ser") is not None for e in eval_lines):
        expected |= {"recovery.symbol_resample", "recovery.decode_symbols",
                     "dsp.interpolate_at"}
    return expected
