"""One benchmark session: set up, run the timed or traced loop, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. It prints ``READY``
as soon as set-up is done (imports, plus the dataset build on
``packets``), so the parent can time set-up from process launch; its last
stdout line is a JSON object with the raw results.

The loop is one closed-loop client: it runs ``generate`` (CLI workloads),
``estimate``, ``decode`` and ``report`` through ``blindrx.cli.main``, one
pass after the other, each pass into a fresh directory, until the time
budget is spent. Every stage's output is checked before the next pass.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import blindrx
from blindrx import cli

import checks
import layers
import spans
import workloads

_now = time.perf_counter


class Session:
    def __init__(self, w: workloads.Workload, seed: int, work: Path):
        self.w = w
        self.seed = seed
        self.work = work
        self.vocabulary = checks.status_vocabulary()
        self.decode_mods = {m.value for m in cli.DEFAULT_DECODE_MODS}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.packets_dataset: Path | None = None
        self.packets_digest: str | None = None

    # ------------------------------------------------------------- stages

    def stage(self, argv, verify, tracer=None, roots=None) -> float:
        """Run one CLI stage and check its output; return its wall time.

        A stage that exits non-zero or whose output fails ``verify()`` is
        one failed operation, and its wall time is ``nan``.
        """
        sink = io.StringIO()
        index = tracer.open(f"cli.{argv[0]}") if tracer else None
        t0 = _now()
        try:
            with redirect_stdout(sink):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        finally:
            if tracer:
                tracer.close(index)
        wall = _now() - t0
        if tracer:
            roots[index] = wall
        problems = verify() if rc == 0 else [f"{argv[0]} exited {rc}"]
        return wall if self.record(problems) else math.nan

    def record(self, problems) -> bool:
        """Count one attempted operation; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def build_packets(self, out: Path, count: int, seed: int, tracer=None, roots=None):
        index = tracer.open("build.packets") if tracer else None
        t0 = _now()
        try:
            draws = workloads.build_packets(out, count, seed, self.w.n_r)
        finally:
            if tracer:
                tracer.close(index)
        wall = _now() - t0
        if tracer:
            roots[index] = wall
        self.record(checks.check_dataset(out, count, self.w.n_r))
        return draws, wall

    def run_pass(self, out: Path, gen_seed: int, count: int, workers: int,
                 dataset: Path | None = None, methods=None, tracer=None, roots=None):
        """Run the CLI stages once; return stage walls, meta and output lines."""
        w = self.w
        out.mkdir(parents=True)
        methods = methods or w.methods
        method = "both" if len(methods) == 2 else methods[0]
        walls = {}
        if dataset is None:
            dataset = out / "data"
            walls["generate"] = self.stage(
                workloads.generate_argv(w, dataset, count, gen_seed, workers),
                lambda: checks.check_dataset(dataset, count, w.n_r), tracer, roots)
        meta = json.loads((dataset / "meta.json").read_text())
        est, ev, rep = out / "est.jsonl", out / "eval.jsonl", out / "report"
        common = ["--method", method, "--n0", "known", "--workers", str(workers)]
        walls["estimate"] = self.stage(
            ["estimate", "--dataset", str(dataset), "--out", str(est)] + common,
            lambda: checks.check_estimates(est, meta, methods, self.vocabulary), tracer, roots)
        walls["decode"] = self.stage(
            ["decode", "--dataset", str(dataset), "--estimates", str(est), "--out", str(ev)]
            + common,
            lambda: checks.check_evaluations(ev, meta, methods, self.vocabulary, self.decode_mods),
            tracer, roots)
        walls["report"] = self.stage(
            ["report", "--records", str(ev), "--out", str(rep), "--snr", w.snr],
            lambda: checks.check_report(rep), tracer, roots)
        return walls, meta, _lines(est), ev.read_bytes() if ev.exists() else b""

    # --------------------------------------------------------------- loops

    def timed(self, seconds: float) -> dict:
        w = self.w
        passes = []
        metas = []
        deadline = _now() + seconds
        i = 0
        while i == 0 or _now() < deadline:
            walls, meta, _, _ = self.run_pass(
                self.work / f"pass{i}", workloads.pass_seed(self.seed, i),
                w.records_per_pass, w.workers, dataset=self.packets_dataset)
            passes.append(walls)
            metas.append(meta)
            i += 1
            if self.problems:
                break
        return {"passes": passes, "metas": metas}

    def panel(self) -> dict:
        """Quality on the workload's fixed panel, both methods, untimed."""
        w = self.w
        out = self.work / "panel"
        dataset = None
        if w.build == "packets":
            dataset = out.parent / "panel-data"
            self.build_packets(dataset, w.panel_records, w.panel_seed)
        _, _, _, ev = self.run_pass(out, w.panel_seed, w.panel_records, w.workers,
                                    dataset=dataset, methods=["blind", "genie"])
        return checks.quality([json.loads(raw) for raw in ev.decode().splitlines()])

    def traced(self, seconds: float) -> dict:
        """Pairs of passes on the same inputs: untraced, then traced.

        Both run at one worker in this process. The pair's evaluation
        outputs must be byte-identical; the wall-time difference is the
        tracing overhead.
        """
        w = self.w
        tracer = spans.Tracer()
        roots: dict[int, float] = {}
        plain_wall = traced_wall = 0.0
        records = generated = 0
        est_lines, eval_lines, metas = [], [], []
        built = False
        deadline = _now() + seconds
        i = 0
        while i == 0 or _now() < deadline:
            seed = workloads.pass_seed(self.seed, i)
            walls, _, _, plain_ev = self.run_pass(
                self.work / f"plain{i}", seed, w.records_per_pass, 1,
                dataset=self.packets_dataset)
            plain_wall += sum(walls.values())
            dataset = None
            with spans.traced(tracer, layers.TARGETS):
                if self.packets_dataset is not None:
                    dataset = self.work / f"traced{i}-data"
                    draws, _ = self.build_packets(
                        dataset, w.records_per_pass, self.seed, tracer, roots)
                    generated += draws
                    built = True
                    self.record([] if workloads.dataset_digest(dataset) == self.packets_digest
                                else ["traced packets build differs from set-up build"])
                else:
                    generated += w.records_per_pass
                walls, meta, est, ev = self.run_pass(
                    self.work / f"traced{i}", seed, w.records_per_pass, 1,
                    dataset=dataset, tracer=tracer, roots=roots)
            traced_wall += sum(walls.values())
            self.record([] if ev == plain_ev else
                        [f"pass {i}: traced evaluation output differs from untraced"])
            records += len(meta["records"])
            est_lines += est
            eval_lines += [json.loads(raw) for raw in ev.decode().splitlines()]
            metas.append(meta)
            i += 1
            if self.problems:
                break
        self.record(layers.self_time_problems(tracer, roots))
        fired = {span.name for span in tracer.spans}
        expected = layers.expected_spans(
            w.methods, w.build == "cli", built, est_lines, eval_lines,
            any(r["modulation"] not in ("gmsk", "cpfsk") for m in metas for r in m["records"]))
        missing = sorted(expected - fired)
        self.record([f"spans that did not fire: {missing}"] if missing else [])
        metrics = layers.per_layer_metrics(
            tracer, records, generated, est_lines,
            (traced_wall - plain_wall) / plain_wall)
        return {"metrics": metrics, "metas": metas, "pairs": i, "spans": len(tracer.spans),
                "fired": sorted(fired), "tail_level": layers.tail_level(
                    sum(s.name == "blind.blind_chain" for s in tracer.spans))}


def _lines(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(raw) for raw in path.read_text().splitlines()]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import multiprocessing

    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blindrx": blindrx.__version__,
        "start_method": multiprocessing.get_start_method(),
        "blas_threads": blas_threads(),
        "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        facts["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "version")
    except (KeyError, TypeError, AttributeError):
        facts["openblas"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None)
        for index in range(4):
            base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
            if (base / "type").read_text().strip() != "Instruction":
                facts[f"L{(base / 'level').read_text().strip()}"] = (base / "size").read_text().strip()
    except OSError:
        pass
    return facts


def describe(metas, w: workloads.Workload, seed: int) -> dict:
    """Record count, tau histogram, SNR and modulation mix, share decoded."""
    records = [r for meta in metas for r in meta["records"]]
    taus, snrs, mods = {}, {}, {}
    for r in records:
        tau = f"{r['tau']:.2f}"
        taus[tau] = taus.get(tau, 0) + 1
        snrs[str(r["snr_db"])] = snrs.get(str(r["snr_db"]), 0) + 1
        mods[r["modulation"]] = mods.get(r["modulation"], 0) + 1
    n = max(len(records), 1)
    return {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "records": len(records),
        "datasets": len(metas),
        "n_r": w.n_r,
        "method": w.method,
        "workers": w.workers,
        "tau_histogram": dict(sorted(taus.items(), key=lambda kv: float(kv[0]))),
        "tau_share_le_16_3": sum(r["tau"] <= workloads.TAU_PACKET_LIMIT for r in records) / n,
        "snr_mix": snrs,
        "modulation_mix": dict(sorted(mods.items())),
        "share_decoded": sum(r["modulation"] in ("bpsk", "qpsk") for r in records) / n,
    }


MODES = ("setup", "timed", "panel", "traced")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    session = Session(w, args.seed, Path(args.work))
    session.work.mkdir(parents=True)
    result: dict = {}
    if w.build == "packets":
        dataset = session.work / "packets"
        draws, wall = session.build_packets(dataset, w.records_per_pass, args.seed)
        session.packets_dataset = dataset
        session.packets_digest = workloads.dataset_digest(dataset)
        result["build"] = {"draws": draws, "seconds": wall, "digest": session.packets_digest}
    print("READY", flush=True)

    if args.mode == "panel":
        # A fresh process whose only work is the fixed panel, so its peak
        # resident memory does not depend on which seeded records it saw.
        result["quality"] = session.panel()
        result["peak_rss_mb"] = peak_rss_mb()
    elif args.mode in ("timed", "traced"):
        loop = session.timed if args.mode == "timed" else session.traced
        result[args.mode] = loop(args.seconds)
        metas = result[args.mode].pop("metas")
        if w.build == "packets":
            metas = metas[:1]  # every pass reuses the set-up dataset
        result["workload"] = describe(metas, w, args.seed)
        result["machine"] = machine()
    result["attempted"] = session.attempted
    result["failed"] = session.failed
    result["problems"] = session.problems
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
