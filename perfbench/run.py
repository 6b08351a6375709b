"""blindrx benchmark: stage throughput and answer quality, or a traced run.

Run from the root of a blindrx checkout::

    python3 perfbench/run.py --workload survey --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` and
checks every stage's output;
``--trace 1`` makes a separate traced run, at one worker in one process,
and prints the per-layer metrics. The last stdout line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it, ``perfbench-info {...}``, records the machine, the
workload's inputs and every raw timing; the same record is written to
``.perfbench_results/``.

The program runs in child processes (``session.py``) with ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread, so that processes x BLAS
threads stays within the cores at ``--workers 2``. Set-up time is timed
from each child's launch to its ``READY`` line; ``SETUP_SAMPLES`` extra
children do only set-up, so the reported ``setup_s`` is a median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
PINNED_THREADS = "1"
QUALITY_UNITS = {
    "blind_per": "ratio",
    "genie_per": "ratio",
    "blind_mae_f0": "cycles/sample",
    "blind_mae_tau": "samples",
    "blind_mae_t0": "symbols",
    "blind_recon_loss": "power",
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = PINNED_THREADS
    return env


def run_child(args, mode: str, work: Path, env: dict, deadline: float):
    """Start one session; return (set-up seconds, result dict or None).

    The child is killed if it outlives ``deadline``; it is always waited for.
    """
    argv = [sys.executable, str(HERE / "session.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
            "--work", str(work)]
    t0 = time.perf_counter()
    # A session of its own, so that a kill also reaches the CLI's pool workers.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    setup = math.nan
    lines = []
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and math.isnan(setup):
                setup = time.perf_counter() - t0
            else:
                lines.append(line)
            if time.perf_counter() > deadline:
                break
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not lines:
        return setup, None
    try:
        return setup, json.loads(lines[-1])
    except json.JSONDecodeError:
        return setup, None


def git_commit(root: Path) -> str | None:
    """The checked-out commit, when the benchmark runs inside a git work tree."""
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def end_to_end(records: int, setups, builds, timed, panel) -> dict:
    """End-to-end metrics of one run.

    Stage throughput is records over stage seconds summed across the
    timed passes, so the per-record cost is averaged over every record the
    run drew. Pass 0 is a warm-up (first calls into scipy, first files in
    the work tree) and is left out when later passes exist. ``setup_s`` and
    the packets build rate are medians over the run's set-ups.
    """
    passes = timed["passes"][1:] or timed["passes"]

    def rps(stages):
        return records * len(passes) / math.fsum(p[s] for p in passes for s in stages)

    if builds:  # packets: generator draws per second of the rejection build
        generate = median([b["draws"] / b["seconds"] for b in builds])
    else:
        generate = rps(["generate"])
    values = {
        "setup_s": (median(setups), "s"),
        "generate_rps": (generate, "1/s"),
        "estimate_rps": (rps(["estimate"]), "1/s"),
        "decode_rps": (rps(["decode"]), "1/s"),
        "pipeline_rps": (rps(["estimate", "decode", "report"]), "1/s"),
        "peak_rss_mb": (panel["peak_rss_mb"], "MB"),
    }
    for name, unit in QUALITY_UNITS.items():
        values[name] = (panel["quality"].get(name, math.nan), unit)
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "blindrx" / "cli.py").is_file():
        print("perfbench: run from the root of a blindrx checkout (no src/blindrx here)",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    env = child_env(root)
    # Untraced: set-up-only children, the timed loop, then the fixed panel
    # in a fresh process; each child's set-up is one set-up sample.
    modes = ["traced"] if args.trace else ["setup"] * SETUP_SAMPLES + ["timed", "panel"]
    setups, results = [], []
    try:
        for k, mode in enumerate(modes):
            setup, result = run_child(args, mode, work / f"{k}-{mode}", env, deadline)
            setups.append(setup)
            results.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    done = [r for r in results if r is not None]
    ok = len(done) == len(results)
    problems = [p for r in done for p in r["problems"]]
    attempted = sum(r["attempted"] for r in done) + len(results) - len(done)
    failed = sum(r["failed"] for r in done) + len(results) - len(done)
    builds = [r["build"] for r in done if "build" in r]
    if len({b["digest"] for b in builds}) > 1:
        problems.append("packets builds of one seed differ")
        failed += 1
    by_mode = dict(zip(modes, results))  # the setup-only entries are not needed by name
    loop_result = by_mode["traced" if args.trace else "timed"]
    panel_result = by_mode.get("panel")

    metrics: dict = {}
    if ok and args.trace:
        traced = loop_result["traced"]["metrics"]
        metrics = {name: {"value": traced[name], "unit": unit} for name, unit in PER_LAYER}
    elif ok:
        metrics = end_to_end(WORKLOADS[args.workload].records_per_pass, setups, builds,
                             loop_result["timed"], panel_result)
    finite = bool(metrics) and all(math.isfinite(m["value"]) for m in metrics.values())
    correct = ok and failed == 0 and not problems and finite

    info = {"args": vars(args), "commit": git_commit(root), "setups_s": setups,
            "builds": builds, "problems": problems, "session": loop_result,
            "panel": panel_result}
    out = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
           "metrics": metrics}
    results_dir = root / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": out}, indent=1, sort_keys=True))
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
