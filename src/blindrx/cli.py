"""Batch command-line front end.

Subcommands form a pipeline over a dataset directory::

    blindrx generate --out data/ --count 1000 --seed 7 --snr 0,5,10,15,20
    blindrx estimate --dataset data/ --out est.jsonl --method both
    blindrx decode   --dataset data/ --estimates est.jsonl --out eval.jsonl
    blindrx report   --records eval.jsonl --out report/

Every stage is deterministic for a fixed configuration; per-record
failures are recorded and never abort a batch. Exit codes: 0 success,
1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import multiprocessing
import sys
from dataclasses import asdict
from pathlib import Path

from . import blind, metrics, recovery
from .errors import BlindRxError
from .generator import (
    DISCRETE_SNRS_DB,
    DatasetSpec,
    DatasetWriter,
    ModulationType,
    dataset_fingerprint,
    generate_one,
    iter_record_signals,
    read_meta,
    record_from_meta,
)

DEFAULT_DECODE_MODS = (ModulationType.BPSK, ModulationType.QPSK)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _parse_mods(text: str | None, default) -> tuple[ModulationType, ...]:
    if text is None:
        return tuple(default)
    try:
        return tuple(ModulationType.from_name(t) for t in text.split(","))
    except ValueError as exc:
        raise SystemExit(f"unknown modulation: {exc}") from None


def _parse_snr(text: str | None):
    if text is None or text == "continuous":
        return None
    return tuple(float(t) for t in text.split(","))


def _status_name(exc: BlindRxError) -> str:
    return type(exc).__name__.removesuffix("Error")


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fan_out(worker, payload, workers: int, chunksize: int):
    """Yield ``worker(item)`` for each item in order, in-process or on a pool."""
    if workers <= 1:
        yield from map(worker, payload)
    else:
        with multiprocessing.Pool(workers) as pool:
            yield from pool.imap(worker, payload, chunksize=chunksize)


# ----------------------------------------------------------------- generate


def cmd_generate(args) -> int:
    spec = DatasetSpec(
        count=args.count,
        seed=args.seed,
        n_r=args.nr,
        snr_levels_db=_parse_snr(args.snr),
        modulations=_parse_mods(args.mods, tuple(ModulationType)),
    )
    generate = functools.partial(generate_one, spec)
    with DatasetWriter(args.out, spec) as writer:
        for record in _fan_out(generate, range(spec.count), args.workers, 16):
            writer.append(record)
    print(f"wrote {spec.count} records to {args.out}")
    return 0


# ----------------------------------------------------------------- estimate


def _estimate_worker(args) -> list[dict]:
    index, rec_meta, y, methods, stamp = args
    record = record_from_meta(rec_meta, y)
    lines = []
    for method in methods:
        line = {"signal_id": index, "method": method, **stamp}
        try:
            if method == "genie":
                estimates, _ = recovery.genie_chain(record)
            else:
                n0 = record.n0 if stamp["n0_policy"] == "known" else None
                estimates = blind.blind_chain(y, n0=n0)
            line.update(status="ok", **estimates.to_line())
        except BlindRxError as exc:
            line.update(status=_status_name(exc), detail=str(exc), stage=exc.stage)
        lines.append(line)
    return lines


def _method_list(method: str) -> list[str]:
    return ["blind", "genie"] if method == "both" else [method]


def cmd_estimate(args) -> int:
    meta = read_meta(args.dataset)
    methods = _method_list(args.method)
    stamp = {"n0_policy": args.n0, "dataset_sha256": dataset_fingerprint(args.dataset)}
    payload = (
        (i, rec_meta, y, methods, stamp)
        for (i, rec_meta), (y,) in zip(
            enumerate(meta["records"]), iter_record_signals(args.dataset, meta, ("y",))
        )
    )
    with open(args.out, "w") as out:
        for lines in _fan_out(_estimate_worker, payload, args.workers, 8):
            out.writelines(_json_line(line) + "\n" for line in lines)
    print(f"wrote estimates for {meta['count']} records to {args.out}")
    return 0


# ------------------------------------------------------------------- decode


def _decode_worker(args) -> list[dict]:
    index, rec_meta, y, z2, loaded, decode_mods = args
    record = record_from_meta(rec_meta, y, z2=z2)
    results = []
    for method, (status, estimates) in loaded.items():
        scores = metrics.EvalRecord(
            signal_id=index,
            modulation=record.modulation.value,
            snr_db=record.params.snr_db,
            method=method,
            abs_f0_err=metrics.FAILED_F0_ERROR,
            abs_tau_err=metrics.FAILED_TAU_ERROR,
            circ_t0_err=metrics.FAILED_T0_ERROR,
            status=status,
        )
        results.append(scores)
        if estimates is None:
            continue
        if method == "genie":
            recovered = recovery.genie_chain(record)[1]
        else:
            recovered = blind.equalized_output(y, estimates)
        scores.abs_f0_err, scores.abs_tau_err, scores.circ_t0_err = (
            metrics.estimation_errors(estimates, record.params)
        )
        scores.recon_loss = metrics.phase_invariant_loss(recovered, z2)
        if record.modulation not in decode_mods or not record.modulation.is_linear:
            scores.status = "not_decoded"
            continue
        try:
            soft = recovery.symbol_resample(
                recovered, blind.timing_tau(estimates.tau_hat), estimates.t0_hat
            )
            decoded = recovery.decode_symbols(
                soft, record.modulation, record.symbols.values[0]
            )
            scores.ser = recovery.ser(decoded, record.symbols)
        except BlindRxError as exc:
            scores.status = _status_name(exc)
    return [asdict(scores) for scores in results]


def _load_estimates(args, n_records: int, methods) -> dict[tuple[int, str], tuple]:
    """(status, EstimateSet of an ``ok`` line or None) by (record, method),
    from lines stamped with this dataset and, if ``--n0`` is given, that
    policy; anything else raises ValueError naming the file (and line)."""
    stamp = {"dataset_sha256": dataset_fingerprint(args.dataset)}
    if args.n0 is not None:
        stamp["n0_policy"] = args.n0
    lines = {}
    with open(args.estimates) as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                line = json.loads(raw)
                found = {key: line.get(key) for key in stamp}
                if found != stamp:
                    raise ValueError(f"stamp {found} != {stamp}")
                status = line["status"]
                estimates = blind.EstimateSet.from_line(line) if status == "ok" else None
                lines[line["signal_id"], line["method"]] = status, estimates
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{args.estimates} line {number}: {exc!r}") from None
    for key in itertools.product(range(n_records), methods):
        if key not in lines:
            raise ValueError(f"{args.estimates}: no line for (record, method) {key}")
    return lines


def cmd_decode(args) -> int:
    meta = read_meta(args.dataset)
    decode_mods = _parse_mods(args.mods, DEFAULT_DECODE_MODS)
    methods = _method_list(args.method)
    loaded = _load_estimates(args, meta["count"], methods)
    payload = (
        (i, rec_meta, y, z2, {m: loaded[i, m] for m in methods}, decode_mods)
        for (i, rec_meta), (y, z2) in zip(
            enumerate(meta["records"]),
            iter_record_signals(args.dataset, meta, ("y", "z2")),
        )
    )
    with open(args.out, "w") as out:
        for lines in _fan_out(_decode_worker, payload, args.workers, 8):
            out.writelines(_json_line(line) + "\n" for line in lines)
    print(f"wrote evaluation records to {args.out}")
    return 0


# ------------------------------------------------------------------- report


def _load_eval_records(path) -> list[metrics.EvalRecord]:
    records = []
    with open(path) as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                records.append(metrics.EvalRecord(**json.loads(raw)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
    return records


MAE_COLUMNS = (
    "method", "snr_db", "count", "mae_f0", "mae_tau", "mae_t0", "mean_recon_loss"
)
PER_COLUMNS = ("method", "modulation", "snr_db", "count", "per")
SER_CDF_COLUMNS = ("method", "modulation", "snr_db", "ser", "cumulative_fraction")


def _cell(value):
    """CSV text of one value: strings and counts as they are, floats by repr."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return value
    return repr(float(value))


def _write_csv(path, columns, rows) -> None:
    """One report table; each row lists its values in ``columns`` order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(value) for value in row] for row in rows)


def cmd_report(args) -> int:
    records = _load_eval_records(args.records)
    buckets = _parse_snr(args.snr) or DISCRETE_SNRS_DB
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not records:
        print("warning: no evaluation records; emitting empty tables", file=sys.stderr)
    rows = metrics.aggregate(records, buckets) if records else []
    decodable = [r for r in records if r.status != "not_decoded"]
    per_rows = metrics.aggregate(decodable, buckets) if decodable else []

    mae = ([getattr(r, c) for c in MAE_COLUMNS] for r in rows if r.modulation == "*")
    per = ([getattr(r, c) for c in PER_COLUMNS] for r in per_rows if r.modulation != "*")
    cdf = ([r.method, r.modulation, r.snr_db, *point] for r in per_rows for point in r.ser_cdf)
    _write_csv(out / "mae_vs_snr.csv", MAE_COLUMNS, mae)
    _write_csv(out / "per_vs_snr.csv", PER_COLUMNS, per)
    _write_csv(out / "ser_cdf.csv", SER_CDF_COLUMNS, cdf)

    bundle = {
        "snr_buckets_db": list(buckets),
        "mae": [asdict(r) for r in rows],
        "per": [asdict(r) for r in per_rows],
    }
    with open(out / "report.json", "w") as fh:
        json.dump(bundle, fh, sort_keys=True, separators=(",", ":"))
    print(f"wrote report tables to {out}")
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blindrx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a labeled dataset")
    gen.add_argument("--out", required=True, help="dataset directory")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--nr", type=int, default=1024, help="samples per record")
    gen.add_argument(
        "--snr",
        default=None,
        help="comma-separated SNR levels in dB, or 'continuous' (default)",
    )
    gen.add_argument("--mods", default=None, help="comma-separated modulation subset")
    gen.add_argument("--workers", type=int, default=1)

    est = sub.add_parser("estimate", help="run estimator chains over a dataset")
    est.add_argument("--dataset", required=True)
    est.add_argument("--out", required=True, help="estimates JSONL path")
    est.add_argument("--method", choices=("blind", "genie", "both"), default="blind")
    est.add_argument("--n0", choices=("known", "estimated"), default="known")
    est.add_argument("--workers", type=int, default=1)

    dec = sub.add_parser("decode", help="recover symbols and score each record")
    dec.add_argument("--dataset", required=True)
    dec.add_argument("--estimates", required=True, help="estimates JSONL path")
    dec.add_argument("--out", required=True, help="evaluation JSONL path")
    dec.add_argument("--method", choices=("blind", "genie", "both"), default="blind")
    dec.add_argument(
        "--n0",
        choices=("known", "estimated"),
        default=None,
        help="require this n0 policy in the estimates (default: as stamped)",
    )
    dec.add_argument(
        "--mods", default=None, help="modulations to decode (default bpsk,qpsk)"
    )
    dec.add_argument("--workers", type=int, default=1)

    rep = sub.add_parser("report", help="aggregate evaluation records into tables")
    rep.add_argument("--records", required=True, help="evaluation JSONL path")
    rep.add_argument("--out", required=True, help="report output directory")
    rep.add_argument("--snr", default=None, help="SNR bucket centers (default 0,5,10,15,20)")
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "estimate": cmd_estimate,
    "decode": cmd_decode,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (OSError, BlindRxError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
