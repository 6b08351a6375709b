"""Correctness gate on CLI outputs, and the quality metrics read from them.

Each check returns a list of problems; an empty list means the stage
output is correct. Per-record chain failures such as ``NoBandDetected``
are results, not problems: they only have to carry a known status.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

OK = "ok"
NOT_DECODED = "not_decoded"


def status_vocabulary() -> set[str]:
    """Every status the CLI can write: ok, not_decoded, or an error name."""
    from blindrx import errors

    names = {OK, NOT_DECODED}
    for obj in vars(errors).values():
        if isinstance(obj, type) and issubclass(obj, errors.BlindRxError):
            names.add(obj.__name__.removesuffix("Error"))
    return names


def _read_lines(path, problems) -> list[dict]:
    lines = []
    try:
        with open(path) as fh:
            for n, raw in enumerate(fh):
                try:
                    lines.append(json.loads(raw))
                except json.JSONDecodeError:
                    problems.append(f"{path}:{n + 1}: not JSON")
    except OSError as exc:
        problems.append(f"{path}: {exc}")
    return lines


def _check_keys(lines, count, methods, problems, path) -> None:
    expected = {(i, m) for i in range(count) for m in methods}
    seen = [(line.get("signal_id"), line.get("method")) for line in lines]
    if len(lines) != count * len(methods) or set(seen) != expected:
        problems.append(
            f"{path}: {len(lines)} lines for {count} records x {len(methods)} methods"
        )


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_dataset(path, count: int, n_r: int) -> list[str]:
    problems = []
    path = Path(path)
    try:
        meta = json.loads((path / "meta.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}/meta.json: {exc}"]
    if meta.get("count") != count or len(meta.get("records", ())) != count:
        problems.append(f"{path}: meta count {meta.get('count')} != {count}")
    for name in ("y.iq", "z1.iq", "z2.iq"):
        size = (path / name).stat().st_size if (path / name).exists() else -1
        if size != count * n_r * 8:
            problems.append(f"{path}/{name}: {size} bytes, expected {count * n_r * 8}")
    return problems


def check_estimates(path, meta: dict, methods, vocabulary) -> list[str]:
    problems: list[str] = []
    lines = _read_lines(path, problems)
    records = meta["records"]
    _check_keys(lines, len(records), methods, problems, path)
    for line in lines:
        status = line.get("status")
        if status not in vocabulary - {NOT_DECODED}:
            problems.append(f"{path}: unknown status {status!r}")
            continue
        if status != OK:
            continue
        if not _finite(line.get("f0_hat"), line.get("tau_hat"), line.get("t0_hat")):
            problems.append(f"{path}: non-finite estimate for record {line.get('signal_id')}")
        elif line["method"] == "genie":
            truth = records[line["signal_id"]]
            if (line["f0_hat"], line["tau_hat"], line["t0_hat"]) != (
                truth["f0"], truth["tau"], truth["t0"]
            ):
                problems.append(f"{path}: genie estimate differs from labels")
    return problems


def check_evaluations(path, meta: dict, methods, vocabulary, decode_mods) -> list[str]:
    problems: list[str] = []
    lines = _read_lines(path, problems)
    records = meta["records"]
    _check_keys(lines, len(records), methods, problems, path)
    for line in lines:
        status = line.get("status")
        if status not in vocabulary:
            problems.append(f"{path}: unknown status {status!r}")
            continue
        if not _finite(line.get("abs_f0_err"), line.get("abs_tau_err"), line.get("circ_t0_err")):
            problems.append(f"{path}: non-finite error for record {line.get('signal_id')}")
            continue
        if line["method"] == "genie" and (
            status not in (OK, NOT_DECODED)
            or (line["abs_f0_err"], line["abs_tau_err"], line["circ_t0_err"]) != (0.0, 0.0, 0.0)
        ):
            problems.append(f"{path}: genie record {line['signal_id']} has estimation error")
        decodable = records[line["signal_id"]]["modulation"] in decode_mods
        if status == OK and (not decodable or line.get("ser") is None):
            problems.append(f"{path}: record {line['signal_id']} ok without a decode")
        if status == NOT_DECODED and decodable:
            problems.append(f"{path}: decodable record {line['signal_id']} not decoded")
    return problems


def check_report(path) -> list[str]:
    path = Path(path)
    try:
        bundle = json.loads((path / "report.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}/report.json: {exc}"]
    problems = []
    if not bundle.get("mae"):
        problems.append(f"{path}: report has no MAE rows")
    for name in ("mae_vs_snr.csv", "per_vs_snr.csv", "ser_cdf.csv"):
        if not (path / name).is_file():
            problems.append(f"{path}/{name}: missing")
    return problems


def quality(eval_lines: list[dict]) -> dict[str, float]:
    """End-to-end answer quality from evaluation lines.

    PER is counted as ``metrics.per`` counts it, over records where
    decoding was attempted or the chain failed (every status but
    ``not_decoded``). The MAEs and the reconstruction loss are means over
    every blind record; failed records carry the ``FAILED_*`` scores the
    CLI assigned, as in ``metrics.aggregate``.
    """
    from blindrx import metrics

    def rows(method):
        return [metrics.EvalRecord(**e) for e in eval_lines if e["method"] == method]

    blind, genie = rows("blind"), rows("genie")

    def per(records):
        decoded = [r for r in records if r.status != NOT_DECODED]
        return metrics.per(decoded) if decoded else math.nan

    losses = [r.recon_loss for r in blind if r.recon_loss is not None]
    return {
        "blind_per": per(blind),
        "genie_per": per(genie),
        "blind_mae_f0": _mean([r.abs_f0_err for r in blind]),
        "blind_mae_tau": _mean([r.abs_tau_err for r in blind]),
        "blind_mae_t0": _mean([r.circ_t0_err for r in blind]),
        "blind_recon_loss": _mean(losses),
    }


def _mean(values) -> float:
    return math.fsum(values) / len(values) if values else math.nan
