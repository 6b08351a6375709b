"""Benchmark workloads: what each one runs, why, and how its inputs are built.

Every workload runs the CLI at ``--n0 known``. Its inputs come from the
benchmark seed alone:

* ``cli`` datasets are written by ``blindrx generate`` inside the timed
  loop. Pass ``i`` of a run uses generator seed ``seed * 1000 + i``, so
  every pass is new traffic and the passes together average the
  per-record cost over many draws.
* the ``packets`` dataset is built once per set-up by rejection sampling
  (``generate_one`` draws kept when the realized tau <= 16/3) and written
  with ``write_dataset``; that build is part of set-up time.

The quality metrics come from a fixed panel per workload (``panel_seed``),
not from the seeded traffic. On the record counts a run can afford, the
seed-to-seed spread of PER and of the blind MAEs is far wider than any
regression bound (genie PER on 200 survey records has an interquartile
range about equal to its median), so a fixed panel is what lets a change
in answers, and only that, move them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

TAU_PACKET_LIMIT = 16.0 / 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_r: int
    method: str  # CLI --method for the timed traffic
    workers: int
    records_per_pass: int
    panel_records: int
    panel_seed: int = 2106
    mods: str | None = None  # CLI --mods for generate; None = all 16
    snr: str = "0,5,10,15,20"
    build: str = "cli"  # "cli" or "packets"

    @property
    def methods(self) -> list[str]:
        return ["blind", "genie"] if self.method == "both" else [self.method]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="survey",
            # The README's default traffic: all 16 modulations over the five
            # SNR levels, both methods. The blind chain runs twice per record
            # (estimate, then decode) and takes about 95 % of stage time;
            # 1/8 of records (BPSK/QPSK) are decoded.
            why="README default traffic: 16 modulations, SNR 0-20 dB, n_r 1024, both methods; "
            "per-record overhead and the blind chain at mostly large tau",
            n_r=1024,
            method="both",
            workers=1,
            records_per_pass=64,
            panel_records=96,
        ),
        Workload(
            name="packets",
            # The paper's PER claim: BPSK/QPSK at 20 dB with tau <= 16/3, so
            # every record is decoded by both paths and Gardner's
            # interpolator produces 12-15 output samples per input sample.
            why="BPSK/QPSK at 20 dB kept when tau <= 16/3: every record decoded by both paths; "
            "interpolator-heavy; rejection build counts in set-up",
            n_r=1024,
            method="both",
            workers=1,
            records_per_pass=96,
            panel_records=64,
            mods="bpsk,qpsk",
            snr="20",
            build="packets",
        ),
        Workload(
            name="long-records",
            # Per-sample kernels outweigh per-record overhead: the line-search
            # basis (100 x 8192 complex128 = 13.1 MB) exceeds L2, CMA takes
            # 8173 Python steps per call, and the genie path is bypassed, so
            # a change to recovery predicts no change here.
            why="survey traffic at n_r 8192, blind only: per-sample kernels, an L2-exceeding "
            "line-search basis and 8173 CMA steps per call; genie bypassed",
            n_r=8192,
            method="blind",
            workers=1,
            records_per_pass=8,
            panel_records=12,
            # the first seed from 2106 whose 12 draws hold at least three
            # BPSK/QPSK records, so that PER has records to count
            panel_seed=2118,
        ),
        Workload(
            name="survey-w2",
            # The only workload that runs the multiprocessing.Pool fan-out in
            # cli; BLAS is pinned to one thread so 2 processes x 1 thread
            # stays within the 2 cores.
            why="survey at --workers 2: the only workload that runs the CLI's "
            "multiprocessing.Pool fan-out",
            n_r=1024,
            method="both",
            workers=2,
            records_per_pass=256,
            panel_records=96,
        ),
    )
}


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def generate_argv(w: Workload, out, count: int, seed: int, workers: int) -> list[str]:
    argv = ["generate", "--out", str(out), "--count", str(count), "--seed", str(seed),
            "--nr", str(w.n_r), "--snr", w.snr, "--workers", str(workers)]
    if w.mods:
        argv += ["--mods", w.mods]
    return argv


def build_packets(out, count: int, seed: int, n_r: int = 1024):
    """Rejection-build a packets dataset; return the number of draws made.

    Draw ``i`` is ``generate_one(spec, i)``: BPSK/QPSK at 20 dB. A draw is
    kept when its realized tau is at most 16/3 (about 12 % of draws).
    """
    from blindrx import generator
    from blindrx.modulation import ModulationType

    spec = generator.DatasetSpec(
        count=count,
        seed=seed,
        n_r=n_r,
        snr_levels_db=(20.0,),
        modulations=(ModulationType.BPSK, ModulationType.QPSK),
    )
    kept = []
    draws = 0
    while len(kept) < count:
        record = generator.generate_one(spec, draws)
        draws += 1
        if record.params.tau <= TAU_PACKET_LIMIT:
            kept.append(record)
    generator.write_dataset(out, kept, spec)
    return draws


def dataset_digest(path) -> str:
    """SHA-256 over meta.json and the three IQ payloads, in a fixed order."""
    h = hashlib.sha256()
    for name in ("meta.json", "y.iq", "z1.iq", "z2.iq"):
        h.update(name.encode())
        h.update((Path(path) / name).read_bytes())
    return h.hexdigest()
