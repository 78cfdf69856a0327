#!/usr/bin/env python3
"""stagevote benchmark: end-to-end CLI timings, or a traced per-layer split.

    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. With ``--trace 0`` it takes
samples for about ``--seconds`` seconds, alternating between the frozen
reference copy of the program in ``perfbench/reference`` and the checkout's
program, and reports medians. A sample is a fresh process that times the
set-up and then the workload's CLI call. With ``--trace 1`` it runs the self-check, one untraced CLI call and the traced
runner, writes the spans to ``.bench_work/`` and reports per-layer
metrics. Every CLI output is checked; the last stdout line is the result
as JSON. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# stagevote as it was when the benchmark was added; never edited.
REFERENCE = HERE / "reference"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"
MIN_SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
# The program's arrays are small; on a few shared vCPUs OpenBLAS's spinning
# worker threads only add noise (with them the spread of desk-grid calls on
# a 2-vCPU VM was 0.21 of the median instead of 0.12).
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed (taken modulo 2**32)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed CLI calls may run in total")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child(*args, src: Path = SRC) -> dict:
    """Run child.py in a fresh interpreter, importing stagevote from
    ``src``, and return its JSON line."""
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONHASHSEED": "0", "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:1]} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def golden_for(name: str, seed: int):
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    entry = doc["workloads"].get(name, {}).get(str(seed))
    return None if entry is None else (entry["sha256"], entry["exit"])


def run_cli(prep, workdir: Path, src: Path = SRC) -> tuple[dict, str]:
    out = workdir / "stdout.txt"
    sample = child("cli", out, json.dumps(prep.setup_args), *prep.argv, src=src)
    return sample, out.read_text(encoding="utf-8")


class Checker:
    """Counts CLI outputs that differ from the reference for this seed.

    The reference is the golden digest and exit status recorded for the
    seed, when there is one and ``use_golden`` is set; otherwise the first
    output, which must also pass the workload's own output check."""

    def __init__(self, prep, use_golden: bool = True):
        self.prep = prep
        self.reference = golden_for(prep.name, prep.seed) if use_golden else None
        self.golden = self.reference is not None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, digest: str, status: int, text: str) -> None:
        self.attempted += 1
        if self.reference is None or (digest, status) != self.reference:
            problems = self.prep.check_output(text, status)
            self.problems += problems
            if self.reference is None and not problems:
                self.reference = (digest, status)
        if (digest, status) != self.reference:
            self.failed += 1
            self.problems.append(f"output {digest[:12]} exit {status} differs from "
                                 f"{'golden' if self.golden else 'first run'}")

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def measure(prep, workdir: Path, seconds: float, checker: Checker,
            ref_checker: Checker) -> tuple[dict, dict]:
    """Samples for about ``seconds``, alternating between the frozen
    reference and the program on the same input and starting and ending
    with the reference. The machine's speed drifts by tens of percent over
    tens of seconds but little over one sample, so the ratio of a program
    call to the mean of the reference calls on either side of it holds
    still where either wall time does not."""
    for src in (SRC, REFERENCE):  # warm-up: byte-compiles, fills the page cache
        child("setup", *prep.setup_args, src=src)

    def sample(src, check, into):
        result, text = run_cli(prep, workdir, src)
        check.check(result["sha256"], result["exit"], text)
        into.append(result)

    samples, ref_samples = [], []
    started = time.perf_counter()
    sample(REFERENCE, ref_checker, ref_samples)
    while True:
        sample(SRC, checker, samples)
        sample(REFERENCE, ref_checker, ref_samples)
        elapsed = time.perf_counter() - started
        # Stop at the step boundary nearest to ``seconds``.
        if elapsed + elapsed / len(samples) / 2 > seconds:
            break
    setups = [s["setup_s"] for s in samples]
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(child("setup", *prep.setup_args)["setup_s"])

    walls = [s["wall_s"] for s in samples]
    ref_walls = [s["wall_s"] for s in ref_samples]
    ratios = [w / ((before + after) / 2)
              for w, before, after in zip(walls, ref_walls, ref_walls[1:])]
    wall = statistics.median(walls)
    metrics = {
        "wall_vs_ref": (statistics.median(ratios), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
    }
    detail = {
        "samples": len(samples),
        "wall_s": wall,
        "ref_wall_s": statistics.median(ref_walls),
        "elections_per_s": prep.elections / wall,
        "ballots_per_s": prep.ballots / wall,
        "wall_vs_ref_samples": ratios,
        "wall_s_samples": walls,
        "ref_wall_s_samples": ref_walls,
        "setup_s_samples": setups,
        "elections_per_call": prep.elections,
        "ballots_per_call": prep.ballots,
    }
    return metrics, detail


def traced(prep, workdir: Path, checker: Checker) -> tuple[dict, dict]:
    """Self-check, one untraced CLI call, then the traced runner."""
    sys.path.insert(0, str(SRC))
    import tracing
    from stagevote import sim

    tr = tracing.Tracer()
    for ok, problem in tracing.self_check(tr, workdir):
        checker.record(ok, problem)

    sample, text = run_cli(prep, workdir)
    checker.check(sample["sha256"], sample["exit"], text)

    # The CLI process holds none of the benchmark's own objects (the
    # generated ballots above all); keep the collector from rescanning them.
    gc.collect()
    gc.freeze()
    if prep.kind == "tally":
        traced_text, status = tracing.traced_tally(tr, prep.csv_path)
    else:
        cfg = sim.config_from_json_dict(prep.sim_doc, seed_override=prep.seed)
        _, traced_text = tracing.traced_simulate(tr, cfg)
        status = 0  # cmd_simulate always exits 0
    checker.record((traced_text, status) == (text, sample["exit"]),
                   "traced runner output differs from the CLI's")

    spans_path = WORK / f"spans-{prep.name}.json"  # the latest traced run only
    tr.write(spans_path)
    metrics, detail = tracing.layer_metrics(tr, sample["wall_s"])
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    detail["spans"] = len(tr.spans)
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(ONE_BLAS_THREAD)  # before the traced run imports numpy
    if not (SRC / "stagevote" / "cli.py").is_file():
        print(f"error: no stagevote source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        prep = workloads.prepare(args.workload, seed, workdir)
        checker = Checker(prep)
        # The reference's outputs are checked too, but against themselves and
        # the workload's own check: golden.json follows the program.
        ref_checker = Checker(prep, use_golden=False)
        if args.trace:
            metrics, detail = traced(prep, workdir, checker)
        else:
            metrics, detail = measure(prep, workdir, args.seconds, checker, ref_checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = checker.problems + [f"reference: {p}" for p in ref_checker.problems]
    detail.update(workload=args.workload, seed=seed, golden=checker.golden,
                  problems=problems)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
