#!/usr/bin/env python3
"""Record the golden CLI outputs the benchmark checks its runs against.

    python3 perfbench/record_golden.py

For every workload, at the default seed and at the held-out seed, runs the
CLI once in a fresh process, checks the output with the workload's own
check and stores its sha256 and exit status in perfbench/golden.json.
Rerun only in a change that alters the benchmark's inputs, never in one
that claims a speed-up.
"""

import json
import shutil
import sys

import run
import workloads

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    workdir = run.WORK / "record-golden"
    workdir.mkdir(exist_ok=True)
    recorded = {}
    try:
        for name in workloads.NAMES:
            recorded[name] = {}
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                prep = workloads.prepare(name, seed, workdir)
                sample, text = run.run_cli(prep, workdir)
                problems = prep.check_output(text, sample["exit"])
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                recorded[name][str(seed)] = {"sha256": sample["sha256"],
                                             "exit": sample["exit"]}
                print(f"{name} seed {seed}: exit {sample['exit']} "
                      f"{sample['sha256'][:16]} ({sample['wall_s']:.2f}s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
           "workloads": recorded}
    run.GOLDEN.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
