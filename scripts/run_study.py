#!/usr/bin/env python3
"""Comparative study of one simulate config across several master seeds.

Runs the JSON config ``stagevote simulate`` takes once per seed, each seed in
place of the config's own, and compares the staged variants with plurality,
instant-runoff, the crowd comparators and the best voter: a results table per
seed, then a cross-seed head-to-head summary. Every seed's config is built
before the first study runs; a bad one is one ``error:`` line, exit status 1.

Examples:
    python scripts/run_study.py  # configs/compact_study.json: 32 configs
    python scripts/run_study.py configs/desk_study.json --seeds 1 2 3  # full grid
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stagevote.cli import CliError, load_study, simulate  # noqa: E402
from stagevote.sim import (  # noqa: E402
    LABEL_BEST_VOTER,
    LABEL_CROWD_MEAN,
    LABEL_CROWD_MEDIAN,
    LABEL_FPTP,
    LABEL_IRV,
    STAGED_PREFIX,
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", nargs="?", default=str(ROOT / "configs" / "compact_study.json"),
                        help="simulate JSON config (default: configs/compact_study.json)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    return parser.parse_args()


# Head-to-head columns: (header, width, metrics row; None for the best staged one).
COLUMNS = (("crowdMean", 9, LABEL_CROWD_MEAN), ("crowdMed", 9, LABEL_CROWD_MEDIAN),
           ("bestVoter", 9, LABEL_BEST_VOTER), ("FPTP", 6, LABEL_FPTP), ("IRV", 6, LABEL_IRV),
           ("bestStaged", 10, None))


def study(configs):
    summary = []  # per seed: (seed, mean rank by column header, best staged label)
    for cfg in configs:
        started = time.perf_counter()
        result = simulate(cfg)
        elapsed = time.perf_counter() - started
        print(f"=================== seed {cfg.seed} "
              f"({elapsed:.1f}s) ===================")
        print(result.to_text())
        print()
        metrics = result.metrics  # rows sorted by mean rank: the first staged is best
        staged = next(r.algorithm for r in metrics.rows if r.algorithm.startswith(STAGED_PREFIX))
        summary.append((cfg.seed, {name: metrics.row(label or staged).mean_winner_rank
                                   for name, _, label in COLUMNS}, staged))

    print("=================== head-to-head (meanWinnerRank) ===================")
    print(f"{'seed':>4}" + "".join(f"  {name:>{w}}" for name, w, _ in COLUMNS))
    for seed, ranks, _ in summary:
        print(f"{seed:>4}" + "".join(f"  {ranks[name]:>{w}.3f}" for name, w, _ in COLUMNS))
    crowd_wins = sum(1 for _, r, _ in summary if r["crowdMean"] < r["bestVoter"])
    staged_wins = sum(1 for _, r, _ in summary if r["bestStaged"] <= r["FPTP"])
    print()
    print(f"crowd-Mean beat bestVoter in {crowd_wins}/{len(summary)} seeds; "
          f"best staged config matched or beat FPTP in "
          f"{staged_wins}/{len(summary)}.")
    best = min(summary, key=lambda row: row[1]["bestStaged"])
    print(f"strongest staged variant overall: {best[2]}")


def main():
    args = parse_args()
    try:
        configs = load_study(args.config, args.seeds)
        # The head-to-head reads every baseline row and the best staged row.
        if not (configs[0].include_baselines and configs[0].effective_algorithms()):
            raise CliError("bad config: the head-to-head needs includeBaselines "
                           "and at least one algorithm")
        study(configs)
    except CliError as exc:
        sys.exit(f"error: {exc}")


if __name__ == "__main__":
    main()
