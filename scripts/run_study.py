#!/usr/bin/env python3
"""Desk-scale comparative study across several master seeds.

Runs the staged-voting grid against plurality, instant-runoff, the crowd
comparators, and the best voter on a synthetic electorate, then prints a
per-seed results table plus a cross-seed head-to-head summary.

Examples:
    python scripts/run_study.py
    python scripts/run_study.py --seeds 1 2 3 --elections 500 --full-grid
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stagevote.select import GammaRule, SelectionConfig, Selector  # noqa: E402
from stagevote.sim import (  # noqa: E402
    LABEL_BEST_VOTER,
    LABEL_CROWD_MEAN,
    LABEL_CROWD_MEDIAN,
    LABEL_FPTP,
    LABEL_IRV,
    STAGED_PREFIX,
    SimConfig,
    run_simulation,
)

COMPACT_GRID = tuple(
    SelectionConfig(alpha=alpha, beta=beta, gamma=gamma, selector=selector)
    for alpha in (0.5, 0.66)
    for beta in (None, 0.33)
    for gamma in (GammaRule.none(), GammaRule.any_exceeds(0.66))
    for selector in (Selector.FIRST, Selector.LAST, Selector.MIN_ENTROPY,
                     Selector.MAX_VARIANCE)
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--voters", type=int, default=100)
    parser.add_argument("--candidates", type=int, default=10)
    parser.add_argument("--elections", type=int, default=200)
    parser.add_argument("--blindness", type=int, nargs="+", default=[5],
                        help="hidden features per voter: one value or lo hi")
    parser.add_argument("--quality-mean", type=float, default=1500.0)
    parser.add_argument("--quality-sd", type=float, default=400.0)
    parser.add_argument("--full-grid", action="store_true",
                        help="run every alpha/beta/gamma/selector combination")
    return parser.parse_args()


def main():
    args = parse_args()
    blindness = (args.blindness[0] if len(args.blindness) == 1
                 else (args.blindness[0], args.blindness[1]))
    algorithms = None if args.full_grid else COMPACT_GRID

    summary = []
    for seed in args.seeds:
        cfg = SimConfig(
            num_candidates=args.candidates, num_voters=args.voters,
            num_elections=args.elections, column_blindness=blindness,
            quality_mean=args.quality_mean, quality_sd=args.quality_sd,
            seed=seed, algorithms=algorithms,
        )
        started = time.perf_counter()
        result = run_simulation(cfg)
        elapsed = time.perf_counter() - started
        print(f"=================== seed {seed} "
              f"({elapsed:.1f}s) ===================")
        print(result.to_text())
        print()
        metrics = result.metrics
        staged = [r for r in metrics.rows if r.algorithm.startswith(STAGED_PREFIX)]
        summary.append({
            "seed": seed,
            "crowd_mean": metrics.row(LABEL_CROWD_MEAN).mean_winner_rank,
            "crowd_median": metrics.row(LABEL_CROWD_MEDIAN).mean_winner_rank,
            "best_voter": metrics.row(LABEL_BEST_VOTER).mean_winner_rank,
            "fptp": metrics.row(LABEL_FPTP).mean_winner_rank,
            "irv": metrics.row(LABEL_IRV).mean_winner_rank,
            "best_staged": min(r.mean_winner_rank for r in staged),
            "best_staged_label": min(staged, key=lambda r: r.mean_winner_rank).algorithm,
        })

    print("=================== head-to-head (meanWinnerRank) ===================")
    print(f"{'seed':>4}  {'crowdMean':>9}  {'crowdMed':>9}  {'bestVoter':>9}  "
          f"{'FPTP':>6}  {'IRV':>6}  {'bestStaged':>10}")
    for row in summary:
        print(f"{row['seed']:>4}  {row['crowd_mean']:>9.3f}  "
              f"{row['crowd_median']:>9.3f}  {row['best_voter']:>9.3f}  "
              f"{row['fptp']:>6.3f}  {row['irv']:>6.3f}  "
              f"{row['best_staged']:>10.3f}")
    crowd_wins = sum(1 for r in summary if r["crowd_mean"] < r["best_voter"])
    staged_wins = sum(1 for r in summary if r["best_staged"] <= r["fptp"])
    print()
    print(f"crowd-Mean beat bestVoter in {crowd_wins}/{len(summary)} seeds; "
          f"best staged config matched or beat FPTP in "
          f"{staged_wins}/{len(summary)}.")
    best = min(summary, key=lambda r: r["best_staged"])
    print(f"strongest staged variant overall: {best['best_staged_label']}")


if __name__ == "__main__":
    main()
