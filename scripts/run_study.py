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
import json
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stagevote.sim import (  # noqa: E402
    LABEL_BEST_VOTER,
    LABEL_CROWD_MEAN,
    LABEL_CROWD_MEDIAN,
    LABEL_FPTP,
    LABEL_IRV,
    STAGED_PREFIX,
    SimConfigError,
    config_from_json_dict,
    run_simulation,
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", nargs="?", default=str(ROOT / "configs" / "compact_study.json"),
                        help="simulate JSON config (default: configs/compact_study.json)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    return parser.parse_args()


def load_configs(path, seeds):
    """One SimConfig per seed, read as ``stagevote simulate`` reads it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except OSError as exc:
        sys.exit(f"error: cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        sys.exit(f"error: invalid JSON in {path}: {exc}")
    # An ignored config key warns once per seed; print each message as one
    # ``warning:`` line, once, as ``stagevote simulate`` does.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            configs = [config_from_json_dict(doc, seed_override=seed) for seed in seeds]
        except SimConfigError as exc:
            sys.exit(f"error: bad config: {exc}")
        finally:
            for message in dict.fromkeys(str(warning.message) for warning in caught):
                print(f"warning: {message}", file=sys.stderr)
    # The head-to-head reads every baseline row and the best staged row.
    if not (configs[0].include_baselines and configs[0].effective_algorithms()):
        sys.exit("error: bad config: the head-to-head needs includeBaselines "
                 "and at least one algorithm")
    return configs


def main():
    args = parse_args()
    summary = []
    for cfg in load_configs(args.config, args.seeds):
        started = time.perf_counter()
        result = run_simulation(cfg)
        elapsed = time.perf_counter() - started
        print(f"=================== seed {cfg.seed} "
              f"({elapsed:.1f}s) ===================")
        print(result.to_text())
        print()
        metrics = result.metrics
        staged = [r for r in metrics.rows if r.algorithm.startswith(STAGED_PREFIX)]
        summary.append({
            "seed": cfg.seed,
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
