"""Golden CLI output: full stdout and exit status, byte for byte.

Each case runs ``stagevote.cli.main`` on a small input written to a
temporary directory and compares stdout with ``tests/golden/<case>.out``.
The expected files were recorded from the program before the three stage
table types were merged into one, so they pin the rendered tables and the
decision block exactly, not just a few substrings. ``study-grid-json`` runs
the default 126-config grid; it was recorded before stage tables cached
their float rows, statistics and tie order. ``study-crowd-json`` builds a
500-voter crowd with 2..8 hidden columns; it was recorded before the crowd
build fitted each distinct visible column set once and calibrated every
voter's noise in one batched bisection. ``desk-study-text`` runs the
shipped ``configs/desk_study.json`` (200 elections over the default grid);
it was recorded before the windowed decision stopped building its
report-only values; ``desk-study-seed5-json`` runs it at seed 5, whose
election 101 holds an exact variance tie, and was recorded before each
election decided the grid's windows and stages once per table.
``wide-windowed-json`` tallies ``tests/data/wide_roster.csv``
(ten real candidates, NULL and IDK, ballots cut after 0 to 6 stamps, so
the missing mass is split over 6 to 11 candidates); it was recorded before
the count summed integer numerators over one common denominator.
``wide-cut3-json`` tallies the same file cut at three preferences, so
the 24 rows with more than three stamps lose them and their missing rows
split over more candidates; it was recorded before the tally counted plain
stamp tuples instead of ``FractionalBallot`` objects.
``wide-frac-gamma-json`` adds a ``frac:0.3:0.2`` gamma rule to
``wide-windowed-json``, which closes the window at stage 3, before beta's
stage 4; it was recorded before ``GammaRule`` lost its named constructors.
``study-short-json`` runs ``tests/data/short_ballots.json`` (ten
candidates, 200 voters, ballots cut after 3 of 11 preferences, so
instant-runoff exhausts ballots and the count table has 3 rows); it was
recorded before each election counted its int rank matrix instead of
per-voter ballots. ``crowd-blocks-json`` runs ``tests/data/crowd_blocks.json``
(130 voters with 0 to 10 hidden columns, so the crowd spans three blocks,
the last one partial, and includes full-sight and intercept-only voters,
over the default grid); it was recorded before the crowd was written into
one voters x items matrix and its moments formed in blocks of voters.

The error cases compare stderr with ``tests/golden/<case>.err`` instead and
expect empty stdout. Their file repeats invalid ballots on non-adjacent
lines, so they pin the per-line report; they were recorded before the tally
validated each distinct ballot once instead of each line.

Re-record (only for an intended output change)::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stagevote.cli import main

from conftest import BETA_PATTERNS, ballots_from_patterns, concrete_csv_text

GOLDEN_DIR = Path(__file__).parent / "golden"
DESK_STUDY = Path(__file__).parent.parent / "configs" / "desk_study.json"
WIDE_CSV = Path(__file__).parent / "data" / "wide_roster.csv"
SHORT_STUDY = Path(__file__).parent / "data" / "short_ballots.json"
BLOCKS_STUDY = Path(__file__).parent / "data" / "crowd_blocks.json"

WINDOWED = ["--alpha", "0.5", "--beta", "0.3333", "--gamma", "any:0.6666",
            "--selector", "last"]


def _beta_csv() -> str:
    lines = ["voter_id,pref1,pref2,pref3"]
    for i, b in enumerate(ballots_from_patterns(BETA_PATTERNS)):
        lines.append(",".join([f"v{i}"] + list(b.prefs)))
    return "\n".join(lines) + "\n"


# Truncated ballots and IDK stamps, so the tables hold non-integer mass.
PARTIAL_CSV = """voter_id,pref1,pref2,pref3
v1,A,B,C
v2,B,,
v3,C,IDK,A
v4,A,,
v5,NULL,A,
v6,B,C,
v7,IDK,,
"""

PROTEST_CSV = "voter_id,pref1,pref2,pref3\n" + "".join(
    [f"p{i},NULL,A,B\n" for i in range(6)] + [f"q{i},A,NULL,B\n" for i in range(4)]
)

STUDY = {
    "numCandidates": 5,
    "numVoters": 10,
    "numElections": 4,
    "columnBlindness": 5,
    "crowdBuildMethod": {"name": "standardDistribution", "mean": 1500,
                         "standardDeviation": 300},
    "seed": 11,
    "datasetSize": 300,
    "algorithms": [
        {"alpha": 0.5, "selector": "first"},
        {"alpha": 0.5, "beta": 0.33, "gamma": "any:0.66", "selector": "min-entropy"},
    ],
}

# No "algorithms" key: the default 126-config grid runs on every election.
GRID_STUDY = {
    "numCandidates": 5,
    "numVoters": 12,
    "numElections": 3,
    "columnBlindness": 5,
    "crowdBuildMethod": {"name": "standardDistribution", "mean": 1500,
                         "standardDeviation": 300},
    "seed": 5,
    "datasetSize": 300,
}

# Shaped like the crowd-wide benchmark workload: 500 voters with 2..8 hidden
# columns, so many voters share a visible column set. JSON pins the crowd's
# valMeanSquaredErr to the last printed digit.
CROWD_STUDY = {
    "numCandidates": 10,
    "numVoters": 500,
    "numElections": 2,
    "columnBlindness": [2, 8],
    "crowdBuildMethod": {"name": "standardDistribution", "mean": 1500,
                         "standardDeviation": 400},
    "seed": 3,
    "algorithms": [
        {"alpha": 0.5, "beta": 0.33, "gamma": "any:0.66", "selector": "MaxVariance"},
    ],
}

# A duplicate-stamp tuple on lines 3, 6 and 9 and another on 7 and 10. With
# a roster that leaves out C and E, nearly every line is also unknown.
INVALID_CSV = """voter_id,pref1,pref2,pref3
v1,A,B,C
v2,A,A,B
v3,B,C,
v4,C,NULL,A
v5,A,A,B
v6,B,IDK,B
v7,C,A,
v8,A,A,B
v9,B,IDK,B
v10,E,A,
"""

INPUTS = {
    "concrete.csv": concrete_csv_text(),
    "beta.csv": _beta_csv(),
    "partial.csv": PARTIAL_CSV,
    "protest.csv": PROTEST_CSV,
    "study.json": json.dumps(STUDY),
    "grid.json": json.dumps(GRID_STUDY),
    "crowd.json": json.dumps(CROWD_STUDY),
    "invalid.csv": INVALID_CSV,
    "desk_study.json": DESK_STUDY.read_text(encoding="utf-8"),
    "wide.csv": WIDE_CSV.read_text(encoding="utf-8"),
    "short_ballots.json": SHORT_STUDY.read_text(encoding="utf-8"),
    "crowd_blocks.json": BLOCKS_STUDY.read_text(encoding="utf-8"),
}

# case name -> (argv with input file names, expected exit status)
CASES = {
    "concrete-basic-text": (["tally", "concrete.csv", "--alpha", "0.5"], 0),
    "concrete-basic-json": (["tally", "concrete.csv", "--alpha", "0.5",
                             "--format", "json"], 0),
    "concrete-two-prefs-roster": (["tally", "concrete.csv", "--num-prefs", "2",
                                   "--candidates", "X,A,B,C,D,NULL"], 0),
    "beta-windowed-text": (["tally", "beta.csv", *WINDOWED], 0),
    "beta-windowed-json-roster": (["tally", "beta.csv", *WINDOWED,
                                   "--candidates", "A,B,C,D,NULL",
                                   "--format", "json"], 0),
    "partial-basic-roster": (["tally", "partial.csv", "--alpha", "0.4",
                              "--candidates", "A,B,C,NULL,IDK"], 0),
    "partial-windowed-json": (["tally", "partial.csv", "--alpha", "0.4",
                               "--beta", "0.4", "--selector", "max-variance",
                               "--format", "json"], 0),
    "protest-windowed-text": (["tally", "protest.csv", "--alpha", "0.5",
                               "--beta", "0.3333"], 2),
    "wide-windowed-json": (["tally", "wide.csv", "--alpha", "0.4", "--beta", "0.45",
                            "--selector", "max-variance", "--format", "json"], 0),
    "wide-frac-gamma-json": (["tally", "wide.csv", "--alpha", "0.4", "--beta", "0.45",
                              "--gamma", "frac:0.3:0.2", "--selector", "max-variance",
                              "--format", "json"], 0),
    "wide-cut3-json": (["tally", "wide.csv", "--num-prefs", "3", "--format", "json"], 0),
    "study-text": (["simulate", "study.json"], 0),
    "study-grid-json": (["simulate", "grid.json", "--format", "json"], 0),
    "study-crowd-json": (["simulate", "crowd.json", "--format", "json"], 0),
    "desk-study-text": (["simulate", "desk_study.json"], 0),
    "desk-study-seed5-json": (["simulate", "desk_study.json", "--seed", "5",
                               "--format", "json"], 0),
    "study-short-json": (["simulate", "short_ballots.json", "--format", "json"], 0),
    "crowd-blocks-json": (["simulate", "crowd_blocks.json", "--format", "json"], 0),
}

# case name -> (argv, expected exit status); golden file holds stderr
ERROR_CASES = {
    "invalid-inferred": (["tally", "invalid.csv"], 1),
    "invalid-roster": (["tally", "invalid.csv", "--candidates", "A,B,NULL,IDK"], 1),
}


def run_case(name: str, workdir: Path) -> tuple[int, str, str]:
    argv, _ = {**CASES, **ERROR_CASES}[name]
    for fname, text in INPUTS.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    argv = [str(workdir / a) if a in INPUTS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_match_golden(name, tmp_path):
    code, out, _ = run_case(name, tmp_path)
    assert code == CASES[name][1]
    assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_stderr_and_exit_match_golden(name, tmp_path):
    code, out, err = run_case(name, tmp_path)
    assert code == ERROR_CASES[name][1]
    assert out == ""
    assert err == (GOLDEN_DIR / f"{name}.err").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for cases, suffix, stream in ((CASES, "out", 1), (ERROR_CASES, "err", 2)):
            for case in sorted(cases):
                status, *streams = run_case(case, Path(tmp))
                if status != cases[case][1]:
                    sys.exit(f"{case}: exit {status}, expected {cases[case][1]}")
                text = streams[stream - 1]
                (GOLDEN_DIR / f"{case}.{suffix}").write_text(text, encoding="utf-8")
                print(f"recorded {case} (exit {status}, {len(text)} bytes)")
