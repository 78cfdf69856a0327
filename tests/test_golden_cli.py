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
voter's noise in one batched bisection.

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

INPUTS = {
    "concrete.csv": concrete_csv_text(),
    "beta.csv": _beta_csv(),
    "partial.csv": PARTIAL_CSV,
    "protest.csv": PROTEST_CSV,
    "study.json": json.dumps(STUDY),
    "grid.json": json.dumps(GRID_STUDY),
    "crowd.json": json.dumps(CROWD_STUDY),
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
    "study-text": (["simulate", "study.json"], 0),
    "study-grid-json": (["simulate", "grid.json", "--format", "json"], 0),
    "study-crowd-json": (["simulate", "crowd.json", "--format", "json"], 0),
}


def run_case(name: str, workdir: Path) -> tuple[int, str]:
    argv, _ = CASES[name]
    for fname, text in INPUTS.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    argv = [str(workdir / a) if a in INPUTS else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_match_golden(name, tmp_path):
    code, out = run_case(name, tmp_path)
    assert code == CASES[name][1]
    assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            status, stdout = run_case(case, Path(tmp))
            if status != CASES[case][1]:
                sys.exit(f"{case}: exit {status}, expected {CASES[case][1]}")
            (GOLDEN_DIR / f"{case}.out").write_text(stdout, encoding="utf-8")
            print(f"recorded {case} (exit {status}, {len(stdout)} bytes)")
