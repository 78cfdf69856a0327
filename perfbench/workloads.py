"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload is one ``stagevote`` CLI call. Inputs are made from the
benchmark seed only: the tally workload gets a generated ballot CSV, the
simulate workloads get a fixed config plus ``--seed``. Sizes keep one CLI
call between about half a second and two seconds on a 2-vCPU VM, so a run
of ``--seconds 40`` takes nine or more samples of the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import ballotgen

TALLY_BALLOTS = 20_000
# The windowed rule, so the tally runs the cutoff, selector and NULL-veto path.
TALLY_RULE = {"alpha": 0.5, "beta": 0.33, "gamma": "any:0.66", "selector": "max-variance"}

CROWD_METHOD = {"name": "standardDistribution", "mean": 1500, "standardDeviation": 400}
DEFAULT_GRID_SIZE = 126  # sim.default_algorithm_grid(): 3 alphas x 2 betas x 3 gammas x 7 selectors
BASELINE_ROWS = 5  # FPTP, IRV, crowd mean, crowd median, best voter

SIMULATE_CONFIGS = {
    # configs/desk_study.json with 5 elections per call instead of 200.
    "desk-grid": {
        "numCandidates": 10, "numVoters": 100, "numElections": 5,
        "columnBlindness": 5, "crowdBuildMethod": CROWD_METHOD,
    },
    "crowd-wide": {
        "numCandidates": 10, "numVoters": 500, "numElections": 10,
        "columnBlindness": [2, 8], "crowdBuildMethod": CROWD_METHOD,
        "algorithms": [{"alpha": 0.5, "beta": 0.33, "gamma": "any:0.66",
                        "selector": "MaxVariance"}],
    },
}

NAMES = ("desk-grid", "tally-20k", "crowd-wide")


def tally_argv(csv_path) -> list[str]:
    rule = TALLY_RULE
    return ["tally", str(csv_path), "--alpha", str(rule["alpha"]),
            "--beta", str(rule["beta"]), "--gamma", rule["gamma"],
            "--selector", rule["selector"]]


@dataclass
class Prepared:
    """One workload's inputs for one seed, written under a work directory."""

    name: str
    seed: int
    argv: list[str]
    setup_args: list[str]
    elections: int
    ballots: int
    csv_path: Optional[Path] = None
    tally_ballots: Optional[list] = None
    sim_doc: Optional[dict] = None

    @property
    def kind(self) -> str:
        return self.argv[0]

    def check_output(self, text: str, status: int) -> list[str]:
        """Problems found in one CLI output, judged without the program."""
        if self.kind == "tally":
            return check_tally(text, status, self.tally_ballots)
        return check_simulate(text, status, self.sim_doc, self.seed)


def prepare(name: str, seed: int, workdir: Path) -> Prepared:
    if name == "tally-20k":
        ballots = ballotgen.generate(seed, TALLY_BALLOTS)
        path = workdir / "ballots.csv"
        ballotgen.write_csv(path, ballots)
        return Prepared(name=name, seed=seed, argv=tally_argv(path), setup_args=[],
                        elections=1, ballots=len(ballots), csv_path=path,
                        tally_ballots=ballots)
    doc = SIMULATE_CONFIGS[name]
    path = workdir / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return Prepared(
        name=name, seed=seed,
        argv=["simulate", str(path), "--seed", str(seed)],
        setup_args=[str(path), str(seed)],
        elections=doc["numElections"],
        ballots=doc["numElections"] * doc["numVoters"],
        sim_doc=doc,
    )


def _fmt(value) -> str:
    f = float(value)
    return str(int(f)) if f == int(f) else f"{f:.2f}"


def check_tally(text: str, status: int, ballots) -> list[str]:
    """The printed vote counts must equal the oracle's, and the exit status
    must say whether NULL won."""
    lines = text.splitlines()
    if "Vote Counts" not in lines:
        return ["no Vote Counts table in the output"]
    at = lines.index("Vote Counts")
    problems = []
    if lines[at + 1].split() != list(ballotgen.CANDIDATES):
        problems.append(f"count table columns {lines[at + 1].split()}")
    expected = ballotgen.oracle_counts(ballots, len(ballotgen.CANDIDATES))
    for i, row in enumerate(expected, start=1):
        want = [f"Preference{i}"] + [_fmt(v) for v in row]
        got = lines[at + 1 + i].split() if at + 1 + i < len(lines) else []
        if got != want:
            problems.append(f"count row {i}: printed {got}, oracle {want}")
    winners = [line.split(": ", 1)[1] for line in lines if line.startswith("winner: ")]
    if len(winners) != 1:
        problems.append("no single winner line")
    elif status != (2 if winners[0] == ballotgen.NULL else 0):
        problems.append(f"exit status {status} with winner {winners[0]}")
    return problems


def check_simulate(text: str, status: int, doc: dict, seed: int) -> list[str]:
    """The echo must repeat the config and seed, and the results table must
    hold one row per algorithm with ranks and rates in range, best first."""
    problems = [] if status == 0 else [f"exit status {status}"]
    lines = text.splitlines()
    echo = dict(line.split(" : ", 1) for line in lines if " : " in line)
    for key in ("numCandidates", "numVoters", "numElections"):
        if echo.get(key) != str(doc[key]):
            problems.append(f"echo {key}={echo.get(key)!r}, config {doc[key]!r}")
    if echo.get("seed") != str(seed):
        problems.append(f"echo seed={echo.get('seed')!r}, expected {seed}")
    try:
        start = lines.index("Algorithms") + 1
        stop = lines.index("", start)
    except ValueError:
        return problems + ["results table not found"]
    rows = [line.rsplit(None, 3) for line in lines[start:stop]]
    staged = len(doc.get("algorithms", ())) or DEFAULT_GRID_SIZE
    if len(rows) != staged + BASELINE_ROWS:
        problems.append(f"{len(rows)} result rows, expected {staged + BASELINE_ROWS}")
    if sum(1 for r in rows if r[0].startswith("StagedVote ")) != staged:
        problems.append("wrong number of staged rows")
    ranks = [float(r[1]) for r in rows]
    if ranks != sorted(ranks):
        problems.append("results not sorted by mean rank")
    if not all(1 <= x <= doc["numCandidates"] + 1 for x in ranks):
        problems.append("mean rank out of range")
    if not all(0 <= float(x) <= 1 for r in rows for x in r[2:]):
        problems.append("rate out of range")
    return problems
