"""scripts/run_study.py: one simulate config run over several seeds."""

import itertools
import json
import os
import runpy
import subprocess
import sys

import pytest

from stagevote import sim
from stagevote.select import GammaRule, SelectionConfig, Selector
from stagevote.sim import config_from_json_dict

from test_cli import src_env

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "run_study.py")

TINY = {
    "numCandidates": 5,
    "numVoters": 10,
    "numElections": 5,
    "columnBlindness": 5,
    "crowdBuildMethod": {"name": "standardDistribution", "mean": 1500,
                         "standardDeviation": 300},
    "seed": 11,
    "datasetSize": 300,
    "algorithms": [
        {"alpha": 0.5, "selector": "First"},
        {"alpha": 0.5, "beta": 0.33, "gamma": "any:0.66", "selector": "MinEntropy"},
    ],
}


def run_study(*argv):
    proc = subprocess.run([sys.executable, SCRIPT, *argv], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_tiny_config_over_two_seeds(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    code, out, err = run_study(str(path), "--seeds", "1", "2")
    assert (code, err) == (0, "")
    banners = [line for line in out.splitlines() if line.startswith("=" * 19 + " seed ")]
    assert [b.split()[2] for b in banners] == ["1", "2"]
    head = out.split("head-to-head (meanWinnerRank)", 1)[1].splitlines()
    assert head[1].split() == ["seed", "crowdMean", "crowdMed", "bestVoter", "FPTP", "IRV",
                               "bestStaged"]
    assert [row.split()[0] for row in head[2:4]] == ["1", "2"]
    assert head[4] == ""
    assert head[-1].startswith("strongest staged variant overall: StagedVote <")


def test_ignored_key_warns_one_line_whatever_the_seed_count(tmp_path):
    path = tmp_path / "workers.json"
    path.write_text(json.dumps(dict(TINY, workers=4)))
    code, out, err = run_study(str(path), "--seeds", "1", "2", "3")
    assert (code, err) == (0, "warning: config key 'workers' is accepted but ignored\n")
    assert "strongest staged variant overall: " in out


@pytest.mark.parametrize("edit", [
    {"numVoters": 0},
    # The head-to-head reads the baseline rows.
    {"includeBaselines": False},
    {"algorithms": []},
])
def test_bad_config_is_one_error_line(tmp_path, edit):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(TINY, **edit)))
    code, out, err = run_study(str(path), "--seeds", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: bad config: ") and err.count("\n") == 1


def test_missing_config_is_one_error_line(tmp_path):
    path = tmp_path / "absent.json"
    code, out, err = run_study(str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    # In-process and raised, not provoked: a real huge allocation can
    # succeed under overcommit and take the machine's memory.
    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    monkeypatch.setattr(sim, "run_simulation", out_of_memory)
    monkeypatch.setattr(sys, "argv", [SCRIPT, str(path), "--seeds", "1", "2"])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    with pytest.raises(SystemExit) as caught:
        runpy.run_path(SCRIPT, run_name="__main__")
    # sys.exit prints the message as one stderr line and exits with status 1.
    assert caught.value.code == ("error: simulate ran out of memory "
                                 "(Unable to allocate 7.28 TiB for an array)")
    assert capsys.readouterr() == ("", "")


def test_compact_study_is_the_compact_grid():
    """The 32 configs the script ran before it read a config file, in order."""
    with open(os.path.join(ROOT, "configs", "compact_study.json"), encoding="utf-8") as fh:
        cfg = config_from_json_dict(json.load(fh))
    grid = [SelectionConfig(alpha=alpha, beta=beta, gamma=gamma, selector=selector)
            for alpha, beta, gamma, selector in itertools.product(
                (0.5, 0.66), (None, 0.33), (GammaRule(), GammaRule(threshold=0.66)),
                (Selector.FIRST, Selector.LAST, Selector.MIN_ENTROPY, Selector.MAX_VARIANCE))]
    assert [c.label() for c in cfg.algorithms] == [c.label() for c in grid]
    assert cfg.algorithms == tuple(grid)
