"""Command-line interface: flags, formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stagevote import cli
from stagevote.cli import main

from conftest import BETA_PATTERNS, ballots_from_patterns, concrete_csv_text


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))


@pytest.fixture
def concrete_csv(tmp_path):
    path = tmp_path / "concrete.csv"
    path.write_text(concrete_csv_text())
    return str(path)


@pytest.fixture
def beta_csv(tmp_path):
    lines = ["voter_id,pref1,pref2,pref3"]
    for i, b in enumerate(ballots_from_patterns(BETA_PATTERNS)):
        lines.append(",".join([f"v{i}"] + list(b.prefs)))
    path = tmp_path / "beta.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def sim_config(tmp_path):
    doc = {
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
            {"alpha": 0.5, "beta": 0.33, "gamma": "any:0.66",
             "selector": "min-entropy"},
        ],
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestTally:
    def test_concrete_tables_and_winner(self, concrete_csv):
        code, out, err = run_cli("tally", concrete_csv, "--alpha", "0.5")
        assert code == 0
        assert "Vote Counts" in out
        assert "Processed Vote Counts" in out
        assert "Score of Candidates" in out
        assert "winner: X" in out
        assert "stage: 2" in out
        assert "score: 100" in out

    def test_inferred_roster_order(self, concrete_csv):
        code, out, _ = run_cli("tally", concrete_csv)
        header = [l for l in out.splitlines() if l.strip().startswith("A")][0]
        assert header.split() == ["A", "B", "C", "D", "X", "NULL"]

    def test_windowed_flags(self, beta_csv):
        code, out, _ = run_cli(
            "tally", beta_csv, "--alpha", "0.5", "--beta", "0.3333",
            "--gamma", "any:0.6666", "--selector", "last",
        )
        assert code == 0
        assert "algorithm: BetaGamma" in out
        assert "winner: A" in out
        assert "score: 65" in out
        assert "firstStageByAlpha: 2" in out
        assert "lastStageByBeta: 2" in out

    def test_json_matches_text(self, concrete_csv):
        code, text_out, _ = run_cli("tally", concrete_csv, "--alpha", "0.5")
        code2, json_out, _ = run_cli("tally", concrete_csv, "--alpha", "0.5",
                                     "--format", "json")
        assert code == code2 == 0
        doc = json.loads(json_out)
        assert doc["decision"]["winner"] == "X"
        assert doc["decision"]["stage"] == 2
        assert doc["decision"]["score"] == 100.0
        assert doc["scores"]["stages"][1][4] == 100.0
        assert "winner: X" in text_out

    def test_null_winner_exit_code(self, tmp_path):
        path = tmp_path / "protest.csv"
        rows = ["voter_id,pref1,pref2,pref3"]
        rows += [f"p{i},NULL,A,B" for i in range(6)]
        rows += [f"q{i},A,NULL,B" for i in range(4)]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli("tally", str(path), "--alpha", "0.5",
                               "--beta", "0.3333")
        assert code == 2
        assert "winner: NULL" in out

    def test_byte_order_mark_accepted(self, tmp_path):
        text = concrete_csv_text()
        plain = tmp_path / "plain.csv"
        plain.write_text(text, encoding="utf-8")
        marked = tmp_path / "marked.csv"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = run_cli("tally", str(plain), "--format", "json")
        assert expected[0] == 0
        assert run_cli("tally", str(marked), "--format", "json") == expected

    def test_unreadable_file(self):
        code, _, err = run_cli("tally", "/nonexistent.csv")
        assert code == 1
        assert "error:" in err

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("voter_id,pref1\n")
        code, _, err = run_cli("tally", str(path))
        assert code == 1
        assert "no ballots" in err

    def test_invalid_ballots_listed_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("voter_id,pref1,pref2\nv1,A,A\nv2,A,B\n")
        code, _, err = run_cli("tally", str(path))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("data, line", [
        (b"voter_id,pref1\nv1,A\nv2,\xff\n", 3),
        (b"\xef\xbb\xbfvoter_id,pref1\r\nv1,A\xc3\r\nv2,B\r\n", 2),
        (b"voter_id,pref\xe91\nv1,A\n", 1),
    ])
    def test_invalid_utf8_is_a_line_error(self, tmp_path, data, line):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        code, out, err = run_cli("tally", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: line {line}: not valid UTF-8")
        assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_invalid_ballots_listed_from_a_pipe(self, tmp_path):
        # The error pass re-reads the input, which a pipe cannot do.
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        text = "voter_id,pref1,pref2\nv1,A,A\nv2,A,B\nv3,A,A\n"
        threading.Thread(target=path.write_text, args=(text,), daemon=True).start()
        code, out, err = run_cli("tally", str(path))
        assert code == 1
        assert out == ""
        assert err == ("error: invalid ballots:\n"
                       "  line 2: candidate 'A' stamped twice (preferences 1 and 2)\n"
                       "  line 4: candidate 'A' stamped twice (preferences 1 and 2)\n")

    def test_checks_and_expands_each_distinct_tuple_once(self, tmp_path, monkeypatch):
        calls: Counter = Counter()
        for name in ("validate_ballot", "expand_incomplete"):
            def counted(ballot, *args, real=getattr(cli, name), name=name):
                calls[name, ballot.prefs] += 1
                return real(ballot, *args)
            monkeypatch.setattr(cli, name, counted)
        # Five distinct tuples over 60 voters, interleaved; with two rows
        # counted, A,B,C and A,B,D expand to the same ballot.
        tuples = ["A,B,C", "B,,", "A,B,D", "NULL,A,", "A,B,C", "C,IDK,B"]
        rows = [f"v{i},{tuples[i % len(tuples)]}" for i in range(60)]
        path = tmp_path / "repeats.csv"
        path.write_text("voter_id,pref1,pref2,pref3\n" + "\n".join(rows) + "\n")
        code, out, _ = run_cli("tally", str(path), "--num-prefs", "2", "--format", "json")
        assert code == 0
        distinct = {tuple(c for c in t.split(",") if c) for t in tuples}
        assert len(distinct) == 5
        assert calls == Counter({(name, prefs): 1 for prefs in distinct
                                 for name in ("validate_ballot", "expand_incomplete")})
        counts = json.loads(out)["counts"]
        assert counts["n"] == 60
        assert counts["candidates"] == ["A", "B", "C", "D", "NULL"]
        # Ten voters per tuple slot; a gap splits its ten over the unstamped.
        assert counts["preferences"] == [[30.0, 10.0, 10.0, 0.0, 10.0],
                                         [15.0, 32.5, 2.5, 5.0, 5.0]]

    def test_dressed_rows_tally_like_plain_rows(self, tmp_path):
        header = "voter_id,pref1,pref2\n"
        dressed, plain = tmp_path / "dressed.csv", tmp_path / "plain.csv"
        dressed.write_text(header + 'v1,A,B\nv2, A , B\nv3,"A",B\n')
        plain.write_text(header + "v1,A,B\nv2,A,B\nv3,A,B\n")
        for flags in ([], ["--format", "json"]):
            assert run_cli("tally", str(dressed), *flags) == run_cli("tally", str(plain), *flags)

    def test_invalid_listing_names_every_dressed_variant(self, tmp_path):
        path = tmp_path / "dressed-bad.csv"
        path.write_text('voter_id,pref1,pref2\nv1,A,A\nv2,B,A\nv3, A , A\n'
                        'v4,"A",A\nv5,A,A\n')
        code, out, err = run_cli("tally", str(path))
        assert (code, out) == (1, "")
        bad = "candidate 'A' stamped twice (preferences 1 and 2)"
        assert err == ("error: invalid ballots:\n"
                       + "".join(f"  line {n}: {bad}\n" for n in (2, 4, 5, 6)))

    def test_inline_roster_wins_with_warning(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("voter_id,pref1,pref2\nv1,A,Z\nv2,A,B\n")
        code, _, err = run_cli("tally", str(path), "--candidates", "A,B,NULL")
        assert code == 1
        assert "not on the roster" in err  # warning names the conflict
        assert "Z" in err

    def test_header_cell_over_csv_field_limit(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("voter_id," + "x" * 140_000 + "\nv1,A\n")
        code, out, err = run_cli("tally", str(path))
        assert code == 1
        assert out == ""
        assert "line 1:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["nan", "2", "-1"])
    def test_basic_rule_rejects_alpha_out_of_range(self, concrete_csv, alpha):
        code, out, err = run_cli("tally", concrete_csv, "--alpha", alpha)
        assert code == 1
        assert out == ""
        assert "alpha must be in [0, 1]" in err

    def test_bad_flag_value(self, concrete_csv):
        code, _, err = run_cli("tally", concrete_csv, "--gamma", "bogus")
        assert code == 1
        assert "gamma" in err

    def test_reduced_stage_count(self, concrete_csv):
        # Stage reduction: tally only the first two preference rows.
        code, out, _ = run_cli("tally", concrete_csv, "--num-prefs", "2")
        assert code == 0
        assert "Stage3" not in out
        assert "winner: X" in out and "stage: 2" in out


# (key, value, message): a bad value for one key of the sim_config document
# and the whole stderr line it gives. Stagevote words every message itself,
# so each reads the same on every Python version.
BAD_CONFIG_VALUES = [
    ("columnBlindness", "a", "columnBlindness must be a whole number, got 'a'"),
    # Once Python's own int() text, worded unlike it from 3.11 on.
    ("columnBlindness", None, "columnBlindness must be a whole number, got None"),
    ("columnBlindness", [1, "x"], "columnBlindness must be a whole number, got 'x'"),
    ("crowdBuildMethod", {"mean": "abc"},
     "crowdBuildMethod.mean must be a finite number, got 'abc'"),
    ("crowdBuildMethod", {"mean": 1500, "standardDeviation": None},
     "crowdBuildMethod.standardDeviation must be a finite number, got None"),
    ("numPrefs", 2.5, "numPrefs must be a whole number, got 2.5"),
    # Fractional numbers in integer keys: int() would truncate them.
    ("datasetSize", 200.5, "datasetSize must be a whole number, got 200.5"),
    ("numVoters", 4.7, "numVoters must be a whole number, got 4.7"),
    ("seed", 1.9, "seed must be a whole number, got 1.9"),
    ("numElections", 2.5, "numElections must be a whole number, got 2.5"),
    ("columnBlindness", 2.5, "columnBlindness must be a whole number, got 2.5"),
    ("columnBlindness", [2, 4.5], "columnBlindness must be a whole number, got 4.5"),
    # Keys once taken on trust: a string is truthy.
    ("includeBaselines", "no", "includeBaselines must be true or false, got 'no'"),
    # A string entry once had its characters named as unknown keys.
    ("algorithms", ["alpha"], "algorithms[0] must be an object, got 'alpha'"),
    ("numVoters", True, "numVoters must be a whole number, got True"),
    # Quoted numbers once loaded as if they were numbers.
    ("numCandidates", "5", "numCandidates must be a whole number, got '5'"),
    ("numVoters", "12", "numVoters must be a whole number, got '12'"),
    ("seed", "3", "seed must be a whole number, got '3'"),
    ("numPrefs", "3", "numPrefs must be a whole number, got '3'"),
    ("crowdBuildMethod", {"mean": "1500"},
     "crowdBuildMethod.mean must be a finite number, got '1500'"),
    ("crowdBuildMethod", {"mean": 1500, "standardDeviation": "300"},
     "crowdBuildMethod.standardDeviation must be a finite number, got '300'"),
    ("crowdBuildMethod", {"mean": True},
     "crowdBuildMethod.mean must be a finite number, got True"),
    ("algorithms", [{"alpha": "0.5"}],
     "algorithms[0]: alpha must be a finite number, got '0.5'"),
    ("algorithms", [{"alpha": True}],
     "algorithms[0]: alpha must be a finite number, got True"),
    ("algorithms", [{"alpha": 0.5, "beta": "0.33"}],
     "algorithms[0]: beta must be a finite number, got '0.33'"),
    # An algorithms entry takes alpha, beta, gamma and selector only.
    ("algorithms", [{"alpha": 0.5, "selecter": "Last"}],
     "algorithms[0]: unknown keys: selecter"),
    ("algorithms", [5], "algorithms[0] must be an object, got 5"),
    # json reads NaN and Infinity; they once ran and printed inf MSE rows.
    ("crowdBuildMethod", {"mean": float("nan")},
     "crowdBuildMethod.mean must be a finite number, got nan"),
    ("crowdBuildMethod", {"mean": float("inf")},
     "crowdBuildMethod.mean must be a finite number, got inf"),
    ("crowdBuildMethod", {"mean": 1500, "standardDeviation": float("inf")},
     "crowdBuildMethod.standardDeviation must be a finite number, got inf"),
    # A negative seed once loaded and ended in numpy's traceback.
    ("seed", -1, "seed must be >= 0, got -1"),
    # Echoed keys once taken on trust: a list was printed as the name.
    ("dataSetName", [1, 2], "dataSetName must be a string, got [1, 2]"),
    ("predictedFeature", 7, "predictedFeature must be a string, got 7"),
    # JSON true/false once read as the gamma thresholds 1.0 and 0.0.
    ("algorithms", [{"alpha": 0.5, "gamma": True}],
     "algorithms[0]: bad gamma spec True; use any:G, frac:F:G or count:C:G"),
    ("algorithms", [{"alpha": 0.5, "gamma": False}],
     "algorithms[0]: bad gamma spec False; use any:G, frac:F:G or count:C:G"),
    # A misspelt key was once dropped, and the crowd's spread read as 0.
    ("crowdBuildMethod", {"mean": 1500, "standardDeviaton": 400},
     "crowdBuildMethod: unknown keys: standardDeviaton"),
]


class TestSimulate:
    def test_runs_and_sorts(self, sim_config):
        code, out, _ = run_cli("simulate", sim_config)
        assert code == 0
        assert out.startswith("numCandidates : 5")
        assert "========= SIMULATION RESULTS ========" in out
        assert "meanWinnerRank" in out
        assert "crowd-Mean" in out
        ranks = []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 4 and parts[-3].replace(".", "").isdigit():
                ranks.append(float(parts[-3]))
        assert len(ranks) == 7  # 2 staged configs + 5 baselines
        assert ranks == sorted(ranks)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"numCandidates": 5}))
        code, _, err = run_cli("simulate", str(path))
        assert code == 1
        assert "numVoters" in err

    @pytest.mark.parametrize("key, value", [(k, v) for k, v, _ in BAD_CONFIG_VALUES])
    def test_bad_value_is_a_config_error(self, sim_config, tmp_path, key, value):
        message = next(m for k, v, m in BAD_CONFIG_VALUES if k == key and v is value)
        doc = json.loads(open(sim_config).read())
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("simulate", str(path)) == (1, "", f"error: bad config: {message}\n")

    def test_unknown_algorithm_keys_are_named(self, sim_config, tmp_path):
        doc = json.loads(open(sim_config).read())
        doc["algorithms"] = [{"alpha": 0.5, "stopBefore": True, "selecter": "Last"}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("simulate", str(path)) == (
            1, "", "error: bad config: algorithms[0]: unknown keys: selecter, stopBefore\n")

    def test_non_object_algorithm_entry_is_named(self, sim_config, tmp_path):
        doc = json.loads(open(sim_config).read())
        doc["algorithms"] = [{"alpha": 0.5}, "alpha"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("simulate", str(path)) == (
            1, "", "error: bad config: algorithms[1] must be an object, got 'alpha'\n")

    def test_repeated_algorithm_entry_is_named(self, sim_config, tmp_path):
        doc = json.loads(open(sim_config).read())
        doc["algorithms"] = [{"alpha": 0.5, "selector": "first"}, {"alpha": 0.8},
                             {"alpha": 0.5}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("simulate", str(path)) == (
            1, "", "error: bad config: algorithms[2] repeats algorithms[0]\n")

    def test_byte_order_mark_is_accepted(self, sim_config, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + open(sim_config, "rb").read())
        assert run_cli("simulate", str(path)) == run_cli("simulate", sim_config)

    def test_non_utf8_config_is_one_error_line(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dataSetName": "caf\xe9"}')
        assert run_cli("simulate", str(path)) == (
            1, "", f"error: invalid JSON in {path}: 'utf-8' codec can't decode byte 0xe9 "
                   "in position 20: invalid continuation byte\n")

    def test_deeply_nested_config_is_one_error_line(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert run_cli("simulate", str(path)) == (
            1, "", f"error: invalid JSON in {path}: maximum recursion depth exceeded "
                   "while decoding a JSON array from a unicode string\n")

    def test_whole_valued_floats_load_as_integers(self, sim_config, tmp_path):
        doc = json.loads(open(sim_config).read())
        doc.update({"datasetSize": 300.0, "numVoters": 10.0, "seed": 11.0,
                    "numElections": 4.0, "columnBlindness": 5.0})
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(doc))
        assert run_cli("simulate", str(path)) == run_cli("simulate", sim_config)

    def test_include_baselines_false_drops_baseline_rows(self, sim_config, tmp_path):
        doc = json.loads(open(sim_config).read())
        path = tmp_path / "nobase.json"
        path.write_text(json.dumps(dict(doc, includeBaselines=False)))
        code, out, _ = run_cli("simulate", str(path))
        assert code == 0
        assert "crowd-Mean" not in out

    def test_byte_identical_reruns(self, sim_config):
        first = run_cli("simulate", sim_config)
        second = run_cli("simulate", sim_config)
        assert first == second

    def test_serial_equals_parallel(self, sim_config):
        serial = run_cli("simulate", sim_config, "--workers", "1")
        parallel = run_cli("simulate", sim_config, "--workers", "3")
        assert serial == parallel

    def test_workers_flag_is_ignored_with_a_warning(self, sim_config):
        code, out, err = run_cli("simulate", sim_config, "--workers", "3")
        assert (code, out) == run_cli("simulate", sim_config)[:2]
        assert err == "warning: --workers is ignored; elections run serially\n"

    def test_workers_key_is_ignored_with_a_warning(self, sim_config, tmp_path):
        doc = json.loads(open(sim_config).read())
        path = tmp_path / "workers.json"
        path.write_text(json.dumps(dict(doc, workers=2)))
        code, out, err = run_cli("simulate", str(path))
        assert (code, out) == run_cli("simulate", sim_config)[:2]
        assert err == "warning: config key 'workers' is accepted but ignored\n"

    def test_ignored_keys_warn_one_line_each_under_w_error(self, sim_config, tmp_path):
        doc = json.loads(open(sim_config).read())
        path = tmp_path / "ignored.json"
        path.write_text(json.dumps(dict(doc, workers=2, epochs=133)))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "stagevote.cli", "simulate", str(path)],
            capture_output=True, text=True, env=src_env(), check=False)
        assert (proc.returncode, proc.stdout) == run_cli("simulate", sim_config)[:2]
        assert proc.stderr == ("warning: config key 'epochs' is accepted but ignored\n"
                               "warning: config key 'workers' is accepted but ignored\n")

    def test_warnings_printed_before_a_config_error(self, sim_config, tmp_path):
        doc = json.loads(open(sim_config).read())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(doc, workers=2, numVoters=-1)))
        code, out, err = run_cli("simulate", str(path))
        assert (code, out) == (1, "")
        first, second = err.splitlines()
        assert first == "warning: config key 'workers' is accepted but ignored"
        assert second.startswith("error: bad config: ")

    def test_five_thousand_digit_integer_is_one_error_line(self, sim_config, tmp_path):
        # Python 3.11+ refuses it as JSON; older ones load it, and the
        # config refuses it. Either way: one "error:" line.
        doc = json.loads(open(sim_config).read())
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(dict(doc, numVoters="DIGITS")).replace(
            '"DIGITS"', "9" * 5000))
        code, out, err = run_cli("simulate", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_seed_override_changes_output(self, sim_config):
        base = run_cli("simulate", sim_config)
        other = run_cli("simulate", sim_config, "--seed", "123")
        assert base != other

    def test_env_seed_default(self, sim_config, tmp_path, monkeypatch):
        doc = json.loads(open(sim_config).read())
        doc.pop("seed")
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli("simulate", str(path))
        assert code == 1 and "seed" in err
        monkeypatch.setenv("STAGEVOTE_SEED", "11")
        env_run = run_cli("simulate", str(path))
        assert env_run[0] == 0
        assert env_run == run_cli("simulate", sim_config)

    def test_negative_seed_override_is_a_config_error(self, sim_config, monkeypatch):
        assert run_cli("simulate", sim_config, "--seed", "-1") == (
            1, "", "error: bad config: seed must be >= 0, got -1\n")
        monkeypatch.setenv("STAGEVOTE_SEED", "-3")
        assert run_cli("simulate", sim_config) == (
            1, "", "error: bad config: seed must be >= 0, got -3\n")

    @pytest.mark.parametrize("exc, detail", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "no detail"),
    ])
    def test_out_of_memory_is_one_error_line(self, sim_config, monkeypatch, exc, detail):
        # Raised, not provoked: a real huge allocation can succeed under
        # overcommit and take the machine's memory.
        from stagevote import sim

        def out_of_memory(cfg):
            raise exc

        monkeypatch.setattr(sim, "run_simulation", out_of_memory)
        assert run_cli("simulate", sim_config) == (
            1, "", f"error: simulate ran out of memory ({detail})\n")

    def test_json_format_cross_checks_text(self, sim_config):
        _, text_out, _ = run_cli("simulate", sim_config)
        _, json_out, _ = run_cli("simulate", sim_config, "--format", "json")
        doc = json.loads(json_out)
        for row in doc["results"]:
            line = next(l for l in text_out.splitlines()
                        if l.startswith(row["algorithm"]))
            assert f"{row['meanWinnerRank']:.3f}" in line
            assert f"{row['rateTrueWinners']:.3f}" in line


class TestMinStages:
    def test_worked_example(self):
        code, out, _ = run_cli("min-stages", "100", "5", "0.5")
        assert code == 0
        assert out.strip() == "3"

    def test_tiny_alpha(self):
        assert run_cli("min-stages", "10", "2", "0.01")[1].strip() == "1"

    def test_two_thirds_twenty(self):
        assert run_cli("min-stages", "1", "20", "0.66")[1].strip() == "14"

    def test_bad_alpha(self):
        code, _, err = run_cli("min-stages", "10", "5", "1.0")
        assert code == 1
        assert "alpha" in err
        assert run_cli("min-stages", "10", "5", "nan") == (
            1, "", "error: alpha must be in (0, 1)\n")

    def test_non_number_alpha_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exit_info, redirect_stderr(io.StringIO()) as err:
            main(["min-stages", "10", "5", "abc"])
        assert exit_info.value.code == 2
        assert "argument alpha: invalid float value: 'abc'" in err.getvalue()

    @pytest.mark.parametrize("alpha, expected", [("0.29", "30"), ("0.57", "58")])
    def test_alpha_taken_as_typed(self, alpha, expected):
        # 100.0 * 0.29 is 28.999999999999996 in binary floating point.
        assert run_cli("min-stages", "100", "100", alpha) == (0, expected + "\n", "")


def test_tally_and_min_stages_never_import_numpy(concrete_csv):
    # Only simulate and the baselines need numpy; the voting rule is integer
    # arithmetic over ballots and must run where numpy cannot be imported.
    script = (
        "import contextlib, io, sys\n"
        "import stagevote\n"
        "from stagevote import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['tally', sys.argv[1]]) == 0\n"
        "    assert cli.main(['min-stages', '100', '5', '0.5']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    proc = subprocess.run([sys.executable, "-c", script, concrete_csv],
                          capture_output=True, text=True, env=src_env(), check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_simulate_without_numpy_is_one_error_line(sim_config, tmp_path):
    # Where numpy cannot be imported, simulate fails like any other bad
    # input: one "error:" line and exit 1, not an ImportError traceback.
    blocker = tmp_path / "no-numpy" / "numpy"
    blocker.mkdir(parents=True)
    (blocker / "__init__.py").write_text('raise ImportError("numpy is blocked")\n')
    env = src_env()
    env["PYTHONPATH"] = os.pathsep.join([str(blocker.parent), env["PYTHONPATH"]])
    script = "import sys\nfrom stagevote import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    proc = subprocess.run([sys.executable, "-c", script, "simulate", sim_config],
                          capture_output=True, text=True, env=env, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: simulate needs numpy (numpy is blocked)\n")
