"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from stagevote.ballot import Ballot, CandidateRoster, expand_incomplete
from stagevote.baselines import fptp_winner
from stagevote.cli import main as cli_main
from stagevote.select import (
    GammaRule,
    SelectionConfig,
    Selector,
    basic_winner,
    beta_gamma_winner,
    min_stages,
    stage_window,
)
from stagevote.sim import (
    LABEL_BEST_VOTER,
    LABEL_CROWD_MEAN,
    LABEL_CROWD_MEDIAN,
    LABEL_FPTP,
    STAGED_PREFIX,
    SimConfig,
    run_simulation,
)
from stagevote.tally import (
    TableKind,
    count_votes,
    cumulate,
    score,
    stage_entropy,
)

from conftest import (
    BETA_PATTERNS,
    CONCRETE_PATTERNS,
    ROSTER_FIVE,
    ROSTER_SIX,
    ballots_from_patterns,
    pipeline,
    table_from_rows,
)
from test_select import _random_table, _window_oracle


def _ok(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_1_concrete_example_golden():
    started = time.perf_counter()
    ballots = ballots_from_patterns(CONCRETE_PATTERNS)
    vc, pt, st = pipeline(ROSTER_SIX, ballots, 6)

    counts = [
        [25, 25, 25, 25, 0, 0],
        [0, 0, 0, 0, 100, 0],
        [0, 0, 0, 0, 0, 100],
        [25, 25, 25, 25, 0, 0],
        [25, 25, 25, 25, 0, 0],
        [25, 25, 25, 25, 0, 0],
    ]
    processed = [
        [25, 25, 25, 25, 0, 0],
        [25, 25, 25, 25, 100, 0],
        [25, 25, 25, 25, 100, 100],
        [50, 50, 50, 50, 100, 100],
        [75, 75, 75, 75, 100, 100],
        [100, 100, 100, 100, 100, 100],
    ]
    assert [[int(v) for v in r] for r in vc.rows] == counts
    assert [[int(v) for v in r] for r in pt.rows] == processed
    assert [[int(v) for v in r] for r in st.rows] == processed
    assert all(v.denominator == 1 for row in st.rows for v in row)

    decision = basic_winner(st, 0.5)
    assert decision.winner == "X"
    assert decision.stage == 2
    assert decision.score == 100

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(1, f"three worked tables exact, winner X at stage 2 with 100% "
           f"({elapsed:.3f}s)")


def test_criterion_2_discontent_cutoff_every_selector():
    ballots = ballots_from_patterns(BETA_PATTERNS)
    _, _, st = pipeline(ROSTER_FIVE, ballots, 3)
    assert st.row(1) == (25, 25, 25, 25, 0)
    assert st.row(2) == (65, 55, 40, 40, 0)
    assert st.row(3)[4] == 40  # NULL strictly above 33.33 on stage 3

    for selector in Selector:
        cfg = SelectionConfig(alpha=0.5, beta=0.3333, selector=selector)
        decision = beta_gamma_winner(st, cfg, "NULL")
        assert decision.winner == "A"
        assert decision.stage == 2
        assert decision.score == Fraction(65)
    _ok(2, "NULL beta-crossing profile elects A with exactly 65% from "
           "stage 2 under all seven selectors")


def test_criterion_3_empty_window_elects_null():
    roster = CandidateRoster(("A", "B", "NULL"), null_id="NULL")
    ballots = [Ballot(f"p{i}", ("NULL", "A", "B")) for i in range(6)]
    ballots += [Ballot(f"q{i}", ("A", "NULL", "B")) for i in range(4)]
    _, _, st = pipeline(roster, ballots, 3)

    cfg = SelectionConfig(alpha=0.5, beta=0.3333)
    window = stage_window(st, cfg, "NULL")
    assert window.last_by_beta == 0  # NULL crosses beta on the first stage
    assert window.pool == ()
    decision = beta_gamma_winner(st, cfg, "NULL")
    assert decision.winner == "NULL"
    assert decision.stage is None and decision.score is None
    _ok(3, "beta cut before any alpha crossing leaves an empty window and "
           "elects NULL")


def test_criterion_4_min_stage_bound():
    assert min_stages(100, 5, 0.5) == 3
    rng = random.Random(46)
    for _ in range(1000):
        k = rng.randint(1, 500)
        alpha = rng.uniform(1e-9, 1 - 1e-9)
        x = min_stages(1, k, alpha)
        assert x >= 1
        assert x > alpha * k          # crosses the bound
        assert x - 1 <= alpha * k     # and is the least such integer
    _ok(4, "min_stages(100, 5, 0.5) = 3 and least-integer property holds "
           "on 1000 random (k, alpha)")


def test_criterion_5_single_preference_reduces_to_plurality():
    rng = random.Random(515151)
    for trial in range(1000):
        size = rng.randint(2, 6)
        names = tuple([f"K{i}" for i in range(size - 1)] + ["NULL"])
        roster = CandidateRoster(names, null_id="NULL")
        ballots = [Ballot(f"v{i}", (rng.choice(names),))
                   for i in range(rng.randint(1, 40))]
        expanded = [expand_incomplete(b, roster, 1) for b in ballots]
        st = score(cumulate(count_votes(expanded, roster, 1)))
        assert basic_winner(st, 0.0).winner == fptp_winner(ballots, roster)
    _ok(5, "one-preference ballots with alpha=0 match plurality exactly on "
           "1000 random profiles")


def test_criterion_6_fractional_rows_sum_to_one():
    rng = random.Random(44)
    for trial in range(1000):
        size = rng.randint(2, 8)
        names = [f"K{i}" for i in range(size - 1)] + ["NULL"]
        idk = rng.random() < 0.3
        if idk:
            names.append("IDK")
        roster = CandidateRoster(tuple(names), null_id="NULL",
                                 idk_id="IDK" if idk else None)
        num_prefs = rng.randint(1, roster.k)
        length = rng.randint(0, num_prefs)
        prefs = tuple(rng.sample(names, length))
        fb = expand_incomplete(Ballot("v", prefs), roster, num_prefs)
        for row in fb.rows:
            assert sum(row.values()) == 1  # exact rational arithmetic
    _ok(6, "every preference row of 1000 random incomplete ballots sums "
           "to exactly 1")


def test_criterion_7_entropy_maximal_at_last_complete_stage():
    rng = random.Random(2121)
    for trial in range(100):
        size = rng.randint(2, 6)
        names = tuple([f"K{i}" for i in range(size - 1)] + ["NULL"])
        roster = CandidateRoster(names, null_id="NULL")
        ballots = []
        for i in range(rng.randint(1, 15)):
            order = list(names)
            rng.shuffle(order)
            ballots.append(Ballot(f"v{i}", tuple(order)))
        _, _, st = pipeline(roster, ballots, roster.k)
        k = roster.k
        last = stage_entropy(st, k)
        assert abs(last - math.log2(k)) <= 1e-9
        for i in range(1, k + 1):
            assert stage_entropy(st, i) <= last + 1e-9
    _ok(7, "full-stage complete tallies peak at log2(k) bits on the last "
           "stage across 100 random profiles")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(88)
    for trial in range(500):
        table = _random_table(rng)
        # cumulate against an independent double-loop prefix sum
        counts = tuple(
            tuple(Fraction(rng.randint(0, 30)) for _ in range(3))
            for _ in range(rng.randint(1, 6))
        )
        vc = table_from_rows(TableKind.COUNTS, ("A", "B", "NULL"), counts, 9)
        pt = cumulate(vc)
        for i in range(len(counts)):
            for j in range(3):
                assert pt.rows[i][j] == sum(counts[r][j] for r in range(i + 1))
        cfg = SelectionConfig(
            alpha=rng.choice([0.2, 0.5, 0.66, 0.8]),
            beta=rng.choice([None, 0.2, 0.33, 0.6]),
            gamma=rng.choice([GammaRule.none(), GammaRule.any_exceeds(0.66),
                              GammaRule.fraction_exceeds(0.8, 0.5),
                              GammaRule.count_exceeds(0.7, 2)]),
        )
        window = stage_window(table, cfg, "NULL")
        assert (window.first_by_alpha, window.last_by_beta,
                window.last_by_gamma, window.pool) == _window_oracle(
                    table, cfg, "NULL")
    _ok(8, "cumulate matches the prefix-sum oracle and stage windows match "
           "the per-stage predicate scan on 500 random tables")


STUDY_ALGOS = (
    SelectionConfig(alpha=0.5, selector=Selector.FIRST),
    SelectionConfig(alpha=0.5, beta=0.33, selector=Selector.FIRST),
    SelectionConfig(alpha=0.5, beta=0.33, gamma=GammaRule.any_exceeds(0.66),
                    selector=Selector.FIRST),
    SelectionConfig(alpha=0.5, gamma=GammaRule.any_exceeds(0.66),
                    selector=Selector.FIRST),
    SelectionConfig(alpha=0.5, beta=0.33, selector=Selector.MIN_ENTROPY),
)


def test_criterion_9_desk_scale_study():
    started = time.perf_counter()
    mean_beats_dictator = 0
    median_beats_dictator = 0
    first_configs_beating_fptp = {cfg.label(): 0 for cfg in STUDY_ALGOS
                                  if cfg.selector is Selector.FIRST}
    for seed in (1, 2, 3, 4, 5):
        cfg = SimConfig(
            num_candidates=10, num_voters=100, num_elections=200,
            column_blindness=5, quality_mean=1500.0, quality_sd=400.0,
            seed=seed, algorithms=STUDY_ALGOS,
        )
        metrics = run_simulation(cfg).metrics
        dictator = metrics.row(LABEL_BEST_VOTER).mean_winner_rank
        fptp = metrics.row(LABEL_FPTP).mean_winner_rank
        if metrics.row(LABEL_CROWD_MEAN).mean_winner_rank < dictator:
            mean_beats_dictator += 1
        if metrics.row(LABEL_CROWD_MEDIAN).mean_winner_rank < dictator:
            median_beats_dictator += 1
        for label in first_configs_beating_fptp:
            row = metrics.row(STAGED_PREFIX + label)
            if row.mean_winner_rank <= fptp:
                first_configs_beating_fptp[label] += 1

    elapsed = time.perf_counter() - started
    assert mean_beats_dictator >= 4
    assert median_beats_dictator >= 4
    assert max(first_configs_beating_fptp.values()) >= 4
    assert elapsed < 300.0
    _ok(9, f"crowd-Mean/Median beat bestVoter in {mean_beats_dictator}/5 and "
           f"{median_beats_dictator}/5 seeds; an alpha=0.5 First variant "
           f"matched or beat FPTP in "
           f"{max(first_configs_beating_fptp.values())}/5 ({elapsed:.1f}s)")


def _run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def test_criterion_10_simulate_determinism(tmp_path):
    doc = {
        "numCandidates": 6,
        "numVoters": 20,
        "numElections": 10,
        "columnBlindness": 5,
        "crowdBuildMethod": {"name": "standardDistribution", "mean": 1500,
                             "standardDeviation": 300},
        "seed": 77,
        "datasetSize": 400,
        "algorithms": [
            {"alpha": 0.5, "selector": "first"},
            {"alpha": 0.5, "beta": 0.33, "gamma": "any:0.66",
             "selector": "last"},
        ],
    }
    path = tmp_path / "determinism.json"
    path.write_text(json.dumps(doc))

    first = _run_cli(["simulate", str(path)])
    second = _run_cli(["simulate", str(path)])
    parallel = _run_cli(["simulate", str(path), "--workers", "4"])
    assert first[0] == 0
    assert first == second
    assert first == parallel
    _ok(10, "simulate output byte-identical across reruns and across "
            "serial vs parallel execution")
