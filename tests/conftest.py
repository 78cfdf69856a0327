"""Shared fixtures: worked-example profiles and pipeline helpers."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import pytest

from stagevote import select, tally
from stagevote.ballot import Ballot, CandidateRoster, expand_incomplete
from stagevote.tally import StageTable, TableKind, count_votes, cumulate, score

# Roster of the six-candidate worked example: four evenly split favourites,
# one universal second choice, and the protest option.
ROSTER_SIX = CandidateRoster(("A", "B", "C", "D", "X", "NULL"), null_id="NULL")

# 100 voters: everyone ranks their favourite first, X second, NULL third,
# then the remaining three favourites in rotation.
CONCRETE_PATTERNS = [
    (("A", "X", "NULL", "B", "C", "D"), 25),
    (("B", "X", "NULL", "C", "D", "A"), 25),
    (("C", "X", "NULL", "D", "A", "B"), 25),
    (("D", "X", "NULL", "A", "B", "C"), 25),
]

ROSTER_FIVE = CandidateRoster(("A", "B", "C", "D", "NULL"), null_id="NULL")

# 100 three-preference ballots realizing the discontent example: stage-2
# scores (A, B, C, D, NULL) = (65, 55, 40, 40, 0) and NULL at 40% on
# stage 3. Counts were balanced by hand; the fixture test re-checks them.
BETA_PATTERNS = [
    (("A", "B", "C"), 5), (("A", "B", "D"), 5), (("A", "B", "NULL"), 5),
    (("A", "C", "B"), 2), (("A", "C", "NULL"), 3),
    (("A", "D", "NULL"), 5),
    (("B", "A", "C"), 5), (("B", "A", "D"), 5), (("B", "A", "NULL"), 10),
    (("B", "C", "A"), 3),
    (("B", "D", "A"), 2),
    (("C", "A", "B"), 5), (("C", "A", "D"), 5),
    (("C", "B", "A"), 5), (("C", "B", "NULL"), 2),
    (("C", "D", "A"), 5), (("C", "D", "B"), 3),
    (("D", "A", "B"), 5), (("D", "A", "C"), 5),
    (("D", "B", "NULL"), 8),
    (("D", "C", "NULL"), 7),
]


def ballots_from_patterns(patterns) -> list[Ballot]:
    out = []
    for prefs, count in patterns:
        for _ in range(count):
            out.append(Ballot(voter_id=f"v{len(out)}", prefs=tuple(prefs)))
    return out


def pipeline(roster, ballots, num_prefs):
    expanded = [expand_incomplete(b, roster, num_prefs) for b in ballots]
    vc = count_votes(expanded, roster, num_prefs)
    pt = cumulate(vc)
    return vc, pt, score(pt)


def table_from_rows(kind, candidates, rows, n) -> StageTable:
    """The table whose cells are the exact rationals ``rows`` (``Fraction``
    or int cells), its ints taken over the lcm of their denominators."""
    rows = [[Fraction(v) for v in row] for row in rows]
    denom = math.lcm(*(v.denominator for row in rows for v in row))
    ints = tuple(tuple(v.numerator * (denom // v.denominator) for v in row) for row in rows)
    return StageTable(kind, tuple(candidates), ints, denom, n)


def in_lowest_terms(table: StageTable) -> bool:
    return math.gcd(table.denom, *(v for row in table.ints for v in row)) == 1


def make_score_table(candidates, rows, n=100) -> StageTable:
    return table_from_rows(TableKind.SCORES, candidates, rows, n)


def population_variance(row):
    """Population variance of one row, in the arithmetic of its cells."""
    mean = sum(row) / len(row)
    return sum((v - mean) ** 2 for v in row) / len(row)


def gamma_fires(rule, scores) -> bool:
    """Independent gamma oracle: True when enough of one stage row's exact
    ``scores`` strictly exceed 100 times the cap as typed. The count needed
    of k scores is ``count``, ``ceil(fraction * k)`` with the fraction as
    typed, or 1; more than k never fires."""
    if rule.threshold is None:
        return False
    if rule.count is not None:
        needed = rule.count
    elif rule.fraction is not None:
        needed = math.ceil(Fraction(str(rule.fraction)) * len(scores))
    else:
        needed = 1
    cap = 100 * Fraction(str(rule.threshold))
    return sum(1 for s in scores if s > cap) >= needed


@pytest.fixture
def table_builds(monkeypatch) -> Counter:
    """Counts calls of the per-table builders a StageTable caches."""
    calls: Counter = Counter()
    for name in ("compute_stage_stats", "sort_columns"):
        def counted(st, real=getattr(tally, name), name=name):
            calls[name] += 1
            return real(st)
        monkeypatch.setattr(tally, name, counted)
    return calls


@pytest.fixture
def window_requests(monkeypatch) -> Counter:
    """Counts window requests by (crossing profile, alpha, beta, gamma)."""
    calls: Counter = Counter()
    real = select._Crossings.window

    def counted(profile, cfg):
        calls[profile, cfg.alpha, cfg.beta, cfg.gamma] += 1
        return real(profile, cfg)
    monkeypatch.setattr(select._Crossings, "window", counted)
    return calls


@pytest.fixture
def concrete_tables():
    ballots = ballots_from_patterns(CONCRETE_PATTERNS)
    return pipeline(ROSTER_SIX, ballots, 6)


@pytest.fixture
def beta_tables():
    ballots = ballots_from_patterns(BETA_PATTERNS)
    return pipeline(ROSTER_FIVE, ballots, 3)


def concrete_csv_text() -> str:
    lines = ["voter_id,pref1,pref2,pref3,pref4,pref5,pref6"]
    for i, b in enumerate(ballots_from_patterns(CONCRETE_PATTERNS)):
        lines.append(",".join([f"v{i}"] + list(b.prefs)))
    return "\n".join(lines) + "\n"
