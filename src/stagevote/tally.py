"""Cumulative stage tables: vote counts, running totals, percentage scores.

The pipeline is ``count_votes`` -> ``cumulate`` -> ``score``, and each step
returns a ``StageTable`` of its ``TableKind``. ``count_votes`` takes one
fractional ballot per voter or a voter count per distinct ballot, and adds
each distinct ballot once either way, summing exact integer numerators
over one common denominator and making each cell a ``Fraction`` once.
Stage i of the cumulative table adds up preferences 1..i, so a candidate's
score at stage i is the percentage of voters who ranked them within their
first i preferences.
All table entries are exact rationals; per-stage entropy and variance
statistics are computed in floating point. A table's float rows, stage
statistics, column order, tie rank and per-stage ranking are computed
once, on first use, and shared by every later reader of that table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

from .ballot import CandidateRoster, FractionalBallot

Row = tuple[Fraction, ...]


class TallyError(ValueError):
    """Raised for tally-time contract violations (e.g. mixed rosters)."""


class UndefinedScoreError(TallyError):
    """Scores are undefined for an election with zero ballots."""


class DegenerateDistributionError(TallyError):
    """A stage row with no vote mass has no candidate distribution."""


def _fmt_num(value) -> str:
    f = float(value)
    if f == int(f):
        return str(int(f))
    return f"{f:.2f}"


class TableKind(Enum):
    """Which view of the stage table: (title, row label, JSON row key)."""

    COUNTS = ("Vote Counts", "Preference", "preferences")
    PROCESSED = ("Processed Vote Counts", "Stage", "stages")
    SCORES = ("Score of Candidates", "Stage", "stages")

    def __init__(self, title: str, row_label: str, json_key: str):
        self.title = title
        self.row_label = row_label
        self.json_key = json_key


@dataclass(frozen=True)
class StageTable:
    """One exact-rational row per stage, one column per candidate.

    ``kind`` says what the rows hold: raw stamp mass per preference
    (``COUNTS``, rows sum to n with expansion), running sums where stage i
    aggregates preferences 1..i (``PROCESSED``), or those sums as
    percentages of n in [0, 100] (``SCORES``). Columns stay in roster order.

    ``floats``, ``stats``, ``column_order``, ``tie_rank`` and ``ranking`` are
    computed once per table and cached on the instance, so every decision
    made on one table shares them. The cache never enters equality or
    hashing, which use the fields.
    """

    kind: TableKind
    candidates: tuple[str, ...]
    rows: tuple[Row, ...]
    n: int

    @property
    def num_stages(self) -> int:
        return len(self.rows)

    def row(self, stage: int) -> Row:
        return self.rows[stage - 1]

    @cached_property
    def floats(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(float(v) for v in row) for row in self.rows)

    @cached_property
    def stats(self) -> StageStats:
        return compute_stage_stats(self)

    @cached_property
    def column_order(self) -> tuple[str, ...]:
        return sort_columns(self)

    @cached_property
    def tie_rank(self) -> dict[str, int]:
        """Each candidate's position in ``column_order``; lower wins a tie."""
        return {c: i for i, c in enumerate(self.column_order)}

    @cached_property
    def ranking(self) -> tuple[tuple[int, ...], ...]:
        """Per stage, the column indices from highest score to lowest, ties
        by ``tie_rank``; ``ranking[i][0]`` leads stage i + 1."""
        tie = [self.tie_rank[c] for c in self.candidates]
        return tuple(tuple(sorted(range(len(tie)), key=lambda j: (-row[j], tie[j])))
                     for row in self.floats)

    def float_rows(self) -> list[list[float]]:
        return [list(row) for row in self.floats]

    def to_text(self) -> str:
        labels = [f"{self.kind.row_label}{i}" for i in range(1, self.num_stages + 1)]
        cells = [[_fmt_num(v) for v in row] for row in self.rows]
        label_w = max(len(r) for r in labels) if labels else 0
        widths = [max([len(c)] + [len(row[j]) for row in cells])
                  for j, c in enumerate(self.candidates)]
        lines = [self.kind.title,
                 " " * label_w + "".join(f"  {c:>{w}}" for c, w in
                                         zip(self.candidates, widths))]
        for label, row in zip(labels, cells):
            lines.append(f"{label:<{label_w}}"
                         + "".join(f"  {v:>{w}}" for v, w in zip(row, widths)))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "candidates": list(self.candidates),
            self.kind.json_key: self.float_rows(),
            "n": self.n,
        }


@dataclass(frozen=True)
class StageStats:
    """Per-stage entropy (bits) and population variance of the score row."""

    entropy: tuple[Optional[float], ...]
    variance: tuple[float, ...]


def count_votes(
    ballots: Union[Sequence[FractionalBallot], Mapping[FractionalBallot, int]],
    roster: CandidateRoster,
    num_prefs: int,
) -> StageTable:
    """Sum fractional ballots into the per-preference count table.

    ``ballots`` is one fractional ballot per voter, or a mapping from each
    distinct ballot to the number of voters who cast it (a ``Counter``).
    Each distinct ballot's stamps are added once, times that number, so the
    cost grows with distinct ballots, not voters. The sums are ints over
    one common denominator D, the lcm of the unstamped-set sizes m among
    ballots with a missing row: a stamp adds D and a missing row D // m to
    each of the m unstamped candidates. Each cell is divided by D once.

    All ballots must be expanded over the same roster and ``num_prefs`` and
    stamp no candidate twice; anything else raises ``TallyError``.
    """
    cands = roster.tally_candidates
    column = {c: j for j, c in enumerate(cands)}
    names = frozenset(cands)
    voters = Counter(ballots)
    # (stamps, voters, column indices of the unstamped candidates or None
    # when no row is missing), one entry per distinct ballot.
    entries = []
    for fb, size in voters.items():
        if fb.candidates != cands or fb.num_prefs != num_prefs:
            raise TallyError(
                "ballot expanded over a different roster or preference count"
            )
        stamped = set(fb.stamps)
        stamped.discard(None)
        if not stamped <= names:
            raise TallyError(f"ballot {fb.stamps!r} stamps a candidate not on the roster")
        # A repeated stamp leaves fewer None rows than this.
        missing = num_prefs - len(stamped)
        if missing and fb.stamps.count(None) != missing:
            raise TallyError(f"ballot {fb.stamps!r} stamps a candidate more than once")
        free = [j for j, c in enumerate(cands) if c not in stamped] if missing else None
        entries.append((fb.stamps, size, free))
    denom = math.lcm(*(len(free) for _, _, free in entries if free is not None))
    totals = [[0] * len(cands) for _ in range(num_prefs)]
    for stamps, size, free in entries:
        whole = denom * size
        share = whole // len(free) if free is not None else 0
        for slot, stamp in zip(totals, stamps):
            if stamp is None:
                for j in free:
                    slot[j] += share
            else:
                slot[column[stamp]] += whole
    counts = tuple(tuple(Fraction(v, denom) for v in slot) for slot in totals)
    return StageTable(TableKind.COUNTS, cands, counts, voters.total())


def cumulate(vc: StageTable) -> StageTable:
    """Build the cumulative table with the incremental row recurrence."""
    rows: list[Row] = []
    prev = tuple(Fraction(0) for _ in vc.candidates)
    for row in vc.rows:
        prev = tuple(p + x for p, x in zip(prev, row))
        rows.append(prev)
    return StageTable(TableKind.PROCESSED, vc.candidates, tuple(rows), vc.n)


def score(pt: StageTable) -> StageTable:
    """Convert cumulative counts to percentages of the electorate.

    A candidate's score at stage i is 100 * f1 / n: the share of voters
    who placed them within their first i preferences. (The alternative
    i*n denominator is inconsistent with every worked table; with it a
    full final stage could not read 100%.)
    """
    if pt.n == 0:
        raise UndefinedScoreError("scores are undefined with zero ballots")
    hundred = Fraction(100)
    rows = tuple(
        tuple(hundred * v / pt.n for v in row) for row in pt.rows
    )
    return StageTable(TableKind.SCORES, pt.candidates, rows, pt.n)


def stage_distribution(st: StageTable, stage: int) -> tuple[Fraction, ...]:
    """Normalize a stage row into a probability vector over candidates."""
    if not 1 <= stage <= st.num_stages:
        raise TallyError(f"stage {stage} out of range 1..{st.num_stages}")
    row = st.row(stage)
    total = sum(row)
    if total == 0:
        raise DegenerateDistributionError(f"stage {stage} carries no vote mass")
    return tuple(v / total for v in row)


def stage_entropy(st: StageTable, stage: int) -> float:
    """Shannon entropy in bits of the stage's candidate distribution."""
    dist = stage_distribution(st, stage)
    h = 0.0
    for p in dist:
        if p > 0:
            fp = float(p)
            h -= fp * math.log2(fp)
    return h


def stage_variance(st: StageTable, stage: int) -> float:
    """Population variance of the stage's score values across candidates."""
    if not 1 <= stage <= st.num_stages:
        raise TallyError(f"stage {stage} out of range 1..{st.num_stages}")
    row = st.floats[stage - 1]
    mean = sum(row) / len(row)
    return sum((v - mean) ** 2 for v in row) / len(row)


def stage_stddev(st: StageTable, stage: int) -> float:
    return math.sqrt(stage_variance(st, stage))


def compute_stage_stats(st: StageTable) -> StageStats:
    """Entropy/variance for every stage (entropy is None for empty rows)."""
    entropy: list[Optional[float]] = []
    variance: list[float] = []
    for i in range(1, st.num_stages + 1):
        try:
            entropy.append(stage_entropy(st, i))
        except DegenerateDistributionError:
            entropy.append(None)
        variance.append(stage_variance(st, i))
    return StageStats(entropy=tuple(entropy), variance=tuple(variance))


def sort_columns(st: StageTable) -> tuple[str, ...]:
    """The presentation/tie-break column order of a table.

    Candidates sort by descending score at the last stage, earlier stages
    breaking ties in turn; fully tied columns keep roster order. The table
    itself stays in roster order.
    """
    keys = {
        cand: tuple(st.rows[i][j] for i in range(st.num_stages - 1, -1, -1))
        for j, cand in enumerate(st.candidates)
    }
    return tuple(sorted(st.candidates, key=lambda c: keys[c], reverse=True))
