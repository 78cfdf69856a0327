"""Cumulative stage tables: vote counts, running totals, percentage scores.

The pipeline is ``count_votes`` -> ``cumulate`` -> ``score``, and each step
returns a ``StageTable`` of its ``TableKind``. ``count_votes`` takes one
fractional ballot per voter or a voter count per distinct ballot, and adds
each distinct ballot once either way, summing exact integer numerators
over one common denominator D. Its core, ``_count_stamps``, cuts and
counts the checked ``{prefs: voters}`` tuples ``stagevote tally`` passes
directly. Every view keeps those ints: the cumulative table is
their prefix sums over the same D, and the score table the same
numerators read as ``100 * v / (n * D)``. Stage i of the cumulative table
adds up preferences 1..i, so a candidate's score at stage i is the
percentage of voters who ranked them within their first i preferences.
A table is built only from int numerators and their D, so all its entries
are exact rationals. Float scores are int / int true divisions, entropy
and the exact variance key read the int rows, and the column order and
per-stage ranking compare ints; the ``Fraction`` cells are built only
when read (``rows``, ``row()``, equality). A table's Fraction and float
rows, stage statistics, column order and per-stage ranking are computed
once, on first use, and shared by every later reader of that table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Mapping, Optional, Sequence, Union

from .ballot import CandidateRoster, FractionalBallot, _stamp_tuple

Row = tuple[Fraction, ...]
IntRow = tuple[int, ...]


class TallyError(ValueError):
    """Raised for tally-time contract violations (e.g. mixed rosters)."""


class UndefinedScoreError(TallyError):
    """Scores are undefined for an election with zero ballots."""


class DegenerateDistributionError(TallyError):
    """A stage row with no vote mass has no candidate distribution."""


def _fmt_num(f: float) -> str:
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


@dataclass(frozen=True, eq=False)
class StageTable:
    """One row per stage, one column per candidate, in exact integers.

    ``kind`` says what the rows hold: raw stamp mass per preference
    (``COUNTS``, rows sum to n with expansion), running sums where stage i
    aggregates preferences 1..i (``PROCESSED``), or those sums as
    percentages of n in [0, 100] (``SCORES``). Columns stay in roster order.

    Cell (i, j) is ``ints[i][j] / denom``: int numerators over one common
    denominator, the only form a table is built from.

    ``rows`` (the cells as ``Fraction``s), ``floats``, ``stats``,
    ``column_order`` and ``ranking`` are computed once per table, on first
    read, and cached on the instance, so every decision made on one table
    shares them. Equality and hashing compare kind, candidates, cell
    values and n, so equal cells over different denominators are equal;
    the cache never enters them.
    """

    kind: TableKind
    candidates: tuple[str, ...]
    ints: tuple[IntRow, ...]
    denom: int
    n: int

    def _key(self) -> tuple:
        return self.kind, self.candidates, self.rows, self.n

    def __eq__(self, other):
        if not isinstance(other, StageTable):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def num_stages(self) -> int:
        return len(self.ints)

    def row(self, stage: int) -> Row:
        return self.rows[stage - 1]

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        d = self.denom
        return tuple(tuple(Fraction(v, d) for v in row) for row in self.ints)

    @cached_property
    def floats(self) -> tuple[tuple[float, ...], ...]:
        # int / int rounds correctly, as float(Fraction) does: the same doubles.
        d = self.denom
        return tuple(tuple(v / d for v in row) for row in self.ints)

    @cached_property
    def stats(self) -> StageStats:
        return compute_stage_stats(self)

    @cached_property
    def column_order(self) -> tuple[str, ...]:
        return sort_columns(self)

    @cached_property
    def ranking(self) -> tuple[tuple[int, ...], ...]:
        """Per stage, the column indices from highest score to lowest, ties
        to the earlier in ``column_order``; ``ranking[i][0]`` leads stage i + 1."""
        rank = {c: i for i, c in enumerate(self.column_order)}
        tie = [rank[c] for c in self.candidates]
        return tuple(tuple(sorted(range(len(tie)), key=lambda j: (-row[j], tie[j])))
                     for row in self.ints)

    def to_text(self) -> str:
        labels = [f"{self.kind.row_label}{i}" for i in range(1, self.num_stages + 1)]
        cells = [[_fmt_num(v) for v in row] for row in self.floats]
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
            self.kind.json_key: [list(row) for row in self.floats],
            "n": self.n,
        }


@dataclass(frozen=True)
class StageStats:
    """Per-stage entropy (bits) of the score row, and ``variance_key``:
    k * sum(v^2) - sum(v)^2 over the int row v, the population variance
    times one constant per table, so it orders stages exactly."""

    entropy: tuple[Optional[float], ...]
    variance_key: tuple[int, ...]


def count_votes(
    ballots: Union[Sequence[FractionalBallot], Mapping[FractionalBallot, int]],
    roster: CandidateRoster,
    num_prefs: int,
) -> StageTable:
    """Sum fractional ballots into the per-preference count table.

    ``ballots`` is one fractional ballot per voter, or a mapping from each
    distinct ballot to the number of voters who cast it (a ``Counter``).
    Each distinct ballot is checked once and its stamps added once, times
    that number, so the cost grows with distinct ballots, not voters (see
    ``_count_stamps``).

    All ballots must be expanded over the same roster and ``num_prefs`` and
    stamp no candidate twice; anything else raises ``TallyError``.
    """
    cands = roster.tally_candidates
    names = frozenset(cands)
    stamps = {}
    for fb, size in Counter(ballots).items():
        if fb.candidates != cands or fb.num_prefs != num_prefs:
            raise TallyError(
                "ballot expanded over a different roster or preference count"
            )
        stamped = set(fb.stamps)
        stamped.discard(None)
        if not stamped <= names:
            raise TallyError(f"ballot {fb.stamps!r} stamps a candidate not on the roster")
        # A repeated stamp leaves fewer None rows than this.
        if fb.stamps.count(None) != num_prefs - len(stamped):
            raise TallyError(f"ballot {fb.stamps!r} stamps a candidate more than once")
        stamps[fb.stamps] = size
    return _count_stamps(stamps, roster, num_prefs)


def _count_stamps(groups: Mapping[tuple[Optional[str], ...], int],
                  roster: CandidateRoster, num_prefs: int) -> StageTable:
    """The count table of ``{prefs: voters}``, one entry per checked
    preference tuple (roster members, none twice), each cut to its stamps
    on rows 1..``num_prefs`` by ``_stamp_tuple``. Tuples that cut alike
    are added once each, which sums their voters.

    The sums are ints over one common denominator D, the lcm of the
    unstamped-set sizes m among tuples with a missing row: a stamp adds D
    and a missing row D // m to each of the m unstamped candidates, times
    the tuple's voters.
    """
    cands = roster.tally_candidates
    column = {c: j for j, c in enumerate(cands)}
    # (stamps, voters, column indices of the unstamped candidates or None
    # when no row is missing), one entry per tuple.
    entries = []
    for prefs, size in groups.items():
        stamps = _stamp_tuple(prefs, roster, num_prefs)
        free = [j for j, c in enumerate(cands) if c not in stamps] if None in stamps else None
        entries.append((stamps, size, free))
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
    return StageTable(TableKind.COUNTS, cands, tuple(map(tuple, totals)), denom,
                      sum(groups.values()))


def cumulate(vc: StageTable) -> StageTable:
    """Build the cumulative table: prefix sums of the int rows, same D."""
    rows: list[IntRow] = []
    prev = (0,) * len(vc.candidates)
    for row in vc.ints:
        prev = tuple(map(add, prev, row))
        rows.append(prev)
    return StageTable(TableKind.PROCESSED, vc.candidates, tuple(rows), vc.denom, vc.n)


def score(pt: StageTable) -> StageTable:
    """Convert cumulative counts to percentages of the electorate.

    A candidate's score at stage i is 100 * f1 / n: the share of voters
    who placed them within their first i preferences. (The alternative
    i*n denominator is inconsistent with every worked table; with it a
    full final stage could not read 100%.) The numerators v over D of the
    cumulative table become 100 * v over n * D.
    """
    if pt.n == 0:
        raise UndefinedScoreError("scores are undefined with zero ballots")
    rows = tuple(tuple(100 * v for v in row) for row in pt.ints)
    return StageTable(TableKind.SCORES, pt.candidates, rows, pt.n * pt.denom, pt.n)


def stage_entropy(st: StageTable, stage: int) -> float:
    """Shannon entropy in bits of the stage's candidate distribution, each
    share read from the int row as ``v / total`` (the double nearest it).
    Raises ``TallyError`` for a stage out of range and
    ``DegenerateDistributionError`` for one with no vote mass."""
    if not 1 <= stage <= st.num_stages:
        raise TallyError(f"stage {stage} out of range 1..{st.num_stages}")
    row = st.ints[stage - 1]
    total = sum(row)
    if total == 0:
        raise DegenerateDistributionError(f"stage {stage} carries no vote mass")
    h = 0.0
    for v in row:
        if v > 0:
            p = v / total
            h -= p * math.log2(p)
    return h


def compute_stage_stats(st: StageTable) -> StageStats:
    """Entropy (None for empty rows) and variance key for every stage."""
    entropy = tuple(stage_entropy(st, i) if sum(row) else None
                    for i, row in enumerate(st.ints, 1))
    # Reduced by the gcd, equal tables give equal keys, whatever their D.
    g = math.gcd(st.denom, *(v for row in st.ints for v in row)) ** 2
    key = tuple((len(row) * sum(v * v for v in row) - sum(row) ** 2) // g for row in st.ints)
    return StageStats(entropy=entropy, variance_key=key)


def sort_columns(st: StageTable) -> tuple[str, ...]:
    """The presentation/tie-break column order of a table.

    Candidates sort by descending score at the last stage, earlier stages
    breaking ties in turn; fully tied columns keep roster order. The table
    itself stays in roster order.
    """
    keys = {
        cand: tuple(st.ints[i][j] for i in range(st.num_stages - 1, -1, -1))
        for j, cand in enumerate(st.candidates)
    }
    return tuple(sorted(st.candidates, key=lambda c: keys[c], reverse=True))
