"""Cumulative stage tables: vote counts, running totals, percentage scores.

The pipeline is ``count_votes`` -> ``cumulate`` -> ``score``. Stage i of
the cumulative table adds up preferences 1..i, so a candidate's score at
stage i is the percentage of voters who ranked them within their first i
preferences. All table entries are exact rationals; per-stage entropy and
variance statistics are computed in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

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


def _render_table(title: str, row_labels: Sequence[str],
                  col_labels: Sequence[str], rows: Sequence[Row]) -> str:
    cells = [[_fmt_num(v) for v in row] for row in rows]
    label_w = max(len(r) for r in row_labels) if row_labels else 0
    widths = [
        max([len(c)] + [len(cells[i][j]) for i in range(len(cells))])
        for j, c in enumerate(col_labels)
    ]
    lines = [title]
    header = " " * label_w + "".join(
        f"  {c:>{w}}" for c, w in zip(col_labels, widths)
    )
    lines.append(header)
    for label, row in zip(row_labels, cells):
        lines.append(
            f"{label:<{label_w}}" + "".join(f"  {v:>{w}}" for v, w in zip(row, widths))
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class VoteCountTable:
    """Raw stamp mass per preference row; rows sum to n with expansion."""

    candidates: tuple[str, ...]
    counts: tuple[Row, ...]
    n: int

    @property
    def num_prefs(self) -> int:
        return len(self.counts)

    def row(self, preference: int) -> Row:
        return self.counts[preference - 1]

    def to_text(self) -> str:
        labels = [f"Preference{i}" for i in range(1, self.num_prefs + 1)]
        return _render_table("Vote Counts", labels, self.candidates, self.counts)

    def to_json_dict(self) -> dict:
        return {
            "candidates": list(self.candidates),
            "preferences": [[float(v) for v in row] for row in self.counts],
            "n": self.n,
        }


@dataclass(frozen=True)
class ProcessedTable:
    """Running column sums: stage i aggregates preferences 1..i."""

    candidates: tuple[str, ...]
    cumulative: tuple[Row, ...]
    n: int

    @property
    def num_stages(self) -> int:
        return len(self.cumulative)

    def row(self, stage: int) -> Row:
        return self.cumulative[stage - 1]

    def to_text(self) -> str:
        labels = [f"Stage{i}" for i in range(1, self.num_stages + 1)]
        return _render_table("Processed Vote Counts", labels, self.candidates,
                             self.cumulative)

    def to_json_dict(self) -> dict:
        return {
            "candidates": list(self.candidates),
            "stages": [[float(v) for v in row] for row in self.cumulative],
            "n": self.n,
        }


@dataclass(frozen=True)
class ScoreTable:
    """Percentage scores in [0, 100] per stage and candidate.

    ``column_order`` is the presentation/tie-break order assigned by
    ``sort_columns``; the score matrix itself always stays in roster order.
    """

    candidates: tuple[str, ...]
    scores: tuple[Row, ...]
    n: int
    column_order: tuple[str, ...]

    @property
    def num_stages(self) -> int:
        return len(self.scores)

    def row(self, stage: int) -> Row:
        return self.scores[stage - 1]

    def float_rows(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.scores]

    def to_text(self) -> str:
        labels = [f"Stage{i}" for i in range(1, self.num_stages + 1)]
        return _render_table("Score of Candidates", labels, self.candidates,
                             self.scores)

    def to_json_dict(self) -> dict:
        return {
            "candidates": list(self.candidates),
            "stages": [[float(v) for v in row] for row in self.scores],
            "n": self.n,
        }


@dataclass(frozen=True)
class StageStats:
    """Per-stage entropy (bits) and population variance of the score row."""

    entropy: tuple[Optional[float], ...]
    variance: tuple[float, ...]


def count_votes(
    ballots: Sequence[FractionalBallot],
    roster: CandidateRoster,
    num_prefs: int,
) -> VoteCountTable:
    """Sum fractional ballots into the per-preference count table.

    All ballots must be expanded over the same roster and ``num_prefs``;
    anything else is a configuration error.
    """
    cands = roster.tally_candidates
    totals = [{c: Fraction(0) for c in cands} for _ in range(num_prefs)]
    for fb in ballots:
        if fb.candidates != cands or fb.num_prefs != num_prefs:
            raise TallyError(
                "ballot expanded over a different roster or preference count"
            )
        for i, row in enumerate(fb.rows):
            slot = totals[i]
            for cand, w in row.items():
                slot[cand] += w
    counts = tuple(tuple(totals[i][c] for c in cands) for i in range(num_prefs))
    return VoteCountTable(candidates=cands, counts=counts, n=len(ballots))


def cumulate(vc: VoteCountTable) -> ProcessedTable:
    """Build the cumulative table with the incremental row recurrence."""
    rows: list[Row] = []
    prev = tuple(Fraction(0) for _ in vc.candidates)
    for row in vc.counts:
        prev = tuple(p + x for p, x in zip(prev, row))
        rows.append(prev)
    return ProcessedTable(candidates=vc.candidates, cumulative=tuple(rows), n=vc.n)


def score(pt: ProcessedTable) -> ScoreTable:
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
        tuple(hundred * v / pt.n for v in row) for row in pt.cumulative
    )
    return ScoreTable(candidates=pt.candidates, scores=rows, n=pt.n,
                      column_order=pt.candidates)


def stage_distribution(st: ScoreTable, stage: int) -> tuple[Fraction, ...]:
    """Normalize a stage row into a probability vector over candidates."""
    if not 1 <= stage <= st.num_stages:
        raise TallyError(f"stage {stage} out of range 1..{st.num_stages}")
    row = st.row(stage)
    total = sum(row)
    if total == 0:
        raise DegenerateDistributionError(f"stage {stage} carries no vote mass")
    return tuple(v / total for v in row)


def stage_entropy(st: ScoreTable, stage: int) -> float:
    """Shannon entropy in bits of the stage's candidate distribution."""
    dist = stage_distribution(st, stage)
    h = 0.0
    for p in dist:
        if p > 0:
            fp = float(p)
            h -= fp * math.log2(fp)
    return h


def stage_variance(st: ScoreTable, stage: int) -> float:
    """Population variance of the stage's score values across candidates."""
    if not 1 <= stage <= st.num_stages:
        raise TallyError(f"stage {stage} out of range 1..{st.num_stages}")
    row = [float(v) for v in st.row(stage)]
    mean = sum(row) / len(row)
    return sum((v - mean) ** 2 for v in row) / len(row)


def stage_stddev(st: ScoreTable, stage: int) -> float:
    return math.sqrt(stage_variance(st, stage))


def compute_stage_stats(st: ScoreTable) -> StageStats:
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


def sort_columns(st: ScoreTable) -> ScoreTable:
    """Assign the presentation/tie-break column order.

    Candidates sort by descending score at the last stage, earlier stages
    breaking ties in turn; fully tied columns keep roster order. Only
    ``column_order`` changes; the matrix stays put.
    """
    keys = {
        cand: tuple(st.scores[i][j] for i in range(st.num_stages - 1, -1, -1))
        for j, cand in enumerate(st.candidates)
    }
    order = sorted(st.candidates, key=lambda c: keys[c], reverse=True)
    return replace(st, column_order=tuple(order))
