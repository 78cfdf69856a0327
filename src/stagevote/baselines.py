"""Comparison methods: plurality, instant-runoff, and raw-prediction crowds.

The crowd comparators work on numeric predictions rather than ballots:
``crowd_mean_ranking``/``crowd_median_ranking`` aggregate a voters x
candidates prediction matrix into a single ranking, and ``best_voter``
picks the voter with the lowest validation mean squared error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ballot import Ballot, CandidateRoster


class BaselineError(ValueError):
    """Raised when a baseline method gets an empty or invalid input."""


@dataclass(frozen=True)
class PredictionMatrix:
    """Voters' numeric predictions for each slate candidate (rows = voters)."""

    slate: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != len(self.slate):
            raise BaselineError("prediction matrix must be voters x slate")
        if len(self.slate) < 1:
            raise BaselineError("slate must have at least one candidate")
        if not np.all(np.isfinite(values)):
            raise BaselineError("predictions must be finite")


def leader(counts: Sequence[int]) -> int:
    """Index of the highest count; the lowest index, roster order, wins a tie."""
    return int(np.argmax(counts))


def _rank_matrix(ballots: Sequence[Ballot], roster: CandidateRoster) -> np.ndarray:
    """The ballots as ``irv_index``'s int rank matrix, ``IDK`` dropped and
    rows padded with k. Raises ``BaselineError`` for no ballots, then for
    the first stamp off the roster (naming voter and stamp)."""
    if not ballots:
        raise BaselineError("no ballots")
    index = {c: j for j, c in enumerate(roster.tally_candidates)}
    known = index.keys() | {roster.idk_id}
    for b in ballots:
        if not known.issuperset(b.prefs):
            off = next(c for c in b.prefs if c not in known)
            raise BaselineError(f"voter {b.voter_id!r} stamps {off!r}, not on the roster")
    rows = [[index[c] for c in b.prefs if c in index] for b in ballots]
    width = max(1, *map(len, rows))
    return np.array([row + [roster.k] * (width - len(row)) for row in rows])


def fptp_winner(ballots: Sequence[Ballot], roster: CandidateRoster) -> str:
    """Plurality on sincere first preferences (``IDK`` skipped), ties to
    roster order: the leader of the rank matrix's first column."""
    order = _rank_matrix(ballots, roster)
    empty = next((b for b in ballots if not b.prefs), None)
    if empty is not None:
        raise BaselineError(f"empty ballot from voter {empty.voter_id!r}")
    k = roster.k
    return roster.tally_candidates[leader(np.bincount(order[:, 0], minlength=k + 1)[:k])]


def irv_index(order: np.ndarray, k: int) -> int:
    """Instant-runoff on an int rank matrix over k candidates: row i lists
    voter i's preferences as candidate indices, best first, and any entry
    ``k`` is padding. Each round counts every row's first surviving entry;
    someone with a strict majority of the non-exhausted rows wins, or else
    the weakest survivor (lowest index on ties) is eliminated and only the
    rows it headed move on. When every row is exhausted the lowest
    surviving index wins."""
    active = np.ones(k + 1, dtype=bool)
    active[k] = False  # the padding index never survives
    tops = order[:, 0].copy()  # each row's first survivor; k once exhausted
    while True:
        counts = np.bincount(tops, minlength=k + 1)[:k]
        live = int(counts.sum())
        if live == 0:
            return leader(active[:k])
        best = leader(counts)
        if 2 * counts[best] > live or active.sum() == 1:
            return best
        loser = int(np.argmin(np.where(active[:k], counts, live + 1)))
        active[loser] = False
        moved = np.flatnonzero(tops == loser)
        survivors = active[order[moved]]
        tops[moved] = np.where(survivors.any(axis=1),
                               order[moved, survivors.argmax(axis=1)], k)


def irv_winner(ballots: Sequence[Ballot], roster: CandidateRoster) -> str:
    """Instant-runoff: eliminate the weakest first-preference candidate
    (roster order on ties), transferring ballots to their next surviving
    stamp, until someone holds a strict majority of non-exhausted ballots.
    IDK stamps are skipped. This is ``irv_index`` on the ballots' ranks.
    """
    return roster.tally_candidates[irv_index(_rank_matrix(ballots, roster), roster.k)]


def _ranking_by(pm: PredictionMatrix, statistic) -> tuple[str, ...]:
    """Slate sorted by descending ``statistic(values)``, one value per
    column; ties keep slate order."""
    if pm.values.shape[0] < 1:
        raise BaselineError("need at least one voter")
    order = np.argsort(-statistic(pm.values), kind="stable")
    return tuple(pm.slate[j] for j in order)


def crowd_mean_ranking(pm: PredictionMatrix) -> tuple[str, ...]:
    """Slate sorted by descending column mean; ties keep slate order."""
    return _ranking_by(pm, lambda values: values.mean(axis=0))


def crowd_median_ranking(pm: PredictionMatrix) -> tuple[str, ...]:
    """Slate sorted by descending column median; ties keep slate order."""
    return _ranking_by(pm, column_median)


_MEDIAN_BLOCK = 64  # columns sorted at a time by column_median


def column_median(values: np.ndarray):
    """``np.median(values, axis=0)`` bit for bit. Each block of 64 columns
    is copied out as contiguous rows and sorted in place, so every column
    meets the same sort kernel in the same order as under ``np.sort`` along
    axis 0, and the largest temporary is one block, not a copy of
    ``values``. An even count averages its middle two as ``(a + b) / 2``.
    ``values`` is 2-D, or 1-D: one column, giving a scalar. ``np.median``
    would import ``numpy.ma``, which nothing else here needs."""
    columns = values if values.ndim > 1 else values[:, None]
    half, odd = divmod(len(values), 2)
    median = np.empty(columns.shape[1])
    for j in range(0, columns.shape[1], _MEDIAN_BLOCK):
        block = columns[:, j:j + _MEDIAN_BLOCK].T.copy()
        block.sort(axis=1)
        median[j:j + _MEDIAN_BLOCK] = (
            block[:, half] if odd else (block[:, half - 1] + block[:, half]) / 2)
    return median if values.ndim > 1 else median[0]


def best_voter(predictions: np.ndarray, truth: np.ndarray) -> int:
    """Index of the voter with the lowest MSE over the validation items."""
    predictions = np.asarray(predictions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predictions.ndim != 2 or truth.ndim != 1 or predictions.shape[1] != truth.shape[0]:
        raise BaselineError("predictions must be voters x items, truth of length items")
    if truth.shape[0] == 0:
        raise BaselineError("validation set is empty")
    mse = np.mean((predictions - truth[None, :]) ** 2, axis=1)
    return int(np.argmin(mse))
