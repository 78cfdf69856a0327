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


def _roster_rank(roster: CandidateRoster) -> dict[str, int]:
    return {c: i for i, c in enumerate(roster.tally_candidates)}


def _sincere_top(ballot: Ballot, roster: CandidateRoster) -> str | None:
    # First stamp that is not the abstention marker.
    for cand in ballot.prefs:
        if cand != roster.idk_id:
            return cand
    return None


def fptp_winner(ballots: Sequence[Ballot], roster: CandidateRoster) -> str:
    """Plurality on sincere first preferences; ties go to roster order."""
    if not ballots:
        raise BaselineError("no ballots")
    rank = _roster_rank(roster)
    counts = {c: 0 for c in roster.tally_candidates}
    for b in ballots:
        if not b.prefs:
            raise BaselineError(f"empty ballot from voter {b.voter_id!r}")
        top = _sincere_top(b, roster)
        if top is not None:
            counts[top] += 1
    return min(counts, key=lambda c: (-counts[c], rank[c]))


def irv_winner(ballots: Sequence[Ballot], roster: CandidateRoster) -> str:
    """Instant-runoff: eliminate the weakest first-preference candidate
    (roster order on ties), transferring ballots to their next surviving
    stamp, until someone holds a strict majority of non-exhausted ballots.
    """
    if not ballots:
        raise BaselineError("no ballots")
    rank = _roster_rank(roster)
    active = set(roster.tally_candidates)
    prefs = [[c for c in b.prefs if c != roster.idk_id] for b in ballots]

    while True:
        counts = {c: 0 for c in active}
        live = 0
        for pref in prefs:
            for cand in pref:
                if cand in active:
                    counts[cand] += 1
                    live += 1
                    break
        if live == 0:
            # Every ballot exhausted; fall back to roster order.
            return min(active, key=lambda c: rank[c])
        leader = min(active, key=lambda c: (-counts[c], rank[c]))
        if 2 * counts[leader] > live or len(active) == 1:
            return leader
        loser = min(active, key=lambda c: (counts[c], rank[c]))
        active.remove(loser)


def crowd_mean_ranking(pm: PredictionMatrix) -> tuple[str, ...]:
    """Slate sorted by descending column mean; ties keep slate order."""
    if pm.values.shape[0] < 1:
        raise BaselineError("need at least one voter")
    means = pm.values.mean(axis=0)
    order = np.argsort(-means, kind="stable")
    return tuple(pm.slate[j] for j in order)


def crowd_median_ranking(pm: PredictionMatrix) -> tuple[str, ...]:
    """Slate sorted by descending column median; ties keep slate order."""
    if pm.values.shape[0] < 1:
        raise BaselineError("need at least one voter")
    medians = np.median(pm.values, axis=0)
    order = np.argsort(-medians, kind="stable")
    return tuple(pm.slate[j] for j in order)


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
