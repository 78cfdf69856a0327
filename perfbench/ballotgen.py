"""Seeded ballot CSVs for the tally workload, and an independent count oracle.

Voters rank the five real candidates and NULL by a Plackett-Luce draw
(popular candidates are picked early more often), stop after a random
number of stamps, and one ballot in ten carries an ``IDK`` stamp at a
random position. Skewed preferences plus truncation make most ballots
repeat, the way real ballot files do; the traced run reports the share
that does not as ``ballot.distinct_ratio``.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

NULL = "NULL"
IDK = "IDK"
CANDIDATES = ("A", "B", "C", "D", "E", NULL)  # the roster the CLI infers, IDK aside
WEIGHTS = (6.0, 4.0, 2.5, 1.5, 1.0, 0.8)
# Probability of a ballot holding 0, 1, ..., 6 stamps before any IDK.
LENGTH_WEIGHTS = (0.02, 0.20, 0.30, 0.23, 0.12, 0.05, 0.08)
IDK_SHARE = 0.1
COLUMNS = len(CANDIDATES) + 1  # a full ranking plus one IDK stamp

Ballot = tuple[str, ...]


def generate(seed: int, n: int) -> list[Ballot]:
    """Draw ``n`` ballots; the same seed always gives the same ballots."""
    rng = random.Random(seed)
    lengths = rng.choices(range(len(LENGTH_WEIGHTS)), LENGTH_WEIGHTS, k=n)
    ballots = []
    for length in lengths:
        pool = list(CANDIDATES)
        weights = list(WEIGHTS)
        prefs = []
        for _ in range(length):
            j = rng.choices(range(len(pool)), weights)[0]
            prefs.append(pool.pop(j))
            weights.pop(j)
        if prefs and rng.random() < IDK_SHARE:
            prefs.insert(rng.randrange(len(prefs) + 1), IDK)
        ballots.append(tuple(prefs))
    return ballots


def write_csv(path, ballots: Sequence[Ballot]) -> None:
    header = ["voter_id"] + [f"pref{i}" for i in range(1, COLUMNS + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i, prefs in enumerate(ballots):
            cells = list(prefs) + [""] * (COLUMNS - len(prefs))
            fh.write(f"v{i}," + ",".join(cells) + "\n")


def _truncated(ballots: Sequence[Ballot], num_prefs: int) -> Counter:
    # What the tally sees of a ballot: its first num_prefs stamps, IDK as a gap.
    return Counter(
        tuple(None if c == IDK else c for c in prefs[:num_prefs]) for prefs in ballots
    )


def oracle_counts(ballots: Sequence[Ballot], num_prefs: int) -> list[list[Fraction]]:
    """Vote-count table, rows = preferences, columns = ``CANDIDATES``.

    Groups identical truncated ballots and adds each group's mass in closed
    form: a stamp gives the group size to its candidate, a gap splits it
    evenly over the candidates the ballot never stamped.
    """
    col = {c: j for j, c in enumerate(CANDIDATES)}
    table = [[Fraction(0)] * len(CANDIDATES) for _ in range(num_prefs)]
    for key, size in _truncated(ballots, num_prefs).items():
        stamps = list(key) + [None] * (num_prefs - len(key))
        unstamped = [c for c in CANDIDATES if c not in key]
        for row, stamp in zip(table, stamps):
            if stamp is not None:
                row[col[stamp]] += size
            else:
                for c in unstamped:
                    row[col[c]] += Fraction(size, len(unstamped))
    return table
