"""Plurality, instant-runoff, and raw-prediction comparators."""

import random
import tracemalloc

import numpy as np
import pytest

from stagevote.ballot import Ballot, CandidateRoster, expand_incomplete
from stagevote.baselines import (
    BaselineError,
    PredictionMatrix,
    best_voter,
    column_median,
    crowd_mean_ranking,
    crowd_median_ranking,
    fptp_winner,
    irv_winner,
)
from stagevote.select import basic_winner
from stagevote.tally import count_votes, cumulate, score

from conftest import CONCRETE_PATTERNS, ROSTER_SIX, ballots_from_patterns

ROSTER_AB = CandidateRoster(("A", "B", "NULL"), null_id="NULL")


def _ballots(*patterns):
    out = []
    for prefs, count in patterns:
        for _ in range(count):
            out.append(Ballot(f"v{len(out)}", tuple(prefs)))
    return out


class TestFptp:
    def test_plurality(self):
        ballots = _ballots((("A", "B"), 3), (("B", "A"), 2))
        assert fptp_winner(ballots, ROSTER_AB) == "A"

    def test_concrete_profile_tie_goes_to_roster_order(self):
        ballots = ballots_from_patterns(CONCRETE_PATTERNS)
        assert fptp_winner(ballots, ROSTER_SIX) == "A"

    def test_single_ballot(self):
        assert fptp_winner(_ballots((("B", "A"), 1)), ROSTER_AB) == "B"

    def test_idk_stamp_skipped(self):
        roster = CandidateRoster(("A", "B", "NULL", "IDK"), null_id="NULL",
                                 idk_id="IDK")
        ballots = _ballots((("IDK", "B"), 2), (("A",), 1))
        assert fptp_winner(ballots, roster) == "B"

    def test_no_ballots(self):
        with pytest.raises(BaselineError):
            fptp_winner([], ROSTER_AB)

    def test_empty_ballot_rejected(self):
        with pytest.raises(BaselineError):
            fptp_winner([Ballot("v", ())], ROSTER_AB)

    def test_stamp_off_the_roster_rejected(self):
        ballots = [Ballot("v", ("Z", "A")), Ballot("w", ("B",))]
        with pytest.raises(BaselineError, match="voter 'v' stamps 'Z'"):
            fptp_winner(ballots, ROSTER_AB)

    def test_errors_in_order(self):
        # Every stamp is checked before any ballot is found empty.
        with pytest.raises(BaselineError, match="^no ballots$"):
            fptp_winner([], ROSTER_AB)
        ballots = [Ballot("e", ()), Ballot("w", ("B", "Z")), Ballot("f", ())]
        with pytest.raises(BaselineError, match="^voter 'w' stamps 'Z', not on the roster$"):
            fptp_winner(ballots, ROSTER_AB)
        ballots = [Ballot("v", ("A",)), Ballot("e", ()), Ballot("f", ())]
        with pytest.raises(BaselineError, match="^empty ballot from voter 'e'$"):
            fptp_winner(ballots, ROSTER_AB)


class TestIrv:
    def test_majority_short_circuit(self):
        ballots = _ballots((("A", "B"), 6), (("B", "A"), 5))
        assert irv_winner(ballots, ROSTER_AB) == "A"

    def test_hand_run_elimination(self):
        roster = CandidateRoster(("A", "B", "C", "NULL"), null_id="NULL")
        # A:4 firsts; B:3 with C second; C:2 with B second. C is
        # eliminated and transfers to B, who wins 5-4.
        ballots = _ballots((("A",), 4), (("B", "C"), 3), (("C", "B"), 2))
        assert irv_winner(ballots, roster) == "B"

    def test_unanimous(self):
        ballots = _ballots((("B", "A"), 7))
        assert irv_winner(ballots, ROSTER_AB) == "B"

    def test_exhausted_ballots_leave_active_count(self):
        roster = CandidateRoster(("A", "B", "C", "NULL"), null_id="NULL")
        # After C's elimination the two C-only ballots exhaust, so A's 3
        # of the remaining 5 is a strict majority.
        ballots = _ballots((("A",), 3), (("B",), 2), (("C",), 2))
        assert irv_winner(ballots, roster) == "A"

    def test_majority_criterion_random_profiles(self):
        rng = random.Random(5)
        roster = CandidateRoster(("A", "B", "C", "NULL"), null_id="NULL")
        for _ in range(50):
            majority = [Ballot(f"m{i}", ("C",) + tuple(rng.sample(["A", "B"], 1)))
                        for i in range(6)]
            rest = [Ballot(f"r{i}", tuple(rng.sample(roster.candidates, 2)))
                    for i in range(5)]
            assert irv_winner(majority + rest, roster) == "C"

    def test_stamp_off_the_roster_rejected(self):
        # Off the roster even below the first preference.
        ballots = [Ballot("v", ("A",)), Ballot("w", ("B", "Z"))]
        with pytest.raises(BaselineError, match="voter 'w' stamps 'Z'"):
            irv_winner(ballots, ROSTER_AB)

    def test_matches_per_ballot_loop(self):
        roster = CandidateRoster(("A", "B", "C", "D", "E", "NULL", "IDK"),
                                 null_id="NULL", idk_id="IDK")
        rng = random.Random(14)
        seen = {"exhausted": 0, "all_exhausted": 0}
        for trial in range(2000):
            names = roster.candidates[:rng.randint(3, 7)]
            ballots = [Ballot(f"v{i}", tuple(rng.sample(names, rng.randint(0, 3))))
                       for i in range(rng.randint(1, 12))]
            expected = _irv_oracle(ballots, roster, seen)
            assert irv_winner(ballots, roster) == expected, (trial, ballots)
            if all(b.prefs for b in ballots):
                assert fptp_winner(ballots, roster) == _fptp_oracle(ballots, roster)
        # The profiles reach rounds with exhausted ballots, and with nothing left.
        assert seen["exhausted"] > 100 and seen["all_exhausted"] > 10, seen


def _irv_oracle(ballots, roster, seen):
    """Instant-runoff as a loop over stamp lists, one ballot at a time; it
    notes in ``seen`` the rounds with exhausted ballots and with none live."""
    rank = {c: i for i, c in enumerate(roster.tally_candidates)}
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
        seen["exhausted"] += live < len(prefs)
        if live == 0:
            seen["all_exhausted"] += 1
            return min(active, key=lambda c: rank[c])
        leader = min(active, key=lambda c: (-counts[c], rank[c]))
        if 2 * counts[leader] > live or len(active) == 1:
            return leader
        active.remove(min(active, key=lambda c: (counts[c], rank[c])))


def _fptp_oracle(ballots, roster):
    """Plurality on the first non-IDK stamp, roster order on ties."""
    counts = {c: 0 for c in roster.tally_candidates}
    for b in ballots:
        top = next((c for c in b.prefs if c != roster.idk_id), None)
        if top is not None:
            counts[top] += 1
    return min(roster.tally_candidates, key=lambda c: -counts[c])


class TestCrowdRankings:
    def test_single_voter_order(self):
        pm = PredictionMatrix(slate=("a", "b", "c"), values=np.array([[1.0, 3.0, 2.0]]))
        assert crowd_mean_ranking(pm) == ("b", "c", "a")
        assert crowd_median_ranking(pm) == ("b", "c", "a")

    def test_symmetric_errors_cancel_in_mean(self):
        true = np.array([10.0, 20.0, 30.0])
        noise = np.array([5.0, -7.0, 2.0])
        pm = PredictionMatrix(slate=("a", "b", "c"),
                              values=np.stack([true + noise, true - noise]))
        assert crowd_mean_ranking(pm) == ("c", "b", "a")

    def test_constant_columns_keep_slate_order(self):
        pm = PredictionMatrix(slate=("a", "b", "c"),
                              values=np.array([[1.0, 1.0, 1.0]]))
        assert crowd_mean_ranking(pm) == ("a", "b", "c")

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(5, 4))
        pm = PredictionMatrix(slate=("a", "b", "c", "d"), values=values)
        shifted = values.copy()
        shifted[2] += 123.456
        pm2 = PredictionMatrix(slate=pm.slate, values=shifted)
        assert crowd_mean_ranking(pm) == crowd_mean_ranking(pm2)

    @pytest.mark.parametrize("rows", [1, 2, 3, 100, 101, 130, 500])
    def test_column_median_is_np_median_bit_for_bit(self, rows):
        # Widths around the 64-column sort block; odd and even row counts.
        rng = np.random.default_rng(rows)
        for width in (1, 3, 11, 63, 64, 65, 130, 900):
            for values in (rng.normal(1500.0, 400.0, size=(rows, width)),
                           # Ties: few distinct values, so middle pairs repeat.
                           rng.integers(0, 4, size=(rows, width)) * 0.1,
                           rng.uniform(-1e300, 1e300, size=(rows, width))):
                # The array, a column-sliced view and a Fortran-order copy.
                for view in (values, values[:, ::2], np.asfortranarray(values)):
                    expected = np.median(view, axis=0)
                    got = column_median(view)
                    assert got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes()
                got, expected = column_median(values[:, 0]), np.median(values[:, 0])
                assert type(got) is type(expected) is np.float64
                assert got.tobytes() == expected.tobytes()

    def test_column_median_peak_memory_is_one_block(self):
        # Columns are sorted 64 at a time: no copy of the whole matrix.
        values = np.random.default_rng(7).normal(size=(5000, 900))
        column_median(values[:10])  # first-call allocations
        tracemalloc.start()
        try:
            column_median(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 4, f"peak {peak / values.nbytes:.2f} matrices"

    def test_validation(self):
        with pytest.raises(BaselineError):
            PredictionMatrix(slate=("a",), values=np.array([[np.inf]]))
        with pytest.raises(BaselineError):
            PredictionMatrix(slate=("a", "b"), values=np.array([[1.0]]))


class TestBestVoter:
    def test_crowd_of_one(self):
        assert best_voter(np.array([[1.0, 2.0]]), np.array([1.0, 2.0])) == 0

    def test_planted_perfect_voter(self):
        truth = np.array([3.0, 1.0, 4.0])
        preds = np.stack([truth + 2.0, truth, truth - 1.0])
        assert best_voter(preds, truth) == 1

    def test_lower_noise_wins_with_high_probability(self):
        # Two voters with injected noise sd 1 and 3; the quieter one
        # should be picked nearly always over 200 seeds.
        wins = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            truth = rng.uniform(0, 100, size=50)
            preds = np.stack([
                truth + rng.normal(0, 1.0, size=50),
                truth + rng.normal(0, 3.0, size=50),
            ])
            if best_voter(preds, truth) == 0:
                wins += 1
        assert wins >= 190

    def test_empty_validation_set(self):
        with pytest.raises(BaselineError):
            best_voter(np.zeros((2, 0)), np.zeros(0))


def test_fptp_equals_basic_with_zero_alpha_on_single_pref_ballots():
    rng = random.Random(777)
    roster = CandidateRoster(("A", "B", "C", "D", "NULL"), null_id="NULL")
    for _ in range(300):
        ballots = [
            Ballot(f"v{i}", (rng.choice(roster.candidates),))
            for i in range(rng.randint(1, 30))
        ]
        expanded = [expand_incomplete(b, roster, 1) for b in ballots]
        table = score(cumulate(count_votes(expanded, roster, 1)))
        assert basic_winner(table, 0.0).winner == fptp_winner(ballots, roster)
