"""Stage tables: golden example, oracles, and invariants."""

import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagevote.ballot import (
    Ballot,
    CandidateRoster,
    FractionalBallot,
    csv_preference_columns,
    expand_incomplete,
    parse_ballots,
)
from stagevote.tally import (
    DegenerateDistributionError,
    StageTable,
    TableKind,
    TallyError,
    UndefinedScoreError,
    compute_stage_stats,
    count_votes,
    cumulate,
    score,
    sort_columns,
    stage_entropy,
    stage_variance,
)

from conftest import ROSTER_SIX, make_score_table, pipeline

# Printed tables of the 100-voter worked example (columns A B C D X NULL).
COUNTS_GOLDEN = [
    [25, 25, 25, 25, 0, 0],
    [0, 0, 0, 0, 100, 0],
    [0, 0, 0, 0, 0, 100],
    [25, 25, 25, 25, 0, 0],
    [25, 25, 25, 25, 0, 0],
    [25, 25, 25, 25, 0, 0],
]
PROCESSED_GOLDEN = [
    [25, 25, 25, 25, 0, 0],
    [25, 25, 25, 25, 100, 0],
    [25, 25, 25, 25, 100, 100],
    [50, 50, 50, 50, 100, 100],
    [75, 75, 75, 75, 100, 100],
    [100, 100, 100, 100, 100, 100],
]
SCORES_GOLDEN = PROCESSED_GOLDEN  # n = 100 makes percentages equal counts


class TestGoldenExample:
    def test_counts(self, concrete_tables):
        vc, _, _ = concrete_tables
        assert [[int(v) for v in row] for row in vc.rows] == COUNTS_GOLDEN
        assert vc.n == 100

    def test_processed(self, concrete_tables):
        _, pt, _ = concrete_tables
        assert [[int(v) for v in row] for row in pt.rows] == PROCESSED_GOLDEN

    def test_scores(self, concrete_tables):
        _, _, table = concrete_tables
        assert [[int(v) for v in row] for row in table.rows] == SCORES_GOLDEN

    def test_scores_are_exact_fractions(self, concrete_tables):
        _, _, table = concrete_tables
        assert table.row(2)[4] == Fraction(100)
        assert table.row(1)[0] == Fraction(25)


class TestCountVotes:
    def test_zero_ballots(self):
        vc = count_votes([], ROSTER_SIX, num_prefs=3)
        assert vc.n == 0
        assert all(v == 0 for row in vc.rows for v in row)
        with pytest.raises(UndefinedScoreError):
            score(cumulate(vc))

    def test_hand_count(self):
        roster = CandidateRoster(("A", "B", "NULL"), null_id="NULL")
        ballots = [
            Ballot("v0", ("A", "B")),
            Ballot("v1", ("A", "NULL")),
            Ballot("v2", ("B", "A")),
            Ballot("v3", ("NULL",)),
        ]
        fbs = [expand_incomplete(b, roster, 2) for b in ballots]
        vc = count_votes(fbs, roster, 2)
        # Preference 1: A twice, B once, NULL once.
        assert vc.row(1) == (2, 1, 1)
        # Preference 2: B, NULL, A stamped; v3's missing row splits
        # between A and B.
        assert vc.row(2) == (Fraction(3, 2), Fraction(3, 2), 1)

    def test_mixed_roster_rejected(self):
        other = CandidateRoster(("A", "Z", "NULL"), null_id="NULL")
        fb = expand_incomplete(Ballot("v", ("A",)), other, 2)
        with pytest.raises(TallyError):
            count_votes([fb], ROSTER_SIX, 2)

    def test_mixed_num_prefs_rejected(self):
        fb = expand_incomplete(Ballot("v", ("A",)), ROSTER_SIX, 3)
        with pytest.raises(TallyError):
            count_votes([fb], ROSTER_SIX, 2)

    def test_off_roster_stamp_rejected(self):
        # An unvalidated ballot: expand_incomplete copies the stamp as is.
        fb = expand_incomplete(Ballot("v", ("Z",)), ROSTER_SIX, 2)
        good = expand_incomplete(Ballot("w", ("A",)), ROSTER_SIX, 2)
        for ballots in ([good, fb], Counter({good: 3, fb: 1})):
            with pytest.raises(TallyError, match="not on the roster"):
                count_votes(ballots, ROSTER_SIX, 2)

    def test_repeated_stamp_rejected(self):
        for stamps in (("A", "A", "B"), ("A", None, "A")):
            fb = FractionalBallot(ROSTER_SIX.tally_candidates, stamps)
            for ballots in ([fb], Counter({fb: 2})):
                with pytest.raises(TallyError, match="more than once"):
                    count_votes(ballots, ROSTER_SIX, 3)


def _per_ballot_counts(ballots, roster, num_prefs):
    """The README rule, ballot by ballot: a stamp puts 1 on its candidate;
    a missing or IDK row splits 1 evenly over the candidates not stamped
    within the first num_prefs preferences."""
    cands = [c for c in roster.candidates if c != roster.idk_id]
    totals = [[Fraction(0)] * len(cands) for _ in range(num_prefs)]
    for b in ballots:
        kept = [c if c != roster.idk_id else None for c in b.prefs[:num_prefs]]
        kept += [None] * (num_prefs - len(kept))
        absent = [j for j, c in enumerate(cands) if c not in kept]
        for i, cand in enumerate(kept):
            if cand is None:
                for j in absent:
                    totals[i][j] += Fraction(1, len(absent))
            else:
                totals[i][cands.index(cand)] += 1
    return tuple(tuple(row) for row in totals)


class TestGrouping:
    def test_matches_per_ballot_oracle(self):
        rng = random.Random(2024)
        for trial in range(150):
            size = rng.randint(2, 12)
            names = [f"K{i}" for i in range(size - 1)] + ["NULL"]
            idk = "IDK" if rng.random() < 0.5 else None
            roster = CandidateRoster(tuple(names + ([idk] if idk else [])),
                                     null_id="NULL", idk_id=idk)
            num_prefs = rng.randint(1, roster.k)
            # A few distinct patterns, cut at random lengths (some longer
            # than num_prefs), cast many times, so the list holds duplicates
            # in shuffled order.
            patterns = [tuple(rng.sample(roster.candidates,
                                         rng.randint(0, len(roster.candidates))))
                        for _ in range(rng.randint(1, 8))]
            ballots = [Ballot(f"v{i}", rng.choice(patterns))
                       for i in range(rng.randint(1, 40))]
            rng.shuffle(ballots)
            vc = count_votes([expand_incomplete(b, roster, num_prefs) for b in ballots],
                             roster, num_prefs)
            assert vc.rows == _per_ballot_counts(ballots, roster, num_prefs)
            assert all(type(v) is Fraction for row in vc.rows for v in row)
            assert vc.n == len(ballots)

    def test_wide_roster_common_denominator(self):
        # Eleven real candidates, NULL and IDK; ballots cut after 1..11
        # stamps, one with an IDK row, leave 1..11 candidates unstamped, so
        # the common denominator is lcm(1..11) = 27720.
        names = tuple(f"K{i}" for i in range(11)) + ("NULL", "IDK")
        roster = CandidateRoster(names, null_id="NULL", idk_id="IDK")
        ballots = [Ballot(f"v{i}", names[:i]) for i in range(1, 12)]
        ballots += [Ballot("w", ("K3", "IDK", "K1")), Ballot("c", names[:12])] * 3
        expanded = [expand_incomplete(b, roster, roster.k) for b in ballots]
        vc = count_votes(expanded, roster, roster.k)
        assert vc.rows == _per_ballot_counts(ballots, roster, roster.k)
        assert vc.rows == count_votes(Counter(expanded), roster, roster.k).rows
        assert math.lcm(*(v.denominator for row in vc.rows for v in row)) == 27720
        assert all(sum(row) == len(ballots) for row in vc.rows)

    def test_mutating_returned_rows_changes_no_count(self):
        roster = CandidateRoster(("A", "B", "NULL"), null_id="NULL")
        fb = expand_incomplete(Ballot("v", ("A",)), roster, 2)
        before = count_votes([fb, fb], roster, 2)
        fb.rows[0]["A"] = 100
        fb.rows[1].clear()
        assert count_votes([fb, fb], roster, 2) == before
        assert before.rows == ((2, 0, 0), (0, 1, 1))

    def test_count_never_reads_rows(self, monkeypatch):
        def refused(fb):
            raise AssertionError("count_votes read FractionalBallot.rows")
        prefs = [("A",), ("A", "B"), ("A",), ("B", "NULL"), ("IDK", "B"), ()]
        roster = CandidateRoster(ROSTER_SIX.candidates + ("IDK",), idk_id="IDK")
        fbs = [expand_incomplete(Ballot(f"v{i}", p), roster, 2)
               for i, p in enumerate(prefs)]
        expected = _per_ballot_counts(
            [Ballot(f"v{i}", p) for i, p in enumerate(prefs)], roster, 2)
        monkeypatch.setattr(FractionalBallot, "rows", property(refused))
        assert count_votes(fbs, roster, 2).rows == expected
        assert count_votes(Counter(fbs), roster, 2).rows == expected

    def test_mismatch_in_a_group_rejected(self):
        good = expand_incomplete(Ballot("v", ("A",)), ROSTER_SIX, 2)
        short = expand_incomplete(Ballot("v", ("A",)), ROSTER_SIX, 1)
        other = expand_incomplete(
            Ballot("v", ("A",)), CandidateRoster(("A", "Z", "NULL"), null_id="NULL"), 2)
        for bad in (short, other):
            with pytest.raises(TallyError):
                count_votes([good] * 5 + [bad] * 3 + [good], ROSTER_SIX, 2)


@given(st.lists(st.lists(st.integers(min_value=0, max_value=50),
                          min_size=3, max_size=3),
                min_size=1, max_size=6))
def test_cumulate_matches_prefix_sum_oracle(rows):
    counts = tuple(tuple(Fraction(v) for v in row) for row in rows)
    vc = StageTable(TableKind.COUNTS, ("A", "B", "NULL"), counts, 10)
    pt = cumulate(vc)
    for i in range(len(rows)):
        for j in range(3):
            naive = sum(rows[r][j] for r in range(i + 1))
            assert pt.rows[i][j] == naive


def test_cumulate_single_stage_is_identity():
    vc = StageTable(TableKind.COUNTS, ("A", "NULL"),
                    ((Fraction(3), Fraction(1)),), 4)
    assert cumulate(vc).rows == vc.rows


@st.composite
def random_profiles(draw):
    size = draw(st.integers(min_value=2, max_value=5))
    names = tuple([f"K{i}" for i in range(size - 1)] + ["NULL"])
    roster = CandidateRoster(names, null_id="NULL")
    num_prefs = draw(st.integers(min_value=1, max_value=roster.k))
    ballots = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        length = draw(st.integers(min_value=0, max_value=num_prefs))
        prefs = tuple(draw(st.permutations(list(names)))[:length])
        ballots.append(Ballot(f"v{i}", prefs))
    return roster, ballots, num_prefs


@given(random_profiles())
@settings(max_examples=100)
def test_row_sum_conservation(profile):
    roster, ballots, num_prefs = profile
    vc, pt, table = pipeline(roster, ballots, num_prefs)
    n = len(ballots)
    for row in vc.rows:
        assert sum(row) == n
    for i, row in enumerate(pt.rows, start=1):
        assert sum(row) == i * n
    for i, row in enumerate(table.rows, start=1):
        assert sum(row) == 100 * i


@given(random_profiles())
@settings(max_examples=100)
def test_counts_from_a_counter_equal_counts_from_the_list(profile):
    roster, ballots, num_prefs = profile
    expanded = [expand_incomplete(b, roster, num_prefs) for b in ballots]
    from_list = count_votes(expanded, roster, num_prefs)
    from_counter = count_votes(Counter(expanded), roster, num_prefs)
    assert from_counter == from_list
    assert from_counter.n == from_list.n == len(ballots)


@given(random_profiles())
@settings(max_examples=100)
def test_scores_monotone_and_bounded(profile):
    roster, ballots, num_prefs = profile
    _, _, table = pipeline(roster, ballots, num_prefs)
    for j in range(len(table.candidates)):
        prev = Fraction(0)
        for i in range(1, table.num_stages + 1):
            value = table.row(i)[j]
            assert 0 <= value <= 100
            assert value >= prev
            prev = value


def test_complete_ballots_reach_100_at_stage_k():
    roster = CandidateRoster(("A", "B", "C", "NULL"), null_id="NULL")
    ballots = [
        Ballot("v0", ("A", "B", "C", "NULL")),
        Ballot("v1", ("C", "NULL", "A", "B")),
        Ballot("v2", ("B", "A", "NULL", "C")),
    ]
    _, _, table = pipeline(roster, ballots, 4)
    assert table.row(4) == (100, 100, 100, 100)


class TestScoreExamples:
    def test_unanimity_first_stage(self):
        roster = CandidateRoster(("A", "B", "NULL"), null_id="NULL")
        ballots = [Ballot(f"v{i}", ("A", "B")) for i in range(7)]
        _, _, table = pipeline(roster, ballots, 2)
        assert table.row(1) == (100, 0, 0)

    def test_three_empty_ballots_two_candidates(self):
        roster = CandidateRoster(("A", "NULL"), null_id="NULL")
        ballots = [Ballot(f"v{i}", ()) for i in range(3)]
        _, _, table = pipeline(roster, ballots, 2)
        assert table.row(1) == (50, 50)
        assert table.row(2) == (100, 100)


class TestStageDistribution:
    """The candidate distribution of a stage, as ``stage_entropy`` reads it."""

    def test_single_column_is_point_mass(self):
        table = make_score_table(["A"], [[100]], n=5)
        assert stage_entropy(table, 1) == 0.0

    def test_zero_row_degenerate(self):
        table = make_score_table(["A", "B"], [[0, 0]], n=5)
        with pytest.raises(DegenerateDistributionError):
            stage_entropy(table, 1)

    def test_out_of_range(self, concrete_tables):
        _, _, table = concrete_tables
        for stage in (0, 7):
            with pytest.raises(TallyError):
                stage_entropy(table, stage)


class TestStageStatistics:
    def test_entropy_uniform_six(self, concrete_tables):
        _, _, table = concrete_tables
        assert stage_entropy(table, 6) == pytest.approx(math.log2(6), abs=1e-12)

    def test_entropy_point_mass(self):
        table = make_score_table(["A", "B"], [[100, 0]])
        assert stage_entropy(table, 1) == 0.0

    def test_entropy_concrete_stage1_is_two_bits(self, concrete_tables):
        _, _, table = concrete_tables
        assert stage_entropy(table, 1) == pytest.approx(2.0, abs=1e-12)

    def test_variance_constant_row(self):
        table = make_score_table(["A", "B", "C"], [[40, 40, 40]])
        assert stage_variance(table, 1) == 0.0

    def test_variance_concrete_stage2(self, concrete_tables):
        # Population variance of (25,25,25,25,100,0): mean 100/3,
        # sum of squared deviations 52500/9, divided by 6 -> 8750/9.
        _, _, table = concrete_tables
        assert stage_variance(table, 2) == pytest.approx(8750 / 9, rel=1e-12)

    def test_variance_two_candidate_split(self):
        table = make_score_table(["A", "B"], [[0, 100]])
        assert stage_variance(table, 1) == pytest.approx(2500.0)

    @given(random_profiles())
    @settings(max_examples=60)
    def test_entropy_bounds(self, profile):
        roster, ballots, num_prefs = profile
        if not ballots:
            return
        _, _, table = pipeline(roster, ballots, num_prefs)
        k = len(table.candidates)
        for i in range(1, table.num_stages + 1):
            h = stage_entropy(table, i)
            assert -1e-12 <= h <= math.log2(k) + 1e-12

    def test_entropy_max_at_last_complete_stage(self):
        roster = CandidateRoster(("A", "B", "C", "NULL"), null_id="NULL")
        ballots = [
            Ballot("v0", ("A", "B", "C", "NULL")),
            Ballot("v1", ("B", "C", "NULL", "A")),
        ]
        _, _, table = pipeline(roster, ballots, 4)
        last = stage_entropy(table, 4)
        assert last == pytest.approx(math.log2(4), abs=1e-12)
        for i in range(1, 5):
            assert stage_entropy(table, i) <= last + 1e-12

    def test_compute_stage_stats_handles_empty_rows(self):
        table = make_score_table(["A", "B"], [[0, 0], [50, 50]])
        stats = compute_stage_stats(table)
        assert stats.entropy[0] is None
        assert stats.entropy[1] == pytest.approx(1.0)
        assert stats.variance == (0.0, 0.0)
        assert stats.variance_key == (0, 0)


class TestSortColumns:
    def test_concrete_order(self, concrete_tables):
        _, _, table = concrete_tables
        assert sort_columns(table) == ("X", "NULL", "A", "B", "C", "D")

    def test_identical_columns_keep_roster_order(self):
        table = make_score_table(["A", "B", "C"], [[10, 10, 40], [20, 20, 80]])
        assert sort_columns(table) == ("C", "A", "B")

    @given(random_profiles())
    @settings(max_examples=60)
    def test_is_permutation(self, profile):
        roster, ballots, num_prefs = profile
        _, _, table = pipeline(roster, ballots, num_prefs)
        assert sorted(sort_columns(table)) == sorted(table.candidates)


class TestPerTableCache:
    def test_members_match_module_functions(self, concrete_tables):
        _, _, table = concrete_tables
        assert table.floats == tuple(tuple(float(v) for v in row)
                                     for row in table.rows)
        assert table.stats == compute_stage_stats(table)
        assert table.column_order == sort_columns(table)

    def test_each_member_is_built_once(self, concrete_tables, table_builds):
        _, _, table = concrete_tables
        for _ in range(3):
            table.stats, table.column_order, table.floats, table.tie_rank
        assert table_builds == {"compute_stage_stats": 1, "sort_columns": 1}
        assert table.floats is table.floats
        assert table.tie_rank is table.tie_rank
        assert table.tie_rank == {c: i for i, c in enumerate(table.column_order)}

    def test_float_rows_are_fresh_lists(self, concrete_tables):
        _, _, table = concrete_tables
        key = table.kind.json_key
        rows = table.to_json_dict()[key]
        rows[0][0] = -1.0
        rows.pop()
        assert table.to_json_dict()[key] == [list(row) for row in table.floats]
        assert table.floats[0][0] == 25.0
        assert table.to_json_dict()[key] is not table.to_json_dict()[key]

    def test_cache_is_outside_equality_and_hash(self, concrete_tables):
        _, _, used = concrete_tables
        used.stats, used.column_order, used.floats
        fresh = StageTable(used.kind, used.candidates, used.rows, used.n)
        assert fresh == used
        assert hash(fresh) == hash(used)


WIDE_CSV = Path(__file__).parent / "data" / "wide_roster.csv"


def _wide_roster_counts() -> StageTable:
    """``count_votes`` on the wide-roster file, roster inferred as the CLI
    does: real candidates sorted, then NULL, then IDK."""
    text = WIDE_CSV.read_text(encoding="utf-8")
    ballots = parse_ballots(text, None)
    seen = {c for b in ballots for c in b.prefs}
    real = sorted(seen - {"NULL", "IDK"})
    roster = CandidateRoster(tuple(real + ["NULL", "IDK"]), null_id="NULL", idk_id="IDK")
    num_prefs = min(csv_preference_columns(text), roster.k)
    return count_votes([expand_incomplete(b, roster, num_prefs) for b in ballots],
                       roster, num_prefs)


class TestIntegerViews:
    """Every view read from the int numerators is bit-identical to the same
    view of a table built from the ``Fraction`` cells."""

    @staticmethod
    def _views(table: StageTable) -> tuple:
        return (table.floats, table.stats, table.column_order, table.ranking,
                table.rows)

    @staticmethod
    def _fraction_views(table: StageTable) -> tuple:
        """Floats, entropies and column order computed in ``Fraction``s."""
        floats = tuple(tuple(float(v) for v in row) for row in table.rows)
        entropy = []
        for row in table.rows:
            total = sum(row)
            h = None if total == 0 else 0.0
            for v in row:
                if v > 0:
                    p = float(v / total)
                    h -= p * math.log2(p)
            entropy.append(h)
        order = sorted(range(len(table.candidates)),
                       key=lambda j: [row[j] for row in reversed(table.rows)], reverse=True)
        return floats, tuple(entropy), tuple(table.candidates[j] for j in order)

    def _check(self, vc: StageTable) -> None:
        assert all(type(v) is Fraction for row in vc.rows for v in row)
        for table in (vc, cumulate(vc), score(cumulate(vc))):
            assert (table.floats, table.stats.entropy, table.column_order) == \
                self._fraction_views(table)
            oracle = StageTable(table.kind, table.candidates, table.rows, table.n)
            assert self._views(table) == self._views(oracle)
            assert table == oracle and hash(table) == hash(oracle)
            assert all(type(v) is Fraction for row in table.rows for v in row)

    def test_random_ballots(self):
        rng = random.Random(1212)
        for trial in range(150):
            size = rng.randint(2, 12)
            names = [f"K{i}" for i in range(size - 1)] + ["NULL"]
            idk = "IDK" if rng.random() < 0.5 else None
            roster = CandidateRoster(tuple(names + ([idk] if idk else [])),
                                     null_id="NULL", idk_id=idk)
            num_prefs = rng.randint(1, roster.k)
            ballots = [Ballot(f"v{i}", tuple(rng.sample(roster.candidates,
                                                        rng.randint(0, roster.k))))
                       for i in range(rng.randint(1, 30))]
            self._check(count_votes([expand_incomplete(b, roster, num_prefs)
                                     for b in ballots], roster, num_prefs))

    def test_wide_roster_file(self):
        vc = _wide_roster_counts()
        assert vc.denom == 27720
        self._check(vc)

    def test_fraction_rows_derive_ints_over_their_lcm(self):
        table = make_score_table(["A", "B", "NULL"],
                                 [[Fraction(1, 2), Fraction(1, 3), 0], [1, 2, 3]])
        assert (table.ints, table.denom) == (((3, 2, 0), (6, 12, 18)), 6)
        assert table.floats == ((0.5, 1 / 3, 0.0), (1.0, 2.0, 3.0))


class TestSerialization:
    def test_score_json_shape(self, concrete_tables):
        _, _, table = concrete_tables
        doc = table.to_json_dict()
        assert doc["candidates"] == list(ROSTER_SIX.tally_candidates)
        assert doc["n"] == 100
        assert doc["stages"][1][4] == 100.0
        json.dumps(doc)  # must be serializable

    def test_each_step_returns_its_kind(self, concrete_tables):
        vc, pt, table = concrete_tables
        assert (vc.kind, pt.kind, table.kind) == (
            TableKind.COUNTS, TableKind.PROCESSED, TableKind.SCORES)
        assert set(vc.to_json_dict()) == {"candidates", "preferences", "n"}
        assert set(pt.to_json_dict()) == {"candidates", "stages", "n"}
        assert pt.to_text().splitlines()[0] == "Processed Vote Counts"

    def test_text_layout(self, concrete_tables):
        vc, _, _ = concrete_tables
        text = vc.to_text()
        lines = text.splitlines()
        assert lines[0] == "Vote Counts"
        assert lines[1].split() == ["A", "B", "C", "D", "X", "NULL"]
        assert lines[2].split() == ["Preference1", "25", "25", "25", "25", "0", "0"]
