"""Ballot parsing, validation, and fractional expansion."""

import csv
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagevote.ballot import (
    Ballot,
    BallotFormatError,
    CandidateRoster,
    DuplicateCandidate,
    FractionalBallot,
    UnknownCandidate,
    _decode_cells,
    csv_preference_columns,
    expand_incomplete,
    parse_ballots,
    validate_ballot,
)

ROSTER = CandidateRoster(("A", "B", "C", "D", "E", "NULL"), null_id="NULL")
HEADER = "voter_id,pref1,pref2,pref3,pref4,pref5,pref6"


class TestRoster:
    def test_tally_candidates_exclude_idk(self):
        roster = CandidateRoster(("A", "B", "NULL", "IDK"), null_id="NULL",
                                 idk_id="IDK")
        assert roster.tally_candidates == ("A", "B", "NULL")
        assert roster.k == 3

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CandidateRoster(("A", "A", "NULL"), null_id="NULL")

    def test_rejects_missing_null(self):
        with pytest.raises(ValueError):
            CandidateRoster(("A", "B"), null_id="NULL")

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            CandidateRoster(("NULL", "IDK"), null_id="NULL", idk_id="IDK")

    def test_tally_slate_built_once(self):
        roster = CandidateRoster(("A", "B", "NULL", "IDK"), null_id="NULL",
                                 idk_id="IDK")
        assert roster.tally_candidates is roster.tally_candidates
        assert roster == CandidateRoster(("A", "B", "NULL", "IDK"),
                                         null_id="NULL", idk_id="IDK")


class TestParse:
    def test_full_row(self):
        text = f"{HEADER}\nv1,D,B,NULL,C,E,A\n"
        (raw,) = parse_ballots(text, ROSTER)
        assert type(raw) is Ballot
        assert raw == Ballot("v1", ("D", "B", "NULL", "C", "E", "A"))
        assert raw.line == 2

    def test_line_ignored_by_equality(self):
        text = f"{HEADER}\nv1,A,B\nv1,A,B\n"
        first, second = parse_ballots(text, ROSTER)
        assert (first.line, second.line) == (2, 3)
        assert first == second and hash(first) == hash(second)

    def test_empty_cells_make_empty_ballot(self):
        text = f"{HEADER}\nv2,,,,,,\n"
        (raw,) = parse_ballots(text, ROSTER)
        assert raw.prefs == ()

    def test_prefix_semantics(self):
        text = f"{HEADER}\nv3,A,B,C,,,\n"
        (raw,) = parse_ballots(text, ROSTER)
        assert raw.prefs == ("A", "B", "C")

    def test_short_row_is_prefix(self):
        text = f"{HEADER}\nv4,A,B\n"
        (raw,) = parse_ballots(text, ROSTER)
        assert raw.prefs == ("A", "B")

    def test_gap_rejected_with_line_number(self):
        text = f"{HEADER}\nv1,A,,B,,,\n"
        with pytest.raises(BallotFormatError) as err:
            parse_ballots(text, ROSTER)
        assert err.value.line == 2

    def test_unknown_header_rejected(self):
        with pytest.raises(BallotFormatError):
            parse_ballots("id,first,second\nv,A,B\n", ROSTER)

    def test_too_many_cells_rejected(self):
        text = "voter_id,pref1,pref2\nv,A,B,C\n"
        with pytest.raises(BallotFormatError) as err:
            parse_ballots(text, ROSTER)
        assert err.value.line == 2

    def test_empty_file_rejected(self):
        with pytest.raises(BallotFormatError):
            parse_ballots("", ROSTER)

    def test_header_checks_shared_by_both_readers(self):
        for text in ("voter_id,first\nv,A\n", "voter_id\nv\n", "id,pref1\n", ""):
            for read in (csv_preference_columns, lambda t: parse_ballots(t, ROSTER)):
                with pytest.raises(BallotFormatError) as err:
                    read(text)
                assert err.value.line == 1

    def test_header_cell_over_csv_field_limit(self):
        text = "voter_id," + "x" * (csv.field_size_limit() + 1) + "\nv,A\n"
        for read in (csv_preference_columns, lambda t: parse_ballots(t, ROSTER)):
            with pytest.raises(BallotFormatError) as err:
                read(text)
            assert err.value.line == 1

    def test_idk_token_maps_to_roster_id(self):
        roster = CandidateRoster(("A", "B", "NULL", "IDK"), null_id="NULL",
                                 idk_id="IDK")
        text = "voter_id,pref1,pref2\nv,IDK,A\n"
        (raw,) = parse_ballots(text, roster)
        assert raw.prefs == ("IDK", "A")

    def test_bytes_input(self):
        text = f"{HEADER}\nv1,A,B,C,D,E,NULL\n".encode()
        (raw,) = parse_ballots(text, ROSTER)
        assert raw.prefs[-1] == "NULL"

    def test_bytes_with_byte_order_mark(self):
        text = f"{HEADER}\nv1,A,B,C,D,E,NULL\n"
        bom = b"\xef\xbb\xbf" + text.encode()
        assert parse_ballots(bom, ROSTER) == parse_ballots(text, ROSTER)
        assert csv_preference_columns(bom) == 6

    @pytest.mark.parametrize("data, line", [
        (b"voter_id,pref1\nv1,\xff\n", 2),
        (b"\xef\xbb\xbfvoter_id,pref1\nv1,A\nv2,B\xc3\n", 3),
        (b"\xffvoter_id,pref1\nv1,A\n", 1),
    ])
    def test_bytes_not_utf8_rejected_with_line_number(self, data, line):
        with pytest.raises(BallotFormatError, match="not valid UTF-8") as exc:
            parse_ballots(data, None)
        assert exc.value.line == line

    def test_cr_crlf_and_lf_line_ends_read_alike(self):
        # The same split as `stagevote tally`, which opens files in text mode.
        lines = [HEADER, "v1,A,B", "", "v2,NULL", "v3,C,D,E"]
        expected = parse_ballots("\n".join(lines) + "\n", ROSTER)
        assert [b.line for b in expected] == [2, 4, 5]
        for newline in ("\r", "\r\n", "\n"):
            text = newline.join(lines) + newline
            for source in (text, text.encode(), b"\xef\xbb\xbf" + text.encode()):
                ballots = parse_ballots(source, ROSTER)
                assert ballots == expected
                assert [b.line for b in ballots] == [b.line for b in expected]

    def test_str_with_byte_order_mark(self):
        # Text a caller read as plain utf-8 still starts with U+FEFF.
        text = f"{HEADER}\nv1,A,B,C,D,E,NULL\n"
        assert parse_ballots("\ufeff" + text, ROSTER) == parse_ballots(text, ROSTER)
        (raw,) = parse_ballots("\ufeffvoter_id,pref1\nv,A\n", None)
        assert raw.prefs == ("A",)

    def test_str_with_byte_order_mark_column_count(self):
        assert csv_preference_columns(f"\ufeff{HEADER}\nv1,A\n") == 6

    def test_without_roster_tokens_stay_literal(self):
        roster = CandidateRoster(("A", "none", "?"), null_id="none", idk_id="?")
        text = "voter_id,pref1,pref2,pref3\nv,IDK,NULL,A\n"
        assert parse_ballots(text, roster)[0].prefs == ("?", "none", "A")
        assert parse_ballots(text, None)[0].prefs == ("IDK", "NULL", "A")

    def test_header_width(self):
        assert csv_preference_columns(f"{HEADER}\n") == 6

    def test_duplicate_voters_allowed_by_default(self):
        text = f"{HEADER}\nv1,A\nv1,B\n"
        assert len(parse_ballots(text, ROSTER)) == 2


class TestDistinctRows:
    """Each distinct raw row is decoded once, at its first line."""

    def test_repeated_raw_rows_decode_once(self, monkeypatch):
        decoded = []

        def counted(raw, *args):
            decoded.append(raw)
            return _decode_cells(raw, *args)

        monkeypatch.setattr("stagevote.ballot._decode_cells", counted)
        raws = ["A,B,", " A , B", "NULL"]
        text = HEADER + "\n" + "\n".join(f"v{i},{raws[i % 3]}" for i in range(1000))
        ballots = parse_ballots(text, ROSTER)
        assert decoded == [("A", "B", ""), (" A ", " B"), ("NULL",)]
        assert len(ballots) == 1000
        assert [b.line for b in ballots] == list(range(2, 1002))
        assert {b.prefs for b in ballots} == {("A", "B"), ("NULL",)}

    def test_first_bad_line_named_when_a_bad_row_repeats(self):
        rows = ["v1,A", "v2,A,,B", "v3,C", "v4,,C", "v5,A", "v6,B", "v7,A,,B"]
        with pytest.raises(BallotFormatError) as err:
            parse_ballots(HEADER + "\n" + "\n".join(rows) + "\n", ROSTER)
        assert err.value.line == 3
        assert str(err.value).startswith("line 3: stamped cell at preference 3")

    def test_width_error_named_before_a_later_malformed_row(self):
        long_cell = "x" * (csv.field_size_limit() + 1)
        rows = ["v1,A", "v2,B", "v3,A,B,C", "v4,A", f"v5,{long_cell}"]
        with pytest.raises(BallotFormatError) as err:
            parse_ballots("voter_id,pref1,pref2\n" + "\n".join(rows) + "\n", ROSTER)
        assert str(err.value) == "line 4: row has 3 preference cells, header allows 2"
        # Without the width error, the malformed row is reached and named.
        rows[2] = "v3,A,B"
        with pytest.raises(BallotFormatError, match="^line 6: malformed CSV row: "):
            parse_ballots("voter_id,pref1,pref2\n" + "\n".join(rows) + "\n", ROSTER)


class TestValidate:
    def test_accepts_ranked_prefix(self):
        roster = CandidateRoster(("A", "B", "C", "D", "NULL"), null_id="NULL")
        raw = Ballot("v", ("A", "B", "C", "D"))
        assert validate_ballot(raw, roster).prefs == ("A", "B", "C", "D")

    def test_returns_its_argument(self):
        (parsed,) = parse_ballots(f"{HEADER}\nv1,B,NULL,A\n", ROSTER)
        assert validate_ballot(parsed, ROSTER) is parsed

    def test_duplicate_rejected(self):
        raw = Ballot("v", ("A", "A", "B"))
        with pytest.raises(DuplicateCandidate) as err:
            validate_ballot(raw, ROSTER)
        assert err.value.candidate == "A"
        assert err.value.positions == (1, 2)

    def test_unknown_rejected(self):
        raw = Ballot("v", ("A", "Z"))
        with pytest.raises(UnknownCandidate) as err:
            validate_ballot(raw, ROSTER)
        assert err.value.candidate == "Z"
        assert err.value.position == 2

    def test_first_bad_stamp_reported(self):
        with pytest.raises(DuplicateCandidate) as err:
            validate_ballot(Ballot("v", ("A", "B", "C", "B", "Z")), ROSTER)
        assert err.value.positions == (2, 4)
        with pytest.raises(UnknownCandidate) as err:
            validate_ballot(Ballot("v", ("A", "Z", "A")), ROSTER)
        assert err.value.position == 2


class TestExpand:
    def test_empty_ballot_is_uniform(self):
        ballot = Ballot("v", ())
        fb = expand_incomplete(ballot, ROSTER, num_prefs=6)
        for row in range(1, 7):
            for cand in ROSTER.tally_candidates:
                assert fb.weight(row, cand) == Fraction(1, 6)

    def test_complete_ballot_is_permutation(self):
        prefs = ("A", "B", "C", "D", "E", "NULL")
        fb = expand_incomplete(Ballot("v", prefs), ROSTER, num_prefs=6)
        for row, cand in enumerate(prefs, start=1):
            assert fb.weight(row, cand) == 1
            assert sum(fb.rows[row - 1].values()) == 1
        # Reading back the argmax per row reproduces the ballot.
        readback = tuple(max(r, key=r.get) for r in fb.rows)
        assert readback == prefs

    def test_single_stamp_spreads_over_three(self):
        roster = CandidateRoster(("A", "B", "C", "NULL"), null_id="NULL")
        fb = expand_incomplete(Ballot("v", ("A",)), roster, num_prefs=3)
        assert fb.weight(1, "A") == 1
        for row in (2, 3):
            for cand in ("B", "C", "NULL"):
                assert fb.weight(row, cand) == Fraction(1, 3)
            assert fb.weight(row, "A") == 0

    def test_idk_stamp_redistributed(self):
        roster = CandidateRoster(("A", "B", "NULL", "IDK"), null_id="NULL",
                                 idk_id="IDK")
        fb = expand_incomplete(Ballot("v", ("A", "IDK", "B")), roster,
                               num_prefs=3)
        assert fb.weight(1, "A") == 1
        assert fb.weight(2, "NULL") == 1  # only unstamped tally candidate
        assert fb.weight(2, "IDK") == 0
        assert fb.weight(3, "B") == 1

    def test_deeper_stamps_truncated(self):
        roster = CandidateRoster(("A", "B", "C", "NULL"), null_id="NULL")
        fb = expand_incomplete(Ballot("v", ("A", "B", "C")), roster, num_prefs=1)
        assert fb.num_prefs == 1
        assert fb.weight(1, "A") == 1

    def test_default_num_prefs_is_k_minus_one(self):
        fb = expand_incomplete(Ballot("v", ("A",)), ROSTER)
        assert fb.num_prefs == 5

    def test_num_prefs_out_of_range(self):
        with pytest.raises(ValueError):
            expand_incomplete(Ballot("v", ()), ROSTER, num_prefs=7)
        with pytest.raises(ValueError, match="^num_prefs must be in 1..6, got 0$"):
            expand_incomplete(Ballot("v", ()), ROSTER, num_prefs=0)

    def test_holds_truncated_stamps_with_idk_as_missing(self):
        roster = CandidateRoster(("A", "B", "C", "NULL", "IDK"), null_id="NULL",
                                 idk_id="IDK")
        fb = expand_incomplete(Ballot("v", ("A", "IDK", "B", "C")), roster, 3)
        assert fb == FractionalBallot(("A", "B", "C", "NULL"), ("A", None, "B"))
        assert fb.num_prefs == 3

    def test_equal_and_hash_equal_by_value(self):
        roster = CandidateRoster(("A", "B", "C", "NULL", "IDK"), null_id="NULL",
                                 idk_id="IDK")
        # Voter id, a trailing IDK and stamps past num_prefs do not count.
        same = [expand_incomplete(Ballot(v, prefs), roster, 2) for v, prefs in
                [("v1", ("A",)), ("v2", ("A",)), ("v3", ("A", "IDK")),
                 ("v4", ("A", "IDK", "B"))]]
        assert all(fb == same[0] and hash(fb) == hash(same[0]) for fb in same)
        assert len(set(same)) == 1
        assert expand_incomplete(Ballot("v5", ("A", "B")), roster, 2) != same[0]
        assert expand_incomplete(Ballot("v6", ("A",)), roster, 3) != same[0]

    def test_rows_are_fresh_dicts(self):
        fb = expand_incomplete(Ballot("v", ("A",)), ROSTER, num_prefs=2)
        rows = fb.rows
        rows[0]["A"] = 7
        rows[1].clear()
        fifth = Fraction(1, 5)
        assert fb.rows == ({"A": 1}, dict.fromkeys(("B", "C", "D", "E", "NULL"), fifth))
        assert fb.rows[0] is not fb.rows[0]
        assert fb.weight(1, "A") == 1 and isinstance(fb.weight(1, "A"), Fraction)


@st.composite
def roster_and_ballot(draw):
    size = draw(st.integers(min_value=2, max_value=7))
    names = [f"K{i}" for i in range(size - 1)] + ["NULL"]
    with_idk = draw(st.booleans())
    idk = None
    if with_idk:
        names.append("IDK")
        idk = "IDK"
    roster = CandidateRoster(tuple(names), null_id="NULL", idk_id=idk)
    num_prefs = draw(st.integers(min_value=1, max_value=roster.k))
    count = draw(st.integers(min_value=0, max_value=num_prefs))
    prefs = tuple(draw(st.permutations(list(roster.candidates)))[:count])
    return roster, Ballot("v", prefs), num_prefs


@given(roster_and_ballot())
@settings(max_examples=200)
def test_rows_sum_to_one_exactly(case):
    roster, ballot, num_prefs = case
    fb = expand_incomplete(ballot, roster, num_prefs)
    for row in fb.rows:
        assert sum(row.values()) == 1
    for row in fb.rows:
        assert all(w >= 0 for w in row.values())
