"""Fuzzing the ballot reader and ``stagevote tally`` with odd input files.

Whatever the bytes, ``parse_ballots`` may only raise a ``BallotError``
(a ``BallotFormatError`` always names its line) and ``cli.main`` must end
with exit status 0, 1 or 2 and no traceback. On files whose rows repeat,
verbatim or dressed differently, ``parse_ballots`` and ``stagevote tally``
must agree with a reader that decodes every row on its own: the same
first error, or the same ballots and counts.
"""

from __future__ import annotations

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stagevote.ballot import (
    Ballot,
    BallotError,
    BallotFormatError,
    CandidateRoster,
    _decode_token,
    _open_lines,
    _read_header,
    _utf8_lines,
    csv_preference_columns,
    expand_incomplete,
    parse_ballots,
    validate_ballot,
)
from stagevote.cli import main
from stagevote.tally import count_votes

CANDIDATES = ["A", "B", "C", "NULL", "IDK"]
# Cells as a spreadsheet might write them: padded or quoted.
DRESS = [lambda t: t, lambda t: f" {t} ", lambda t: f'"{t}"']
# Cells that break a rule or the CSV: gaps, quoted commas and newlines,
# stray quotes, a tab, a non-ASCII name.
ODD_CELLS = ["", "A", '"A,B"', '"A\nB"', '"A""B"', 'A"', "\t", "ü"]
HEADER = "voter_id,pref1,pref2,pref3"
ODD_HEADERS = ["voter_id,pref1", " voter_id , pref1 ,pref2", "voter_id,pref2",
               "voter,pref1", ""]


@st.composite
def rows(draw) -> str:
    """Mostly a ballot (a ranked prefix, dressed, then empty cells), at
    times a row of odd cells; voter ids repeat."""
    voter = draw(st.sampled_from(["v1", "v2", "v3", " v1", ""]))
    if draw(st.integers(0, 4)) == 0:
        cells = draw(st.lists(st.sampled_from(ODD_CELLS), max_size=5))
    else:
        length = draw(st.integers(0, 3))
        ranked = draw(st.permutations(CANDIDATES))[:length]
        dress = draw(st.sampled_from(DRESS))
        cells = [dress(c) for c in ranked] + [""] * draw(st.integers(0, 3 - length))
    return ",".join([voter] + cells)


def redress(row: str, dress) -> str:
    """The row with its cells unpadded, unquoted and dressed anew."""
    voter, *cells = row.split(",")
    return ",".join([voter] + [dress(c.strip().strip('"')) if c.strip() else c
                               for c in cells])


@st.composite
def ballot_files(draw, repeats: bool = False) -> bytes:
    """A header and ragged rows joined by LF, CRLF or CR; sometimes a BOM,
    sometimes random bytes spliced in. With ``repeats``, some rows are also
    copied to other places, verbatim or dressed anew."""
    header = draw(st.sampled_from(ODD_HEADERS) | st.just(HEADER) | st.just(HEADER))
    body = draw(st.lists(rows(), max_size=12))
    for _ in range(draw(st.integers(0, 8)) if repeats and body else 0):
        row = draw(st.sampled_from(body))
        dress = draw(st.sampled_from([None, *DRESS]))
        body.insert(draw(st.integers(0, len(body))),
                    row if dress is None else redress(row, dress))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join([header] + body) + draw(st.sampled_from(["", newline]))).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(max_size=6)) + data[at:]
    return data


FILES = ballot_files() | ballot_files() | st.binary(max_size=200)


def oracle_rows(data: bytes, roster):
    """Every data row decoded on its own, as ``ballot._rows`` once did it;
    the header and the UTF-8 check are the module's own."""
    reader = csv.reader(_utf8_lines(_open_lines(data)))
    num_cols = _read_header(reader)
    try:
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            cells = list(map(str.strip, row[1:]))
            if len(cells) > num_cols:
                raise BallotFormatError(
                    f"row has {len(cells)} preference cells, header allows {num_cols}",
                    line=line,
                )
            if "" in cells:
                end = cells.index("")
                for pos, cell in enumerate(cells[end:], start=end + 1):
                    if cell:
                        raise BallotFormatError(
                            f"stamped cell at preference {pos} after an empty cell "
                            "(empty cells are only allowed as a suffix)",
                            line=line,
                        )
                del cells[end:]
            if roster is None:
                prefs = tuple(cells)
            else:
                prefs = tuple(_decode_token(cell, roster) for cell in cells)
            yield line, row[0].strip(), prefs
    except csv.Error as exc:
        raise BallotFormatError(f"malformed CSV row: {exc}", line=reader.line_num) from exc


# NULL and IDK decode to identifiers other than their tokens.
ROSTER = CandidateRoster(("A", "B", "C", "none", "?"), null_id="none", idk_id="?")


@given(ballot_files(repeats=True))
@settings(max_examples=300, deadline=None)
def test_parse_agrees_with_a_row_by_row_oracle(data):
    for roster in (None, ROSTER):
        try:
            expected = list(oracle_rows(data, roster))
        except BallotError as exc:
            with pytest.raises(type(exc)) as raised:
                parse_ballots(data, roster)
            assert str(raised.value) == str(exc)
            assert getattr(raised.value, "line", None) == getattr(exc, "line", None)
        else:
            ballots = parse_ballots(data, roster)
            assert [(b.line, b.voter_id, b.prefs) for b in ballots] == expected


@given(FILES)
@settings(max_examples=300, deadline=None)
def test_parse_raises_only_ballot_errors_with_lines(data):
    try:
        parse_ballots(data, None)
    except BallotFormatError as exc:
        assert exc.line is not None and exc.line >= 1
    except BallotError:
        pass


FLAGS = [[], ["--candidates", "A,B,NULL,IDK"], ["--num-prefs", "1"],
         ["--beta", "0.3", "--selector", "max-entropy"]]


def run_tally(data: bytes, flags) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ballots.csv"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["tally", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


@given(FILES, st.sampled_from(FLAGS))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tally_exits_cleanly(data, flags):
    code, out, err = run_tally(data, flags)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert "error: " in err


def oracle_counts(data: bytes, rows, flags):
    """The count table's JSON over the oracle's rows, each expanded on its
    own; None where ``tally`` must refuse the ballots (none at all, no real
    candidate to infer, an invalid ballot, ``--num-prefs`` out of range)."""
    ballots = [Ballot(voter, prefs, line) for line, voter, prefs in rows]
    stamps = {c for b in ballots for c in b.prefs}
    if "--candidates" in flags:
        ids = flags[flags.index("--candidates") + 1].split(",")
    else:
        real = sorted(stamps - {"NULL", "IDK"})
        ids = real + ["NULL"] + ["IDK"] * ("IDK" in stamps)
        if not real:
            return None
    if not ballots:
        return None
    roster = CandidateRoster(tuple(ids), idk_id="IDK" if "IDK" in ids else None)
    try:
        for ballot in ballots:
            validate_ballot(ballot, roster)
    except BallotError:
        return None
    num_prefs = (int(flags[flags.index("--num-prefs") + 1]) if "--num-prefs" in flags
                 else min(csv_preference_columns(data), roster.k))
    if not 1 <= num_prefs <= roster.k:
        return None
    expanded = [expand_incomplete(b, roster, num_prefs) for b in ballots]
    return count_votes(expanded, roster, num_prefs).to_json_dict()


@given(ballot_files(repeats=True), st.sampled_from(FLAGS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tally_agrees_with_a_row_by_row_oracle(data, flags):
    try:
        rows = list(oracle_rows(data, None))
    except BallotError as exc:
        assert run_tally(data, flags) == (1, "", f"error: {exc}\n")
        return
    code, out, err = run_tally(data, [*flags, "--format", "json"])
    expected = oracle_counts(data, rows, flags)
    if expected is None:
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith(("error: ", "  line "))
    else:
        assert code in (0, 2)
        assert json.loads(out)["counts"] == expected


LONG_CELL = "x" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("tail", [["v,\udcff", f"w,{LONG_CELL}"],
                                  [f"w,{LONG_CELL}", "v,\udcff"]])
def test_tally_names_a_width_error_before_later_bad_lines(tail):
    # The counting pass first fails on the bad byte or the malformed row;
    # the error still names the earlier width error, as a row-by-row read does.
    body = [f"v{i},A,NULL" for i in range(5000)] + ["u,A,B,C", *tail]
    data = "\n".join(["voter_id,pref1,pref2", *body, ""]).encode("utf-8", "surrogateescape")
    assert run_tally(data, []) == (
        1, "", "error: line 5002: row has 3 preference cells, header allows 2\n")
