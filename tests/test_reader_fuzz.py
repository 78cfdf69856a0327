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
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stagevote import ballot
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
def rows(draw, dresses=DRESS, odd_cells=ODD_CELLS) -> str:
    """Mostly a ballot (a ranked prefix, dressed, then empty cells), at
    times a row of odd cells; voter ids repeat."""
    voter = draw(st.sampled_from(["v1", "v2", "v3", " v1", ""]))
    if draw(st.integers(0, 4)) == 0:
        cells = draw(st.lists(st.sampled_from(odd_cells), max_size=5))
    else:
        length = draw(st.integers(0, 3))
        ranked = draw(st.permutations(CANDIDATES))[:length]
        dress = draw(st.sampled_from(dresses))
        cells = [dress(c) for c in ranked] + [""] * draw(st.integers(0, 3 - length))
    return ",".join([voter] + cells)


def redress(row: str, dress) -> str:
    """The row with its cells unpadded, unquoted and dressed anew."""
    voter, *cells = row.split(",")
    return ",".join([voter] + [dress(c.strip().strip('"')) if c.strip() else c
                               for c in cells])


# Quote-free dressings and odd cells: each line of such a file is one CSV
# record whose fields are its comma split, which tally counts by line.
PLAIN_DRESS = [dress for dress in DRESS if '"' not in dress("A")]
PLAIN_CELLS = [cell for cell in ODD_CELLS if '"' not in cell]


@st.composite
def ballot_files(draw, repeats: bool = False, quotes: bool = True) -> bytes:
    """A header and ragged rows joined by LF, CRLF or CR; sometimes a BOM,
    sometimes random bytes spliced in. With ``repeats``, some rows are also
    copied to other places, verbatim or dressed anew. Without ``quotes``,
    no byte is a quote or a NUL, and some blank lines are added."""
    dresses, odd_cells = (DRESS, ODD_CELLS) if quotes else (PLAIN_DRESS, PLAIN_CELLS)
    header = draw(st.sampled_from(ODD_HEADERS) | st.just(HEADER) | st.just(HEADER))
    body = draw(st.lists(rows(dresses, odd_cells), max_size=12))
    for _ in range(draw(st.integers(0, 8)) if repeats and body else 0):
        row = draw(st.sampled_from(body))
        dress = draw(st.sampled_from([None, *dresses]))
        body.insert(draw(st.integers(0, len(body))),
                    row if dress is None else redress(row, dress))
    for _ in range(0 if quotes else draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join([header] + body) + draw(st.sampled_from(["", newline]))).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        splice = draw(st.binary(max_size=6))
        data = data[:at] + (splice if quotes else splice.translate(None, b'"\0')) + data[at:]
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


@given(ballot_files(repeats=True, quotes=False), st.sampled_from(FLAGS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tally_on_quote_free_files_agrees_with_a_row_by_row_oracle(data, flags):
    # Counted line by line unless a spliced byte is not UTF-8.
    assert b'"' not in data and b"\0" not in data
    test_tally_agrees_with_a_row_by_row_oracle.hypothesis.inner_test(data, flags)


def counted_tally(monkeypatch, data: bytes, flags) -> tuple[int, tuple[int, str, str]]:
    """The number of lines the ballot module's CSV readers read, and
    ``run_tally``'s result. The line pass leaves them the header alone."""
    lines = 0

    def counted(source):
        nonlocal lines
        for line in source:
            lines += 1
            yield line

    csv_reader = ballot.csv.reader
    monkeypatch.setattr(ballot.csv, "reader", lambda source: csv_reader(counted(source)))
    result = run_tally(data, flags)
    monkeypatch.undo()
    return lines, result


def ballot_csv(*body: str) -> bytes:
    return "\n".join(["voter_id,pref1,pref2", *body, ""]).encode()


PLAIN_ROWS = [f"v{i},{('A,NULL', 'B,A', 'NULL,B')[i % 3]}" for i in range(5000)]


@pytest.mark.parametrize("last, by_line", [
    ("w,A,NULL", True),
    ('w,"A",NULL', False),
    (f"{'w' * (csv.field_size_limit() - 1)},A,NULL", False),
    ("w\0,A,NULL", False),
], ids=["quote-free", "quote", "long-line", "nul"])
def test_tally_counts_by_line_unless_a_line_may_not_be_its_comma_split(
        monkeypatch, last, by_line):
    # A quote, a NUL, or a line longer than a CSV field: the CSV pass
    # counts the file from the top, here after the line pass's first batches.
    data = ballot_csv(*PLAIN_ROWS, last)
    try:
        list(oracle_rows(data, None))
    except BallotError as exc:
        expected = (1, "", f"error: {exc}\n")
    else:
        expected = run_tally(ballot_csv(*PLAIN_ROWS, "w,A,NULL"), ["--format", "json"])
    lines, result = counted_tally(monkeypatch, data, ["--format", "json"])
    assert result == expected
    if by_line:
        assert lines == 1
    else:
        assert lines >= 2 + len(PLAIN_ROWS) + 1


def test_tally_reads_a_nul_in_a_cell_as_this_python_csv_module_does():
    # csv refuses NUL before Python 3.11 and reads it as a character since.
    data = ballot_csv("v1,A,NULL", "v2,B\0,A", "v3,B,NULL")
    try:
        rows = list(oracle_rows(data, None))
    except BallotFormatError as exc:
        assert sys.version_info < (3, 11)
        assert str(exc).startswith("line 3: malformed CSV row: ")
        assert run_tally(data, []) == (1, "", f"error: {exc}\n")
    else:
        assert sys.version_info >= (3, 11)
        assert rows[1][2] == ("B\0", "A")
        code, out, _ = run_tally(data, ["--format", "json"])
        assert code in (0, 2)
        assert json.loads(out)["counts"] == oracle_counts(data, rows, [])


@st.composite
def reordered_files(draw) -> tuple[bytes, bytes]:
    """A header and a body of records, some repeated, and the same file
    with its records permuted: records, not lines, since a quoted cell may
    hold a newline."""
    header = draw(st.sampled_from(ODD_HEADERS) | st.just(HEADER) | st.just(HEADER))
    body = draw(st.lists(rows(), max_size=12))
    body += draw(st.lists(st.sampled_from(body), max_size=6)) if body else []
    return tuple("\n".join([header, *records, ""]).encode()
                 for records in (body, draw(st.permutations(body))))


@given(reordered_files(), st.sampled_from(FLAGS), st.sampled_from([[], ["--format", "json"]]))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tally_does_not_depend_on_row_order(files, flags, output):
    # Distinct tuples are counted in first-seen order, and tuples that cut
    # alike apart: neither the order nor the grouping may reach the ints or D.
    data, reordered = files
    code, out, _ = run_tally(data, [*flags, *output])
    assert run_tally(reordered, [*flags, *output])[:2] == (code, out)
