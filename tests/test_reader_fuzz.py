"""Fuzzing the ballot reader and ``stagevote tally`` with odd input files.

Whatever the bytes, ``parse_ballots`` may only raise a ``BallotError``
(a ``BallotFormatError`` always names its line) and ``cli.main`` must end
with exit status 0, 1 or 2 and no traceback.
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stagevote.ballot import BallotError, BallotFormatError, parse_ballots
from stagevote.cli import main

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


@st.composite
def ballot_files(draw) -> bytes:
    """A header and ragged rows joined by LF, CRLF or CR; sometimes a BOM,
    sometimes random bytes spliced in."""
    header = draw(st.sampled_from(ODD_HEADERS) | st.just(HEADER) | st.just(HEADER))
    body = draw(st.lists(rows(), max_size=12))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join([header] + body) + draw(st.sampled_from(["", newline]))).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(max_size=6)) + data[at:]
    return data


FILES = ballot_files() | ballot_files() | st.binary(max_size=200)


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


@given(FILES, st.sampled_from(FLAGS))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tally_exits_cleanly(data, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ballots.csv"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["tally", str(path), *flags])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert "error: " in err.getvalue()
