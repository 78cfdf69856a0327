"""Ballots and rosters: CSV parsing, validation, fractional expansion.

``parse_ballots`` reads a ballot file row by row with ``_read_rows``, which
decodes each distinct raw row once. ``stagevote tally`` counts the lines in C
by their text after the voter id (by raw rows once a quote, a NUL or an
over-long line shows) and decodes each distinct one; on an error it streams
the file again, so an error always names the first bad line in file order.

A ``Ballot`` is one voter's ordered stamps over a fixed candidate roster,
built once (by the parser or the study) and checked in place by
``validate_ballot``. The roster always contains an explicit protest option
(the NULL candidate, spelled ``NULL`` in ballot files) and may contain an
"I don't know" abstention marker (``IDK``) whose stamps are ignored at
tally time. ``expand_incomplete`` makes a ``FractionalBallot``, whose
missing rows split one unit of vote mass evenly over the candidates the
voter never stamped; equal stamps make equal, hashable ballots, so a tally
weighs each distinct ballot once. Both functions wrap a helper on the plain
preference tuple: ``stagevote tally`` checks each distinct tuple once with
``_check_prefs``, and its count cuts each with ``_stamp_tuple``.
"""

from __future__ import annotations

import csv
import io
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import repeat
from operator import itemgetter
from typing import IO, Iterable, Iterator, Optional, Union

NULL_TOKEN = "NULL"
IDK_TOKEN = "IDK"


class BallotError(ValueError):
    """Base class for ballot file and ballot validation failures."""


class BallotFormatError(BallotError):
    """CSV-level failure; carries the 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateCandidate(BallotError):
    """A candidate was stamped at two different preferences."""

    def __init__(self, candidate: str, positions: tuple[int, int]):
        self.candidate = candidate
        self.positions = positions
        super().__init__(
            f"candidate {candidate!r} stamped twice "
            f"(preferences {positions[0]} and {positions[1]})"
        )


class UnknownCandidate(BallotError):
    """A stamp names an identifier that is not on the roster."""

    def __init__(self, candidate: str, position: int):
        self.candidate = candidate
        self.position = position
        super().__init__(
            f"unknown candidate {candidate!r} at preference {position}"
        )


@dataclass(frozen=True)
class CandidateRoster:
    """The fixed slate of an election.

    ``candidates`` is the presentation order used by every table and by
    deterministic tie-breaking. ``null_id`` (the protest option) must be a
    member; ``idk_id`` is optional and, when present, is excluded from the
    tallyable candidates: a stamp for it counts as no stamp at all. The
    derived ``tally_candidates`` and ``k`` are built once per roster.
    """

    candidates: tuple[str, ...]
    null_id: str = NULL_TOKEN
    idk_id: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("roster identifiers must be distinct")
        if self.null_id not in self.candidates:
            raise ValueError(f"null candidate {self.null_id!r} missing from roster")
        if self.idk_id is not None and self.idk_id not in self.candidates:
            raise ValueError(f"idk candidate {self.idk_id!r} missing from roster")
        if self.idk_id == self.null_id:
            raise ValueError("null and idk candidates must differ")
        if self.k < 2:
            raise ValueError("roster needs at least one real candidate plus NULL")

    @cached_property
    def tally_candidates(self) -> tuple[str, ...]:
        """Candidates that receive vote mass (everything except ``idk_id``)."""
        return tuple(c for c in self.candidates if c != self.idk_id)

    @cached_property
    def k(self) -> int:
        """Number of tallyable candidates, the NULL candidate included."""
        return len(self.tally_candidates)

    @cached_property
    def _members(self) -> frozenset[str]:
        """``candidates`` as a set, for the per-ballot membership check."""
        return frozenset(self.candidates)


@dataclass(frozen=True)
class Ballot:
    """One voter's stamps, best first.

    A parsed ballot is unchecked until ``validate_ballot`` accepts it
    (distinct stamps, all roster members). ``line`` is the 1-based CSV line
    it came from, when known: for error reports only, never in equality.
    """

    voter_id: str
    prefs: tuple[str, ...]
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class FractionalBallot:
    """A ballot's stamps over the tallied rows; equal and hashable by value.

    ``stamps[i]`` is the stamp on preference row ``i + 1``, or None when the
    row is missing or stamped "I don't know". ``rows[i]`` derives that row's
    weights: ``{stamp: 1}`` (the int), or ``Fraction(1, m)`` for each of the
    m candidates absent from the ballot, so every row sums to exactly 1.
    """

    candidates: tuple[str, ...]
    stamps: tuple[Optional[str], ...]

    @property
    def num_prefs(self) -> int:
        return len(self.stamps)

    @property
    def rows(self) -> tuple[dict[str, Union[int, Fraction]], ...]:
        """Fresh weight dicts, one per preference row."""
        stamped = set(self.stamps)
        unstamped = [c for c in self.candidates if c not in stamped]
        # A missing row leaves m >= 1 unstamped candidates: num_prefs <= k.
        return tuple(
            {stamp: 1} if stamp is not None
            else dict.fromkeys(unstamped, Fraction(1, len(unstamped)))
            for stamp in self.stamps
        )

    def weight(self, preference: int, candidate: str) -> Fraction:
        """Weight at a 1-based preference row; zero when absent."""
        return Fraction(self.rows[preference - 1].get(candidate, 0))


def _open_lines(source: Union[str, bytes, IO[str], Iterable[str]]) -> Iterable[str]:
    # newline=None: CR, CRLF and LF all end a line, as in a text-mode file.
    if isinstance(source, bytes):
        # Undecodable bytes become lone surrogates, reported by _utf8_lines.
        return io.StringIO(source.decode("utf-8-sig", "surrogateescape"), newline=None)
    if isinstance(source, str):
        return io.StringIO(source.removeprefix("\ufeff"), newline=None)
    return source


def _utf8_lines(lines: Iterable[str]) -> Iterator[str]:
    """Pass lines through, refusing one that cannot be UTF-8 encoded: a lone
    surrogate, which is what a ``surrogateescape`` decode makes of bad bytes."""
    for number, line in enumerate(lines, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise BallotFormatError(
                    f"not valid UTF-8 (character {exc.start + 1})", line=number
                ) from None
        yield line


def _decode_token(cell: str, roster: CandidateRoster) -> str:
    if cell == NULL_TOKEN:
        return roster.null_id
    if cell == IDK_TOKEN and roster.idk_id is not None:
        return roster.idk_id
    return cell


def _read_header(reader) -> int:
    """Check the ``voter_id,pref1,...,prefP`` header (errors on line 1); return P."""
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise BallotFormatError(f"malformed CSV: {exc}", line=1) from exc
    if header is None:
        raise BallotFormatError("empty file: missing header row", line=1)
    header = [h.strip() for h in header]
    if not header or header[0] != "voter_id":
        raise BallotFormatError("unknown header layout: first column must be 'voter_id'", line=1)
    expected = [f"pref{i}" for i in range(1, len(header))]
    if len(header) < 2 or header[1:] != expected:
        raise BallotFormatError("unknown header layout: expected columns pref1..prefP", line=1)
    return len(header) - 1


def _read_rows(source: Union[str, bytes, IO[str], Iterable[str]],
               roster: Optional[CandidateRoster] = None) -> tuple[int, Iterator[tuple]]:
    """Check the header now; return P and the data rows as ``_rows`` reads them."""
    reader = csv.reader(_utf8_lines(_open_lines(source)))
    num_cols = _read_header(reader)
    return num_cols, _rows(reader, num_cols, roster)


def _decode_cells(raw: Iterable[str], num_cols: int,
                  roster: Optional[CandidateRoster], line: Optional[int]) -> tuple[str, ...]:
    """Strip one row's preference cells, check its width and the empty-suffix
    rule, and decode its tokens; an error names ``line``. Interned cells let
    the distinct rows kept by the reader and the tally share their strings."""
    cells = [sys.intern(cell.strip()) for cell in raw]
    if len(cells) > num_cols:
        raise BallotFormatError(f"row has {len(cells)} preference cells, "
                                f"header allows {num_cols}", line=line)
    if "" in cells:
        end = cells.index("")
        for pos, cell in enumerate(cells[end:], start=end + 1):
            if cell:
                raise BallotFormatError(f"stamped cell at preference {pos} after an empty cell "
                                        "(empty cells are only allowed as a suffix)", line=line)
        del cells[end:]
    if roster is None:
        return tuple(cells)
    return tuple(_decode_token(cell, roster) for cell in cells)


def _rows(reader, num_cols: int,
          roster: Optional[CandidateRoster]) -> Iterator[tuple[int, str, tuple[str, ...]]]:
    # Ballot files repeat rows: each distinct raw row is decoded once, at its
    # first line, so an error still names the first bad line in file order.
    decoded: dict[tuple[str, ...], tuple[str, ...]] = {}
    try:
        for row in filter(None, reader):
            line = reader.line_num
            raw = tuple(row[1:])
            prefs = decoded.get(raw)
            if prefs is None:
                prefs = decoded[raw] = _decode_cells(raw, num_cols, roster, line)
            yield line, row[0].strip(), prefs
    except csv.Error as exc:
        raise BallotFormatError(f"malformed CSV row: {exc}", line=reader.line_num) from exc


def parse_ballots(
    source: Union[str, bytes, IO[str], Iterable[str]],
    roster: Optional[CandidateRoster],
) -> list[Ballot]:
    """Parse a ballot CSV into unvalidated ballots, preserving order.

    Expected header: ``voter_id,pref1,...,prefP``. Candidate cells hold
    roster identifiers with the literal tokens ``NULL`` and ``IDK`` naming
    the protest and abstention options; they decode to ``roster``'s
    ``null_id`` and ``idk_id``, or stay as written when ``roster`` is None.
    Empty cells are allowed only as a suffix and simply shorten the
    preference list. Bytes are read as UTF-8; a line that is not valid
    UTF-8 is a ``BallotFormatError`` naming that line. Duplicate voter ids
    are allowed: each row is one ballot.
    """
    return [Ballot(voter, prefs, line) for line, voter, prefs in _read_rows(source, roster)[1]]


def _count_rows(fh: io.TextIOWrapper) -> tuple[int, dict[tuple[str, ...], int]]:
    """Check the header; return P and ``{prefs: rows}``, tokens as written, in
    first-seen order: lines are counted in C by their text after the voter id
    (by raw cells from the top once a batch may hold a line that is not its
    comma split), then each distinct row is decoded once. ``fh`` is seekable,
    reads universal newlines and decodes strictly; on any error it is streamed
    again row by row, bad bytes escaped, to raise the first one."""
    reader = csv.reader(fh)
    try:
        num_cols = _read_header(reader)
        # With newlines translated, a line free of '"' and NUL is one CSV
        # record, and its fields are its comma split.
        tails: Counter[str] = Counter()
        limit = csv.field_size_limit()
        for lines in iter(partial(fh.readlines, 1 << 16), []):
            text = "".join(lines)
            if '"' in text or "\0" in text or len(text) > limit and max(map(len, lines)) > limit:
                fh.seek(0)
                reader = csv.reader(fh)
                _read_header(reader)
                raw_counts = Counter(map(tuple, map(itemgetter(slice(1, None)),
                                                    filter(None, reader)))).items()
                break
            if "\n" in lines:
                lines = list(filter("\n".__ne__, lines))
            tails.update(map(itemgetter(2), map(str.partition, lines, repeat(","))))
        else:
            # The last cell's newline is stripped with its padding.
            raw_counts = ((tail.split(","), voters) for tail, voters in tails.items())
        groups: dict[tuple[str, ...], int] = {}
        for raw, voters in raw_counts:
            prefs = _decode_cells(raw, num_cols, None, None)
            groups[prefs] = groups.get(prefs, 0) + voters
        return num_cols, groups
    except (BallotError, csv.Error, UnicodeDecodeError):
        fh.seek(0)
        fh.reconfigure(errors="surrogateescape")
        for _ in _read_rows(fh)[1]:
            pass
        raise


def csv_preference_columns(source: Union[str, bytes, IO[str], Iterable[str]]) -> int:
    """Number of preference columns declared by a ballot CSV header."""
    return _read_rows(source)[0]


def _check_prefs(prefs: tuple[str, ...], roster: CandidateRoster) -> None:
    """Raise ``UnknownCandidate``/``DuplicateCandidate`` at the first stamp
    of ``prefs`` that is off the roster or repeats an earlier one."""
    stamped = set(prefs)
    if len(stamped) == len(prefs) and stamped <= roster._members:
        return
    for pos, cand in enumerate(prefs, start=1):
        if cand not in roster._members:
            raise UnknownCandidate(cand, pos)
        first = prefs.index(cand) + 1
        if first != pos:
            raise DuplicateCandidate(cand, (first, pos))


def _stamp_tuple(prefs: tuple[str, ...], roster: CandidateRoster,
                 num_prefs: int) -> tuple[Optional[str], ...]:
    """The stamps of ``prefs`` on rows 1..num_prefs: cut there, the IDK
    candidate read as None, and padded with None for the missing rows."""
    stamps = tuple(prefs[:num_prefs])
    if roster.idk_id is not None and roster.idk_id in stamps:
        stamps = tuple(None if c == roster.idk_id else c for c in stamps)
    return stamps + (None,) * (num_prefs - len(stamps))


def validate_ballot(ballot: Ballot, roster: CandidateRoster) -> Ballot:
    """Return ``ballot`` itself once its stamps are distinct roster members;
    raise ``UnknownCandidate``/``DuplicateCandidate`` at the first bad stamp."""
    _check_prefs(ballot.prefs, roster)
    return ballot


def expand_incomplete(
    ballot: Ballot,
    roster: CandidateRoster,
    num_prefs: Optional[int] = None,
) -> FractionalBallot:
    """Expand a (possibly incomplete) ballot to ``num_prefs`` weighted rows.

    Stamps past ``num_prefs`` are dropped, which models a ballot that only
    supported that many preferences. A stamp for the "I don't know"
    candidate counts as missing, like every row past the ballot's end. The
    returned ballot's ``rows`` put weight 1 on each stamped candidate and
    give every missing row 1/m to each of the m tallyable candidates absent
    from the ballot, as if the voter had split the stamp evenly.

    ``num_prefs`` defaults to k - 1, the shortest ballot length that still
    guarantees a threshold crossing before the trivial all-100% stage.
    """
    k = roster.k
    if num_prefs is None:
        num_prefs = k - 1
    if not 1 <= num_prefs <= k:
        raise ValueError(f"num_prefs must be in 1..{k}, got {num_prefs}")
    return FractionalBallot(roster.tally_candidates, _stamp_tuple(ballot.prefs, roster, num_prefs))
