"""Command-line front door.

Subcommands:

* ``tally``      — tally a ballot CSV, print the three stage tables and
                   the decision block (exit 0 on a real winner, 2 when
                   NULL wins, 1 on input errors).
* ``simulate``   — run a seeded election study from a JSON config and
                   print the results table, best mean rank first.
* ``min-stages`` — print the minimum number of stages that guarantees an
                   alpha crossing for k candidates.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from .ballot import (
    IDK_TOKEN,
    NULL_TOKEN,
    Ballot,
    BallotError,
    CandidateRoster,
    _read_rows,
    expand_incomplete,
    validate_ballot,
)
from .select import (
    SelectionConfig,
    Selector,
    basic_report,
    basic_winner,
    beta_gamma_winner,
    betagamma_report,
    min_stages,
    parse_gamma_spec,
    parse_selector,
    report_to_text,
)
from .tally import count_votes, cumulate, score

SEED_ENV_VAR = "STAGEVOTE_SEED"


class CliError(Exception):
    """User-facing error; message goes to stderr, exit status 1."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagevote",
        description="Staged cumulative ranked voting: tally ballots, "
                    "run election studies, compute stage bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tally = sub.add_parser("tally", help="tally a ballot CSV and decide a winner")
    tally.add_argument("ballots", help="path to a ballot CSV (header voter_id,pref1,...)")
    tally.add_argument("--candidates",
                       help="comma-separated roster (must include NULL); "
                            "inferred from the file when omitted")
    tally.add_argument("--alpha", type=float, default=0.5,
                       help="winning threshold in [0,1] (default 0.5)")
    tally.add_argument("--beta", type=float, default=None,
                       help="discontent cap for NULL in (0,1); enables the windowed variant")
    tally.add_argument("--gamma", default=None,
                       help="runaway rule: any:G, frac:F:G or count:C:G")
    tally.add_argument("--selector", default=None,
                       help="stage selector: first, last, min-entropy, max-entropy, "
                            "min-variance, max-variance, max-stdev")
    tally.add_argument("--num-prefs", type=int, default=None,
                       help="preference rows to tally (default: header width, "
                            "capped at the roster size)")
    tally.add_argument("--format", choices=["text", "json"], default="text")

    simulate = sub.add_parser("simulate", help="run an election study from a JSON config")
    simulate.add_argument("config", help="path to the simulation config JSON")
    simulate.add_argument("--seed", type=int, default=None,
                          help=f"override the config seed (or set ${SEED_ENV_VAR})")
    simulate.add_argument("--workers", type=int, default=None,
                          help="ignored with a warning; elections run serially")
    simulate.add_argument("--format", choices=["text", "json"], default="text")

    stages = sub.add_parser("min-stages",
                            help="minimum stages guaranteeing an alpha crossing")
    stages.add_argument("n", type=int, help="number of voters (kept for symmetry)")
    stages.add_argument("k", type=int, help="number of candidates, NULL included")
    stages.add_argument("alpha", type=_exact_decimal, help="threshold in (0,1)")

    return parser


def _exact_decimal(text: str):
    """The typed number exactly (0.29 is 29/100); nan and inf stay floats."""
    try:
        return Fraction(text) if math.isfinite(float(text)) else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _infer_roster(ballots) -> CandidateRoster:
    seen = dict.fromkeys(c for ballot in ballots for c in ballot.prefs)
    real = sorted(c for c in seen if c not in (NULL_TOKEN, IDK_TOKEN))
    candidates = real + [NULL_TOKEN]
    idk = IDK_TOKEN if IDK_TOKEN in seen else None
    if idk:
        candidates.append(IDK_TOKEN)
    if len(real) < 1:
        raise CliError("could not infer a roster: no real candidates in the file")
    return CandidateRoster(candidates=tuple(candidates), null_id=NULL_TOKEN, idk_id=idk)


def _roster_from_flag(spec: str) -> CandidateRoster:
    ids = tuple(s.strip() for s in spec.split(",") if s.strip())
    if NULL_TOKEN not in ids:
        raise CliError("--candidates must include NULL")
    idk = IDK_TOKEN if IDK_TOKEN in ids else None
    try:
        return CandidateRoster(candidates=ids, null_id=NULL_TOKEN, idk_id=idk)
    except ValueError as exc:
        raise CliError(f"bad --candidates: {exc}") from exc


def _read_ballot_groups(fh, candidates: Optional[str]):
    """Read the ballot file in one pass, grouping rows by preference tuple.

    Returns ``(P, roster, {prefs: [first Ballot, voters]})`` in first-seen
    order. The roster, the off-roster warning and validation all work on
    the distinct tuples; only when some tuple is invalid is the file read a
    second time, to list every line that holds one.
    """
    # Every roster built here spells NULL and IDK literally, so the ballots
    # can be parsed with their tokens as written, before the roster exists.
    try:
        num_cols, rows = _read_rows(fh, None)
        groups: dict[tuple[str, ...], list] = {}
        for line, voter_id, prefs in rows:
            group = groups.get(prefs)
            if group is None:
                groups[prefs] = [Ballot(voter_id, prefs, line), 1]
            else:
                group[1] += 1
    except BallotError as exc:
        raise CliError(str(exc)) from exc
    if not groups:
        raise CliError("no ballots in file")
    ballots = [ballot for ballot, _ in groups.values()]
    if candidates:
        roster = _roster_from_flag(candidates)
        extra = sorted({c for prefs in groups for c in prefs} - set(roster.candidates))
        if extra:
            print(f"warning: ballots contain identifiers not on the roster: "
                  f"{', '.join(extra)}", file=sys.stderr)
    else:
        roster = _infer_roster(ballots)

    failures = {}
    for ballot in ballots:
        try:
            validate_ballot(ballot, roster)
        except BallotError as exc:
            failures[ballot.prefs] = exc
    if failures:
        fh.seek(0)
        _, rows = _read_rows(fh, None)
        problems = [f"line {line}: {failures[prefs]}"
                    for line, _, prefs in rows if prefs in failures]
        raise CliError("invalid ballots:\n  " + "\n  ".join(problems))
    return num_cols, roster, groups


def cmd_tally(args) -> int:
    """Tally a ballot file: one streaming pass groups its rows by preference
    tuple, then validation, expansion and counting run once per distinct
    ballot, each weighted by its number of voters."""
    # Built for the basic rule too, so alpha is checked on both paths.
    try:
        cfg = SelectionConfig(
            alpha=args.alpha,
            beta=args.beta,
            gamma=parse_gamma_spec(args.gamma),
            selector=(parse_selector(args.selector)
                      if args.selector else Selector.FIRST),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    try:
        # utf-8-sig: spreadsheet CSV exports start with a byte-order mark.
        # surrogateescape: bytes that are not UTF-8 reach the reader, which
        # reports them with their line number.
        with open(args.ballots, "r", encoding="utf-8-sig",
                  errors="surrogateescape") as fh:
            # A pipe cannot be read twice; keep its text for the error pass.
            source = fh if fh.seekable() else io.StringIO(fh.read())
            num_cols, roster, groups = _read_ballot_groups(source, args.candidates)
    except OSError as exc:
        raise CliError(f"cannot read {args.ballots}: {exc}") from exc

    num_prefs = args.num_prefs
    if num_prefs is None:
        num_prefs = min(num_cols, roster.k)
    if not 1 <= num_prefs <= roster.k:
        raise CliError(f"--num-prefs must be in 1..{roster.k}")

    # Distinct tuples can still expand alike (cut at num_prefs, IDK stamps).
    expanded: Counter = Counter()
    for ballot, voters in groups.values():
        expanded[expand_incomplete(ballot, roster, num_prefs)] += voters
    vc = count_votes(expanded, roster, num_prefs)
    pt = cumulate(vc)
    st = score(pt)

    windowed = (args.beta is not None or args.gamma is not None
                or args.selector is not None)
    if windowed:
        decision = beta_gamma_winner(st, cfg, roster.null_id)
        report = betagamma_report(decision, cfg, roster.null_id)
    else:
        decision = basic_winner(st, args.alpha)
        report = basic_report(decision, args.alpha)

    if args.format == "json":
        doc = {
            "counts": vc.to_json_dict(),
            "processed": pt.to_json_dict(),
            "scores": st.to_json_dict(),
            "decision": report,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(vc.to_text())
        print()
        print(pt.to_text())
        print()
        print(st.to_text())
        print()
        print(report_to_text(report))

    return 2 if decision.winner == roster.null_id else 0


def load_study(path, seeds: Sequence[Optional[int]]) -> list:
    """One ``SimConfig`` per seed (None keeps the file's) from a study config
    file. Each ignored key in it is one ``warning:`` line on stderr; no numpy,
    an unreadable file, invalid JSON or a bad config raises ``CliError``."""
    # numpy comes with sim; tally and min-stages never need it.
    try:
        from . import sim
    except ImportError as exc:
        raise CliError(f"simulate needs numpy ({exc})") from exc
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    # JSONDecodeError, UnicodeDecodeError (both ValueError) and deep nesting.
    except (ValueError, RecursionError) as exc:
        raise CliError(f"invalid JSON in {path}: {exc}") from exc
    for key in sim.IGNORED_CONFIG_KEYS:
        if isinstance(doc, dict) and key in doc:
            print(f"warning: config key {key!r} is accepted but ignored", file=sys.stderr)
    try:
        return [sim.config_from_json_dict(doc, seed_override=seed) for seed in seeds]
    except sim.SimConfigError as exc:
        raise CliError(f"bad config: {exc}") from exc


def simulate(cfg):
    """``sim.run_simulation(cfg)``; running out of memory raises ``CliError``."""
    from . import sim

    try:
        return sim.run_simulation(cfg)
    except MemoryError as exc:
        raise CliError(f"simulate ran out of memory ({str(exc) or 'no detail'})") from exc


def cmd_simulate(args) -> int:
    if args.workers is not None:
        print("warning: --workers is ignored; elections run serially", file=sys.stderr)
    seed = args.seed
    if seed is None and SEED_ENV_VAR in os.environ:
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise CliError(f"${SEED_ENV_VAR} must be an integer") from exc

    result = simulate(load_study(args.config, [seed])[0])
    print(json.dumps(result.to_json_dict(), indent=2) if args.format == "json"
          else result.to_text())
    return 0


def cmd_min_stages(args) -> int:
    try:
        print(min_stages(args.n, args.k, args.alpha))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "tally": cmd_tally,
        "simulate": cmd_simulate,
        "min-stages": cmd_min_stages,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
