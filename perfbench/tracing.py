"""Traced runner: the CLI's tally and simulate paths, one span per call.

The runner calls stagevote's public functions in the order ``cli.cmd_tally``
and ``sim.run_simulation``/``sim.run_election`` call them, and wraps each
call in a span (name, start, end, parent, election, scope). The spans stay
in memory and are written once, at the end. Two calls are extra: once per
table the runner calls ``tally.compute_stage_stats`` and
``tally.sort_columns``, which ``select.beta_gamma_winner`` otherwise repeats
inside every call; they show what a per-table precomputation would cost.

``self_check`` runs both paths on tiny inputs and compares them with the
program itself, so a change to the CLI or to ``run_simulation`` that the
runner does not follow shows up as a failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

import ballotgen
import workloads
from stagevote import baselines, cli, sim
from stagevote.ballot import (
    IDK_TOKEN,
    NULL_TOKEN,
    CandidateRoster,
    csv_preference_columns,
    expand_incomplete,
    parse_ballots,
    validate_ballot,
)
from stagevote.select import (
    SelectionConfig,
    beta_gamma_winner,
    betagamma_report,
    parse_gamma_spec,
    parse_selector,
    report_to_text,
)
from stagevote.tally import compute_stage_stats, count_votes, cumulate, score, sort_columns

WORKLOAD = "workload"
SELF_CHECK = "self-check"


class Tracer:
    """In-memory spans plus counters recorded at the same call boundaries."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()  # (scope, name) -> count
        self.scope = WORKLOAD
        self.election = None
        self._open: list[int] = []

    def _enter(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        return idx, time.perf_counter_ns()

    def _exit(self, idx: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._open.pop()
        parent = self._open[-1] if self._open else None
        self.spans[idx] = (name, start, end, parent, self.election, self.scope)

    @contextlib.contextmanager
    def span(self, name: str):
        idx, start = self._enter()
        try:
            yield
        finally:
            self._exit(idx, name, start)

    def call(self, name: str, fn, *args, **kwargs):
        # Not ``with self.span(...)``: this wraps every per-ballot call, and a
        # generator context manager would add a microsecond to each.
        idx, start = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx, name, start)

    def add(self, name: str, n: int = 1) -> None:
        self.counts[self.scope, name] += n

    def total(self, name: str) -> int:
        return sum(n for (_, key), n in self.counts.items() if key == name)

    def write(self, path: Path) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "election", "scope"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans,
                       "counts": {f"{scope}:{name}": n
                                  for (scope, name), n in self.counts.items()}}, fh)


# --- tally: mirrors cli.cmd_tally ------------------------------------------

# cmd_tally's placeholder roster for its first, roster-inferring parse.
SCAN_ROSTER = CandidateRoster(candidates=("__scan__", NULL_TOKEN), null_id=NULL_TOKEN)


def _infer_roster(raws) -> CandidateRoster:
    # The rule of cli._infer_roster, restated so the runner relies on no
    # private CLI helper; the self-check catches the two drifting apart.
    seen = list(dict.fromkeys(c for raw in raws for c in raw.prefs))
    real = sorted(c for c in seen if c not in (NULL_TOKEN, IDK_TOKEN))
    idk = IDK_TOKEN if IDK_TOKEN in seen else None
    candidates = real + [NULL_TOKEN] + ([IDK_TOKEN] if idk else [])
    return CandidateRoster(candidates=tuple(candidates), null_id=NULL_TOKEN, idk_id=idk)


def traced_tally(tr: Tracer, csv_path) -> tuple[str, int]:
    """``stagevote tally`` with the workload's windowed rule: returns
    (stdout text, exit status)."""
    rule = workloads.TALLY_RULE
    with tr.span("cli.main"):
        tr.election = 0
        with tr.span("sim.election"):
            text = Path(csv_path).read_text(encoding="utf-8")
            num_cols = csv_preference_columns(text)
            scan = tr.call("ballot.parse_ballots:scan", parse_ballots, text, SCAN_ROSTER)
            roster = _infer_roster(scan)
            raws = tr.call("ballot.parse_ballots", parse_ballots, text, roster)
            tr.add("ballot.rows", len(raws))
            ballots = [tr.call("ballot.validate_ballot", validate_ballot, raw, roster)
                       for raw in raws]
            num_prefs = min(num_cols, roster.k)
            expanded = [tr.call("ballot.expand_incomplete", expand_incomplete,
                                b, roster, num_prefs) for b in ballots]
            vc, pt, st = _tables(tr, expanded, roster, num_prefs)
            cfg = SelectionConfig(alpha=rule["alpha"], beta=rule["beta"],
                                  gamma=parse_gamma_spec(rule["gamma"]),
                                  selector=parse_selector(rule["selector"]))
            decision = _decide(tr, st, cfg, roster.null_id)
        tr.election = None
        report = betagamma_report(decision, cfg, roster.null_id)
        blocks = [vc.to_text(), pt.to_text(), st.to_text(), report_to_text(report)]
        text = "\n\n".join(blocks) + "\n"
    tr.add("ballot.distinct", len({
        tuple(None if c == roster.idk_id else c for c in b.prefs[:num_prefs])
        for b in ballots}))
    tr.add("ballot.ballots", len(ballots))
    return text, 2 if decision.winner == roster.null_id else 0


def _tables(tr: Tracer, expanded, roster, num_prefs):
    vc = tr.call("tally.count_votes", count_votes, expanded, roster, num_prefs)
    pt = tr.call("tally.cumulate", cumulate, vc)
    st = tr.call("tally.score", score, pt)
    tr.add("tally.tables")
    tr.call("tally.compute_stage_stats", compute_stage_stats, st)
    tr.call("tally.sort_columns", sort_columns, st)
    return vc, pt, st


def _decide(tr: Tracer, st, cfg, null_id):
    decision = tr.call("select.beta_gamma_winner", beta_gamma_winner, st, cfg, null_id)
    tr.add("select.null_wins", decision.winner == null_id)
    tr.add("select.walk_backs", "walked_back_from" in decision.diagnostics)
    return decision


# --- simulate: mirrors sim.run_simulation (serial) and sim.run_election -----

def traced_simulate(tr: Tracer, cfg: sim.SimConfig) -> tuple[sim.SimulationResult, str]:
    """Serial ``stagevote simulate``: returns (result, stdout text)."""
    with tr.span("cli.main"):
        dataset = tr.call("sim.generate_dataset", sim.generate_dataset, [cfg.seed, 0],
                          num_candidates=cfg.dataset_size,
                          num_features=cfg.num_features,
                          test_fraction=cfg.test_fraction)
        crowd = tr.call("sim.build_crowd", sim.build_crowd, cfg, dataset,
                        np.random.default_rng([cfg.seed, 1]))
        tr.add("sim.clamped_voters", sum(v.clamped for v in crowd))
        y_test = dataset.y[dataset.test_idx]
        algorithms = cfg.effective_algorithms()
        num_prefs = cfg.effective_num_prefs
        n_test = len(dataset.test_idx)

        per_election = []
        for index in range(cfg.num_elections):
            tr.election = index
            with tr.span("sim.election"):
                rng = np.random.default_rng([cfg.seed, 2, index])
                slate = rng.choice(n_test, size=cfg.num_candidates, replace=False)
                results, ballots = _election(tr, crowd, slate, y_test[slate],
                                             dataset.null_y, algorithms, num_prefs,
                                             cfg.include_baselines)
            per_election.append(results)
            tr.add("ballot.distinct", len({b.prefs for b in ballots}))
            tr.add("ballot.ballots", len(ballots))
        tr.election = None

        order = list(per_election[0].keys())
        outcomes = {label: tuple(r[label] for r in per_election) for label in order}
        val_mse = []
        if cfg.include_baselines:
            all_preds = np.stack([v.predictions for v in crowd])
            mean_mse = float(np.mean((all_preds.mean(axis=0) - y_test) ** 2))
            median_mse = float(np.mean((np.median(all_preds, axis=0) - y_test) ** 2))
            best = baselines.best_voter(all_preds, y_test)
            val_mse = [(sim.LABEL_CROWD_MEAN, mean_mse),
                       (sim.LABEL_CROWD_MEDIAN, median_mse),
                       (sim.LABEL_BEST_VOTER, crowd[best].achieved_mse)]
        metrics = sim.metrics_from_outcomes(order, outcomes, val_mse)
        result = sim.SimulationResult(config=cfg, metrics=metrics, outcomes=outcomes)
        text = result.to_text() + "\n"
    return result, text


def _election(tr, crowd, slate, slate_y, null_y, algorithms, num_prefs, include_baselines):
    roster = sim.slate_roster(slate)
    ids = roster.tally_candidates
    ballots = [tr.call("sim.cast_ballot", sim.cast_ballot, v, slate, null_y, num_prefs, roster)
               for v in crowd]
    expanded = [tr.call("ballot.expand_incomplete", expand_incomplete, b, roster, num_prefs)
                for b in ballots]
    _, _, table = _tables(tr, expanded, roster, num_prefs)
    preds = np.stack([v.predictions[slate] for v in crowd])
    with_null = baselines.PredictionMatrix(
        slate=ids, values=np.column_stack([preds, np.full(len(crowd), null_y)]))

    def outcome(winner):
        if winner == roster.null_id:
            return sim.ElectionOutcome(winner, 1 + int(np.sum(slate_y > null_y)), False)
        y_w = float(slate_y[ids.index(winner)])
        return sim.ElectionOutcome(winner, 1 + int(np.sum(slate_y > y_w)), y_w < null_y)

    results = {}
    for cfg in algorithms:
        decision = _decide(tr, table, cfg, roster.null_id)
        results[sim.STAGED_PREFIX + cfg.label()] = outcome(decision.winner)
    if include_baselines:
        results[sim.LABEL_FPTP] = outcome(
            tr.call("baselines.fptp_winner", baselines.fptp_winner, ballots, roster))
        results[sim.LABEL_IRV] = outcome(
            tr.call("baselines.irv_winner", baselines.irv_winner, ballots, roster))
        results[sim.LABEL_CROWD_MEAN] = outcome(
            tr.call("baselines.crowd", baselines.crowd_mean_ranking, with_null)[0])
        results[sim.LABEL_CROWD_MEDIAN] = outcome(
            tr.call("baselines.crowd", baselines.crowd_median_ranking, with_null)[0])
        best = min(range(len(crowd)), key=lambda i: crowd[i].achieved_mse)
        best_vals = np.append(preds[best], null_y)
        results[sim.LABEL_BEST_VOTER] = outcome(
            ids[int(np.argsort(-best_vals, kind="stable")[0])])
    return results, ballots


# --- self-check -------------------------------------------------------------

SELF_CHECK_SIM = {
    "numCandidates": 5, "numVoters": 30, "numElections": 4, "columnBlindness": [1, 7],
    "crowdBuildMethod": {"name": "standardDistribution", "mean": 1500,
                         "standardDeviation": 400},
    "seed": 3,
    "algorithms": [
        {"alpha": 0.5, "selector": "First"},
        {"alpha": 0.5, "beta": 0.33, "gamma": "any:0.66", "selector": "MaxVariance"},
        {"alpha": 0.66, "beta": 0.2, "gamma": "count:2:0.5", "selector": "Last"},
    ],
}
SELF_CHECK_BALLOTS = 300


def self_check(tr: Tracer, workdir: Path) -> list[tuple[bool, str]]:
    """Run the traced runner on tiny inputs and compare it with the program:
    per-election outcomes against ``run_simulation``, the tally's stdout and
    exit status against ``cli.main``. Returns (passed, what) per comparison."""
    tr.scope = SELF_CHECK
    try:
        cfg = sim.config_from_json_dict(SELF_CHECK_SIM)
        traced_sim, _ = traced_simulate(tr, cfg)
        sim_ok = traced_sim.outcomes == sim.run_simulation(cfg).outcomes

        path = workdir / "self_check.csv"
        ballotgen.write_csv(path, ballotgen.generate(0, SELF_CHECK_BALLOTS))
        traced = traced_tally(tr, path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(workloads.tally_argv(path))
        tally_ok = traced == (buf.getvalue(), status)
    finally:
        tr.scope = WORKLOAD
    return [(sim_ok, "self-check: traced simulate outcomes differ from run_simulation"),
            (tally_ok, "self-check: traced tally differs from cli.main")]


# --- spans to per-layer metrics --------------------------------------------

# metric name -> span names whose durations it sums
SPAN_TIMES = {
    "select.beta_gamma_winner_s": ("select.beta_gamma_winner",),
    "tally.compute_stage_stats_s": ("tally.compute_stage_stats",),
    "tally.sort_columns_s": ("tally.sort_columns",),
    "tally.count_votes_s": ("tally.count_votes",),
    "tally.cumulate_s": ("tally.cumulate",),
    "tally.score_s": ("tally.score",),
    "ballot.expand_incomplete_s": ("ballot.expand_incomplete",),
    "ballot.parse_ballots_s": ("ballot.parse_ballots", "ballot.parse_ballots:scan"),
    "ballot.parse_ballots_scan_s": ("ballot.parse_ballots:scan",),
    "ballot.validate_ballot_s": ("ballot.validate_ballot",),
    "sim.cast_ballot_s": ("sim.cast_ballot",),
    "sim.generate_dataset_s": ("sim.generate_dataset",),
    "sim.build_crowd_s": ("sim.build_crowd",),
    "baselines.irv_winner_s": ("baselines.irv_winner",),
    "baselines.fptp_winner_s": ("baselines.fptp_winner",),
    "baselines.crowd_s": ("baselines.crowd",),
}
# metric name -> span name whose calls it counts
SPAN_CALLS = {
    "select.decisions": "select.beta_gamma_winner",
    "ballot.expand_incomplete_calls": "ballot.expand_incomplete",
}
COUNTS = ("select.null_wins", "select.walk_backs", "tally.tables", "ballot.rows",
          "sim.clamped_voters")


def tail_percentile(n: int):
    """Highest whole percentile with at least ten samples beyond it, or
    None when there are too few samples for one."""
    p = (100 * (n - 10)) // n if n else 0
    return p if p >= 50 else None


def layer_metrics(tr: Tracer, untraced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and a detail block (shares, tail percentile).

    Layer times and counts cover every span, self-check included; the
    election percentiles, the distinct ratio and the overhead ratio cover
    the workload alone."""
    child_time = Counter()
    for _, start, end, parent, _, _ in tr.spans:
        if parent is not None:
            child_time[parent] += end - start
    durations, calls, self_time, workload_self = Counter(), Counter(), Counter(), Counter()
    for idx, (name, start, end, _, _, scope) in enumerate(tr.spans):
        durations[name] += end - start
        calls[name] += 1
        own = end - start - child_time[idx]
        self_time[name] += own
        if scope == WORKLOAD:
            workload_self[name] += own

    metrics = {}
    for metric, names in SPAN_TIMES.items():
        metrics[metric] = (sum(durations[n] for n in names) / 1e9, "s")
    for metric, name in SPAN_CALLS.items():
        metrics[metric] = (calls[name], "count")
    for name in COUNTS:
        metrics[name] = (tr.total(name), "count")
    metrics["cli.self_s"] = (self_time["cli.main"] / 1e9, "s")
    metrics["sim.election_self_s"] = (self_time["sim.election"] / 1e9, "s")

    elections = sorted((end - start) / 1e6 for name, start, end, _, _, scope in tr.spans
                       if name == "sim.election" and scope == WORKLOAD)
    elections_s = sum(elections) / 1e3
    tail = tail_percentile(len(elections))
    metrics["sim.election_p50_ms"] = (float(np.percentile(elections, 50)), "ms")
    metrics["sim.election_tail_ms"] = (
        float(np.percentile(elections, tail if tail is not None else 100)), "ms")
    traced_s = sum(end - start for name, start, end, _, _, scope in tr.spans
                   if name == "cli.main" and scope == WORKLOAD) / 1e9
    metrics["ballot.distinct_ratio"] = (
        tr.counts[WORKLOAD, "ballot.distinct"] / tr.counts[WORKLOAD, "ballot.ballots"], "ratio")
    metrics["cli.main_s"] = (untraced_wall_s, "s")
    metrics["trace_overhead_ratio"] = (traced_s / untraced_wall_s, "ratio")

    shares = {name: round(t / 1e9 / traced_s, 4) for name, t in workload_self.most_common()}
    detail = {
        "traced_s": traced_s,
        "elections": len(elections),
        "elections_s": elections_s,
        "election_tail_percentile": tail if tail is not None else "max",
        "self_time_shares": shares,
    }
    return metrics, detail
