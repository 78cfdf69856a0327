"""Winner selection over score tables.

Two families are provided:

* ``basic_winner`` walks stages until some candidate's score strictly
  exceeds the alpha threshold and elects the top scorer there, with a
  last-stage fallback when nothing ever crosses.
* ``beta_gamma_winner`` keeps the stages before the one where NULL's score
  exceeds beta (or up to the one where it exceeds alpha, with beta unset)
  and up to the one where the gamma rule fires; picks a decision stage
  with a selector (pool endpoint, extremal entropy or variance); and never
  lets a real candidate win a stage where NULL scores strictly higher.

A stage *qualifies* when its top real candidate scores strictly above
alpha and NULL does not score strictly higher: the first one opens the
window and a NULL veto walks back to the latest one. Reports derive their
best-candidate fields from a decision's table when rendered, by the
profile's top-real-column rule and with no profile of their own.

Each threshold (alpha, beta, the gamma cap) is read as typed, as the
exact decimal written (0.57 is 57/100), and every crossing is decided on
the score table's int numerators over its denominator D: a cell v / D
strictly exceeds 100 * p / q exactly when v > 100 * p * D // q. No score
is compared as a float, so a cell just above the typed bar crosses it.

Windows are decided from a crossing profile (``_Crossings``), built once
per decision call from the table and its NULL column: per stage, the top
real column and its numerator where NULL is not above it, and NULL's
numerator. Each window bound is one scan for the first stage above its
bar. The profile keeps each distinct scan, and each decided stage by
(pool end, selector, alpha bar), for the configs of its call; separate
calls on one table share only the table's stage statistics and ranking.
``grid_winners`` decides a whole grid on one table and one profile with no
``Decision``, deciding each distinct (alpha, beta, gamma) window once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Real
from typing import Iterable, Optional, Sequence, Union

from .tally import StageStats, StageTable


@lru_cache(maxsize=None)
def _typed(threshold: float) -> Fraction:
    """A threshold as typed: str() is the shortest decimal that reads back
    as this float, so 0.57 is 57/100, not the double below it."""
    return Fraction(str(threshold))


def _bar(threshold: float, denom: int) -> int:
    """The bar for a threshold over a table's denominator: a cell v / denom
    exceeds 100 times the typed threshold exactly when v > the bar."""
    t = _typed(threshold)
    return 100 * t.numerator * denom // t.denominator


class SelectionError(ValueError):
    """Raised for selection-time contract violations."""


class EmptyTableError(SelectionError):
    """The score table has no stages or no candidates."""


class EmptyPoolError(SelectionError):
    """No valid stage exists to select from."""


class MissingNullColumnError(SelectionError):
    """The configured NULL candidate is not a column of the table."""


class Selector(str, Enum):
    """How the decision stage is picked from the pool of valid stages."""

    FIRST = "First"
    LAST = "Last"
    MIN_ENTROPY = "MinEntropy"
    MAX_ENTROPY = "MaxEntropy"
    MIN_VARIANCE = "MinVariance"
    MAX_VARIANCE = "MaxVariance"
    MAX_STDDEV = "MaxStDev"


@dataclass(frozen=True)
class GammaRule:
    """Stage-invalidity rule fired by candidates exceeding a score cap.

    ``GammaRule()`` is no rule; ``GammaRule(threshold=G)`` fires when any
    candidate exceeds 100*G, ``GammaRule(threshold=G, fraction=F)`` when at
    least F*k do (F exactly as written), ``GammaRule(threshold=G, count=C)``
    when at least C do. The rule only states that count (``needed``); a
    decision finds the first stage whose c-th largest score numerator
    exceeds the cap (``stage_window``).
    """

    threshold: Optional[float] = None
    fraction: Optional[float] = None
    count: Optional[int] = None

    def __post_init__(self):
        for name, kind, noun in (("threshold", Real, "a number"),
                                 ("fraction", Real, "a number"), ("count", int, "an int")):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, kind)):
                raise ValueError(f"gamma {name} must be {noun}, got {value!r}")
        if self.threshold is None:
            if self.fraction is not None or self.count is not None:
                raise ValueError("fraction/count require a threshold")
            return
        if not 0 < self.threshold < 1:
            raise ValueError("gamma threshold must be in (0, 1)")
        if self.fraction is not None and self.count is not None:
            raise ValueError("gamma rule takes fraction or count, not both")
        if self.fraction is not None and not 0 < self.fraction <= 1:
            raise ValueError("gamma fraction must be in (0, 1]")
        if self.count is not None and self.count < 1:
            raise ValueError("gamma count must be >= 1")

    def needed(self, k: int) -> Optional[int]:
        """How many of a k-column row's scores must exceed the cap for the
        rule to fire (None with no rule); more than k never fires."""
        if self.threshold is None:
            return None
        if self.count is not None:
            return self.count
        if self.fraction is not None:
            # 0.28 is 7/25, and 0.28 of 25 is 7, not 7.000000000000001.
            return math.ceil(_typed(self.fraction) * k)
        return 1

    def label(self) -> str:
        if self.threshold is None:
            return "____"
        cap = _fmt_typed(self.threshold, ".2f")
        if self.count is not None:
            return f"{cap}@n{self.count}"
        if self.fraction is not None:
            return f"{cap}@f{_fmt_typed(self.fraction, 'g')}"
        return cap


def _fmt_typed(x: Real, spec: str) -> str:
    """``x`` as the float equal to it, formatted by ``spec`` when that reads
    back as it, else its shortest repr; with no equal float (Fraction(2, 3)),
    ``x`` exactly. Equal thresholds print alike, distinct ones never do."""
    f = float(x)
    if f != x:
        return str(x)
    text = format(f, spec)
    return text if float(text) == f else repr(f)


@dataclass(frozen=True)
class SelectionConfig:
    """Parameters of one staged-voting variant.

    With ``beta`` unset, tallying stops (inclusively) at the stage where
    NULL's score exceeds alpha. With ``beta`` set, it stops just before
    the stage where NULL's score exceeds beta. A gamma rule stops it
    (inclusively) at the stage where the rule fires.
    """

    alpha: float
    beta: Optional[float] = None
    gamma: GammaRule = GammaRule()
    selector: Selector = Selector.FIRST

    def __post_init__(self):
        given = [("alpha", self.alpha)] + ([] if self.beta is None else [("beta", self.beta)])
        for name, value in given:
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        if self.beta is not None and not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")

    def label(self) -> str:
        return self._label

    @cached_property
    def _label(self) -> str:
        beta = "____" if self.beta is None else _fmt_typed(self.beta, ".2f")
        return (
            f"<α={_fmt_typed(self.alpha, '.2f')}, β={beta}, "
            f"γ={self.gamma.label()}, {self.selector.value}>"
        )


@dataclass(frozen=True)
class StageWindow:
    """The consecutive stages a winner may be selected from.

    ``first_by_alpha`` is the first stage where some real candidate
    crosses alpha without NULL scoring strictly higher. ``last_by_beta``
    and ``last_by_gamma`` are the cutoff bounds (None means the cutoff
    never fired). ``end`` is the last stage the cutoffs allow: the
    tightest bound, else the table's last stage (0 when nothing is
    usable). The pool runs from ``first_by_alpha`` to ``end``; an empty
    pool means NULL wins.
    """

    first_by_alpha: Optional[int]
    last_by_beta: Optional[int]
    last_by_gamma: Optional[int]
    end: int
    pool: tuple[int, ...]


@dataclass(frozen=True)
class Decision:
    """Election outcome plus the window and table that produced it.

    ``diagnostics`` keys: ``fallback`` (basic rule); ``walked_back_from``
    after a NULL-veto walk-back (windowed rule). ``table`` is the table
    decided on, kept out of equality and repr; reports read it.
    """

    winner: str
    stage: Optional[int]
    score: Optional[Fraction]
    window: Optional[StageWindow] = None
    diagnostics: dict = field(default_factory=dict)
    table: Optional[StageTable] = field(default=None, compare=False, repr=False)


def _check_table(st: StageTable) -> None:
    if st.num_stages == 0 or not st.candidates:
        raise EmptyTableError("score table has no stages or candidates")


def basic_winner(st: StageTable, alpha: float) -> Decision:
    """Elect at the earliest stage where some score strictly exceeds alpha.

    The top scorer at that stage wins (ties broken by ``sort_columns``
    order, then roster order). If no stage ever qualifies, alpha is
    ignored at the final stage and the top scorer wins, flagged as a
    fallback in the diagnostics.
    """
    _check_table(st)
    leaders = (row[order[0]] for row, order in zip(st.ints, st.ranking))
    stage = _first_above(leaders, _bar(alpha, st.denom))
    fallback = stage is None
    stage = stage or st.num_stages
    best = st.ranking[stage - 1][0]
    return Decision(winner=st.candidates[best], stage=stage,
                    score=Fraction(st.ints[stage - 1][best], st.denom),
                    diagnostics={"fallback": fallback}, table=st)


def _first_above(values: Iterable[int], bar: int) -> Optional[int]:
    """The first stage (1-based) whose value exceeds ``bar``, or None."""
    return next((i for i, v in enumerate(values, 1) if v > bar), None)


def _top_real(order: Sequence[int], nj: int) -> int:
    """The first column of a stage's ranking ``order`` that is not NULL's ``nj``."""
    return order[order[0] == nj]


class _Crossings:
    """A table's crossing profile for the NULL column ``null_id``, with its
    scans by (column, bar) and decided stages by (pool end, selector, alpha
    bar): the alpha bar fixes the pool's first stage.

    Per stage i (0-based), ``top[i]`` is the top real column (the first of
    the stage's ranking that is not NULL) and ``best[i]`` its numerator
    when NULL does not score strictly higher, else -1: every bar is >= 0,
    so the stage qualifies for alpha exactly when ``best[i]`` exceeds the
    bar. ``null[i]`` is NULL's numerator.
    """

    def __init__(self, st: StageTable, null_id: str):
        _check_table(st)
        if null_id not in st.candidates:
            raise MissingNullColumnError(f"{null_id!r} is not a column of the table")
        if len(st.candidates) < 2:
            raise EmptyTableError("score table has no real candidate")
        nj = st.candidates.index(null_id)
        self.st, self.ints, self.ranking, self.denom = st, st.ints, st.ranking, st.denom
        self.top = [_top_real(order, nj) for order in self.ranking]
        self.null = [row[nj] for row in self.ints]
        self.best = [row[j] if null <= row[j] else -1
                     for row, j, null in zip(self.ints, self.top, self.null)]
        self.scans: dict[tuple, Optional[int]] = {}
        self.stages: dict[tuple, tuple[int, int]] = {}

    def _scan(self, name, values: Iterable[int], bar: int) -> Optional[int]:
        """``_first_above(values, bar)``, scanned once per (name, bar)."""
        key = (name, bar)
        if key not in self.scans:
            self.scans[key] = _first_above(values, bar)
        return self.scans[key]

    def window(self, cfg: SelectionConfig) -> StageWindow:
        bar_a = _bar(cfg.alpha, self.denom)
        first_by_alpha = self._scan("best", self.best, bar_a)
        if cfg.beta is not None:
            crossing = self._scan("null", self.null, _bar(cfg.beta, self.denom))
            last_by_beta = None if crossing is None else crossing - 1
        else:
            # No beta: stop once NULL itself passes alpha; that stage stays
            # usable but a real winner there must not be beaten by NULL.
            last_by_beta = self._scan("null", self.null, bar_a)
        # The rule fires where the c-th largest score exceeds the cap.
        k = len(self.ranking[0])
        c = cfg.gamma.needed(k)
        last_by_gamma = None if c is None or c > k else self._scan(
            c, (row[order[c - 1]] for row, order in zip(self.ints, self.ranking)),
            _bar(cfg.gamma.threshold, self.denom))

        end = min(b for b in (last_by_beta, last_by_gamma, len(self.ints)) if b is not None)
        # Empty when nothing qualifies or the first qualifying stage is past end.
        pool = () if first_by_alpha is None else tuple(range(first_by_alpha, end + 1))
        return StageWindow(first_by_alpha=first_by_alpha, last_by_beta=last_by_beta,
                           last_by_gamma=last_by_gamma, end=end, pool=pool)

    def stage(self, window: StageWindow, selector: Selector, bar: int) -> tuple[int, int]:
        """(selected, decided) stage of a nonempty window: the selector's
        pick, then the walk-back to the latest stage at or before it whose
        ``best`` exceeds the alpha ``bar`` (the pool's first one does)."""
        pool = window.pool
        key = (pool[-1], selector, bar)
        if key not in self.stages:
            endpoint = selector in (Selector.FIRST, Selector.LAST)
            chosen = select_stage(window, selector, None if endpoint else self.st.stats)
            self.stages[key] = chosen, next(
                s for s in range(chosen, pool[0] - 1, -1) if self.best[s - 1] > bar)
        return self.stages[key]


def stage_window(st: StageTable, cfg: SelectionConfig, null_id: str) -> StageWindow:
    """Compute the pool of valid stages for a configuration.

    The lower bound is the first stage with an alpha-crossing real
    candidate that NULL does not strictly beat. The upper bound is the
    tightest of: the stage before NULL crosses beta (or the stage where it
    crosses alpha, when beta is unset), the stage where the gamma rule
    fires, and the last stage of the table.
    """
    return _Crossings(st, null_id).window(cfg)


def select_stage(window: StageWindow, selector: Selector, stats: Optional[StageStats]) -> int:
    """Pick the decision stage from the pool (earliest stage on ties); First
    and Last read no ``stats``. Variance and stddev compare the exact
    ``stats.variance_key``; entropy compares floats, which can split a true tie."""
    pool = window.pool
    if not pool:
        raise EmptyPoolError("no valid stage to select from")
    if selector is Selector.FIRST:
        return pool[0]
    if selector is Selector.LAST:
        return pool[-1]

    if selector in (Selector.MIN_ENTROPY, Selector.MAX_ENTROPY):
        values = stats.entropy
        empty = next((i for i in pool if values[i - 1] is None), None)
        if empty is not None:
            raise SelectionError(f"stage {empty} has no entropy (empty row)")
    else:
        values = stats.variance_key
    sign = 1 if selector in (Selector.MIN_ENTROPY, Selector.MIN_VARIANCE) else -1
    return min(pool, key=lambda i: (sign * values[i - 1], i))


def beta_gamma_winner(st: StageTable, cfg: SelectionConfig, null_id: str) -> Decision:
    """Run the windowed variant: cutoffs, stage selector, NULL veto.

    An empty window elects NULL outright. Otherwise the selector picks a
    stage from the pool and the decision walks back to the latest
    qualifying stage at or before it (the pool's first stage qualifies, so
    one exists). The winner is the top-scoring real candidate there, who
    scores strictly above alpha.
    """
    profile = _Crossings(st, null_id)
    window = profile.window(cfg)
    if not window.pool:
        return Decision(winner=null_id, stage=None, score=None,
                        window=window, table=st)
    chosen, stage = profile.stage(window, cfg.selector, _bar(cfg.alpha, st.denom))
    best = profile.top[stage - 1]
    return Decision(winner=st.candidates[best], stage=stage,
                    score=Fraction(st.ints[stage - 1][best], st.denom), window=window,
                    diagnostics={} if stage == chosen else {"walked_back_from": chosen},
                    table=st)


def grid_winners(st: StageTable, configs: Sequence[SelectionConfig],
                 null_id: str) -> list[str]:
    """``beta_gamma_winner(st, cfg, null_id).winner`` for each config, with
    no ``Decision`` built: each (alpha, beta, gamma) group of configs shares
    one window, and each (pool end, selector, alpha bar) one decided stage."""
    profile = _Crossings(st, null_id)
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault((cfg.alpha, cfg.beta, cfg.gamma), []).append(i)
    winners = [null_id] * len(configs)
    for members in groups.values():
        cfg = configs[members[0]]
        window = profile.window(cfg)
        if window.pool:
            bar = _bar(cfg.alpha, st.denom)
            for i in members:
                stage = profile.stage(window, configs[i].selector, bar)[1]
                winners[i] = st.candidates[profile.top[stage - 1]]
    return winners


def min_stages(n: int, k: int, alpha: Union[float, Fraction]) -> int:
    """Smallest number of stages guaranteeing an alpha crossing.

    With every possible stage present the worst case is a perfectly even
    spread of n/k per cell, so the bound is the least integer x with
    x > alpha * k, exact for a ``Fraction`` alpha (``Fraction("0.29")``, k =
    100 gives 30; the float 0.29 gives 29, as 0.29 * 100 < 29 in floats).
    The voter count n does not enter the bound; it is kept for signature
    symmetry with the election parameters.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    return math.floor(alpha * k) + 1


def basic_report(decision: Decision, alpha: float) -> dict:
    """Key/value block for a basic decision."""
    return {
        "algorithm": "basic",
        "winner": decision.winner,
        "stage": decision.stage,
        "score": None if decision.score is None else float(decision.score),
        "alpha": alpha,
        "fallback": decision.diagnostics.get("fallback", False),
    }


def betagamma_report(decision: Decision, cfg: SelectionConfig, null_id: str) -> dict:
    """Key/value block for a windowed decision, one key per line in text form.

    The ``best*`` fields are the top real candidate and score (ties in
    ``column_order``) at the window's end and at each bound, read from the
    decision's table by ``_top_real``, the rule its crossing profile used;
    the report builds no profile. A bound outside the table gives None.
    """
    w = decision.window
    st = decision.table

    def best_real(stage: Optional[int]) -> tuple[Optional[str], Optional[float]]:
        if st is None or stage is None or not 1 <= stage <= st.num_stages:
            return None, None
        j = _top_real(st.ranking[stage - 1], st.candidates.index(null_id))
        return st.candidates[j], st.ints[stage - 1][j] / st.denom

    first, last_b, last_g, end = ((w.first_by_alpha, w.last_by_beta, w.last_by_gamma,
                                   w.end) if w is not None else (None,) * 4)
    best_candidate, best_score = best_real(end)
    return {
        "algorithm": "BetaGamma",
        "NULLCandidate": null_id,
        "winner": decision.winner,
        "stage": decision.stage,
        "score": None if decision.score is None else float(decision.score),
        "bestCandidate": best_candidate,
        "bestScore": best_score,
        "bestScoreStage": end,
        "lastStageByBeta": last_b,
        "bestScoreByBeta": best_real(last_b)[1],
        "lastStageByGamma": last_g,
        "bestScoreByGamma": best_real(last_g)[1],
        "firstStageByAlpha": first,
        "bestScoreByAlpha": best_real(first)[1],
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "gamma": cfg.gamma.threshold,
        "selector": cfg.selector.value,
    }


def report_to_text(report: dict) -> str:
    """Render a report dict as ``key: value`` lines (None prints as ``-``)."""
    lines = []
    for key, value in report.items():
        if value is None:
            text = "-"
        elif isinstance(value, float):
            text = _fmt_float(value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = str(value)
        lines.append(f"{key}: {text}")
    return "\n".join(lines)


def _fmt_float(f: float) -> str:
    if f == int(f):
        return str(int(f))
    return f"{f:g}"


def parse_gamma_spec(spec) -> GammaRule:
    """Parse a gamma flag: ``any:G``, ``frac:F:G``, ``count:C:G``, a bare
    number (same as ``any``), or None/empty for no rule."""
    if spec is None or spec in ("", "____", "none"):
        return GammaRule()
    if isinstance(spec, bool):  # JSON true/false, not the numbers 1 and 0
        raise ValueError(f"bad gamma spec {spec!r}; use any:G, frac:F:G or count:C:G")
    if isinstance(spec, (int, float)):  # no int lies in (0, 1); a huge one has no float
        return GammaRule(threshold=spec)
    parts = str(spec).split(":")
    try:
        if len(parts) == 1:
            return GammaRule(threshold=float(parts[0]))
        kind = parts[0].lower()
        if kind == "any" and len(parts) == 2:
            return GammaRule(threshold=float(parts[1]))
        if kind in ("frac", "fraction") and len(parts) == 3:
            return GammaRule(threshold=float(parts[2]), fraction=float(parts[1]))
        if kind == "count" and len(parts) == 3:
            return GammaRule(threshold=float(parts[2]), count=int(parts[1]))
    except ValueError as exc:
        raise ValueError(f"bad gamma spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad gamma spec {spec!r}; use any:G, frac:F:G or count:C:G")


_SELECTOR_ALIASES = {s.value.lower(): s for s in Selector}
_SELECTOR_ALIASES["maxstddev"] = Selector.MAX_STDDEV


def parse_selector(name: str) -> Selector:
    """Accept selector names in enum form or CLI form (``min-entropy``)."""
    key = str(name).replace("-", "").replace("_", "").lower()
    try:
        return _SELECTOR_ALIASES[key]
    except KeyError:
        choices = ", ".join(s.value for s in Selector)
        raise ValueError(f"unknown selector {name!r}; choices: {choices}") from None
