"""Winner selection: thresholds, windows, selectors, stage bounds."""

import random
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stagevote import select, sim
from stagevote.ballot import Ballot, CandidateRoster
from stagevote.select import (
    EmptyPoolError,
    EmptyTableError,
    GammaRule,
    MissingNullColumnError,
    SelectionConfig,
    SelectionError,
    Selector,
    StageWindow,
    basic_winner,
    beta_gamma_winner,
    betagamma_report,
    grid_winners,
    min_stages,
    parse_gamma_spec,
    parse_selector,
    select_stage,
    stage_window,
)
from stagevote.tally import StageStats, StageTable, TableKind, cumulate, score

from conftest import (gamma_fires, make_score_table, pipeline, population_variance,
                      table_from_rows)


class TestBasicWinner:
    def test_concrete_example(self, concrete_tables):
        _, _, table = concrete_tables
        decision = basic_winner(table, 0.5)
        assert decision.winner == "X"
        assert decision.stage == 2
        assert decision.score == 100
        assert decision.diagnostics["fallback"] is False

    def test_unanimity(self):
        table = make_score_table(["A", "B", "NULL"], [[100, 0, 0]])
        decision = basic_winner(table, 0.5)
        assert (decision.winner, decision.stage, decision.score) == ("A", 1, 100)

    def test_fallback_when_nothing_crosses(self):
        table = make_score_table(["A", "B", "NULL"], [[30, 20, 10], [45, 40, 15]])
        decision = basic_winner(table, 0.5)
        assert decision.winner == "A"
        assert decision.stage == 2
        assert decision.score == 45
        assert decision.diagnostics["fallback"] is True

    def test_ties_break_by_sorted_order(self):
        # B and A tie at the crossing stage; B leads on the later stage.
        table = make_score_table(["A", "B", "NULL"], [[60, 60, 0], [60, 80, 0]])
        assert basic_winner(table, 0.5).winner == "B"

    def test_empty_table_rejected(self):
        table = make_score_table(["A"], [])
        with pytest.raises(EmptyTableError):
            basic_winner(table, 0.5)
        with pytest.raises(EmptyTableError):
            beta_gamma_winner(table, SelectionConfig(alpha=0.5), "A")
        # A NULL column alone leaves no real candidate to elect.
        only_null, cfg = make_score_table(["NULL"], [[100]]), SelectionConfig(alpha=0.5)
        for decide in (lambda: stage_window(only_null, cfg, "NULL"),
                       lambda: beta_gamma_winner(only_null, cfg, "NULL"),
                       lambda: grid_winners(only_null, [cfg], "NULL")):
            with pytest.raises(EmptyTableError, match="^score table has no real candidate$"):
                decide()


class TestStageWindow:
    def test_beta_crossing_excluded_by_default(self, beta_tables):
        _, _, table = beta_tables
        cfg = SelectionConfig(alpha=0.5, beta=0.3333)
        window = stage_window(table, cfg, "NULL")
        assert window.first_by_alpha == 2
        assert window.last_by_beta == 2
        assert window.pool == (2,)

    def test_unconstrained_window_runs_to_last_stage(self):
        table = make_score_table(
            ["A", "B", "NULL"],
            [[40, 30, 0], [60, 50, 10], [80, 70, 20], [100, 100, 30]],
        )
        cfg = SelectionConfig(alpha=0.5)
        window = stage_window(table, cfg, "NULL")
        assert window.first_by_alpha == 2
        assert window.last_by_beta is None
        assert window.last_by_gamma is None
        assert window.pool == (2, 3, 4)

    def test_empty_pool_when_beta_cuts_first(self):
        table = make_score_table(
            ["A", "B", "NULL"], [[40, 0, 60], [100, 40, 60], [100, 100, 100]],
            n=10,
        )
        cfg = SelectionConfig(alpha=0.5, beta=0.3333)
        window = stage_window(table, cfg, "NULL")
        assert window.last_by_beta == 0
        assert window.first_by_alpha == 2
        assert window.pool == ()

    def test_gamma_crossing_stage_stays_usable(self):
        # The runaway stage is the stopping stage, not past it.
        table = make_score_table(
            ["A", "B", "NULL"], [[40, 30, 0], [75, 60, 0], [90, 80, 0]],
        )
        cfg = SelectionConfig(alpha=0.5, gamma=GammaRule(threshold=0.6666))
        window = stage_window(table, cfg, "NULL")
        assert window.last_by_gamma == 2
        assert window.pool == (2,)

    def test_alpha_stage_requires_null_not_above(self):
        # A crosses alpha on stage 2 but NULL scores strictly higher there.
        table = make_score_table(
            ["A", "B", "NULL"], [[30, 20, 40], [55, 30, 60], [80, 75, 60]],
        )
        window = stage_window(table, SelectionConfig(alpha=0.5, beta=0.9), "NULL")
        assert window.first_by_alpha == 3

    def test_missing_null_column(self):
        table = make_score_table(["A", "B"], [[60, 40]])
        with pytest.raises(MissingNullColumnError):
            stage_window(table, SelectionConfig(alpha=0.5), "NULL")


class TestGammaRule:
    """Each case holds ``stage_window``'s gamma bound on a one-stage score
    table (1 where the rule fires, else None) beside the oracle's verdict."""

    @staticmethod
    def _verdicts(rule, scores):
        """(oracle, production) on one stage row whose last column is NULL."""
        names = [f"K{j}" for j in range(len(scores) - 1)] + ["NULL"]
        table = make_score_table(names, [scores])
        window = stage_window(table, SelectionConfig(alpha=0.99, gamma=rule), "NULL")
        return gamma_fires(rule, table.rows[0]), window.last_by_gamma

    def test_any_variant(self):
        rule = GammaRule(threshold=0.8)
        assert self._verdicts(rule, [80.0, 10.0]) == (False, None)  # strict: 80 is not above 80
        assert self._verdicts(rule, [80.1, 10.0]) == (True, 1)

    def test_fraction_variant(self):
        rule = GammaRule(threshold=0.9, fraction=0.5)
        assert self._verdicts(rule, [95.0, 10.0, 10.0, 10.0]) == (False, None)
        assert self._verdicts(rule, [95.0, 95.0, 10.0, 10.0]) == (True, 1)

    def test_fraction_is_the_typed_decimal(self):
        # 0.28 * 25 == 7.000000000000001 in floats; 28% of 25 is exactly 7.
        rule = parse_gamma_spec("frac:0.28:0.5")
        assert self._verdicts(rule, [60.0] * 7 + [10.0] * 18) == (True, 1)
        assert self._verdicts(rule, [60.0] * 6 + [10.0] * 19) == (False, None)

    def test_fraction_of_columns_rounds_up(self):
        # 0.3 of 4 columns is 1.2: the rule needs 2 above the cap, not 1.
        rule = parse_gamma_spec("frac:0.3:0.5")
        assert rule.needed(4) == 2
        assert self._verdicts(rule, [60.0, 10.0, 10.0, 10.0]) == (False, None)
        assert self._verdicts(rule, [60.0, 60.0, 10.0, 10.0]) == (True, 1)

    def test_count_variant(self):
        rule = GammaRule(threshold=0.95, count=2)
        assert self._verdicts(rule, [96.0, 10.0, 10.0]) == (False, None)
        assert self._verdicts(rule, [96.0, 97.0, 10.0]) == (True, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaRule(threshold=1.5)
        with pytest.raises(ValueError):
            GammaRule(threshold=0.9, fraction=0.0)
        with pytest.raises(ValueError):
            GammaRule(threshold=0.9, count=0)
        # Bad field types: the first two once constructed and failed only
        # inside a decision, the third with a TypeError.
        refused = [
            (lambda: GammaRule(threshold=0.5, count=2.5), "gamma count must be an int, got 2.5"),
            (lambda: GammaRule(threshold=0.5, fraction=True),
             "gamma fraction must be a number, got True"),
            (lambda: GammaRule(threshold="0.5"), "gamma threshold must be a number, got '0.5'"),
            (lambda: GammaRule(threshold=True), "gamma threshold must be a number, got True"),
            (lambda: GammaRule(threshold=0.5, count=True), "gamma count must be an int, got True"),
        ]
        for make, message in refused:
            with pytest.raises(ValueError) as caught:
                make()
            assert str(caught.value) == message

    def test_parse_spec(self):
        assert parse_gamma_spec(None) == GammaRule()
        assert parse_gamma_spec("any:0.6666") == GammaRule(threshold=0.6666)
        assert parse_gamma_spec("frac:0.5:0.9") == GammaRule(threshold=0.9, fraction=0.5)
        assert parse_gamma_spec("count:2:0.95") == GammaRule(threshold=0.95, count=2)
        assert parse_gamma_spec(0.8) == GammaRule(threshold=0.8)
        with pytest.raises(ValueError):
            parse_gamma_spec("weird:1:2:3")
        for flag in (True, False):
            with pytest.raises(ValueError, match=rf"^bad gamma spec {flag}; use any:G"):
                parse_gamma_spec(flag)


class TestSelectStage:
    def _window(self, pool):
        return StageWindow(first_by_alpha=pool[0], last_by_beta=None,
                           last_by_gamma=None, end=max(pool),
                           pool=tuple(pool))

    def test_singleton_pool_all_selectors_agree(self):
        window = self._window([2])
        stats = StageStats(entropy=(0.5, 1.0), variance_key=(10, 20))
        for selector in Selector:
            assert select_stage(window, selector, stats) == 2

    def test_min_entropy_direct(self):
        window = self._window([2, 3])
        stats = StageStats(entropy=(None, 1.0, 2.0), variance_key=(0, 1, 4))
        assert select_stage(window, Selector.MIN_ENTROPY, stats) == 2
        assert select_stage(window, Selector.MAX_ENTROPY, stats) == 3
        assert select_stage(window, Selector.MIN_VARIANCE, stats) == 2
        assert select_stage(window, Selector.MAX_VARIANCE, stats) == 3

    def test_exact_ties_pick_earliest(self):
        window = self._window([1, 2, 3])
        stats = StageStats(entropy=(1.0, 1.0, 1.0), variance_key=(2, 2, 2))
        for selector in (Selector.MIN_ENTROPY, Selector.MAX_ENTROPY,
                         Selector.MIN_VARIANCE, Selector.MAX_VARIANCE,
                         Selector.MAX_STDDEV):
            assert select_stage(window, selector, stats) == 1

    def test_empty_pool(self):
        window = StageWindow(first_by_alpha=None, last_by_beta=0,
                             last_by_gamma=None, end=0, pool=())
        stats = StageStats(entropy=(1.0,) * 3, variance_key=(1,) * 3)
        with pytest.raises(EmptyPoolError):
            select_stage(window, Selector.FIRST, stats)

    @given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1,
                    max_size=8))
    def test_max_stddev_equals_max_variance(self, keys):
        pool = tuple(range(1, len(keys) + 1))
        window = self._window(list(pool))
        stats = StageStats(entropy=(1.0,) * len(keys), variance_key=tuple(keys))
        assert (select_stage(window, Selector.MAX_STDDEV, stats)
                == select_stage(window, Selector.MAX_VARIANCE, stats))

    # Desk study, seed 5, election 101: the count table (D = 1, 100 voters).
    # Stages 5 and 6 have exactly equal variances, which read as the floats
    # 114.61157024793391 and 114.61157024793388.
    SEED5_ELECTION101 = (
        ("c401", "c120", "c421", "c142", "c92", "c318", "c489", "c842", "c193", "c673",
         "NULL"),
        [[17, 9, 5, 9, 7, 16, 3, 13, 12, 9, 0], [13, 15, 2, 5, 10, 12, 5, 10, 13, 15, 0],
         [12, 10, 6, 9, 14, 3, 13, 7, 10, 14, 2], [18, 8, 9, 11, 6, 6, 9, 4, 8, 10, 11],
         [5, 11, 5, 9, 11, 11, 5, 8, 4, 11, 20], [12, 11, 8, 3, 4, 5, 9, 12, 8, 5, 23],
         [4, 3, 8, 7, 10, 8, 10, 7, 9, 11, 23], [6, 4, 11, 11, 13, 11, 8, 8, 7, 9, 12],
         [9, 12, 15, 12, 8, 8, 5, 8, 10, 5, 8], [3, 8, 7, 13, 10, 13, 16, 12, 13, 4, 1]],
    )

    @pytest.mark.parametrize("gamma", [None, 0.66, 0.8])
    def test_exact_variance_tie_picks_the_earliest_stage(self, gamma):
        ids, counts = self.SEED5_ELECTION101
        table = score(cumulate(StageTable(TableKind.COUNTS, ids,
                                          tuple(map(tuple, counts)), 1, 100)))
        assert population_variance(table.floats[4]) != population_variance(table.floats[5])
        assert table.stats.variance_key[4] == table.stats.variance_key[5]
        cfg = SelectionConfig(alpha=0.5, gamma=parse_gamma_spec(gamma),
                              selector=Selector.MIN_VARIANCE)
        decision = beta_gamma_winner(table, cfg, "NULL")
        assert decision.window.pool == (4, 5, 6)
        assert (decision.winner, decision.stage, decision.diagnostics) == ("c401", 5, {})

    @given(st.lists(st.lists(st.integers(0, 100), min_size=3, max_size=3),
                    min_size=1, max_size=6), st.integers(1, 7))
    @example([[0, 3, 3], [1, 1, 4]], 1)
    @example([[1, 1, 4], [0, 3, 3], [2, 2, 2]], 3)
    def test_variance_selectors_match_a_fraction_oracle(self, rows, n):
        table = table_from_rows(TableKind.SCORES, ("A", "B", "C"),
                                [[Fraction(v, n) for v in row] for row in rows], n)
        pool = tuple(range(1, len(rows) + 1))
        exact = [population_variance(row) for row in table.rows]
        lowest = min(pool, key=lambda i: (exact[i - 1], i))
        highest = min(pool, key=lambda i: (-exact[i - 1], i))
        window = self._window(list(pool))
        assert select_stage(window, Selector.MIN_VARIANCE, table.stats) == lowest
        assert select_stage(window, Selector.MAX_VARIANCE, table.stats) == highest
        assert select_stage(window, Selector.MAX_STDDEV, table.stats) == highest


class TestBetaGammaWinner:
    def test_discontent_profile_every_selector(self, beta_tables):
        _, _, table = beta_tables
        for selector in Selector:
            cfg = SelectionConfig(alpha=0.5, beta=0.3333, selector=selector)
            decision = beta_gamma_winner(table, cfg, "NULL")
            assert decision.winner == "A"
            assert decision.stage == 2
            assert decision.score == 65

    def test_alpha_stop_null_strictly_best_walks_back(self):
        table = make_score_table(
            ["A", "B", "C", "D", "NULL"],
            [[25, 25, 25, 25, 0], [65, 55, 40, 40, 0], [70, 60, 55, 55, 80]],
        )
        cfg = SelectionConfig(alpha=0.5, selector=Selector.LAST)
        decision = beta_gamma_winner(table, cfg, "NULL")
        assert decision.winner == "A"
        assert decision.stage == 2
        assert decision.score == 65
        assert decision.diagnostics["walked_back_from"] == 3

    def test_alpha_stop_null_not_best_decides_at_stop(self):
        table = make_score_table(
            ["A", "B", "C", "D", "NULL"],
            [[25, 25, 25, 25, 0], [65, 55, 40, 40, 0], [85, 60, 55, 55, 80]],
        )
        cfg = SelectionConfig(alpha=0.5, selector=Selector.LAST)
        decision = beta_gamma_winner(table, cfg, "NULL")
        assert decision.winner == "A"
        assert decision.stage == 3
        assert decision.score == 85

    def test_empty_window_elects_null(self):
        table = make_score_table(
            ["A", "B", "NULL"], [[40, 0, 60], [100, 40, 60], [100, 100, 100]],
            n=10,
        )
        cfg = SelectionConfig(alpha=0.5, beta=0.3333)
        decision = beta_gamma_winner(table, cfg, "NULL")
        assert decision.winner == "NULL"
        assert decision.stage is None
        assert decision.score is None
        assert decision.window.pool == ()

    def test_missing_null_column(self):
        table = make_score_table(["A", "B"], [[60, 40]])
        with pytest.raises(MissingNullColumnError):
            beta_gamma_winner(table, SelectionConfig(alpha=0.5), "NULL")

    def test_report_fields(self, beta_tables):
        _, _, table = beta_tables
        cfg = SelectionConfig(alpha=0.5, beta=0.3333)
        decision = beta_gamma_winner(table, cfg, "NULL")
        report = betagamma_report(decision, cfg, "NULL")
        assert report["winner"] == "A"
        assert report["firstStageByAlpha"] == 2
        assert report["lastStageByBeta"] == 2
        assert report["lastStageByGamma"] is None
        assert report["bestScoreStage"] == 2
        assert report["bestScoreByAlpha"] == 65.0
        assert report["alpha"] == 0.5
        assert report["beta"] == 0.3333


def _window_oracle(table, cfg, null_id):
    """Independent per-stage predicate scan (no early exits), on the exact
    ``Fraction`` cells against 100 times each threshold as typed."""
    rows = table.rows
    nj = table.candidates.index(null_id)
    stages = range(1, table.num_stages + 1)
    bar_a = _typed_bar(cfg.alpha)

    alpha_ok = [
        i for i in stages
        if any(v > bar_a and rows[i - 1][nj] <= v
               for j, v in enumerate(rows[i - 1]) if j != nj)
    ]
    first = min(alpha_ok) if alpha_ok else None

    if cfg.beta is not None:
        crossed = [i for i in stages if rows[i - 1][nj] > _typed_bar(cfg.beta)]
        last_b = min(crossed) - 1 if crossed else None
    else:
        crossed = [i for i in stages if rows[i - 1][nj] > bar_a]
        last_b = min(crossed) if crossed else None

    if cfg.gamma.threshold is not None:
        fired = [i for i in stages if gamma_fires(cfg.gamma, rows[i - 1])]
        last_g = min(fired) if fired else None
    else:
        last_g = None

    bounds = [b for b in (last_b, last_g) if b is not None]
    end = min(bounds + [table.num_stages])
    if first is None or first > end:
        pool = ()
    else:
        pool = tuple(range(first, end + 1))
    return first, last_b, last_g, pool


def _random_table(rng, k=None, stages=None, n=None):
    k = k or rng.randint(2, 5)
    names = tuple([f"K{i}" for i in range(k - 1)] + ["NULL"])
    roster = CandidateRoster(names, null_id="NULL")
    num_prefs = stages or rng.randint(1, k)
    n = n or rng.randint(1, 12)
    ballots = []
    for i in range(n):
        length = rng.randint(0, num_prefs)
        prefs = tuple(rng.sample(names, length))
        ballots.append(Ballot(f"v{i}", prefs))
    _, _, table = pipeline(roster, ballots, num_prefs)
    return table


def test_window_matches_brute_force_scan():
    rng = random.Random(20210905)
    selectors = list(Selector)
    for trial in range(300):
        table = _random_table(rng)
        cfg = SelectionConfig(
            alpha=rng.choice([0.2, 0.5, 0.66, 0.8]),
            beta=rng.choice([None, 0.2, 0.33, 0.6]),
            gamma=rng.choice([GammaRule(), GammaRule(threshold=0.66),
                              GammaRule(threshold=0.8, fraction=0.5),
                              GammaRule(threshold=0.7, count=2)]),
            selector=rng.choice(selectors),
        )
        window = stage_window(table, cfg, "NULL")
        expected = _window_oracle(table, cfg, "NULL")
        assert (window.first_by_alpha, window.last_by_beta,
                window.last_by_gamma, window.pool) == expected
        bounds = [b for b in expected[1:3] if b is not None]
        assert window.end == min(bounds + [table.num_stages])


def _typed_bar(x):
    """100 times the threshold as the decimal it was typed as, exactly."""
    return 100 * Fraction(str(x))


def _scan_decision(table, cfg, null_id):
    """Linear-scan oracle on the exact ``Fraction`` cells: one predicate per
    stage, no profile. Returns (window, winner, stage, score, diagnostics)."""
    rows, ranking = table.rows, table.ranking
    nj = table.candidates.index(null_id)
    stages = range(1, table.num_stages + 1)

    def first_stage(predicate):
        return next((i for i in stages if predicate(rows[i - 1])), None)

    def top_real(stage):
        return next(j for j in ranking[stage - 1] if j != nj)

    def qualifies(stage):
        row = rows[stage - 1]
        top = row[top_real(stage)]
        return top > _typed_bar(cfg.alpha) and row[nj] <= top

    def fires(row):
        g = cfg.gamma
        if g.threshold is None:
            return False
        exceeding = sum(1 for v in row if v > _typed_bar(g.threshold))
        if g.count is not None:
            return exceeding >= g.count
        if g.fraction is not None:
            return exceeding >= Fraction(str(g.fraction)) * len(row)
        return exceeding >= 1

    first = next((i for i in stages if qualifies(i)), None)
    if cfg.beta is not None:
        crossing = first_stage(lambda row: row[nj] > _typed_bar(cfg.beta))
        last_b = None if crossing is None else crossing - 1
    else:
        last_b = first_stage(lambda row: row[nj] > _typed_bar(cfg.alpha))
    last_g = first_stage(fires)
    end = min(b for b in (last_b, last_g, table.num_stages) if b is not None)
    pool = () if first is None else tuple(range(first, end + 1))
    window = StageWindow(first_by_alpha=first, last_by_beta=last_b, last_by_gamma=last_g,
                         end=end, pool=pool)
    if not pool:
        return window, null_id, None, None, {}
    chosen = select_stage(window, cfg.selector, table.stats)
    stage = next(s for s in range(chosen, first - 1, -1) if qualifies(s))
    best = top_real(stage)
    return (window, table.candidates[best], stage, table.row(stage)[best],
            {} if stage == chosen else {"walked_back_from": chosen})


# Few distinct values, some exactly on a bar, so scores tie often; the last
# four sit 1e-15 above a bar, where the nearest double is the bar itself.
_SUB_ULP = Fraction(1, 10**15)
_SCORES = [0, 10, 25, 28, 33, 34, 50, 51, 55, 56, 60, 66, 67, 80, 81, 100,
           33 + _SUB_ULP, 50 + _SUB_ULP, 66 + _SUB_ULP, 80 + _SUB_ULP]
_THRESHOLDS = [0.2, 0.28, 0.33, 0.3333, 0.5, 0.55, 0.66, 0.8]


@st.composite
def _tables_and_configs(draw):
    k = draw(st.integers(min_value=2, max_value=12))
    names = [f"K{i}" for i in range(k - 1)]
    names.insert(draw(st.integers(min_value=0, max_value=k - 1)), "NULL")
    stages = draw(st.integers(min_value=1, max_value=8))
    rows = [[draw(st.sampled_from(_SCORES)) for _ in range(k)] for _ in range(stages)]
    threshold = st.sampled_from(_THRESHOLDS)
    gamma = st.one_of(
        st.just(GammaRule()),
        st.builds(GammaRule, threshold=threshold),
        st.builds(GammaRule, threshold=threshold,
                  count=st.integers(min_value=1, max_value=k + 2)),
        st.builds(GammaRule, threshold=threshold,
                  fraction=st.sampled_from([0.1, 0.28, 0.5, 2 / 3, 1.0])))
    configs = st.builds(SelectionConfig, alpha=threshold,
                        beta=st.one_of(st.none(), threshold), gamma=gamma,
                        selector=st.sampled_from(list(Selector)))
    return (make_score_table(names, rows),
            draw(st.lists(configs, min_size=1, max_size=4)))


def _outcome(decide, *args):
    try:
        return decide(*args)
    except SelectionError as exc:  # entropy selector on an empty row
        return type(exc), str(exc)


def _profiled_decision(table, cfg, null_id):
    d = beta_gamma_winner(table, cfg, null_id)
    assert d.window == stage_window(table, cfg, null_id)
    return d.window, d.winner, d.stage, d.score, d.diagnostics


# 0.28 of 25 columns is exactly 7: seven scores above the cap fire the rule.
_TWENTY_FIVE = make_score_table(
    [f"K{i}" for i in range(24)] + ["NULL"],
    [[70] * 6 + [0] * 19, [70] * 7 + [0] * 18, [70] * 8 + [0] * 17])


@given(_tables_and_configs())
@example((_TWENTY_FIVE, [SelectionConfig(alpha=0.5, gamma=GammaRule(threshold=0.6, fraction=0.28),
                                         selector=Selector.LAST)]))
@settings(max_examples=300, deadline=None)
def test_window_and_decision_match_linear_scan(table_and_configs):
    table, configs = table_and_configs
    for cfg in configs:  # several configs on one table share its profile
        assert _outcome(_profiled_decision, table, cfg, "NULL") == \
            _outcome(_scan_decision, table, cfg, "NULL")
    if table is _TWENTY_FIVE:
        assert stage_window(table, configs[0], "NULL").last_by_gamma == 2


@st.composite
def _grids(draw):
    """Names and rows of a score table, and configs over at most four
    windows, so windows and (pool, selector) pairs repeat. Now and then
    NULL is missing, or the table has no stage or no real candidate; half
    the tables have every column nondecreasing, as cumulative scores are."""
    k = draw(st.integers(min_value=2, max_value=6))
    stages = draw(st.integers(min_value=1, max_value=6))
    odd = draw(st.integers(min_value=0, max_value=11))
    k, stages = (1 if odd == 1 else k), (0 if odd == 2 else stages)
    names = [f"K{i}" for i in range(k)]
    if odd != 3:
        names[draw(st.integers(min_value=0, max_value=k - 1))] = "NULL"
    rows = [[draw(st.sampled_from(_SCORES)) for _ in range(k)] for _ in range(stages)]
    if draw(st.booleans()):
        rows = [list(row) for row in zip(*map(sorted, zip(*rows)))]
    threshold = st.sampled_from(_THRESHOLDS)
    gamma = st.one_of(
        st.just(GammaRule()),
        st.builds(GammaRule, threshold=threshold),
        st.builds(GammaRule, threshold=threshold,
                  count=st.integers(min_value=1, max_value=k + 2)),
        st.builds(GammaRule, threshold=threshold,
                  fraction=st.sampled_from([0.1, 0.28, 0.5, 2 / 3, 1.0])))
    # Two values at most per parameter, so windows share alphas, betas and gammas.
    alphas, betas, gammas = (
        draw(st.lists(values, min_size=1, max_size=2))
        for values in (st.sampled_from([0.0, *_THRESHOLDS, 1.0]),
                       st.one_of(st.none(), threshold), gamma))
    windows = draw(st.lists(st.tuples(st.sampled_from(alphas), st.sampled_from(betas),
                                      st.sampled_from(gammas)), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.sampled_from(windows), st.sampled_from(list(Selector))),
                          min_size=1, max_size=24))
    return names, rows, [SelectionConfig(a, b, g, s) for (a, b, g), s in picks]


def _grid_configs(*specs):
    return [SelectionConfig(alpha, beta, parse_gamma_spec(gamma), Selector(selector))
            for alpha, beta, gamma, selector in specs]


@given(_grids())
# NULL is column 0: LAST walks back from stage 3 to 1. Alpha 0.8 elects NULL:
# NULL passes it at stage 3, before stage 4 first qualifies.
@example((["NULL", "A", "B"], [[10, 60, 60], [40, 50, 35], [90, 85, 40], [96, 100, 100]],
          _grid_configs((0.5, 0.95, None, "Last"), (0.5, 0.95, None, "First"),
                        (0.5, 0.95, None, "Last"), (0.8, None, None, "Last"),
                        (0.5, 0.95, None, "MaxVariance"), (0.8, None, None, "First"))))
# One pool, two alpha bars: NULL vetoes stage 3, and the walk-back stops
# at stage 2 (B, 60) for alpha 0.5 but at stage 1 (A, 70) for alpha 0.66.
@example((["NULL", "A", "B"], [[0, 70, 10], [0, 20, 60], [90, 85, 40]],
          _grid_configs((0.5, 0.95, None, "Last"), (0.66, 0.95, None, "Last"))))
# One first stage, two ends: the gamma cap closes the second pool at stage 1.
@example((["A", "B", "NULL"], [[60, 0, 0], [0, 70, 0], [0, 80, 0]],
          _grid_configs((0.5, None, None, "Last"), (0.5, None, "any:0.55", "Last"))))
# An empty pool elects NULL; MinEntropy then meets stage 3's empty row.
@example((["A", "B", "NULL"], [[0, 0, 0], [60, 20, 20], [0, 0, 0]],
          _grid_configs((0.8, None, None, "First"), (0.5, None, None, "First"),
                        (0.5, None, None, "MinEntropy"))))
@settings(max_examples=300, deadline=None)
def test_grid_winners_match_each_decision(grid):
    names, rows, configs = grid
    try:  # each config on a table of its own, so no decision is shared
        expected = [beta_gamma_winner(make_score_table(names, rows), cfg, "NULL").winner
                    for cfg in configs]
    except Exception as exc:
        with pytest.raises(Exception) as caught:
            grid_winners(make_score_table(names, rows), configs, "NULL")
        assert type(caught.value) is type(exc)
    else:
        table = make_score_table(names, rows)
        assert grid_winners(table, configs, "NULL") == expected
        # Again, now from the scans and stages the first call decided.
        assert grid_winners(table, configs, "NULL") == expected


def test_null_veto_walks_back_past_vetoed_stages():
    # NULL is column 0. Stage 2's top real score sits exactly on alpha and
    # NULL beats stage 3's; beta cuts after stage 3, LAST picks stage 3 and
    # the veto walks back to stage 1, where A and B tie and A ranks first.
    table = make_score_table(["NULL", "A", "B"],
                             [[10, 60, 60], [40, 50, 35], [90, 85, 40], [96, 100, 100]])
    cfg = SelectionConfig(alpha=0.5, beta=0.95, selector=Selector.LAST)
    decision = beta_gamma_winner(table, cfg, "NULL")
    assert decision.window.pool == (1, 2, 3)
    assert (decision.winner, decision.stage, decision.score) == ("A", 1, 60)
    assert decision.diagnostics == {"walked_back_from": 3}


def test_decision_holds_no_report_values():
    rng = random.Random(8086)
    seen = set()
    for trial in range(200):
        table = _random_table(rng)
        cfg = SelectionConfig(
            alpha=rng.choice([0.3, 0.5, 0.66]),
            beta=rng.choice([None, 0.33]),
            gamma=rng.choice([GammaRule(), GammaRule(threshold=0.8)]),
            selector=rng.choice([Selector.FIRST, Selector.LAST]),
        )
        diagnostics = beta_gamma_winner(table, cfg, "NULL").diagnostics
        assert set(diagnostics) <= {"walked_back_from"}
        seen.add(bool(diagnostics))
    assert seen == {False, True}


def _best_real_oracle(table, stage):
    """Top real score at ``stage`` and its candidate, ties in column order."""
    if stage is None or not 1 <= stage <= table.num_stages:
        return None, None
    row = dict(zip(table.candidates, table.floats[stage - 1]))
    top = max(v for c, v in row.items() if c != "NULL")
    return next(c for c in table.column_order if c != "NULL" and row[c] == top), top


class TestRanking:
    def test_each_stage_is_an_independent_sort(self):
        rng = random.Random(6061)
        for trial in range(300):
            table = _random_table(rng)
            for i, row in enumerate(table.rows):
                expected = sorted(range(len(row)), key=lambda j: (
                    -row[j], table.column_order.index(table.candidates[j])))
                assert list(table.ranking[i]) == expected, (trial, i)

    def test_first_real_entry_is_the_best_real_candidate(self):
        rng = random.Random(7177)
        for trial in range(300):
            table = _random_table(rng)
            for stage, order in enumerate(table.ranking, start=1):
                j = next(j for j in order if table.candidates[j] != "NULL")
                assert (table.candidates[j], table.floats[stage - 1][j]) == \
                    _best_real_oracle(table, stage), (trial, stage)


class TestTypedThresholds:
    """A bar is 100 times the decimal as typed, for every whole percent:
    exactly a% never crosses it and anything above a% does."""

    @staticmethod
    def _crossings(typed, score):
        table = make_score_table(["A", "NULL"], [[score, score]])
        alpha = stage_window(table, SelectionConfig(alpha=typed), "NULL")
        beta = stage_window(table, SelectionConfig(alpha=0.99, beta=typed), "NULL")
        gamma = stage_window(table, SelectionConfig(
            alpha=0.99, gamma=GammaRule(threshold=typed)), "NULL")
        return {
            "basic": not basic_winner(table, typed).diagnostics["fallback"],
            "alpha": alpha.first_by_alpha == 1,
            "beta": beta.last_by_beta == 0,
            "gamma": gamma.last_by_gamma == 1,
            "fires": gamma_fires(GammaRule(threshold=typed), table.rows[0]),
        }

    def test_whole_percent_bars(self):
        # a / 100 is the float whose str() is the decimal "0.a" as typed.
        exactly = {a: self._crossings(a / 100, Fraction(a)) for a in range(1, 100)}
        above = {a: self._crossings(a / 100, Fraction(10 * a + 1, 10))
                 for a in range(1, 100)}
        assert {a: c for a, c in exactly.items() if any(c.values())} == {}
        assert {a: c for a, c in above.items() if not all(c.values())} == {}

    def test_bar_between_numerators(self):
        # Over D = 3, the 0.3333 bar is 99.99: a third (100 / 3) crosses it.
        assert all(self._crossings(0.3333, Fraction(100, 3)).values())
        assert not any(self._crossings(0.3334, Fraction(100, 3)).values())

    def test_fifty_seven_of_a_hundred_voters(self):
        roster = CandidateRoster(("A", "B", "NULL"), null_id="NULL")
        ballots = ([Ballot(f"a{i}", ("A", "B")) for i in range(57)]
                   + [Ballot(f"b{i}", ("B", "A")) for i in range(43)])
        _, _, table = pipeline(roster, ballots, 2)
        assert table.row(1) == (57, 43, 0)
        basic = basic_winner(table, 0.57)
        assert (basic.winner, basic.stage) == ("A", 2)
        window = stage_window(table, SelectionConfig(
            alpha=0.57, gamma=parse_gamma_spec("any:0.57")), "NULL")
        assert (window.first_by_alpha, window.last_by_gamma) == (2, 2)


class TestSubUlpCells:
    """A cell 1e-15 above the typed bar crosses it, although the nearest
    double of the cell is the bar itself."""

    def test_basic_rule_crosses_at_stage_one(self):
        table = make_score_table(["A", "B", "NULL"],
                                 [[50 + _SUB_ULP, 40, 0], [70, 60, 0]])
        assert float(table.rows[0][0]) == 50.0
        decision = basic_winner(table, 0.5)
        assert (decision.winner, decision.stage, decision.score) == ("A", 1, 50 + _SUB_ULP)
        assert decision.diagnostics["fallback"] is False

    def test_windowed_alpha_opens_at_stage_one(self):
        table = make_score_table(["A", "B", "NULL"], [[50 + _SUB_ULP, 40, 0]])
        window = stage_window(table, SelectionConfig(alpha=0.5), "NULL")
        assert (window.first_by_alpha, window.pool) == (1, (1,))

    def test_beta_cuts_before_stage_one(self):
        table = make_score_table(["A", "B", "NULL"],
                                 [[40, 27, 33 + _SUB_ULP], [60, 30, 40]])
        window = stage_window(table, SelectionConfig(alpha=0.5, beta=0.33), "NULL")
        assert (window.last_by_beta, window.pool) == (0, ())

    def test_gamma_cap_fires_at_stage_one(self):
        table = make_score_table(["A", "B", "NULL"],
                                 [[66 + _SUB_ULP, 30, 4], [70, 30, 0]])
        window = stage_window(table, SelectionConfig(
            alpha=0.5, gamma=parse_gamma_spec("any:0.66")), "NULL")
        assert (window.last_by_gamma, window.pool) == (1, (1,))
        assert gamma_fires(GammaRule(threshold=0.66), table.rows[0])

    def test_higher_cell_leads_although_the_doubles_tie(self):
        # A leads the column order, but B is 1e-15 ahead at stage 1.
        table = make_score_table(["A", "B", "NULL"],
                                 [[50, 50 + _SUB_ULP, 0], [90, 60, 0]])
        assert table.column_order[0] == "A"
        assert basic_winner(table, 0.4).winner == "B"
        assert beta_gamma_winner(table, SelectionConfig(alpha=0.4), "NULL").winner == "B"


def test_report_best_fields_match_oracle():
    rng = random.Random(4242)
    grid = sim.default_algorithm_grid()
    for trial in range(30):
        table = _random_table(rng)
        for cfg in grid:
            try:
                decision = beta_gamma_winner(table, cfg, "NULL")
            except SelectionError:  # entropy selector on an empty row
                continue
            report = betagamma_report(decision, cfg, "NULL")
            first, last_b, last_g, _ = _window_oracle(table, cfg, "NULL")
            end = min(b for b in (last_b, last_g, table.num_stages) if b is not None)
            expected = (*_best_real_oracle(table, end),
                        _best_real_oracle(table, first)[1],
                        _best_real_oracle(table, last_b)[1],
                        _best_real_oracle(table, last_g)[1])
            assert (report["bestCandidate"], report["bestScore"],
                    report["bestScoreByAlpha"], report["bestScoreByBeta"],
                    report["bestScoreByGamma"]) == expected, (trial, cfg)


def test_winner_threshold_soundness():
    rng = random.Random(994422)
    for trial in range(300):
        table = _random_table(rng)
        cfg = SelectionConfig(
            alpha=rng.choice([0.3, 0.5, 0.66]),
            beta=rng.choice([None, 0.33, 0.7]),
            gamma=rng.choice([GammaRule(), GammaRule(threshold=0.8)]),
            selector=rng.choice(list(Selector)),
        )
        decision = beta_gamma_winner(table, cfg, "NULL")
        if decision.winner == "NULL" and decision.stage is None:
            assert decision.window.pool == ()
            continue
        assert decision.stage in decision.window.pool
        assert decision.score > _typed_bar(cfg.alpha)


def test_scale_invariance():
    rng = random.Random(7)
    roster = CandidateRoster(("A", "B", "C", "NULL"), null_id="NULL")
    for trial in range(40):
        ballots = []
        for i in range(rng.randint(1, 8)):
            length = rng.randint(0, 3)
            ballots.append(Ballot(f"v{i}", tuple(rng.sample(roster.candidates, length))))
        cfg = SelectionConfig(alpha=0.5, beta=rng.choice([None, 0.33]),
                              selector=rng.choice(list(Selector)))
        _, _, small = pipeline(roster, ballots, 3)
        _, _, big = pipeline(roster, ballots * 5, 3)
        d1 = beta_gamma_winner(small, cfg, "NULL")
        d2 = beta_gamma_winner(big, cfg, "NULL")
        assert (d1.winner, d1.stage, d1.score) == (d2.winner, d2.stage, d2.score)


def test_basic_equals_windowed_first_when_null_not_strict_max():
    rng = random.Random(31337)
    cfg = SelectionConfig(alpha=0.5, selector=Selector.FIRST)
    checked = 0
    for trial in range(400):
        table = _random_table(rng)
        basic = basic_winner(table, 0.5)
        if basic.diagnostics["fallback"]:
            continue
        row = table.floats[basic.stage - 1]
        nj = table.candidates.index("NULL")
        top = max(row)
        if row[nj] == top:  # NULL tied or strict max: semantics diverge
            continue
        windowed = beta_gamma_winner(table, cfg, "NULL")
        assert (windowed.winner, windowed.stage) == (basic.winner, basic.stage)
        checked += 1
    assert checked > 50


def _two_default_grid_elections() -> list:
    """The default grid's results on two 5-candidate slates of one crowd."""
    cfg = sim.SimConfig(num_candidates=5, num_voters=12, num_elections=2,
                        column_blindness=5, quality_mean=1500.0,
                        quality_sd=300.0, seed=3, dataset_size=300)
    ds = sim.generate_dataset(3, num_candidates=300)
    crowd = sim.build_crowd(cfg, ds, np.random.default_rng(3))
    predictions = np.stack([v.predictions for v in crowd])
    y_test = ds.y[ds.test_idx]
    return [sim.run_election(predictions, 0, slate, y_test[slate], ds.null_y,
                             sim.default_algorithm_grid(), num_prefs=5,
                             include_baselines=False)
            for slate in (np.arange(5), np.arange(5, 10))]


class TestPerTableCache:
    """Decisions share one table's float rows, stats and tie order."""

    def test_default_grid_builds_stats_and_order_once_per_table(self, table_builds):
        for results in _two_default_grid_elections():
            assert len(results) == len(sim.default_algorithm_grid()) == 126
        assert table_builds == {"compute_stage_stats": 2, "sort_columns": 2}

    def test_election_asks_for_no_window_twice(self, window_requests):
        # No window repeats on a table, so a window memo would never hit.
        _two_default_grid_elections()
        assert len({key[0] for key in window_requests}) == 2
        assert len(window_requests) == 2 * 18
        assert set(window_requests.values()) == {1}

    def test_decisions_build_no_fraction_rows(self, beta_tables):
        _, _, table = beta_tables
        assert "rows" not in vars(table)
        for cfg in sim.default_algorithm_grid():
            beta_gamma_winner(table, cfg, "NULL")
        basic_winner(table, 0.5)
        assert "rows" not in vars(table)

    def test_ranking_built_once_per_table(self, beta_tables, monkeypatch):
        builds = []
        real = StageTable.ranking.func

        def counted(table):
            builds.append(table)
            return real(table)
        ranking = cached_property(counted)
        ranking.__set_name__(StageTable, "ranking")
        monkeypatch.setattr(StageTable, "ranking", ranking)
        _, _, table = beta_tables
        for cfg in sim.default_algorithm_grid():
            betagamma_report(beta_gamma_winner(table, cfg, "NULL"), cfg, "NULL")
        basic_winner(table, 0.5)
        assert builds == [table]

    def test_grid_decides_each_distinct_window_once(self, beta_tables, monkeypatch):
        decided = []
        real = select._Crossings.window

        def counted(profile, cfg):
            decided.append((cfg.alpha, cfg.beta, cfg.gamma))
            return real(profile, cfg)
        monkeypatch.setattr(select._Crossings, "window", counted)
        _, _, table = beta_tables
        grid = sim.default_algorithm_grid()
        grid_winners(table, grid, "NULL")
        assert len(decided) == len(set(decided)) == 18
        assert all(stage_window(table, cfg, "NULL")
                   == beta_gamma_winner(table, cfg, "NULL").window for cfg in grid)

    def test_mutating_float_rows_leaves_decisions_alone(self, beta_tables):
        _, _, table = beta_tables
        cfg = SelectionConfig(alpha=0.5, beta=0.3333,
                              gamma=GammaRule(threshold=0.6666),
                              selector=Selector.LAST)
        before = beta_gamma_winner(table, cfg, "NULL")
        rows = table.to_json_dict()[table.kind.json_key]
        for row in rows:
            row[:] = [0.0] * len(row)
            row[-1] = 100.0
        fresh = table_from_rows(table.kind, table.candidates, table.rows, table.n)
        assert table.floats == fresh.floats
        assert beta_gamma_winner(table, cfg, "NULL") == before
        assert basic_winner(table, 0.5) == basic_winner(fresh, 0.5)

    def test_shared_table_decides_like_a_fresh_one(self):
        rng = random.Random(5150)
        grid = sim.default_algorithm_grid()

        def decide(table, cfg):
            try:
                d = beta_gamma_winner(table, cfg, "NULL")
            except SelectionError as exc:  # entropy selector on an empty row
                return type(exc), str(exc)
            return d.winner, d.stage, d.score, d.window, d.diagnostics

        for trial in range(30):
            shared = _random_table(rng)
            for cfg in reversed(grid):
                decide(shared, cfg)
            for cfg in grid:
                fresh = table_from_rows(shared.kind, shared.candidates,
                                        shared.rows, shared.n)
                assert decide(shared, cfg) == decide(fresh, cfg), (trial, cfg)


class TestMinStages:
    def test_worked_example(self):
        assert min_stages(100, 5, 0.5) == 3

    def test_tiny_alpha(self):
        assert min_stages(10, 2, 0.01) == 1

    def test_two_thirds_of_twenty(self):
        # smallest x with x > 13.2
        assert min_stages(1, 20, 0.66) == 14

    def test_exact_product_needs_next_integer(self):
        assert min_stages(50, 4, 0.5) == 3  # x > 2.0

    def test_fraction_alpha_is_exact(self):
        assert min_stages(100, 100, Fraction("0.29")) == 30
        assert min_stages(100, 100, Fraction("0.57")) == 58

    def test_validation(self):
        with pytest.raises(ValueError):
            min_stages(10, 0, 0.5)
        with pytest.raises(ValueError):
            min_stages(10, 5, 0.0)
        with pytest.raises(ValueError):
            min_stages(10, 5, 1.0)

    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=1e-9, max_value=1 - 1e-9))
    @settings(max_examples=300)
    def test_least_integer_property(self, k, alpha):
        x = min_stages(1, k, alpha)
        assert x > alpha * k
        assert x - 1 <= alpha * k


class TestParsing:
    def test_parse_selector_aliases(self):
        assert parse_selector("min-entropy") is Selector.MIN_ENTROPY
        assert parse_selector("MaxStDev") is Selector.MAX_STDDEV
        assert parse_selector("first") is Selector.FIRST
        with pytest.raises(ValueError):
            parse_selector("median")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SelectionConfig(alpha=1.5)
        with pytest.raises(ValueError):
            SelectionConfig(alpha=0.5, beta=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": True}, {"alpha": "0.5"}, {"alpha": None},
        {"alpha": 0.5, "beta": True}, {"alpha": 0.5, "beta": "0.33"}])
    def test_config_refuses_non_numbers(self, kwargs):
        # alpha=True once decided as alpha 1.0; "0.5" raised TypeError.
        name, value = list(kwargs.items())[-1]
        with pytest.raises(ValueError, match=rf"^{name} must be a number, got {value!r}$"):
            SelectionConfig(**kwargs)

    def test_labels(self):
        cfg = SelectionConfig(alpha=0.5, beta=0.33,
                              gamma=GammaRule(threshold=0.66),
                              selector=Selector.MIN_ENTROPY)
        assert cfg.label() == "<α=0.50, β=0.33, γ=0.66, MinEntropy>"
        assert SelectionConfig(alpha=0.8).label() == "<α=0.80, β=____, γ=____, First>"

    def test_labels_keep_thresholds_past_two_decimals(self):
        assert SelectionConfig(alpha=0.504, beta=0.3333).label() == \
            "<α=0.504, β=0.3333, γ=____, First>"
        assert GammaRule(threshold=0.555).label() == "0.555"
        assert GammaRule(threshold=0.56).label() == "0.56"
        assert GammaRule(threshold=0.125, count=2).label() == "0.125@n2"
        assert GammaRule(threshold=0.5, fraction=0.1234567).label() == "0.50@f0.1234567"
        # Every Real threshold labels as the float equal to it, or exactly.
        assert SelectionConfig(alpha=Fraction(1, 2)).label() == \
            SelectionConfig(alpha=0.5).label() == "<α=0.50, β=____, γ=____, First>"
        assert GammaRule(threshold=0.66, fraction=Fraction(1, 2)).label() == "0.66@f0.5"
        assert SelectionConfig(alpha=np.float64(0.504), beta=np.float64(0.5)).label() == \
            "<α=0.504, β=0.50, γ=____, First>"
        assert SelectionConfig(alpha=Fraction(2, 3)).label() == "<α=2/3, β=____, γ=____, First>"
        assert SelectionConfig(alpha=2 / 3).label() == \
            "<α=0.6666666666666666, β=____, γ=____, First>"
        assert GammaRule(threshold=Fraction(2, 3), fraction=Fraction(1, 3)).label() == "2/3@f1/3"


@st.composite
def _majority_elections(draw):
    """A roster of one to four real candidates plus NULL, complete ballots
    (every candidate ranked, NULL included, no IDK) of which a strict
    majority rank one real candidate first, and a num_prefs to cut at."""
    real = ("A", "B", "C", "D")[:draw(st.integers(1, 4))]
    roster = CandidateRoster(real + ("NULL",), null_id="NULL")
    leader = draw(st.sampled_from(real))
    rest = [c for c in roster.candidates if c != leader]
    others = draw(st.lists(st.permutations(roster.candidates), max_size=7))
    led = draw(st.lists(st.permutations(rest), min_size=len(others) + 1,
                        max_size=len(others) + 8))
    ballots = [Ballot(f"v{i}", tuple(prefs))
               for i, prefs in enumerate([(leader, *p) for p in led] + others)]
    return roster, leader, ballots, draw(st.integers(1, roster.k))


@given(_majority_elections())
@settings(max_examples=200, deadline=None)
def test_a_first_stamp_majority_wins_at_stage_one(election):
    """README's basic rule elects the top scorer at the earliest stage where
    some score strictly exceeds alpha; a strict majority of first stamps
    scores above 50% at stage 1, so at alpha 0.5 it wins there, with no
    fallback. The windowed rule with beta and gamma unset keeps every stage
    up to the first where NULL exceeds alpha, and NULL, below the majority,
    neither ends the window before stage 1 nor outscores the leader, so its
    First selector decides stage 1 for the same candidate. Exact: the
    winning score is 100 * firsts / n as a rational."""
    roster, leader, ballots, num_prefs = election
    _, _, table = pipeline(roster, ballots, num_prefs)
    firsts = sum(b.prefs[0] == leader for b in ballots)
    basic = basic_winner(table, 0.5)
    assert (basic.winner, basic.stage, basic.diagnostics["fallback"]) == (leader, 1, False)
    assert basic.score == Fraction(100 * firsts, len(ballots))
    windowed = beta_gamma_winner(table, SelectionConfig(alpha=0.5), "NULL")
    assert (windowed.winner, windowed.stage) == (leader, 1)


@st.composite
def _complete_elections(draw):
    """A roster of one to four real candidates plus NULL and one to fifteen
    complete ballots (every candidate ranked, NULL included, no IDK)."""
    real = ("A", "B", "C", "D")[:draw(st.integers(1, 4))]
    roster = CandidateRoster(real + ("NULL",), null_id="NULL")
    ranked = draw(st.lists(st.permutations(roster.candidates), min_size=1, max_size=15))
    return roster, [Ballot(f"v{i}", tuple(prefs)) for i, prefs in enumerate(ranked)]


def _bucklin(ballots, candidates) -> tuple[int, list[str]]:
    """Bucklin voting counted in ints (Tideman, *Collective Decisions and
    Voting*, 2006): round r credits each candidate with the ballots that
    rank them within their first r preferences, and the first round where
    some credit is a strict majority (2 * credit > n) decides. Returns that
    round and its candidates with the most credit."""
    n = len(ballots)
    for r in range(1, len(candidates) + 1):
        credit = {c: sum(c in b.prefs[:r] for b in ballots) for c in candidates}
        top = max(credit.values())
        if 2 * top > n:
            return r, [c for c in candidates if credit[c] == top]
    raise AssertionError("every candidate is ranked by round k")


@given(_complete_elections())
@settings(max_examples=300, deadline=None)
def test_basic_rule_at_one_half_is_bucklin(election):
    """README's basic rule elects the top scorer at the earliest stage where
    some score strictly exceeds alpha. Stage r's score is the share of
    ballots ranking a candidate within their first r preferences, so at
    alpha 0.5 on complete ballots it is Bucklin voting: it decides at the
    first round with a strict majority, with no fallback, and elects that
    round's leader (one of them, by the tie order, when several tie)."""
    roster, ballots = election
    _, _, table = pipeline(roster, ballots, roster.k)
    stage, leaders = _bucklin(ballots, roster.tally_candidates)
    decision = basic_winner(table, 0.5)
    assert (decision.stage, decision.diagnostics["fallback"]) == (stage, False)
    assert decision.winner in leaders


@given(_complete_elections(), st.integers(1, 9999).map(lambda p: p / 10000))
@settings(max_examples=300, deadline=None)
def test_basic_rule_decides_by_the_min_stages_bound(election, alpha):
    """README's ``min-stages`` is the smallest number of stages guaranteeing
    an alpha crossing, with alpha read as the decimal typed. On complete
    ballots each stage x spreads 100 * x points over k columns, so its
    leader scores at least 100 * x / k, which strictly exceeds 100 * alpha
    once x > alpha * k: the basic rule decides, with no fallback, by that
    stage whenever the table has it."""
    roster, ballots = election
    bound = min_stages(len(ballots), roster.k, Fraction(str(alpha)))
    _, _, table = pipeline(roster, ballots, roster.k)
    decision = basic_winner(table, alpha)
    if bound <= roster.k:
        assert decision.stage <= bound
        assert not decision.diagnostics["fallback"]


@st.composite
def _windowed_elections(draw):
    """A roster of one to four real candidates, NULL and sometimes IDK,
    ballots of any length with IDK stamps allowed, a num_prefs to cut at
    and a windowed config with thresholds typed to two decimals."""
    real = ("A", "B", "C", "D")[:draw(st.integers(1, 4))]
    idk = draw(st.sampled_from([(), ("IDK",)]))
    roster = CandidateRoster(real + ("NULL",) + idk, null_id="NULL",
                             idk_id="IDK" if idk else None)
    ballots = [Ballot(f"v{i}", tuple(p[:draw(st.integers(0, len(p)))]))
               for i, p in enumerate(draw(st.lists(st.permutations(roster.candidates),
                                                   min_size=1, max_size=12)))]
    typed = st.integers(1, 99).map(lambda p: p / 100)
    gamma = draw(st.sampled_from([GammaRule(), GammaRule(threshold=0.66),
                                  GammaRule(threshold=0.2, fraction=0.3),
                                  GammaRule(threshold=0.25, count=2)]))
    cfg = SelectionConfig(alpha=draw(typed), beta=draw(st.none() | typed), gamma=gamma,
                          selector=draw(st.sampled_from(list(Selector))))
    return roster, ballots, draw(st.integers(1, roster.k)), cfg


@given(_windowed_elections())
@settings(max_examples=300, deadline=None)
def test_windowed_winner_beats_null_and_alpha_as_typed(election):
    """README's windowed rule: NULL never loses to a real candidate it
    outscores, and a candidate qualifies only with a score that strictly
    exceeds alpha as typed. Read from the ``Fraction`` cells: a real winner
    scores at least NULL at the decided stage, and more than 100 * alpha
    with alpha the decimal written (``Fraction(str(alpha))``). NULL itself
    wins only outright, when no real candidate qualifies: at no stage."""
    roster, ballots, num_prefs, cfg = election
    _, _, table = pipeline(roster, ballots, num_prefs)
    decision = beta_gamma_winner(table, cfg, "NULL")
    if decision.winner == "NULL":
        assert decision.stage is None
        return
    row = dict(zip(table.candidates, table.row(decision.stage)))
    assert decision.score == row[decision.winner] >= row["NULL"]
    assert decision.score > 100 * Fraction(str(cfg.alpha))
