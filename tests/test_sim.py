"""Dataset, crowd calibration, elections, and the study harness."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from stagevote import ballot, baselines, select, sim
from stagevote.ballot import expand_incomplete
from stagevote.select import GammaRule, SelectionConfig, Selector, beta_gamma_winner
from stagevote.sim import (
    LABEL_BEST_VOTER,
    LABEL_CROWD_MEAN,
    LABEL_CROWD_MEDIAN,
    LABEL_FPTP,
    LABEL_IRV,
    STAGED_PREFIX,
    SimConfig,
    SimConfigError,
    Voter,
    build_crowd,
    cast_ballot,
    config_echo_text,
    config_from_json_dict,
    generate_dataset,
    metrics_from_outcomes,
    run_election,
    run_simulation,
    slate_roster,
)
from stagevote.tally import count_votes, cumulate, score

FAST_ALGOS = (
    SelectionConfig(alpha=0.5, selector=Selector.FIRST),
    SelectionConfig(alpha=0.5, beta=0.33, gamma=GammaRule.any_exceeds(0.66),
                    selector=Selector.MIN_ENTROPY),
)


def small_config(**overrides):
    base = dict(
        num_candidates=5, num_voters=12, num_elections=8, column_blindness=5,
        quality_mean=1500.0, quality_sd=300.0, seed=42, dataset_size=300,
        algorithms=FAST_ALGOS,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestDataset:
    def test_ranges_and_split(self):
        ds = generate_dataset(7, num_candidates=500)
        assert ds.features.shape == (500, 10)
        assert np.all(ds.features >= 5.0) and np.all(ds.features < 10.0)
        assert np.all(ds.weights >= -10.0) and np.all(ds.weights < 10.0)
        assert len(ds.test_idx) == 150
        assert len(ds.train_idx) == 350
        assert not set(ds.test_idx) & set(ds.train_idx)

    def test_quality_is_weighted_sum(self):
        ds = generate_dataset(3, num_candidates=100)
        np.testing.assert_array_equal(ds.y, ds.features @ ds.weights)

    def test_null_quality_is_median(self):
        ds = generate_dataset(11, num_candidates=101)
        assert ds.null_y == sorted(ds.y)[50]

    def test_feature_count_and_test_share_are_constants(self):
        assert (SimConfig.num_features, SimConfig.test_fraction) == (10, 0.3)
        cfg = small_config()
        assert (cfg.num_features, cfg.test_fraction) == (10, 0.3)
        with pytest.raises(TypeError):
            small_config(num_features=4)

    def test_seed_determinism(self):
        a = generate_dataset(5, num_candidates=50)
        b = generate_dataset(5, num_candidates=50)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.y, b.y)


class TestBuildCrowd:
    def test_full_information_near_zero_target(self):
        cfg = small_config(num_voters=3, column_blindness=0, quality_mean=1e-6,
                           quality_sd=0.0)
        ds = generate_dataset(1, num_candidates=300)
        crowd = build_crowd(cfg, ds, np.random.default_rng(0))
        for voter in crowd:
            assert voter.achieved_mse <= 1.05e-6

    def test_blind_voter_floored_at_noise_free_mse(self):
        cfg = small_config(num_voters=6, column_blindness=9, quality_mean=1.0,
                           quality_sd=0.0)
        ds = generate_dataset(2, num_candidates=600)
        crowd = build_crowd(cfg, ds, np.random.default_rng(1))
        X_train = ds.features[ds.train_idx]
        X_test = ds.features[ds.test_idx]
        for voter in crowd:
            assert voter.clamped
            assert voter.noise_sd == 0.0
            visible = np.setdiff1d(np.arange(10), voter.hidden)
            design = np.column_stack([X_train[:, visible],
                                      np.ones(len(X_train))])
            sol, *_ = np.linalg.lstsq(design, ds.y[ds.train_idx], rcond=None)
            base = X_test[:, visible] @ sol[:-1] + sol[-1]
            floor = float(np.mean((base - ds.y[ds.test_idx]) ** 2))
            assert voter.achieved_mse == pytest.approx(floor, rel=1e-9)

    def test_calibration_hits_target_within_tolerance(self):
        cfg = small_config(num_voters=20, column_blindness=5,
                           quality_mean=2000.0, quality_sd=400.0)
        ds = generate_dataset(4, num_candidates=600)
        crowd = build_crowd(cfg, ds, np.random.default_rng(3))
        for voter in crowd:
            if not voter.clamped:
                assert voter.achieved_mse == pytest.approx(voter.target_mse,
                                                           rel=0.05)

    def test_large_crowd_matches_configured_mean(self):
        # Config values taken from a published study header.
        cfg = SimConfig(num_candidates=20, num_voters=500, num_elections=1,
                        column_blindness=9, quality_mean=18000.0,
                        quality_sd=500.0, seed=0)
        ds = generate_dataset(9)
        crowd = build_crowd(cfg, ds, np.random.default_rng(12))
        achieved = np.array([v.achieved_mse for v in crowd])
        sd_of_mean = 500.0 / np.sqrt(500)
        assert abs(achieved.mean() - 18000.0) <= 3 * sd_of_mean

    def test_blindness_interval_sampled_inclusively(self):
        cfg = small_config(num_voters=60, column_blindness=(7, 9))
        ds = generate_dataset(6, num_candidates=300)
        crowd = build_crowd(cfg, ds, np.random.default_rng(8))
        sizes = {len(v.hidden) for v in crowd}
        assert sizes <= {7, 8, 9}
        assert len(sizes) > 1


def oracle_crowd(cfg, dataset, rng):
    """The crowd built voter by voter: one ``setdiff1d`` and one ``lstsq``
    per voter and a 100-step scalar bisection of the noise scale, drawing
    from ``rng`` in the same order as ``build_crowd``."""
    X_train = dataset.features[dataset.train_idx]
    y_train = dataset.y[dataset.train_idx]
    X_test = dataset.features[dataset.test_idx]
    y_test = dataset.y[dataset.test_idx]
    lo, hi = cfg.blindness_range
    voters = []
    for index in range(cfg.num_voters):
        target = max(cfg.quality_mean + cfg.quality_sd * rng.standard_normal(), 0.0)
        size = int(rng.integers(lo, hi + 1))
        hidden = np.sort(rng.choice(cfg.num_features, size=size, replace=False))
        visible = np.setdiff1d(np.arange(cfg.num_features), hidden)
        design = np.column_stack([X_train[:, visible], np.ones(len(X_train))])
        sol, *_ = np.linalg.lstsq(design, y_train, rcond=None)
        coef, intercept = sol[:-1], float(sol[-1])
        base = X_test[:, visible] @ coef + intercept
        z = rng.standard_normal(len(y_test))
        noise_sd, clamped = _oracle_noise(base - y_test, z, target)
        predictions = base + noise_sd * z
        voters.append(Voter(
            index=index, hidden=hidden, coef=coef, intercept=intercept,
            noise_sd=noise_sd, target_mse=target,
            achieved_mse=float(np.mean((predictions - y_test) ** 2)),
            clamped=clamped, predictions=predictions,
        ))
    return voters


def _oracle_noise(base_err, z, target):
    mse0 = float(np.mean(base_err ** 2))
    if target <= mse0:
        return 0.0, target < mse0
    m1 = float(np.mean(base_err * z))
    m2 = float(np.mean(z * z))
    if m2 <= 0.0:
        return 0.0, True

    def achieved(s):
        return mse0 + 2.0 * s * m1 + s * s * m2

    lo = max(0.0, -m1 / m2)
    hi = lo + 1.0
    while achieved(hi) < target:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if achieved(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi, False


def voter_bits(voter):
    """Every Voter field, as bytes or repr, so equality is bit for bit."""
    return (voter.index, voter.hidden.dtype.str, voter.hidden.tobytes(),
            voter.coef.dtype.str, voter.coef.tobytes(), repr(voter.intercept),
            repr(voter.noise_sd), repr(voter.target_mse),
            repr(voter.achieved_mse), repr(voter.clamped),
            voter.predictions.dtype.str, voter.predictions.tobytes())


ORACLE_CASES = {
    "blindness-0": dict(num_voters=20, column_blindness=0),
    "blindness-10-intercept-only": dict(num_voters=20, column_blindness=10),
    "interval-2-8": dict(num_voters=200, column_blindness=(2, 8)),
    "quality-sd-0": dict(num_voters=40, column_blindness=(2, 8), quality_sd=0.0),
    "all-clamped": dict(num_voters=40, column_blindness=(2, 8), quality_mean=1.0,
                        quality_sd=0.0),
    "single-voter": dict(num_voters=1, column_blindness=(0, 10)),
    # The crowd's moments and predictions are formed in blocks of voters.
    "one-block": dict(num_voters=sim._BLOCK, column_blindness=(2, 8)),
    "one-block-plus-one": dict(num_voters=sim._BLOCK + 1, column_blindness=(2, 8)),
}


class TestCrowdOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_bit_identical_to_per_voter_build(self, name, seed):
        cfg = small_config(**ORACLE_CASES[name])
        ds = generate_dataset([seed, 0], num_candidates=300)
        crowd = build_crowd(cfg, ds, np.random.default_rng([seed, 1]))
        oracle = oracle_crowd(cfg, ds, np.random.default_rng([seed, 1]))
        assert [voter_bits(v) for v in crowd] == [voter_bits(v) for v in oracle]
        if name == "all-clamped":
            assert all(v.clamped and v.noise_sd == 0.0 for v in crowd)

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_best_voter_is_the_first_lowest_achieved_mse(self, name, seed):
        # run_simulation takes the first lowest achieved_mse as its best
        # voter; that must be what best_voter picks on the stacked crowd.
        cfg = small_config(**ORACLE_CASES[name])
        ds = generate_dataset([seed, 0], num_candidates=300)
        crowd = build_crowd(cfg, ds, np.random.default_rng([seed, 1]))
        y_test = ds.y[ds.test_idx]
        predictions = np.stack([v.predictions for v in crowd])
        achieved = [v.achieved_mse for v in crowd]
        mse = np.mean((predictions - y_test[None, :]) ** 2, axis=1)
        assert [float(m).hex() for m in mse] == [a.hex() for a in achieved]
        assert baselines.best_voter(predictions, y_test) == achieved.index(min(achieved))

    def test_one_fit_per_distinct_visible_set(self, monkeypatch):
        fits = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            fits.append(args[0].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        cfg = small_config(num_voters=200, column_blindness=(2, 8))
        crowd = build_crowd(cfg, generate_dataset(3, num_candidates=300),
                            np.random.default_rng(5))
        distinct = {v.hidden.tobytes() for v in crowd}
        assert len(distinct) < len(crowd)
        assert len(fits) == len(distinct)

    def test_predictions_are_rows_of_one_matrix(self):
        cfg = small_config(num_voters=sim._BLOCK + 1, column_blindness=(2, 8))
        ds = generate_dataset(3, num_candidates=300)
        predictions, achieved, _ = sim._crowd(cfg, ds, np.random.default_rng(5))
        assert predictions.flags.c_contiguous
        assert predictions.shape == (cfg.num_voters, len(ds.test_idx))
        # build_crowd's voters are views of the rows of one such matrix.
        crowd = build_crowd(cfg, ds, np.random.default_rng(5))
        matrix = crowd[0].predictions.base
        assert matrix.flags.c_contiguous and matrix.shape == predictions.shape
        assert all(v.predictions.base is matrix for v in crowd)
        np.testing.assert_array_equal(np.stack([v.predictions for v in crowd]), predictions)
        assert [v.achieved_mse for v in crowd] == achieved.tolist()

    def test_study_builds_no_voter(self, monkeypatch):
        # run_simulation reads the matrix and the achieved-MSE array only;
        # build_crowd still builds the voters the per-voter oracle builds.
        built = []
        real_init = Voter.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Voter, "__init__", counted_init)
        cfg = small_config(num_voters=sim._BLOCK + 1, column_blindness=(2, 8))
        run_simulation(cfg)
        assert len(built) == 0
        ds = generate_dataset([cfg.seed, 0], num_candidates=cfg.dataset_size)
        crowd = build_crowd(cfg, ds, np.random.default_rng([cfg.seed, 1]))
        assert len(built) == cfg.num_voters
        oracle = oracle_crowd(cfg, ds, np.random.default_rng([cfg.seed, 1]))
        assert [voter_bits(v) for v in crowd] == [voter_bits(v) for v in oracle]

    @staticmethod
    def _study_peak_in_crowd_matrices(num_voters, num_elections):
        """The traced peak of a study, in crowd matrices (voters x test
        items floats), after a tiny study has done the lazy imports."""
        kw = dict(num_candidates=10, num_elections=num_elections, column_blindness=(2, 8),
                  quality_mean=1500.0, quality_sd=400.0, seed=3, algorithms=FAST_ALGOS)
        run_simulation(SimConfig(num_voters=5, dataset_size=300, **kw))  # lazy imports
        cfg = SimConfig(num_voters=num_voters, **kw)
        tracemalloc.start()
        try:
            run_simulation(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (cfg.num_voters * int(cfg.dataset_size * cfg.test_fraction) * 8)

    def test_study_peak_memory_near_one_crowd_matrix(self):
        # At 500 voters 364 of them have a fit of their own, and the fits'
        # noise-free predictions weigh 0.73 of a matrix; so this bound is
        # loose. It catches a stacked second crowd beside them, but not
        # one whole-crowd temporary (a sorted copy for the crowd median
        # read 2.23 here). The scale test below catches that.
        peak = self._study_peak_in_crowd_matrices(500, 2)
        assert peak <= 2.5, f"peak {peak:.2f} crowd matrices"

    def test_study_peak_memory_one_crowd_matrix_at_scale(self):
        # At 5,000 voters the matrix dominates: one whole-crowd temporary,
        # such as a sorted copy for the crowd median, goes past 1.5.
        peak = self._study_peak_in_crowd_matrices(5000, 1)
        assert peak <= 1.5, f"peak {peak:.2f} crowd matrices"

    def test_voters_sharing_a_fit_own_their_coef(self):
        cfg = small_config(num_voters=60, column_blindness=9)
        crowd = build_crowd(cfg, generate_dataset(3, num_candidates=300),
                            np.random.default_rng(5))
        a, b = next((a, b) for i, a in enumerate(crowd) for b in crowd[i + 1:]
                    if np.array_equal(a.hidden, b.hidden))
        assert not np.shares_memory(a.coef, b.coef)
        before = b.coef.copy()
        a.coef += 1.0
        np.testing.assert_array_equal(b.coef, before)


class TestCastBallot:
    def _perfect_crowd(self, ds):
        cfg = small_config(num_voters=1, column_blindness=0, quality_mean=1e-9,
                           quality_sd=0.0)
        return build_crowd(cfg, ds, np.random.default_rng(0))

    def test_perfect_voter_matches_true_order(self):
        ds = generate_dataset(21, num_candidates=300)
        (voter,) = self._perfect_crowd(ds)
        y_test = ds.y[ds.test_idx]
        slate = np.argsort(y_test)[-6:]  # all above the median
        ballot = cast_ballot(voter, slate, ds.null_y, num_prefs=6)
        ids = slate_roster(slate).tally_candidates
        true_order = [ids[j] for j in np.argsort(-y_test[slate], kind="stable")]
        assert list(ballot.prefs) == true_order[:6]

    def test_null_first_when_slate_below_median(self):
        ds = generate_dataset(22, num_candidates=300)
        (voter,) = self._perfect_crowd(ds)
        y_test = ds.y[ds.test_idx]
        slate = np.argsort(y_test)[:5]
        ballot = cast_ballot(voter, slate, ds.null_y, num_prefs=5)
        assert ballot.prefs[0] == "NULL"

    def test_noisy_ballot_reproducible(self):
        ds = generate_dataset(23, num_candidates=300)
        cfg = small_config(num_voters=1, column_blindness=5)
        slate = np.arange(6)
        ballots = []
        for _ in range(2):
            (voter,) = build_crowd(cfg, ds, np.random.default_rng(99))
            ballots.append(cast_ballot(voter, slate, ds.null_y, num_prefs=6))
        assert ballots[0] == ballots[1]


class TestRunElection:
    def test_perfect_crowd_elects_true_best(self):
        ds = generate_dataset(31, num_candidates=300)
        cfg = small_config(num_voters=5, column_blindness=0, quality_mean=1e-9,
                           quality_sd=0.0)
        crowd = build_crowd(cfg, ds, np.random.default_rng(2))
        y_test = ds.y[ds.test_idx]
        slate = np.argsort(y_test)[-6:]
        results = run_election(*stacked(crowd), slate, y_test[slate], ds.null_y,
                               FAST_ALGOS, num_prefs=6)
        for label, outcome in results.items():
            assert outcome.true_rank == 1, label
            assert not outcome.below_null

    def test_null_winner_ranked_at_median_position(self):
        ds = generate_dataset(32, num_candidates=300)
        cfg = small_config(num_voters=5, column_blindness=0, quality_mean=1e-9,
                           quality_sd=0.0)
        crowd = build_crowd(cfg, ds, np.random.default_rng(2))
        y_test = ds.y[ds.test_idx]
        slate = np.argsort(y_test)[:5]  # everyone below the median
        results = run_election(*stacked(crowd), slate, y_test[slate], ds.null_y,
                               FAST_ALGOS, num_prefs=5)
        staged = results[STAGED_PREFIX + FAST_ALGOS[0].label()]
        assert staged.winner == "NULL"
        assert staged.true_rank == 1
        assert staged.below_null is False

    def test_single_voter_crowd_best_voter_equals_crowd_mean(self):
        ds = generate_dataset(33, num_candidates=300)
        cfg = small_config(num_voters=1, column_blindness=3)
        crowd = build_crowd(cfg, ds, np.random.default_rng(3))
        y_test = ds.y[ds.test_idx]
        slate = np.arange(7)
        results = run_election(*stacked(crowd), slate, y_test[slate], ds.null_y,
                               FAST_ALGOS, num_prefs=7)
        assert results[LABEL_BEST_VOTER] == results[LABEL_CROWD_MEAN]

    def test_deterministic_across_calls(self):
        ds = generate_dataset(34, num_candidates=300)
        cfg = small_config(num_voters=8, column_blindness=5)
        crowd = build_crowd(cfg, ds, np.random.default_rng(4))
        y_test = ds.y[ds.test_idx]
        slate = np.arange(10, 16)
        a = run_election(*stacked(crowd), slate, y_test[slate], ds.null_y, FAST_ALGOS, 6)
        b = run_election(*stacked(crowd), slate, y_test[slate], ds.null_y, FAST_ALGOS, 6)
        assert a == b


def stacked(crowd):
    """``run_election``'s first two arguments for a crowd: its voters x
    items predictions and the first voter of lowest ``achieved_mse``."""
    return (np.stack([v.predictions for v in crowd]),
            int(np.argmin([v.achieved_mse for v in crowd])))


def tied_crowd(rng, num_voters, num_items):
    """Voters with small whole-number predictions (and MSEs), so many tie
    with each other, and with NULL when it sits on a whole number."""
    return [
        Voter(index=i, hidden=np.array([], dtype=int), coef=np.zeros(0),
              intercept=0.0, noise_sd=0.0, target_mse=0.0,
              achieved_mse=float(rng.integers(0, 3)), clamped=False,
              predictions=rng.integers(0, 4, size=num_items).astype(float))
        for i in range(num_voters)
    ]


class TestOneRankingPerElection:
    ALGOS = FAST_ALGOS + (
        SelectionConfig(alpha=0.66, beta=0.2, gamma=GammaRule.count_exceeds(0.5, 2),
                        selector=Selector.LAST),
    )

    def test_cast_ballot_ranks_by_value_then_slate_order(self):
        rng = np.random.default_rng(5)
        for voter in tied_crowd(rng, 50, 8):
            slate = rng.choice(8, size=5, replace=False)
            null_y = float(rng.integers(0, 4))
            num_prefs = int(rng.integers(1, 7))
            values = list(voter.predictions[slate]) + [null_y]
            order = sorted(range(6), key=lambda j: (-values[j], j))
            ids = slate_roster(slate).tally_candidates
            ballot = cast_ballot(voter, slate, null_y, num_prefs)
            assert ballot.prefs == tuple(ids[j] for j in order[:num_prefs])
            assert ballot.voter_id == f"v{voter.index}"

    def test_run_election_matches_per_voter_ballots(self):
        for seed in range(60):
            rng = np.random.default_rng([seed, 77])
            num_candidates = int(rng.integers(2, 7))
            crowd = tied_crowd(rng, int(rng.integers(1, 16)), 12)
            slate = rng.choice(12, size=num_candidates, replace=False)
            slate_y = rng.normal(size=num_candidates)
            null_y = float(rng.integers(0, 4))
            num_prefs = int(rng.integers(1, num_candidates + 2))
            roster = slate_roster(slate)

            ballots = [cast_ballot(v, slate, null_y, num_prefs, roster) for v in crowd]
            table = score(cumulate(count_votes(
                [expand_incomplete(b, roster, num_prefs) for b in ballots],
                roster, num_prefs)))
            expected = {STAGED_PREFIX + cfg.label():
                        beta_gamma_winner(table, cfg, roster.null_id).winner
                        for cfg in self.ALGOS}
            expected[LABEL_FPTP] = baselines.fptp_winner(ballots, roster)
            expected[LABEL_IRV] = baselines.irv_winner(ballots, roster)
            best = min(range(len(crowd)), key=lambda i: crowd[i].achieved_mse)
            expected[LABEL_BEST_VOTER] = ballots[best].prefs[0]
            with_null = baselines.PredictionMatrix(
                slate=roster.tally_candidates,
                values=[list(v.predictions[slate]) + [null_y] for v in crowd])
            expected[LABEL_CROWD_MEAN] = baselines.crowd_mean_ranking(with_null)[0]
            expected[LABEL_CROWD_MEDIAN] = baselines.crowd_median_ranking(with_null)[0]

            results = run_election(*stacked(crowd), slate, slate_y, null_y, self.ALGOS, num_prefs)
            assert {label: results[label].winner for label in expected} == expected, seed

    def test_rank_matrix_count_table_equals_count_votes(self, monkeypatch):
        counted = []

        def spy(table):
            counted.append(table)
            return cumulate(table)

        monkeypatch.setattr(sim, "cumulate", spy)
        for seed in range(40):
            rng = np.random.default_rng([seed, 14])
            num_candidates = int(rng.integers(1, 8))
            num_voters = 1 if seed % 4 == 0 else int(rng.integers(2, 16))
            crowd = tied_crowd(rng, num_voters, 12)
            slate = rng.choice(12, size=num_candidates, replace=False)
            null_y = float(rng.integers(0, 4))
            roster = slate_roster(slate)
            for num_prefs in range(1, num_candidates + 2):
                want = count_votes(
                    [expand_incomplete(cast_ballot(v, slate, null_y, num_prefs, roster),
                                       roster, num_prefs) for v in crowd],
                    roster, num_prefs)
                counted.clear()
                run_election(*stacked(crowd), slate, rng.normal(size=num_candidates), null_y,
                             (), num_prefs, include_baselines=False)
                (got,) = counted
                assert (got.kind, got.candidates, got.ints, got.denom, got.n) == (
                    want.kind, want.candidates, want.ints, want.denom, want.n), seed
                assert all(type(v) is int for row in got.ints for v in row)

    def test_run_election_builds_no_ballot(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_election built a ballot")

        monkeypatch.setattr(sim, "Ballot", refuse)
        monkeypatch.setattr(ballot, "FractionalBallot", refuse)
        rng = np.random.default_rng(15)
        crowd = tied_crowd(rng, 9, 12)
        slate = rng.choice(12, size=5, replace=False)
        results = run_election(*stacked(crowd), slate, rng.normal(size=5), 1.0, self.ALGOS, 3)
        assert LABEL_IRV in results and LABEL_BEST_VOTER in results

    def test_run_election_builds_no_decision(self, monkeypatch):
        rng = np.random.default_rng(16)
        crowd = tied_crowd(rng, 9, 12)
        slate = rng.choice(12, size=5, replace=False)
        election = (*stacked(crowd), slate, rng.normal(size=5), 1.0,
                    sim.default_algorithm_grid(), 4)
        expected = run_election(*election)

        def refuse(*args, **kwargs):
            raise AssertionError("run_election built a Decision")

        monkeypatch.setattr(select, "Decision", refuse)
        assert run_election(*election) == expected


class TestRunSimulation:
    def test_single_election_rates_are_indicators(self):
        res = run_simulation(small_config(num_elections=1))
        for row in res.metrics.rows:
            assert row.rate_true_winners in (0.0, 1.0)
            assert row.rate_winner_below_null in (0.0, 1.0)

    def test_perfect_crowd_mean_rank_one(self):
        res = run_simulation(small_config(column_blindness=0,
                                          quality_mean=1e-9, quality_sd=0.0))
        assert res.metrics.row(LABEL_CROWD_MEAN).mean_winner_rank == 1.0

    def test_rows_sorted_by_mean_rank(self):
        res = run_simulation(small_config(seed=5))
        ranks = [row.mean_winner_rank for row in res.metrics.rows]
        assert ranks == sorted(ranks)

    def test_metrics_recomputable_from_outcome_log(self):
        res = run_simulation(small_config(seed=6))
        recomputed = metrics_from_outcomes(
            list(res.outcomes), res.outcomes, res.metrics.val_mse)
        assert recomputed == res.metrics

    def test_bit_identical_reruns(self):
        a = run_simulation(small_config(seed=7))
        b = run_simulation(small_config(seed=7))
        assert a.metrics == b.metrics
        assert a.to_text() == b.to_text()

    def test_metric_bounds(self):
        res = run_simulation(small_config(seed=9))
        for row in res.metrics.rows:
            assert 1.0 <= row.mean_winner_rank <= 6.0  # slate + NULL position
            assert 0.0 <= row.rate_true_winners <= 1.0
            assert 0.0 <= row.rate_winner_below_null <= 1.0

    @pytest.mark.parametrize("pair", [
        (SelectionConfig(alpha=0.5), SelectionConfig(alpha=0.504)),
        (SelectionConfig(alpha=0.5, gamma=GammaRule.any_exceeds(0.555)),
         SelectionConfig(alpha=0.5, gamma=GammaRule.any_exceeds(0.56))),
    ])
    def test_thresholds_past_two_decimals_keep_their_own_rows(self, pair):
        res = run_simulation(small_config(num_elections=2, algorithms=pair,
                                          include_baselines=False))
        assert sorted(r.algorithm for r in res.metrics.rows) == sorted(
            STAGED_PREFIX + cfg.label() for cfg in pair)
        assert len(set(cfg.label() for cfg in pair)) == 2

    def test_repeated_algorithm_rejected(self):
        twice = FAST_ALGOS + (SelectionConfig(alpha=0.8), FAST_ALGOS[1])
        with pytest.raises(SimConfigError, match=r"^algorithms\[3\] repeats algorithms\[1\]$"):
            small_config(algorithms=twice)
        # Equal configs, though -0.0 prints unlike 0.0.
        with pytest.raises(SimConfigError, match=r"^algorithms\[1\] repeats algorithms\[0\]$"):
            small_config(algorithms=(SelectionConfig(alpha=0.0), SelectionConfig(alpha=-0.0)))

    def test_run_simulation_never_imports_numpy_ma(self):
        # The crowd medians come from one sort; np.median imports numpy.ma.
        script = ("import sys\n"
                  "from stagevote import sim\n"
                  "sim.run_simulation(sim.SimConfig(num_candidates=5, num_voters=12, "
                  "num_elections=2, column_blindness=5, quality_mean=1500.0, "
                  "quality_sd=300.0, seed=3, dataset_size=300))\n"
                  "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_val_mse_reported_for_comparators(self):
        res = run_simulation(small_config(seed=10))
        labels = [label for label, _ in res.metrics.val_mse]
        assert labels == [LABEL_CROWD_MEAN, LABEL_CROWD_MEDIAN, LABEL_BEST_VOTER]
        assert all(v >= 0 for _, v in res.metrics.val_mse)


class TestConfigParsing:
    BASE = {
        "numCandiates": 5,  # historical spelling
        "numVoters": 12,
        "numElections": 4,
        "columnBlindness": 5,
        "crowdBuildMethod": {"name": "standardDistribution", "mean": 1500,
                             "standardDeviation": 300},
        "dataSetName": "mySynthetic",
        "predictedFeature": "y",
        "seed": 3,
    }

    def test_accepts_both_spellings(self):
        cfg = config_from_json_dict(dict(self.BASE))
        assert cfg.num_candidates == 5
        doc = dict(self.BASE)
        doc.pop("numCandiates")
        doc["numCandidates"] = 7
        assert config_from_json_dict(doc).num_candidates == 7

    def test_missing_key_named(self):
        doc = dict(self.BASE)
        doc.pop("numVoters")
        with pytest.raises(SimConfigError, match="numVoters"):
            config_from_json_dict(doc)

    def test_training_keys_ignored_silently(self):
        # The CLI's loader reports them; the library drops them.
        doc = dict(self.BASE, epochs=133, trainableLayerCount=1, workers=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = config_from_json_dict(doc)
        assert cfg == config_from_json_dict(dict(self.BASE))

    def test_blindness_interval(self):
        doc = dict(self.BASE, columnBlindness=[7, 9])
        assert config_from_json_dict(doc).column_blindness == (7, 9)

    def test_seed_override(self):
        cfg = config_from_json_dict(dict(self.BASE), seed_override=99)
        assert cfg.seed == 99

    def test_algorithms_parsed(self):
        doc = dict(self.BASE)
        doc["algorithms"] = [
            {"alpha": 0.5, "beta": 0.33, "gamma": "any:0.66",
             "selector": "min-entropy"},
            {"alpha": 0.8},
        ]
        cfg = config_from_json_dict(doc)
        assert cfg.algorithms[0].selector is Selector.MIN_ENTROPY
        assert cfg.algorithms[0].gamma == GammaRule.any_exceeds(0.66)
        assert cfg.algorithms[1].beta is None

    def test_unknown_keys_rejected(self):
        doc = dict(self.BASE, mystery=1)
        with pytest.raises(SimConfigError, match="mystery"):
            config_from_json_dict(doc)

    def test_validation_errors(self):
        with pytest.raises(SimConfigError):
            small_config(num_voters=0)
        with pytest.raises(SimConfigError):
            small_config(quality_mean=0.0)
        with pytest.raises(SimConfigError):
            small_config(column_blindness=11)
        with pytest.raises(SimConfigError):
            small_config(num_candidates=200)  # test split too small

    @pytest.mark.parametrize("field", ["num_candidates", "num_voters", "num_elections",
                                       "dataset_size", "seed"])
    @pytest.mark.parametrize("value", [300.5, True, "7"])
    def test_integer_fields_must_be_ints(self, field, value):
        # Checked here, not deep inside run_simulation (300.5 used to reach
        # generate_dataset and fail there with a TypeError).
        with pytest.raises(SimConfigError, match=field):
            small_config(**{field: value})

    def test_whole_valued_num_prefs_loads_as_int(self):
        cfg = config_from_json_dict(dict(self.BASE, numPrefs=3.0))
        assert cfg.num_prefs == 3 and type(cfg.num_prefs) is int

    @pytest.mark.parametrize("blindness", [2.7, (2.7, 3.9), (2, 3.0), (True, 3)])
    def test_column_blindness_must_be_ints(self, blindness):
        # A float bound was once truncated: (2.7, 3.9) ran as (2, 3).
        with pytest.raises(SimConfigError, match="column_blindness must be an int"):
            small_config(column_blindness=blindness)

    def test_reversed_column_blindness_is_named(self):
        # Both bounds lie in 0..10; the interval itself is backwards.
        with pytest.raises(SimConfigError) as caught:
            small_config(column_blindness=(3, 2))
        assert str(caught.value) == "columnBlindness interval [3, 2] has lo > hi"

    @pytest.mark.parametrize("field, value, message", [
        # "no" once ran the baselines (a str is truthy), and 0 loaded.
        ("include_baselines", "no", "includeBaselines must be true or false, got 'no'"),
        ("include_baselines", 0, "includeBaselines must be true or false, got 0"),
        ("quality_mean", True, "quality_mean must be a finite number, got True"),
        ("quality_sd", False, "quality_sd must be a finite number, got False"),
        ("quality_mean", "1500", "quality_mean must be a finite number, got '1500'"),
        ("quality_sd", None, "quality_sd must be a finite number, got None"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("dataset_name", [1, 2], "dataSetName must be a string, got [1, 2]"),
        ("predicted_feature", None, "predictedFeature must be a string, got None"),
    ])
    def test_library_config_refuses_what_the_loader_refuses(self, field, value, message):
        with pytest.raises(SimConfigError) as caught:
            small_config(**{field: value})
        assert str(caught.value) == message

    @pytest.mark.parametrize("field, value", [
        ("quality_mean", float("nan")), ("quality_mean", float("inf")),
        ("quality_sd", float("nan")), ("quality_sd", float("inf")),
        ("quality_mean", 10**400)])  # once an OverflowError
    def test_crowd_quality_must_be_finite(self, field, value):
        with pytest.raises(SimConfigError, match="finite"):
            small_config(**{field: value})

    @pytest.mark.parametrize("edit, message", [
        # numpy ended these in "array is too big" or "Maximum allowed
        # dimension exceeded"; the float conversions in an OverflowError.
        ({"numVoters": 10**17}, r"^numVoters too large: "),
        ({"numVoters": 10**30}, r"^numVoters too large: "),
        ({"datasetSize": 10**19}, r"^datasetSize too large: "),
        ({"datasetSize": 10**400}, r"^datasetSize too large: "),
        ({"crowdBuildMethod": {"mean": 10**400}},
         r"^crowdBuildMethod\.mean must be a finite number, got 1000"),
        ({"algorithms": [{"alpha": 10**400}]},
         r"^algorithms\[0\]: alpha must be a finite number, got 1000"),
        ({"algorithms": [{"alpha": 0.5, "gamma": 10**400}]},
         r"^algorithms\[0\]: gamma threshold must be in \(0, 1\)$"),
        # Once accepted: the run appended results until it was killed.
        ({"numElections": 10**400}, r"^numElections too large: "),
    ])
    def test_oversized_integers_are_config_errors(self, edit, message):
        with pytest.raises(SimConfigError, match=message):
            config_from_json_dict(dict(self.BASE, **edit))

    def test_size_bounds_are_numpys_largest_array(self):
        # 3000 candidates: 10 features each, 900 in the test split.
        cells = np.iinfo(np.intp).max // 8
        config_from_json_dict(dict(self.BASE, numVoters=cells // 900))
        with pytest.raises(SimConfigError, match="^numVoters too large"):
            config_from_json_dict(dict(self.BASE, numVoters=cells // 900 + 1))
        config_from_json_dict(dict(self.BASE, datasetSize=cells // 10))
        with pytest.raises(SimConfigError, match="^datasetSize too large"):
            config_from_json_dict(dict(self.BASE, datasetSize=cells // 10 + 1))

    def test_election_bound_is_pythons_largest_list(self):
        config_from_json_dict(dict(self.BASE, numElections=sys.maxsize // 8))
        with pytest.raises(SimConfigError, match="^numElections too large"):
            config_from_json_dict(dict(self.BASE, numElections=sys.maxsize // 8 + 1))

    def test_echo_layout(self):
        cfg = small_config()
        text = config_echo_text(cfg)
        assert text.splitlines()[0] == "numCandidates : 5"
        assert "crowdBuildMethod : {'name': 'standardDistribution'" in text
