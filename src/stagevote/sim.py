"""Seeded Monte-Carlo election study.

A simulation builds one synthetic candidate dataset and one crowd of
feature-blind noisy estimators, then runs many independent elections on
slates drawn from the held-out split. The crowd's predictions are written
once, into one voters x test-items matrix; each distinct visible column set
is fitted once, and the noise moments are formed over blocks of voters,
bit-identical to a voter-by-voter build. The study reads that matrix and an
array of achieved MSEs and builds no ``Voter``: the best voter is the first
lowest MSE, and the crowd median is sorted a block of columns at a time, so
a study holds one crowd matrix and block-sized temporaries. Each election ranks
the matrix's voters x (slate + NULL) slice once into an int rank matrix,
row i holding voter i's preferences as roster indices, that every algorithm
reads: the staged variants, plurality and instant-runoff count it, and the
best voter's pick is the top of their row. No per-voter ballot is built, and
one ``select.grid_winners`` call decides the staged grid.
The whole run is a pure function of the config (seed included): per-election
randomness comes from a stream keyed on (master seed, election index).
Elections run serially: the work is pure Python and holds the GIL, so
threads gave no speedup.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass
from numbers import Real
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

from . import baselines
from .ballot import NULL_TOKEN, Ballot, CandidateRoster
from .select import (
    GammaRule,
    SelectionConfig,
    Selector,
    grid_winners,
    parse_gamma_spec,
    parse_selector,
)
from .tally import StageTable, TableKind, cumulate, score

LABEL_CROWD_MEAN = "crowd-Mean"
LABEL_CROWD_MEDIAN = "crowd-Median"
LABEL_BEST_VOTER = "bestVoter (Dictatorship)"
LABEL_FPTP = "FirstPastThePost (but without tactical voting)"
LABEL_IRV = "InstantRunoffVoting"
STAGED_PREFIX = "StagedVote "


class SimConfigError(ValueError):
    """Raised when a simulation config is missing or malformed."""


Blindness = Union[int, tuple[int, int]]


@dataclass(frozen=True)
class Dataset:
    """Synthetic candidates: 10 base features, one shared weight vector,
    and a quality value equal to their weighted sum (higher is better).
    The NULL candidate's quality is pinned to the median over everyone."""

    features: np.ndarray
    weights: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    null_y: float


@dataclass
class Voter:
    """A permanently feature-blind affine estimator with calibrated noise.

    ``predictions`` holds the voter's (noisy, fixed) opinion of every
    test-split candidate; the voter answers identically whenever the same
    candidate shows up in a slate. ``achieved_mse`` is measured on the
    test split and sits within calibration tolerance of ``target_mse``
    unless the target was below the blind estimator's noise-free floor,
    in which case ``clamped`` is set.
    """

    index: int
    hidden: np.ndarray
    coef: np.ndarray
    intercept: float
    noise_sd: float
    target_mse: float
    achieved_mse: float
    clamped: bool
    predictions: np.ndarray


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation depends on, seed included."""

    num_features: ClassVar[int] = 10
    test_fraction: ClassVar[float] = 0.3

    num_candidates: int
    num_voters: int
    num_elections: int
    column_blindness: Blindness
    quality_mean: float
    quality_sd: float
    seed: int
    num_prefs: Optional[int] = None
    dataset_size: int = 3000
    dataset_name: str = "synthetic"
    predicted_feature: str = "y"
    algorithms: Optional[tuple[SelectionConfig, ...]] = None
    include_baselines: bool = True

    def __post_init__(self):
        lo, hi = self.blindness_range
        counts = [(name, getattr(self, name)) for name in (
            "num_candidates", "num_voters", "num_elections", "dataset_size", "seed")]
        for name, value in counts + [("column_blindness", lo), ("column_blindness", hi)]:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SimConfigError(f"{name} must be an int, got {value!r}")
        for name in ("num_candidates", "num_voters", "num_elections"):
            if getattr(self, name) < 1:
                raise SimConfigError(f"{name} must be positive")
        if self.seed < 0:
            raise SimConfigError(f"seed must be >= 0, got {self.seed}")
        for name, value in (("dataSetName", self.dataset_name),
                            ("predictedFeature", self.predicted_feature)):
            if not isinstance(value, str):
                raise SimConfigError(f"{name} must be a string, got {value!r}")
        for name in ("quality_mean", "quality_sd"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not -sys.float_info.max <= value <= sys.float_info.max):
                raise SimConfigError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.include_baselines, bool):
            raise SimConfigError(
                f"includeBaselines must be true or false, got {self.include_baselines!r}")
        if self.quality_mean <= 0:
            raise SimConfigError("crowd quality mean must be positive")
        if self.quality_sd < 0:
            raise SimConfigError("crowd quality standard deviation must be >= 0")
        if lo > hi:
            raise SimConfigError(f"columnBlindness interval [{lo}, {hi}] has lo > hi")
        if not 0 <= lo <= hi <= self.num_features:
            raise SimConfigError(f"columnBlindness must lie within 0..{self.num_features}")
        k = self.num_candidates + 1  # slate plus NULL
        if self.num_prefs is not None and not (
                isinstance(self.num_prefs, int) and not isinstance(self.num_prefs, bool)
                and 1 <= self.num_prefs <= k):
            raise SimConfigError(f"numPrefs must be an integer in 1..{k}")
        # numpy refuses arrays of more bytes than an intp holds; these are the largest.
        cells = np.iinfo(np.intp).max // 8
        if self.dataset_size > cells // self.num_features:
            raise SimConfigError("datasetSize too large: the dataset exceeds numpy's largest array")
        if self.num_elections > sys.maxsize // 8:
            raise SimConfigError("numElections too large: the results exceed Python's largest list")
        n_test = int(self.dataset_size * self.test_fraction)
        if self.num_voters > cells // max(n_test, 1):
            raise SimConfigError("numVoters too large: the crowd exceeds numpy's largest array")
        if n_test < self.num_candidates:
            raise SimConfigError("test split too small for the slate size")
        # Each staged variant's results are keyed by its label; distinct
        # configs have distinct labels.
        first: dict[SelectionConfig, int] = {}
        for j, algo in enumerate(self.algorithms or ()):
            i = first.setdefault(algo, j)
            if i != j:
                raise SimConfigError(f"algorithms[{j}] repeats algorithms[{i}]")

    @property
    def blindness_range(self) -> tuple[int, int]:
        b = self.column_blindness
        return b if isinstance(b, tuple) else (b, b)

    @property
    def effective_num_prefs(self) -> int:
        # Default k - 1: the slate size, leaving only the trivial 100% stage off.
        return self.num_prefs if self.num_prefs is not None else self.num_candidates

    def effective_algorithms(self) -> tuple[SelectionConfig, ...]:
        return self.algorithms if self.algorithms is not None else default_algorithm_grid()


def default_algorithm_grid() -> tuple[SelectionConfig, ...]:
    """The comparison grid: alpha x beta x gamma x every selector."""
    configs = []
    for alpha in (0.5, 0.66, 0.8):
        for beta in (None, 0.33):
            for gamma in (None, 0.66, 0.8):
                rule = GammaRule(threshold=gamma)
                for selector in Selector:
                    configs.append(SelectionConfig(
                        alpha=alpha, beta=beta, gamma=rule, selector=selector,
                    ))
    return tuple(configs)


def generate_dataset(seed, num_candidates: int = 3000,
                     num_features: int = SimConfig.num_features,
                     test_fraction: float = SimConfig.test_fraction) -> Dataset:
    """Draw the synthetic dataset: features uniform in [5, 10), one weight
    vector uniform in [-10, 10), quality = weighted sum, 70/30 split."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(5.0, 10.0, size=(num_candidates, num_features))
    weights = rng.uniform(-10.0, 10.0, size=num_features)
    y = features @ weights
    perm = rng.permutation(num_candidates)
    n_test = int(num_candidates * test_fraction)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return Dataset(features=features, weights=weights, y=y,
                   train_idx=train_idx, test_idx=test_idx,
                   null_y=float(baselines.column_median(y)))


def _calibrate_noise(mse0: Sequence[float], m1: Sequence[float], m2: Sequence[float],
                     target: Sequence[float]) -> tuple[list[float], list[bool]]:
    """Bisect every voter's additive noise scale at once until its
    validation MSE, ``mse0 + 2 s m1 + s^2 m2`` for scale ``s``, hits its
    target; returns (scales, clamped), one entry per voter.

    A target at or below the noise-free MSE gives scale 0, clamped when
    strictly below; so does all-zero noise (``m2 <= 0``). The others bisect
    on the increasing branch of the quadratic, each voter taking exactly
    the float steps of a scalar bisection. The loop ends early once every
    midpoint has landed on its bracket, after which no step changes
    anything.
    """
    mse0, m1, m2, target = (np.asarray(a, dtype=float) for a in (mse0, m1, m2, target))
    at_floor = target <= mse0
    clamped = np.where(at_floor, target < mse0, m2 <= 0.0)
    active = ~at_floor & ~(m2 <= 0.0)
    mse0, m1, m2, target = mse0[active], m1[active], m2[active], target[active]

    def achieved(s: np.ndarray) -> np.ndarray:
        return mse0 + 2.0 * s * m1 + s * s * m2

    vertex = -m1 / m2
    lo = np.where(vertex > 0.0, vertex, 0.0)  # max(0.0, vertex)
    hi = lo + 1.0
    short = achieved(hi) < target
    while short.any():
        hi[short] *= 2.0
        short = achieved(hi) < target
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        settled = (mid == lo) | (mid == hi)
        below = achieved(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if settled.all():
            break
    scales = np.zeros(len(active))
    scales[active] = hi
    return scales.tolist(), clamped.tolist()


_BLOCK = 64  # voters per block of the crowd's moment and prediction passes


def build_crowd(cfg: SimConfig, dataset: Dataset,
                rng: np.random.Generator) -> list[Voter]:
    """Fit one blind estimator per voter and calibrate its noise so the
    test-split MSE matches a target drawn from Normal(mean, sd), floored
    at zero (and clamped to the blind floor when unattainable).

    Each voter draws its target, hidden-column count, hidden columns and
    noise, in that order, the noise straight into its row (its
    ``predictions``) of one voters x test-items matrix. Voters seeing the same
    columns share one fit; moments and predictions are formed per block of
    voters. The result is bit-identical to a voter-by-voter build.
    """
    predictions, achieved, parts = _crowd(cfg, dataset, rng)
    return [Voter(index=i, hidden=hidden, coef=fit[0].copy(), intercept=fit[1],
                  noise_sd=scale, target_mse=target, achieved_mse=mse, clamped=clamp,
                  predictions=predictions[i])
            for i, (hidden, fit, scale, target, clamp, mse)
            in enumerate(zip(*parts, achieved.tolist()))]


def _crowd(cfg: SimConfig, dataset: Dataset, rng: np.random.Generator):
    """``build_crowd``'s voters as arrays: the voters x test-items
    predictions matrix, each voter's achieved MSE, and the per-voter lists
    (hidden columns, shared (coef, intercept, noise-free predictions) fit,
    noise scale, target MSE, clamped) that ``build_crowd`` turns into
    ``Voter`` objects. Beside the matrix it holds one block of working space and
    each distinct fit's noise-free predictions."""
    # Column-major: a fit's columns are then a cheap copy, as lstsq wants them.
    design = np.asfortranarray(np.column_stack([dataset.features[dataset.train_idx],
                                                np.ones(len(dataset.train_idx))]))
    y_train = dataset.y[dataset.train_idx]
    X_test = dataset.features[dataset.test_idx]
    y_test = dataset.y[dataset.test_idx]
    lo, hi = cfg.blindness_range
    n = cfg.num_voters
    predictions = np.empty((n, len(y_test)))

    # Per visible column set: coef, intercept and noise-free predictions.
    fits: dict[bytes, tuple[np.ndarray, float, np.ndarray]] = {}
    targets, hiddens, fit_of = [], [], []
    for z in predictions:
        targets.append(max(cfg.quality_mean + cfg.quality_sd * rng.standard_normal(), 0.0))
        size = int(rng.integers(lo, hi + 1))
        hiddens.append(np.sort(rng.choice(cfg.num_features, size=size, replace=False)))
        seen = np.ones(cfg.num_features + 1, dtype=bool)  # last: the ones column
        seen[hiddens[-1]] = False
        key = seen.tobytes()
        if key not in fits:
            sol, *_ = np.linalg.lstsq(design[:, seen], y_train, rcond=None)
            coef, intercept = sol[:-1], float(sol[-1])
            fits[key] = (coef, intercept, X_test[:, seen[:-1]] @ coef + intercept)
        fit_of.append(fits[key])
        rng.standard_normal(out=z)

    scratch = np.empty((min(n, _BLOCK), len(y_test)))
    mse0, m1, m2 = np.empty(n), np.empty(n), np.empty(n)
    for rows in (slice(start, start + _BLOCK) for start in range(0, n, _BLOCK)):
        z = predictions[rows]
        err = np.stack([fit[2] for fit in fit_of[rows]], out=scratch[:len(z)])
        err -= y_test
        m1[rows] = np.mean(err * z, axis=1)
        mse0[rows] = np.mean(np.square(err, out=err), axis=1)
        m2[rows] = np.mean(np.multiply(z, z, out=err), axis=1)
    scales, clamped = _calibrate_noise(mse0, m1, m2, targets)

    achieved, scale = np.empty(n), np.array(scales)
    for rows in (slice(start, start + _BLOCK) for start in range(0, n, _BLOCK)):
        z = predictions[rows]
        base = np.stack([fit[2] for fit in fit_of[rows]], out=scratch[:len(z)])
        z *= scale[rows, None]  # z becomes base + scale * z, formed in place
        z += base
        achieved[rows] = np.mean(np.square(np.subtract(z, y_test, out=base), out=base), axis=1)

    return predictions, achieved, (hiddens, fit_of, scales, targets, clamped)


def slate_roster(slate: Sequence[int]) -> CandidateRoster:
    """Roster for a slate of test-split positions, NULL appended last."""
    ids = tuple(f"c{pos}" for pos in slate)
    return CandidateRoster(candidates=ids + (NULL_TOKEN,), null_id=NULL_TOKEN)


def cast_ballot(voter: Voter, slate: Sequence[int], null_y: float,
                num_prefs: int, roster: Optional[CandidateRoster] = None) -> Ballot:
    """The voter's row of ``run_election``'s ranking as a ballot: the slate
    by descending predicted quality (NULL at exactly the agreed median),
    ties in slate order (NULL last), first ``num_prefs`` kept."""
    if roster is None:
        roster = slate_roster(slate)
    ids = roster.tally_candidates
    values = np.append(voter.predictions[np.asarray(slate)], null_y)
    order = np.argsort(-values, kind="stable")[:num_prefs].tolist()
    return Ballot(voter_id=f"v{voter.index}", prefs=tuple([ids[j] for j in order]))


@dataclass(frozen=True)
class ElectionOutcome:
    """One algorithm's result on one election, scored against true quality."""

    winner: str
    true_rank: int
    below_null: bool


def run_election(
    predictions: np.ndarray,
    best: int,
    slate: Sequence[int],
    slate_y: np.ndarray,
    null_y: float,
    algorithms: Sequence[SelectionConfig],
    num_prefs: int,
    include_baselines: bool = True,
) -> dict[str, ElectionOutcome]:
    """Evaluate every algorithm on one slate from one ranking.

    Row i of ``order``, the slate's (and NULL's) columns of the voters x
    test-items ``predictions`` ranked once, is voter i's ``cast_ballot`` as
    roster indices. Those ballots stamp ``num_prefs`` distinct candidates
    each, so the count table's row p is the bincount of column p over D = 1,
    what ``count_votes`` gives; one ``grid_winners`` call decides every
    staged variant on its score table. Plurality leads its first row, instant-runoff
    is ``baselines.irv_index`` on ``order``, the study's best voter, row
    ``best``, picks their row's top, and the crowd comparators lead the
    column means and medians of ``values``. The true rank of a winner is its
    1-based position by true quality within the slate; a NULL winner ranks
    where the median quality falls and never counts as below-NULL.
    """
    slate = np.asarray(slate)
    roster = slate_roster(slate)
    ids = roster.tally_candidates
    k = len(ids)
    n = len(predictions)
    values = np.column_stack([predictions[:, slate], np.full(n, null_y)])
    order = np.argsort(-values, axis=1, kind="stable")[:, :num_prefs]
    # Column p's stamps land in bins p * k .. p * k + k - 1: one bincount.
    counts = np.bincount((order + k * np.arange(num_prefs)).ravel(),
                         minlength=k * num_prefs).reshape(num_prefs, k)
    table = score(cumulate(StageTable(TableKind.COUNTS, ids,
                                      tuple(map(tuple, counts.tolist())), 1, n)))

    # Every candidate's outcome, NULL's included, ranked once: the number
    # of slate qualities strictly above its own is len minus those <= it.
    qualities = np.append(slate_y, null_y)
    above = len(slate_y) - np.searchsorted(np.sort(slate_y), qualities, side="right")
    outcomes = {c: ElectionOutcome(c, 1 + a, y < null_y)
                for c, a, y in zip(ids, above.tolist(), qualities.tolist())}
    outcome = outcomes.__getitem__

    results = {STAGED_PREFIX + cfg.label(): outcome(winner) for cfg, winner in
               zip(algorithms, grid_winners(table, algorithms, roster.null_id))}
    if include_baselines:
        results[LABEL_FPTP] = outcome(ids[baselines.leader(counts[0])])
        results[LABEL_IRV] = outcome(ids[baselines.irv_index(order, k)])
        results[LABEL_CROWD_MEAN] = outcome(ids[baselines.leader(values.mean(axis=0))])
        results[LABEL_CROWD_MEDIAN] = outcome(
            ids[baselines.leader(baselines.column_median(values))])
        results[LABEL_BEST_VOTER] = outcome(ids[order[best, 0]])
    return results


@dataclass(frozen=True)
class MetricsRow:
    algorithm: str
    mean_winner_rank: float
    rate_true_winners: float
    rate_winner_below_null: float


@dataclass(frozen=True)
class MetricsTable:
    """Per-algorithm quality metrics, best (lowest mean rank) first."""

    rows: tuple[MetricsRow, ...]
    val_mse: tuple[tuple[str, float], ...] = ()

    def row(self, algorithm: str) -> MetricsRow:
        for r in self.rows:
            if r.algorithm == algorithm:
                return r
        raise KeyError(algorithm)

    def to_text(self) -> str:
        label_w = max([len("Metrics"), len("Algorithms")]
                      + [len(r.algorithm) for r in self.rows])
        lines = [
            f"{'Metrics':<{label_w}}  {'meanWinnerRank':>14}  "
            f"{'rateTrueWinners':>15}  {'rateWinner<NULL':>15}",
            "Algorithms",
        ]
        for r in self.rows:
            lines.append(
                f"{r.algorithm:<{label_w}}  {r.mean_winner_rank:>14.3f}  "
                f"{r.rate_true_winners:>15.3f}  {r.rate_winner_below_null:>15.3f}"
            )
        if self.val_mse:
            mse_w = max([len("Metrics"), len("Algorithms")]
                        + [len(label) for label, _ in self.val_mse])
            lines.append("")
            lines.append(f"{'Metrics':<{mse_w}}  {'val_MeanSquaredErr':>18}")
            lines.append("Algorithms")
            for label, value in self.val_mse:
                lines.append(f"{label:<{mse_w}}  {value:>18.6f}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "results": [
                {
                    "algorithm": r.algorithm,
                    "meanWinnerRank": r.mean_winner_rank,
                    "rateTrueWinners": r.rate_true_winners,
                    "rateWinnerBelowNull": r.rate_winner_below_null,
                }
                for r in self.rows
            ],
            "valMeanSquaredErr": {label: value for label, value in self.val_mse},
        }


def metrics_from_outcomes(
    order: Sequence[str],
    outcomes: dict[str, Sequence[ElectionOutcome]],
    val_mse: Sequence[tuple[str, float]] = (),
) -> MetricsTable:
    """Aggregate per-election outcomes; rows sort by mean rank ascending."""
    rows = []
    for label in order:
        outs = outcomes[label]
        n = len(outs)
        rows.append(MetricsRow(
            algorithm=label,
            mean_winner_rank=sum(o.true_rank for o in outs) / n,
            rate_true_winners=sum(1 for o in outs if o.true_rank == 1) / n,
            rate_winner_below_null=sum(1 for o in outs if o.below_null) / n,
        ))
    rows.sort(key=lambda r: r.mean_winner_rank)
    return MetricsTable(rows=tuple(rows), val_mse=tuple(val_mse))


@dataclass(frozen=True)
class SimulationResult:
    config: SimConfig
    metrics: MetricsTable
    outcomes: dict[str, tuple[ElectionOutcome, ...]]

    def to_text(self) -> str:
        return (
            config_echo_text(self.config)
            + "\n\n========= SIMULATION RESULTS ========\n"
            + self.metrics.to_text()
        )

    def to_json_dict(self) -> dict:
        doc = {"config": config_echo_dict(self.config)}
        doc.update(self.metrics.to_json_dict())
        return doc


def run_simulation(cfg: SimConfig) -> SimulationResult:
    """Build the dataset, the crowd matrix and best voter once, then run the
    elections. The best voter is the first lowest achieved MSE (``argmin``),
    and no ``Voter`` is built; the crowd's mean and median are read off the
    matrix with no whole-matrix temporary, so the study's peak is about one
    crowd matrix."""
    dataset = generate_dataset([cfg.seed, 0], num_candidates=cfg.dataset_size)
    predictions, achieved, _ = _crowd(cfg, dataset, np.random.default_rng([cfg.seed, 1]))
    y_test = dataset.y[dataset.test_idx]
    best = int(np.argmin(achieved))
    algorithms = cfg.effective_algorithms()

    per_election = []
    for index in range(cfg.num_elections):
        rng = np.random.default_rng([cfg.seed, 2, index])
        slate = rng.choice(len(y_test), size=cfg.num_candidates, replace=False)
        per_election.append(run_election(predictions, best, slate, y_test[slate],
                                         dataset.null_y, algorithms, cfg.effective_num_prefs,
                                         cfg.include_baselines))

    order = list(per_election[0].keys())
    outcomes = {label: tuple(result[label] for result in per_election) for label in order}

    val_mse: list[tuple[str, float]] = []
    if cfg.include_baselines:
        val_mse = [(label, float(np.mean((guess - y_test) ** 2))) for label, guess in (
            (LABEL_CROWD_MEAN, predictions.mean(axis=0)),
            (LABEL_CROWD_MEDIAN, baselines.column_median(predictions)),
            (LABEL_BEST_VOTER, predictions[best]))]

    metrics = metrics_from_outcomes(order, outcomes, val_mse)
    return SimulationResult(config=cfg, metrics=metrics, outcomes=outcomes)


def config_echo_dict(cfg: SimConfig) -> dict:
    blindness = (cfg.column_blindness if isinstance(cfg.column_blindness, int)
                 else list(cfg.column_blindness))
    return {
        "numCandidates": cfg.num_candidates,
        "numVoters": cfg.num_voters,
        "numElections": cfg.num_elections,
        "columnBlindness": blindness,
        "crowdBuildMethod": {
            "name": "standardDistribution",
            "mean": cfg.quality_mean,
            "standardDeviation": cfg.quality_sd,
        },
        "dataSetName": cfg.dataset_name,
        "predictedFeature": cfg.predicted_feature,
        "seed": cfg.seed,
    }


def config_echo_text(cfg: SimConfig) -> str:
    return "\n".join(f"{key} : {value}" for key, value in config_echo_dict(cfg).items())


IGNORED_CONFIG_KEYS = ("epochs", "trainableLayerCount", "workers")


def _parse_algorithm(entry: dict, where: str) -> SelectionConfig:
    if not isinstance(entry, dict):
        raise SimConfigError(f"{where} must be an object, got {entry!r}")
    try:
        unknown = ", ".join(sorted(set(entry) - {"alpha", "beta", "gamma", "selector"}))
        if unknown:
            raise SimConfigError(f"unknown keys: {unknown}")
        return SelectionConfig(
            alpha=_number("alpha", entry["alpha"]),
            beta=None if entry.get("beta") is None else _number("beta", entry["beta"]),
            gamma=parse_gamma_spec(entry.get("gamma")),
            selector=parse_selector(entry.get("selector", Selector.FIRST.value)))
    except KeyError as exc:
        raise SimConfigError(f"{where}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise SimConfigError(f"{where}: {exc}") from exc


def _number(key: str, value) -> float:
    """``float(value)`` for a finite JSON number, refusing a string, a bool,
    NaN, an infinity (Python's ``json`` reads ``NaN`` and ``Infinity``) and
    an int beyond the largest float (int/float comparisons are exact)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise SimConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _whole(key: str, value) -> int:
    """``int(value)`` for a whole JSON number, refusing a non-number, a bool
    and a float that ``int`` would truncate (fractional, infinite or NaN)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise SimConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _optional_whole(key: str, value) -> Optional[int]:
    return None if value is None else _whole(key, value)


def _blindness(key: str, value) -> Blindness:
    if isinstance(value, list) and len(value) != 2:
        raise SimConfigError("columnBlindness interval must be [lo, hi]")
    return tuple(_whole(key, b) for b in value) if isinstance(value, list) else _whole(key, value)


def _crowd_quality(key: str, method) -> tuple[float, float]:
    """(mean, standard deviation) of a ``standardDistribution`` crowd."""
    if not isinstance(method, dict):
        raise SimConfigError("crowdBuildMethod must be an object")
    unknown = ", ".join(sorted(set(method) - {"name", "mean", "standardDeviation"}))
    if unknown:
        raise SimConfigError(f"crowdBuildMethod: unknown keys: {unknown}")
    name = method.get("name", "standardDistribution")
    if name not in ("standardDistribution", "normal"):
        raise SimConfigError(f"unknown crowdBuildMethod name {name!r}")
    if "mean" not in method:
        raise SimConfigError("missing key 'crowdBuildMethod.mean'")
    return (_number("crowdBuildMethod.mean", method["mean"]),
            _number("crowdBuildMethod.standardDeviation", method.get("standardDeviation", 0.0)))


def _algorithms(key: str, entries) -> tuple[SelectionConfig, ...]:
    if not isinstance(entries, list):
        raise SimConfigError("'algorithms' must be a list")
    return tuple(_parse_algorithm(e, f"algorithms[{i}]") for i, e in enumerate(entries))


# JSON key -> (SimConfig field, reader of its value, None to take it as is). A
# key is required when its field has no default. crowdBuildMethod's reader
# returns the pair (quality_mean, quality_sd).
_CONFIG_KEYS = {
    "numCandidates": ("num_candidates", _whole),
    "numVoters": ("num_voters", _whole),
    "numElections": ("num_elections", _whole),
    "columnBlindness": ("column_blindness", _blindness),
    "crowdBuildMethod": ("quality_mean", _crowd_quality),
    "seed": ("seed", _whole),
    "algorithms": ("algorithms", _algorithms),
    "numPrefs": ("num_prefs", _optional_whole),
    "datasetSize": ("dataset_size", _whole),
    "dataSetName": ("dataset_name", None),
    "predictedFeature": ("predicted_feature", None),
    "includeBaselines": ("include_baselines", None),
}
_REQUIRED_CONFIG_KEYS = [key for key, (attr, _) in _CONFIG_KEYS.items()
                         if SimConfig.__dataclass_fields__[attr].default is MISSING]


def config_from_json_dict(doc: dict, seed_override: Optional[int] = None) -> SimConfig:
    """Build a SimConfig from the printed header key set.

    Accepts both the ``numCandiates`` spelling found in older headers and
    the corrected one. Neural-network training keys and ``workers``
    (``IGNORED_CONFIG_KEYS``) are accepted and dropped without a word, so
    historical headers keep loading; ``cli.load_study`` reports them.
    """
    if not isinstance(doc, dict):
        raise SimConfigError("config must be a JSON object")
    doc = {key: value for key, value in doc.items() if key not in IGNORED_CONFIG_KEYS}
    if "numCandiates" in doc:
        doc.setdefault("numCandidates", doc.pop("numCandiates"))
    if seed_override is not None:
        doc["seed"] = seed_override

    for key in _REQUIRED_CONFIG_KEYS:
        if key not in doc:
            raise SimConfigError(f"missing key {key!r}")
    unknown = ", ".join(sorted(doc.keys() - _CONFIG_KEYS.keys()))
    if unknown:
        raise SimConfigError(f"unknown config keys: {unknown}")

    kwargs = {attr: doc[key] if read is None else read(key, doc[key])
              for key, (attr, read) in _CONFIG_KEYS.items() if key in doc}
    kwargs["quality_mean"], kwargs["quality_sd"] = kwargs["quality_mean"]
    return SimConfig(**kwargs)
