"""Staged cumulative ranked voting, baselines, and a seeded study harness."""

from .ballot import (
    Ballot,
    BallotError,
    BallotFormatError,
    CandidateRoster,
    DuplicateCandidate,
    FractionalBallot,
    UnknownCandidate,
    ballots_to_csv,
    expand_incomplete,
    parse_ballots,
    validate_ballot,
)
from .baselines import (
    PredictionMatrix,
    best_voter,
    crowd_mean_ranking,
    crowd_median_ranking,
    fptp_winner,
    irv_winner,
)
from .select import (
    Decision,
    GammaRule,
    SelectionConfig,
    Selector,
    StageWindow,
    basic_winner,
    beta_gamma_winner,
    min_stages,
    select_stage,
    stage_window,
)
from .sim import (
    MetricsTable,
    SimConfig,
    SimulationResult,
    build_crowd,
    cast_ballot,
    generate_dataset,
    run_election,
    run_simulation,
)
from .tally import (
    StageTable,
    TableKind,
    count_votes,
    cumulate,
    score,
    sort_columns,
    stage_distribution,
    stage_entropy,
    stage_stddev,
    stage_variance,
)

__version__ = "0.1.0"
