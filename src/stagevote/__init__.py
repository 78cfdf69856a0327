"""Staged cumulative ranked voting: the ballot, tally and selection core.

The baselines and the seeded study harness need numpy; import them from
``stagevote.baselines`` and ``stagevote.sim``.
"""

from .ballot import (
    Ballot,
    BallotError,
    BallotFormatError,
    CandidateRoster,
    DuplicateCandidate,
    FractionalBallot,
    UnknownCandidate,
    expand_incomplete,
    parse_ballots,
    validate_ballot,
)
from .select import (
    Decision,
    GammaRule,
    SelectionConfig,
    Selector,
    StageWindow,
    basic_winner,
    beta_gamma_winner,
    grid_winners,
    min_stages,
    select_stage,
    stage_window,
)
from .tally import (
    StageTable,
    TableKind,
    count_votes,
    cumulate,
    score,
    sort_columns,
    stage_entropy,
)

__version__ = "0.1.0"
