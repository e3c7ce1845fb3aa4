"""Moment bounds for overlap (deviation-count) statistics, with verification.

The package quantifies how often a family of rare events occurs: given a
decay model for the event probabilities it computes exact identities,
moment bounds and tail bounds for the overlap count, verifies them against
exact small-instance distributions and a deterministic Monte-Carlo engine,
and applies the machinery to classical almost-sure limit theorems.
"""

from .bounds import (
    BoundResult,
    ExactOverlapDistribution,
    exp_moment_bound,
    freedman_exp_bound,
    freedman_tail_bound,
    general_moment_bound,
    geometric_tail_bound,
    improved_exp_bound,
    nested_moment_identity,
    poly_moment_bound,
    powerlaw_tail_asymptotic,
    rate_aware_exp_bound,
    second_moment_bound,
    sn_exact_distribution,
)
from .engine import (
    EmpiricalMoment,
    EventFamilySpec,
    OverlapSample,
    choose_truncation,
    empirical_moment,
    read_sample_jsonl,
    simulate_overlap,
    write_sample_jsonl,
)
from .errors import (
    DivergenceError,
    DomainError,
    FunctionalOverflowError,
    InputError,
    NonConvergenceError,
    OverlapBoundsError,
    TruncationError,
)
from .series import (
    DecayModel,
    Explicit,
    Geometric,
    PowerLaw,
    SeriesValue,
    TailFunction,
    WeightSequence,
    bernoulli_numbers,
    faulhaber_sum,
    lambert_w0,
    tail_sum,
    weighted_tail_closed_form,
    weighted_tail_series,
    zeta,
)

__version__ = "0.1.0"
