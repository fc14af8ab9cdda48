"""Membership inference attacks on released marginals of Bayesian-network populations."""

from .attacks import (
    ClipRange,
    choose_side,
    decide,
    inner_product_score,
    lrt_clipped_score,
    lrt_score,
    parse_attack,
    score,
)
from .harness import ExperimentConfig, run_experiment
from .inference import (
    ImpossibleEvidenceError,
    PosteriorEngine,
    brute_force_posterior,
    closed_form_product_ratio,
)
from .learning import ProxyDataset, empirical_marginals
from .model import (
    BayesianNetwork,
    EncodedVector,
    InvalidNetworkError,
    NodeSpec,
    Record,
    ReleasedCounts,
    SupportDistribution,
    attribute_marginals,
    dataset_counts,
    encode,
    output_marginal_law,
    sample,
    validate,
)
from .populations import (
    load_benchmark,
    make_half_repeated,
    make_lr_repeated,
    make_lr_side,
    make_product,
)

__all__ = [
    "BayesianNetwork",
    "ClipRange",
    "EncodedVector",
    "ExperimentConfig",
    "ImpossibleEvidenceError",
    "InvalidNetworkError",
    "NodeSpec",
    "PosteriorEngine",
    "ProxyDataset",
    "Record",
    "ReleasedCounts",
    "SupportDistribution",
    "attribute_marginals",
    "brute_force_posterior",
    "choose_side",
    "closed_form_product_ratio",
    "dataset_counts",
    "decide",
    "empirical_marginals",
    "encode",
    "inner_product_score",
    "load_benchmark",
    "lrt_clipped_score",
    "lrt_score",
    "make_half_repeated",
    "make_lr_repeated",
    "make_lr_side",
    "make_product",
    "output_marginal_law",
    "parse_attack",
    "run_experiment",
    "sample",
    "score",
    "validate",
]
