"""Adaptive dictatorship tests on the boolean hypercube.

The acceptance probabilities of the four-query basic test and of the
hypergraph test are computed exactly (from Fourier and Gowers identities),
spectrally and by Monte Carlo; ``python -m dictatest`` runs them, the Gowers
inner products and the influential-pair decoder as seeded experiments with
CSV or JSON reports."""

from .errors import DictatestError, GuardExceeded, InvariantViolation, SpecParseError
from .families import (
    build_family,
    dictator,
    load_family,
    majority,
    noisy_dictator,
    parity,
    parse_fnspec,
    planted_decoder_family,
    random_family,
    random_folded,
)
from .fourier import (
    Spectrum,
    hamming_weights,
    influence,
    low_degree_influence,
    spectrum_counts,
    subset_zeta,
    wht,
)
from .functions import (
    BooleanFunction,
    FoldedOracle,
    RealPointFunction,
    folded_table,
    is_folded,
    make_folded,
    refold,
    table_from_hex,
    table_to_hex,
)
from .gowers import (
    IndexedFamily,
    find_influential_pair,
    gowers_inner_product_exact,
    gowers_inner_product_mc,
    linear_gowers_inner_product_exact,
    linear_gowers_inner_product_mc,
)
from .stats import wilson_interval
from .testers import (
    FunctionFamily,
    Hypergraph,
    QueryRecord,
    TestTranscript,
    basic_test_prob_exact,
    basic_test_prob_fourier,
    complete_hypergraph,
    htest_prob_exact,
    htest_prob_mc,
    noise_and_operator,
    noisy_spectrum_law_deviation,
    query_budget,
    run_hypergraph_test,
    soundness_identity_holds,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanFunction",
    "DictatestError",
    "FoldedOracle",
    "FunctionFamily",
    "GuardExceeded",
    "Hypergraph",
    "IndexedFamily",
    "InvariantViolation",
    "QueryRecord",
    "RealPointFunction",
    "SpecParseError",
    "Spectrum",
    "TestTranscript",
    "basic_test_prob_exact",
    "basic_test_prob_fourier",
    "build_family",
    "complete_hypergraph",
    "dictator",
    "find_influential_pair",
    "folded_table",
    "gowers_inner_product_exact",
    "gowers_inner_product_mc",
    "hamming_weights",
    "htest_prob_exact",
    "htest_prob_mc",
    "influence",
    "is_folded",
    "linear_gowers_inner_product_exact",
    "linear_gowers_inner_product_mc",
    "load_family",
    "low_degree_influence",
    "majority",
    "make_folded",
    "noise_and_operator",
    "noisy_dictator",
    "noisy_spectrum_law_deviation",
    "parity",
    "parse_fnspec",
    "planted_decoder_family",
    "query_budget",
    "random_family",
    "random_folded",
    "refold",
    "run_hypergraph_test",
    "soundness_identity_holds",
    "spectrum_counts",
    "subset_zeta",
    "table_from_hex",
    "table_to_hex",
    "wht",
    "wilson_interval",
]
