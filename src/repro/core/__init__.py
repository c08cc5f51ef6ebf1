"""AdaFL — the paper's primary contribution.

Utility scoring (Eq. 6), adaptive node selection (Algorithm 1),
adaptive DGC compression scheduling, and the two AdaFL strategies.
"""

from repro.core.adafl import SCORE_REPORT_BYTES, AdaFLAsync, AdaFLConfig, AdaFLSync
from repro.core.compression_policy import AdaptiveCompressionPolicy
from repro.core.diagnostics import (
    GradientDispersion,
    alignment_with_mean,
    gradient_dispersion,
    pairwise_similarity,
)
from repro.core.fairness import coverage, fairness_report, jain_index, participation_counts
from repro.core.selection import (
    SelectionResult,
    reservoir_sample,
    select_from_scores,
)
from repro.core.utility import (
    SIMILARITY_METRICS,
    UtilityScorer,
    cosine_similarity,
    euclidean_similarity,
    l2_similarity,
)
from repro.core.zoo import (
    AdaGQConfig,
    AdaGQQuantization,
    AdaptiveFederatedDropout,
    AFDConfig,
)

__all__ = [
    "cosine_similarity",
    "l2_similarity",
    "euclidean_similarity",
    "SIMILARITY_METRICS",
    "UtilityScorer",
    "SelectionResult",
    "select_from_scores",
    "reservoir_sample",
    "AdaptiveCompressionPolicy",
    "participation_counts",
    "jain_index",
    "coverage",
    "fairness_report",
    "pairwise_similarity",
    "alignment_with_mean",
    "GradientDispersion",
    "gradient_dispersion",
    "AdaFLConfig",
    "AdaFLSync",
    "AdaFLAsync",
    "SCORE_REPORT_BYTES",
    "AFDConfig",
    "AdaptiveFederatedDropout",
    "AdaGQConfig",
    "AdaGQQuantization",
]
