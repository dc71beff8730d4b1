"""Instance-based schema matching and cross-database translation.

Given two tabular databases that share a handful of known-mapped columns, the
toolkit proposes a correspondence between the remaining columns, filters the
proposals for false discoveries on held-out rows, and trains paired
autoencoders that translate rows from one schema into the other.
"""

from .core import (
    Dataset,
    FeatureMeta,
    ScenarioSpec,
    impute_simple,
    load_dataset,
    one_hot_encode,
    reorder_mapped_first,
    unit_norm,
)
from .chimeric import ChimericConfig, ChimericModel, TrainingDiverged
from .kang import KangConfig
from .kmf import Fingerprint, PromotionPolicy
from .matcher import MatchProposal, gale_shapley, holdout_filter
from .pipeline import (
    ExperimentConfig,
    MatchSettings,
    evaluate,
    run_benchmark,
    run_method,
    tune_hyperparams,
)
from .stats import (
    SimilarityMatrix,
    by_stepdown,
    cosine,
    mutual_information,
    pearson,
    pearson_pvalue,
    wilcoxon_ranksum,
)

__version__ = "0.1.0"

__all__ = [
    "ChimericConfig",
    "ChimericModel",
    "Dataset",
    "ExperimentConfig",
    "FeatureMeta",
    "Fingerprint",
    "KangConfig",
    "MatchProposal",
    "MatchSettings",
    "PromotionPolicy",
    "ScenarioSpec",
    "SimilarityMatrix",
    "TrainingDiverged",
    "by_stepdown",
    "cosine",
    "evaluate",
    "gale_shapley",
    "holdout_filter",
    "impute_simple",
    "load_dataset",
    "mutual_information",
    "one_hot_encode",
    "pearson",
    "pearson_pvalue",
    "reorder_mapped_first",
    "run_benchmark",
    "run_method",
    "tune_hyperparams",
    "unit_norm",
    "wilcoxon_ranksum",
]
