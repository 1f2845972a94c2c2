"""mvclust: entropy-regularized multi-view fuzzy clustering.

Soft clustering over several feature views at once, with per-feature
dispersion scaling, simplex-constrained feature and view weights, an optional
adaptive pruning mode that discards uninformative features and views during
the solve, a deterministic synthetic benchmark, external agreement metrics,
and a seeded multi-trial experiment harness.
"""

__version__ = "0.1.0"

from .aamvfcm import fit as fit_pruning
from .amvfcm import ActiveMask, ClusterModel, FitResult, HyperParams, RemovalEvent
from .amvfcm import fit as fit_full
from .data import (
    DatasetError,
    MultiViewDataset,
    load_dataset,
    save_dataset,
    validate,
)
from .harness import ExperimentConfig, RunReport, SynthSource, emit_report, run_experiment
from .metrics import PairCounts, pair_counts, score_all
from .snr import compute_delta
from .synth import GmmSpec, NoiseSpec, append_noise, default_benchmark_spec, generate

__all__ = [
    "ActiveMask",
    "ClusterModel",
    "DatasetError",
    "ExperimentConfig",
    "FitResult",
    "GmmSpec",
    "HyperParams",
    "MultiViewDataset",
    "NoiseSpec",
    "PairCounts",
    "RemovalEvent",
    "RunReport",
    "SynthSource",
    "append_noise",
    "compute_delta",
    "default_benchmark_spec",
    "emit_report",
    "fit_full",
    "fit_pruning",
    "generate",
    "load_dataset",
    "pair_counts",
    "run_experiment",
    "save_dataset",
    "score_all",
    "validate",
    "__version__",
]
