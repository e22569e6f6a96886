"""Multiparty model reuse via density-weighted posterior aggregation.

Each party trains a classifier and a density estimator on its own biased
shard. The ensemble weights every party's zero-filled class posterior by its
shard prior and per-query density to decide globally, and the whole composite
can be calibrated end-to-end with a shared cross-entropy-style loss under
optional gradient clipping and noising.
"""

from .calibration import (
    CalibrationConfig,
    ClipConfig,
    TraceRow,
    calibrate,
    clip_and_noise,
    ensemble_accuracy,
    mpce_grad,
)
from .classifiers import (
    MlpClassifier,
    SoftmaxRegression,
    train,
)
from .datasets import (
    LocalDataset,
    PartitionSpec,
    PartyRule,
    generate_toy,
    partition,
    read_csv,
    split_train_test,
    write_csv,
)
from .density import GmmModel, KdeModel, gmm_fit, kde_fit
from .ensemble import (
    EnsembleModel,
    ObjectiveMatrix,
    PartyModel,
    build_ensemble,
    decide,
    evaluate_objective,
    lambda_weights,
    max_model_decide,
    posterior,
)
from .harness import (
    ExperimentConfig,
    MetricsReport,
    load_config,
    run_experiment,
    sweep,
    sweep_summary,
)

__version__ = "0.1.0"
