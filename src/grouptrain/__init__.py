"""Group-robust training on small classifiers: ERM, two-stage error-set
upweighting, CVaR-style batch reweighting, LfF, group DRO and minority
upsampling, plus synthetic spurious-correlation benchmarks, error-set
diagnostics and a tuning harness."""

__version__ = "0.1.0"

from .analysis import (
    EnrichmentTable,
    ErrorSet,
    ErrorSetStats,
    GroupMetrics,
    enrichment_table,
    error_set_stats,
    evaluate_groups,
    group_metrics,
    replace_error_set,
    track_cvar_composition,
)
from .data import (
    Dataset,
    GroupId,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    strip_group_annotations,
    subsample_validation,
)
from .models import (
    Architecture,
    LossSpec,
    Model,
    OptimizerState,
    forward_batch,
    grad,
    init_model,
    loss_values,
    predict,
    sgd_step,
)
from .trainers import (
    ALGORITHMS,
    TrainConfig,
    TrainResult,
    compute_error_set,
    cvar_batch_weights,
    group_dro_update,
    lff_weight,
    train,
    train_upweighted,
)
from .tuning import Grid, SweepResult, grid_sweep, validation_size_study
