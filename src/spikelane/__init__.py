"""Spiking-network lane-change intention classification.

A small leaky integrate-and-fire network reads 3-second windows of vehicle
state features and predicts whether the driver intends to keep the lane or
change left or right.  The package covers the full batch pipeline: synthetic
data generation, trajectory ingestion and windowing, surrogate-gradient
training, evaluation, and efficiency benchmarking, with a CLI over all of it.
"""

from .bench import BenchReport, format_bench_report, make_bench_report, write_bench_report
from .checkpoint import load_model, model_from_bytes, model_to_bytes, save_model
from .dataset import (
    DIRECTION_LEFT,
    DIRECTION_RIGHT,
    FEATURE_NAMES,
    LABEL_KEEP,
    LABEL_LEFT,
    LABEL_NAMES,
    LABEL_RIGHT,
    DatasetSplit,
    LaneChangeEvent,
    NormStats,
    Trajectory,
    WindowConfig,
    WindowSample,
    WindowSet,
    apply_normalizer,
    build_windows,
    downsample_factor,
    fit_normalizer,
    label_frames,
    load_norm_stats,
    parse_trajectories,
    save_norm_stats,
    split_by_vehicle,
    stack_windows,
    write_trajectories_csv,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DegenerateFeatureError,
    DegenerateLabelsError,
    DivergenceError,
    NumericError,
    ParseError,
    ShapeError,
    SpikeLaneError,
    SplitError,
    UsageError,
)
from .evaluation import (
    EvalReport,
    RocCurve,
    TimelineEntry,
    TimelineReport,
    confusion_and_accuracy,
    detect_runs,
    evaluate,
    predict,
    roc_curve,
    timeline_predict,
    write_eval_report,
    write_timeline_csv,
)
from .model import (
    ForwardCache,
    Gradients,
    LifConfig,
    LinearLayer,
    Model,
    backward,
    backward_batch,
    flatten_params,
    forward,
    forward_batch,
    lif_forward,
    model_params,
    new_model,
    nll_loss,
    param_count,
    replace_params,
    score,
    softmax_logprobs,
    split_params,
    surrogate_grad,
)
from .synth import synthesize_dataset
from .training import (
    AdamState,
    EpochLog,
    TrainConfig,
    init_optimizer_state,
    load_train_config,
    optimizer_step,
    train,
    write_training_log,
)

__version__ = "0.1.0"
