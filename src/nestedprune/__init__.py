"""Trial pruning for hyperparameter search under nested cross-validation.

Combines three pruning layers (semantic, extrapolating threshold, and
asynchronous-halving comparison) with a trace-driven engine and benchmark
harness for comparing pruner variants on identical metric traces.
"""

from .bench import (
    BenchConfig,
    BenchReport,
    FalsePruneRecord,
    RepStats,
    VariantReport,
    classify_false_prunes,
    compare_pruners,
    emit_report,
    load_report,
)
from .engine import (
    CvShape,
    StepRecord,
    StudyReport,
    StudyState,
    TrialOutcome,
    TrialRuntimeState,
    TrialStatus,
    full_objective,
    run_study,
    run_trial,
)
from .errors import FormatError, InvalidTrialStateError, TraceFormatError
from .metrics import (
    Direction,
    ExtrapolationMethod,
    MetricHistory,
    extrapolate,
    median,
    trimmed_mean,
)
from .pruners import (
    CONTINUE,
    AshaConfig,
    Decision,
    PruneLayer,
    PrunerConfig,
    RungTable,
    asha_record_and_decide,
    asha_rung_resource,
    combined_decide,
    intermediate_value,
    reported_value_on_prune,
    rung_survivors,
    semantic_decide,
    threshold_decide,
    threshold_window_active,
)
from .trace import TraceGenConfig, TrialTrace, generate_cohort, read_traces, write_traces

__version__ = "0.1.0"

__all__ = [
    "AshaConfig",
    "BenchConfig",
    "BenchReport",
    "CONTINUE",
    "CvShape",
    "Decision",
    "Direction",
    "ExtrapolationMethod",
    "FalsePruneRecord",
    "FormatError",
    "InvalidTrialStateError",
    "MetricHistory",
    "PruneLayer",
    "PrunerConfig",
    "RepStats",
    "RungTable",
    "StepRecord",
    "StudyReport",
    "StudyState",
    "TraceFormatError",
    "TraceGenConfig",
    "TrialOutcome",
    "TrialRuntimeState",
    "TrialStatus",
    "TrialTrace",
    "VariantReport",
    "asha_record_and_decide",
    "asha_rung_resource",
    "classify_false_prunes",
    "combined_decide",
    "compare_pruners",
    "emit_report",
    "extrapolate",
    "full_objective",
    "generate_cohort",
    "intermediate_value",
    "load_report",
    "median",
    "read_traces",
    "reported_value_on_prune",
    "run_study",
    "run_trial",
    "rung_survivors",
    "semantic_decide",
    "threshold_decide",
    "threshold_window_active",
    "trimmed_mean",
    "write_traces",
]
