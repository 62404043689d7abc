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
    TrialOutcome,
    full_objective,
    run_study,
)
from .errors import FormatError, InvalidTrialStateError
from .metrics import (
    Direction,
    ExtrapolationMethod,
    MetricHistory,
    median,
    trimmed_mean,
)
from .pruners import (
    AshaConfig,
    Decision,
    PruneLayer,
    PrunerConfig,
    StudyState,
    TrialStatus,
    asha_record_and_decide,
    combined_decide,
    semantic_decide,
    threshold_decide,
)
from .trace import TraceGenConfig, TrialTrace, generate_cohort, read_traces, write_traces

__version__ = "0.1.0"

__all__ = [
    "AshaConfig",
    "BenchConfig",
    "BenchReport",
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
    "StepRecord",
    "StudyReport",
    "StudyState",
    "TraceGenConfig",
    "TrialOutcome",
    "TrialStatus",
    "TrialTrace",
    "VariantReport",
    "asha_record_and_decide",
    "classify_false_prunes",
    "combined_decide",
    "compare_pruners",
    "emit_report",
    "full_objective",
    "generate_cohort",
    "load_report",
    "median",
    "read_traces",
    "run_study",
    "semantic_decide",
    "threshold_decide",
    "trimmed_mean",
    "write_traces",
]
