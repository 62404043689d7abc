"""Drives trials through the nested cross-validation grid against shared study state.

No model is ever trained here: trials replay pre-recorded (or synthetic)
per-step metrics, which makes pruner variants directly comparable on
identical data. Each consumed step stands for one trained model, the cost
unit all reports count in.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .errors import FormatError, InvalidTrialStateError
from .metrics import Direction, MetricHistory, trimmed_mean
from .pruners import CONTINUE, Decision, PruneLayer, PrunerConfig, RungTable, combined_decide

if TYPE_CHECKING:
    from .trace import TrialTrace


@dataclass(frozen=True)
class CvShape:
    """Outer and inner fold counts of the nested cross-validation."""

    outer_folds: int
    inner_folds: int

    def __post_init__(self) -> None:
        if self.outer_folds < 2 or self.inner_folds < 2:
            raise ValueError("outer_folds and inner_folds must both be >= 2")

    @property
    def total_steps(self) -> int:
        return self.outer_folds * self.inner_folds


@dataclass(frozen=True)
class StepRecord:
    """One trained model's validation outcome at an (outer, inner) grid position."""

    trial_id: str
    outer_idx: int
    inner_idx: int
    metric: float
    selected_feature_count: int

    def __post_init__(self) -> None:
        if self.outer_idx < 0 or self.inner_idx < 0:
            raise ValueError("fold indices must be >= 0")
        if not math.isfinite(self.metric):
            raise ValueError(f"metric must be finite, got {self.metric}")
        if self.selected_feature_count < 0:
            raise ValueError("selected_feature_count must be >= 0")


class TrialStatus(Enum):
    RUNNING = "running"
    COMPLETED = "completed"
    PRUNED = "pruned"


@dataclass
class TrialRuntimeState:
    """Mutable per-trial bookkeeping while its steps are consumed."""

    steps_observed: int = 0
    history: MetricHistory = field(default_factory=MetricHistory)
    status: TrialStatus = TrialStatus.RUNNING
    decision: Decision = CONTINUE

    @property
    def is_running(self) -> bool:
        return self.status is TrialStatus.RUNNING

    @property
    def models_trained(self) -> int:
        return self.steps_observed

    def mark_pruned(self, decision: Decision) -> None:
        self.status = TrialStatus.PRUNED
        self.decision = decision

    def mark_completed(self) -> None:
        self.status = TrialStatus.COMPLETED


@dataclass(eq=False)
class StudyState:
    """Shared cross-trial state that concurrent trial workers report into."""

    shape: CvShape
    config: PrunerConfig
    trials: dict[str, TrialRuntimeState] = field(default_factory=dict)
    rungs: RungTable = field(default_factory=RungTable)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def ensure_trial(self, trial_id: str) -> TrialRuntimeState:
        state = self.trials.get(trial_id)
        if state is None:
            state = TrialRuntimeState()
            self.trials[trial_id] = state
        return state


@dataclass(frozen=True)
class TrialOutcome:
    trial_id: str
    status: TrialStatus
    pruned_layer: PruneLayer | None
    models_trained: int
    reported_value: float | None


@dataclass(frozen=True)
class StudyReport:
    """Per-trial outcomes plus study-level totals for one pruner configuration."""

    workers: int
    outcomes: tuple[TrialOutcome, ...]
    models_trained_total: int
    semantic_prunes: int
    threshold_prunes: int
    comparison_prunes: int
    completed: int
    best_trial_id: str | None
    best_value: float | None


def run_trial(study: StudyState, trace: "TrialTrace") -> TrialOutcome:
    """Replay one trial's steps through the pruner, stopping at the first prune.

    Completed trials report the trimmed mean over their full run; pruned
    trials report whatever their pruning decision carried. The trace itself
    is never modified.
    """
    if trace.shape != study.shape:
        raise FormatError(
            f"trial {trace.trial_id!r} has shape {trace.shape}, study expects {study.shape}"
        )
    if trace.trial_id in study.trials:
        raise InvalidTrialStateError(f"trial {trace.trial_id!r} already ran in this study")

    decision = CONTINUE
    for step in trace.steps:
        decision = combined_decide(study, trace.trial_id, step)
        if decision.pruned:
            break

    state = study.trials[trace.trial_id]
    if state.status is TrialStatus.COMPLETED:
        reported = trimmed_mean(state.history, study.config.trim_fraction)
    else:
        reported = decision.reported_value
    return TrialOutcome(
        trial_id=trace.trial_id,
        status=state.status,
        pruned_layer=decision.layer,
        models_trained=state.models_trained,
        reported_value=reported,
    )


def run_study(
    cohort: Sequence["TrialTrace"], config: PrunerConfig, workers: int = 1
) -> StudyReport:
    """Run a cohort of trials against one shared study state.

    With ``workers=1`` trials run sequentially in cohort order and the result
    is fully deterministic. With more workers trials run concurrently; rung
    contents then depend on arrival order across trials, which is inherent to
    asynchronous halving, so the report records the worker count.
    """
    if not cohort:
        raise FormatError("cohort must contain at least one trial")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    seen: set[str] = set()
    for trace in cohort:
        if trace.trial_id in seen:
            raise FormatError(f"duplicate trial id {trace.trial_id!r} in cohort")
        seen.add(trace.trial_id)
        if trace.shape != cohort[0].shape:
            raise FormatError(
                f"trial {trace.trial_id!r} shape {trace.shape} differs from cohort shape "
                f"{cohort[0].shape}"
            )

    study = StudyState(shape=cohort[0].shape, config=config)
    if workers == 1:
        outcomes = [run_trial(study, trace) for trace in cohort]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda trace: run_trial(study, trace), cohort))

    by_layer = {layer: 0 for layer in PruneLayer}
    completed = 0
    for outcome in outcomes:
        if outcome.status is TrialStatus.COMPLETED:
            completed += 1
        elif outcome.pruned_layer is not None:
            by_layer[outcome.pruned_layer] += 1

    scored = [o for o in outcomes if o.reported_value is not None]
    best = None
    if scored:
        if config.direction is Direction.MINIMIZE:
            best = min(scored, key=lambda o: o.reported_value)
        else:
            best = max(scored, key=lambda o: o.reported_value)

    return StudyReport(
        workers=workers,
        outcomes=tuple(outcomes),
        models_trained_total=sum(o.models_trained for o in outcomes),
        semantic_prunes=by_layer[PruneLayer.SEMANTIC],
        threshold_prunes=by_layer[PruneLayer.THRESHOLD],
        comparison_prunes=by_layer[PruneLayer.COMPARISON],
        completed=completed,
        best_trial_id=best.trial_id if best else None,
        best_value=best.reported_value if best else None,
    )


def full_objective(trace: "TrialTrace", trim_fraction: float = 0.2) -> float:
    """Ground-truth objective of a trial: trimmed mean over the entire grid."""
    if len(trace.steps) != trace.shape.total_steps:
        raise FormatError(
            f"trial {trace.trial_id!r} is incomplete: {len(trace.steps)} of "
            f"{trace.shape.total_steps} steps"
        )
    return trimmed_mean([step.metric for step in trace.steps], trim_fraction)
