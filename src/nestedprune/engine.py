"""Drives trials through the nested cross-validation grid against shared study state.

No model is ever trained here: trials replay pre-recorded (or synthetic)
per-step metrics, which makes pruner variants directly comparable on
identical data. Each consumed step stands for one trained model, the cost
unit all reports count in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .errors import FormatError, InvalidTrialStateError, check_fields
from .metrics import Direction, trimmed_mean
from .pruners import (
    CONTINUE,
    PruneLayer,
    PrunerConfig,
    StudyState,
    TrialStatus,
    combined_decide,
)

if TYPE_CHECKING:
    from .trace import TrialTrace


@dataclass(frozen=True)
class CvShape:
    """Outer and inner fold counts of the nested cross-validation."""

    outer_folds: int
    inner_folds: int

    def __post_init__(self) -> None:
        check_fields(self)
        if self.outer_folds < 2 or self.inner_folds < 2:
            raise ValueError("outer_folds and inner_folds must both be >= 2")

    @cached_property
    def total_steps(self) -> int:
        return self.outer_folds * self.inner_folds

    @cached_property
    def positions(self) -> tuple[tuple[int, int], ...]:
        """Every ``(outer, inner)`` grid position, in row-major order."""
        return tuple(divmod(index, self.inner_folds) for index in range(self.total_steps))


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One trained model's validation outcome at an (outer, inner) grid position."""

    trial_id: str
    outer_idx: int
    inner_idx: int
    metric: float
    selected_feature_count: int

    # Written out (dataclass keeps a class's own __init__) to fill the slots
    # through their descriptors, at less cost than the object.__setattr__ calls
    # a generated one makes; tests hold its parameters to the fields.
    def __init__(
        self,
        trial_id: str,
        outer_idx: int,
        inner_idx: int,
        metric: float,
        selected_feature_count: int,
    ) -> None:
        # exactly int, as TrialTrace holds its counts: a bool or a float is refused
        if not type(outer_idx) is type(inner_idx) is type(selected_feature_count) is int:
            for name, value in zip(_INT_FIELDS, (outer_idx, inner_idx, selected_feature_count)):
                if type(value) is not int:
                    raise TypeError(f"{name} must be an int, got {value!r}")
        if outer_idx < 0 or inner_idx < 0:
            raise ValueError("fold indices must be >= 0")
        try:
            finite = _isfinite(metric)
        except OverflowError:
            raise ValueError("metric must be finite, got an int no float can hold") from None
        if not finite:
            raise ValueError(f"metric must be finite, got {metric}")
        if selected_feature_count < 0:
            raise ValueError("selected_feature_count must be >= 0")
        _set_trial_id(self, trial_id)
        _set_outer(self, outer_idx)
        _set_inner(self, inner_idx)
        _set_metric(self, metric)
        _set_count(self, selected_feature_count)


_INT_FIELDS = ("outer_idx", "inner_idx", "selected_feature_count")
_isfinite = math.isfinite
_new_step = object.__new__
_set_trial_id, _set_outer, _set_inner, _set_metric, _set_count = (
    StepRecord.__dict__[name].__set__ for name in StepRecord.__slots__
)


def _step_from_checked(
    trial_id: str, outer: int, inner: int, metric: float, count: int
) -> StepRecord:
    """A ``StepRecord`` from values already checked, without running the constructor's checks.

    Only for values out of a ``TrialTrace``'s columns, which its own check has
    held to finite metrics and counts >= 0, at a position of
    ``CvShape.positions``. The slots are filled through their descriptors, so
    the record stays frozen and equals, and hashes as, ``StepRecord(...)``.
    """
    step = _new_step(StepRecord)
    _set_trial_id(step, trial_id)
    _set_outer(step, outer)
    _set_inner(step, inner)
    _set_metric(step, metric)
    _set_count(step, count)
    return step


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

    trial_id = trace.trial_id
    decision = CONTINUE
    new_step = _step_from_checked
    columns = zip(trace.shape.positions, trace.metrics, trace.features)
    for (outer, inner), metric, count in columns:
        step = new_step(trial_id, outer, inner, metric, count)
        decision = combined_decide(study, trial_id, step)
        if decision.layer is not None:
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
        models_trained=state.steps_observed,
        reported_value=reported,
    )


def check_cohort(cohort: Sequence["TrialTrace"]) -> None:
    """Raise ``FormatError`` unless the cohort is non-empty, of one shape and of distinct ids."""
    if not cohort:
        raise FormatError("cohort must contain at least one trial")
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


def run_study(cohort: Sequence["TrialTrace"], config: PrunerConfig) -> StudyReport:
    """Run a cohort's trials one after another, in cohort order, against one study state.

    No parallel schedule would decide otherwise: handing trials out in cohort
    order, each advancing one model per turn, fills every rung in cohort order.
    """
    check_cohort(cohort)
    study = StudyState(shape=cohort[0].shape, config=config)
    outcomes = [run_trial(study, trace) for trace in cohort]

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
    return trimmed_mean(trace.metrics, trim_fraction)
