"""The three pruning layers and their combination.

A trial reports one validation metric per trained model while walking the
nested cross-validation grid. After every report the layers are consulted in
a fixed order, each covering a different stretch of the run:

* **semantic**: a model that selected zero features is useless for feature
  selection; such trials are cut from the very first step.
* **threshold**: inside an early activation window, an optimistic estimate
  of the current inner loop's final level is compared against a user-supplied
  minimum acceptable metric. Needs no peer trials, so it closes the gap
  before comparison pruning has enough data.
* **comparison**: asynchronous successive halving over smoothed intermediate
  values recorded at completed-inner-loop milestones ("rungs"); the worst
  fraction at each rung is cut without waiting for other trials to finish.

The first layer that fires wins, and a pruned trial stays pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import InvalidTrialStateError
from .metrics import (
    Direction,
    ExtrapolationMethod,
    as_history,
    median,
    trimmed_mean,
    validate_trim_fraction,
)

if TYPE_CHECKING:
    from .engine import CvShape, StepRecord, StudyState

# resources are completed inner loops; refuse rung requirements beyond i64
MAX_RUNG_RESOURCE = 2**63 - 1


class PruneLayer(Enum):
    SEMANTIC = "semantic"
    THRESHOLD = "threshold"
    COMPARISON = "comparison"


@dataclass(frozen=True)
class Decision:
    """Outcome of consulting the pruner after one step.

    ``layer`` is None for a continue decision. Threshold and comparison
    prunes carry the objective value handed back to the optimizer; semantic
    prunes carry none because the pruned model set is meaningless.
    """

    layer: PruneLayer | None = None
    reported_value: float | None = None

    def __post_init__(self) -> None:
        if self.layer in (PruneLayer.THRESHOLD, PruneLayer.COMPARISON):
            if self.reported_value is None:
                raise ValueError(f"{self.layer.value} prunes must report a value")
        elif self.reported_value is not None:
            raise ValueError("only threshold/comparison prunes report a value")

    @property
    def pruned(self) -> bool:
        return self.layer is not None


CONTINUE = Decision()


@dataclass(frozen=True)
class AshaConfig:
    """Asynchronous successive halving parameters, in completed-inner-loop units."""

    min_resource: int = 1
    reduction_factor: int = 3
    min_early_stopping_rate: int = 2
    bootstrap_count: int = 0

    def __post_init__(self) -> None:
        if self.min_resource < 1:
            raise ValueError("min_resource must be a positive integer")
        if self.reduction_factor < 2:
            raise ValueError("reduction_factor must be an integer >= 2")
        if self.min_early_stopping_rate < 0:
            raise ValueError("min_early_stopping_rate must be >= 0")
        if self.bootstrap_count < 0:
            raise ValueError("bootstrap_count must be >= 0")


@dataclass(frozen=True)
class PrunerConfig:
    """Full configuration of the combined pruner.

    ``threshold`` is the minimum acceptable metric from prior or domain
    knowledge and is required while the threshold layer is enabled. The
    ``*_enabled`` switches exist for ablation; disabled layers are skipped.
    """

    direction: Direction
    threshold: float | None = None
    extrapolation: ExtrapolationMethod = ExtrapolationMethod.MEAN_DEVIATION
    optimal_value: float = 0.0
    trim_fraction: float = 0.2
    min_threshold_steps: int = 4
    threshold_window_fraction: float = 1 / 3
    asha: AshaConfig = field(default_factory=AshaConfig)
    semantic_enabled: bool = True
    threshold_enabled: bool = True
    comparison_enabled: bool = True

    def __post_init__(self) -> None:
        validate_trim_fraction(self.trim_fraction)
        if self.min_threshold_steps < 4:
            raise ValueError("min_threshold_steps must be at least 4 (a median needs data)")
        if not 0.0 < self.threshold_window_fraction <= 1.0:
            raise ValueError("threshold_window_fraction must be in (0, 1]")
        if self.threshold_enabled:
            if self.threshold is None:
                raise ValueError("threshold is required while the threshold layer is enabled")
            if not math.isfinite(self.threshold):
                raise ValueError("threshold must be finite")
        if not math.isfinite(self.optimal_value):
            raise ValueError("optimal_value must be finite")


class RungTable:
    """Intermediate values recorded per rung, keyed by trial id. Append-only."""

    def __init__(self) -> None:
        self._rungs: dict[int, dict[str, float]] = {}

    def has(self, rung: int, trial_id: str) -> bool:
        return trial_id in self._rungs.get(rung, ())

    def record(self, rung: int, trial_id: str, value: float) -> None:
        bucket = self._rungs.setdefault(rung, {})
        if trial_id in bucket:
            raise InvalidTrialStateError(
                f"trial {trial_id!r} is already recorded at rung {rung}"
            )
        bucket[trial_id] = value

    def values_at(self, rung: int) -> dict[str, float]:
        """Snapshot of the rung's recorded values (insertion order)."""
        return dict(self._rungs.get(rung, {}))


def semantic_decide(step: "StepRecord") -> Decision:
    """Prune immediately when the step's model selected no features at all."""
    if step.selected_feature_count < 0:
        raise ValueError("selected_feature_count must be >= 0")
    if step.selected_feature_count == 0:
        return Decision(PruneLayer.SEMANTIC)
    return CONTINUE


def threshold_window_active(
    steps_observed: int,
    completed_outer: int,
    shape: "CvShape",
    config: PrunerConfig,
) -> bool:
    """Whether the threshold layer may act at this point of the nested CV.

    The window opens once enough measurements exist for a meaningful median
    (at least ``min_threshold_steps``, and no earlier than half the first
    inner loop) and closes after the configured fraction of outer iterations,
    when comparison pruning has become the more reliable judge.
    """
    if steps_observed < 0:
        raise ValueError("steps_observed must be >= 0")
    opens_at = max(config.min_threshold_steps, math.ceil(shape.inner_folds / 2))
    closes_at = math.ceil(config.threshold_window_fraction * shape.outer_folds)
    return steps_observed >= opens_at and completed_outer < closes_at


def threshold_decide(
    observed: Iterable[float], steps_missing: int, config: PrunerConfig
) -> Decision:
    """Prune if even an optimistic finish of the current inner loop looks unacceptable.

    ``observed`` holds every metric of the trial so far (a ``MetricHistory``
    or any sequence); only the current inner loop's ``steps_missing``
    remaining steps are extrapolated, never later inner loops. The estimate
    blends the median and the optimistic value by step counts,
    ``(median*done + optimistic*missing) / (done + missing)``, and is compared
    with the threshold in exact arithmetic. The caller is responsible for
    checking the activation window first.
    """
    if config.threshold is None:
        raise ValueError("threshold_decide requires a configured threshold")
    if steps_missing < 0:
        raise ValueError("steps_missing must be >= 0")
    history = as_history(observed)
    if history.estimate_is_worse(
        config.threshold,
        steps_missing,
        config.direction,
        config.extrapolation,
        config.optimal_value,
    ):
        reported = reported_value_on_prune(history, config.trim_fraction)
        return Decision(PruneLayer.THRESHOLD, reported_value=reported)
    return CONTINUE


def intermediate_value(
    completed_loop_metrics: Iterable[float], trim_fraction: float = 0.2
) -> float | None:
    """Pooled trimmed mean over all fully completed inner loops.

    Undefined (None) before the first inner loop completes; per-step values
    are too volatile to rank trials by.
    """
    if not completed_loop_metrics:
        return None
    return trimmed_mean(completed_loop_metrics, trim_fraction)


def asha_rung_resource(rung: int, config: AshaConfig) -> int:
    """Completed inner loops required before a trial records at ``rung``."""
    if rung < 0:
        raise ValueError("rung must be >= 0")
    resource = config.min_resource * config.reduction_factor ** (
        config.min_early_stopping_rate + rung
    )
    if resource > MAX_RUNG_RESOURCE:
        raise OverflowError(f"rung {rung} resource exceeds representable range")
    return resource


def _rung_cutoff(values: Sequence[float], direction: Direction, reduction_factor: int) -> float:
    keep = math.ceil(len(values) / reduction_factor)
    ranked = sorted(values, reverse=direction is Direction.MAXIMIZE)
    return ranked[keep - 1]


def rung_survivors(
    values: Mapping[str, float], direction: Direction, reduction_factor: int
) -> set[str]:
    """Trial ids ranking within the best ``ceil(n / reduction_factor)``; ties survive."""
    if not values:
        return set()
    cutoff = _rung_cutoff(list(values.values()), direction, reduction_factor)
    return {tid for tid, v in values.items() if not direction.is_worse(v, cutoff)}


def asha_record_and_decide(
    rungs: RungTable,
    trial_id: str,
    resource: int,
    value: float,
    direction: Direction,
    config: AshaConfig,
) -> Decision:
    """Record ``value`` at every rung newly reached and prune at the first losing rank.

    Rungs are visited in ascending order; ones the trial already sits on are
    skipped, so between milestones this returns Continue without re-judging.
    A rung holding fewer than ``bootstrap_count`` values never prunes. The
    decision uses only the values recorded at call time; nothing waits for
    trials still running elsewhere.
    """
    rung = 0
    while True:
        if asha_rung_resource(rung, config) > resource:
            return CONTINUE
        if not rungs.has(rung, trial_id):
            rungs.record(rung, trial_id, value)
            recorded = rungs.values_at(rung)
            if len(recorded) >= config.bootstrap_count:
                cutoff = _rung_cutoff(list(recorded.values()), direction, config.reduction_factor)
                if direction.is_worse(value, cutoff):
                    return Decision(PruneLayer.COMPARISON, reported_value=value)
        rung += 1


def reported_value_on_prune(observed: Iterable[float], trim_fraction: float = 0.2) -> float:
    """Representative objective handed to the optimizer when a trial is cut short.

    Trimmed mean once five or more measurements exist; below that the trim
    would drop nothing anyway, so the median is used for robustness.
    """
    history = as_history(observed)
    if len(history) >= 5:
        return trimmed_mean(history, trim_fraction)
    return median(history)


def combined_decide(study: "StudyState", trial_id: str, new_step: "StepRecord") -> Decision:
    """Consume the trial's next step and run the enabled layers in order.

    Layer order per step: semantic, then threshold inside its window, then,
    only at a completed-inner-loop boundary, the comparison layer on a fresh
    intermediate value, all under ``study.config``. The first prune wins and
    is recorded on the trial (``study.trials[trial_id].decision``); reporting
    further steps for a pruned or completed trial is an error.

    Calls are atomic with respect to the shared study state, so concurrent
    workers (one per trial) may report into one study.
    """
    config = study.config
    with study.lock:
        state = study.ensure_trial(trial_id)
        if not state.is_running:
            raise InvalidTrialStateError(
                f"trial {trial_id!r} is {state.status.value}; it cannot accept steps"
            )
        if new_step.trial_id != trial_id:
            raise InvalidTrialStateError(
                f"step for trial {new_step.trial_id!r} reported under {trial_id!r}"
            )
        inner = study.shape.inner_folds
        expected = divmod(state.steps_observed, inner)
        if (new_step.outer_idx, new_step.inner_idx) != expected:
            raise InvalidTrialStateError(
                f"trial {trial_id!r}: expected step (outer, inner)={expected}, "
                f"got ({new_step.outer_idx}, {new_step.inner_idx})"
            )

        state.history.pending.append(new_step.metric)
        state.steps_observed += 1
        completed_loops = state.steps_observed // inner
        at_loop_boundary = state.steps_observed % inner == 0

        decision = CONTINUE
        if config.semantic_enabled:
            decision = semantic_decide(new_step)
        if not decision.pruned and config.threshold_enabled:
            if threshold_window_active(state.steps_observed, completed_loops, study.shape, config):
                missing = -state.steps_observed % inner
                decision = threshold_decide(state.history, missing, config)
        if not decision.pruned and config.comparison_enabled and at_loop_boundary:
            value = intermediate_value(state.history, config.trim_fraction)
            decision = asha_record_and_decide(
                study.rungs, trial_id, completed_loops, value, config.direction, config.asha
            )

        if decision.pruned:
            state.mark_pruned(decision)
        elif state.steps_observed == study.shape.total_steps:
            state.mark_completed()
        return decision
