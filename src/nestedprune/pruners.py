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
import threading
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from .errors import InvalidTrialStateError, check_fields
from .metrics import (
    Direction,
    ExtrapolationMethod,
    MetricHistory,
    as_history,
    median,
    trimmed_mean,
    validate_trim_fraction,
)

if TYPE_CHECKING:
    from .engine import CvShape, StepRecord

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
        check_fields(self)
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
        check_fields(self)
        validate_trim_fraction(self.trim_fraction)
        if self.min_threshold_steps < 4:
            raise ValueError("min_threshold_steps must be at least 4 (a median needs data)")
        if not 0.0 < self.threshold_window_fraction <= 1.0:
            raise ValueError("threshold_window_fraction must be in (0, 1]")
        if self.threshold_enabled and self.threshold is None:
            raise ValueError("threshold is required while the threshold layer is enabled")


class RungTable:
    """Intermediate values recorded per rung, keyed by trial id. Append-only.

    Each rung is also kept as a sorted list, so its cutoff is one index.
    """

    def __init__(self) -> None:
        self._rungs: dict[int, dict[str, float]] = {}
        self._ranked: dict[int, list[float]] = {}

    def record(self, rung: int, trial_id: str, value: float) -> int:
        """Record ``value`` at ``rung`` and return how many values the rung now holds."""
        bucket = self._rungs.setdefault(rung, {})
        if trial_id in bucket:
            raise InvalidTrialStateError(
                f"trial {trial_id!r} is already recorded at rung {rung}"
            )
        bucket[trial_id] = value
        ranked = self._ranked.setdefault(rung, [])
        insort(ranked, value)
        return len(ranked)

    def values_at(self, rung: int) -> dict[str, float]:
        """Snapshot of the rung's recorded values (insertion order)."""
        return dict(self._rungs.get(rung, {}))

    def ranked(self, rung: int) -> list[float]:
        """Snapshot of the rung's recorded values in ascending order."""
        return list(self._ranked.get(rung, ()))

    def cutoff(self, rung: int, direction: Direction, reduction_factor: int) -> float:
        """Worst value still ranking within the best ``ceil(n / reduction_factor)``.

        A value survives the rung unless it is worse than the cutoff, so ties
        with the cutoff survive.
        """
        ranked = self._ranked.get(rung)
        if not ranked:
            raise ValueError(f"rung {rung} holds no values")
        keep = -(-len(ranked) // reduction_factor)
        return ranked[keep - 1] if direction is Direction.MINIMIZE else ranked[-keep]


def semantic_decide(step: "StepRecord") -> Decision:
    """Prune immediately when the step's model selected no features at all."""
    if step.selected_feature_count == 0:
        return Decision(PruneLayer.SEMANTIC)
    return CONTINUE


def _threshold_window(shape: "CvShape", config: PrunerConfig) -> tuple[int, int]:
    """``(opens_at, closes_at)``: steps observed that open it, completed loops that close it.

    The threshold layer may act once enough measurements exist for a
    meaningful median (at least ``min_threshold_steps``, and no earlier than
    half the first inner loop) and until the configured fraction of outer
    iterations is complete, when comparison pruning has become the more
    reliable judge.
    """
    opens_at = max(config.min_threshold_steps, math.ceil(shape.inner_folds / 2))
    closes_at = math.ceil(config.threshold_window_fraction * shape.outer_folds)
    return opens_at, closes_at


def threshold_decide(
    observed: Iterable[float], steps_missing: int, config: PrunerConfig
) -> Decision:
    """Prune if even an optimistic finish of the current inner loop looks unacceptable.

    ``observed`` holds every metric of the trial so far (a ``MetricHistory``
    or any sequence); only the current inner loop's ``steps_missing``
    remaining steps are extrapolated, never later inner loops. The estimate
    blends the median and the optimistic value by step counts,
    ``(median*done + optimistic*missing) / (done + missing)``, and is compared
    with the threshold in exact arithmetic. When neither the median nor the
    optimistic value is worse than the threshold, neither is the blend, and
    ``history.estimate_is_worse`` settles the step from the central values
    with no sums. The caller is responsible for checking the activation window
    first.
    """
    if config.threshold is None:
        raise ValueError("threshold_decide requires a configured threshold")
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


def asha_rung_resource(rung: int, config: AshaConfig) -> int:
    """Completed inner loops required before a trial records at ``rung``."""
    if rung < 0:
        raise ValueError("rung must be >= 0")
    exponent = config.min_early_stopping_rate + rung
    # a factor >= 2 puts every exponent >= 63 past the bound: refuse it before
    # building the power, which grows with the exponent
    if exponent >= 63:
        raise OverflowError(f"rung {rung} resource exceeds representable range")
    resource = config.min_resource * config.reduction_factor**exponent
    if resource > MAX_RUNG_RESOURCE:
        raise OverflowError(f"rung {rung} resource exceeds representable range")
    return resource


def _rung_points(shape: "CvShape", config: PrunerConfig) -> tuple[int, ...]:
    """The completed-loop count at which each rung a trial can reach is due, in rung order.

    Rung ``r`` is due at the ``r``-th count. Empty while the comparison layer is off.
    """
    points: list[int] = []
    if config.comparison_enabled:
        while (resource := asha_rung_resource(len(points), config.asha)) <= shape.outer_folds:
            points.append(resource)
    return tuple(points)


class TrialStatus(Enum):
    RUNNING = "running"
    COMPLETED = "completed"
    PRUNED = "pruned"


# members bound once: an Enum class attribute lookup costs about 120 ns per step
_RUNNING = TrialStatus.RUNNING
_COMPLETED = TrialStatus.COMPLETED
_PRUNED = TrialStatus.PRUNED


@dataclass
class TrialRuntimeState:
    """Per-trial bookkeeping that ``combined_decide`` creates and updates.

    ``decision`` is the prune that ended the trial (``CONTINUE`` otherwise).
    """

    steps_observed: int = 0
    history: MetricHistory = field(default_factory=MetricHistory)
    status: TrialStatus = TrialStatus.RUNNING
    decision: Decision = CONTINUE


@dataclass(frozen=True, eq=False)
class StudyState:
    """Cross-trial state that every trial of one study reports into.

    The fields cannot be reassigned, so ``shape`` and ``config`` are fixed for
    the study's life, and what follows from them alone is worked out once:
    ``threshold_window``, the ``(opens_at, closes_at)`` bounds of the
    threshold layer, and ``rung_points``, a tuple in rung order holding the
    completed-loop count at which each reachable rung is due (rung ``r`` at
    ``rung_points[r]``; empty while the comparison layer is off). ``lock`` serves
    live callers that report from several threads; replay is sequential.
    ``trials``, ``rungs`` and ``lock`` are made with the study and are its own.
    """

    shape: CvShape
    config: PrunerConfig
    trials: dict[str, TrialRuntimeState] = field(default_factory=dict, init=False)
    rungs: RungTable = field(default_factory=RungTable, init=False)
    lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)
    threshold_window: tuple[int, int] = field(init=False, repr=False)
    rung_points: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold_window", _threshold_window(self.shape, self.config))
        object.__setattr__(self, "rung_points", _rung_points(self.shape, self.config))


def asha_record_and_decide(
    rungs: RungTable,
    trial_id: str,
    rung: int,
    value: float,
    direction: Direction,
    config: AshaConfig,
) -> Decision:
    """Record ``value`` once at ``rung`` and prune if it ranks below the rung's cutoff.

    The study calls this at the step where ``rung`` is due
    (``study.rung_points[rung]``); a trial reaches its rungs one at a time, so
    it has recorded at every lower rung already, and recording twice at one
    rung is an error. A rung holding fewer than ``bootstrap_count`` values
    never prunes; otherwise the value is cut when it is worse than the rung's
    cutoff, so ties with the cutoff survive. The decision uses only the values
    recorded at call time; nothing waits for trials still running elsewhere.
    """
    if rungs.record(rung, trial_id, value) >= config.bootstrap_count:
        if direction.is_worse(value, rungs.cutoff(rung, direction, config.reduction_factor)):
            return Decision(PruneLayer.COMPARISON, reported_value=value)
    return CONTINUE


def reported_value_on_prune(observed: Iterable[float], trim_fraction: float = 0.2) -> float:
    """Representative objective handed to the optimizer when a trial is cut short.

    Trimmed mean once five or more measurements exist; below that the trim
    would drop nothing anyway, so the median is used for robustness.
    """
    history = as_history(observed)
    if len(history) >= 5:
        return trimmed_mean(history, trim_fraction)
    return median(history)


def combined_decide(study: StudyState, trial_id: str, new_step: "StepRecord") -> Decision:
    """Consume the trial's next step and run the enabled layers in order.

    Layer order per step: semantic, then threshold inside its window, then,
    only when the step completes an inner loop at a rung resource, the
    comparison layer on the trial's intermediate value (the trimmed mean of
    every metric of its completed loops), all under ``study.config``. The
    intermediate value is computed only there: per-step values are too
    volatile to rank trials by, and a trial advances one loop at a time and
    records once per rung, so no other step can record or prune. The window
    bounds and the rung schedule come from the study
    (``study.threshold_window``, ``study.rung_points``); the rung recorded at
    is the index of the completed-loop count in ``study.rung_points``. The
    first prune wins and is recorded on the trial
    (``study.trials[trial_id].decision``, with its ``status``); reporting
    further steps for a pruned or completed trial is an error.

    Calls hold ``study.lock``, so live callers may report from several
    threads (one per trial) into one study; replay calls from one thread.
    The lock is taken with ``acquire()`` and given back by ``release()`` in a
    ``finally`` on every exit: uncontended, that pair costs less than half of
    a ``with`` block, a large share of a step that only keeps books.
    """
    config = study.config
    lock = study.lock
    lock.acquire()
    try:
        state = study.trials.get(trial_id)
        if state is None:
            state = study.trials[trial_id] = TrialRuntimeState()
        if state.status is not _RUNNING:
            raise InvalidTrialStateError(
                f"trial {trial_id!r} is {state.status.value}; it cannot accept steps"
            )
        if new_step.trial_id != trial_id:
            raise InvalidTrialStateError(
                f"step for trial {new_step.trial_id!r} reported under {trial_id!r}"
            )
        inner = study.shape.inner_folds
        steps = state.steps_observed
        completed_loops, into_loop = divmod(steps, inner)
        if new_step.outer_idx != completed_loops or new_step.inner_idx != into_loop:
            raise InvalidTrialStateError(
                f"trial {trial_id!r}: expected step (outer, inner)="
                f"({completed_loops}, {into_loop}), "
                f"got ({new_step.outer_idx}, {new_step.inner_idx})"
            )

        state.history.pending.append(new_step.metric)
        steps += 1
        state.steps_observed = steps
        # the position after this step, carried from the one before it
        into_loop += 1
        if into_loop == inner:
            completed_loops += 1
            into_loop = 0

        decision = CONTINUE
        if config.semantic_enabled:
            decision = semantic_decide(new_step)
        if decision.layer is None and config.threshold_enabled:
            opens_at, closes_at = study.threshold_window
            if steps >= opens_at and completed_loops < closes_at:
                decision = threshold_decide(state.history, -steps % inner, config)
        if decision.layer is None and into_loop == 0 and completed_loops in study.rung_points:
            value = trimmed_mean(state.history, config.trim_fraction)
            rung = study.rung_points.index(completed_loops)
            decision = asha_record_and_decide(
                study.rungs, trial_id, rung, value, config.direction, config.asha
            )

        if decision.layer is not None:
            state.status = _PRUNED
            state.decision = decision
        elif steps == study.shape.total_steps:
            state.status = _COMPLETED
        return decision
    finally:
        lock.release()
