"""Synthetic cohort generation and the trace CSV interchange format.

Trace files are UTF-8 CSV with LF line endings, header
``trial_id,outer_fold,inner_fold,metric,n_selected_features`` and one row per
trained model in row-major order (all inner folds of outer fold 0, then outer
fold 1, ...). Metrics are written with 17 significant digits so a round trip
preserves them bit for bit. A cohort is either one combined file or a
directory of per-trial ``*.csv`` files; writing emits the combined form by
default.

Users with real data record their per-fold validation metrics in this format
from their own training loop and feed the file to ``replay``/``bench``.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
from pathlib import Path
from typing import Iterable, Sequence

from .engine import CvShape, StepRecord, _step_from_checked
from .errors import TraceFormatError, check_fields, not_utf8
from .metrics import Direction

TRACE_HEADER = ("trial_id", "outer_fold", "inner_fold", "metric", "n_selected_features")


@dataclass(frozen=True)
class TraceGenConfig:
    """Synthetic cohort parameters.

    Each trial draws a base quality level uniformly from
    ``[base_min, base_max]``; steps add Gaussian noise and, with
    ``outlier_prob``, a spike of ``outlier_magnitude`` in the pessimistic
    direction (both directions when ``symmetric_outliers`` is set). A trial is
    a zero-selected-features trial with probability ``zero_feature_prob``;
    such models predict a constant, so their base is pinned to the worst end
    of the quality spread. Minimized metrics are clamped at zero, mirroring
    logloss.
    """

    trials: int
    shape: CvShape
    seed: int
    base_min: float = 0.2
    base_max: float = 0.9
    noise_sd: float = 0.15
    outlier_prob: float = 0.05
    outlier_magnitude: float = 1.0
    zero_feature_prob: float = 0.10
    direction: Direction = Direction.MINIMIZE
    symmetric_outliers: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.base_min <= self.base_max:
            raise ValueError("base_min must not exceed base_max")
        for name in ("outlier_prob", "zero_feature_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if self.outlier_magnitude < 0:
            raise ValueError("outlier_magnitude must be >= 0")


@dataclass(frozen=True, init=False)
class TrialTrace:
    """One trial over the full grid, as two columns in row-major order.

    ``metrics[i]`` and ``features[i]`` (the selected-feature count) belong to
    grid position ``shape.positions[i]``. The columns are checked once, in
    bulk, when the trace is made: one value per grid position, every metric
    finite, every count >= 0. ``TrialTrace(trial_id, shape, steps)`` takes
    ``StepRecord``s instead, checks their ids and positions, and derives the
    columns from them. ``steps`` gives the ``StepRecord``s back.
    """

    trial_id: str
    shape: CvShape
    metrics: tuple[float, ...]
    features: tuple[int, ...]

    def __init__(
        self,
        trial_id: str,
        shape: CvShape,
        steps: Sequence[StepRecord] | None = None,
        *,
        metrics: Sequence[float] | None = None,
        features: Sequence[int] | None = None,
    ) -> None:
        if steps is not None:
            if metrics is not None or features is not None:
                raise TypeError("a trace takes either steps, or metrics and features")
            steps = tuple(steps)
            _check_steps(trial_id, shape, steps)
            metrics = [step.metric for step in steps]
            features = [step.selected_feature_count for step in steps]
            object.__setattr__(self, "steps", steps)
        elif metrics is None or features is None:
            raise TypeError("a trace takes either steps, or metrics and features")
        object.__setattr__(self, "trial_id", trial_id)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "metrics", tuple(metrics))
        object.__setattr__(self, "features", tuple(features))
        self._check_columns()

    def _check_columns(self) -> None:
        total = self.shape.total_steps
        for name, column in (("metrics", self.metrics), ("feature counts", self.features)):
            if len(column) != total:
                raise TraceFormatError(
                    f"trial {self.trial_id!r} has {len(column)} {name}, expected {total}"
                )
        if not all(map(math.isfinite, self.metrics)):
            bad = next(filterfalse(math.isfinite, self.metrics))
            position = self.shape.positions[self.metrics.index(bad)]
            raise TraceFormatError(
                f"trial {self.trial_id!r}: metric at step {position} must be finite, got {bad}"
            )
        if min(self.features) < 0:
            index = next(i for i, count in enumerate(self.features) if count < 0)
            raise TraceFormatError(
                f"trial {self.trial_id!r}: selected_feature_count at step "
                f"{self.shape.positions[index]} must be >= 0, got {self.features[index]}"
            )

    @cached_property
    def steps(self) -> tuple[StepRecord, ...]:
        """The steps as ``StepRecord``s: built from the columns on first read, then kept.

        The columns are already checked, so the records are built without
        checking them again. A trace made from steps keeps the tuple it was given.
        """
        trial_id = self.trial_id
        return tuple(
            _step_from_checked(trial_id, outer, inner, metric, count)
            for (outer, inner), metric, count in zip(
                self.shape.positions, self.metrics, self.features
            )
        )


def _check_steps(trial_id: str, shape: CvShape, steps: tuple[StepRecord, ...]) -> None:
    if len(steps) != shape.total_steps:
        raise TraceFormatError(
            f"trial {trial_id!r} has {len(steps)} steps, expected {shape.total_steps}"
        )
    for index, (step, expected) in enumerate(zip(steps, shape.positions)):
        if step.trial_id != trial_id:
            raise TraceFormatError(
                f"step {index} of trial {trial_id!r} carries id {step.trial_id!r}"
            )
        if (step.outer_idx, step.inner_idx) != expected:
            raise TraceFormatError(
                f"trial {trial_id!r}: step {index} is "
                f"({step.outer_idx}, {step.inner_idx}), expected {expected}"
            )


def generate_cohort(config: TraceGenConfig) -> list[TrialTrace]:
    """Generate a deterministic cohort; identical configs yield identical cohorts.

    The draws are spelled out rather than left to ``random.gauss`` and
    ``random.randint``, in the order and arithmetic those use, so the cohort
    is the same bytes and does not depend on how a Python version implements
    them. Per trial: the base (``uniform``), then the zero-feature draw. Per
    step: the noise, the outlier draw, the outlier's sign (symmetric outliers
    only) and the feature count (trials with features only).
    """
    rng = random.Random(config.seed)
    draw, bits = rng.random, rng.getrandbits
    log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
    two_pi = 2.0 * math.pi
    minimize = config.direction is Direction.MINIMIZE
    worst_base = config.base_max if minimize else config.base_min
    noise_sd, outlier_prob = config.noise_sd, config.outlier_prob
    spike = config.outlier_magnitude if minimize else -config.outlier_magnitude
    symmetric = config.symmetric_outliers
    total = config.shape.total_steps
    # Normals come in Box-Muller pairs from two uniforms; the second of a pair
    # is kept for the next step, across trials too, as ``random.gauss`` keeps it.
    spare = None
    cohort: list[TrialTrace] = []
    for index in range(config.trials):
        base = rng.uniform(config.base_min, config.base_max)
        zero_features = draw() < config.zero_feature_prob
        if zero_features:
            base = worst_base
        metrics: list[float] = []
        features: list[int] = [0] * total if zero_features else []
        for _ in range(total):
            if spare is None:
                angle = draw() * two_pi
                radius = sqrt(-2.0 * log(1.0 - draw()))
                z = cos(angle) * radius
                spare = sin(angle) * radius
            else:
                z, spare = spare, None
            # a normal of mean 0.0: the 0.0 + turns a -0.0 product into 0.0
            metric = base + (0.0 + z * noise_sd)
            if draw() < outlier_prob:
                metric += -spike if symmetric and draw() < 0.5 else spike
            if minimize and metric < 0.0:
                metric = 0.0
            metrics.append(metric)
            if not zero_features:
                # uniform on 1..100: seven random bits, drawn again while >= 100
                count = bits(7)
                while count >= 100:
                    count = bits(7)
                features.append(1 + count)
        cohort.append(
            TrialTrace(f"trial_{index:03d}", config.shape, metrics=metrics, features=features)
        )
    return cohort


def write_traces(cohort: Sequence[TrialTrace], path, per_trial: bool = False) -> None:
    """Write a cohort as one combined CSV file, or one file per trial in a directory."""
    target = Path(path)
    # refuse what read_traces would refuse, before anything is created; in the
    # per-trial form each file is also named after its trial, so every id must
    # name a file in target
    if not cohort:
        raise ValueError("cohort must contain at least one trial")
    seen: set[str] = set()
    for trace in cohort:
        trial_id = trace.trial_id
        if trace.shape != cohort[0].shape:
            raise ValueError(f"trial {trial_id!r} shape {trace.shape} differs from "
                             f"cohort shape {cohort[0].shape}")
        if per_trial and (
            trial_id in ("", ".", "..")
            or any(sep and sep in trial_id for sep in ("/", os.sep, os.altsep, "\0"))
        ):
            raise ValueError(f"trial id {trial_id!r} is not a plain file name")
        if not trial_id:
            raise ValueError("trial_id must be non-empty")
        if trial_id in seen:
            raise ValueError(f"duplicate trial id {trial_id!r} in cohort")
        seen.add(trial_id)
    if per_trial:
        target.mkdir(parents=True, exist_ok=True)
        for trace in cohort:
            _write_file([trace], target / f"{trace.trial_id}.csv")
    else:
        _write_file(cohort, target)


def _write_file(traces: Iterable[TrialTrace], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for trace in traces:
            trial_id = trace.trial_id
            writer.writerows(
                (trial_id, outer, inner, format(metric, ".17g"), count)
                for (outer, inner), metric, count in zip(
                    trace.shape.positions, trace.metrics, trace.features
                )
            )


def read_traces(path) -> list[TrialTrace]:
    """Read a cohort from a combined trace file or a directory of per-trial files."""
    source = Path(path)
    if source.is_dir():
        files = sorted(source.glob("*.csv"))
        if not files:
            raise TraceFormatError("no .csv trace files found", path=source)
        cohort: list[TrialTrace] = []
        seen: set[str] = set()
        for file in files:
            for trace in _read_file(file):
                if trace.trial_id in seen:
                    raise TraceFormatError(
                        f"duplicate trial id {trace.trial_id!r} across files", path=file
                    )
                if cohort and trace.shape != cohort[0].shape:
                    raise TraceFormatError(
                        f"trial {trace.trial_id!r} shape {trace.shape} differs from "
                        f"cohort shape {cohort[0].shape}",
                        path=file,
                    )
                seen.add(trace.trial_id)
                cohort.append(trace)
        return cohort
    return _read_file(source)


def _read_file(path: Path) -> list[TrialTrace]:
    """Parse rows straight into columns, then cut them into trials.

    Each row gets one check; only a row that fails it is parsed again, by
    ``_row_problem``, for the message. Errors in rows come before errors in
    how trials are laid out, wherever in the file they are.
    """
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise TraceFormatError(f"cannot open trace file: {exc}", path=path) from exc
    isfinite = math.isfinite
    metrics: list[float] = []
    features: list[int] = []
    outers: list[int] = []
    inners: list[int] = []
    trial_ids: list[str] = []  # one per block of contiguous rows
    starts: list[int] = []
    try:
        with handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_HEADER:
                raise TraceFormatError(
                    f"header must be {','.join(TRACE_HEADER)}", path=path, line=1
                )
            current = None
            for row in reader:
                try:
                    trial_id, outer, inner, metric, count = row
                    outer, inner, count, metric = int(outer), int(inner), int(count), float(metric)
                    valid = (
                        trial_id and outer >= 0 and inner >= 0 and count >= 0 and isfinite(metric)
                    )
                except ValueError:
                    valid = False
                if not valid:
                    raise TraceFormatError(_row_problem(row), path=path, line=reader.line_num)
                if trial_id != current:
                    current = trial_id
                    trial_ids.append(trial_id)
                    starts.append(len(metrics))
                metrics.append(metric)
                features.append(count)
                outers.append(outer)
                inners.append(inner)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, TraceFormatError) from exc
    except csv.Error as exc:  # a quoted field that runs past the field size limit
        raise TraceFormatError(f"bad CSV: {exc}", path=path, line=reader.line_num) from exc
    if not metrics:
        # the header is line 1, and no row follows it
        raise TraceFormatError("trace file contains no step rows", path=path, line=1)
    starts.append(len(metrics))

    seen: set[str] = set()
    for trial_id, start in zip(trial_ids, starts):
        if trial_id in seen:
            raise TraceFormatError(
                f"rows of trial {trial_id!r} must be contiguous",
                path=path, line=_line_of(path, start),
            )
        seen.add(trial_id)

    shape: CvShape | None = None
    grids: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    cohort = []
    for trial_id, start, stop in zip(trial_ids, starts, starts[1:]):
        rows = stop - start
        if shape is not None:
            inner_folds = shape.inner_folds
        else:
            # row-major order puts all of outer fold 0 first
            inner_folds = next((i for i, o in enumerate(outers[start:stop]) if o != 0), rows)
            if inner_folds == 0:
                raise TraceFormatError(
                    f"trial {trial_id!r} must start at step (outer, inner)=(0, 0)",
                    path=path, line=_line_of(path, start),
                )
        if (inner_folds, rows) not in grids:
            grids[inner_folds, rows] = (
                [i // inner_folds for i in range(rows)],
                [i % inner_folds for i in range(rows)],
            )
        want_outers, want_inners = grids[inner_folds, rows]
        if outers[start:stop] != want_outers or inners[start:stop] != want_inners:
            index = next(
                i for i in range(rows)
                if (outers[start + i], inners[start + i]) != (want_outers[i], want_inners[i])
            )
            raise TraceFormatError(
                f"trial {trial_id!r}: expected step (outer, inner)="
                f"{(want_outers[index], want_inners[index])}, "
                f"got ({outers[start + index]}, {inners[start + index]}); grid rows must be "
                "complete, unique, and in row-major order",
                path=path, line=_line_of(path, start + index),
            )
        if shape is None:
            if rows % inner_folds != 0:
                raise TraceFormatError(
                    f"trial {trial_id!r} ends mid inner loop: {rows} rows with "
                    f"{inner_folds} inner folds",
                    path=path, line=_line_of(path, stop - 1),
                )
            try:
                shape = CvShape(outer_folds=rows // inner_folds, inner_folds=inner_folds)
            except ValueError as exc:
                raise TraceFormatError(str(exc), path=path, line=_line_of(path, stop - 1)) from exc
        elif rows != shape.total_steps:
            raise TraceFormatError(
                f"trial {trial_id!r} has {rows} rows, cohort shape "
                f"{shape.outer_folds}x{shape.inner_folds} requires {shape.total_steps}",
                path=path, line=_line_of(path, stop - 1),
            )
        cohort.append(
            TrialTrace(
                trial_id, shape, metrics=metrics[start:stop], features=features[start:stop]
            )
        )
    return cohort


def _row_problem(row: list[str]) -> str:
    """Why a row failed the one check ``_read_file`` gives it, in the order checked."""
    if len(row) != len(TRACE_HEADER):
        return f"expected {len(TRACE_HEADER)} fields, got {len(row)}"
    trial_id, outer_text, inner_text, metric_text, count_text = row
    if not trial_id:
        return "trial_id must be non-empty"
    try:
        outer, inner, count = int(outer_text), int(inner_text), int(count_text)
    except ValueError as exc:
        return f"bad integer field: {exc}"
    try:
        metric = float(metric_text)
    except ValueError as exc:
        return f"bad metric field: {exc}"
    if not math.isfinite(metric):
        return f"metric must be finite, got {metric_text}"
    if outer < 0 or inner < 0:
        return "fold indices must be >= 0"
    return "selected_feature_count must be >= 0"


def _line_of(path: Path, index: int) -> int:
    """The line the data row at ``index`` ends on; the file is read again, for errors only.

    Quoted fields may hold line breaks, so rows and lines need not match.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        for count, _ in enumerate(reader):
            if count == index + 1:  # row 0 is the header
                return reader.line_num
    raise AssertionError(f"{path} has no data row {index}")
