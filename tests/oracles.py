"""Independent brute-force oracles for checking the library's numerics.

These deliberately avoid the library's code paths: medians come from explicit
sorting, means from exact rational arithmetic (every float is a dyadic
rational), decisions from a direct transcription of the definitions,
a multi-worker schedule from explicit turn-taking over the live decision API,
synthetic cohorts from the standard library's own ``gauss`` and ``randint``, and
trace files from the ``csv`` module's reader, one row at a time.
"""

from __future__ import annotations

import csv
import math
import random
from collections import deque
from fractions import Fraction
from itertools import islice
from pathlib import Path

from nestedprune import (
    CvShape,
    Direction,
    FormatError,
    TrialTrace,
    ExtrapolationMethod,
    StepRecord,
    StudyState,
    TrialStatus,
    combined_decide,
    trimmed_mean,
)


def exact_mean(values) -> Fraction:
    """Exact rational mean via integer mantissas (denominators are powers of two)."""
    pairs = [float(v).as_integer_ratio() for v in values]
    common = 1
    for _, den in pairs:
        common = max(common, den)
    total = sum(num * (common // den) for num, den in pairs)
    return Fraction(total, common * len(pairs))


def exact_median(values) -> Fraction:
    # floats compare exactly, so only the central pair needs to be rational
    ordered = sorted(map(float, values))
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return Fraction(ordered[mid])
    return (Fraction(ordered[mid - 1]) + Fraction(ordered[mid])) / 2


def exact_trimmed_mean(values, trim_fraction: float) -> Fraction:
    ordered = sorted(values)
    k = math.floor(trim_fraction * len(ordered))
    core = ordered[k : len(ordered) - k] if k else ordered
    return exact_mean(core)


def within_one_ulp(actual: float, exact: Fraction) -> bool:
    reference = float(exact)
    scale = max(abs(actual), abs(reference), 5e-324)
    return abs(Fraction(actual) - exact) <= Fraction(math.ulp(scale))


def exact_optimistic(
    values, direction: Direction, method: ExtrapolationMethod, optimal_value: float
) -> Fraction:
    """Exact-arithmetic recomputation of the optimistic value ``extrapolate`` rounds."""
    center = exact_median(values)
    if method is ExtrapolationMethod.OPTIMAL_METRIC:
        return Fraction(float(optimal_value))
    if method is ExtrapolationMethod.NO_EXTRAPOLATION:
        return center
    if direction is Direction.MINIMIZE:
        deviations = [center - Fraction(float(v)) for v in values if Fraction(float(v)) < center]
    else:
        deviations = [Fraction(float(v)) - center for v in values if Fraction(float(v)) > center]
    if not deviations:
        return center
    if method is ExtrapolationMethod.MAX_DEVIATION:
        step = max(deviations)
    else:
        step = sum(deviations, Fraction(0)) / len(deviations)
    return center - step if direction is Direction.MINIMIZE else center + step


def brute_threshold_prunes(
    values,
    steps_missing: int,
    direction: Direction,
    method: ExtrapolationMethod,
    optimal_value: float,
    threshold: float,
) -> bool:
    """Exact-arithmetic recomputation of the threshold-layer prune decision."""
    center = exact_median(values)
    optimistic = exact_optimistic(values, direction, method, optimal_value)
    done = len(values)
    composite = (center * done + optimistic * steps_missing) / (done + steps_missing)
    if direction is Direction.MINIMIZE:
        return composite > Fraction(float(threshold))
    return composite < Fraction(float(threshold))


def brute_rung_cutoff(values: list, direction: Direction, reduction_factor: int) -> float:
    """The ``ceil(n / factor)``-th best value, by sorting best first."""
    keep = math.ceil(len(values) / reduction_factor)
    best_first = sorted(values, reverse=direction is Direction.MAXIMIZE)
    return best_first[keep - 1]


def brute_rung_survivors(values: dict, direction: Direction, reduction_factor: int) -> set:
    """Top-``ceil(n / factor)`` trial ids by sorting, ties with the cutoff surviving."""
    if not values:
        return set()
    cutoff = brute_rung_cutoff(list(values.values()), direction, reduction_factor)
    if direction is Direction.MINIMIZE:
        return {tid for tid, v in values.items() if v <= cutoff}
    return {tid for tid, v in values.items() if v >= cutoff}


def rotation_replay(cohort, config, workers: int) -> list[tuple]:
    """Replay ``cohort`` on ``workers`` simulated workers that take turns.

    Each turn, the worker at the front of the rotation trains its trial's next
    model (one ``combined_decide`` call) and goes to the back. A worker whose
    trial was pruned or completed takes the next trial in cohort order and
    rejoins at the back; it leaves once the cohort is used up. Returns one
    ``(trial_id, status, layer, models, reported)`` per trial, in cohort order.
    """
    shape = cohort[0].shape
    study = StudyState(shape=shape, config=config)
    waiting = iter(cohort)
    rotation = deque((trace, 0) for trace in islice(waiting, workers))
    decisions = {}
    while rotation:
        trace, index = rotation.popleft()
        outer, inner = divmod(index, shape.inner_folds)
        step = StepRecord(trace.trial_id, outer, inner, trace.metrics[index],
                          trace.features[index])
        decision = combined_decide(study, trace.trial_id, step)
        if decision.pruned or index + 1 == shape.total_steps:
            decisions[trace.trial_id] = decision
            following = next(waiting, None)
            if following is not None:
                rotation.append((following, 0))
        else:
            rotation.append((trace, index + 1))

    outcomes = []
    for trace in cohort:
        state, decision = study.trials[trace.trial_id], decisions[trace.trial_id]
        reported = decision.reported_value
        if state.status is TrialStatus.COMPLETED:
            reported = trimmed_mean(trace.metrics, config.trim_fraction)
        outcomes.append(
            (trace.trial_id, state.status, decision.layer, state.steps_observed, reported)
        )
    return outcomes


def stdlib_generate_cohort(config) -> list:
    """``generate_cohort`` as a loop over ``rng.gauss`` and ``rng.randint``.

    Same draws, same order; the library spells the normals and the feature
    counts out instead, and must give the same columns.
    """
    rng = random.Random(config.seed)
    minimize = config.direction is Direction.MINIMIZE
    worst_base = config.base_max if minimize else config.base_min
    spike = config.outlier_magnitude if minimize else -config.outlier_magnitude
    cohort = []
    for index in range(config.trials):
        base = rng.uniform(config.base_min, config.base_max)
        zero_features = rng.random() < config.zero_feature_prob
        if zero_features:
            base = worst_base
        metrics, features = [], []
        for _ in range(config.shape.total_steps):
            metric = base + rng.gauss(0.0, config.noise_sd)
            if rng.random() < config.outlier_prob:
                metric += spike
            if minimize and metric < 0.0:
                metric = 0.0
            metrics.append(metric)
            features.append(0 if zero_features else rng.randint(1, 100))
        cohort.append(
            TrialTrace(f"trial_{index:03d}", config.shape, metrics=metrics, features=features)
        )
    return cohort


TRACE_HEADER = ("trial_id", "outer_fold", "inner_fold", "metric", "n_selected_features")


def row_read_traces(path) -> list:
    """``read_traces`` of one file as a loop over ``csv.reader``'s rows, checking each as read.

    The same cohort, or the same ``FormatError`` text, path and line, as the
    library's block reader must give for every UTF-8 file.
    """
    path = Path(path)
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise FormatError(f"cannot open trace file: {exc}", path=path) from exc
    metrics, features, outers, inners = [], [], [], []
    trial_ids, starts = [], []  # one per run of contiguous rows
    try:
        with handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_HEADER:
                raise FormatError(
                    f"header must be {','.join(TRACE_HEADER)}", path=path, line=1
                )
            current = None
            for row in reader:
                try:
                    trial_id, outer, inner, metric, count = row
                    outer, inner, count, metric = int(outer), int(inner), int(count), float(metric)
                    valid = (
                        trial_id and outer >= 0 and inner >= 0 and count >= 0
                        and math.isfinite(metric)
                    )
                except ValueError:
                    valid = False
                if not valid:
                    raise FormatError(_row_problem(row), path=path, line=reader.line_num)
                if trial_id != current:
                    current = trial_id
                    trial_ids.append(trial_id)
                    starts.append(len(metrics))
                metrics.append(metric)
                features.append(count)
                outers.append(outer)
                inners.append(inner)
    except UnicodeDecodeError as exc:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            line = data.count(b"\n", 0, whole.start) + 1
            raise FormatError(f"not UTF-8 text: {whole}", path=path, line=line) from exc
        raise
    except csv.Error as exc:
        raise FormatError(f"bad CSV: {exc}", path=path, line=reader.line_num) from exc
    if not metrics:
        raise FormatError("trace file contains no step rows", path=path, line=1)
    starts.append(len(metrics))

    seen = set()
    for trial_id, start in zip(trial_ids, starts):
        if trial_id in seen:
            raise FormatError(
                f"rows of trial {trial_id!r} must be contiguous",
                path=path, line=_line_of(path, start),
            )
        seen.add(trial_id)

    shape = None
    cohort = []
    for trial_id, start, stop in zip(trial_ids, starts, starts[1:]):
        rows = stop - start
        if shape is not None:
            inner_folds = shape.inner_folds
        else:
            inner_folds = next((i for i, o in enumerate(outers[start:stop]) if o != 0), rows)
            if inner_folds == 0:
                raise FormatError(
                    f"trial {trial_id!r} must start at step (outer, inner)=(0, 0)",
                    path=path, line=_line_of(path, start),
                )
        for index in range(rows):
            expected = divmod(index, inner_folds)
            got = (outers[start + index], inners[start + index])
            if got != expected:
                raise FormatError(
                    f"trial {trial_id!r}: expected step (outer, inner)={expected}, "
                    f"got {got}; grid rows must be complete, unique, and in row-major order",
                    path=path, line=_line_of(path, start + index),
                )
        if shape is None:
            if rows % inner_folds != 0:
                raise FormatError(
                    f"trial {trial_id!r} ends mid inner loop: {rows} rows with "
                    f"{inner_folds} inner folds",
                    path=path, line=_line_of(path, stop - 1),
                )
            try:
                shape = CvShape(outer_folds=rows // inner_folds, inner_folds=inner_folds)
            except ValueError as exc:
                raise FormatError(str(exc), path=path, line=_line_of(path, stop - 1)) from exc
        elif rows != shape.total_steps:
            raise FormatError(
                f"trial {trial_id!r} has {rows} rows, cohort shape "
                f"{shape.outer_folds}x{shape.inner_folds} requires {shape.total_steps}",
                path=path, line=_line_of(path, stop - 1),
            )
        cohort.append(
            TrialTrace(trial_id, shape, metrics=metrics[start:stop], features=features[start:stop])
        )
    return cohort


def _row_problem(row) -> str:
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


def _line_of(path, index: int) -> int:
    """The line data row ``index`` ends on, counted by ``csv.reader``."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        for count, _ in enumerate(reader):
            if count == index + 1:  # row 0 is the header
                return reader.line_num
    raise AssertionError(f"{path} has no data row {index}")
