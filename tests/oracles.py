"""Independent brute-force oracles for checking the library's numerics.

These deliberately avoid the library's code paths: medians come from explicit
sorting, means from exact rational arithmetic (every float is a dyadic
rational), decisions from a direct transcription of the definitions,
a multi-worker schedule from explicit turn-taking over the live decision API,
and synthetic cohorts from the standard library's own ``gauss`` and ``randint``.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import islice

from nestedprune import (
    Direction,
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
    if method is ExtrapolationMethod.OPTIMAL_METRIC:
        optimistic = Fraction(float(optimal_value))
    elif method is ExtrapolationMethod.NO_EXTRAPOLATION:
        optimistic = center
    else:
        if direction is Direction.MINIMIZE:
            deviations = [center - Fraction(float(v)) for v in values if Fraction(float(v)) < center]
        else:
            deviations = [Fraction(float(v)) - center for v in values if Fraction(float(v)) > center]
        if not deviations:
            optimistic = center
        elif method is ExtrapolationMethod.MAX_DEVIATION:
            step = max(deviations)
            optimistic = center - step if direction is Direction.MINIMIZE else center + step
        else:
            step = sum(deviations, Fraction(0)) / len(deviations)
            optimistic = center - step if direction is Direction.MINIMIZE else center + step
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
                metric += -spike if config.symmetric_outliers and rng.random() < 0.5 else spike
            if minimize and metric < 0.0:
                metric = 0.0
            metrics.append(metric)
            features.append(0 if zero_features else rng.randint(1, 100))
        cohort.append(
            TrialTrace(f"trial_{index:03d}", config.shape, metrics=metrics, features=features)
        )
    return cohort
