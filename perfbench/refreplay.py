"""Reference replay of the three pruning layers, written apart from the package.

It re-derives, from the recorded metrics alone, every decision the package
makes on a minimised metric: semantic prunes, windowed-threshold prunes and
rung-cutoff (asynchronous successive halving) prunes. All arithmetic is exact.
Every number of a cohort is scaled by one power of two into an integer (floats
are dyadic rationals), so medians, trimmed means and the threshold test become
integer sums and products; a float appears only where the package reports one,
by rounding the exact rational once.

Nothing here imports the package. A cohort is a list of
``(trial_id, metrics, feature_counts)`` and a variant is a plain dict, so the
workloads describe each variant once and hand the same values to both sides.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

SEMANTIC, THRESHOLD, COMPARISON = "semantic", "threshold", "comparison"


@dataclass(frozen=True)
class TrialResult:
    """How one trial ended: after ``steps`` models, pruned by ``layer`` or completed.

    ``reported`` is the value a threshold or comparison prune hands back.
    """

    trial_id: str
    steps: int
    layer: str | None
    reported: float | None


class Scale:
    """Maps floats to integers ``value * 2**bits``; all even, so midpoints stay integral."""

    def __init__(self, values) -> None:
        exponents = (float(v).as_integer_ratio()[1].bit_length() - 1 for v in values)
        self.bits = 1 + max(exponents, default=0)

    def up(self, value: float) -> int:
        numerator, denominator = float(value).as_integer_ratio()
        return numerator << (self.bits - (denominator.bit_length() - 1))

    def down(self, numerator: int, count: int = 1) -> float:
        """Correctly rounded float of ``numerator / (count * 2**bits)``."""
        return float(Fraction(numerator, count << self.bits))


def cohort_scale(cohort, variants) -> Scale:
    numbers = [v for _, metrics, _ in cohort for v in metrics]
    for variant in variants:
        numbers += [variant["optimal_value"]]
        if variant["threshold"] is not None:
            numbers.append(variant["threshold"])
    return Scale(numbers)


def _median2(ordered: list[int]) -> int:
    """Twice the median, so even-length series need no division."""
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return 2 * ordered[mid]
    return ordered[mid - 1] + ordered[mid]


def _trimmed(ordered: list[int], trim_fraction: float, scale: Scale) -> float:
    cut = math.floor(trim_fraction * len(ordered))
    core = ordered[cut : len(ordered) - cut]
    return scale.down(sum(core), len(core))


def _threshold_prunes(ordered: list[int], missing: int, variant: dict, scale: Scale) -> bool:
    """Prune iff the blended estimate lies above the threshold, decided in integers.

    Blend: ``(median * done + optimistic * missing) / (done + missing)``.
    Mean-dev's optimistic value is the mean of the values below the median,
    max-dev's the smallest value below it; either is the median when no value
    lies below. Work in doubled units with the optimistic value as ``num / den``.
    """
    done = len(ordered)
    center2 = _median2(ordered)
    below = bisect_left(ordered, (center2 + 1) // 2)
    method = variant["extrapolation"]
    if method == "mean-dev" and below:
        num, den = 2 * sum(ordered[:below]), below
    elif method == "max-dev" and below:
        num, den = 2 * ordered[0], 1
    elif method == "optimal":
        num, den = 2 * scale.up(variant["optimal_value"]), 1
    else:
        num, den = center2, 1
    lhs = center2 * done * den + num * missing
    return lhs > 2 * scale.up(variant["threshold"]) * den * (done + missing)


def _rung_prunes(rungs: dict, trial_id: str, loops: int, value: float, asha: dict) -> bool:
    """Record ``value`` on every rung newly reached; prune on the first rung it loses.

    A rung of ``n`` values keeps the best ``ceil(n / reduction_factor)``; values
    equal to the last kept one survive.
    """
    rung = 0
    while True:
        exponent = asha["min_early_stopping_rate"] + rung
        if asha["min_resource"] * asha["reduction_factor"] ** exponent > loops:
            return False
        bucket = rungs.setdefault(rung, {})
        if trial_id not in bucket:
            bucket[trial_id] = value
            if len(bucket) >= asha["bootstrap_count"]:
                keep = math.ceil(len(bucket) / asha["reduction_factor"])
                if value > sorted(bucket.values())[keep - 1]:
                    return True
        rung += 1


def replay_study(cohort, inner_folds: int, variant: dict, scale: Scale) -> list[TrialResult]:
    """Every trial's end under ``variant``, trials run one after another in cohort order."""
    trim = variant["trim_fraction"]
    outer_folds = len(cohort[0][1]) // inner_folds
    opens_at = max(variant["min_threshold_steps"], -(-inner_folds // 2))
    closes_at = math.ceil(Fraction(variant["threshold_window_fraction"]) * outer_folds)
    rungs: dict = {}
    results = []
    for trial_id, metrics, features in cohort:
        ordered: list[int] = []
        result = None
        for n, (metric, count) in enumerate(zip(metrics, features), start=1):
            insort(ordered, scale.up(metric))
            if variant["semantic_enabled"] and count == 0:
                result = TrialResult(trial_id, n, SEMANTIC, None)
                break
            if (
                variant["threshold_enabled"]
                and n >= opens_at
                and n // inner_folds < closes_at
                and _threshold_prunes(ordered, -n % inner_folds, variant, scale)
            ):
                if n >= 5:
                    reported = _trimmed(ordered, trim, scale)
                else:
                    reported = scale.down(_median2(ordered), 2)
                result = TrialResult(trial_id, n, THRESHOLD, reported)
                break
            if variant["comparison_enabled"] and n % inner_folds == 0:
                value = _trimmed(ordered, trim, scale)
                if _rung_prunes(rungs, trial_id, n // inner_folds, value, variant["asha"]):
                    result = TrialResult(trial_id, n, COMPARISON, value)
                    break
        if result is None:
            result = TrialResult(trial_id, len(metrics), None, None)
        results.append(result)
    return results


def full_objectives(cohort, trim_fraction: float, scale: Scale) -> list[float]:
    """Ground truth: each trial's trimmed mean over its whole grid."""
    return [
        _trimmed(sorted(scale.up(v) for v in metrics), trim_fraction, scale)
        for _, metrics, _ in cohort
    ]


def rep_stats(results: list[TrialResult], objectives: list[float], variant: dict) -> dict:
    """One repetition's figures, named as in the package's JSON report ``per_rep``."""
    best = min(range(len(objectives)), key=objectives.__getitem__)
    margins = []
    if variant["threshold_enabled"]:
        threshold = variant["threshold"]
        margins = [
            abs(objective - threshold)
            for result, objective in zip(results, objectives)
            if result.layer == THRESHOLD and objective < threshold
        ]
    layers = [r.layer for r in results]
    return {
        "models_trained": sum(r.steps for r in results),
        "semantic_prunes": layers.count(SEMANTIC),
        "threshold_prunes": layers.count(THRESHOLD),
        "comparison_prunes": layers.count(COMPARISON),
        "completed": layers.count(None),
        "falsely_pruned": len(margins),
        "max_margin": max(margins, default=None),
        "best_preserved": results[best].layer is None,
    }
