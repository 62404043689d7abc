"""Robust statistics and optimistic extrapolation over per-step validation metrics.

Validation metrics from tiny folds are noisy and outlier-prone, so everything
here is built on order statistics: trimmed means for smoothing, medians as the
robust center, and one-sided deviations for optimism in the optimized
direction. Means are computed exactly and rounded once, so results do not
depend on input order and negating a series negates every result exactly.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Sequence


class Direction(Enum):
    """Whether lower or higher metric values are better."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def flipped(self) -> "Direction":
        return Direction.MAXIMIZE if self is Direction.MINIMIZE else Direction.MINIMIZE

    def is_worse(self, a: float, b: float) -> bool:
        """True iff ``a`` is strictly worse than ``b``."""
        return a > b if self is Direction.MINIMIZE else a < b

    def is_better(self, a: float, b: float) -> bool:
        """True iff ``a`` is strictly better than ``b``."""
        return a < b if self is Direction.MINIMIZE else a > b


class ExtrapolationMethod(Enum):
    """How to estimate the metric of steps that have not been computed yet.

    Enum values double as the CLI spellings.
    """

    NO_EXTRAPOLATION = "none"
    OPTIMAL_METRIC = "optimal"
    MAX_DEVIATION = "max-dev"
    MEAN_DEVIATION = "mean-dev"


def _require_nonempty(values: Sequence[float]) -> None:
    if not values:
        raise ValueError("requires at least one metric value")


def validate_trim_fraction(trim_fraction: float) -> None:
    if not 0.0 <= trim_fraction < 0.5:
        raise ValueError(f"trim_fraction must be in [0, 0.5), got {trim_fraction}")


def _mean_single_rounding(values: Sequence[float]) -> float:
    """Correctly rounded arithmetic mean.

    Floats are dyadic rationals, so the running sum stays exact over one
    power-of-two denominator and only the final division rounds.
    """
    total, scale = 0, 1
    for value in values:
        numerator, denominator = float(value).as_integer_ratio()
        if denominator > scale:
            total *= denominator // scale
            scale = denominator
        else:
            numerator *= scale // denominator
        total += numerator
    return float(Fraction(total, scale * len(values)))


def trimmed_mean(values: Sequence[float], trim_fraction: float = 0.2) -> float:
    """Mean after dropping ``floor(trim_fraction * n)`` values from each end.

    The same count is trimmed from both tails, so short series degrade to the
    plain mean once the floor reaches zero. The result always lies within
    [min(values), max(values)].
    """
    _require_nonempty(values)
    validate_trim_fraction(trim_fraction)
    ordered = sorted(values)
    k = math.floor(trim_fraction * len(ordered))
    core = ordered[k : len(ordered) - k] if k else ordered
    return min(max(_mean_single_rounding(core), core[0]), core[-1])


def median(values: Sequence[float]) -> float:
    """Sample median; even-length series use the midpoint of the central pair."""
    _require_nonempty(values)
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def deviations_toward_optimum(values: Sequence[float], direction: Direction) -> list[float]:
    """One-sided deviations from the median, kept only on the improving side.

    Values at or worse than the median contribute nothing, so the result may
    be empty. Only these deviations matter for an optimistic completion
    estimate; symmetric spread measures would mix in the pessimistic side.
    """
    _require_nonempty(values)
    center = median(values)
    if direction is Direction.MINIMIZE:
        return [center - v for v in values if v < center]
    return [v - center for v in values if v > center]


def extrapolate(
    values: Sequence[float],
    direction: Direction,
    method: ExtrapolationMethod,
    optimal_value: float | None = None,
) -> float:
    """Optimistic estimate for steps that are still missing.

    ``OPTIMAL_METRIC`` returns the metric's ideal value (``optimal_value`` is
    required then, e.g. 0 for logloss). The deviation methods start from the
    median and move toward the optimum by the largest or the mean one-sided
    deviation; with no improving values they fall back to the median, as does
    ``NO_EXTRAPOLATION`` always.
    """
    _require_nonempty(values)
    if method is ExtrapolationMethod.OPTIMAL_METRIC:
        if optimal_value is None:
            raise ValueError("OPTIMAL_METRIC extrapolation requires optimal_value")
        return optimal_value
    center = median(values)
    if method is ExtrapolationMethod.NO_EXTRAPOLATION:
        return center
    deviations = deviations_toward_optimum(values, direction)
    if not deviations:
        return center
    step = max(deviations)
    if method is ExtrapolationMethod.MEAN_DEVIATION:
        # the rounded division can land above the largest deviation; mean-dev
        # must never be more optimistic than max-dev
        step = min(math.fsum(deviations) / len(deviations), step)
    # exact arithmetic keeps the estimate between the best observed value and
    # the median; clamp so float rounding cannot escape that range
    if direction is Direction.MINIMIZE:
        return min(max(center - step, min(values)), center)
    return max(min(center + step, max(values)), center)
