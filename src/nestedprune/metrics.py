"""Robust statistics and optimistic extrapolation over per-step validation metrics.

Validation metrics from tiny folds are noisy and outlier-prone, so everything
here is built on order statistics: trimmed means for smoothing, medians as the
robust center, and one-sided deviations for optimism in the optimized
direction. Means are computed exactly and rounded once, so results do not
depend on input order and negating a series negates every result exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from enum import Enum
from itertools import repeat
from math import frexp, inf, ldexp
from typing import Iterable


class Direction(Enum):
    """Whether lower or higher metric values are better."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def is_worse(self, a: float, b: float) -> bool:
        """True iff ``a`` is strictly worse than ``b``."""
        return a > b if self is Direction.MINIMIZE else a < b


class ExtrapolationMethod(Enum):
    """How to estimate the metric of steps that have not been computed yet.

    Enum values double as the CLI spellings.
    """

    NO_EXTRAPOLATION = "none"
    OPTIMAL_METRIC = "optimal"
    MAX_DEVIATION = "max-dev"
    MEAN_DEVIATION = "mean-dev"


# members bound once, so the paths a step takes do not look them up on their Enum
_MINIMIZE = Direction.MINIMIZE
_MEAN_DEVIATION = ExtrapolationMethod.MEAN_DEVIATION
_MAX_DEVIATION = ExtrapolationMethod.MAX_DEVIATION
_OPTIMAL_METRIC = ExtrapolationMethod.OPTIMAL_METRIC


def validate_trim_fraction(trim_fraction: float) -> None:
    if not 0.0 <= trim_fraction < 0.5:
        raise ValueError(f"trim_fraction must be in [0, 0.5), got {trim_fraction}")


def _checked_optimal(optimal_value: float | None) -> float:
    """``optimal_value``, which ``OPTIMAL_METRIC`` extrapolation requires finite."""
    if optimal_value is None:
        raise ValueError("OPTIMAL_METRIC extrapolation requires optimal_value")
    if not math.isfinite(optimal_value):
        raise ValueError(f"optimal_value must be finite, got {optimal_value}")
    return optimal_value


def _central(count: int) -> tuple[int, int]:
    """The slice of a sorted list of ``count`` values whose mean is its median."""
    return (count - 1) // 2, count // 2 + 1


class MetricHistory:
    """A trial's metrics, kept sorted; every statistic is the exact mean of one slice.

    New metrics go to ``pending`` (``history.pending.append(value)``), so a
    step that reads no statistic costs one list append. Pending values are
    folded into the sorted list when a statistic is read: a lone value by one
    ``insort``, several by one sort. The history holds nothing else. A
    statistic is the mean of one slice of the sorted list: the central pair
    (or value) for the median, the untrimmed middle for a trimmed mean, the
    values better than the median for mean-dev and the best value for
    max-dev. ``_mean`` sums that slice exactly in integers, so each mean
    rounds once and each threshold test is exact. A threshold step that the
    central values settle on their own (``estimate_is_worse``) sums nothing.
    """

    __slots__ = ("pending", "_sorted")

    def __init__(self, values: Iterable[float] = ()) -> None:
        self.pending: list[float] = list(map(float, values))
        if not all(map(math.isfinite, self.pending)):
            bad = next(v for v in self.pending if not math.isfinite(v))
            raise ValueError(f"metric values must be finite, got {bad}")
        self._sorted: list[float] = []

    def __len__(self) -> int:
        return len(self._sorted) + len(self.pending)

    def _ordered(self) -> list[float]:
        """The sorted values, with every pending value folded in."""
        pending, ordered = self.pending, self._sorted
        if pending:
            if len(pending) == 1:
                insort(ordered, pending[0])
            else:
                ordered += pending
                ordered.sort()
            pending.clear()
        if not ordered:
            raise ValueError("requires at least one metric value")
        return ordered

    def _mean(self, start: int, stop: int) -> tuple[int, int]:
        """The exact mean of the sorted values in ``[start, stop)``, as integers ``(n, d)``.

        A float of frexp exponent ``e`` is a multiple of ``2**(e - 53)``, and so
        is every float of larger magnitude, so the nonzero value nearest zero
        sets a scale ``2**bits`` at which every value is whole (any scale
        for all zeros); ``bits`` is kept at or above 0 so that the count can
        carry it. Each value is scaled by ``ldexp``, exact unless it overflows
        and a third of the cost of ``as_integer_ratio``, which covers the
        overflow.
        """
        ordered = self._sorted
        below = bisect_left(ordered, 0.0)
        above = bisect_right(ordered, 0.0, below)
        finest = min(
            -ordered[below - 1] if below else inf,
            ordered[above] if above < len(ordered) else inf,
        )
        bits = max(0, 53 - frexp(finest)[1])
        values = ordered[start:stop]
        try:
            total = sum(map(int, map(ldexp, values, repeat(bits))))
        except OverflowError:
            ratios = (value.as_integer_ratio() for value in values)
            total = sum(n << (bits + 1 - d.bit_length()) for n, d in ratios)
        return total, (stop - start) << bits

    def _optimistic(
        self, direction: Direction, method: ExtrapolationMethod, optimal_value: float | None
    ) -> tuple[int, int]:
        """The optimistic value of ``method`` as an exact ratio ``(n, d)``, with nothing pending.

        ``optimal`` gives ``optimal_value``; every other method the mean of one
        slice. Mean-dev reads the values strictly better than the median,
        max-dev the best value; mean-dev reads the median's slice when no
        value is better, as ``none`` always does. The values strictly below
        (above) the median start (end) at the first (last) copy of the upper
        (lower) middle value.
        """
        if method is _OPTIMAL_METRIC:
            return _checked_optimal(optimal_value).as_integer_ratio()
        ordered = self._sorted
        count = len(ordered)
        start, stop = _central(count)
        if method is _MAX_DEVIATION:
            start, stop = (0, 1) if direction is _MINIMIZE else (count - 1, count)
        elif method is _MEAN_DEVIATION:
            if direction is _MINIMIZE:
                below = bisect_left(ordered, ordered[count // 2])
                if below:
                    start, stop = 0, below
            else:
                above = bisect_right(ordered, ordered[(count - 1) // 2])
                if above < count:
                    start, stop = above, count
        return self._mean(start, stop)

    def median(self) -> float:
        count = len(self._ordered())
        if count % 2:
            # the value itself, keeping its sign: a one-value sum would turn -0.0 into 0.0
            return self._sorted[count // 2]
        # the exact midpoint rounded once: a central pair may sum past the float range
        numerator, denominator = self._mean(*_central(count))
        return numerator / denominator

    def trimmed_mean(self, trim_fraction: float) -> float:
        validate_trim_fraction(trim_fraction)
        count = len(self._ordered())
        cut = math.floor(trim_fraction * count)
        numerator, denominator = self._mean(cut, count - cut)
        return numerator / denominator

    def extrapolate(
        self, direction: Direction, method: ExtrapolationMethod, optimal_value: float | None
    ) -> float:
        if method is ExtrapolationMethod.NO_EXTRAPOLATION:
            return self.median()
        self._ordered()
        numerator, denominator = self._optimistic(direction, method, optimal_value)
        return numerator / denominator

    def estimate_is_worse(
        self,
        bound: float,
        steps_missing: int,
        direction: Direction,
        method: ExtrapolationMethod,
        optimal_value: float | None,
    ) -> bool:
        """Whether the blended estimate is strictly worse than ``bound``, decided exactly.

        The estimate is ``(median*done + optimistic*missing) / (done + missing)``,
        a weighted mean of the median and the optimistic value, so it is no
        worse than ``bound`` when neither of them is. The step is then settled
        by comparisons alone: the median lies between the central pair, so it
        is no worse than the bound when the central value on the worse side is
        not; the optimistic value of ``none``, ``max-dev`` and ``mean-dev`` is
        never worse than the median, and that of ``optimal`` is
        ``optimal_value``. Ties are not worse, as in the exact pass.
        """
        if steps_missing < 0:
            raise ValueError("steps_missing must be >= 0")
        ordered = self._ordered()
        done = len(ordered)
        if direction is _MINIMIZE:
            if ordered[done // 2] <= bound and (
                method is not _OPTIMAL_METRIC or _checked_optimal(optimal_value) <= bound
            ):
                return False
        elif ordered[(done - 1) // 2] >= bound and (
            method is not _OPTIMAL_METRIC or _checked_optimal(optimal_value) >= bound
        ):
            return False
        return self._estimate(bound, steps_missing, direction, method, optimal_value)

    def _estimate(
        self,
        bound: float,
        steps_missing: int,
        direction: Direction,
        method: ExtrapolationMethod,
        optimal_value: float | None,
    ) -> bool:
        """The exact pass of ``estimate_is_worse``, in integers, with nothing pending.

        With the median as ``m / mc`` and the optimistic value as ``o / oc``,
        exact ratios of integers, compare ``m*oc*done + o*mc*missing`` with
        ``bound*mc*oc*(done + missing)``.
        """
        done = len(self._sorted)
        m, mc = self._mean(*_central(done))
        o, oc = self._optimistic(direction, method, optimal_value)
        bound_numerator, bound_denominator = bound.as_integer_ratio()
        estimate = (m * oc * done + o * mc * steps_missing) * bound_denominator
        limit = bound_numerator * mc * oc * (done + steps_missing)
        return estimate > limit if direction is _MINIMIZE else estimate < limit


def as_history(values: Iterable[float]) -> MetricHistory:
    """``values`` itself if it is a history, else a new history holding them."""
    return values if isinstance(values, MetricHistory) else MetricHistory(values)


def trimmed_mean(values: Iterable[float], trim_fraction: float = 0.2) -> float:
    """Mean after dropping ``floor(trim_fraction * n)`` values from each end.

    The same count is trimmed from both tails, so short series degrade to the
    plain mean once the floor reaches zero. The exact mean is rounded once, so
    the result always lies within [min(values), max(values)].
    """
    return as_history(values).trimmed_mean(trim_fraction)


def median(values: Iterable[float]) -> float:
    """Sample median; even-length series use the midpoint of the central pair."""
    return as_history(values).median()


def extrapolate(
    values: Iterable[float],
    direction: Direction,
    method: ExtrapolationMethod,
    optimal_value: float | None = None,
) -> float:
    """Optimistic estimate for steps that are still missing, rounded once from exact.

    ``OPTIMAL_METRIC`` returns the metric's ideal value (``optimal_value`` is
    required then, e.g. 0 for logloss). ``MAX_DEVIATION`` moves from the
    median to the best observed value, ``MEAN_DEVIATION`` by the mean
    one-sided deviation toward the optimum, which lands on the mean of the
    values better than the median. With no better value they give the median,
    as ``NO_EXTRAPOLATION`` always does.
    """
    return as_history(values).extrapolate(direction, method, optimal_value)
