"""Robust statistics and optimistic extrapolation over per-step validation metrics.

Validation metrics from tiny folds are noisy and outlier-prone, so everything
here is built on order statistics: trimmed means for smoothing, medians as the
robust center, and one-sided deviations for optimism in the optimized
direction. Means are computed exactly and rounded once, so results do not
depend on input order and negating a series negates every result exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import repeat
from math import ldexp
from typing import Iterable


class Direction(Enum):
    """Whether lower or higher metric values are better."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def flipped(self) -> "Direction":
        return Direction.MAXIMIZE if self is Direction.MINIMIZE else Direction.MINIMIZE

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


# members bound once: an Enum attribute lookup costs about as much as a scaled read
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


class MetricHistory:
    """A trial's metrics, kept sorted, with exact sums of the prefixes statistics read.

    New metrics go to ``pending`` (``history.pending.append(value)``), so a
    step that reads no statistic costs one list append. Pending values are
    folded into the sorted list when a statistic is read. Sums are exact
    integers over one power-of-two scale ``2**bits``: every float is a dyadic
    rational, and a value finer than the scale shifts every sum up when it is
    folded in. A tracked sum covers the ``index`` smallest values; a value
    inserted ahead of it moves the sum by ``value - a[index]``, and a read
    walks the index to where the statistic needs it, one value at a time on a
    threshold step. Each mean therefore rounds once, from exact integers, and
    each threshold test is exact. A threshold step that the central values
    settle on their own (``estimate_is_worse``) reads no sum at all.
    """

    __slots__ = ("pending", "_sorted", "_bits", "_prefixes")

    def __init__(self, values: Iterable[float] = ()) -> None:
        self.pending: list[float] = list(map(float, values))
        if not all(map(math.isfinite, self.pending)):
            bad = next(v for v in self.pending if not math.isfinite(v))
            raise ValueError(f"metric values must be finite, got {bad}")
        self._sorted: list[float] = []
        self._bits = 0
        # tracked prefix sums by purpose: name -> [index, scaled sum of a[:index]]
        self._prefixes: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self._sorted) + len(self.pending)

    def _ordered(self) -> list[float]:
        """The sorted values, with every pending value folded in."""
        pending, ordered = self.pending, self._sorted
        if pending:
            if self._prefixes or len(pending) == 1:
                # one value at a time: a bisect insertion, then each tracked sum
                # that the value enters gains it and loses the value pushed out
                prefixes = self._prefixes.values()
                bits = self._bits
                for value in pending:
                    try:
                        fits = ldexp(value, bits).is_integer()
                    except OverflowError:  # past the float range once scaled: whole
                        fits = True
                    if not fits:
                        finer = value.as_integer_ratio()[1].bit_length() - 1 - bits
                        for prefix in prefixes:
                            prefix[1] <<= finer
                        bits = self._bits = bits + finer
                    at = bisect_right(ordered, value)
                    ordered.insert(at, value)
                    for prefix in prefixes:
                        if prefix[0] > at:
                            prefix[1] += self._scaled(value) - self._scaled(ordered[prefix[0]])
            else:
                ordered += pending
                ordered.sort()
                self._fit_scale()
            pending.clear()
        if not ordered:
            raise ValueError("requires at least one metric value")
        return ordered

    def _fit_scale(self) -> None:
        """Refine the scale to cover the sorted values; only while nothing is summed.

        A float of frexp exponent ``e`` is a multiple of ``2**(e - 53)``, and so
        is every float of larger magnitude, so the nonzero value nearest zero
        sets a scale that covers them all.
        """
        ordered = self._sorted
        below, above = bisect_left(ordered, 0.0), bisect_right(ordered, 0.0)
        nearest = ordered[below - 1 : below] + ordered[above : above + 1]
        if nearest:
            finest = min(map(abs, nearest))
            self._bits = max(self._bits, min(1074, 53 - math.frexp(finest)[1]))

    def _scaled(self, value: float) -> int:
        """``value * 2**bits`` exactly, for a value that is a multiple of ``2**-bits``.

        The product is whole, so ``ldexp`` is exact unless it overflows, and a
        third of the cost of ``as_integer_ratio``, which covers the overflow.
        """
        try:
            return int(ldexp(value, self._bits))
        except OverflowError:
            numerator, denominator = value.as_integer_ratio()
            return numerator << (self._bits + 1 - denominator.bit_length())

    def _sum(self, values: list[float]) -> int:
        """Exact sum of ``values``, scaled by ``2**bits``."""
        try:
            # each scaled value is a whole number, so ldexp is exact or overflows
            return sum(map(int, map(ldexp, values, repeat(self._bits))))
        except OverflowError:
            return sum(map(self._scaled, values))

    def _prefix_sum(self, name: str, index: int) -> int:
        """Scaled sum of the ``index`` smallest values, tracked under ``name``.

        A step of one, the common move after one value is folded in, adds one
        scaled value.
        """
        prefix = self._prefixes.get(name)
        if prefix is None:
            # a new prefix starts from the nearest tracked one
            start = min([(0, 0), *self._prefixes.values()], key=lambda p: abs(p[0] - index))
            prefix = self._prefixes[name] = list(start)
        at, total = prefix
        if index == at + 1:
            total += self._scaled(self._sorted[at])
        elif index > at:
            total += self._sum(self._sorted[at:index])
        elif index < at:
            total -= self._sum(self._sorted[index:at])
        prefix[0], prefix[1] = index, total
        return total

    def median(self) -> float:
        ordered = self._ordered()
        if len(ordered) % 2:
            return ordered[len(ordered) // 2]
        # the exact midpoint rounded once: a central pair may sum past the float range
        center2, _, _ = self._estimate(
            ordered, _MINIMIZE, ExtrapolationMethod.NO_EXTRAPOLATION, None
        )
        return center2 / (2 << self._bits)

    def trimmed_mean(self, trim_fraction: float) -> float:
        count = len(self._ordered())
        cut = math.floor(trim_fraction * count)
        low = self._prefix_sum("trim_low", cut)
        core = self._prefix_sum("trim_high", count - cut) - low
        return core / ((count - 2 * cut) << self._bits)

    def _estimate(
        self,
        ordered: list[float],
        direction: Direction,
        method: ExtrapolationMethod,
        optimal_value: float | None,
    ) -> tuple[int, int, int]:
        """Twice the median and the optimistic value of ``ordered``, exactly, in one pass.

        ``ordered`` is the history as ``_ordered`` returns it, with nothing
        pending. Returns ``(center2, numerator, denominator)``: the median is
        ``center2 / (2 << bits)`` and the optimistic value
        ``numerator / (denominator << bits)``. Mean-dev's value is the mean of
        the values strictly better than the median, max-dev's the best value;
        either is the median when no value is better. The values strictly
        below (above) the median start (end) at the first (last) copy of the
        upper (lower) middle value.
        """
        count = len(ordered)
        # the central pair: one value twice when the count is odd
        lower, upper = ordered[(count - 1) // 2], ordered[count // 2]
        center2 = self._scaled(lower) + self._scaled(upper)
        minimize = direction is _MINIMIZE
        if method is _MEAN_DEVIATION:
            if minimize:
                below = bisect_left(ordered, upper)
                if below:
                    return center2, self._prefix_sum("split", below), below
            else:
                above = bisect_right(ordered, lower)
                if above < count:
                    whole = self._prefix_sum("whole", count)
                    return center2, whole - self._prefix_sum("split", above), count - above
        elif method is _MAX_DEVIATION:
            return center2, self._scaled(ordered[0] if minimize else ordered[-1]), 1
        elif method is _OPTIMAL_METRIC:
            numerator, denominator = _checked_optimal(optimal_value).as_integer_ratio()
            return center2, numerator << self._bits, denominator
        return center2, center2, 2

    def extrapolate(
        self, direction: Direction, method: ExtrapolationMethod, optimal_value: float | None
    ) -> float:
        if method is ExtrapolationMethod.NO_EXTRAPOLATION:
            return self.median()
        _, numerator, denominator = self._estimate(
            self._ordered(), direction, method, optimal_value
        )
        return numerator / (denominator << self._bits)

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
        ``optimal_value``. Ties are not worse, as in the strict test below.

        Every other step is decided in exact integers: with the median as
        ``center2 / 2`` and the optimistic value as ``num / den``, both scaled,
        compare ``center2*done*den + 2*num*missing`` with
        ``2*bound*den*(done + missing)``.
        """
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
        center2, numerator, denominator = self._estimate(
            ordered, direction, method, optimal_value
        )
        bound_numerator, bound_denominator = bound.as_integer_ratio()
        estimate = (
            center2 * done * denominator + 2 * numerator * steps_missing
        ) * bound_denominator
        limit = (2 * bound_numerator * denominator * (done + steps_missing)) << self._bits
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
    validate_trim_fraction(trim_fraction)
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
