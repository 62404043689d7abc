"""Robust statistics and optimistic extrapolation over per-step validation metrics.

Validation metrics from tiny folds are noisy and outlier-prone, so everything
here is built on order statistics: trimmed means for smoothing, medians as the
robust center, and one-sided deviations for optimism in the optimized
direction. Means are computed exactly and rounded once, so results do not
depend on input order and negating a series negates every result exactly.
The float stages sum with ``math.fsum``, which implements Shewchuk's
adaptive-precision summation ("Adaptive Precision Floating-Point Arithmetic
and Fast Robust Geometric Predicates", 1997); where they cannot decide, the
values' own integer ratios are added exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from enum import Enum
from fractions import Fraction
from math import frexp, fsum, inf, isfinite, ulp
from typing import Iterable


class Direction(Enum):
    """Whether lower or higher metric values are better."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def is_worse(self, a: float, b: float) -> bool:
        """True iff ``a`` is strictly worse than ``b``."""
        return a > b if self is _MINIMIZE else a < b


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

# the float stage of a threshold step: 16 units of roundoff (u = 2**-53) of the
# weighted magnitudes, and 16 times the least subnormal (MetricHistory._estimate)
_ROUNDING = 2.0**-49
_SUBNORMAL = 2.0**-1070

# the float stage of a rounded mean (MetricHistory._rounded_mean): Veltkamp's
# splitter 2**27 + 1, the quotients and counts it takes, and 8 units of roundoff
_SPLITTER = 134217729.0
_LEAST_QUOTIENT, _GREATEST_QUOTIENT = 2.0**-900, 2.0**900
_COUNT_LIMIT = 2**26
_RESIDUAL_ROUNDING = 2.0**-50

# the default of MetricHistory(values), told apart by identity: a trial's new history
_NO_VALUES: tuple[float, ...] = ()


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
    max-dev. ``_rounded_mean`` rounds that slice's mean once: in floats with a
    proven bound, or, near a tie, from ``_mean``'s exact ratio of integers. A
    threshold step that the central values settle on their own
    (``estimate_is_worse``) sums nothing; one they leave open is decided in
    floats with a proven error bound, and only a near-tie takes the exact
    comparison of ``Fraction``s (``_estimate``), so each threshold test is exact.
    """

    __slots__ = ("pending", "_sorted")

    def __init__(self, values: Iterable[float] = _NO_VALUES) -> None:
        self._sorted: list[float] = []
        if values is _NO_VALUES:  # nothing to convert or check
            self.pending: list[float] = []
            return
        try:
            self.pending = list(map(float, values))
        except OverflowError:
            raise ValueError("metric values must be finite, got an int no float can hold") from None
        if not all(map(math.isfinite, self.pending)):
            bad = next(v for v in self.pending if not math.isfinite(v))
            raise ValueError(f"metric values must be finite, got {bad}")

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

        The values' own ``as_integer_ratio`` terms are added over their largest
        denominator, a power of two that each smaller one divides.
        """
        ratios = [value.as_integer_ratio() for value in self._sorted[start:stop]]
        denominator = max(d for _, d in ratios)
        numerator = sum(n * (denominator // d) for n, d in ratios)
        return numerator, denominator * (stop - start)

    def _rounded_mean(self, start: int, stop: int) -> float:
        """The mean of the sorted values in ``[start, stop)``, rounded once: floats, then integers.

        With ``S`` the slice's exact sum and ``n`` its count, the float stage
        takes ``q = fsum(slice) / n`` and splits it as Veltkamp does (``2**27 +
        1``) into ``high + low``, each of at most 26 bits, so with ``n < 2**26``
        both products with ``n`` are exact and one more ``fsum`` of the slice
        and their negations gives ``r``, ``S - q*n`` rounded once. The quotient
        is corrected to ``c = q + r/n``, and ``left = r - (c - q)*n`` is computed.

        Proof that ``c`` is the mean rounded once when ``|left| + (|r| +
        |left|)*2**-50 + 2**-1070 < n*h``, where ``h`` is half the gap from
        ``c`` to its neighbouring floats (a quarter of an ulp at a power of
        two, where the gap toward zero is half the other): with ``u =
        2**-53``, ``q`` is within ``2u|q|`` of ``S/n`` (to first order in
        ``u``), so ``c`` is within ``3u|q|`` of ``q``, ``c - q`` is exact
        (Sterbenz) and a few bits long, and so its product with ``n`` is
        exact. ``S - c*n`` is then ``(S - q*n - r) + (r - (c - q)*n)``: the
        first term is at most ``u|r| + 2**-1075`` (``fsum`` rounds once, ``r``
        perhaps subnormal), the second at most ``(1 + 2u)|left|`` (one
        rounding). The left side as computed, three roundings each at least
        ``1 - u`` of what they round, exceeds that sum, and ``n*h`` is exact,
        so ``|S/n - c| < h``: no other float is as near. Requiring ``2**-900
        <= |q| <= 2**900`` keeps every product and quotient clear of overflow
        and of the subnormal range.

        Anything else takes ``_mean``'s exact ratio: a near-tie (an exact tie
        always, as the check is strict), a quotient out of that range (a zero
        mean among them), a count of ``2**26`` or more, and an ``OverflowError``
        from ``fsum``.
        """
        count = stop - start
        addends = self._sorted[start:stop]
        try:
            quotient = fsum(addends) / count
        except OverflowError:
            quotient = inf
        if _LEAST_QUOTIENT <= abs(quotient) <= _GREATEST_QUOTIENT and count < _COUNT_LIMIT:
            scaled = quotient * _SPLITTER
            high = scaled - (scaled - quotient)
            addends += (-high * count, (high - quotient) * count)
            residual = fsum(addends)
            corrected = quotient + residual / count
            left = residual - (corrected - quotient) * count
            half_gap = ulp(corrected) * (0.25 if abs(frexp(corrected)[0]) == 0.5 else 0.5)
            if (
                abs(left) + (abs(residual) + abs(left)) * _RESIDUAL_ROUNDING + _SUBNORMAL
                < half_gap * count
            ):
                return corrected
        numerator, denominator = self._mean(start, stop)
        return numerator / denominator

    def _optimistic_slice(
        self, direction: Direction, method: ExtrapolationMethod
    ) -> tuple[int, int]:
        """The slice whose mean is the optimistic value of ``method``, with nothing pending.

        Mean-dev reads the values strictly better than the median, max-dev the
        best value; mean-dev reads the median's slice when no value is better,
        as ``none`` always does. The values strictly below (above) the median
        start (end) at the first (last) copy of the upper (lower) middle value.
        ``optimal`` reads no slice and is not asked.
        """
        ordered = self._sorted
        count = len(ordered)
        if method is _MAX_DEVIATION:
            return (0, 1) if direction is _MINIMIZE else (count - 1, count)
        if method is _MEAN_DEVIATION:
            if direction is _MINIMIZE:
                below = bisect_left(ordered, ordered[count // 2])
                if below:
                    return 0, below
            else:
                above = bisect_right(ordered, ordered[(count - 1) // 2])
                if above < count:
                    return above, count
        return _central(count)

    def median(self) -> float:
        count = len(self._ordered())
        if count % 2:
            # the value itself, keeping its sign: a one-value sum would turn -0.0 into 0.0
            return self._sorted[count // 2]
        # the exact midpoint rounded once: a central pair may sum past the float range
        return self._rounded_mean(*_central(count))

    def trimmed_mean(self, trim_fraction: float) -> float:
        validate_trim_fraction(trim_fraction)
        count = len(self._ordered())
        cut = math.floor(trim_fraction * count)
        return self._rounded_mean(cut, count - cut)

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
        ``optimal_value``. Ties are not worse, as in the exact pass. A bound
        that settles every step (``inf`` minimising, ``-inf`` maximising) is
        taken; any other non-finite bound is refused once a step is open.
        """
        if steps_missing < 0:
            raise ValueError("steps_missing must be >= 0")
        pending = self.pending
        if len(pending) == 1:  # the step just taken, folded in as _ordered would
            ordered = self._sorted
            insort(ordered, pending.pop())
        else:
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
        """The open step of ``estimate_is_worse``, with nothing pending: floats, then fractions.

        The float stage computes the blend ``(median*done + optimistic*missing)
        / total``: the median from the central pair, the optimistic value as
        ``fsum`` of its slice over the slice's count (or ``optimal_value``). It
        decides when the blend's distance from ``bound`` exceeds
        ``16u*W + 2**-1070``, where ``u = 2**-53`` and ``W`` is
        ``(|median*done| + |optimistic*missing|) / total``, both as computed.

        Proof that the decision is the exact one: each float operation returns
        its exact result times ``1 + d``, ``|d| <= u``, plus at most
        ``2**-1075`` where a product or quotient is subnormal (a sum of floats
        is exact there, and ``fsum`` rounds once). The median and the
        optimistic value carry at most two roundings each; converting
        ``missing`` and ``total`` one each (none below ``2**53``); the two
        products, their sum and the quotient one each: at most seven
        roundings on any term. So the float blend is within ``7u*W`` (to
        first order in ``u``) plus ``4 * 2**-1075`` of the exact blend. The
        bound as computed is at least ``16u*W*(1 - u)**3 - 2**-1075 +
        2**-1070`` (three roundings, one of them perhaps subnormal), which
        exceeds that. The gap to ``bound`` is rounded once more, and rounding
        is monotonic, so a gap past the bound in floats is one in exact
        arithmetic.

        Anything else goes on to the exact pass: a near-tie, an
        ``OverflowError`` (``fsum``, or an int too large for a float), and a
        non-finite intermediate, which makes the gap or the bound infinite or
        NaN. There the blend of the central and optimistic means, ``Fraction``s
        of ``_mean``'s ratios (or of ``optimal_value``), is compared with
        ``Fraction(bound)``.
        """
        if not isfinite(bound):
            raise ValueError(f"bound must be finite, got {bound}")
        ordered = self._sorted
        done = len(ordered)
        total = done + steps_missing
        lower, upper = _central(done)
        if method is _OPTIMAL_METRIC:
            optimistic = _checked_optimal(optimal_value)
        else:
            start, stop = self._optimistic_slice(direction, method)
        try:
            central = ordered[lower] if done % 2 else (ordered[lower] + ordered[lower + 1]) * 0.5
            if method is not _OPTIMAL_METRIC:
                optimistic = fsum(ordered[start:stop]) / (stop - start)
            weighted, extra = central * done, optimistic * steps_missing
            gap = (weighted + extra) / total - bound
            error = (abs(weighted) + abs(extra)) / total * _ROUNDING + _SUBNORMAL
        except OverflowError:
            pass
        else:
            if error < gap < inf:
                return direction is _MINIMIZE
            if -inf < gap < -error:
                return direction is not _MINIMIZE

        central = Fraction(*self._mean(lower, upper))
        if method is _OPTIMAL_METRIC:
            optimistic = Fraction(optimal_value)
        else:
            optimistic = Fraction(*self._mean(start, stop))
        blend = (central * done + optimistic * steps_missing) / total
        limit = Fraction(bound)
        return blend > limit if direction is _MINIMIZE else blend < limit


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
    history = as_history(values)
    if method is ExtrapolationMethod.NO_EXTRAPOLATION:
        return history.median()
    history._ordered()
    if method is _OPTIMAL_METRIC:
        numerator, denominator = _checked_optimal(optimal_value).as_integer_ratio()
        return numerator / denominator
    return history._rounded_mean(*history._optimistic_slice(direction, method))
