"""Unit tests for the robust statistics and extrapolation primitives."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_threshold_prunes,
    exact_mean,
    exact_median,
    exact_optimistic,
    exact_trimmed_mean,
)

from nestedprune import (
    CvShape,
    Direction,
    ExtrapolationMethod,
    MetricHistory,
    PrunerConfig,
    TraceGenConfig,
    generate_cohort,
    median,
    threshold_decide,
    trimmed_mean,
)
from nestedprune.metrics import extrapolate

MIN = Direction.MINIMIZE
MAX = Direction.MAXIMIZE

metric_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


class TestTrimmedMean:
    def test_constant_series(self):
        assert trimmed_mean([0.5] * 10, 0.2) == 0.5

    def test_outlier_dropped(self):
        # sort, drop floor(0.2*5)=1 per end, average {2, 3, 4}
        assert trimmed_mean([1, 2, 3, 4, 100], 0.2) == 3.0

    def test_short_series_degrades_to_plain_mean(self):
        # floor(0.2*3) = 0, nothing trimmed
        assert trimmed_mean([0.7, 0.1, 0.4], 0.2) == pytest.approx(0.4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean([], 0.2)

    @pytest.mark.parametrize("bad", [-0.1, 0.5, 0.9])
    def test_bad_trim_fraction_rejected(self, bad):
        with pytest.raises(ValueError):
            trimmed_mean([1.0, 2.0], bad)

    @given(metric_lists)
    def test_zero_trim_is_exact_mean(self, values):
        assert trimmed_mean(values, 0.0) == float(exact_mean(values))

    @given(metric_lists, st.floats(min_value=0.0, max_value=0.4999))
    def test_bounded_by_extremes(self, values, trim):
        result = trimmed_mean(values, trim)
        assert min(values) <= result <= max(values)

    @given(metric_lists, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert trimmed_mean(shuffled, 0.2) == trimmed_mean(values, 0.2)


class TestMedian:
    def test_singleton(self):
        assert median([0.5]) == 0.5

    def test_even_uses_central_pair_midpoint(self):
        assert median([0.6, 0.5, 0.7, 0.55]) == pytest.approx(0.575)

    def test_odd_picks_middle(self):
        assert median([1, 2, 3]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    @given(metric_lists, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert median(shuffled) == median(values)

    @given(metric_lists)
    def test_negation_symmetry(self, values):
        assert median([-v for v in values]) == -median(values)


class TestDeviationsTowardOptimum:
    """The one-sided deviations from the median toward the optimum, read through
    the extrapolation they drive: mean-dev moves by their mean, max-dev by the
    largest, and neither moves when there are none."""

    VALUES = [0.6, 0.5, 0.7, 0.55]

    def test_minimize_keeps_below_median(self):
        # median 0.575; values below it are 0.5 and 0.55
        mean_dev = extrapolate(self.VALUES, MIN, ExtrapolationMethod.MEAN_DEVIATION)
        assert mean_dev == float(exact_mean([0.5, 0.55]))
        assert extrapolate(self.VALUES, MIN, ExtrapolationMethod.MAX_DEVIATION) == 0.5

    def test_constant_series_has_no_deviations(self):
        for direction in (MIN, MAX):
            for method in (ExtrapolationMethod.MAX_DEVIATION, ExtrapolationMethod.MEAN_DEVIATION):
                assert extrapolate([0.5, 0.5, 0.5], direction, method) == 0.5

    def test_maximize_keeps_above_median(self):
        # 0.575 + mean(0.025, 0.125): the mean of the values above the median
        mean_dev = extrapolate(self.VALUES, MAX, ExtrapolationMethod.MEAN_DEVIATION)
        assert mean_dev == float(exact_mean([0.6, 0.7]))
        assert extrapolate(self.VALUES, MAX, ExtrapolationMethod.MAX_DEVIATION) == 0.7

    @given(metric_lists, st.sampled_from([MIN, MAX]))
    def test_all_nonnegative(self, values, direction):
        center = median(values)
        for method in (ExtrapolationMethod.MAX_DEVIATION, ExtrapolationMethod.MEAN_DEVIATION):
            assert not direction.is_worse(extrapolate(values, direction, method), center)


class TestExtrapolate:
    VALUES = [0.6, 0.5, 0.7, 0.55]

    def test_optimal_metric_is_constant(self):
        assert extrapolate(self.VALUES, MIN, ExtrapolationMethod.OPTIMAL_METRIC, 0.0) == 0.0

    def test_optimal_metric_requires_value(self):
        with pytest.raises(ValueError):
            extrapolate(self.VALUES, MIN, ExtrapolationMethod.OPTIMAL_METRIC)

    def test_max_deviation(self):
        # 0.575 - 0.075
        result = extrapolate(self.VALUES, MIN, ExtrapolationMethod.MAX_DEVIATION)
        assert result == pytest.approx(0.5)

    def test_mean_deviation(self):
        # 0.575 - mean(0.075, 0.025)
        result = extrapolate(self.VALUES, MIN, ExtrapolationMethod.MEAN_DEVIATION)
        assert result == pytest.approx(0.525)

    def test_empty_deviations_fall_back_to_median(self):
        assert extrapolate([0.5, 0.5], MIN, ExtrapolationMethod.MEAN_DEVIATION) == 0.5

    def test_no_extrapolation_is_median(self):
        assert extrapolate(self.VALUES, MIN, ExtrapolationMethod.NO_EXTRAPOLATION) == median(
            self.VALUES
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extrapolate([], MIN, ExtrapolationMethod.NO_EXTRAPOLATION)

    @given(metric_lists)
    # the rounded mean of the deviations exceeds their maximum here
    @example([0.0, 0.0, 1.0, 1.0, 0.2, -2.835467207250853e-187])
    def test_methods_ordered_by_aggressiveness_minimize(self, values):
        """More aggressive methods never extrapolate less optimistically."""
        optimal = min(values)  # any optimal_value <= min(values)
        e_opt = extrapolate(values, MIN, ExtrapolationMethod.OPTIMAL_METRIC, optimal)
        e_max = extrapolate(values, MIN, ExtrapolationMethod.MAX_DEVIATION)
        e_mean = extrapolate(values, MIN, ExtrapolationMethod.MEAN_DEVIATION)
        e_none = extrapolate(values, MIN, ExtrapolationMethod.NO_EXTRAPOLATION)
        assert e_opt <= e_max <= e_mean <= e_none == median(values)

    @given(metric_lists)
    @example([-0.0, -0.0, -1.0, -1.0, -0.2, 2.835467207250853e-187])
    def test_methods_ordered_by_aggressiveness_maximize(self, values):
        optimal = max(values)
        e_opt = extrapolate(values, MAX, ExtrapolationMethod.OPTIMAL_METRIC, optimal)
        e_max = extrapolate(values, MAX, ExtrapolationMethod.MAX_DEVIATION)
        e_mean = extrapolate(values, MAX, ExtrapolationMethod.MEAN_DEVIATION)
        e_none = extrapolate(values, MAX, ExtrapolationMethod.NO_EXTRAPOLATION)
        assert e_opt >= e_max >= e_mean >= e_none == median(values)

    @settings(max_examples=300)
    @given(
        metric_lists,
        st.sampled_from(list(ExtrapolationMethod)),
        st.sampled_from([MIN, MAX]),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    def test_negation_symmetry(self, values, method, direction, optimal):
        other = MAX if direction is MIN else MIN
        mirrored = extrapolate([-v for v in values], other, method, optimal_value=-optimal)
        assert mirrored == -extrapolate(values, direction, method, optimal_value=optimal)


# ties at simple values, both zeros, negatives, and subnormals that need the
# finest scale
history_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 0.5, -1.5, 2.0, 5e-324, -1e-310]),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


class TestMetricHistory:
    """Statistics read from an incrementally folded history equal the exact oracles."""

    @settings(max_examples=300)
    @given(
        st.lists(st.tuples(history_values, st.booleans()), min_size=1, max_size=40),
        st.floats(min_value=0.0, max_value=0.4999),
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=-2.5, max_value=2.5),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    # a subnormal folded in alone after coarse values were read: the next read
    # refits the scale to it; then -0.0 and 0.75 go in by one bulk fold after a read
    @example([(0.5, False), (1.0, False), (0.25, False), (2.0, True), (5e-324, True),
              (-0.0, False), (0.75, True)], 0.2, 3, 0.5, 0.0)
    # a central pair whose float sum overflows: the midpoint is still finite
    @example([(1e308, False), (1.7e308, True)], 0.2, 3, 0.5, 0.0)
    # the edges of a rounded mean's float stage: an exact tie, which rounds to even
    @example([(1.0, False), (1.0 + 2**-52, True)], 0.2, 3, 0.5, 0.0)
    # a mean just past the midpoint below 1.0, where the gap below is half the
    # gap above: the corrected quotient rounds to 1.0, and only the check
    # against the gap below sends it to the exact ratio, 1 - 2**-53
    @example([(2.0, False), (-(2.0**-300), False), (0.0, False), (2.0 - 2**-52, True)],
             0.0, 3, 0.5, 0.0)
    # a zero mean; a negative mean that underflows to -0.0; a mean above 2**900
    @example([(-0.5, False), (0.5, True)], 0.2, 3, 0.5, 0.0)
    @example([(-5e-324, False), (0.0, True)], 0.2, 3, 0.5, 0.0)
    @example([(1e300, False), (3e300, True)], 0.2, 3, 0.5, 0.0)
    # a slice whose fsum overflows, though its mean is finite
    @example([(1.7e308, False), (1.7e308, False), (1.0, True)], 0.0, 3, 0.5, 0.0)
    def test_matches_oracles_at_every_query(self, steps, trim, missing, threshold, optimal):
        history = MetricHistory()
        seen = []
        for value, query in steps[:-1] + [(steps[-1][0], True)]:
            history.pending.append(value)
            seen.append(value)
            if not query:
                continue
            assert len(history) == len(seen)
            # extrapolate reads first, none last, so it sums at the scale it fits itself
            for direction in (MIN, MAX):
                for method in reversed(ExtrapolationMethod):
                    assert extrapolate(history, direction, method, optimal) == float(
                        exact_optimistic(seen, direction, method, optimal)
                    )
            assert median(history) == float(exact_median(seen))
            assert trimmed_mean(history, trim) == float(exact_trimmed_mean(seen, trim))
            for direction in (MIN, MAX):
                for method in ExtrapolationMethod:
                    config = PrunerConfig(
                        direction=direction,
                        threshold=threshold,
                        extrapolation=method,
                        optimal_value=optimal,
                    )
                    expected = brute_threshold_prunes(
                        seen, missing, direction, method, optimal, threshold
                    )
                    assert threshold_decide(history, missing, config).pruned == expected


class TestMedianSettledSteps:
    """A threshold step the central values settle skips the exact pass, and agrees with it.

    The blend is a weighted mean of the median and the optimistic value, so it
    is not worse than the bound when neither is. Bounds on the central pair,
    their midpoint, the best value and ``optimal_value`` put ties exactly on
    that check.
    """

    @settings(max_examples=300)
    @given(
        st.lists(st.tuples(history_values, st.booleans()), min_size=1, max_size=40),
        st.sampled_from(list(ExtrapolationMethod)),
        st.sampled_from([MIN, MAX]),
        st.sampled_from(["lower", "upper", "midpoint", "best", "optimal"]),
        st.integers(min_value=0, max_value=12),
        st.one_of(history_values, st.floats(min_value=-3.0, max_value=3.0)),
    )
    def test_bound_on_the_checked_values(self, steps, method, direction, at, missing, optimal):
        history = MetricHistory()
        seen = []
        for value, query in steps[:-1] + [(steps[-1][0], True)]:
            history.pending.append(value)
            seen.append(value)
            if not query:
                continue
            ordered = sorted(seen)
            lower, upper = ordered[(len(ordered) - 1) // 2], ordered[len(ordered) // 2]
            bound = {
                "lower": lower,
                "upper": upper,
                "midpoint": (lower + upper) / 2,
                "best": ordered[0] if direction is MIN else ordered[-1],
                "optimal": optimal,
            }[at]
            config = PrunerConfig(
                direction=direction, threshold=bound, extrapolation=method, optimal_value=optimal
            )
            expected = brute_threshold_prunes(seen, missing, direction, method, optimal, bound)
            assert threshold_decide(history, missing, config).pruned == expected

    @pytest.fixture()
    def exact_passes(self, monkeypatch):
        """The number of threshold steps that reached the exact pass, as a one-item list."""
        calls = [0]
        estimate = MetricHistory._estimate

        def counted(self, *args):
            calls[0] += 1
            return estimate(self, *args)

        monkeypatch.setattr(MetricHistory, "_estimate", counted)
        return calls

    @staticmethod
    def decide(values, bound, missing, direction, method, optimal=0.0):
        """The decision under ``direction``: MAXIMIZE negates every number, so cases mirror."""
        sign = 1.0 if direction is MIN else -1.0
        values, bound, optimal = [sign * v for v in values], sign * bound, sign * optimal
        worse = MetricHistory(values).estimate_is_worse(bound, missing, direction, method, optimal)
        assert worse == brute_threshold_prunes(values, missing, direction, method, optimal, bound)
        return worse

    @pytest.mark.parametrize("direction", [MIN, MAX])
    @pytest.mark.parametrize("method", list(ExtrapolationMethod))
    @pytest.mark.parametrize(
        "values, bound",
        [([0.1, 0.2, 0.5], 0.2), ([0.1, 0.2, 0.5, 0.9], 0.5)],
        ids=["odd", "even"],
    )
    def test_worse_central_value_on_the_bound_continues(
        self, exact_passes, values, bound, method, direction
    ):
        assert not self.decide(values, bound, 6, direction, method)
        assert exact_passes == [0]

    @pytest.mark.parametrize("direction", [MIN, MAX])
    def test_bound_inside_the_central_pair_takes_the_exact_pass(self, exact_passes, direction):
        # median 0.35 is worse than 0.3 and mean-dev's 0.15 better: the step counts decide
        values = [0.1, 0.2, 0.5, 0.9]
        assert self.decide(values, 0.3, 0, direction, ExtrapolationMethod.MEAN_DEVIATION)
        assert not self.decide(values, 0.3, 4, direction, ExtrapolationMethod.MEAN_DEVIATION)
        assert exact_passes == [2]

    @pytest.mark.parametrize("direction", [MIN, MAX])
    def test_optimal_value_worse_than_the_bound_prunes(self, exact_passes, direction):
        # the median 0.1 is better than 0.2, but ten steps at 1.0 pull the blend past it
        values = [0.1, 0.1, 0.1]
        assert self.decide(values, 0.2, 10, direction, ExtrapolationMethod.OPTIMAL_METRIC, 1.0)
        assert exact_passes == [1]


class TestExactMean:
    """``_mean`` adds the values' own ratios exactly, past the float range too."""

    # ties, both zeros, subnormals, and values whose sums overflow
    pool = st.sampled_from(
        [0.0, -0.0, 0.5, 0.5, -1.5, 3.0, 0.1, 5e-324, -5e-324, -1e-310, 1e-300,
         1.7e308, -1.7e308]
    )

    @settings(max_examples=500)
    @given(st.lists(st.one_of(pool, st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=12), st.data())
    @example([1.7e308, 1.7e308], None)  # a sum past the float range
    @example([0.1, 0.2, 0.3, 5e-324], None)  # denominators up to the least subnormal's
    # 300 values: sums past the float range either way, beside subnormals
    @example([1.7e308, -1.7e308, 5e-324, -1e-310, 2.5e-308] * 60, None)
    @example([1.7e308] * 100 + [-5e-324] * 100 + [-1.7e308] * 99 + [1e-310], None)
    def test_equals_the_exact_mean(self, values, data):
        history = MetricHistory(values)
        ordered = sorted(values)
        history.median()
        if data is None:
            start, stop = 0, len(ordered)
        else:
            start = data.draw(st.integers(0, len(ordered) - 1))
            stop = data.draw(st.integers(start + 1, len(ordered)))
        numerator, denominator = history._mean(start, stop)
        assert Fraction(numerator, denominator) == exact_mean(ordered[start:stop])


class TestFloatStage:
    """An open threshold step is decided in floats unless the blend is within its error bound.

    Bounds at the exact blend rounded to a float, and one ``nextafter`` either
    side, are inside that bound, so they reach the exact pass: the only caller
    of ``_mean`` on a threshold step.
    """

    @pytest.fixture()
    def integer_passes(self, monkeypatch):
        """The number of ``_mean`` calls, as a one-item list."""
        calls = [0]
        mean = MetricHistory._mean

        def counted(self, *args):
            calls[0] += 1
            return mean(self, *args)

        monkeypatch.setattr(MetricHistory, "_mean", counted)
        return calls

    @staticmethod
    def near_blend(values, missing, direction, method, optimal):
        """The exact blend rounded to a float, and the floats on either side of it."""
        done = len(values)
        blend = float(
            (exact_median(values) * done
             + exact_optimistic(values, direction, method, optimal) * missing)
            / (done + missing)
        )
        return [math.nextafter(blend, -math.inf), blend, math.nextafter(blend, math.inf)]

    # the counter is read as a difference, so it need not be reset between examples
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(history_values, min_size=1, max_size=30),
        st.sampled_from(list(ExtrapolationMethod)),
        st.sampled_from([MIN, MAX]),
        st.integers(min_value=0, max_value=12),
        history_values,
    )
    def test_bounds_at_the_blend_reach_the_exact_pass(
        self, integer_passes, values, method, direction, missing, optimal
    ):
        history = MetricHistory(values)
        history.median()
        ordered = sorted(values)
        worse_central = ordered[len(values) // 2 if direction is MIN else (len(values) - 1) // 2]
        for bound in self.near_blend(values, missing, direction, method, optimal):
            before = integer_passes[0]
            worse = history.estimate_is_worse(bound, missing, direction, method, optimal)
            assert worse == brute_threshold_prunes(
                values, missing, direction, method, optimal, bound
            )
            settled = not direction.is_worse(worse_central, bound) and (
                method is not ExtrapolationMethod.OPTIMAL_METRIC
                or not direction.is_worse(optimal, bound)
            )
            # a step the central values leave open goes past the float stage
            assert integer_passes[0] > before or settled

    @pytest.mark.parametrize("direction", [MIN, MAX])
    @pytest.mark.parametrize("method", list(ExtrapolationMethod), ids=lambda m: m.value)
    def test_bounds_at_the_blend_of_a_long_history(self, integer_passes, method, direction):
        # one trial's 1,000 metrics on a 100x10 grid, as the live-long benchmark builds them
        (trace,) = generate_cohort(
            TraceGenConfig(trials=1, shape=CvShape(100, 10), seed=7, base_min=0.5, base_max=0.5)
        )
        values = list(trace.metrics)
        optimal = 0.0 if direction is MIN else 1.0
        history = MetricHistory(values)
        for bound in self.near_blend(values, 10, direction, method, optimal):
            before = integer_passes[0]
            worse = history.estimate_is_worse(bound, 10, direction, method, optimal)
            assert worse == brute_threshold_prunes(values, 10, direction, method, optimal, bound)
            assert integer_passes[0] > before  # the central values leave each step open

    @pytest.mark.parametrize("direction", [MIN, MAX])
    def test_dyadic_blend_on_the_bound(self, integer_passes, direction):
        # median 0.375 and mean-dev 0.1875, four steps each way: the blend is 0.28125 exactly
        sign = 1.0 if direction is MIN else -1.0
        values = [sign * v for v in (0.125, 0.25, 0.5, 1.0)]
        method = ExtrapolationMethod.MEAN_DEVIATION
        below, at, above = self.near_blend(values, 4, direction, method, 0.0)
        assert at == sign * 0.28125
        decisions = [
            MetricHistory(values).estimate_is_worse(bound, 4, direction, method, 0.0)
            for bound in (below, at, above)
        ]
        assert decisions == ([True, False, False] if direction is MIN else [False, False, True])
        assert integer_passes == [6]

    @pytest.mark.parametrize("direction", [MIN, MAX])
    def test_far_bound_is_settled_in_floats(self, integer_passes, direction):
        # the median 0.375 is worse than 0.3; mean-dev's blend 0.28125 is clearly better
        sign = 1.0 if direction is MIN else -1.0
        values = [sign * v for v in (0.125, 0.25, 0.5, 1.0)]
        method = ExtrapolationMethod.MEAN_DEVIATION
        assert not MetricHistory(values).estimate_is_worse(sign * 0.3, 4, direction, method, 0.0)
        assert MetricHistory(values).estimate_is_worse(sign * 0.25, 4, direction, method, 0.0)
        assert integer_passes == [0]


class TestNonFiniteInput:
    """A history refuses non-finite metrics by name instead of failing deep in the arithmetic."""

    @pytest.mark.parametrize("values", [[0.1, math.nan], [math.inf, 0.2], [0.3, -math.inf, 0.1]])
    def test_statistics_reject_it(self, values):
        reads = (
            median,
            lambda v: trimmed_mean(v, 0.2),
            lambda v: extrapolate(v, MIN, ExtrapolationMethod.MEAN_DEVIATION),
            lambda v: extrapolate(v, MAX, ExtrapolationMethod.OPTIMAL_METRIC, 1.0),
            MetricHistory,
        )
        for read in reads:
            with pytest.raises(ValueError, match="metric values must be finite, got -?(nan|inf)"):
                read(values)

    @pytest.mark.parametrize("optimal", [math.nan, math.inf, -math.inf])
    def test_optimal_value_must_be_finite(self, optimal):
        with pytest.raises(ValueError, match=f"optimal_value must be finite, got {optimal}"):
            extrapolate([0.5, 0.6], MIN, ExtrapolationMethod.OPTIMAL_METRIC, optimal)


class TestBadArguments:
    """A history's own methods refuse what the module functions refuse, with the same message."""

    @pytest.mark.parametrize("bad", [-0.1, 0.5, 0.6])
    def test_trimmed_mean_refuses_a_trim_fraction_out_of_range(self, bad):
        # the mean of 1..10 is 5.5; unchecked, -0.1 and 0.6 read 0.8333333333333334 and -0.0
        with pytest.raises(ValueError, match=rf"^trim_fraction must be in \[0, 0\.5\), got {bad}$"):
            MetricHistory(range(1, 11)).trimmed_mean(bad)

    @pytest.mark.parametrize("method", list(ExtrapolationMethod))
    def test_estimate_is_worse_refuses_negative_missing_steps(self, method):
        # the median 0.35 is worse than 0.3: unchecked, this reaches the exact pass and prunes
        history = MetricHistory([0.5, 0.2])
        with pytest.raises(ValueError, match=r"^steps_missing must be >= 0$"):
            history.estimate_is_worse(0.3, -5, MIN, method, 0.0)

    @pytest.mark.parametrize("method", list(ExtrapolationMethod))
    @pytest.mark.parametrize("direction, bound", [
        (MIN, -math.inf), (MIN, math.nan), (MAX, math.inf), (MAX, math.nan),
    ])
    def test_estimate_is_worse_refuses_a_bound_that_leaves_the_step_open(
        self, method, direction, bound
    ):
        # unchecked, the exact pass failed converting the bound to an integer ratio
        with pytest.raises(ValueError, match=rf"^bound must be finite, got {bound}$"):
            MetricHistory([0.5, 0.2]).estimate_is_worse(bound, 3, direction, method, 0.0)

    @pytest.mark.parametrize("method", list(ExtrapolationMethod))
    @pytest.mark.parametrize("direction, bound", [(MIN, math.inf), (MAX, -math.inf)])
    def test_estimate_is_worse_takes_a_bound_that_settles_the_step(self, method, direction, bound):
        assert not MetricHistory([0.5, 0.2]).estimate_is_worse(bound, 3, direction, method, 0.0)

    def test_threshold_decide_refuses_negative_missing_steps(self):
        config = PrunerConfig(direction=MIN, threshold=0.3)
        with pytest.raises(ValueError, match=r"^steps_missing must be >= 0$"):
            threshold_decide([0.5, 0.2], -1, config)


class TestSignOfZero:
    """Which statistics keep the sign of a zero: only those that return a value itself."""

    @pytest.mark.parametrize("direction", [MIN, MAX])
    def test_pinned(self, direction):
        def read(values, method):
            return repr(extrapolate(values, direction, method, 0.0))

        # an odd-length median is the central value itself, and none extrapolates by it
        assert repr(median([-0.0])) == "-0.0"
        assert repr(median([-0.0] * 3)) == "-0.0"
        assert read([-0.0], ExtrapolationMethod.NO_EXTRAPOLATION) == "-0.0"
        # a mean is rounded from an exact integer sum, which has no negative zero
        assert repr(median([-0.0, -0.0])) == "0.0"
        assert repr(trimmed_mean([-0.0], 0.2)) == "0.0"
        assert read([-0.0], ExtrapolationMethod.MAX_DEVIATION) == "0.0"
        assert read([-0.0], ExtrapolationMethod.MEAN_DEVIATION) == "0.0"
        # but a negative mean too small for a float rounds to -0.0
        assert repr(median([-5e-324, 0.0])) == "-0.0"
        assert repr(trimmed_mean([-5e-324, 0.0], 0.2)) == "-0.0"


class TestDirection:
    def test_is_worse(self):
        assert MIN.is_worse(0.6, 0.5)
        assert not MIN.is_worse(0.5, 0.5)
        assert MAX.is_worse(0.4, 0.5)
