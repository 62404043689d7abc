"""Differential check of the threshold test and the exact means on random histories.

Each history is drawn from one of several pools: plain values, ties, both
zeros, subnormals, values near the float range's edge (``±1.7e308``, whose
sums overflow) and values in a narrow band. For each history, direction and
extrapolation method, ``MetricHistory.estimate_is_worse`` is asked about
bounds at the central values, at the exact blend rounded to a float, one
``math.nextafter`` either side of it, and at random, and must agree with
``oracles.brute_threshold_prunes``. ``MetricHistory._mean`` of random slices
must equal ``oracles.exact_mean``, and the floats that ``median``,
``trimmed_mean`` and ``extrapolate`` return, and ``_rounded_mean`` of the
random slice, must be ``numerator / denominator`` of ``_mean`` on their slice,
bit for bit, sign of zero included. With ``--against``, the ``MetricHistory``
of another ``metrics.py`` (for example an earlier version's) must give the
same decisions too.

Run from the root of a checkout::

    PYTHONPATH=src python tests/differential_metrics.py --histories 40000 --seed 1 \
        [--against path/to/other/metrics.py]

It prints the number of decisions compared, how many reached the exact pass,
how many rounded means took the exact ratio, and every mismatch; it exits 1
if there was one.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import brute_threshold_prunes, exact_mean, exact_median, exact_optimistic  # noqa: E402

from nestedprune import Direction, ExtrapolationMethod, MetricHistory  # noqa: E402
from nestedprune.metrics import _central, extrapolate  # noqa: E402

SPECIAL = [0.0, -0.0, 0.5, 0.5, -1.5, 2.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.5e-308,
           1e-300, 1.7e308, -1.7e308, 8.5e307, 0.1, 0.2, 0.3]


def draw_history(rng: random.Random) -> list[float]:
    count = rng.randint(1, 40)
    pool = rng.randrange(5)
    if pool == 0:
        return [rng.uniform(-2.0, 2.0) for _ in range(count)]
    if pool == 1:
        return [rng.choice(SPECIAL) for _ in range(count)]
    if pool == 2:
        return [rng.choice([0.5 + 2**-30, 0.5, 0.0, 0.4]) for _ in range(count)]
    if pool == 3:
        scale = 2.0 ** rng.randint(-1074, 1020)
        return [rng.choice([-1, 1]) * rng.random() * scale for _ in range(count)]
    return [rng.choice(SPECIAL) if rng.random() < 0.3 else rng.gauss(0.5, 0.2)
            for _ in range(count)]


def bounds_for(values, missing, direction, method, optimal, rng) -> list[float]:
    ordered = sorted(values)
    done = len(ordered)
    blend = (exact_median(values) * done
             + exact_optimistic(values, direction, method, optimal) * missing) / (done + missing)
    at = float(blend)
    found = [ordered[(done - 1) // 2], ordered[done // 2], at, rng.uniform(-3.0, 3.0)]
    if math.isfinite(at):
        found += [math.nextafter(at, -math.inf), math.nextafter(at, math.inf)]
    return [b for b in found if math.isfinite(b)]


def rounded_means(history: MetricHistory, start: int, stop: int, trim: float):
    """Each rounded mean read from ``history`` (nothing pending): its name, value and slice."""
    count = len(history)
    cut = math.floor(trim * count)
    found = [
        ("_rounded_mean", history._rounded_mean(start, stop), (start, stop)),
        (f"trimmed_mean({trim})", history.trimmed_mean(trim), (cut, count - cut)),
    ]
    if count % 2 == 0:  # an odd count's median is its central value, not a mean
        found.append(("median", history.median(), _central(count)))
    for direction in Direction:
        for method in (ExtrapolationMethod.MAX_DEVIATION, ExtrapolationMethod.MEAN_DEVIATION):
            found.append((
                f"extrapolate {direction.value} {method.value}",
                extrapolate(history, direction, method),
                history._optimistic_slice(direction, method),
            ))
    return found


def load_metrics(path: str):
    spec = importlib.util.spec_from_file_location("other_metrics", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--histories", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", default=None, help="another metrics.py to compare with")
    args = parser.parse_args(argv)
    other = load_metrics(args.against) if args.against else None

    exact_passes = [0]
    mean = MetricHistory._mean
    rounded = fallbacks = 0

    def counted(self, start, stop):
        exact_passes[0] += 1
        return mean(self, start, stop)

    MetricHistory._mean = counted
    rng = random.Random(args.seed)
    decisions = means = mismatches = reached = 0
    for _ in range(args.histories):
        values = draw_history(rng)
        history = MetricHistory(values)
        history.median()
        start = rng.randrange(len(values))
        stop = rng.randrange(start, len(values)) + 1
        numerator, denominator = history._mean(start, stop)
        means += 1
        if Fraction(numerator, denominator) != exact_mean(sorted(values)[start:stop]):
            mismatches += 1
            print(f"mean mismatch: {values!r}[{start}:{stop}]")
        before = exact_passes[0]
        for name, got, (low, high) in rounded_means(history, start, stop, rng.random() * 0.5):
            numerator, denominator = mean(history, low, high)
            rounded += 1
            if got.hex() != (numerator / denominator).hex():
                mismatches += 1
                print(f"rounded mean mismatch: {name} of {values!r}: got {got!r}, "
                      f"exact ratio {numerator / denominator!r}")
        fallbacks += exact_passes[0] - before
        missing = rng.randint(0, 12)
        optimal = rng.choice([0.0, 1.0, -0.5, rng.choice(SPECIAL)])
        for direction in Direction:
            for method in ExtrapolationMethod:
                for bound in bounds_for(values, missing, direction, method, optimal, rng):
                    before = exact_passes[0]
                    worse = history.estimate_is_worse(bound, missing, direction, method, optimal)
                    reached += exact_passes[0] != before
                    expected = brute_threshold_prunes(
                        values, missing, direction, method, optimal, bound
                    )
                    decisions += 1
                    if other is not None:
                        theirs = other.MetricHistory(values).estimate_is_worse(
                            bound, missing, other.Direction(direction.value),
                            other.ExtrapolationMethod(method.value), optimal,
                        )
                        expected_other = theirs
                    else:
                        expected_other = expected
                    if worse != expected or worse != expected_other:
                        mismatches += 1
                        print(f"decision mismatch: {values!r} bound={bound!r} missing={missing} "
                              f"{direction.value} {method.value} optimal={optimal!r}: "
                              f"got {worse}, oracle {expected}, other {expected_other}")
    print(f"{args.histories} histories: {means} means, {rounded} rounded means and "
          f"{decisions} decisions compared, {fallbacks} rounded means took the exact ratio, "
          f"{reached} decisions reached the exact pass, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
