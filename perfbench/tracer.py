"""Per-layer counters, taken by wrapping the package's public functions from outside.

A function is wrapped in every loaded ``nestedprune`` module whose namespace
holds it, since modules call each other through names they imported. Each
wrapper adds one pair of clock reads, so inclusive times of outer functions
also carry the wrappers of the functions they call; the traced run reports
that cost as the difference between traced and untraced rounds.
"""

from __future__ import annotations

import sys
import time

# (module, function) -> prefix of the metrics it feeds
TARGETS = {
    ("trace", "generate_cohort"): "trace.generate",
    ("trace", "read_traces"): "trace.read",
    ("trace", "write_traces"): "trace.write",
    ("engine", "run_study"): "engine.run_study",
    ("engine", "full_objective"): "bench.full_objective",
    ("pruners", "combined_decide"): "pruners.combined_decide",
    ("pruners", "semantic_decide"): "pruners.semantic",
    ("pruners", "threshold_decide"): "pruners.threshold",
    ("pruners", "asha_record_and_decide"): "pruners.comparison",
    ("metrics", "median"): "metrics.median",
    ("metrics", "trimmed_mean"): "metrics.trimmed_mean",
    ("metrics", "extrapolate"): "metrics.extrapolate",
    ("bench", "classify_false_prunes"): "bench.classify_false_prunes",
    ("bench", "emit_report"): "bench.emit_report",
    ("bench", "load_report"): "bench.load_report",
    ("cli", "main"): "cli.main",
}


class Span:
    """Calls, inclusive nanoseconds, items (steps, rows or history values) and prunes."""

    __slots__ = ("calls", "ns", "items", "prunes")

    def __init__(self) -> None:
        self.calls = self.ns = self.items = self.prunes = 0


def _steps(args, result) -> tuple[int, int]:
    return sum(len(trace.steps) for trace in result), 0


def _prunes(args, result) -> tuple[int, int]:
    return 0, int(result.pruned)


# prefix -> (items, prunes) that one call adds, from its arguments and result
COUNTERS = {
    "trace.generate": _steps,
    "trace.read": _steps,
    "engine.run_study": lambda args, result: (result.models_trained_total, 0),
    "pruners.threshold": lambda args, result: (len(args[0]), int(result.pruned)),
    "pruners.semantic": _prunes,
    "pruners.comparison": _prunes,
}


class Tracer:
    def __init__(self) -> None:
        self.spans = {prefix: Span() for prefix in TARGETS.values()}
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every target in each ``nestedprune`` module that refers to it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nestedprune"]
        for (module, name), prefix in TARGETS.items():
            home = sys.modules.get(f"nestedprune.{module}")
            original = getattr(home, name, None)
            if original is None:
                self.missing.append(f"nestedprune.{module}.{name}")
                continue
            wrapper = self._wrap(original, self.spans[prefix], prefix)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    @staticmethod
    def _wrap(function, span: Span, prefix: str):
        clock = time.perf_counter_ns
        count = COUNTERS.get(prefix)

        def wrapper(*args, **kwargs):
            start = clock()
            result = function(*args, **kwargs)
            span.ns += clock() - start
            span.calls += 1
            if count is not None:
                items, prunes = count(args, result)
                span.items += items
                span.prunes += prunes
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def metrics(self, rounds: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer figures: counts and seconds per round, microseconds per call.

        Times are multiplied by ``scale``, the host-speed factor of the rounds.
        """
        s = self.spans

        def per_round(value):
            return value / rounds

        def us_per_call(span):
            return span.ns * scale / 1e3 / span.calls if span.calls else 0.0

        def seconds(span):
            return per_round(span.ns * scale / 1e9)

        run_study = s["engine.run_study"]
        threshold = s["pruners.threshold"]
        out = {
            "trace.generate.s": (seconds(s["trace.generate"]), "s"),
            "trace.generate.steps": (per_round(s["trace.generate"].items), "count"),
            "trace.read.s": (seconds(s["trace.read"]), "s"),
            "trace.read.rows": (per_round(s["trace.read"].items), "count"),
            "trace.write.s": (seconds(s["trace.write"]), "s"),
            "engine.run_study.s": (seconds(run_study), "s"),
            "engine.steps": (per_round(run_study.items), "count"),
            "engine.us_per_step": (
                run_study.ns * scale / 1e3 / run_study.items if run_study.items else 0.0, "us"
            ),
            "pruners.combined_decide.us": (us_per_call(s["pruners.combined_decide"]), "us"),
            "pruners.threshold.history_mean": (
                threshold.items / threshold.calls if threshold.calls else 0.0, "count"
            ),
        }
        for layer in ("semantic", "threshold", "comparison"):
            span = s[f"pruners.{layer}"]
            out[f"pruners.{layer}.calls"] = (per_round(span.calls), "count")
            out[f"pruners.{layer}.prunes"] = (per_round(span.prunes), "count")
            out[f"pruners.{layer}.us"] = (us_per_call(span), "us")
        for name in ("median", "trimmed_mean"):
            span = s[f"metrics.{name}"]
            out[f"metrics.{name}.calls"] = (per_round(span.calls), "count")
            out[f"metrics.{name}.us"] = (us_per_call(span), "us")
        out["metrics.extrapolate.us"] = (us_per_call(s["metrics.extrapolate"]), "us")
        out["bench.full_objective.calls"] = (per_round(s["bench.full_objective"].calls), "count")
        out["bench.full_objective.s"] = (seconds(s["bench.full_objective"]), "s")
        for name in ("classify_false_prunes", "emit_report", "load_report"):
            out[f"bench.{name}.s"] = (seconds(s[f"bench.{name}"]), "s")
        out["cli.main.s"] = (seconds(s["cli.main"]), "s")
        return out
