"""The three workloads: inputs made in set-up, one timed operation, output checks.

Each workload reaches the package through the package object ``pkg`` handed
to it, so that set-up can import the package afresh. Pruner variants are written
once as plain dicts; the same dicts configure the package and the reference
replay in ``refreplay``, which shares no code with the package.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import inspect
import io
import json
import random
import time
from array import array
from pathlib import Path

import refreplay

ASHA = {
    "min_resource": 1,
    "reduction_factor": 3,
    "min_early_stopping_rate": 2,
    "bootstrap_count": 0,
}
THREE_LAYER = {
    "threshold": 0.45,
    "extrapolation": "mean-dev",
    "optimal_value": 0.0,
    "trim_fraction": 0.2,
    "min_threshold_steps": 4,
    "threshold_window_fraction": 1 / 3,
    "asha": ASHA,
    "semantic_enabled": True,
    "threshold_enabled": True,
    "comparison_enabled": True,
}
ASHA_ONLY = {
    **THREE_LAYER, "threshold": None, "semantic_enabled": False, "threshold_enabled": False
}
VARIANTS = {"asha": ASHA_ONLY, "three-layer": THREE_LAYER}


def pruner_config(pkg, variant: dict):
    settings = {**variant, "asha": pkg.AshaConfig(**variant["asha"])}
    settings["extrapolation"] = pkg.ExtrapolationMethod(variant["extrapolation"])
    return pkg.PrunerConfig(direction=pkg.Direction.MINIMIZE, **settings)


def as_tuples(cohort) -> list:
    """A cohort in the reference replay's form: (trial_id, metrics, feature counts)."""
    return [
        (
            trace.trial_id,
            array("d", [step.metric for step in trace.steps]),
            array("q", [step.selected_feature_count for step in trace.steps]),
        )
        for trace in cohort
    ]


def fixed_quality_cohort(pkg, shape, trials) -> list:
    """A cohort of ``(trial_id, base quality, selects no features, noise seed)`` trials.

    Each trial comes from ``generate_cohort`` with its base pinned, so the
    trials' qualities are set by the workload and only their noise, outliers
    and feature counts come from the seed given; every seed then asks the
    pruners for about the same work.
    """
    cohort = []
    for trial_id, base, no_features, noise_seed in trials:
        (trace,) = pkg.generate_cohort(
            pkg.TraceGenConfig(
                trials=1, shape=shape, seed=noise_seed, base_min=base, base_max=base,
                zero_feature_prob=1.0 if no_features else 0.0,
            )
        )
        steps = tuple(dataclasses.replace(s, trial_id=trial_id) for s in trace.steps)
        cohort.append(pkg.TrialTrace(trial_id=trial_id, shape=shape, steps=steps))
    return cohort


def compare_rep(problems: list, where: str, package: dict, expected: dict) -> None:
    for key, value in expected.items():
        if package.get(key) != value:
            problems.append(f"{where}: {key} is {package.get(key)!r}, reference replay {value!r}")


class Reference:
    """compare_pruners on the criterion-1 study: 30 reps x 40 trials, 30x10, base seed 42.

    The study is the paper's reference cohort, so its inputs do not depend on
    ``--seed``; three-layer must train 63,295 models against ASHA's 195,360.
    """

    name = "reference"
    probe_engine = True
    median_call_kernel = "call"  # the median engine call only keeps books
    REPS, TRIALS, BASE_SEED, SHAPE = 30, 40, 42, (30, 10)
    EXPECTED_MODELS = {"asha": 195_360, "three-layer": 63_295}

    def prepare(self, pkg, seed: int, workdir: Path):
        source = pkg.TraceGenConfig(
            trials=self.TRIALS, shape=pkg.CvShape(*self.SHAPE), seed=self.BASE_SEED
        )
        return pkg.BenchConfig(
            variants={name: pruner_config(pkg, v) for name, v in VARIANTS.items()},
            baseline="asha",
            source=source,
            repetitions=self.REPS,
            trials_per_rep=self.TRIALS,
            base_seed=self.BASE_SEED,
        )

    def run(self, pkg, config, samples: array):
        return pkg.compare_pruners(config)

    def models_trained(self, report) -> int:
        return next(v for v in report.variants if v.name == "three-layer").models_trained_total

    def check(self, pkg, config, report) -> list[str]:
        problems: list[str] = []
        variants = {v.name: v for v in report.variants}
        totals = dict.fromkeys(VARIANTS, 0)
        for rep in range(self.REPS):
            cohort = as_tuples(
                pkg.generate_cohort(dataclasses.replace(config.source, seed=self.BASE_SEED + rep))
            )
            scale = refreplay.cohort_scale(cohort, VARIANTS.values())
            objectives = refreplay.full_objectives(cohort, 0.2, scale)
            for name, variant in VARIANTS.items():
                results = refreplay.replay_study(cohort, self.SHAPE[1], variant, scale)
                expected = refreplay.rep_stats(results, objectives, variant)
                totals[name] += expected["models_trained"]
                package = dataclasses.asdict(variants[name].per_rep[rep])
                compare_rep(problems, f"rep {rep} {name}", package, expected)
                if not expected["best_preserved"] and name == "three-layer":
                    problems.append(f"rep {rep}: three-layer lost the best trial")
        if totals != self.EXPECTED_MODELS:
            problems.append(f"models trained {totals}, paper's study {self.EXPECTED_MODELS}")
        saved = 1 - totals["three-layer"] / totals["asha"]
        if saved < 0.40:
            problems.append(f"three-layer saves {saved:.1%} against asha, need at least 40%")
        reported = variants["three-layer"].percent_models_saved_vs_baseline
        if reported != 100.0 * saved:
            problems.append(f"report says {reported}% saved, reference replay {100 * saved}%")
        if not variants["three-layer"].best_preserved_all:
            problems.append("report says three-layer lost a best trial")
        return problems


class LiveLong:
    """combined_decide called step by step on 20 trials of a 100x10 grid.

    Semantic and threshold layers are on and comparison is off; the threshold
    window is open over the whole grid, so histories grow to 1000 values. The
    trials' quality levels are fixed and only their noise comes from the seed,
    so every seed asks for about the same number of calls: 16 trials stay
    under the threshold and run the whole grid, 2 sit far above it and are
    cut by the threshold layer within the first inner loop, and 2 select no
    features and are cut by the semantic layer at once.
    """

    name = "live-long"
    probe_engine = False
    median_call_kernel = "sort"  # the median call sorts a history of hundreds
    SHAPE = (100, 10)
    VARIANT = {
        **THREE_LAYER,
        "threshold": 0.75,
        "threshold_window_fraction": 1.0,
        "comparison_enabled": False,
    }
    # (base quality, selects no features); minimised metric, threshold 0.75
    TRIALS = [(0.2 + 0.02 * i, False) for i in range(16)] + [(1.1, False), (1.1, False),
                                                           (0.3, True), (0.6, True)]

    def prepare(self, pkg, seed: int, workdir: Path):
        rng = random.Random(seed)
        order = list(range(len(self.TRIALS)))
        rng.shuffle(order)
        trials = [(f"trial_{i:03d}", *self.TRIALS[i], rng.getrandbits(32)) for i in order]
        shape = pkg.CvShape(*self.SHAPE)
        cohort = fixed_quality_cohort(pkg, shape, trials)
        return shape, pruner_config(pkg, self.VARIANT), [(t.trial_id, t.steps) for t in cohort]

    def run(self, pkg, inputs, samples: array):
        shape, config, trials = inputs
        study = pkg.StudyState(shape=shape, config=config)
        decide = pkg.combined_decide
        # the study already holds the config, so the call may stop taking it
        extra = (config,) if "config" in inspect.signature(decide).parameters else ()
        clock = time.perf_counter_ns
        ends = []
        for trial_id, steps in trials:
            for count, step in enumerate(steps, start=1):
                start = clock()
                decision = decide(study, trial_id, step, *extra)
                samples.append(clock() - start)
                if decision.pruned:
                    break
            layer = decision.layer.value if decision.pruned else None
            ends.append((trial_id, count, layer, decision.reported_value))
        return tuple(ends)

    def models_trained(self, ends) -> int:
        return sum(steps for _, steps, _, _ in ends)

    def check(self, pkg, inputs, ends) -> list[str]:
        _, _, trials = inputs
        cohort = [
            (trial_id, [s.metric for s in steps], [s.selected_feature_count for s in steps])
            for trial_id, steps in trials
        ]
        scale = refreplay.cohort_scale(cohort, [self.VARIANT])
        results = refreplay.replay_study(cohort, self.SHAPE[1], self.VARIANT, scale)
        problems = []
        for got, want in zip(ends, results):
            if got != (want.trial_id, want.steps, want.layer, want.reported):
                problems.append(f"{want.trial_id}: package ended {got}, reference replay {want}")
        return problems


class ReplayTraces:
    """``nestedprune bench --traces`` and ``report --format csv`` on 400 recorded trials.

    Set-up writes a 400-trial 30x10 cohort (120,000 rows) as one trace CSV.
    Base qualities are spread evenly over 0.2 to 0.9, every tenth trial
    selects no features (the generator's defaults in expectation), and the
    trials are recorded in one fixed shuffled order; the seed gives only their
    noise. Shuffling the order by seed instead moved three-layer's models by
    10% across ten seeds, since ASHA's rungs depend on arrival order; with the
    order fixed they move by 2.6%. The timed part reads the file back,
    replays it under asha and three-layer once (``--reps 1``), scores the
    ground truth and converts the JSON report to CSV, all through ``cli.main``.
    """

    name = "replay-traces"
    probe_engine = True
    median_call_kernel = "call"
    TRIALS, SHAPE = 400, (30, 10)

    def prepare(self, pkg, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        traces, variants = workdir / "traces.csv", workdir / "variants.json"
        order = list(range(self.TRIALS))
        random.Random(0).shuffle(order)
        rng = random.Random(seed)
        trials = [
            (f"trial_{i:03d}", 0.2 + 0.7 * (i + 0.5) / self.TRIALS, i % 10 == 9,
             rng.getrandbits(32))
            for i in order
        ]
        cohort = fixed_quality_cohort(pkg, pkg.CvShape(*self.SHAPE), trials)
        pkg.write_traces(cohort, traces)
        variants.write_text(json.dumps(VARIANTS), encoding="utf-8")
        # keep the written numbers compactly, so the cohort's objects are freed
        # before the timed part and do not count in its peak memory
        return workdir, as_tuples(cohort)

    def run(self, pkg, inputs, samples: array):
        workdir, _ = inputs
        report_json, report_csv = workdir / "report.json", workdir / "report.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["bench", "--traces", str(workdir / "traces.csv"), "--reps", "1",
                 "--variants", str(workdir / "variants.json"), "--baseline", "asha",
                 "--out", str(report_json)],
                ["report", "--in", str(report_json), "--format", "csv", "--out", str(report_csv)],
            ):
                status = pkg.cli.main(argv)
                if status != 0:
                    raise RuntimeError(f"nestedprune {argv[0]} exited with status {status}")
        return report_json.read_bytes(), report_csv.read_bytes()

    def models_trained(self, output) -> int:
        report = json.loads(output[0])
        return next(v for v in report["variants"] if v["name"] == "three-layer")[
            "models_trained_total"
        ]

    def check(self, pkg, inputs, output) -> list[str]:
        workdir, written = inputs
        problems = []
        read = as_tuples(pkg.read_traces(workdir / "traces.csv"))
        if [(t, m.tobytes(), f.tobytes()) for t, m, f in read] != [
            (t, m.tobytes(), f.tobytes()) for t, m, f in written
        ]:
            problems.append("read_traces did not give back exactly the metrics written")
        report = json.loads(output[0])
        variants = {v["name"]: v for v in report["variants"]}
        scale = refreplay.cohort_scale(written, VARIANTS.values())
        objectives = refreplay.full_objectives(written, 0.2, scale)
        for name, variant in VARIANTS.items():
            results = refreplay.replay_study(written, self.SHAPE[1], variant, scale)
            expected = refreplay.rep_stats(results, objectives, variant)
            compare_rep(problems, name, variants[name]["per_rep"][0], expected)
        problems += csv_disagreements(report, output[1].decode("utf-8"))
        return problems


def _cell(value) -> str:
    """How the CSV report spells a JSON value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def _block_disagrees(text: str, expected: list[tuple[str, dict]]) -> bool:
    """True unless each CSV row holds its (variant, JSON object)'s values, column by column."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(expected):
        return True
    for row, (variant, values) in zip(rows, expected):
        if set(row) != {"variant"} | set(values) - {"name", "per_rep", "false_prunes"}:
            return True
        if row.pop("variant") != variant:
            return True
        if any(cell != _cell(values[column]) for column, cell in row.items()):
            return True
    return False


def csv_disagreements(report: dict, text: str) -> list[str]:
    """Blocks of the CSV report that differ from the JSON report they were made from."""
    detail, summary = text.split("\n\n")
    problems = []
    per_rep = [(v["name"], r) for v in report["variants"] for r in v["per_rep"]]
    if _block_disagrees(detail, per_rep):
        problems.append("CSV detail rows disagree with the JSON report")
    if _block_disagrees(summary, [(v["name"], v) for v in report["variants"]]):
        problems.append("CSV summary rows disagree with the JSON report")
    return problems


WORKLOADS = {w.name: w for w in (Reference, LiveLong, ReplayTraces)}
