"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Oracle implementations live in ``oracles.py`` and are deliberately
independent of the library's code paths.
"""

import math
import random
import time

from oracles import (
    brute_rung_survivors,
    brute_threshold_prunes,
    exact_median,
    exact_trimmed_mean,
    within_one_ulp,
)

import nestedprune.pruners as pruners_module
from nestedprune import (
    AshaConfig,
    BenchConfig,
    CvShape,
    Direction,
    ExtrapolationMethod,
    MetricHistory,
    PruneLayer,
    PrunerConfig,
    StepRecord,
    TraceGenConfig,
    TrialStatus,
    TrialTrace,
    asha_record_and_decide,
    compare_pruners,
    generate_cohort,
    median,
    run_study,
    threshold_decide,
    trimmed_mean,
)
from nestedprune.cli import main as cli_main
from nestedprune.pruners import rung_cutoff

MIN = Direction.MINIMIZE
MAX = Direction.MAXIMIZE

REFERENCE_SHAPE = CvShape(outer_folds=30, inner_folds=10)
REFERENCE_GEN = TraceGenConfig(
    trials=40,
    shape=REFERENCE_SHAPE,
    seed=42,
    base_min=0.2,
    base_max=0.9,
    noise_sd=0.15,
    outlier_prob=0.05,
    outlier_magnitude=1.0,
    zero_feature_prob=0.10,
    direction=MIN,
)
TABLE_ASHA = AshaConfig(
    min_resource=1, reduction_factor=3, min_early_stopping_rate=2, bootstrap_count=0
)
THREE_LAYER = PrunerConfig(
    direction=MIN,
    threshold=0.45,
    extrapolation=ExtrapolationMethod.MEAN_DEVIATION,
    optimal_value=0.0,
    asha=TABLE_ASHA,
)
ASHA_ONLY = PrunerConfig(
    direction=MIN, asha=TABLE_ASHA, semantic_enabled=False, threshold_enabled=False
)
CRITERION_1 = BenchConfig(
    variants={"asha": ASHA_ONLY, "three-layer": THREE_LAYER},
    baseline="asha",
    source=REFERENCE_GEN,
    repetitions=30,
    trials_per_rep=40,
    base_seed=42,
)
# each layer's calls and prunes in one criterion-1 round, named as perfbench's
# tracer names them; the workflow's reference trace step pins the same counts
CRITERION_1_LAYER_COUNTS = {
    "pruners.semantic.calls": 63295,
    "pruners.threshold.calls": 30982,
    "pruners.comparison.calls": 2111,
    "pruners.semantic.prunes": 117,
    "pruners.threshold.prunes": 761,
    "pruners.comparison.prunes": 1172,
}


def verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_reference_benchmark():
    """Three-layer pruning beats ASHA-only by >= 40% while keeping every best trial."""
    started = time.monotonic()
    report = compare_pruners(CRITERION_1)
    elapsed = time.monotonic() - started
    three = next(v for v in report.variants if v.name == "three-layer")
    saved = three.percent_models_saved_vs_baseline
    preserved = sum(r.best_preserved for r in three.per_rep)
    ok = saved >= 40.0 and three.best_preserved_all and elapsed < 60.0
    verdict(
        1,
        ok,
        f"saved {saved:.1f}% vs asha-only (need >= 40), best preserved in "
        f"{preserved}/30 repetitions, wall clock {elapsed:.1f}s (need < 60)",
    )


def test_criterion_1_layer_counts(monkeypatch):
    """Which step reaches which layer, and what each layer decides, in the criterion-1 round."""
    counts = dict.fromkeys(CRITERION_1_LAYER_COUNTS, 0)
    for name, layer in (("semantic_decide", "semantic"), ("threshold_decide", "threshold"),
                        ("asha_record_and_decide", "comparison")):
        def counted(*args, decide=getattr(pruners_module, name), layer=layer):
            decision = decide(*args)
            counts[f"pruners.{layer}.calls"] += 1
            counts[f"pruners.{layer}.prunes"] += decision.pruned
            return decision

        monkeypatch.setattr(pruners_module, name, counted)
    compare_pruners(CRITERION_1)
    assert counts == CRITERION_1_LAYER_COUNTS


def test_criterion_1_rounded_means_mostly_decided_in_floats(monkeypatch):
    """Of the criterion-1 round's rounded means, only near-ties take ``_mean``'s exact ratio.

    No threshold step of the round reaches the exact pass, so every
    ``_mean`` call is a rounded mean's fallback; a float stage that stopped
    deciding would send all 4,422 there.
    """
    calls = {"rounded": 0, "exact": 0}
    for name, key in (("_rounded_mean", "rounded"), ("_mean", "exact")):
        def counted(self, start, stop, method=getattr(MetricHistory, name), key=key):
            calls[key] += 1
            return method(self, start, stop)

        monkeypatch.setattr(MetricHistory, name, counted)
    compare_pruners(CRITERION_1)
    assert calls == {"rounded": 4422, "exact": 60}


def test_criterion_2_false_prune_ordering():
    """Extrapolation methods order false prunes and model counts as claimed."""
    methods = {
        "none": ExtrapolationMethod.NO_EXTRAPOLATION,
        "mean-dev": ExtrapolationMethod.MEAN_DEVIATION,
        "max-dev": ExtrapolationMethod.MAX_DEVIATION,
        "optimal": ExtrapolationMethod.OPTIMAL_METRIC,
    }
    variants = {
        name: PrunerConfig(
            direction=MIN,
            threshold=0.45,
            extrapolation=method,
            optimal_value=0.0,
            semantic_enabled=False,
            comparison_enabled=False,
        )
        for name, method in methods.items()
    }
    report = compare_pruners(
        BenchConfig(
            variants=variants,
            baseline="none",
            source=REFERENCE_GEN,
            repetitions=30,
            trials_per_rep=40,
            base_seed=42,
        )
    )
    false = {v.name: v.falsely_pruned_total for v in report.variants}
    models = {v.name: v.models_trained_total for v in report.variants}
    false_ordered = (
        false["none"] >= false["mean-dev"] >= false["max-dev"] >= false["optimal"]
    )
    models_ordered = (
        models["none"] <= models["mean-dev"] <= models["max-dev"] <= models["optimal"]
    )
    verdict(
        2,
        false_ordered and models_ordered,
        f"false prunes {false['none']} >= {false['mean-dev']} >= {false['max-dev']} "
        f">= {false['optimal']}; models {models['none']} <= {models['mean-dev']} "
        f"<= {models['max-dev']} <= {models['optimal']}",
    )


def test_criterion_3_threshold_oracle_equivalence():
    """threshold_decide agrees with an exact-arithmetic recomputation, 10k cases."""
    rng = random.Random(12345)
    methods = list(ExtrapolationMethod)
    mismatches = 0
    for _ in range(10_000):
        count = rng.randint(1, 40)
        if rng.random() < 0.25:
            center = rng.uniform(0.0, 2.0)
            values = [center + rng.gauss(0.0, 0.02) for _ in range(count)]
        else:
            values = [rng.uniform(0.0, 2.0) for _ in range(count)]
        missing = rng.randint(0, 15)
        method = rng.choice(methods)
        direction = rng.choice([MIN, MAX])
        threshold = rng.uniform(-0.5, 2.5)
        optimal = rng.uniform(-1.0, 3.0)
        config = PrunerConfig(
            direction=direction,
            threshold=threshold,
            extrapolation=method,
            optimal_value=optimal,
        )
        expected = brute_threshold_prunes(
            values, missing, direction, method, optimal, threshold
        )
        if threshold_decide(values, missing, config).pruned != expected:
            mismatches += 1
    verdict(3, mismatches == 0, f"{mismatches} mismatches in 10000 randomized cases")


def test_criterion_4_asha_rung_oracle():
    """Rung survivor sets match brute-force top-ceil(n/factor) with ties, 1k cases."""
    rng = random.Random(54321)
    mismatches = 0
    for _ in range(1_000):
        count = rng.randint(1, 50)
        tie_friendly = rng.random() < 0.5
        values = {}
        for index in range(count):
            value = rng.uniform(0.0, 1.0)
            if tie_friendly:
                value = round(value, 2)
            values[f"t{index}"] = value
        direction = rng.choice([MIN, MAX])
        factor = rng.randint(2, 5)
        ranked = []  # one rung, built as the study builds it
        for value in values.values():
            asha_record_and_decide(ranked, value, direction, AshaConfig(reduction_factor=factor))
        cutoff = rung_cutoff(ranked, direction, factor)
        survivors = {tid for tid, v in values.items() if not direction.is_worse(v, cutoff)}
        if survivors != brute_rung_survivors(values, direction, factor):
            mismatches += 1
        if len(survivors) < math.ceil(count / factor):
            mismatches += 1
    verdict(4, mismatches == 0, f"{mismatches} mismatches in 1000 randomized rungs")


def test_criterion_5_robust_statistics_oracles():
    """trimmed_mean and median match exact rational oracles within one ulp, 10k series."""
    rng = random.Random(99)
    failures = 0
    for index in range(10_000):
        length = rng.randint(1, 500)
        scale = 10.0 ** rng.randint(-2, 3)
        values = [rng.uniform(-1.0, 1.0) * scale for _ in range(length)]
        trim = 0.2 if index % 2 else rng.uniform(0.0, 0.4999)
        if not within_one_ulp(trimmed_mean(values, trim), exact_trimmed_mean(values, trim)):
            failures += 1
        if not within_one_ulp(median(values), exact_median(values)):
            failures += 1
    verdict(5, failures == 0, f"{failures} deviations beyond one ulp in 10000 series")


def _random_study(rng):
    outer = rng.randint(2, 10)
    inner = rng.randint(2, 10)
    shape = CvShape(outer_folds=outer, inner_folds=inner)
    config = PrunerConfig(
        direction=MIN,
        threshold=rng.uniform(0.2, 0.8),
        extrapolation=rng.choice(list(ExtrapolationMethod)),
        optimal_value=0.0,
        threshold_window_fraction=rng.uniform(0.05, 1.0),
        asha=AshaConfig(
            min_resource=rng.randint(1, 2),
            reduction_factor=rng.randint(2, 4),
            min_early_stopping_rate=rng.randint(0, 2),
        ),
    )
    cohort = []
    for index in range(6):
        zero = rng.random() < 0.1
        steps = tuple(
            StepRecord(
                trial_id=f"t{index}",
                outer_idx=i // inner,
                inner_idx=i % inner,
                metric=rng.uniform(0.0, 1.0),
                selected_feature_count=0 if zero else rng.randint(1, 50),
            )
            for i in range(shape.total_steps)
        )
        cohort.append(TrialTrace(trial_id=f"t{index}", shape=shape, steps=steps))
    return shape, config, cohort


def test_criterion_6_window_discipline():
    """No layer ever fires outside its activation window, randomized configs."""
    rng = random.Random(2024)
    violations = 0
    threshold_prunes = comparison_prunes = 0
    for _ in range(150):
        shape, config, cohort = _random_study(rng)
        report = run_study(cohort, config)
        window_start = max(config.min_threshold_steps, math.ceil(shape.inner_folds / 2))
        window_end_outer = math.ceil(config.threshold_window_fraction * shape.outer_folds)
        rung_zero = config.asha.min_resource * (
            config.asha.reduction_factor**config.asha.min_early_stopping_rate
        )
        for outcome in report.outcomes:
            step = outcome.models_trained
            if outcome.pruned_layer is PruneLayer.THRESHOLD:
                threshold_prunes += 1
                if step < window_start:
                    violations += 1
                if step // shape.inner_folds >= window_end_outer:
                    violations += 1
            elif outcome.pruned_layer is PruneLayer.COMPARISON:
                comparison_prunes += 1
                if step % shape.inner_folds != 0:
                    violations += 1
                if step // shape.inner_folds < rung_zero:
                    violations += 1
    exercised = threshold_prunes > 0 and comparison_prunes > 0
    verdict(
        6,
        violations == 0 and exercised,
        f"{violations} window violations over {threshold_prunes} threshold and "
        f"{comparison_prunes} comparison prunes",
    )


def test_criterion_7_semantic_immediacy():
    """A trial whose first step selects zero features trains exactly one model."""
    cohort = generate_cohort(
        TraceGenConfig(
            trials=20, shape=CvShape(6, 4), seed=8, zero_feature_prob=1.0
        )
    )
    report = run_study(cohort, PrunerConfig(direction=MIN, threshold=0.45))
    bad = [
        o
        for o in report.outcomes
        if o.models_trained != 1 or o.pruned_layer is not PruneLayer.SEMANTIC
    ]
    verdict(
        7,
        not bad,
        f"{len(bad)} of {len(report.outcomes)} zero-feature trials exceeded one model",
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    """gen, replay, and bench produce byte-identical outputs across runs."""
    variants = tmp_path / "variants.json"
    variants.write_text(
        '{"asha": {"semantic_enabled": false, "threshold_enabled": false},\n'
        ' "three-layer": {"threshold": 0.45}}',
        encoding="utf-8",
    )
    outputs = []
    for run in ("one", "two"):
        traces = tmp_path / f"traces-{run}.csv"
        report = tmp_path / f"report-{run}.json"
        assert cli_main([
            "gen", "--trials", "6", "--outer", "8", "--inner", "4", "--seed", "3",
            "--out", str(traces),
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "replay", "--traces", str(traces), "--pruner", "three-layer",
            "--threshold", "0.45",
        ]) == 0
        replay_stdout = capsys.readouterr().out
        assert cli_main([
            "bench", "--reps", "2", "--trials", "5", "--outer", "8", "--inner", "4",
            "--base-seed", "7", "--variants", str(variants), "--baseline", "asha",
            "--out", str(report),
        ]) == 0
        capsys.readouterr()
        outputs.append((traces.read_bytes(), replay_stdout, report.read_bytes()))
    ok = outputs[0] == outputs[1]
    verdict(8, ok, "gen/replay/bench outputs byte-identical across two runs")


def _negated(trace):
    steps = tuple(
        StepRecord(
            trial_id=s.trial_id,
            outer_idx=s.outer_idx,
            inner_idx=s.inner_idx,
            metric=-s.metric,
            selected_feature_count=s.selected_feature_count,
        )
        for s in trace.steps
    )
    return TrialTrace(trial_id=trace.trial_id, shape=trace.shape, steps=steps)


def test_criterion_9_direction_symmetry():
    """Negating metrics and flipping direction reproduces every decision, 1k trials."""
    shape = CvShape(outer_folds=8, inner_folds=5)
    asha = AshaConfig(min_resource=1, reduction_factor=3, min_early_stopping_rate=1)
    config_min = PrunerConfig(
        direction=MIN, threshold=0.45, optimal_value=0.0, asha=asha
    )
    config_max = PrunerConfig(
        direction=MAX, threshold=-0.45, optimal_value=-0.0, asha=asha
    )
    mismatched = 0
    trials = 0
    for seed in range(50):
        cohort = generate_cohort(
            TraceGenConfig(
                trials=20,
                shape=shape,
                seed=1000 + seed,
                zero_feature_prob=0.05,
                noise_sd=0.2,
            )
        )
        mirrored = [_negated(trace) for trace in cohort]
        report_min = run_study(cohort, config_min)
        report_max = run_study(mirrored, config_max)
        for low, high in zip(report_min.outcomes, report_max.outcomes):
            trials += 1
            same = (
                low.status == high.status
                and low.pruned_layer == high.pruned_layer
                and low.models_trained == high.models_trained
            )
            if not same:
                mismatched += 1
    verdict(9, mismatched == 0, f"{mismatched} of {trials} mirrored trials diverged")
