"""Unit tests for the benchmark harness and report serialization."""

import hashlib
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from mutations import damaged, edits

from nestedprune import (
    AshaConfig,
    BenchConfig,
    CvShape,
    Direction,
    ExtrapolationMethod,
    FormatError,
    PrunerConfig,
    StepRecord,
    TraceGenConfig,
    TrialTrace,
    classify_false_prunes,
    compare_pruners,
    emit_report,
    full_objective,
    load_report,
    run_study,
    write_traces,
)
from nestedprune import bench, engine
from nestedprune.bench import report_to_csv, report_to_json

MIN = Direction.MINIMIZE
SHAPE = CvShape(outer_folds=6, inner_folds=4)


def constant_trace(trial_id, metric, features=10, shape=SHAPE):
    steps = tuple(
        StepRecord(trial_id, i // shape.inner_folds, i % shape.inner_folds, metric, features)
        for i in range(shape.total_steps)
    )
    return TrialTrace(trial_id=trial_id, shape=shape, steps=steps)


def objectives(cohort, trim_fraction=0.2):
    return {trace.trial_id: full_objective(trace, trim_fraction) for trace in cohort}


def gen_config(**overrides):
    base = dict(trials=6, shape=SHAPE, seed=11)
    base.update(overrides)
    return TraceGenConfig(**base)


def variant(**overrides):
    base = dict(direction=MIN, threshold=0.45)
    base.update(overrides)
    return PrunerConfig(**base)


NO_LAYERS = variant(
    threshold=None, semantic_enabled=False, threshold_enabled=False, comparison_enabled=False
)
THRESHOLD_ONLY = variant(semantic_enabled=False, comparison_enabled=False)


def bench_config(**overrides):
    base = dict(
        variants={"none": NO_LAYERS, "threshold": THRESHOLD_ONLY},
        baseline="none",
        source=gen_config(),
        repetitions=2,
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestBenchConfig:
    def test_baseline_must_be_a_variant(self):
        with pytest.raises(ValueError, match="^baseline 'missing' is not among the variants$"):
            bench_config(baseline="missing")

    def test_variants_required(self):
        with pytest.raises(ValueError, match="^at least one pruner variant is required$"):
            bench_config(variants={})

    def test_directions_must_agree(self):
        flipped = PrunerConfig(
            direction=Direction.MAXIMIZE,
            semantic_enabled=False,
            threshold_enabled=False,
        )
        message = "^all variants must share one optimization direction$"
        with pytest.raises(ValueError, match=message):
            bench_config(variants={"none": NO_LAYERS, "flipped": flipped})

    def test_generation_direction_must_match(self):
        message = "^cohort generation direction must match the variants$"
        with pytest.raises(ValueError, match=message):
            bench_config(source=gen_config(direction=Direction.MAXIMIZE))

    def test_repetitions_bound(self):
        with pytest.raises(ValueError, match="^repetitions must be >= 1$"):
            bench_config(repetitions=0)

    # the generated source is the one description of each repetition's cohort
    def test_generated_trials_must_match(self):
        message = "^the source gives trials_per_rep=3, not 6$"
        with pytest.raises(ValueError, match=message):
            bench_config(source=gen_config(trials=3), trials_per_rep=6, base_seed=11)

    def test_generated_seed_must_match(self):
        message = "^the source gives base_seed=5, not 11$"
        with pytest.raises(ValueError, match=message):
            bench_config(source=gen_config(seed=5), trials_per_rep=6, base_seed=11)

    # the source decides what it fixes; nothing needs restating
    def test_generated_source_decides_cohort(self):
        config = BenchConfig({"a": THRESHOLD_ONLY}, "a", gen_config(trials=10, seed=0))
        assert (config.repetitions, config.trials_per_rep, config.base_seed) == (30, 10, 0)

    def test_recorded_source_decides_one_repetition(self):
        config = BenchConfig({"a": THRESHOLD_ONLY}, "a", "p.csv")
        assert (config.repetitions, config.trials_per_rep, config.base_seed) == (1, None, None)

    @pytest.mark.parametrize("name, value", [("trials_per_rep", 7), ("base_seed", 3)])
    def test_recorded_source_refuses_cohort_fields(self, name, value):
        # both were once taken and ignored: the file decides its own cohort
        message = f"^the source gives {name}=None, not {value}$"
        with pytest.raises(ValueError, match=message):
            BenchConfig({"a": THRESHOLD_ONLY}, "a", "p.csv", repetitions=1, **{name: value})

    def test_restated_values_change_nothing(self):
        # the benchmark's reference call restates the source's 40 trials and seed 42
        variants = {"asha": NO_LAYERS, "three-layer": THRESHOLD_ONLY}
        source = gen_config(trials=40, seed=42, shape=CvShape(outer_folds=30, inner_folds=10))
        restated = BenchConfig(variants, "asha", source, repetitions=30, trials_per_rep=40,
                               base_seed=42)
        assert restated == BenchConfig(variants, "asha", source)
        assert repr(restated) == repr(BenchConfig(variants, "asha", source))


class TestClassifyFalsePrunes:
    def test_margin_for_wrongly_pruned_trial(self):
        # full-run trimmed mean 0.384 beats threshold 0.45, but the early
        # steps sit above it, fooling the threshold layer at window start
        metrics = [0.9] * 5 + [0.35] * (SHAPE.total_steps - 5)
        steps = tuple(
            StepRecord("t0", i // SHAPE.inner_folds, i % SHAPE.inner_folds, m, 10)
            for i, m in enumerate(metrics)
        )
        cohort = [TrialTrace("t0", SHAPE, steps)]
        report = run_study(cohort, THRESHOLD_ONLY)
        outcome = report.outcomes[0]
        assert outcome.pruned_layer is not None
        records = classify_false_prunes(report.outcomes, objectives(cohort), THRESHOLD_ONLY, rep=4)
        assert len(records) == 1
        record = records[0]
        assert record.rep == 4 and record.trial_id == "t0"
        assert record.full_objective < 0.45
        assert record.margin == pytest.approx(0.45 - record.full_objective)

    def test_genuinely_bad_trial_is_not_false(self):
        cohort = [constant_trace("t0", 0.50)]
        report = run_study(cohort, THRESHOLD_ONLY)
        assert report.outcomes[0].pruned_layer is not None
        assert classify_false_prunes(report.outcomes, objectives(cohort), THRESHOLD_ONLY) == []

    def test_completed_trials_never_classified(self):
        cohort = [constant_trace("t0", 0.40)]
        report = run_study(cohort, THRESHOLD_ONLY)
        assert report.outcomes[0].status.value == "completed"
        assert classify_false_prunes(report.outcomes, objectives(cohort), THRESHOLD_ONLY) == []


class TestComparePruners:
    def test_identical_variants_save_nothing(self):
        report = compare_pruners(
            bench_config(variants={"a": THRESHOLD_ONLY, "b": THRESHOLD_ONLY}, baseline="a")
        )
        a, b = report.variants
        assert a.models_trained_total == b.models_trained_total
        assert b.percent_models_saved_vs_baseline == 0.0
        assert a.per_rep == b.per_rep

    def test_no_layer_baseline_trains_everything(self):
        config = bench_config()
        report = compare_pruners(config)
        baseline = next(v for v in report.variants if v.name == "none")
        expected = config.repetitions * config.trials_per_rep * SHAPE.total_steps
        assert baseline.models_trained_total == expected
        assert baseline.best_preserved_all

    def test_fresh_cohort_per_repetition(self):
        report = compare_pruners(bench_config(repetitions=3))
        threshold = next(v for v in report.variants if v.name == "threshold")
        models = {r.models_trained for r in threshold.per_rep}
        assert len(threshold.per_rep) == 3
        assert len(models) > 1  # different cohorts behave differently

    def test_traces_path_source(self, tmp_path):
        cohort = [constant_trace(f"t{i}", 0.3 + 0.1 * i) for i in range(4)]
        path = tmp_path / "cohort.csv"
        write_traces(cohort, path)
        report = compare_pruners(bench_config(source=str(path), repetitions=1))
        assert (report.repetitions, report.trials_per_rep) == (1, 4)
        none = next(v for v in report.variants if v.name == "none")
        assert [r.models_trained for r in none.per_rep] == [4 * SHAPE.total_steps]

    def test_traces_path_source_takes_one_repetition(self, tmp_path):
        # a second repetition would replay the one recorded cohort again
        path = tmp_path / "cohort.csv"
        write_traces([constant_trace("t0", 0.3)], path)
        message = "recorded traces are one cohort; repetitions must be 1, not 2"
        with pytest.raises(ValueError, match=message):
            bench_config(source=str(path), repetitions=2)

    def test_ground_truth_scored_once_per_cohort(self, monkeypatch):
        calls = []
        score = engine.full_objective

        def counted(trace, trim_fraction=0.2):
            calls.append(trace.trial_id)
            return score(trace, trim_fraction)

        # bench calls full_objective through the name it imported from engine
        for module in (engine, bench):
            monkeypatch.setattr(module, "full_objective", counted)
        # the criterion-1 variants: scoring once per variant made 313 calls
        asha = AshaConfig(min_resource=1, reduction_factor=3, min_early_stopping_rate=2)
        config = bench_config(
            variants={
                "asha": variant(threshold=None, semantic_enabled=False,
                                threshold_enabled=False, asha=asha),
                "three-layer": variant(extrapolation=ExtrapolationMethod.MEAN_DEVIATION,
                                       optimal_value=0.0, asha=asha),
            },
            baseline="asha",
            source=gen_config(trials=40, seed=42, shape=CvShape(outer_folds=30, inner_folds=10)),
            repetitions=3,
            trials_per_rep=40,
            base_seed=42,
        )
        compare_pruners(config)
        assert len(calls) == 3 * 40

    def test_report_metadata(self):
        report = compare_pruners(bench_config())
        assert report.baseline == "none"
        assert (report.outer_folds, report.inner_folds) == (6, 4)
        assert report.direction == "minimize"
        assert [v.name for v in report.variants] == ["none", "threshold"]


class TestReportSerialization:
    @pytest.fixture()
    def report(self):
        return compare_pruners(bench_config())

    def test_json_round_trip(self, report, tmp_path):
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        assert load_report(path) == report

    def test_report_with_workers_key_loads(self, report, tmp_path):
        # reports written while bench had a worker count carry "workers": 1
        data = json.loads(report_to_json(report))
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**data, "workers": 1}, indent=2), encoding="utf-8")
        assert load_report(path) == report

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda d: d["variants"][0]["per_rep"][0].update(bogus=1),
             "variants[0].per_rep[0]: unknown key 'bogus'"),
            (lambda d: d.update(bogus=1), "unknown key 'bogus'"),
        ],
        ids=["nested", "top-level"],
    )
    def test_unknown_report_key_rejected(self, report, tmp_path, edit, where):
        data = json.loads(report_to_json(report))
        edit(data)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(FormatError) as caught:
            load_report(path)
        assert str(caught.value) == f"malformed report {path}: {where}"

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda d: d["variants"][0].update(models_trained_stddev=math.nan),
             "variants[0]: models_trained_stddev must be finite, got nan"),
            (lambda d: d["variants"][1].update(percent_models_saved_vs_baseline=math.inf),
             "variants[1]: percent_models_saved_vs_baseline must be finite, got inf"),
            (lambda d: d["variants"][1]["per_rep"][0].update(max_margin=-math.inf),
             "variants[1].per_rep[0]: max_margin must be finite, got -inf"),
        ],
        ids=["NaN", "Infinity", "-Infinity"],
    )
    def test_non_finite_report_float_rejected(self, report, tmp_path, edit, where):
        # Python's json reads NaN and Infinity, and report once wrote them back
        data = json.loads(report_to_json(report))
        edit(data)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(FormatError) as caught:
            load_report(path)
        assert str(caught.value) == f"malformed report {path}: {where}"

    def test_report_syntax_error_names_file_and_line(self, report, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"schema":\n "nestedprune-bench-report/v1",\n ]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 3: "):
            load_report(path)

    def test_deeply_nested_report_names_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*nested too deeply"):
            load_report(path)

    def test_emissions_are_byte_identical(self, report, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report, "json", a)
        emit_report(report, "json", b)
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        emit_report(report, "csv", c)
        emit_report(report, "csv", d)
        assert c.read_bytes() == d.read_bytes()

    def test_empty_false_prune_sections_present(self, report):
        data = json.loads(report_to_json(report))
        baseline = data["variants"][0]
        assert baseline["name"] == "none"
        assert baseline["false_prunes"] == []
        assert all("max_margin" in r for r in baseline["per_rep"])

    def test_csv_has_detail_and_summary_blocks(self, report):
        text = report_to_csv(report)
        blocks = text.split("\n\n")
        assert len(blocks) == 2
        detail_lines = blocks[0].strip().split("\n")
        expected_rows = len(report.variants) * report.repetitions
        assert len(detail_lines) == 1 + expected_rows
        assert detail_lines[0].startswith("variant,rep,models_trained")
        summary_lines = blocks[1].strip().split("\n")
        assert len(summary_lines) == 1 + len(report.variants)

    def test_unknown_format_rejected(self, report, tmp_path):
        with pytest.raises(ValueError):
            emit_report(report, "xml", tmp_path / "r.xml")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits)
    def test_damaged_report_fails_naming_the_file(self, report, tmp_path, edits):
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        path.write_bytes(damaged(path.read_bytes(), edits))
        try:
            load_report(path)
        except FormatError as exc:
            assert str(path) in str(exc)

    def test_malformed_report_rejected(self, report, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(FormatError):
            load_report(path)
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(FormatError):
            load_report(path)

        def corrupt(edit, field):
            data = json.loads(report_to_json(report))
            edit(data)
            path.write_text(json.dumps(data), encoding="utf-8")
            with pytest.raises(FormatError, match=field):
                load_report(path)

        corrupt(lambda d: d["variants"][1].update(models_trained_total="7"),
                r"variants\[1\]\.models_trained_total")
        corrupt(lambda d: d["variants"][0]["per_rep"][1].update(completed=True),
                r"variants\[0\]\.per_rep\[1\]\.completed")
        corrupt(lambda d: d["variants"][0]["per_rep"][1].pop("rep"),
                r"variants\[0\]\.per_rep\[1\]\.rep")

    def test_golden_bytes(self):
        # pins field order and number formatting of both formats; the JSON digest
        # was re-pinned when the report lost its "workers" line, the CSV is older
        config = bench_config(
            variants={"none": NO_LAYERS, "threshold": THRESHOLD_ONLY, "three-layer": variant()},
            repetitions=3,
        )
        report = compare_pruners(config)
        digests = [
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            for text in (report_to_json(report), report_to_csv(report))
        ]
        assert digests == [
            "c3666aeb8e8a6d7ab3e5e21337843121c51d181aedd71220388266cbb05d64c1",
            "011565c0136312069f9dabcd0cb2fc35181d1d3822ce146783afa40811af07ae",
        ]
