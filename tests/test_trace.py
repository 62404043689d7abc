"""Unit tests for synthetic generation and the trace CSV format."""

import dataclasses
import hashlib
import math
import re

import oracles
import pytest
from hypothesis import HealthCheck, given, settings
from mutations import damaged, edits

import nestedprune.engine as engine_module
import nestedprune.trace as trace_module
from nestedprune import (
    CvShape,
    Direction,
    PrunerConfig,
    StepRecord,
    TraceFormatError,
    TraceGenConfig,
    TrialTrace,
    generate_cohort,
    read_traces,
    run_study,
    write_traces,
)
from nestedprune.cli import main

SHAPE = CvShape(outer_folds=3, inner_folds=2)


def gen_config(**overrides):
    base = dict(trials=4, shape=SHAPE, seed=7)
    base.update(overrides)
    return TraceGenConfig(**base)


class TestTraceGenConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(trials=0),
            dict(base_min=0.9, base_max=0.2),
            dict(noise_sd=-0.1),
            dict(outlier_prob=1.5),
            dict(zero_feature_prob=-0.1),
            dict(outlier_magnitude=-1.0),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            gen_config(**kwargs)

    def test_direction_spelling_refused(self):
        # generation tests `direction is MINIMIZE`, so a spelling would read as
        # maximise and leave negative metrics unclamped
        with pytest.raises(TypeError, match="^direction must be a member of Direction"):
            gen_config(direction="minimize")


class TestTrialTraceInvariants:
    def test_wrong_length_rejected(self):
        steps = tuple(
            StepRecord("t", i // 2, i % 2, 0.5, 3) for i in range(4)
        )
        with pytest.raises(TraceFormatError):
            TrialTrace(trial_id="t", shape=SHAPE, steps=steps)

    def test_out_of_order_steps_rejected(self):
        steps = [StepRecord("t", i // 2, i % 2, 0.5, 3) for i in range(6)]
        steps[2], steps[3] = steps[3], steps[2]
        with pytest.raises(TraceFormatError):
            TrialTrace(trial_id="t", shape=SHAPE, steps=tuple(steps))

    def test_foreign_step_id_rejected(self):
        steps = [StepRecord("t", i // 2, i % 2, 0.5, 3) for i in range(6)]
        steps[4] = StepRecord("other", 2, 0, 0.5, 3)
        with pytest.raises(TraceFormatError):
            TrialTrace(trial_id="t", shape=SHAPE, steps=tuple(steps))


class TestTrialTraceColumns:
    def columns(self, metrics=None, features=None):
        total = SHAPE.total_steps
        return dict(
            metrics=[0.5] * total if metrics is None else metrics,
            features=[3] * total if features is None else features,
        )

    def test_columns_are_tuples(self):
        trace = TrialTrace("t", SHAPE, **self.columns())
        assert trace.metrics == (0.5,) * 6 and trace.features == (3,) * 6

    @pytest.mark.parametrize(
        "metrics, features",
        [([0.5] * 5, None), (None, [3] * 7), ([0.5] * 5 + [math.inf], None),
         ([math.nan] + [0.5] * 5, None), (None, [3] * 5 + [-1])],
    )
    def test_bad_columns_rejected(self, metrics, features):
        with pytest.raises(TraceFormatError):
            TrialTrace("t", SHAPE, **self.columns(metrics, features))

    def test_non_finite_metric_names_its_step(self):
        metrics = [0.5] * 6
        metrics[3] = math.inf
        with pytest.raises(TraceFormatError, match=r"step \(1, 1\) must be finite, got inf"):
            TrialTrace("t", SHAPE, **self.columns(metrics))

    def test_steps_and_columns_are_exclusive(self):
        steps = generate_cohort(gen_config(trials=1))[0].steps
        with pytest.raises(TypeError):
            TrialTrace("trial_000", SHAPE, steps, **self.columns())
        with pytest.raises(TypeError):
            TrialTrace("t", SHAPE, metrics=[0.5] * 6)

    def test_trace_from_steps_equals_generated_trace(self):
        for trace in generate_cohort(gen_config(trials=6)):
            rebuilt = TrialTrace(trial_id=trace.trial_id, shape=trace.shape, steps=trace.steps)
            assert rebuilt == trace and hash(rebuilt) == hash(trace)
            assert (rebuilt.metrics, rebuilt.features) == (trace.metrics, trace.features)
            assert rebuilt.steps is trace.steps  # kept as given

    def test_steps_round_trip(self):
        trace = generate_cohort(gen_config(trials=1))[0]
        steps = trace.steps
        assert trace.steps is steps  # built once, then kept
        assert [(s.outer_idx, s.inner_idx) for s in steps] == list(SHAPE.positions)
        assert [s.metric for s in steps] == list(trace.metrics)
        assert [s.selected_feature_count for s in steps] == list(trace.features)
        assert {s.trial_id for s in steps} == {trace.trial_id}
        given = tuple(dataclasses.replace(s, metric=s.metric + 1.0) for s in steps)
        rebuilt = TrialTrace(trace.trial_id, SHAPE, given)
        assert rebuilt.steps is given
        assert rebuilt.metrics == tuple(m + 1.0 for m in trace.metrics)


class TestStepObjects:
    """Generating and reading hold columns; only replay makes ``StepRecord``s.

    Replay builds them from the trace's checked columns with the private
    ``_step_from_checked``, which runs no ``__post_init__``.
    """

    @pytest.fixture()
    def made(self, monkeypatch):
        made = {"checked": [], "from_columns": []}
        check, build = StepRecord.__post_init__, engine_module._step_from_checked

        def counted_check(step):
            made["checked"].append(step)
            check(step)

        def counted_build(*values):
            step = build(*values)
            made["from_columns"].append(step)
            return step

        monkeypatch.setattr(StepRecord, "__post_init__", counted_check)
        monkeypatch.setattr(engine_module, "_step_from_checked", counted_build)
        monkeypatch.setattr(trace_module, "_step_from_checked", counted_build)
        return made

    def test_generate_and_read_build_none(self, made, tmp_path):
        cohort = generate_cohort(gen_config(trials=5))
        write_traces(cohort, tmp_path / "cohort.csv")
        write_traces(cohort, tmp_path / "traces", per_trial=True)
        assert read_traces(tmp_path / "cohort.csv") == cohort
        assert read_traces(tmp_path / "traces") == cohort
        assert made == {"checked": [], "from_columns": []}

    def test_run_study_builds_one_per_trained_model(self, made):
        cohort = generate_cohort(gen_config(trials=12, zero_feature_prob=0.3))
        config = PrunerConfig(direction=Direction.MINIMIZE, threshold=0.5)
        report = run_study(cohort, config)
        assert report.models_trained_total < 12 * SHAPE.total_steps  # some trials pruned
        assert len(made["from_columns"]) == report.models_trained_total
        assert made["checked"] == []

    def test_steps_from_columns_run_no_check(self, made):
        trace = generate_cohort(gen_config(trials=1))[0]
        assert len(trace.steps) == SHAPE.total_steps
        assert len(made["from_columns"]) == SHAPE.total_steps
        assert made["checked"] == []

    @pytest.mark.parametrize(
        "values", [("trial_007", 2, 1, 0.25, 17), ("t", 0, 0, -0.0, 0), ("t", 9, 3, 1e300, 5)]
    )
    def test_checked_constructor_equals_public_one(self, values):
        built, public = engine_module._step_from_checked(*values), StepRecord(*values)
        assert type(built) is StepRecord
        assert built == public
        assert hash(built) == hash(public)
        assert dataclasses.astuple(built) == values
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.metric = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.trial_id = "other"


class TestPinnedBytes:
    """sha256 of trace files, recorded before traces were held as columns."""

    def test_criterion_1_gen_file(self, tmp_path):
        out = tmp_path / "cohort.csv"
        args = ["gen", "--trials", "40", "--outer", "30", "--inner", "10", "--seed", "42"]
        assert main(args + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d53718ded9a0a2620e3f2d4207e0a59302b0942a6c47775ca7f1697c209bdbd7"
        )

    def test_maximize_symmetric_outliers_file(self, tmp_path):
        config = TraceGenConfig(
            trials=12, shape=CvShape(6, 4), seed=5, outlier_prob=0.3,
            direction=Direction.MAXIMIZE, symmetric_outliers=True,
        )
        out = tmp_path / "cohort.csv"
        write_traces(generate_cohort(config), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e9463e6cfdec95726577f61972038d9fac0dc86cf469ca4674081f30b4db58ba"
        )


class TestGenerationOracle:
    """``generate_cohort`` gives, bit for bit, the columns of the loop over
    ``random.gauss`` and ``random.randint`` it replaced."""

    ODD = CvShape(outer_folds=3, inner_folds=3)  # 9 steps: a normal pair spans two trials

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(direction=Direction.MAXIMIZE),
            dict(symmetric_outliers=True, outlier_prob=0.3),
            dict(direction=Direction.MAXIMIZE, symmetric_outliers=True, outlier_prob=0.3),
            dict(zero_feature_prob=0.0),
            dict(zero_feature_prob=1.0),
            dict(outlier_prob=1.0),
            dict(outlier_prob=1.0, symmetric_outliers=True),
            dict(noise_sd=0.0, base_min=-0.0, base_max=-0.0),
            dict(noise_sd=0.0, base_min=-0.0, base_max=-0.0, direction=Direction.MAXIMIZE),
            dict(base_min=0.0, base_max=0.05, noise_sd=0.5),  # clamps at zero
            dict(shape=CvShape(outer_folds=30, inner_folds=10), trials=3),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_columns_match_stdlib_loop(self, overrides, seed):
        config = TraceGenConfig(**{"trials": 7, "shape": self.ODD, "seed": seed, **overrides})
        ours, stdlib = generate_cohort(config), oracles.stdlib_generate_cohort(config)
        assert [t.trial_id for t in ours] == [t.trial_id for t in stdlib]
        for mine, theirs in zip(ours, stdlib):
            # float.hex tells -0.0 from 0.0, which == does not
            assert [m.hex() for m in mine.metrics] == [m.hex() for m in theirs.metrics]
            assert mine.features == theirs.features


class TestGenerateCohort:
    def test_deterministic(self):
        config = gen_config()
        assert generate_cohort(config) == generate_cohort(config)

    def test_distinct_seeds_differ(self):
        assert generate_cohort(gen_config(seed=1)) != generate_cohort(gen_config(seed=2))

    def test_degenerate_noise_yields_constant_metrics(self):
        cohort = generate_cohort(gen_config(noise_sd=0.0, outlier_prob=0.0))
        for trace in cohort:
            metrics = {step.metric for step in trace.steps}
            assert len(metrics) == 1

    def test_zero_feature_prob_one_forces_semantic_trials(self):
        cohort = generate_cohort(gen_config(zero_feature_prob=1.0))
        for trace in cohort:
            assert all(step.selected_feature_count == 0 for step in trace.steps)

    def test_zero_feature_trials_sit_at_worst_base(self):
        config = gen_config(zero_feature_prob=1.0, noise_sd=0.0, outlier_prob=0.0)
        for trace in generate_cohort(config):
            assert all(step.metric == config.base_max for step in trace.steps)

    def test_zero_feature_prob_zero_selects_features(self):
        cohort = generate_cohort(gen_config(zero_feature_prob=0.0))
        for trace in cohort:
            assert all(step.selected_feature_count >= 1 for step in trace.steps)

    def test_minimized_metrics_clamped_at_zero(self):
        config = gen_config(trials=10, base_min=0.0, base_max=0.1, noise_sd=1.0)
        cohort = generate_cohort(config)
        lowest = min(step.metric for trace in cohort for step in trace.steps)
        assert lowest >= 0.0

    def test_outliers_spike_in_pessimistic_direction(self):
        quiet = gen_config(noise_sd=0.0, outlier_prob=0.0, zero_feature_prob=0.0)
        spiky = gen_config(
            noise_sd=0.0, outlier_prob=1.0, outlier_magnitude=2.0, zero_feature_prob=0.0
        )
        for base_trace, spiked_trace in zip(generate_cohort(quiet), generate_cohort(spiky)):
            for base_step, spiked_step in zip(base_trace.steps, spiked_trace.steps):
                assert spiked_step.metric > base_step.metric

    def test_unique_ids(self):
        cohort = generate_cohort(gen_config(trials=12))
        ids = [trace.trial_id for trace in cohort]
        assert len(set(ids)) == len(ids)


class TestRoundTrip:
    def test_combined_file(self, tmp_path):
        cohort = generate_cohort(gen_config())
        path = tmp_path / "cohort.csv"
        write_traces(cohort, path)
        assert read_traces(path) == cohort

    def test_per_trial_directory(self, tmp_path):
        cohort = generate_cohort(gen_config())
        target = tmp_path / "traces"
        write_traces(cohort, target, per_trial=True)
        assert sorted(p.name for p in target.glob("*.csv")) == [
            f"{t.trial_id}.csv" for t in cohort
        ]
        assert read_traces(target) == cohort

    @pytest.mark.parametrize("bad_id", ["../escaped", "a/b", "", ".", "..", "a\0b"])
    def test_per_trial_refuses_an_id_that_is_not_a_file_name(self, tmp_path, bad_id):
        cohort = generate_cohort(gen_config())
        last = cohort[-1]
        # the bad id comes last, after trials that would already have been written
        cohort[-1] = TrialTrace(bad_id, last.shape, metrics=last.metrics, features=last.features)
        with pytest.raises(ValueError, match=re.escape(f"trial id {bad_id!r}")):
            write_traces(cohort, tmp_path / "traces", per_trial=True)
        assert list(tmp_path.iterdir()) == []

    def test_per_trial_refuses_a_duplicate_id(self, tmp_path):
        template = generate_cohort(gen_config(trials=1))[0]
        columns = dict(metrics=template.metrics, features=template.features)
        cohort = [TrialTrace("same", template.shape, **columns) for _ in range(2)]
        with pytest.raises(ValueError, match=re.escape("duplicate trial id 'same'")):
            write_traces(cohort, tmp_path / "traces", per_trial=True)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "ids, message",
        [(["same", "same"], "duplicate trial id 'same' in cohort"),
         (["t0", ""], "trial_id must be non-empty")],
        ids=["duplicate", "empty"],
    )
    def test_combined_refuses_what_read_traces_refuses(self, tmp_path, ids, message):
        template = generate_cohort(gen_config(trials=1))[0]
        columns = dict(metrics=template.metrics, features=template.features)
        cohort = [TrialTrace(trial_id, template.shape, **columns) for trial_id in ids]
        with pytest.raises(ValueError, match=re.escape(message)):
            write_traces(cohort, tmp_path / "cohort.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("per_trial", [False, True], ids=["combined", "per-trial"])
    @pytest.mark.parametrize(
        "shapes, message",
        [((), "cohort must contain at least one trial"),
         ((SHAPE, CvShape(4, 2)), "trial 't1' shape CvShape(outer_folds=4, inner_folds=2) "
                                  "differs from cohort shape CvShape(outer_folds=3, inner_folds=2)")],
        ids=["empty", "mixed-shapes"],
    )
    def test_refuses_a_cohort_read_traces_refuses(self, tmp_path, per_trial, shapes, message):
        # read back, an empty cohort has no step rows or no files, and a second
        # shape is a row count its cohort's shape does not allow
        cohort = [
            TrialTrace(f"t{index}", shape, metrics=[0.5] * shape.total_steps,
                       features=[3] * shape.total_steps)
            for index, shape in enumerate(shapes)
        ]
        with pytest.raises(ValueError, match=re.escape(message)):
            write_traces(cohort, tmp_path / "out", per_trial=per_trial)
        assert list(tmp_path.iterdir()) == []

    def test_combined_keeps_ids_that_are_not_file_names(self, tmp_path):
        template = generate_cohort(gen_config(trials=1))[0]
        columns = dict(metrics=template.metrics, features=template.features)
        cohort = [TrialTrace(trial_id, template.shape, **columns) for trial_id in ("a/b", "..")]
        write_traces(cohort, tmp_path / "cohort.csv")
        assert read_traces(tmp_path / "cohort.csv") == cohort

    def test_per_trial_keeps_ids_that_are_plain_file_names(self, tmp_path):
        template = generate_cohort(gen_config(trials=1))[0]
        columns = dict(metrics=template.metrics, features=template.features)
        cohort = [
            TrialTrace(trial_id, template.shape, **columns)
            for trial_id in ("..x", ".hidden", "run 1", "x..y")
        ]
        target = tmp_path / "traces"
        write_traces(cohort, target, per_trial=True)
        assert sorted(p.name for p in target.iterdir()) == sorted(
            f"{t.trial_id}.csv" for t in cohort
        )
        assert read_traces(target) == sorted(cohort, key=lambda t: f"{t.trial_id}.csv")

    def test_writes_are_byte_identical(self, tmp_path):
        cohort = generate_cohort(gen_config())
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_traces(cohort, first)
        write_traces(cohort, second)
        assert first.read_bytes() == second.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_traces(generate_cohort(gen_config()), path)
        assert b"\r" not in path.read_bytes()


HEADER = "trial_id,outer_fold,inner_fold,metric,n_selected_features"


def write_text(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def rows_for(trial_id, shape, metric="0.5"):
    return [
        f"{trial_id},{o},{i},{metric},3"
        for o in range(shape.outer_folds)
        for i in range(shape.inner_folds)
    ]


class TestFormatErrors:
    def test_header_mismatch(self, tmp_path):
        path = write_text(tmp_path, "a,b,c\nx,0,0\n")
        with pytest.raises(TraceFormatError) as err:
            read_traces(path)
        assert "line 1" in str(err.value)

    def test_missing_grid_cell_names_line(self, tmp_path):
        rows = rows_for("t0", SHAPE)
        del rows[3]  # drop step (1, 1)
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceFormatError) as err:
            read_traces(path)
        assert "line 5" in str(err.value)

    def test_duplicate_step_rejected(self, tmp_path):
        rows = rows_for("t0", SHAPE)
        rows.insert(1, rows[0])
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceFormatError) as err:
            read_traces(path)
        assert "line 3" in str(err.value)

    def test_non_contiguous_trial_rejected(self, tmp_path):
        rows = rows_for("t0", SHAPE) + rows_for("t1", SHAPE)
        rows[5], rows[11] = rows[11], rows[5]
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceFormatError):
            read_traces(path)

    def test_truncated_trial_rejected(self, tmp_path):
        rows = rows_for("t0", SHAPE)[:-1]
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceFormatError):
            read_traces(path)

    def test_non_finite_metric_rejected(self, tmp_path):
        rows = rows_for("t0", SHAPE)
        rows[2] = "t0,1,0,nan,3"
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceFormatError) as err:
            read_traces(path)
        assert "line 4" in str(err.value)

    def test_bad_integer_field_rejected(self, tmp_path):
        rows = rows_for("t0", SHAPE)
        rows[0] = "t0,zero,0,0.5,3"
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceFormatError) as err:
            read_traces(path)
        assert "line 2" in str(err.value)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = write_text(tmp_path, HEADER + "\nt0,0,0,0.5\n")
        with pytest.raises(TraceFormatError) as err:
            read_traces(path)
        assert "line 2" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = write_text(tmp_path, HEADER + "\n")
        with pytest.raises(TraceFormatError):
            read_traces(path)

    def test_inconsistent_second_trial_rejected(self, tmp_path):
        other = CvShape(outer_folds=2, inner_folds=2)
        rows = rows_for("t0", SHAPE) + rows_for("t1", other)
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceFormatError):
            read_traces(path)

    def test_duplicate_trial_across_files_rejected(self, tmp_path):
        target = tmp_path / "traces"
        target.mkdir()
        text = HEADER + "\n" + "\n".join(rows_for("t0", SHAPE)) + "\n"
        (target / "a.csv").write_text(text, encoding="utf-8")
        (target / "b.csv").write_text(text, encoding="utf-8")
        with pytest.raises(TraceFormatError):
            read_traces(target)

    def test_empty_directory_rejected(self, tmp_path):
        target = tmp_path / "traces"
        target.mkdir()
        with pytest.raises(TraceFormatError):
            read_traces(target)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError):
            read_traces(tmp_path / "nope.csv")

    def test_header_alone_names_line_1(self, tmp_path):
        path = write_text(tmp_path, HEADER + "\n")
        with pytest.raises(TraceFormatError) as err:
            read_traces(path)
        assert (err.value.path, err.value.line) == (path, 1)
        assert str(err.value) == f"{path}: line 1: trace file contains no step rows"

    def test_field_past_the_csv_limit_names_its_line(self, tmp_path):
        # an unclosed quote runs the field to the end of the file
        rows = rows_for("t0", SHAPE)
        rows[1] = 't0,0,1,"0.5' + "9" * 200_000
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceFormatError) as err:
            read_traces(path)
        assert err.value.path == path
        assert str(err.value).startswith(f"{path}: line {err.value.line}: bad CSV: field larger")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits)
    def test_damaged_file_fails_with_file_and_line(self, tmp_path, edits):
        path = tmp_path / "traces.csv"
        write_traces(generate_cohort(gen_config()), path)
        data = damaged(path.read_bytes(), edits)
        path.write_bytes(data)
        try:
            read_traces(path)
        except TraceFormatError as exc:
            assert exc.path == path
            assert 1 <= exc.line <= data.count(b"\n") + 1
            assert str(exc).startswith(f"{path}: line {exc.line}: ")

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        # far past the first chunk the decoder is handed, so its own offset is no help
        rows = [row for t in range(200) for row in rows_for(f"t{t}", SHAPE)]
        lines = (HEADER + "\n" + "\n".join(rows) + "\n").encode("utf-8").split(b"\n")
        lines[999] = b"\xe9" + lines[999]
        path = tmp_path / "traces.csv"
        path.write_bytes(b"\n".join(lines))
        assert path.stat().st_size > 8192
        with pytest.raises(TraceFormatError) as err:
            read_traces(path)
        assert (err.value.path, err.value.line) == (path, 1000)
        assert str(err.value).startswith(f"{path}: line 1000: not UTF-8 text")
