"""Unit tests for synthetic generation and the trace CSV format."""

import csv
import dataclasses
import hashlib
import io
import math
import os
import re
import sys
import tempfile
import threading
from functools import cache
from pathlib import Path

import oracles
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mutations import damaged, edits

import nestedprune.engine as engine_module
import nestedprune.trace as trace_module
from nestedprune import (
    CvShape,
    Direction,
    FormatError,
    PrunerConfig,
    StepRecord,
    TraceGenConfig,
    TrialTrace,
    generate_cohort,
    read_traces,
    run_study,
    write_traces,
)

SHAPE = CvShape(outer_folds=3, inner_folds=2)


def gen_config(**overrides):
    base = dict(trials=4, shape=SHAPE, seed=7)
    base.update(overrides)
    return TraceGenConfig(**base)


def write_directory(cohort, target):
    """Write each trial to its own file in ``target``, named after its id."""
    target.mkdir()
    for trace in cohort:
        write_traces([trace], target / f"{trace.trial_id}.csv")


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
        with pytest.raises(FormatError):
            TrialTrace(trial_id="t", shape=SHAPE, steps=steps)

    def test_out_of_order_steps_rejected(self):
        steps = [StepRecord("t", i // 2, i % 2, 0.5, 3) for i in range(6)]
        steps[2], steps[3] = steps[3], steps[2]
        with pytest.raises(
            FormatError, match=r"^trial 't': step 2 is \(1, 1\), expected \(1, 0\)$"
        ):
            TrialTrace(trial_id="t", shape=SHAPE, steps=tuple(steps))

    def test_foreign_step_id_rejected(self):
        steps = [StepRecord("t", i // 2, i % 2, 0.5, 3) for i in range(6)]
        steps[4] = StepRecord("other", 2, 0, 0.5, 3)
        with pytest.raises(FormatError, match="^step 4 of trial 't' carries id 'other'$"):
            TrialTrace(trial_id="t", shape=SHAPE, steps=tuple(steps))

    def test_first_failing_step_is_named(self):
        # a later foreign id does not hide an earlier misplaced step, nor the other way round
        steps = [StepRecord("t", i // 2, i % 2, 0.5, 3) for i in range(6)]
        steps[1] = StepRecord("t", 0, 0, 0.5, 3)
        steps[3] = StepRecord("other", 1, 1, 0.5, 3)
        with pytest.raises(FormatError, match=r"^trial 't': step 1 is \(0, 0\)"):
            TrialTrace(trial_id="t", shape=SHAPE, steps=tuple(steps))
        steps[1] = StepRecord("other", 0, 0, 0.5, 3)
        with pytest.raises(FormatError, match="^step 1 of trial 't' carries id 'other'$"):
            TrialTrace(trial_id="t", shape=SHAPE, steps=tuple(steps))


class TestTrialTraceIdAndShape:
    """Both constructor forms refuse an id that is not a non-empty str, and a shape
    that is not a ``CvShape``; once a bytes id was written as ``b'x'``, an int id
    failed in the writer, and a tuple shape failed with an ``AttributeError``."""

    @staticmethod
    def forms(trial_id, shape):
        steps = [StepRecord(trial_id, o, i, 0.5, 3) for o, i in SHAPE.positions]
        yield lambda: TrialTrace(trial_id, shape, steps)
        yield lambda: TrialTrace(trial_id, shape, metrics=[0.5] * 6, features=[3] * 6)

    @pytest.mark.parametrize("trial_id", [b"x", 7, None], ids=repr)
    def test_id_that_is_not_a_str_refused(self, trial_id):
        for make in self.forms(trial_id, SHAPE):
            with pytest.raises(
                TypeError, match=re.escape(f"trial_id must be a str, got {trial_id!r}")
            ):
                make()

    def test_empty_id_refused(self):
        for make in self.forms("", SHAPE):
            with pytest.raises(ValueError, match="^trial_id must be non-empty$"):
                make()

    @pytest.mark.parametrize("shape", [(3, 2), None], ids=repr)
    def test_shape_that_is_not_a_cv_shape_refused(self, shape):
        for make in self.forms("t", shape):
            message = f"shape must be a CvShape, got {shape!r}"
            with pytest.raises(TypeError, match=re.escape(message)):
                make()


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
        with pytest.raises(FormatError):
            TrialTrace("t", SHAPE, **self.columns(metrics, features))

    def test_non_finite_metric_names_its_step(self):
        metrics = [0.5] * 6
        metrics[3] = math.inf
        with pytest.raises(FormatError, match=r"step \(1, 1\) must be finite, got inf"):
            TrialTrace("t", SHAPE, **self.columns(metrics))

    @pytest.mark.parametrize("count", [1.5, True, 2.0], ids=repr)
    def test_count_that_is_not_an_int_names_its_step(self, count):
        # once accepted and written; read_traces then refused the file's integer field
        with pytest.raises(
            FormatError,
            match=rf"^trial 't': selected_feature_count at step \(0, 0\) must be an int, "
            rf"got {count!r}$",
        ):
            TrialTrace("t", CvShape(2, 2), metrics=[0.1] * 4, features=[count] * 4)

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
    ``_step_from_checked``, which runs none of the checks of ``StepRecord(...)``.
    """

    @pytest.fixture()
    def made(self, monkeypatch):
        made = {"checked": [], "from_columns": []}
        check, build = StepRecord.__init__, engine_module._step_from_checked

        def counted_check(step, *args, **kwargs):
            made["checked"].append(step)
            check(step, *args, **kwargs)

        def counted_build(*values):
            step = build(*values)
            made["from_columns"].append(step)
            return step

        monkeypatch.setattr(StepRecord, "__init__", counted_check)
        monkeypatch.setattr(engine_module, "_step_from_checked", counted_build)
        monkeypatch.setattr(trace_module, "_step_from_checked", counted_build)
        return made

    def test_fixture_counts_the_public_constructor(self, made):
        step = StepRecord("t", 0, 1, 0.5, 3)
        replaced = dataclasses.replace(step, metric=0.25)
        assert made == {"checked": [step, replaced], "from_columns": []}
        with pytest.raises(ValueError, match="metric must be finite"):
            StepRecord("t", 0, 1, math.nan, 3)

    def test_generate_and_read_build_none(self, made, tmp_path):
        cohort = generate_cohort(gen_config(trials=5))
        write_traces(cohort, tmp_path / "cohort.csv")
        write_directory(cohort, tmp_path / "traces")
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
        assert repr(built) == repr(public)
        assert dataclasses.astuple(built) == values
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.metric = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.trial_id = "other"


class TestPinnedBytes:
    """sha256 of trace files, each recorded on an earlier generator and writer.

    The criterion-1 cohort's digest is pinned once, in the determinism job of
    .github/workflows/tests.yml, which tests/test_workflow.py runs.
    """

    def test_maximize_file(self, tmp_path):
        config = TraceGenConfig(
            trials=12, shape=CvShape(6, 4), seed=5, outlier_prob=0.3,
            direction=Direction.MAXIMIZE,
        )
        out = tmp_path / "cohort.csv"
        write_traces(generate_cohort(config), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "220cef973e009f33318f6f3844864914027a3fd568599a87d5c4ecaafde17ddc"
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
            dict(outlier_prob=0.3),
            dict(direction=Direction.MAXIMIZE, outlier_prob=0.3),
            dict(zero_feature_prob=0.0),
            dict(zero_feature_prob=1.0),
            dict(outlier_prob=1.0),
            dict(outlier_prob=1.0, direction=Direction.MAXIMIZE),
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
        write_directory(cohort, tmp_path / "traces")
        assert read_traces(tmp_path / "traces") == cohort

    def test_directory_is_read_in_file_name_order(self, tmp_path):
        # not in the order written: replay decisions depend on arrival order
        cohort = TestRoundTrip.with_ids(["b", "a", "c"])
        write_directory(cohort, tmp_path / "traces")
        assert [t.trial_id for t in read_traces(tmp_path / "traces")] == ["a", "b", "c"]

    def test_generated_ids_past_999_sort_by_file_name(self, tmp_path):
        cohort = generate_cohort(gen_config(trials=1001, shape=CvShape(2, 2)))
        write_directory(cohort, tmp_path / "traces")
        ids = [t.trial_id for t in read_traces(tmp_path / "traces")]
        assert ids == sorted(t.trial_id for t in cohort) != [t.trial_id for t in cohort]
        assert ids[ids.index("trial_100"):ids.index("trial_100") + 3] == [
            "trial_100", "trial_1000", "trial_101"
        ]

    @pytest.mark.parametrize(
        "trials, message",
        [((), "cohort must contain at least one trial"),
         ((("same", SHAPE), ("same", SHAPE)), "duplicate trial id 'same' in cohort"),
         ((("same", SHAPE), ("t1", SHAPE), ("same", SHAPE)),
          "duplicate trial id 'same' in cohort"),
         ((("t0", SHAPE), ("t1", CvShape(4, 2))),
          "trial 't1' shape CvShape(outer_folds=4, inner_folds=2) "
          "differs from cohort shape CvShape(outer_folds=3, inner_folds=2)"),
         ((("t0", SHAPE), ("a\0b", SHAPE)),
          "trial 'a\\x00b': a trial id holding NUL cannot be written")],
        ids=["empty", "duplicate", "duplicate-apart", "mixed-shapes", "nul"],
    )
    def test_refuses_a_cohort_read_traces_refuses(self, tmp_path, trials, message):
        # read back, an empty cohort has no step rows, a second trial of one id
        # is a trial split in two, a second shape is a row count its cohort's
        # shape does not allow, and a line holding NUL is refused by the csv
        # module of Python 3.10 (TestBlockReaderEdges.test_id_holding_nul)
        cohort = [
            TrialTrace(trial_id, shape, metrics=[0.5] * shape.total_steps,
                       features=[3] * shape.total_steps)
            for trial_id, shape in trials
        ]
        with pytest.raises(ValueError, match=re.escape(message)):
            write_traces(cohort, tmp_path / "cohort.csv")
        assert list(tmp_path.iterdir()) == []

    # ids that name no file, or another file, keep their bytes in one trace file
    @pytest.mark.parametrize("odd_id", ["../escaped", "a/b", ".", ".."])
    def test_combined_keeps_ids_that_are_not_file_names(self, tmp_path, odd_id):
        template = generate_cohort(gen_config(trials=1))[0]
        columns = dict(metrics=template.metrics, features=template.features)
        cohort = [TrialTrace(trial_id, template.shape, **columns) for trial_id in (odd_id, "t")]
        write_traces(cohort, tmp_path / "cohort.csv")
        assert read_traces(tmp_path / "cohort.csv") == cohort

    def test_directory_reads_files_of_any_plain_name(self, tmp_path):
        # hidden and dotted names are read too, in file-name order
        template = generate_cohort(gen_config(trials=1))[0]
        columns = dict(metrics=template.metrics, features=template.features)
        cohort = [
            TrialTrace(trial_id, template.shape, **columns)
            for trial_id in ("..x", ".hidden", "run 1", "x..y")
        ]
        write_directory(cohort, tmp_path / "traces")
        assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == sorted(
            f"{t.trial_id}.csv" for t in cohort
        )
        by_file_name = sorted(cohort, key=lambda t: f"{t.trial_id}.csv")
        assert read_traces(tmp_path / "traces") == by_file_name

    # ids the writer must quote (",", '"', "\n", "\r"), and two it must not
    ODD_IDS = ("a,b", 'q"x', "l\nm", "c\rr", "x\r\ny", " sp ", "\u00fc")

    @staticmethod
    def with_ids(ids):
        template = generate_cohort(gen_config(trials=1))[0]
        columns = dict(metrics=template.metrics, features=template.features)
        return [TrialTrace(trial_id, template.shape, **columns) for trial_id in ids]

    def test_ids_that_need_quoting_round_trip(self, tmp_path):
        # a lone "\r" was once written bare, and the file it made could not be read
        cohort = self.with_ids(self.ODD_IDS)
        path = tmp_path / "cohort.csv"
        write_traces(cohort, path)
        assert read_traces(path) == cohort
        assert path.read_bytes().count(b'\n"c\rr",') == SHAPE.total_steps

    @pytest.mark.parametrize(
        "ids", [*([trial_id] for trial_id in ODD_IDS if "\r" not in trial_id),
                [f"trial_{index:03d}" for index in range(4)]],
        ids=repr,
    )
    def test_bytes_are_the_csv_writers(self, tmp_path, ids):
        cohort = self.with_ids(ids)
        path = tmp_path / "cohort.csv"
        write_traces(cohort, path)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(trace_module.TRACE_HEADER)
        for trace in cohort:
            writer.writerows(
                (trace.trial_id, outer, inner, format(metric, ".17g"), count)
                for (outer, inner), metric, count in zip(
                    trace.shape.positions, trace.metrics, trace.features
                )
            )
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_one_trial_files_join_to_the_combined_file(self, tmp_path):
        # a trial's rows do not depend on the trials written before it
        cohort = generate_cohort(gen_config(trials=6))
        for index, trial_id in enumerate(("a,b", 'q"x', " sp ", "\u00fc")):
            trace = cohort[index]
            cohort[index] = TrialTrace(
                trial_id, trace.shape, metrics=trace.metrics, features=trace.features
            )
        write_traces(cohort, tmp_path / "cohort.csv")
        write_directory(cohort, tmp_path / "traces")
        header = (",".join(trace_module.TRACE_HEADER) + "\n").encode("utf-8")
        bodies = []
        for trace in cohort:
            data = (tmp_path / "traces" / f"{trace.trial_id}.csv").read_bytes()
            assert data.startswith(header)
            bodies.append(data[len(header):])
        assert (tmp_path / "cohort.csv").read_bytes() == header + b"".join(bodies)

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
        with pytest.raises(FormatError) as err:
            read_traces(path)
        assert "line 1" in str(err.value)

    def test_missing_grid_cell_names_line(self, tmp_path):
        rows = rows_for("t0", SHAPE)
        del rows[3]  # drop step (1, 1)
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError) as err:
            read_traces(path)
        assert "line 5" in str(err.value)

    def test_duplicate_step_rejected(self, tmp_path):
        rows = rows_for("t0", SHAPE)
        rows.insert(1, rows[0])
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError) as err:
            read_traces(path)
        assert "line 3" in str(err.value)

    def test_non_contiguous_trial_rejected(self, tmp_path):
        rows = rows_for("t0", SHAPE) + rows_for("t1", SHAPE)
        rows[5], rows[11] = rows[11], rows[5]
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError):
            read_traces(path)

    def test_truncated_trial_rejected(self, tmp_path):
        rows = rows_for("t0", SHAPE)[:-1]
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError):
            read_traces(path)

    def test_non_finite_metric_rejected(self, tmp_path):
        rows = rows_for("t0", SHAPE)
        rows[2] = "t0,1,0,nan,3"
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError) as err:
            read_traces(path)
        assert "line 4" in str(err.value)

    def test_bad_integer_field_rejected(self, tmp_path):
        rows = rows_for("t0", SHAPE)
        rows[0] = "t0,zero,0,0.5,3"
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError) as err:
            read_traces(path)
        assert "line 2" in str(err.value)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = write_text(tmp_path, HEADER + "\nt0,0,0,0.5\n")
        with pytest.raises(FormatError) as err:
            read_traces(path)
        assert "line 2" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = write_text(tmp_path, HEADER + "\n")
        with pytest.raises(FormatError):
            read_traces(path)

    def test_inconsistent_second_trial_rejected(self, tmp_path):
        other = CvShape(outer_folds=2, inner_folds=2)
        rows = rows_for("t0", SHAPE) + rows_for("t1", other)
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError):
            read_traces(path)

    def test_duplicate_trial_across_files_rejected(self, tmp_path):
        target = tmp_path / "traces"
        target.mkdir()
        text = HEADER + "\n" + "\n".join(rows_for("t0", SHAPE)) + "\n"
        (target / "a.csv").write_text(text, encoding="utf-8")
        (target / "b.csv").write_text(text, encoding="utf-8")
        with pytest.raises(FormatError):
            read_traces(target)

    def test_empty_directory_rejected(self, tmp_path):
        target = tmp_path / "traces"
        target.mkdir()
        with pytest.raises(FormatError):
            read_traces(target)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            read_traces(tmp_path / "nope.csv")

    def test_header_alone_names_line_1(self, tmp_path):
        path = write_text(tmp_path, HEADER + "\n")
        with pytest.raises(FormatError) as err:
            read_traces(path)
        assert (err.value.path, err.value.line) == (path, 1)
        assert str(err.value) == f"{path}: line 1: trace file contains no step rows"

    def test_field_past_the_csv_limit_names_its_line(self, tmp_path):
        # an unclosed quote runs the field to the end of the file
        rows = rows_for("t0", SHAPE)
        rows[1] = 't0,0,1,"0.5' + "9" * 200_000
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError) as err:
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
        except FormatError as exc:
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
        with pytest.raises(FormatError) as err:
            read_traces(path)
        assert (err.value.path, err.value.line) == (path, 1000)
        assert str(err.value).startswith(f"{path}: line 1000: not UTF-8 text")


BLOCK = 16 * 1024  # characters in a block of the block reader
LONG = CvShape(30, 10)  # 300 rows, about 11 KB, a trial


@cache
def cohort_and_bytes(trials: int, renamed: tuple[tuple[int, str], ...] = ()):
    """A generated 30x10 cohort with the ids at some indices replaced, and its file's bytes."""
    cohort = generate_cohort(gen_config(trials=trials, shape=LONG))
    for index, trial_id in renamed:
        trace = cohort[index]
        cohort[index] = TrialTrace(
            trial_id, trace.shape, metrics=trace.metrics, features=trace.features
        )
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "cohort.csv"
        write_traces(cohort, path)
        return cohort, path.read_bytes()


def read_or_error(reader, path):
    try:
        return reader(path)
    except FormatError as exc:
        return exc


class TestBlockReaderParity:
    """``read_traces`` reads every file as ``oracles.row_read_traces``, the row-by-row
    ``csv.reader`` loop it replaced, does: the same cohort, or the same error text,
    path and line."""

    def test_block_size(self):
        assert trace_module._BLOCK_CHARS == BLOCK

    # flips and cuts within two lines of the first six block ends, where
    # edits, drawing an offset anywhere in the file, seldom lands
    near_block_ends = st.lists(
        st.tuples(
            st.sampled_from(["truncate", "flip", "duplicate", "drop"]),
            st.builds(
                lambda block, offset: block * BLOCK + offset,
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=-80, max_value=80),
            ),
            st.integers(min_value=1, max_value=255),
        ),
        min_size=1,
        max_size=3,
    )

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.one_of(edits, near_block_ends), quoted=st.booleans())
    def test_damaged_file_reads_as_the_row_reader_reads_it(self, tmp_path, edits, quoted):
        # 9 trials: about 100 KB, six blocks; a quoted id hands the seventh
        # trial, which starts past four blocks, to the csv module
        _, clean = cohort_and_bytes(9, ((6, "a,b"),) if quoted else ())
        assert len(clean) > 6 * BLOCK
        assert clean.index(b'"a,b"' if quoted else b"trial_006") > 4 * BLOCK
        path = tmp_path / "traces.csv"
        data = damaged(clean, edits)
        path.write_bytes(data)
        got = read_or_error(read_traces, path)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            # which error comes first depends on where the decoder's chunks end
            assert isinstance(got, FormatError) and got.path == path
            assert 1 <= got.line <= data.count(b"\n") + 1
            return
        want = read_or_error(oracles.row_read_traces, path)
        if isinstance(want, FormatError):
            assert isinstance(got, FormatError), f"read, but the row reader says: {want}"
            assert (str(got), got.path, got.line) == (str(want), want.path, want.line)
        else:
            assert got == want

    def test_clean_files_read_as_the_row_reader_reads_them(self, tmp_path):
        path = tmp_path / "traces.csv"
        for renamed in (
            (), ((6, "a,b"),), ((0, "l\nm"), (8, "\u00fc")), ((8, "\u00fc"),), ((3, "x" * 20_000),)
        ):
            cohort, data = cohort_and_bytes(9, renamed)
            path.write_bytes(data)
            assert read_traces(path) == oracles.row_read_traces(path) == cohort


class TestBlockReaderEdges:
    """Files the block reader must read, or refuse, as the row-by-row reader did."""

    @staticmethod
    def refused(path) -> FormatError:
        with pytest.raises(FormatError) as err:
            read_traces(path)
        assert err.value.path == path
        return err.value

    @pytest.mark.parametrize("at", [7, 3_000], ids=["first-block", "seventh-block"])
    def test_blank_line_names_its_line(self, tmp_path, at):
        _, data = cohort_and_bytes(12)
        lines = data.split(b"\n")
        lines.insert(at, b"")  # line at + 1
        path = tmp_path / "t.csv"
        path.write_bytes(b"\n".join(lines))
        error = self.refused(path)
        assert error.line == at + 1
        assert str(error) == f"{path}: line {at + 1}: expected 5 fields, got 0"

    @pytest.mark.parametrize("trials", [1, 9])
    def test_last_row_without_line_feed_is_read(self, tmp_path, trials):
        cohort, data = cohort_and_bytes(trials)
        path = tmp_path / "t.csv"
        path.write_bytes(data.rstrip(b"\n"))
        assert read_traces(path) == cohort

    def test_crlf_copy_reads_to_the_same_cohort(self, tmp_path):
        cohort, data = cohort_and_bytes(9, ((6, "a,b"),))
        path = tmp_path / "t.csv"
        path.write_bytes(data.replace(b"\n", b"\r\n"))
        assert read_traces(path) == cohort

    @pytest.mark.parametrize("odd_id, lines_a_row", [("a,b", 1), ("l\nm", 2)], ids=repr)
    def test_quoted_id_after_three_plain_blocks(self, tmp_path, odd_id, lines_a_row):
        cohort, data = cohort_and_bytes(12, ((10, odd_id),))
        quoted = ('"' + odd_id + '"').encode("utf-8")
        assert data.index(quoted) > 3 * BLOCK and data.count(b'"') == 2 * LONG.total_steps
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        assert read_traces(path) == cohort
        # a bad row in the trial after it: row 5 of trial 11
        lines = data.split(b"\n")
        trial = LONG.total_steps
        line = 1 + 10 * trial + trial * lines_a_row + 6
        assert lines[line - 1].startswith(b"trial_011,0,5,")
        lines[line - 1] = lines[line - 1].rsplit(b",", 1)[0] + b",-1"
        path.write_bytes(b"\n".join(lines))
        error = self.refused(path)
        assert str(error) == f"{path}: line {line}: selected_feature_count must be >= 0"

    def test_quoted_header_is_accepted(self, tmp_path):
        header = '"trial_id",outer_fold,"inner_fold",metric,n_selected_features'
        path = write_text(tmp_path, header + "\n" + "\n".join(rows_for("t0", SHAPE)) + "\n")
        assert read_traces(path) == [
            TrialTrace("t0", SHAPE, metrics=[0.5] * 6, features=[3] * 6)
        ]

    def test_unquoted_field_past_the_limit_names_its_line(self, tmp_path):
        rows = rows_for("t0", SHAPE)
        rows[4] = "t0,2,0,0." + "5" * csv.field_size_limit() + ",3"  # line 6
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        error = self.refused(path)
        assert str(error) == (
            f"{path}: line 6: bad CSV: field larger than field limit ({csv.field_size_limit()})"
        )

    def test_bad_row_before_a_csv_error_is_named_first(self, tmp_path):
        rows = rows_for("t0", SHAPE)
        rows[1] = '"t0",0,1,0.5,-3'  # line 3, read by the csv module
        rows[4] = "t0,2,0,0." + "5" * csv.field_size_limit() + ",3"
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        error = self.refused(path)
        assert str(error) == f"{path}: line 3: selected_feature_count must be >= 0"

    def test_integer_spellings_int_accepts(self, tmp_path):
        spelled = ["t0,0,0,0.5,+1", "t0,0,01,0.5,3", "t0,+1,0,0.5, 2",
                   "t0,1,\u0661,0.5,1_0", "t0, 2,0,0.5,3", "t0,2,1,0.5,\u0661"]
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(spelled) + "\n")
        assert read_traces(path) == [
            TrialTrace("t0", SHAPE, metrics=[0.5] * 6, features=[1, 3, 2, 10, 3, 1])
        ]

    def test_id_holding_nul(self, tmp_path):
        rows = rows_for("t0", SHAPE) + rows_for("a\0b", SHAPE)
        path = write_text(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        if sys.version_info < (3, 11):  # the csv module takes NUL from 3.11 on
            error = self.refused(path)
            assert str(error) == f"{path}: line 8: bad CSV: line contains NUL"
        else:
            assert [t.trial_id for t in read_traces(path)] == ["t0", "a\0b"]


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
class TestStreamedInput:
    """A pipe is read once: an error in it names the file, and a line only where one is known.

    A row from a plain block is one line after the header, so it needs no second
    read, and gets the line the same file gets by name. A row the ``csv`` module
    read, and the first byte that is not UTF-8, need one, and a pipe gets no line.
    """

    @staticmethod
    def refused_by_name(tmp_path: Path, data: bytes) -> FormatError:
        path = tmp_path / "traces.csv"
        path.write_bytes(data)
        with pytest.raises(FormatError) as err:
            read_traces(path)
        return err.value

    @staticmethod
    def refused_through_a_pipe(data: bytes) -> tuple[Path, FormatError]:
        read_end, write_end = os.pipe()

        def write():
            try:
                with open(write_end, "wb") as handle:
                    handle.write(data)
            except BrokenPipeError:  # the reader stopped at the error
                pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        path = Path(f"/dev/fd/{read_end}")
        try:
            with pytest.raises(FormatError) as err:
                read_traces(path)
        finally:
            os.close(read_end)
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert err.value.path == path
        return path, err.value

    @staticmethod
    def lines_of_nine_trials() -> list[bytes]:
        _, data = cohort_and_bytes(9)
        assert len(data) > 6 * BLOCK
        return data.split(b"\n")

    @pytest.mark.parametrize("line", [100, 2_650], ids=["early", "late"])
    def test_bad_row(self, line, tmp_path):
        lines = self.lines_of_nine_trials()
        lines[line - 1] = lines[line - 1].rsplit(b",", 1)[0] + b",-1"
        path, error = self.refused_through_a_pipe(b"\n".join(lines))
        assert error.line == line == self.refused_by_name(tmp_path, b"\n".join(lines)).line
        assert str(error) == f"{path}: line {line}: selected_feature_count must be >= 0"

    def test_bad_row_the_csv_module_read(self, tmp_path):
        lines = self.lines_of_nine_trials()
        lines[2_599] = b'"' + lines[2_599].replace(b",", b'",', 1)  # a quoted id on line 2,600
        lines[2_649] = lines[2_649].rsplit(b",", 1)[0] + b",-1"
        path, error = self.refused_through_a_pipe(b"\n".join(lines))
        assert error.line is None
        assert str(error) == f"{path}: selected_feature_count must be >= 0"
        assert self.refused_by_name(tmp_path, b"\n".join(lines)).line == 2_650

    def test_trial_cut_short(self, tmp_path):
        lines = self.lines_of_nine_trials()
        del lines[-2]  # the last row; the last item is the empty text after the last line feed
        path, error = self.refused_through_a_pipe(b"\n".join(lines))
        # the header, then 2,699 rows
        assert error.line == 2_700 == self.refused_by_name(tmp_path, b"\n".join(lines)).line
        assert str(error) == (
            f"{path}: line 2700: trial 'trial_008' has 299 rows, cohort shape 30x10 requires 300"
        )

    def test_not_utf8(self):
        lines = self.lines_of_nine_trials()
        for line in (50, 2_600):  # the second is what a read from where the pipe stopped finds
            lines[line - 1] += b"\xff"
        path, error = self.refused_through_a_pipe(b"\n".join(lines))
        assert error.line is None
        assert str(error) == f"{path}: not UTF-8 text"
