"""End-to-end tests for the command line interface."""

import dataclasses
import json
import re

import pytest

from nestedprune import AshaConfig, Direction, ExtrapolationMethod, PrunerConfig
from nestedprune.cli import _load_variants, main

VARIANTS = {
    "asha": {"semantic_enabled": False, "threshold_enabled": False},
    "three-layer": {"threshold": 0.45, "extrapolation": "mean-dev"},
}


def write_variants(tmp_path, data=None, name="variants.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data or VARIANTS), encoding="utf-8")
    return str(path)


def gen_args(out, trials=3, outer=4, inner=4, seed=7):
    return [
        "gen", "--trials", str(trials), "--outer", str(outer), "--inner", str(inner),
        "--seed", str(seed), "--out", str(out),
    ]


class TestGen:
    def test_writes_cohort(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(gen_args(out)) == 0
        assert "wrote 3 trials" in capsys.readouterr().out
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "trial_id,outer_fold,inner_fold,metric,n_selected_features"

    def test_identical_seeds_produce_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(gen_args(a)) == 0
        assert main(gen_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        args = gen_args(out) + ["--base-min", "2.0", "--base-max", "1.0"]
        assert main(args) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(gen_args(tmp_path / "t.csv") + ["--bogus"])
        assert info.value.code == 1

    @pytest.mark.parametrize(
        "flag, field, value",
        [
            ("--base-min", "base_min", "nan"),
            ("--base-max", "base_max", "inf"),
            ("--noise-sd", "noise_sd", "nan"),
            ("--outlier-prob", "outlier_prob", "nan"),
            ("--outlier-mag", "outlier_magnitude", "inf"),
            ("--zero-feature-prob", "zero_feature_prob", "nan"),
        ],
    )
    def test_non_finite_setting_named(self, tmp_path, capsys, flag, field, value):
        assert main(gen_args(tmp_path / "t.csv") + [flag, value]) == 1
        assert f"{field} must be finite, got {value}" in capsys.readouterr().err

    def test_overflowing_metric_rejected(self, tmp_path, capsys):
        # every setting is finite, but base plus outlier spike is not
        args = gen_args(tmp_path / "t.csv") + [
            "--base-min", "1.7e308", "--base-max", "1.7e308",
            "--outlier-prob", "1", "--outlier-mag", "1e308",
        ]
        assert main(args) == 1
        assert "must be finite, got inf" in capsys.readouterr().err


class TestReplay:
    @pytest.fixture()
    def traces(self, tmp_path):
        out = tmp_path / "t.csv"
        main(gen_args(out, trials=4, outer=6, inner=4, seed=9))
        return str(out)

    def test_pruner_none_trains_full_grid(self, traces, capsys):
        assert main(["replay", "--traces", traces, "--pruner", "none"]) == 0
        out = capsys.readouterr().out
        assert "models=96" in out  # 4 trials x 6 x 4
        assert "completed=4" in out

    def test_three_layer_output_is_deterministic(self, traces, capsys):
        args = ["replay", "--traces", traces, "--pruner", "three-layer",
                "--threshold", "0.45"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("preset", ["threshold", "three-layer"])
    def test_threshold_flag_required(self, preset, capsys):
        # fails fast: the traces path is never even opened
        args = ["replay", "--traces", "missing.csv", "--pruner", preset]
        assert main(args) == 1
        assert "--threshold" in capsys.readouterr().err

    def test_missing_traces_exits_one(self, capsys):
        args = ["replay", "--traces", "missing.csv", "--pruner", "none"]
        assert main(args) == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_undecodable_trace_names_file_and_line(self, tmp_path, capsys):
        traces = tmp_path / "t.csv"
        main(gen_args(traces, trials=4, outer=30, inner=10))
        lines = traces.read_bytes().split(b"\n")
        lines[999] = b"\xe9" + lines[999]  # about 30 KB in: past the decoder's first chunk
        traces.write_bytes(b"\n".join(lines))
        assert main(["replay", "--traces", str(traces), "--pruner", "none"]) == 1
        assert f"error: {traces}: line 1000: not UTF-8 text" in capsys.readouterr().err

    def test_workers_flag_is_a_usage_error(self, traces, capsys):
        with pytest.raises(SystemExit) as info:
            main(["replay", "--traces", traces, "--pruner", "none", "--workers", "2"])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: nestedprune replay ")
        assert "unrecognized arguments: --workers 2" in err

    def test_huge_delay_exponent_replays_without_rungs(self, traces, capsys):
        args = ["replay", "--traces", traces, "--pruner", "asha",
                "--min-early-stopping-rate", str(10**9)]
        assert main(args) == 0
        assert " comparison=0 " in capsys.readouterr().out

    def test_maximize_direction(self, traces, capsys):
        args = ["replay", "--traces", traces, "--pruner", "threshold",
                "--direction", "max", "--threshold", "0.1",
                "--extrapolation", "optimal", "--optimal", "1.0"]
        assert main(args) == 0
        assert "totals:" in capsys.readouterr().out


class TestBench:
    def test_writes_report_and_summary(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        args = [
            "bench", "--reps", "2", "--trials", "5", "--outer", "6", "--inner", "4",
            "--base-seed", "42", "--variants", write_variants(tmp_path),
            "--baseline", "asha", "--out", str(out),
        ]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        assert "three-layer" in stdout and "report written" in stdout
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["baseline"] == "asha"
        assert [v["name"] for v in data["variants"]] == ["asha", "three-layer"]

    def test_require_best_preserved_failure_exits_two(self, tmp_path, capsys):
        # a threshold below every trial's base prunes the whole cohort,
        # including the ground-truth best trial
        variants = {"throttle": {"threshold": 0.05, "comparison_enabled": False,
                                 "semantic_enabled": False}}
        out = tmp_path / "report.json"
        args = [
            "bench", "--reps", "1", "--trials", "4", "--outer", "6", "--inner", "4",
            "--variants", write_variants(tmp_path, variants), "--baseline", "throttle",
            "--out", str(out), "--require-best-preserved",
        ]
        assert main(args) == 2
        assert "best trial was pruned" in capsys.readouterr().err

    def test_shape_required_without_traces(self, tmp_path, capsys):
        args = ["bench", "--variants", write_variants(tmp_path), "--baseline", "asha",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert "--outer" in capsys.readouterr().err

    def test_traces_source(self, tmp_path, capsys):
        traces = tmp_path / "t.csv"
        main(gen_args(traces, trials=4, outer=6, inner=4))
        out = tmp_path / "report.json"
        args = ["bench", "--reps", "1", "--traces", str(traces),
                "--variants", write_variants(tmp_path), "--baseline", "asha",
                "--out", str(out)]
        assert main(args) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["trials_per_rep"] == 4

    def test_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as info:
            main(["bench", "--reps", "1", "--trials", "2", "--outer", "4", "--inner", "2",
                  "--variants", write_variants(tmp_path), "--baseline", "asha",
                  "--out", str(out), "--workers", "2"])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: nestedprune bench ")
        assert "unrecognized arguments: --workers 2" in err
        assert not out.exists()

    def test_traces_default_to_one_rep(self, tmp_path):
        traces = tmp_path / "t.csv"
        main(gen_args(traces, trials=4, outer=6, inner=4))
        out = tmp_path / "report.json"
        args = ["bench", "--traces", str(traces), "--variants", write_variants(tmp_path),
                "--baseline", "asha", "--out", str(out)]
        assert main(args) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["repetitions"] == 1

    def test_traces_reject_more_than_one_rep(self, tmp_path, capsys):
        # one recorded cohort replayed N times gives N identical results
        traces = tmp_path / "t.csv"
        main(gen_args(traces, trials=4, outer=6, inner=4))
        args = ["bench", "--reps", "2", "--traces", str(traces),
                "--variants", write_variants(tmp_path), "--baseline", "asha",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert "--reps" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_traces_reject_fewer_than_one_rep(self, reps, tmp_path, capsys):
        # the library's "repetitions must be >= 1" named no flag
        traces = tmp_path / "t.csv"
        main(gen_args(traces, trials=4, outer=6, inner=4))
        args = ["bench", "--reps", reps, "--traces", str(traces),
                "--variants", write_variants(tmp_path), "--baseline", "asha",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert f"error: --reps must be 1 with --traces, not {reps}\n" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag", ["--reps", "--trials"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_generated_run_names_the_flag_below_one(self, flag, value, tmp_path, capsys):
        # the library's "repetitions must be >= 1" and "trials must be >= 1" named no flag
        args = ["bench", flag, value, "--outer", "6", "--inner", "4",
                "--variants", write_variants(tmp_path), "--baseline", "asha",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, not {value}\n"
        assert not (tmp_path / "r.json").exists()

    def test_undecodable_variants_name_file_and_line(self, tmp_path, capsys):
        variants = tmp_path / "variants.json"
        variants.write_bytes(
            b'{"asha": {"semantic_enabled": false, "threshold_enabled": false},\n'
            b' "three-layer": {"threshold": 0.45,\n'
            b' "extrapolation": "mean-dev\xe9"}}\n'
        )
        args = ["bench", "--reps", "1", "--trials", "4", "--outer", "6", "--inner", "4",
                "--variants", str(variants), "--baseline", "asha",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert f"error: {variants}: line 3: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--trials", "--outer", "--inner", "--base-seed", "--noise-sd", "--outlier-prob",
        "--outlier-mag", "--zero-feature-prob", "--base-min", "--base-max",
    ])
    def test_traces_rejects_generation_flags(self, flag, tmp_path, capsys):
        traces = tmp_path / "t.csv"
        main(gen_args(traces, trials=4, outer=6, inner=4))
        args = ["bench", "--traces", str(traces), flag, "5",
                "--variants", write_variants(tmp_path), "--baseline", "asha",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unknown_variant_key_exits_one(self, tmp_path, capsys):
        variants = {"bad": {"thresh": 0.4}}
        args = ["bench", "--outer", "6", "--inner", "4",
                "--variants", write_variants(tmp_path, variants), "--baseline", "bad",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert "thresh" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variant, expected",
        [
            ({"threshold": "0.4"}, "variant 'v': threshold: expected float, got str"),
            ({"threshold": 0.4, "min_threshold_steps": 4.5},
             "variant 'v': min_threshold_steps: expected int, got float"),
            ({"threshold": 0.4, "asha": {"reduction_factor": True}},
             "variant 'v': asha.reduction_factor: expected int, got bool"),
        ],
        ids=["string-threshold", "float-min-threshold-steps", "bool-reduction-factor"],
    )
    def test_mistyped_variant_value_exits_one(self, variant, expected, tmp_path, capsys):
        args = ["bench", "--outer", "4", "--inner", "2", "--trials", "2", "--reps", "1",
                "--variants", write_variants(tmp_path, {"v": variant}), "--baseline", "v",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "variant 'v'" in err and expected in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "variant, expected",
        [
            ({"asha": {"min_resource": 0}},
             "variant 'v': asha: min_resource must be a positive integer"),
            ({}, "variant 'v': threshold is required while the threshold layer is enabled"),
            ({"threshold": 0.4, "trim_fraction": 0.6},
             "variant 'v': trim_fraction must be in [0, 0.5), got 0.6"),
        ],
        ids=["nested-min-resource", "no-threshold", "trim-fraction"],
    )
    def test_refused_variant_names_file_variant_and_key(self, variant, expected, tmp_path,
                                                        capsys):
        path = write_variants(tmp_path, {"v": variant})
        args = ["bench", "--outer", "4", "--inner", "2", "--trials", "2", "--reps", "1",
                "--variants", path, "--baseline", "v", "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert f"error: variants file {path}: {expected}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("direction", ["min", "max"])
    def test_threshold_too_large_for_a_float_names_file_variant_and_key(
        self, direction, tmp_path, capsys
    ):
        path = write_variants(tmp_path, {"v": {"threshold": 10**400}})
        args = ["bench", "--outer", "6", "--inner", "4", "--trials", "4", "--reps", "1",
                "--direction", direction, "--variants", path, "--baseline", "v",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert (f"error: variants file {path}: variant 'v': threshold must be an int a float "
                "can hold, got one of 1329 bits") in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_variants_syntax_error_names_file_and_line(self, tmp_path, capsys):
        variants = tmp_path / "variants.json"
        variants.write_text('{"asha": {"semantic_enabled": false},\n'
                            ' "three-layer": {"threshold": 0.45,\n'
                            ' ]}\n', encoding="utf-8")
        args = ["bench", "--outer", "4", "--inner", "2", "--variants", str(variants),
                "--baseline", "asha", "--out", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert f"error: {variants}: line 3: " in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            args = ["bench", "--reps", "2", "--trials", "4", "--outer", "6",
                    "--inner", "4", "--base-seed", "5",
                    "--variants", write_variants(tmp_path), "--baseline", "asha",
                    "--out", str(out)]
            assert main(args) == 0
        assert a.read_bytes() == b.read_bytes()


class TestReport:
    @pytest.fixture()
    def report_path(self, tmp_path):
        out = tmp_path / "report.json"
        main([
            "bench", "--reps", "2", "--trials", "4", "--outer", "6", "--inner", "4",
            "--variants", write_variants(tmp_path), "--baseline", "asha",
            "--out", str(out),
        ])
        return out

    def test_json_to_csv(self, report_path, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["report", "--in", str(report_path), "--format", "csv",
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("variant,rep,models_trained")

    def test_json_identity_conversion(self, report_path, tmp_path):
        out = tmp_path / "copy.json"
        assert main(["report", "--in", str(report_path), "--format", "json",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == report_path.read_bytes()

    def test_undecodable_report_names_file_and_line(self, report_path, tmp_path, capsys):
        lines = report_path.read_bytes().split(b"\n")
        lines[4] += b"\xe9"
        report_path.write_bytes(b"\n".join(lines))
        assert main(["report", "--in", str(report_path), "--format", "csv",
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert f"error: {report_path}: line 5: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_float_exits_one(self, report_path, tmp_path, capsys, token):
        text = report_path.read_text(encoding="utf-8")
        edited = re.sub(r'"models_trained_stddev": [^,]*,',
                        f'"models_trained_stddev": {token},', text, count=1)
        assert edited != text
        report_path.write_text(edited, encoding="utf-8")
        out = tmp_path / "copy.json"
        assert main(["report", "--in", str(report_path), "--format", "json",
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert (f"error: malformed report {report_path}: variants[0]: models_trained_stddev "
                "must be finite") in capsys.readouterr().err

    def test_int_too_large_for_a_float_exits_one(self, report_path, tmp_path, capsys):
        text = report_path.read_text(encoding="utf-8")
        edited = re.sub(r'"models_trained_stddev": [^,]*,',
                        f'"models_trained_stddev": {10**400},', text, count=1)
        assert edited != text
        report_path.write_text(edited, encoding="utf-8")
        out = tmp_path / "copy.json"
        assert main(["report", "--in", str(report_path), "--format", "json",
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert (f"error: malformed report {report_path}: variants[0]: models_trained_stddev "
                "must be an int a float can hold") in capsys.readouterr().err

    def test_malformed_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["report", "--in", str(bad), "--format", "csv",
                     "--out", str(tmp_path / "o.csv")]) == 1


# a valid, non-default value for each variants.json key and what it becomes
SAMPLE_VALUES = {
    "direction": ("maximize", Direction.MAXIMIZE),
    "threshold": (0.5, 0.5),
    "extrapolation": ("max-dev", ExtrapolationMethod.MAX_DEVIATION),
    "optimal_value": (0.25, 0.25),
    "trim_fraction": (0.1, 0.1),
    "min_threshold_steps": (6, 6),
    "threshold_window_fraction": (0.5, 0.5),
    "asha": ({"reduction_factor": 4}, AshaConfig(reduction_factor=4)),
    "semantic_enabled": (False, False),
    "threshold_enabled": (False, False),
    "comparison_enabled": (False, False),
    "min_resource": (2, 2),
    "reduction_factor": (5, 5),
    "min_early_stopping_rate": (1, 1),
    "bootstrap_count": (3, 3),
}


class TestVariantKeys:
    @pytest.mark.parametrize(
        "owner, key",
        [(PrunerConfig, f.name) for f in dataclasses.fields(PrunerConfig)]
        + [(AshaConfig, f.name) for f in dataclasses.fields(AshaConfig)],
    )
    def test_every_config_field_is_a_key(self, owner, key, tmp_path):
        raw, expected = SAMPLE_VALUES[key]
        variant = {"threshold": 0.45}
        if owner is AshaConfig:
            variant["asha"] = {key: raw}
        else:
            variant[key] = raw
        path = write_variants(tmp_path, {"v": variant})
        config = _load_variants(path, Direction.MINIMIZE)["v"]
        built = config.asha if owner is AshaConfig else config
        assert getattr(built, key) == expected
