"""Unit tests for trial replay, study aggregation, and ground-truth objectives."""

import hashlib
import math
import random

import pytest

from nestedprune import (
    AshaConfig,
    CvShape,
    Direction,
    ExtrapolationMethod,
    FormatError,
    InvalidTrialStateError,
    PruneLayer,
    PrunerConfig,
    StepRecord,
    StudyState,
    TraceGenConfig,
    TrialStatus,
    TrialTrace,
    full_objective,
    generate_cohort,
    run_study,
    run_trial,
)

MIN = Direction.MINIMIZE


def make_trace(trial_id, shape, metrics, features=None):
    if features is None:
        features = [10] * len(metrics)
    steps = tuple(
        StepRecord(
            trial_id=trial_id,
            outer_idx=index // shape.inner_folds,
            inner_idx=index % shape.inner_folds,
            metric=metric,
            selected_feature_count=count,
        )
        for index, (metric, count) in enumerate(zip(metrics, features))
    )
    return TrialTrace(trial_id=trial_id, shape=shape, steps=steps)


def constant_trace(trial_id, shape, metric, features=10):
    total = shape.total_steps
    return make_trace(trial_id, shape, [metric] * total, [features] * total)


def three_layer(**overrides):
    base = dict(direction=MIN, threshold=0.45)
    base.update(overrides)
    return PrunerConfig(**base)


NO_LAYERS = PrunerConfig(
    direction=MIN,
    semantic_enabled=False,
    threshold_enabled=False,
    comparison_enabled=False,
)

SHAPE = CvShape(outer_folds=30, inner_folds=10)
SMALL = CvShape(outer_folds=4, inner_folds=4)


class TestShapeAndSteps:
    @pytest.mark.parametrize("outer,inner", [(1, 10), (10, 1), (0, 0)])
    def test_degenerate_shapes_rejected(self, outer, inner):
        with pytest.raises(ValueError):
            CvShape(outer_folds=outer, inner_folds=inner)

    def test_total_steps(self):
        assert SHAPE.total_steps == 300

    def test_nonfinite_metric_rejected(self):
        with pytest.raises(ValueError):
            StepRecord("t", 0, 0, float("nan"), 5)
        with pytest.raises(ValueError):
            StepRecord("t", 0, 0, float("inf"), 5)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            StepRecord("t", -1, 0, 0.5, 5)
        with pytest.raises(ValueError):
            StepRecord("t", 0, 0, 0.5, -1)


class TestRunTrial:
    def test_semantic_prune_after_one_model(self):
        study = StudyState(shape=SHAPE, config=three_layer())
        outcome = run_trial(study, constant_trace("t0", SHAPE, 0.5, features=0))
        assert outcome.status is TrialStatus.PRUNED
        assert outcome.pruned_layer is PruneLayer.SEMANTIC
        assert outcome.models_trained == 1
        assert outcome.reported_value is None

    def test_threshold_prune_at_window_start(self):
        study = StudyState(
            shape=SHAPE, config=three_layer(threshold=0.3)
        )
        outcome = run_trial(study, constant_trace("t0", SHAPE, 0.9))
        assert outcome.status is TrialStatus.PRUNED
        assert outcome.pruned_layer is PruneLayer.THRESHOLD
        assert outcome.models_trained == 5
        assert outcome.reported_value == pytest.approx(0.9)

    def test_no_layers_runs_to_completion(self):
        study = StudyState(shape=SHAPE, config=NO_LAYERS)
        trace = constant_trace("t0", SHAPE, 0.7)
        outcome = run_trial(study, trace)
        assert outcome.status is TrialStatus.COMPLETED
        assert outcome.models_trained == 300
        assert outcome.reported_value == pytest.approx(0.7)

    def test_replay_is_pure(self):
        study = StudyState(shape=SHAPE, config=three_layer(threshold=0.3))
        trace = constant_trace("t0", SHAPE, 0.9)
        snapshot = tuple(trace.steps)
        run_trial(study, trace)
        assert trace.steps == snapshot

    def test_shape_mismatch_rejected(self):
        study = StudyState(shape=SHAPE, config=three_layer())
        with pytest.raises(FormatError):
            run_trial(study, constant_trace("t0", SMALL, 0.5))

    def test_rerunning_trial_rejected(self):
        study = StudyState(shape=SHAPE, config=three_layer())
        trace = constant_trace("t0", SHAPE, 0.5)
        run_trial(study, trace)
        with pytest.raises(InvalidTrialStateError):
            run_trial(study, trace)


class TestRunStudy:
    def test_single_trial_no_layers(self):
        report = run_study([constant_trace("t0", SMALL, 0.5)], NO_LAYERS)
        assert report.models_trained_total == SMALL.total_steps
        assert report.completed == 1
        assert report.best_trial_id == "t0"

    def test_empty_cohort_rejected(self):
        with pytest.raises(FormatError):
            run_study([], NO_LAYERS)

    def test_duplicate_ids_rejected(self):
        cohort = [constant_trace("t0", SMALL, 0.5), constant_trace("t0", SMALL, 0.6)]
        with pytest.raises(FormatError):
            run_study(cohort, NO_LAYERS)

    def test_mixed_shapes_rejected(self):
        cohort = [constant_trace("t0", SMALL, 0.5), constant_trace("t1", SHAPE, 0.5)]
        with pytest.raises(FormatError):
            run_study(cohort, NO_LAYERS)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_study([constant_trace("t0", SMALL, 0.5)], NO_LAYERS, workers=0)

    def test_deterministic_across_runs(self):
        cohort = [
            constant_trace("t0", SMALL, 0.5),
            constant_trace("t1", SMALL, 0.9),
            constant_trace("t2", SMALL, 0.2),
        ]
        config = three_layer(threshold=0.7, asha=AshaConfig(min_early_stopping_rate=0))
        assert run_study(cohort, config) == run_study(cohort, config)

    def test_prune_counts_partition_cohort(self):
        rng = random.Random(3)
        cohort = [
            constant_trace(
                f"t{i}", SMALL, rng.uniform(0.1, 1.0), features=0 if i % 5 == 0 else 8
            )
            for i in range(10)
        ]
        report = run_study(
            cohort, three_layer(threshold=0.6, asha=AshaConfig(min_early_stopping_rate=0))
        )
        total = (
            report.semantic_prunes
            + report.threshold_prunes
            + report.comparison_prunes
            + report.completed
        )
        assert total == len(cohort)
        assert report.models_trained_total == sum(o.models_trained for o in report.outcomes)

    def test_best_trial_prefers_direction(self):
        cohort = [constant_trace("low", SMALL, 0.2), constant_trace("high", SMALL, 0.8)]
        report_min = run_study(cohort, NO_LAYERS)
        assert report_min.best_trial_id == "low"
        no_layers_max = PrunerConfig(
            direction=Direction.MAXIMIZE,
            semantic_enabled=False,
            threshold_enabled=False,
            comparison_enabled=False,
        )
        assert run_study(cohort, no_layers_max).best_trial_id == "high"

    def test_all_semantic_prunes_leave_no_best(self):
        cohort = [constant_trace(f"t{i}", SMALL, 0.5, features=0) for i in range(3)]
        report = run_study(cohort, three_layer())
        assert report.best_trial_id is None
        assert report.best_value is None

    def test_worker_pool_runs_all_trials(self):
        rng = random.Random(11)
        cohort = [constant_trace(f"t{i}", SMALL, rng.uniform(0.1, 1.0)) for i in range(8)]
        report = run_study(cohort, three_layer(threshold=0.7), workers=4)
        assert report.workers == 4
        assert len(report.outcomes) == 8
        assert [o.trial_id for o in report.outcomes] == [t.trial_id for t in cohort]
        for outcome in report.outcomes:
            assert 1 <= outcome.models_trained <= SMALL.total_steps


class TestModelCountInvariants:
    def test_models_bounded_with_equality_iff_completed(self):
        rng = random.Random(7)
        study = StudyState(shape=SMALL, config=three_layer(threshold=0.5))
        for i in range(12):
            metrics = [rng.uniform(0.0, 1.0) for _ in range(SMALL.total_steps)]
            outcome = run_trial(study, make_trace(f"t{i}", SMALL, metrics))
            assert outcome.models_trained <= SMALL.total_steps
            completed = outcome.status is TrialStatus.COMPLETED
            assert (outcome.models_trained == SMALL.total_steps) == completed

    @pytest.mark.parametrize("layer", ["semantic_enabled", "threshold_enabled"])
    def test_disabling_a_layer_never_reduces_models(self, layer):
        rng = random.Random(19)
        for i in range(10):
            metrics = [rng.uniform(0.0, 1.0) for _ in range(SMALL.total_steps)]
            features = [0 if rng.random() < 0.1 else 5 for _ in range(SMALL.total_steps)]
            trace = make_trace(f"t{i}", SMALL, metrics, features)
            on = run_trial(
                StudyState(shape=SMALL, config=three_layer(threshold=0.5)), trace
            )
            off = run_trial(
                StudyState(
                    shape=SMALL, config=three_layer(threshold=0.5, **{layer: False})
                ),
                trace,
            )
            assert on.models_trained <= off.models_trained


class TestFullObjective:
    def test_constant_trace(self):
        assert full_objective(constant_trace("t0", SMALL, 0.4)) == pytest.approx(0.4)

    def test_matches_trimmed_mean_oracle(self):
        # metrics {1..4, 100} twice over a 2x5 grid: trim drops both 100s and
        # both 1s, leaving mean {2,2,3,3,4,4} = 3
        shape = CvShape(outer_folds=2, inner_folds=5)
        trace = make_trace("t0", shape, [1, 2, 3, 4, 100, 1, 2, 3, 4, 100])
        assert full_objective(trace, 0.2) == 3.0

    def test_permutation_of_metrics_preserves_objective(self):
        rng = random.Random(5)
        metrics = [rng.uniform(0.0, 1.0) for _ in range(SMALL.total_steps)]
        shuffled = list(metrics)
        rng.shuffle(shuffled)
        a = full_objective(make_trace("a", SMALL, metrics))
        b = full_objective(make_trace("b", SMALL, shuffled))
        assert a == b


def _decision_digest(runs) -> tuple[int, str]:
    """Outcome count and sha256 of every ``(trial, models, layer, repr(reported))``."""
    digest = hashlib.sha256()
    count = 0
    for cohort, config in runs:
        for outcome in run_study(cohort, config).outcomes:
            layer = outcome.pruned_layer.value if outcome.pruned_layer else None
            record = (outcome.trial_id, outcome.models_trained, layer, repr(outcome.reported_value))
            digest.update(repr(record).encode())
            count += 1
    return count, digest.hexdigest()


class TestGoldenDecisions:
    """Every decision and reported value, pinned bit for bit on fixed cohorts."""

    TABLE_ASHA = AshaConfig(
        min_resource=1, reduction_factor=3, min_early_stopping_rate=2, bootstrap_count=0
    )

    def test_criterion_1_cohorts(self):
        three_layer_config = three_layer(asha=self.TABLE_ASHA)
        asha_only = PrunerConfig(
            direction=MIN, asha=self.TABLE_ASHA, semantic_enabled=False, threshold_enabled=False
        )
        runs = []
        for seed in range(42, 72):
            cohort = generate_cohort(TraceGenConfig(trials=40, shape=SHAPE, seed=seed))
            runs += [(cohort, asha_only), (cohort, three_layer_config)]
        assert _decision_digest(runs) == (
            2400,
            "18c9857e3c7fff91a9ad614ef71c9083fdd280b409c7220ea77dc6935b7164b6",
        )

    def test_window_open_cohorts(self):
        """Threshold window open over the whole grid: histories grow to 300 values."""
        runs = []
        for direction, threshold, optimal in ((MIN, 0.55, 0.0), (Direction.MAXIMIZE, 0.55, 1.0)):
            for seed in (7, 8, 9):
                cohort = generate_cohort(
                    TraceGenConfig(trials=30, shape=SHAPE, seed=seed, direction=direction)
                )
                for method in ExtrapolationMethod:
                    config = PrunerConfig(
                        direction=direction,
                        threshold=threshold,
                        extrapolation=method,
                        optimal_value=optimal,
                        threshold_window_fraction=1.0,
                        comparison_enabled=False,
                    )
                    runs.append((cohort, config))
        assert _decision_digest(runs) == (
            720,
            "7ccec4ffdf14d10f732025969cc9cfd8f4b7f1b089fc6ce871929de781a12f6d",
        )
