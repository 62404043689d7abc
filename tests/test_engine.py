"""Unit tests for trial replay, study aggregation, and ground-truth objectives."""

import copy
import dataclasses
import hashlib
import inspect
import math
import pickle
import random
import sys
import threading

import oracles
import pytest

from nestedprune import (
    AshaConfig,
    CvShape,
    Direction,
    ExtrapolationMethod,
    FormatError,
    InvalidTrialStateError,
    MetricHistory,
    PruneLayer,
    PrunerConfig,
    StepRecord,
    StudyState,
    TraceGenConfig,
    TrialStatus,
    TrialTrace,
    combined_decide,
    full_objective,
    generate_cohort,
    run_study,
    trimmed_mean,
)
from nestedprune.engine import run_trial

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

    # exactly int, as TrialTrace holds its counts: 0.0 == 0 would semantic-prune a live trial
    @pytest.mark.parametrize(
        "name, value",
        [("outer_idx", 0.0), ("inner_idx", True), ("selected_feature_count", 0.0),
         ("selected_feature_count", True)],
    )
    def test_fold_index_or_count_that_is_not_an_int_refused_by_name(self, name, value):
        step = StepRecord("t", 0, 0, 0.5, 1)
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {value!r}$"):
            dataclasses.replace(step, **{name: value})

    def test_int_no_float_can_hold_refused_by_name(self):
        message = "must be finite, got an int no float can hold$"
        with pytest.raises(ValueError, match=f"^metric {message}"):
            StepRecord("t", 0, 0, 10**400, 1)
        with pytest.raises(FormatError, match=rf"^trial 'x': metric at step \(1, 1\) {message}"):
            TrialTrace("x", CvShape(2, 2), metrics=[0.5, 0.5, 0.5, 10**400], features=[1] * 4)
        with pytest.raises(ValueError, match=f"^metric values {message}"):
            MetricHistory([0.5, 10**400])


class TestStepRecordConstructor:
    """The written-out ``StepRecord.__init__`` behaves as the generated one would."""

    VALUES = ("trial_007", 2, 1, 0.25, 17)
    NAMES = [field.name for field in dataclasses.fields(StepRecord)]

    def test_signature_names_the_fields_in_order_without_defaults(self):
        parameters = list(inspect.signature(StepRecord).parameters.values())
        assert [p.name for p in parameters] == self.NAMES == [
            "trial_id", "outer_idx", "inner_idx", "metric", "selected_feature_count"
        ]
        assert all(p.default is p.empty for p in parameters)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)

    def test_keyword_construction(self):
        step = StepRecord(**dict(zip(self.NAMES, self.VALUES)))
        assert dataclasses.astuple(step) == self.VALUES

    def test_replace_runs_the_checks(self):
        step = StepRecord(*self.VALUES)
        assert dataclasses.replace(step, metric=0.5) == StepRecord("trial_007", 2, 1, 0.5, 17)
        with pytest.raises(ValueError, match="^metric must be finite, got nan$"):
            dataclasses.replace(step, metric=math.nan)
        with pytest.raises(ValueError, match="^fold indices must be >= 0$"):
            dataclasses.replace(step, inner_idx=-1)

    @pytest.mark.parametrize("name", NAMES)
    def test_every_field_is_frozen(self, name):
        step = StepRecord(*self.VALUES)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(step, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(step, name)
        assert dataclasses.astuple(step) == self.VALUES
        assert not hasattr(step, "__dict__")

    def test_repr_names_every_field(self):
        assert repr(StepRecord(*self.VALUES)) == (
            "StepRecord(trial_id='trial_007', outer_idx=2, inner_idx=1, metric=0.25, "
            "selected_feature_count=17)"
        )

    @pytest.mark.parametrize(
        "round_trip",
        [*(lambda s, p=p: pickle.loads(pickle.dumps(s, protocol=p))
           for p in range(pickle.HIGHEST_PROTOCOL + 1)), copy.deepcopy, copy.copy],
        ids=[*(f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)), "deepcopy", "copy"],
    )
    def test_pickle_and_copy_round_trip(self, round_trip):
        step = StepRecord(*self.VALUES)
        again = round_trip(step)
        assert type(again) is StepRecord
        assert again == step and hash(again) == hash(step)
        with pytest.raises(dataclasses.FrozenInstanceError):
            again.metric = 0.5


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


class TestWorkerCountChangesNothing:
    """N workers taking turns, trials handed out in cohort order, decide as replay does.

    This is why replay has no worker count.
    """

    @pytest.mark.parametrize("direction", [MIN, Direction.MAXIMIZE], ids=["min", "max"])
    @pytest.mark.parametrize("workers", range(1, 7))
    def test_rotation_matches_run_study(self, workers, direction, monkeypatch):
        shape = CvShape(outer_folds=9, inner_folds=3)  # rungs at 1, 3 and 9 loops
        calls = []
        decide = oracles.combined_decide

        def recorded(study, trial_id, step):
            calls.append(trial_id)
            return decide(study, trial_id, step)

        monkeypatch.setattr(oracles, "combined_decide", recorded)
        layers = set()
        for seed in range(3):
            cohort = generate_cohort(TraceGenConfig(
                trials=16, shape=shape, seed=seed, direction=direction, zero_feature_prob=0.2
            ))
            for bootstrap_count in range(4):
                config = PrunerConfig(
                    direction=direction,
                    threshold=0.6 if direction is MIN else 0.5,
                    asha=AshaConfig(min_early_stopping_rate=0, bootstrap_count=bootstrap_count),
                )
                expected = [
                    (o.trial_id, o.status, o.pruned_layer, o.models_trained, o.reported_value)
                    for o in run_study(cohort, config).outcomes
                ]
                calls.clear()
                assert oracles.rotation_replay(cohort, config, workers) == expected
                layers.update(outcome[2] for outcome in expected)
                # with two or more workers, trials really take turns
                switches = sum(a != b for a, b in zip(calls, calls[1:]))
                ended = len(cohort) - 1
                assert switches > ended if workers > 1 else switches == ended
        assert layers == {None, *PruneLayer}


class TestLiveThreads:
    """One thread per trial, every thread reporting its steps into one shared study.

    The switch interval is cut to a microsecond so that threads interleave
    inside ``combined_decide`` rather than run one after another.
    """

    SHAPE = CvShape(outer_folds=9, inner_folds=3)  # rungs at 1, 3 and 9 loops

    def run_live(self, cohort, config):
        study = StudyState(shape=self.SHAPE, config=config)
        errors = []

        def report(trial_id, steps):
            try:
                for step in steps:
                    if combined_decide(study, trial_id, step).layer is not None:
                        return
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=report, args=(trace.trial_id, trace.steps))
            for trace in cohort
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert not study.lock.locked()
        return study

    def cohort(self, seed, direction):
        return generate_cohort(TraceGenConfig(
            trials=24, shape=self.SHAPE, seed=seed, direction=direction, zero_feature_prob=0.2
        ))

    def config(self, direction, **overrides):
        return PrunerConfig(
            direction=direction,
            threshold=0.6 if direction is MIN else 0.5,
            asha=AshaConfig(min_early_stopping_rate=0),
            **overrides,
        )

    @pytest.mark.parametrize("direction", [MIN, Direction.MAXIMIZE], ids=["min", "max"])
    def test_without_comparison_each_trial_ends_as_in_replay(self, direction):
        layers = set()
        for seed in range(3):
            cohort = self.cohort(seed, direction)
            config = self.config(direction, comparison_enabled=False)
            expected = {
                o.trial_id: (o.status, o.pruned_layer, o.models_trained)
                for o in run_study(cohort, config).outcomes
            }
            study = self.run_live(cohort, config)
            assert {
                trial_id: (state.status, state.decision.layer, state.steps_observed)
                for trial_id, state in study.trials.items()
            } == expected
            layers.update(layer for _, layer, _ in expected.values())
        assert layers == {None, PruneLayer.SEMANTIC, PruneLayer.THRESHOLD}

    @pytest.mark.parametrize("direction", [MIN, Direction.MAXIMIZE], ids=["min", "max"])
    def test_with_comparison_rungs_stay_consistent(self, direction):
        for seed in range(3):
            cohort = self.cohort(seed, direction)
            study = self.run_live(cohort, self.config(direction))
            assert len(study.trials) == len(cohort)
            assert all(state.status is not TrialStatus.RUNNING for state in study.trials.values())
            inner = self.SHAPE.inner_folds
            for ranked, resource in zip(study.rungs, study.rung_points, strict=True):
                due = resource * inner
                # a trial recorded at the rung if it got past the step where the rung is
                # due, or ended there by completing or by a comparison prune
                expected = [
                    trimmed_mean(trace.metrics[:due], study.config.trim_fraction)
                    for trace in cohort
                    if (state := study.trials[trace.trial_id]).steps_observed > due
                    or state.steps_observed == due
                    and (state.status is TrialStatus.COMPLETED
                         or state.decision.layer is PruneLayer.COMPARISON)
                ]
                assert ranked == sorted(expected)


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

    def test_large_rung_cohorts(self):
        """2,000 ASHA-only trials on a 10x5 grid: rungs of hundreds of values, with ties.

        Hash recorded before rungs were kept sorted.
        """
        shape = CvShape(outer_folds=10, inner_folds=5)
        asha = AshaConfig(min_early_stopping_rate=0)  # rungs at 1, 3 and 9 loops
        cohort = generate_cohort(TraceGenConfig(trials=2000, shape=shape, seed=5))
        # two decimals make equal intermediate values common, so ties sit on the cutoff
        coarse = [
            TrialTrace(t.trial_id, shape, metrics=[round(m, 2) for m in t.metrics],
                       features=t.features)
            for t in cohort
        ]
        mirrored = [
            TrialTrace(t.trial_id, shape, metrics=[-m for m in t.metrics], features=t.features)
            for t in coarse
        ]
        runs = [
            (traces, PrunerConfig(
                direction=direction, asha=asha, semantic_enabled=False, threshold_enabled=False
            ))
            for traces, direction in ((cohort, MIN), (coarse, MIN), (mirrored, Direction.MAXIMIZE))
        ]
        assert _decision_digest(runs) == (
            6000,
            "ac3211d1ed77feec189fde57b920f4fc0b6704436eaa4ba5c8292231ea1e674e",
        )
