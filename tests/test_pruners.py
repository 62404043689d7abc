"""Unit tests for the three pruning layers and their combination."""

import dataclasses
import inspect
import math
import pickle
import re
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_rung_cutoff,
    brute_rung_survivors,
    brute_threshold_prunes,
    exact_median,
    exact_trimmed_mean,
)

from nestedprune import (
    AshaConfig,
    CvShape,
    Decision,
    Direction,
    ExtrapolationMethod,
    FormatError,
    InvalidTrialStateError,
    PruneLayer,
    PrunerConfig,
    StepRecord,
    StudyState,
    TrialStatus,
    TrialTrace,
    asha_record_and_decide,
    combined_decide,
    median,
    semantic_decide,
    threshold_decide,
    trimmed_mean,
)
from nestedprune import pruners
from nestedprune.engine import run_trial
from nestedprune.pruners import CONTINUE, reported_value_on_prune, rung_cutoff

MIN = Direction.MINIMIZE
MAX = Direction.MAXIMIZE


def step(trial="t0", outer=0, inner=0, metric=0.5, features=10):
    return StepRecord(
        trial_id=trial,
        outer_idx=outer,
        inner_idx=inner,
        metric=metric,
        selected_feature_count=features,
    )


def rung_survivors(values, direction, factor):
    """Trial ids that survive one rung holding ``values``, read through ``rung_cutoff``."""
    if not values:
        return set()
    cutoff = rung_cutoff(sorted(values.values()), direction, factor)
    return {tid for tid, v in values.items() if not direction.is_worse(v, cutoff)}


def config(**overrides):
    base = dict(direction=MIN, threshold=0.45)
    base.update(overrides)
    return PrunerConfig(**base)


class TestDecision:
    def test_continue_is_not_pruned(self):
        assert not CONTINUE.pruned
        assert CONTINUE.layer is None and CONTINUE.reported_value is None

    def test_semantic_prune_carries_no_value(self):
        assert Decision(PruneLayer.SEMANTIC).reported_value is None
        with pytest.raises(ValueError):
            Decision(PruneLayer.SEMANTIC, reported_value=0.4)

    @pytest.mark.parametrize("layer", [PruneLayer.THRESHOLD, PruneLayer.COMPARISON])
    def test_other_prunes_require_value(self, layer):
        assert Decision(layer, reported_value=0.4).pruned
        with pytest.raises(ValueError):
            Decision(layer)

    def test_continue_cannot_carry_value(self):
        with pytest.raises(ValueError):
            Decision(reported_value=0.4)

    def test_written_out_init_keeps_the_fields_defaults(self):
        parameters = list(inspect.signature(Decision).parameters.values())
        assert [(p.name, p.default) for p in parameters] == [
            (f.name, f.default) for f in dataclasses.fields(Decision)
        ]

    def test_slotted_and_frozen(self):
        decision = Decision(PruneLayer.THRESHOLD, 0.4)
        for name in ("layer", "reported_value"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(decision, name, None)
        assert not hasattr(decision, "__dict__")
        assert decision == Decision(layer=PruneLayer.THRESHOLD, reported_value=0.4)
        assert hash(decision) == hash(Decision(PruneLayer.THRESHOLD, 0.4))
        assert repr(decision) == (
            "Decision(layer=<PruneLayer.THRESHOLD: 'threshold'>, reported_value=0.4)"
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        decision = Decision(PruneLayer.COMPARISON, 0.25)
        again = pickle.loads(pickle.dumps(decision, protocol=protocol))
        assert type(again) is Decision and again == decision

    def test_semantic_prunes_share_one_decision(self):
        assert semantic_decide(step(features=0)) is semantic_decide(step(features=0))
        assert semantic_decide(step(features=0)) == Decision(PruneLayer.SEMANTIC)

    def test_trial_state_is_slotted(self):
        study = StudyState(shape=CvShape(outer_folds=2, inner_folds=2), config=config())
        combined_decide(study, "t0", step())
        assert not hasattr(study.trials["t0"], "__dict__")


class TestConfigs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_resource=0),
            dict(reduction_factor=1),
            dict(min_early_stopping_rate=-1),
            dict(bootstrap_count=-1),
        ],
    )
    def test_asha_bounds(self, kwargs):
        with pytest.raises(ValueError):
            AshaConfig(**kwargs)

    def test_asha_defaults(self):
        asha = AshaConfig()
        assert (asha.min_resource, asha.reduction_factor) == (1, 3)
        assert (asha.min_early_stopping_rate, asha.bootstrap_count) == (2, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(trim_fraction=0.5),
            dict(min_threshold_steps=3),
            dict(threshold_window_fraction=0.0),
            dict(threshold_window_fraction=1.5),
            dict(threshold=float("nan")),
        ],
    )
    def test_pruner_config_bounds(self, kwargs):
        with pytest.raises(ValueError):
            config(**kwargs)

    def test_threshold_required_when_layer_enabled(self):
        with pytest.raises(ValueError):
            PrunerConfig(direction=MIN)
        # fine once the layer is off
        PrunerConfig(direction=MIN, threshold_enabled=False)

    def test_direction_spelling_refused(self):
        # the layers test `direction is MINIMIZE`, so a spelling would read as maximise
        with pytest.raises(TypeError, match="^direction must be a member of Direction"):
            PrunerConfig(direction="minimize", threshold=0.5)

    def test_extrapolation_spelling_refused(self):
        # the threshold layer tests members, so a spelling would read as the median slice
        with pytest.raises(TypeError, match="^extrapolation must be a member of ExtrapolationMethod"):
            config(extrapolation="mean-dev")

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(AshaConfig)])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3"], ids=["frac", "float", "bool", "str"])
    def test_asha_fields_must_be_ints(self, name, value):
        # a fractional min_resource puts rungs at loop counts no trial completes, and a
        # fractional reduction_factor cannot index a rung's sorted values
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            AshaConfig(**{name: value})


class TestRungCutoff:
    """A rung is a list ``asha_record_and_decide`` keeps ascending; ``rung_cutoff`` reads it."""

    def test_cutoff_of_empty_rung_rejected(self):
        with pytest.raises(ValueError):
            rung_cutoff([], MIN, 3)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.one_of(
                    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                    st.floats(min_value=-1, max_value=1),
                ),
            ),
            max_size=60,
        ),
        st.integers(min_value=2, max_value=6),
    )
    def test_sorted_view_and_cutoff_match_brute_force(self, records, factor):
        asha = AshaConfig(reduction_factor=factor)
        rungs = ([], [], [])
        recorded = ([], [], [])
        for rung, value in records:
            asha_record_and_decide(rungs[rung], value, MIN, asha)
            recorded[rung].append(value)
            values = recorded[rung]
            # repr tells -0.0 from 0.0: ties keep their recording order, as in sorted()
            assert list(map(repr, rungs[rung])) == list(map(repr, sorted(values)))
            for direction in (MIN, MAX):
                assert rung_cutoff(rungs[rung], direction, factor) == brute_rung_cutoff(
                    values, direction, factor
                )


class TestSemanticLayer:
    def test_zero_features_pruned(self):
        decision = semantic_decide(step(features=0))
        assert decision.layer is PruneLayer.SEMANTIC
        assert decision.reported_value is None

    def test_nonzero_features_continue(self):
        assert semantic_decide(step(features=5)) == CONTINUE


def window(outer=30, inner=10, **cfg_overrides):
    """``(opens_at, closes_at)`` of the threshold layer, as the study works it out."""
    shape = CvShape(outer_folds=outer, inner_folds=inner)
    return StudyState(shape=shape, config=config(**cfg_overrides)).threshold_window


class TestThresholdWindow:
    def test_too_few_measurements(self):
        # never before min_threshold_steps measurements, however short the loop
        assert window(inner=2)[0] == 4
        assert window(inner=10, min_threshold_steps=7)[0] == 7

    def test_opens_at_half_inner_loop(self):
        # max(4, ceil(10/2)) = 5, max(4, ceil(13/2)) = 7
        assert window(inner=10)[0] == 5
        assert window(inner=13)[0] == 7

    def test_closes_after_outer_fraction(self):
        # ceil(30/3) = 10, ceil(31/3) = 11, ceil(0.5 * 30) = 15 completed outer iterations
        assert window() == (5, 10)
        assert window(outer=31)[1] == 11
        assert window(threshold_window_fraction=0.5)[1] == 15

    def test_small_inner_uses_min_steps(self):
        assert window(inner=4) == (4, 10)


class TestCompositeEstimate:
    """The blend ``(median*done + optimistic*missing) / (done + missing)`` that
    ``threshold_decide`` compares with the threshold, located exactly by the
    thresholds on either side of it."""

    def test_weighted_blend(self):
        # median 0.59375 over 4 steps, max-dev 0.5 over 12 missing: the blend
        # is exactly 0.5234375, which is not worse than itself
        values = [0.625, 0.5, 0.75, 0.5625]
        cfg = config(threshold=0.5234375, extrapolation=ExtrapolationMethod.MAX_DEVIATION)
        assert threshold_decide(values, 12, cfg) == CONTINUE
        cfg = config(
            threshold=math.nextafter(0.5234375, 0.0),
            extrapolation=ExtrapolationMethod.MAX_DEVIATION,
        )
        assert threshold_decide(values, 12, cfg).pruned

    def test_no_missing_steps_returns_center(self):
        values = [0.6, 0.5, 0.7, 0.55]
        cfg = config(
            threshold=0.57, extrapolation=ExtrapolationMethod.OPTIMAL_METRIC, optimal_value=123.0
        )
        assert threshold_decide(values, 0, cfg).pruned  # median 0.575 > 0.57
        cfg = config(
            threshold=0.58, extrapolation=ExtrapolationMethod.OPTIMAL_METRIC, optimal_value=123.0
        )
        assert threshold_decide(values, 0, cfg) == CONTINUE

    def test_equal_inputs_unchanged(self):
        def decide(threshold):
            cfg = config(
                threshold=threshold,
                extrapolation=ExtrapolationMethod.OPTIMAL_METRIC,
                optimal_value=0.5,
            )
            return threshold_decide([0.5] * 3, 7, cfg)

        assert decide(0.5) == CONTINUE
        assert decide(math.nextafter(0.5, 0.0)).pruned

    # a negative done count has no history to stand for, so only an empty one
    # and negative missing steps are left to reject
    @pytest.mark.parametrize("done,missing", [(0, 5), (3, -1)])
    def test_bad_counts_rejected(self, done, missing):
        with pytest.raises(ValueError):
            threshold_decide([0.5] * done, missing, config())

    @given(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.sampled_from([MIN, MAX]),
    )
    def test_convex_combination(self, center, extrapolated, done, missing, direction):
        """The blend lies between the median and the optimistic value."""

        def pruned(threshold):
            cfg = config(
                direction=direction,
                threshold=threshold,
                extrapolation=ExtrapolationMethod.OPTIMAL_METRIC,
                optimal_value=extrapolated,
            )
            return threshold_decide([center] * done, missing, cfg).pruned

        worst = max if direction is MIN else min
        best = min if direction is MIN else max
        outside = -math.inf if direction is MIN else math.inf
        assert not pruned(worst(center, extrapolated))
        assert pruned(math.nextafter(best(center, extrapolated), outside))


class TestThresholdDecide:
    VALUES = [0.6, 0.5, 0.7, 0.55]

    def test_prunes_when_estimate_worse(self):
        cfg = config(threshold=0.45, extrapolation=ExtrapolationMethod.MAX_DEVIATION)
        decision = threshold_decide(self.VALUES, 6, cfg)  # composite 0.53 > 0.45
        assert decision.layer is PruneLayer.THRESHOLD
        # fewer than five observations: reports the median
        assert decision.reported_value == pytest.approx(0.575)

    def test_continues_when_estimate_acceptable(self):
        cfg = config(threshold=0.60, extrapolation=ExtrapolationMethod.MAX_DEVIATION)
        assert threshold_decide(self.VALUES, 6, cfg) == CONTINUE

    def test_optimal_extrapolation_can_rescue(self):
        cfg = config(
            threshold=0.25,
            extrapolation=ExtrapolationMethod.OPTIMAL_METRIC,
            optimal_value=0.0,
        )
        # composite (0.575*4 + 0*6) / 10 = 0.23 <= 0.25
        assert threshold_decide(self.VALUES, 6, cfg) == CONTINUE

    def test_requires_threshold(self):
        cfg = PrunerConfig(direction=MIN, threshold_enabled=False)
        with pytest.raises(ValueError):
            threshold_decide(self.VALUES, 6, cfg)

    @settings(max_examples=300)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=-0.5, max_value=5.5),
    )
    def test_prune_set_nesting_across_methods(self, values, missing, threshold):
        """If a defensive method prunes, every more aggressive one does too."""
        ordered = [
            ExtrapolationMethod.OPTIMAL_METRIC,
            ExtrapolationMethod.MAX_DEVIATION,
            ExtrapolationMethod.MEAN_DEVIATION,
            ExtrapolationMethod.NO_EXTRAPOLATION,
        ]
        pruned = [
            threshold_decide(
                values,
                missing,
                config(threshold=threshold, extrapolation=method, optimal_value=0.0),
            ).pruned
            for method in ordered
        ]
        for defensive, aggressive in zip(pruned, pruned[1:]):
            assert not defensive or aggressive


class TestIntermediateValue:
    """The value a trial records at a rung: the trimmed mean of its whole history."""

    def test_absent_before_first_complete_loop(self):
        with pytest.raises(ValueError):
            trimmed_mean([], 0.2)
        study = make_study(asha=AshaConfig(min_early_stopping_rate=0), threshold_enabled=False)
        feed_constant(study, "t0", 0.4, limit=9)
        assert study.rungs[0] == []
        feed_constant(study, "t1", 0.4, limit=10)
        assert study.rungs[0] == [0.4]

    def test_constant_loop(self):
        assert trimmed_mean([0.4] * 10, 0.2) == pytest.approx(0.4)

    def test_pooled_trimmed_mean(self):
        assert trimmed_mean([1, 2, 3, 4, 100], 0.2) == 3.0
        # pooled over every completed loop, not the last loop alone
        study = make_study(asha=AshaConfig(min_early_stopping_rate=1), threshold_enabled=False)
        metrics = [0.1 * (index % 7) + 0.01 * (index // 10) for index in range(30)]
        for index, metric in enumerate(metrics):
            outer, inner = divmod(index, 10)
            combined_decide(study, "t0", step(outer=outer, inner=inner, metric=metric))
        assert study.rungs[0] == [trimmed_mean(metrics, 0.2)]


class TestRungSurvivors:
    def test_keeps_best_third(self):
        table = {"a": 0.40, "b": 0.50, "c": 0.55}
        assert rung_survivors(table, MIN, 3) == {"a"}

    def test_singleton_survives(self):
        assert rung_survivors({"a": 0.9}, MIN, 3) == {"a"}

    def test_ties_with_cutoff_survive(self):
        table = {"a": 0.40, "b": 0.40, "c": 0.50}
        assert rung_survivors(table, MIN, 3) == {"a", "b"}

    def test_maximize_keeps_largest(self):
        table = {"a": 0.40, "b": 0.50, "c": 0.55}
        assert rung_survivors(table, MAX, 3) == {"c"}

    def test_empty_table(self):
        assert rung_survivors({}, MIN, 3) == set()

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40, unique=True),
        st.integers(min_value=2, max_value=6),
        st.sampled_from([MIN, MAX]),
    )
    def test_distinct_values_keep_exactly_the_quota(self, values, factor, direction):
        table = {f"t{i}": v for i, v in enumerate(values)}
        survivors = rung_survivors(table, direction, factor)
        assert survivors == brute_rung_survivors(table, direction, factor)
        assert len(survivors) == math.ceil(len(values) / factor)


class TestAshaRecordAndDecide:
    CFG = AshaConfig()

    def test_sole_trial_survives(self):
        ranked = []
        assert asha_record_and_decide(ranked, 0.4, MIN, self.CFG) == CONTINUE
        assert ranked == [0.4]

    def test_worse_arrival_pruned_with_value(self):
        ranked = []
        asha_record_and_decide(ranked, 0.40, MIN, self.CFG)
        decision = asha_record_and_decide(ranked, 0.50, MIN, self.CFG)
        assert decision.layer is PruneLayer.COMPARISON
        assert decision.reported_value == 0.50
        assert ranked == [0.40, 0.50]

    def test_bootstrap_defers_judgement(self):
        cfg = AshaConfig(bootstrap_count=3)
        ranked = []
        assert asha_record_and_decide(ranked, 0.40, MIN, cfg) == CONTINUE
        assert asha_record_and_decide(ranked, 0.50, MIN, cfg) == CONTINUE
        decision = asha_record_and_decide(ranked, 0.55, MIN, cfg)
        assert decision.layer is PruneLayer.COMPARISON


class TestReportedValueOnPrune:
    def test_singleton(self):
        assert reported_value_on_prune([0.5]) == 0.5

    def test_five_or_more_uses_trimmed_mean(self):
        assert reported_value_on_prune([1, 2, 3, 4, 100]) == 3.0

    def test_below_five_uses_median(self):
        assert reported_value_on_prune([0.6, 0.5, 0.7, 0.55]) == pytest.approx(0.575)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reported_value_on_prune([])


def make_study(outer=30, inner=10, **cfg_overrides):
    cfg = config(**cfg_overrides)
    return StudyState(shape=CvShape(outer_folds=outer, inner_folds=inner), config=cfg)


def feed_constant(study, trial_id, metric, features=10, limit=None):
    """Feed constant-metric steps until a prune or the grid ends."""
    shape = study.shape
    total = shape.total_steps if limit is None else limit
    for index in range(total):
        outer, inner = divmod(index, shape.inner_folds)
        decision = combined_decide(
            study,
            trial_id,
            step(trial=trial_id, outer=outer, inner=inner, metric=metric, features=features),
        )
        if decision.pruned:
            return decision, index + 1
    return decision, total


class TestCombinedDecide:
    def test_semantic_fires_on_first_step(self):
        study = make_study()
        decision = combined_decide(study, "t0", step(trial="t0", features=0))
        assert decision.layer is PruneLayer.SEMANTIC
        assert study.trials["t0"].steps_observed == 1

    def test_threshold_fires_at_window_start(self):
        study = make_study(threshold=0.3)
        decision, consumed = feed_constant(study, "t0", 0.9)
        assert decision.layer is PruneLayer.THRESHOLD
        assert consumed == 5  # max(4, ceil(10/2))
        assert decision.reported_value == pytest.approx(0.9)

    def test_clean_trial_completes(self):
        study = make_study(threshold=0.3)
        decision, consumed = feed_constant(study, "t0", 0.1)
        assert decision == CONTINUE
        assert consumed == 300
        state = study.trials["t0"]
        assert state.status.value == "completed"

    def test_pruned_trial_rejects_more_steps_but_keeps_decision(self):
        study = make_study(threshold=0.3)
        decision, consumed = feed_constant(study, "t0", 0.9)
        assert decision.pruned
        assert study.trials["t0"].decision == decision
        with pytest.raises(InvalidTrialStateError):
            combined_decide(study, "t0", step(trial="t0", outer=0, inner=consumed, metric=0.9))
        assert study.trials["t0"].decision == decision

    def test_out_of_order_step_rejected(self):
        study = make_study()
        combined_decide(study, "t0", step(trial="t0"))
        with pytest.raises(InvalidTrialStateError):
            combined_decide(study, "t0", step(trial="t0", outer=0, inner=5))

    def test_mismatched_trial_id_rejected(self):
        study = make_study()
        with pytest.raises(InvalidTrialStateError):
            combined_decide(study, "t0", step(trial="other"))

    @pytest.mark.parametrize(
        "trial_id, error, message",
        [
            (None, TypeError, "trial_id must be a str, got None"),
            (b"x", TypeError, "trial_id must be a str, got b'x'"),
            (7, TypeError, "trial_id must be a str, got 7"),
            ("", FormatError, "trial_id must be non-empty"),
        ],
        ids=["None", "bytes", "int", "empty"],
    )
    def test_trial_id_that_is_not_a_non_empty_str_refused(self, trial_id, error, message):
        # the rule TrialTrace holds; once these each made a trial of the study
        study = make_study(outer=2, inner=2)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            combined_decide(study, trial_id, StepRecord(trial_id, 0, 0, 0.4, 3))
        assert study.trials == {}
        assert not study.lock.locked()

    @pytest.mark.parametrize(
        "trial_id, first, message",
        [
            ("a", StepRecord("a", 0, 1, 0.3, 3),
             "trial 'a': expected step (outer, inner)=(0, 0), got (0, 1)"),
            ("a", StepRecord("a", 1, 0, 0.3, 3),
             "trial 'a': expected step (outer, inner)=(0, 0), got (1, 0)"),
            ("b", StepRecord("c", 0, 0, 0.3, 3), "step for trial 'c' reported under 'b'"),
        ],
        ids=["inner", "outer", "other-id"],
    )
    def test_refused_first_step_leaves_no_trial(self, trial_id, first, message):
        # once the refused step's trial stayed RUNNING, and run_trial then refused the id
        study = make_study(outer=2, inner=2)
        combined_decide(study, "x", StepRecord("x", 0, 0, 0.4, 3))
        before = dict(study.trials)
        with pytest.raises(InvalidTrialStateError, match=f"^{re.escape(message)}$"):
            combined_decide(study, trial_id, first)
        assert study.trials == before
        assert not study.lock.locked()
        outcome = run_trial(study, TrialTrace(trial_id, study.shape,
                                              metrics=[0.4] * 4, features=[3] * 4))
        assert outcome.models_trained == 4
        assert study.trials[trial_id].status is TrialStatus.COMPLETED

    def test_disabled_layers_are_skipped(self):
        study = make_study(
            threshold=0.3, semantic_enabled=False, threshold_enabled=False,
            comparison_enabled=False,
        )
        decision, consumed = feed_constant(study, "t0", 0.9, features=0)
        assert decision == CONTINUE
        assert consumed == study.shape.total_steps

    def test_threshold_window_closes_after_its_last_step(self):
        # 30x10 closes the window at 10 completed loops: step 99 is its last, step
        # 100 is past it. With no extrapolation the estimate is the median,
        # which turns worse than 0.45 at step 2 * good (midpoint 0.5).
        def run(good):
            study = make_study(
                threshold=0.45, extrapolation=ExtrapolationMethod.NO_EXTRAPOLATION,
                comparison_enabled=False,
            )
            assert study.threshold_window == (5, 10)
            for index in range(study.shape.total_steps):
                outer, inner = divmod(index, 10)
                metric = 0.1 if index < good else 0.9
                decision = combined_decide(
                    study, "t0", step(outer=outer, inner=inner, metric=metric)
                )
                if decision.pruned:
                    return decision, index + 1
            return decision, study.trials["t0"].steps_observed

        decision, consumed = run(good=50)  # median turns bad at step 100
        assert decision == CONTINUE and consumed == 300
        decision, consumed = run(good=49)  # one bad step earlier: at step 98
        assert decision.layer is PruneLayer.THRESHOLD and consumed == 98

    def test_comparison_fires_only_at_loop_boundaries(self):
        study = make_study(threshold=5.0)  # threshold never fires
        # best trial occupies rung 0 (resource 9 = step 90)
        feed_constant(study, "best", 0.1)
        decision, consumed = feed_constant(study, "worse", 0.5)
        assert decision.layer is PruneLayer.COMPARISON
        assert consumed == 90
        assert consumed % study.shape.inner_folds == 0

    def test_identical_trials_tie_and_survive(self):
        study = make_study(threshold=5.0)
        _, first = feed_constant(study, "a", 0.4)
        _, second = feed_constant(study, "b", 0.4)
        assert first == second == study.shape.total_steps


class TestStudyStateFields:
    """A study is made from a shape and a config only; its trials, rungs and lock are its own."""

    @pytest.mark.parametrize(
        "name, value",
        [("trials", {}), ("rungs", ([],)), ("lock", threading.Lock())],
    )
    def test_refuses_the_state_fields(self, name, value):
        shape = CvShape(outer_folds=30, inner_folds=10)
        with pytest.raises(TypeError, match=name):
            StudyState(shape=shape, config=config(), **{name: value})


class TestStudyLock:
    """``combined_decide`` gives ``study.lock`` back on every way out of a step."""

    def test_released_after_a_continue(self):
        study = make_study()
        assert combined_decide(study, "t0", step(trial="t0")) == CONTINUE
        assert not study.lock.locked()

    def test_released_after_each_kind_of_prune(self):
        study = make_study(threshold=0.3)
        decision = combined_decide(study, "s", step(trial="s", features=0))
        assert decision.layer is PruneLayer.SEMANTIC
        assert not study.lock.locked()
        assert feed_constant(study, "t", 0.9)[0].layer is PruneLayer.THRESHOLD
        assert not study.lock.locked()
        study = make_study(threshold=5.0)
        feed_constant(study, "best", 0.1)
        assert feed_constant(study, "worse", 0.5)[0].layer is PruneLayer.COMPARISON
        assert not study.lock.locked()

    def error_message(self, study, trial_id, new_step):
        with pytest.raises(InvalidTrialStateError) as raised:
            combined_decide(study, trial_id, new_step)
        assert not study.lock.locked()
        return str(raised.value)

    def test_released_after_a_step_for_an_ended_trial(self):
        study = make_study(threshold=0.3)
        feed_constant(study, "pruned", 0.9)
        assert self.error_message(study, "pruned", step(trial="pruned", outer=0, inner=5)) == (
            "trial 'pruned' is pruned; it cannot accept steps"
        )
        feed_constant(study, "done", 0.1)
        assert self.error_message(study, "done", step(trial="done", outer=30, inner=0)) == (
            "trial 'done' is completed; it cannot accept steps"
        )

    def test_released_after_a_foreign_step(self):
        assert self.error_message(make_study(), "t0", step(trial="other")) == (
            "step for trial 'other' reported under 't0'"
        )

    def test_released_after_an_out_of_order_step(self):
        study = make_study()
        feed_constant(study, "t0", 0.1, limit=13)
        assert self.error_message(study, "t0", step(trial="t0", outer=1, inner=4)) == (
            "trial 't0': expected step (outer, inner)=(1, 3), got (1, 4)"
        )
        assert self.error_message(study, "t0", step(trial="t0", outer=0, inner=3)) == (
            "trial 't0': expected step (outer, inner)=(1, 3), got (0, 3)"
        )
        assert combined_decide(study, "t0", step(trial="t0", outer=1, inner=3)) == CONTINUE


class TestRungPoints:
    TABLE_ASHA = AshaConfig(min_resource=1, reduction_factor=3, min_early_stopping_rate=2)

    def test_study_works_out_reachable_rungs(self):
        assert make_study(asha=self.TABLE_ASHA).rung_points == (9, 27)
        assert make_study(outer=8, asha=self.TABLE_ASHA).rung_points == ()
        assert make_study(asha=AshaConfig(min_early_stopping_rate=0)).rung_points == (1, 3, 9, 27)
        off = make_study(asha=self.TABLE_ASHA, comparison_enabled=False)
        assert off.rung_points == ()

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(
            AshaConfig,
            min_resource=st.integers(1, 6),
            reduction_factor=st.integers(2, 6),
            min_early_stopping_rate=st.integers(0, 5),
            bootstrap_count=st.integers(0, 4),
        ),
        st.integers(2, 300),
        st.integers(2, 6),
    )
    def test_schedule_is_every_reachable_rung_in_order(self, asha, outer, inner):
        points = make_study(outer=outer, inner=inner, asha=asha).rung_points
        due = [
            asha.min_resource * asha.reduction_factor ** (asha.min_early_stopping_rate + rung)
            for rung in range(len(points) + 1)
        ]
        assert points == tuple(due[:-1])
        assert all(a < b for a, b in zip(points, points[1:]))
        assert due[-1] > outer

    def test_rungs_past_the_grid_do_not_cap_the_schedule(self):
        # rung 1 is due at 2**63 loops, rung 0 at 9 * 10**19: neither can ever be reached
        halving_past_i64 = AshaConfig(min_early_stopping_rate=0, reduction_factor=2**63)
        assert make_study(asha=halving_past_i64).rung_points == (1,)
        assert make_study(asha=AshaConfig(min_resource=10**19)).rung_points == ()

    def test_huge_delay_exponent_builds_no_power(self):
        # 2 ** (10**9) already exceeds the grid; 3 ** (10**9) would take about an hour
        started = time.perf_counter()
        assert make_study(asha=AshaConfig(min_early_stopping_rate=10**9)).rung_points == ()
        assert time.perf_counter() - started < 1.0

    def test_study_works_out_threshold_window(self):
        study = make_study()
        assert study.threshold_window == (5, 10)
        assert make_study(inner=4).threshold_window[0] == 4

    def test_study_constants_cannot_go_stale(self):
        study = make_study()
        with pytest.raises(dataclasses.FrozenInstanceError):
            study.config = config(comparison_enabled=False)
        with pytest.raises(dataclasses.FrozenInstanceError):
            study.rung_points = ()

    def test_intermediate_value_computed_only_at_rungs(self, monkeypatch):
        original = pruners.trimmed_mean
        loops_at_call = []

        def counting(history, trim_fraction):
            loops_at_call.append(len(history) // 10)
            return original(history, trim_fraction)

        monkeypatch.setattr(pruners, "trimmed_mean", counting)
        study = make_study(
            asha=self.TABLE_ASHA, semantic_enabled=False, threshold_enabled=False
        )
        decision, consumed = feed_constant(study, "t0", 0.4)
        assert decision == CONTINUE and consumed == 300
        assert loops_at_call == [9, 27]
        assert study.rungs == ([0.4], [0.4])


class TestDirectionSymmetry:
    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_mirrored_studies_decide_identically(self, rng):
        outer, inner = 6, 4
        cfg_min = config(
            threshold=0.45,
            optimal_value=0.0,
            asha=AshaConfig(min_early_stopping_rate=1),  # rung 0 at 3 loops
        )
        cfg_max = PrunerConfig(
            direction=MAX,
            threshold=-0.45,
            optimal_value=-0.0,
            asha=cfg_min.asha,
        )
        study_min = StudyState(shape=CvShape(outer, inner), config=cfg_min)
        study_max = StudyState(shape=CvShape(outer, inner), config=cfg_max)
        for trial in range(5):
            tid = f"t{trial}"
            features = 0 if rng.random() < 0.2 else 5
            metrics = [rng.uniform(0.0, 1.2) for _ in range(outer * inner)]
            decision_min = decision_max = None
            for index, metric in enumerate(metrics):
                o, i = divmod(index, inner)
                decision_min = combined_decide(
                    study_min, tid,
                    step(trial=tid, outer=o, inner=i, metric=metric, features=features),
                )
                decision_max = combined_decide(
                    study_max, tid,
                    step(trial=tid, outer=o, inner=i, metric=-metric, features=features),
                )
                assert decision_min.layer == decision_max.layer
                if decision_min.reported_value is None:
                    assert decision_max.reported_value is None
                else:
                    assert decision_max.reported_value == -decision_min.reported_value
                if decision_min.pruned:
                    break


# ties at simple values, both zeros, and values finer than any before them
live_metrics = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 0.5, -1.5, 2.0, 0.1, 5e-324, -1e-310]),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


class TestLiveThresholdSteps:
    """``combined_decide`` step by step inside the threshold window, against the exact oracle.

    Every method is fed the same metrics in both directions. A lone trial
    never loses a rung, but each rung (at 1, 3 and 9 completed loops) reads
    ``trimmed_mean``, so the history is also summed between threshold steps; a
    window that opens after a rung folds many pending values in at once, after
    a read.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(live_metrics, min_size=1, max_size=36),
        st.sampled_from([2, 3]),
        st.integers(min_value=4, max_value=12),
        st.floats(min_value=-2.5, max_value=2.5),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    # one pending value per step, with threshold steps and rung means reading in turn
    @example([0.3, 0.7, 0.5, 0.9, 0.2, 0.6, 0.4, 0.8, 0.35, 0.65], 2, 4, 0.55, 0.0)
    # rungs at steps 2 and 6 read means; the window opens at 12: a bulk fold of 6 after a read
    @example([0.4, 0.9, 0.1, 0.7, 0.3, 0.8, 0.2, 0.6, 0.5, 0.45, 0.55, 0.35, 0.65, 0.3],
             2, 12, 0.5, 0.0)
    # values finer than the scale arrive after reads that summed: each refits the scale
    @example([0.5, 1.0, 0.25, 2.0, 0.75, 5e-324, 0.5, -1e-310, 0.3, 0.1], 2, 4, 0.6, -1.0)
    # ties at the median
    @example([0.5, 0.5, 0.5, 0.4, 0.5, 0.6, 0.5, 0.5, 0.4, 0.6, 0.5], 3, 4, 0.5, 0.5)
    # both zeros
    @example([0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 5e-324, -0.0, 0.0], 3, 4, 0.0, -0.0)
    def test_every_step_matches_the_oracle(self, metrics, inner, opens_at, threshold, optimal):
        shape = CvShape(outer_folds=20, inner_folds=inner)  # the window never closes here
        for direction in (MIN, MAX):
            for method in ExtrapolationMethod:
                study = StudyState(shape=shape, config=PrunerConfig(
                    direction=direction,
                    threshold=threshold,
                    extrapolation=method,
                    optimal_value=optimal,
                    min_threshold_steps=opens_at,
                    threshold_window_fraction=1.0,
                    asha=AshaConfig(min_early_stopping_rate=0),
                ))
                for index, metric in enumerate(metrics):
                    outer, inner_idx = divmod(index, inner)
                    decision = combined_decide(
                        study, "t0", step(outer=outer, inner=inner_idx, metric=metric)
                    )
                    seen = metrics[: index + 1]
                    expected = len(seen) >= opens_at and brute_threshold_prunes(
                        seen, -len(seen) % inner, direction, method, optimal, threshold
                    )
                    assert decision.pruned == expected, (direction, method, index)
                    if decision.pruned:
                        assert decision.layer is PruneLayer.THRESHOLD
                        if len(seen) >= 5:
                            assert decision.reported_value == float(exact_trimmed_mean(seen, 0.2))
                        else:
                            assert decision.reported_value == float(exact_median(seen))
                        break

