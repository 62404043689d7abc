"""The one type rule of the config and report fields, generated from their type hints.

Every field of the five configs and the four report dataclasses is swapped, one
at a time, for values of a wrong type; ``bench.from_json`` is held to the same
rule through ``accepts``.
"""

import dataclasses
import math
from collections.abc import Mapping
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest

from nestedprune import (
    AshaConfig,
    BenchConfig,
    BenchReport,
    CvShape,
    Direction,
    ExtrapolationMethod,
    FalsePruneRecord,
    FormatError,
    PrunerConfig,
    RepStats,
    TraceGenConfig,
    VariantReport,
)
from nestedprune.bench import from_json
from nestedprune.errors import accepts

MIN = Direction.MINIMIZE
SHAPE = CvShape(outer_folds=6, inner_folds=4)
PRUNER = PrunerConfig(direction=MIN, threshold=0.5)

FALSE_PRUNE = FalsePruneRecord(rep=0, trial_id="t", full_objective=0.4, threshold=0.5,
                               margin=0.1)
REP = RepStats(rep=0, models_trained=10, semantic_prunes=0, threshold_prunes=1,
               comparison_prunes=0, completed=1, falsely_pruned=1, max_margin=0.1,
               best_preserved=True)
VARIANT = VariantReport(
    name="v", models_trained_total=10, models_trained_stddev=0.0, semantic_prunes=0,
    threshold_prunes=1, comparison_prunes=0, completed=1, falsely_pruned_total=1,
    best_preserved_all=True, percent_models_saved_vs_baseline=0.0, per_rep=(REP,),
    false_prunes=(FALSE_PRUNE,),
)

# the keyword arguments of one valid instance of each config and report dataclass
VALID = {
    CvShape: dict(outer_folds=6, inner_folds=4),
    AshaConfig: dict(),
    PrunerConfig: dict(direction=MIN, threshold=0.5),
    TraceGenConfig: dict(trials=2, shape=SHAPE, seed=1),
    BenchConfig: dict(
        variants={"a": PRUNER},
        baseline="a",
        source=TraceGenConfig(trials=2, shape=SHAPE, seed=1),
    ),
    FalsePruneRecord: dataclasses.asdict(FALSE_PRUNE),
    RepStats: dataclasses.asdict(REP),
    VariantReport: {field.name: getattr(VARIANT, field.name)
                    for field in dataclasses.fields(VariantReport)},
    BenchReport: dict(baseline="v", repetitions=1, trials_per_rep=2, direction="minimize",
                      outer_folds=6, inner_folds=4, variants=(VARIANT,)),
}

# values of a wrong type, by hint: a str, a float or a bool for an int, a
# spelling for an enum, a dict for a nested config, a wrong key or value or
# no mapping at all for a mapping
WRONG = {
    int: ["3", 1.5, 2.0, True],
    int | None: ["3", 1.5, 2.0, True],
    float: ["0.5", True],
    float | None: ["0.5", True],
    bool: ["no", 1],
    str: [1, None],
    Direction: ["minimize", "x"],
    ExtrapolationMethod: ["mean-dev"],
    CvShape: [{"outer_folds": 6, "inner_folds": 4}, (6, 4), "x"],
    AshaConfig: [{}, "x"],
    TraceGenConfig | str | Path: [3, {}, None],
    Mapping[str, PrunerConfig]: [{"a": 3}, {1: PRUNER}, "a", [("a", PRUNER)]],
    # a list, as JSON spells an array; an item of the wrong class; one item bare
    tuple[RepStats, ...]: [[REP], (REP, FALSE_PRUNE), REP],
    tuple[FalsePruneRecord, ...]: [[FALSE_PRUNE], (REP,), FALSE_PRUNE],
    tuple[VariantReport, ...]: [[VARIANT], (dataclasses.asdict(VARIANT),), None],
}

FIELDS = [
    (cls, name, hint) for cls in VALID for name, hint in get_type_hints(cls).items()
]
FLOAT_FIELDS = [(cls, name) for cls, name, hint in FIELDS if hint in (float, float | None)]
INT_FIELDS = [(cls, name) for cls, name, hint in FIELDS if hint in (int, int | None)]


def field_id(case) -> str:
    return f"{case[0].__name__}.{case[1]}"


def build(cls, **overrides):
    return cls(**{**VALID[cls], **overrides})


def test_every_field_has_wrong_values():
    # a field with a new kind of hint must say here what is wrong for it
    assert {hint for _, _, hint in FIELDS} <= set(WRONG)


@pytest.mark.parametrize(
    "cls, name, value",
    [(cls, name, value) for cls, name, hint in FIELDS for value in WRONG.get(hint, ())],
    ids=lambda x: x.__name__ if isinstance(x, type) else repr(x),
)
def test_wrong_type_names_the_field(cls, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be "):
        build(cls, **{name: value})


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=map(field_id, FLOAT_FIELDS))
def test_int_fits_every_float_field(cls, name):
    # a field's own range may refuse one of the two, never both
    built = []
    for value in (0, 1):
        try:
            built.append(getattr(build(cls, **{name: value}), name))
        except ValueError as exc:
            assert "must be a" not in str(exc)
    assert built and all(type(value) is int for value in built)


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=map(field_id, FLOAT_FIELDS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_names_the_field(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        build(cls, **{name: value})


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=map(field_id, FLOAT_FIELDS))
@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["positive", "negative"])
def test_int_too_large_for_a_float_names_the_field(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an int a float can hold, got one "
                                         "of 1329 bits$"):
        build(cls, **{name: value})


@pytest.mark.parametrize("cls, name", INT_FIELDS, ids=map(field_id, INT_FIELDS))
def test_int_field_takes_any_int(cls, name):
    # a field's own range, or its agreement with another field, may refuse it
    try:
        built = build(cls, **{name: 10**400})
    except ValueError as exc:
        assert "float" not in str(exc)
    else:
        assert getattr(built, name) == 10**400


@pytest.mark.parametrize(
    "cls, overrides, error, name",
    [
        # each was once accepted; the comment says what it then did
        # the threshold window opened at the first step >= 4.5
        (PrunerConfig, dict(min_threshold_steps=4.5), TypeError, "min_threshold_steps"),
        # the semantic layer stayed on
        (PrunerConfig, dict(semantic_enabled="no"), TypeError, "semantic_enabled"),
        # the threshold was 1
        (PrunerConfig, dict(threshold=True), TypeError, "threshold"),
        # run_study died with AttributeError
        (PrunerConfig, dict(asha={}), TypeError, "asha"),
        # a disabled layer's threshold went unchecked
        (PrunerConfig, dict(threshold=math.nan, threshold_enabled=False), ValueError, "threshold"),
        # total_steps was 300.0
        (CvShape, dict(outer_folds=30.0, inner_folds=10), TypeError, "outer_folds"),
        # a cohort was generated
        (TraceGenConfig, dict(seed=1.5), TypeError, "seed"),
        (TraceGenConfig, dict(seed="x"), TypeError, "seed"),
        (TraceGenConfig, dict(shape=(6, 4)), TypeError, "shape"),
        # these died later, in range
        (TraceGenConfig, dict(trials=2.5), TypeError, "trials"),
        (BenchConfig, dict(repetitions=2.0), TypeError, "repetitions"),
        # the report said trials_per_rep: true
        (BenchConfig, dict(trials_per_rep=True), TypeError, "trials_per_rep"),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else None,
)
def test_refused_at_construction(cls, overrides, error, name):
    with pytest.raises(error, match=f"^{name} must be "):
        build(cls, **overrides)


@pytest.mark.parametrize(
    "hint, value, expected",
    [
        (float, 1, True),
        (float, True, False),
        (int, 1.0, False),
        (int, False, False),
        (bool, False, True),
        (float | None, None, True),
        (float, None, False),
        (TraceGenConfig | str | Path, Path("t.csv"), True),
        (Direction, MIN, True),
        (Mapping[str, PrunerConfig], {"a": PRUNER}, True),
        (Mapping[str, PrunerConfig], {}, True),
        (Mapping[str, PrunerConfig], 3, False),
        (tuple[int, ...], (1, 2), True),
        (tuple[int, ...], (), True),
        (tuple[int, ...], [1, 2], False),
        (tuple[int, ...], (1, True), False),
        (tuple[float | None, ...], (0.5, 1, None), True),
    ],
)
def test_accepts(hint, value, expected):
    assert accepts(hint, value) is expected


def _leaf_hints(cls) -> set:
    """The hints of a report's values that are neither dataclasses nor arrays."""
    leaves = set()
    for hint in get_type_hints(cls).values():
        if get_origin(hint) is tuple:
            (hint, _) = get_args(hint)
        if dataclasses.is_dataclass(hint):
            leaves |= _leaf_hints(hint)
        else:
            leaves.add(hint)
    return leaves


REPORT_LEAVES = _leaf_hints(BenchReport)
JSON_VALUES = [0, -3, 2**70, 0.5, -0.0, math.inf, True, False, None, "", "x", [], [1], {}]


def test_report_leaf_hints():
    assert REPORT_LEAVES == {int, float, str, bool, float | None}


@pytest.mark.parametrize("hint", sorted(REPORT_LEAVES, key=repr), ids=repr)
@pytest.mark.parametrize("value", JSON_VALUES, ids=repr)
def test_from_json_refuses_exactly_what_accepts_refuses(hint, value):
    if accepts(hint, value):
        assert from_json(hint, value, "field") is value
    else:
        with pytest.raises(FormatError, match="^field: expected "):
            from_json(hint, value, "field")
