"""Repeated-study benchmark harness comparing pruner variants on identical cohorts.

Every repetition draws one fresh cohort and replays it under every variant,
so differences between variants are purely due to pruning behavior. Costs are
counted in trained models. Reports capture, per variant: model totals with
their spread over repetitions, per-layer prune counts, threshold prunes that
were wrong relative to ground truth (with the largest error margin per
repetition), and whether the ground-truth best trial survived.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from types import NoneType
from typing import get_args, get_origin, get_type_hints

from .engine import TrialOutcome, full_objective, run_study
from .errors import FormatError, accepts, check_fields, not_utf8
from .metrics import Direction
from .pruners import PruneLayer, PrunerConfig, TrialStatus
from .trace import TraceGenConfig, TrialTrace, generate_cohort, read_traces

REPORT_SCHEMA = "nestedprune-bench-report/v1"


@dataclass(frozen=True)
class FalsePruneRecord:
    """A threshold prune whose trial would actually have beaten the threshold."""

    rep: int
    trial_id: str
    full_objective: float
    threshold: float
    margin: float

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class RepStats:
    """One variant's results on one repetition's cohort."""

    rep: int
    models_trained: int
    semantic_prunes: int
    threshold_prunes: int
    comparison_prunes: int
    completed: int
    falsely_pruned: int
    max_margin: float | None
    best_preserved: bool

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class VariantReport:
    name: str
    models_trained_total: int
    models_trained_stddev: float
    semantic_prunes: int
    threshold_prunes: int
    comparison_prunes: int
    completed: int
    falsely_pruned_total: int
    best_preserved_all: bool
    percent_models_saved_vs_baseline: float
    per_rep: tuple[RepStats, ...]
    false_prunes: tuple[FalsePruneRecord, ...]

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class BenchReport:
    baseline: str
    repetitions: int
    trials_per_rep: int
    direction: str
    outer_folds: int
    inner_folds: int
    variants: tuple[VariantReport, ...]

    def __post_init__(self) -> None:
        check_fields(self)


REPETITIONS = 30  # of a generated source, unless told otherwise


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark setup: variants to compare and where cohorts come from.

    ``source`` decides the other three fields, which store what it decides; a value given
    anyway must agree. A ``TraceGenConfig`` gives ``trials`` trials per repetition, seed
    ``seed + r`` for repetition ``r``, and ``REPETITIONS`` repetitions unless told otherwise.
    Recorded traces are one cohort, so one repetition, and leave the other two None.
    """

    variants: Mapping[str, PrunerConfig]
    baseline: str
    source: TraceGenConfig | str | Path
    repetitions: int | None = None
    trials_per_rep: int | None = None
    base_seed: int | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.variants:
            raise ValueError("at least one pruner variant is required")
        if self.baseline not in self.variants:
            raise ValueError(f"baseline {self.baseline!r} is not among the variants")
        directions = {config.direction for config in self.variants.values()}
        if len(directions) != 1:
            raise ValueError("all variants must share one optimization direction")
        if isinstance(self.source, TraceGenConfig):
            if self.source.direction not in directions:
                raise ValueError("cohort generation direction must match the variants")
            repetitions = REPETITIONS if self.repetitions is None else self.repetitions
            if repetitions < 1:
                raise ValueError("repetitions must be >= 1")
            decided = {"trials_per_rep": self.source.trials, "base_seed": self.source.seed}
        else:
            if self.repetitions not in (None, 1):
                raise ValueError(f"recorded traces are one cohort; repetitions must be 1, not "
                                 f"{self.repetitions}")
            repetitions, decided = 1, {"trials_per_rep": None, "base_seed": None}
        object.__setattr__(self, "repetitions", repetitions)
        for name, value in decided.items():
            if getattr(self, name) not in (None, value):
                raise ValueError(f"the source gives {name}={value}, not {getattr(self, name)}")
            object.__setattr__(self, name, value)


def classify_false_prunes(
    outcomes: Sequence[TrialOutcome],
    objectives: Mapping[str, float],
    config: PrunerConfig,
    rep: int = 0,
) -> list[FalsePruneRecord]:
    """Threshold-pruned trials whose full-run objective beat the threshold.

    ``objectives`` maps each trial id to its ``full_objective`` under
    ``config.trim_fraction``. Only the threshold layer is judged against its
    own threshold; comparison prunes have no such reference and are assessed
    via best-trial preservation instead.
    """
    if config.threshold is None:
        return []
    records = []
    for outcome in outcomes:
        if outcome.pruned_layer is not PruneLayer.THRESHOLD:
            continue
        objective = objectives[outcome.trial_id]
        if config.direction.is_worse(config.threshold, objective):
            records.append(
                FalsePruneRecord(
                    rep=rep,
                    trial_id=outcome.trial_id,
                    full_objective=objective,
                    threshold=config.threshold,
                    margin=abs(objective - config.threshold),
                )
            )
    return records


def _objectives(
    cohort: Sequence[TrialTrace], trim_fractions: set[float]
) -> dict[float, dict[str, float]]:
    """Each trial's ``full_objective`` under each trim fraction, by trial id."""
    return {
        trim: {trace.trial_id: full_objective(trace, trim) for trace in cohort}
        for trim in trim_fractions
    }


def compare_pruners(config: BenchConfig) -> BenchReport:
    """Run every variant over every repetition's cohort and aggregate.

    Each cohort's ground truth is scored once per distinct trim fraction;
    every variant reads it from there.
    """
    trims = {variant.trim_fraction for variant in config.variants.values()}
    if isinstance(config.source, TraceGenConfig):
        source = config.source
        trials_per_rep, shape = source.trials, source.shape
        cohorts = (
            generate_cohort(replace(source, seed=source.seed + rep))
            for rep in range(config.repetitions)
        )
    else:
        recorded = read_traces(config.source)
        trials_per_rep, shape = len(recorded), recorded[0].shape
        cohorts = [recorded]

    per_variant: dict[str, list[RepStats]] = {name: [] for name in config.variants}
    false_prunes: dict[str, list[FalsePruneRecord]] = {name: [] for name in config.variants}

    for rep, cohort in enumerate(cohorts):
        objectives_by_trim = _objectives(cohort, trims)
        for name, variant in config.variants.items():
            study = run_study(cohort, variant)
            objectives = objectives_by_trim[variant.trim_fraction]
            records = classify_false_prunes(study.outcomes, objectives, variant, rep=rep)
            false_prunes[name].extend(records)
            pick = min if variant.direction is Direction.MINIMIZE else max
            best_id = pick(objectives, key=objectives.__getitem__)
            best_outcome = next(o for o in study.outcomes if o.trial_id == best_id)
            per_variant[name].append(
                RepStats(
                    rep=rep,
                    models_trained=study.models_trained_total,
                    semantic_prunes=study.semantic_prunes,
                    threshold_prunes=study.threshold_prunes,
                    comparison_prunes=study.comparison_prunes,
                    completed=study.completed,
                    falsely_pruned=len(records),
                    max_margin=max((r.margin for r in records), default=None),
                    best_preserved=best_outcome.status is TrialStatus.COMPLETED,
                )
            )

    baseline_total = sum(r.models_trained for r in per_variant[config.baseline])
    variant_reports = []
    for name in config.variants:
        reps = per_variant[name]
        models = [r.models_trained for r in reps]
        total = sum(models)
        variant_reports.append(
            VariantReport(
                name=name,
                models_trained_total=total,
                models_trained_stddev=statistics.stdev(models) if len(models) > 1 else 0.0,
                semantic_prunes=sum(r.semantic_prunes for r in reps),
                threshold_prunes=sum(r.threshold_prunes for r in reps),
                comparison_prunes=sum(r.comparison_prunes for r in reps),
                completed=sum(r.completed for r in reps),
                falsely_pruned_total=sum(r.falsely_pruned for r in reps),
                best_preserved_all=all(r.best_preserved for r in reps),
                percent_models_saved_vs_baseline=100.0 * (1.0 - total / baseline_total),
                per_rep=tuple(reps),
                false_prunes=tuple(false_prunes[name]),
            )
        )

    direction = next(iter(config.variants.values())).direction
    return BenchReport(
        baseline=config.baseline,
        repetitions=config.repetitions,
        trials_per_rep=trials_per_rep,
        direction=direction.value,
        outer_folds=shape.outer_folds,
        inner_folds=shape.inner_folds,
        variants=tuple(variant_reports),
    )


def report_to_json(report: BenchReport) -> str:
    return json.dumps({"schema": REPORT_SCHEMA, **asdict(report)}, indent=2) + "\n"


_DETAIL_FIELDS = tuple(f.name for f in fields(RepStats))
_SUMMARY_FIELDS = tuple(
    name for name, hint in get_type_hints(VariantReport).items()
    if name != "name" and get_origin(hint) is not tuple
)


def _cell(value) -> str:
    """How a CSV cell spells a report value: floats round-trip, booleans as in JSON."""
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else str(value)


def report_to_csv(report: BenchReport) -> str:
    """Detail rows (one per variant and repetition) followed by a summary block."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("variant",) + _DETAIL_FIELDS)
    for v in report.variants:
        for r in v.per_rep:
            writer.writerow([v.name] + [_cell(getattr(r, name)) for name in _DETAIL_FIELDS])
    writer.writerow([])
    writer.writerow(("variant",) + _SUMMARY_FIELDS)
    for v in report.variants:
        writer.writerow([v.name] + [_cell(getattr(v, name)) for name in _SUMMARY_FIELDS])
    return buffer.getvalue()


def emit_report(report: BenchReport, format: str, path) -> None:
    """Serialize a finalized report. Two emissions of one report are byte-identical."""
    if format == "json":
        text = report_to_json(report)
    elif format == "csv":
        text = report_to_csv(report)
    else:
        raise ValueError(f"unknown report format {format!r} (expected 'json' or 'csv')")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def from_json(hint, value, where: str):
    """Rebuild a value of type ``hint`` from parsed JSON found at key path ``where``.

    The one decoder of reports and variants files. A dataclass comes from an
    object keyed by its init fields (an unknown key is refused, a missing one
    takes its default), an enum from its value spelling, ``tuple[X, ...]`` from
    an array; any other value is checked by ``accepts``, the constructors' type
    rule. Every refusal, a constructor's ``ValueError`` too, is a ``FormatError``
    leading with ``where``.
    """
    at = f"{where}: " if where else ""
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise FormatError(f"{at}expected an object, got {type(value).__name__}")
        hints = get_type_hints(hint)
        unknown = sorted(value.keys() - hints.keys())
        if unknown:
            raise FormatError(f"{at}unknown key {unknown[0]!r}")
        prefix = f"{where}." if where else ""
        kwargs = {}
        for f in fields(hint):
            if f.name in value:
                kwargs[f.name] = from_json(hints[f.name], value[f.name], prefix + f.name)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise FormatError(f"missing field {prefix}{f.name}")
        try:
            return hint(**kwargs)
        except ValueError as exc:
            raise FormatError(f"{at}{exc}") from None
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise FormatError(f"{at}expected an array, got {type(value).__name__}")
        item = get_args(hint)[0]
        return tuple(from_json(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    # after the tuple test: on 3.10 a generic alias is also an instance of type
    if isinstance(hint, type) and issubclass(hint, Enum):
        spellings = [member.value for member in hint]
        if value not in spellings:
            raise FormatError(f"{at}expected one of {spellings}, got {value!r}")
        return hint(value)
    if accepts(hint, value):
        return value
    expected = " or ".join(arg.__name__ for arg in get_args(hint) or (hint,) if arg is not NoneType)
    raise FormatError(f"{at}expected {expected}, got {type(value).__name__}")


def read_json(path):
    """Parse a JSON file; a failure is a ``FormatError`` naming it and, if it can, the line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    except json.JSONDecodeError as exc:
        raise FormatError(exc.msg, path=path, line=exc.lineno) from None
    except RecursionError:
        raise FormatError("arrays or objects nested too deeply", path=path) from None
    except OSError as exc:
        raise FormatError(f"cannot read: {exc.strerror or exc}", path=path) from None


def load_report(path) -> BenchReport:
    """Parse a JSON report back into a structurally equal ``BenchReport``.

    Every field is required and no other key is allowed but the legacy top-level
    ``workers``; a refusal is a ``FormatError`` naming the file and the key path.
    """
    data = read_json(path)
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != REPORT_SCHEMA:
        raise FormatError(f"report {path}: unsupported report schema {schema!r}")
    body = {key: value for key, value in data.items() if key not in ("schema", "workers")}
    try:
        return from_json(BenchReport, body, "")
    except FormatError as exc:
        raise FormatError(f"malformed report {path}: {exc}") from None
