"""Command line entry point: cohort generation, replay, benchmarking, report conversion."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import get_type_hints

from .bench import (REPETITIONS, BenchConfig, compare_pruners, emit_report, from_json,
                    load_report, read_json)
from .engine import CvShape, StudyReport, run_study
from .errors import FormatError
from .metrics import Direction, ExtrapolationMethod
from .pruners import AshaConfig, PrunerConfig
from .trace import TraceGenConfig, generate_cohort, read_traces, write_traces

_DIRECTIONS = {"min": Direction.MINIMIZE, "max": Direction.MAXIMIZE}
_BENCH_TRIALS, _BENCH_BASE_SEED = 40, 0  # bench's generated cohort when the flag is omitted

_PRUNER_PRESETS = {
    # preset -> (semantic, threshold, comparison)
    "none": (False, False, False),
    "asha": (False, False, True),
    "semantic": (True, False, False),
    "threshold": (False, True, False),
    "three-layer": (True, True, True),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _SubcommandParser(_Parser):
    """A subcommand's parser: it rejects arguments it does not know, with its own usage.

    Left to argparse, they would be gathered and reported by the top-level
    parser, whose usage line does not show the subcommand's flags.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _default(cls, name: str):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


# the float fields of TraceGenConfig, each set by a flag of the same name
_GEN_FIELDS = tuple(
    name for name, hint in get_type_hints(TraceGenConfig).items() if hint is float
)

_FIELD_HELP = {
    "base_min": "best per-trial base metric",
    "base_max": "worst per-trial base metric",
    "noise_sd": "per-step Gaussian noise",
    "outlier_prob": "per-step outlier probability",
    "outlier_magnitude": "outlier spike size",
    "zero_feature_prob": "probability a trial selects no features",
    "min_resource": "completed inner loops at the first rung unit",
    "reduction_factor": "fraction kept per rung is 1/factor",
    "min_early_stopping_rate": "rung-0 delay exponent",
    "bootstrap_count": "values required at a rung before it may prune",
}


def _flag(dest: str) -> str:
    return "--outlier-mag" if dest == "outlier_magnitude" else "--" + dest.replace("_", "-")


def _add_gen_flags(parser: argparse.ArgumentParser) -> None:
    # default None tells a given flag from an omitted one, which keeps the
    # TraceGenConfig default
    for name in _GEN_FIELDS:
        parser.add_argument(_flag(name), dest=name, type=float, default=None,
                            help=f"{_FIELD_HELP[name]} (default {_default(TraceGenConfig, name)})")


def _add_asha_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(AshaConfig):
        parser.add_argument(_flag(f.name), type=type(f.default), default=f.default,
                            help=f"{_FIELD_HELP[f.name]} (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="nestedprune",
                     description="Trial pruning and benchmarking over nested-CV metric traces.")
    sub = parser.add_subparsers(dest="command", required=True,
                               parser_class=_SubcommandParser)

    gen = sub.add_parser("gen", help="generate a synthetic cohort trace file")
    gen.add_argument("--trials", type=int, required=True, help="number of trials")
    gen.add_argument("--outer", type=int, required=True, help="outer folds")
    gen.add_argument("--inner", type=int, required=True, help="inner folds")
    gen.add_argument("--seed", type=int, required=True, help="generator seed")
    gen.add_argument("--out", required=True, help="output trace CSV path")
    _add_gen_flags(gen)

    replay = sub.add_parser("replay", help="replay recorded traces through a pruner")
    replay.add_argument("--traces", required=True, help="trace CSV file or directory")
    replay.add_argument("--pruner", required=True, choices=sorted(_PRUNER_PRESETS),
                        help="which layers are active")
    replay.add_argument("--direction", choices=sorted(_DIRECTIONS), default="min",
                        help="optimization direction (default %(default)s)")
    replay.add_argument("--threshold", type=float, default=None,
                        help="minimum acceptable metric (required by threshold/three-layer)")
    replay.add_argument("--extrapolation",
                        choices=[m.value for m in ExtrapolationMethod],
                        default=_default(PrunerConfig, "extrapolation").value,
                        help="threshold-layer completion estimate (default %(default)s)")
    replay.add_argument("--optimal", type=float, default=_default(PrunerConfig, "optimal_value"),
                        help="ideal metric value for 'optimal' extrapolation "
                             "(default %(default)s)")
    replay.add_argument("--trim", type=float, default=_default(PrunerConfig, "trim_fraction"),
                        help="trim fraction for smoothed values (default %(default)s)")
    replay.add_argument("--window-fraction", type=float,
                        default=_default(PrunerConfig, "threshold_window_fraction"),
                        help="outer-fold fraction where the threshold layer is active "
                             "(default 1/3)")
    _add_asha_flags(replay)

    bench = sub.add_parser("bench", help="compare pruner variants over repeated studies")
    bench.add_argument("--reps", type=int, default=None,
                       help=f"repetitions (default {REPETITIONS}; with --traces, only 1)")
    bench.add_argument("--trials", type=int, default=None,
                       help=f"trials per repetition (default {_BENCH_TRIALS})")
    bench.add_argument("--outer", type=int, default=None, help="outer folds (generated cohorts)")
    bench.add_argument("--inner", type=int, default=None, help="inner folds (generated cohorts)")
    bench.add_argument("--base-seed", type=int, default=None,
                       help=f"repetition r uses seed base+r (default {_BENCH_BASE_SEED})")
    bench.add_argument("--direction", choices=sorted(_DIRECTIONS), default="min",
                       help="optimization direction (default %(default)s)")
    bench.add_argument("--traces", default=None,
                       help="replay this recorded cohort instead of generating")
    _add_gen_flags(bench)
    bench.add_argument("--variants", required=True,
                       help="JSON file mapping variant names to pruner settings")
    bench.add_argument("--baseline", required=True,
                       help="variant name percent-saved is measured against")
    bench.add_argument("--out", required=True, help="output report JSON path")
    bench.add_argument("--require-best-preserved", action="store_true",
                       help="exit 2 if any repetition pruned the ground-truth best trial")

    report = sub.add_parser("report", help="convert a bench report between formats")
    report.add_argument("--in", dest="input", required=True, help="report JSON path")
    report.add_argument("--format", required=True, choices=["json", "csv"],
                        help="output format")
    report.add_argument("--out", required=True, help="output path")

    return parser


def _trace_gen_config(args, **settings) -> TraceGenConfig:
    """Cohort generation settings from ``--outer``/``--inner`` and the generation flags."""
    for name in _GEN_FIELDS:
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    return TraceGenConfig(shape=CvShape(outer_folds=args.outer, inner_folds=args.inner),
                          **settings)


def _cmd_gen(args) -> int:
    config = _trace_gen_config(args, trials=args.trials, seed=args.seed)
    cohort = generate_cohort(config)
    write_traces(cohort, args.out)
    shape = config.shape
    print(f"wrote {len(cohort)} trials ({shape.outer_folds}x{shape.inner_folds} grid) "
          f"to {args.out}")
    return 0


def _pruner_config_from_args(args) -> PrunerConfig:
    semantic, threshold_layer, comparison = _PRUNER_PRESETS[args.pruner]
    if threshold_layer and args.threshold is None:
        raise ValueError(f"--threshold is required with --pruner {args.pruner}")
    return PrunerConfig(
        direction=_DIRECTIONS[args.direction],
        threshold=args.threshold,
        extrapolation=ExtrapolationMethod(args.extrapolation),
        optimal_value=args.optimal,
        trim_fraction=args.trim,
        threshold_window_fraction=args.window_fraction,
        asha=AshaConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(AshaConfig)}),
        semantic_enabled=semantic,
        threshold_enabled=threshold_layer,
        comparison_enabled=comparison,
    )


def _print_study(report: StudyReport) -> None:
    width = max([len("trial")] + [len(o.trial_id) for o in report.outcomes])
    print(f"{'trial':<{width}}  {'status':<9}  {'layer':<10}  {'models':>6}  reported")
    for o in report.outcomes:
        layer = o.pruned_layer.value if o.pruned_layer else "-"
        reported = format(o.reported_value, ".6g") if o.reported_value is not None else "-"
        print(f"{o.trial_id:<{width}}  {o.status.value:<9}  {layer:<10}  "
              f"{o.models_trained:>6}  {reported}")
    print(
        f"totals: trials={len(report.outcomes)} models={report.models_trained_total} "
        f"semantic={report.semantic_prunes} threshold={report.threshold_prunes} "
        f"comparison={report.comparison_prunes} completed={report.completed}"
    )
    if report.best_trial_id is not None:
        print(f"best: {report.best_trial_id} reported={format(report.best_value, '.6g')}")


def _cmd_replay(args) -> int:
    config = _pruner_config_from_args(args)
    cohort = read_traces(args.traces)
    report = run_study(cohort, config)
    _print_study(report)
    return 0


def _load_variants(path: str, default_direction: Direction) -> dict[str, PrunerConfig]:
    """The pruner variants of a variants file, each decoded by ``from_json`` as a report is.

    A variant without ``direction`` takes ``default_direction``. A refusal names
    the file, the variant and the dotted key path.
    """
    data = read_json(path)
    if not isinstance(data, dict) or not data:
        raise FormatError(f"variants file {path} must be a non-empty JSON object")
    variants = {}
    for name, variant in data.items():
        if isinstance(variant, dict):
            variant = {"direction": default_direction.value, **variant}
        try:
            variants[name] = from_json(PrunerConfig, variant, "")
        except FormatError as exc:
            raise FormatError(f"variants file {path}: variant {name!r}: {exc}") from None
    return variants


def _cmd_bench(args) -> int:
    direction = _DIRECTIONS[args.direction]
    variants = _load_variants(args.variants, direction)
    if args.traces is not None:
        for dest in ("trials", "outer", "inner", "base_seed") + _GEN_FIELDS:
            if getattr(args, dest) is not None:
                raise ValueError(f"{_flag(dest)} applies to generated cohorts only, "
                                 "not with --traces")
        if args.reps not in (None, 1):
            raise ValueError(f"--reps must be 1 with --traces, not {args.reps}")
        source = args.traces
    else:
        if args.outer is None or args.inner is None:
            raise ValueError("--outer and --inner are required unless --traces is given")
        # checked here, as the library's messages name the field, not the flag
        for flag, value in (("--reps", args.reps), ("--trials", args.trials)):
            if value is not None and value < 1:
                raise ValueError(f"{flag} must be >= 1, not {value}")
        trials = _BENCH_TRIALS if args.trials is None else args.trials
        base_seed = _BENCH_BASE_SEED if args.base_seed is None else args.base_seed
        source = _trace_gen_config(args, trials=trials, seed=base_seed, direction=direction)
    config = BenchConfig(
        variants=variants, baseline=args.baseline, source=source, repetitions=args.reps
    )
    report = compare_pruners(config)
    emit_report(report, "json", args.out)

    width = max(len("variant"), max(len(v.name) for v in report.variants))
    print(f"{'variant':<{width}}  {'models':>8}  {'saved%':>7}  {'false':>5}  best_preserved")
    for v in report.variants:
        print(f"{v.name:<{width}}  {v.models_trained_total:>8}  "
              f"{v.percent_models_saved_vs_baseline:>7.1f}  {v.falsely_pruned_total:>5}  "
              f"{str(v.best_preserved_all).lower()}")
    print(f"report written to {args.out}")

    if args.require_best_preserved:
        failing = [v.name for v in report.variants if not v.best_preserved_all]
        if failing:
            print(f"error: best trial was pruned under: {', '.join(failing)}", file=sys.stderr)
            return 2
    return 0


def _cmd_report(args) -> int:
    report = load_report(args.input)
    emit_report(report, args.format, args.out)
    print(f"wrote {args.format} report to {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "replay": _cmd_replay,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
