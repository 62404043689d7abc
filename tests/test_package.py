"""The package as a whole: the names its root exports, what importing it loads, and
what re-importing it leaves alive.

The import tests run a fresh interpreter, so the modules this test process has
loaded already do not hide what the package itself loads.
"""

import subprocess
import sys
from pathlib import Path

import nestedprune

SRC = str(Path(__file__).resolve().parents[1] / "src")

# modules new after the import, by top-level name, that are neither the package
# nor the standard library; what `site` loaded before the import is not counted
STDLIB_ONLY = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import nestedprune, nestedprune.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names)))
"""

# re-imports the package as perfbench/run.py does between rounds; each round
# builds a config and a study, runs `bench` on a small generated cohort and
# loads its report back, then the PrunerConfig and BenchReport classes still
# alive are counted
REIMPORTS = """
import contextlib, gc, importlib, io, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
with tempfile.TemporaryDirectory() as tmp:
    variants, report = Path(tmp, "variants.json"), Path(tmp, "report.json")
    variants.write_text(json.dumps({"a": {"threshold": 0.5}}), encoding="utf-8")
    for _ in range(10):
        for name in [n for n in sys.modules if n.split(".")[0] == "nestedprune"]:
            del sys.modules[name]
        package = importlib.import_module("nestedprune")
        config = package.PrunerConfig(direction=package.Direction.MINIMIZE, threshold=0.5)
        package.BenchConfig({"a": config}, "a", "x.csv", repetitions=1)
        package.StudyState(shape=package.CvShape(outer_folds=6, inner_folds=4), config=config)
        cli = importlib.import_module("nestedprune.cli")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["bench", "--reps", "1", "--trials", "3", "--outer", "4",
                               "--inner", "2", "--variants", str(variants),
                               "--baseline", "a", "--out", str(report)])
        assert status == 0
        package.load_report(report)
gc.collect()
live = [o.__name__ for o in gc.get_objects() if isinstance(o, type)]
print(live.count("PrunerConfig"), live.count("BenchReport"))
"""


def run_script(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script, SRC],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


def test_runtime_is_stdlib_only():
    assert run_script(STDLIB_ONLY) == "['nestedprune']"


def test_reimports_keep_no_old_package_alive():
    # a typing generic in a hint get_type_hints evaluates lands in typing's
    # module-level cache, which then keeps each imported copy alive
    assert run_script(REIMPORTS) == "1 1"


# the public surface; a name leaves or joins it only by editing this list
PUBLIC_NAMES = [
    "AshaConfig", "BenchConfig", "BenchReport", "CvShape", "Decision", "Direction",
    "ExtrapolationMethod", "FalsePruneRecord", "FormatError", "InvalidTrialStateError",
    "MetricHistory", "PruneLayer", "PrunerConfig", "RepStats", "StepRecord", "StudyReport",
    "StudyState", "TraceGenConfig", "TrialOutcome", "TrialStatus", "TrialTrace",
    "VariantReport", "asha_record_and_decide", "classify_false_prunes", "combined_decide",
    "compare_pruners", "emit_report", "full_objective", "generate_cohort", "load_report",
    "median", "read_traces", "run_study", "semantic_decide", "threshold_decide",
    "trimmed_mean", "write_traces",
]


def test_root_exports_exactly_the_public_names():
    assert sorted(nestedprune.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(nestedprune, name) is not None, name
