"""The CI workflow pins the same bytes and layer counts as the tier-1 tests, and runs
every benchmark workload.

The workflow's determinism job cannot run offline, so a digest or a count
re-pinned in a test and not in the workflow (or the other way round) would
otherwise go unseen, as would a workload of BENCHMARK.json that CI never runs. The workflow
is read as text: no YAML parser is needed or installed.
"""

import ast
import json
import re
from pathlib import Path

from test_acceptance import CRITERION_1_LAYER_COUNTS
from test_cli import (
    GENERATED_ARGS,
    GENERATED_REPORT_SHA256,
    REPLAY_ARGS,
    REPLAY_STDOUT_SHA256,
    TRACES_REPORT_CSV_SHA256,
    TRACES_REPORT_JSON_SHA256,
    VARIANTS,
)
from test_trace import CRITERION_1_COHORT_SHA256

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def workflow_text() -> str:
    return WORKFLOW.read_text(encoding="utf-8")


def test_determinism_digests_match_the_tests():
    block = re.search(r"sha256sum --check --strict - <<'EOF'\n(.*?)\n\s*EOF\n", workflow_text(),
                      re.DOTALL)
    assert block is not None
    pinned = dict(reversed(line.split()) for line in block.group(1).splitlines())
    assert pinned == {
        "cohort.csv": CRITERION_1_COHORT_SHA256,
        "report.json": TRACES_REPORT_JSON_SHA256,
        "report.csv": TRACES_REPORT_CSV_SHA256,
        "replay.txt": REPLAY_STDOUT_SHA256,
        "generated.json": GENERATED_REPORT_SHA256,
    }


def test_determinism_replay_arguments_match_the_tests():
    replay = re.search(r"nestedprune.cli replay --traces \"\$out/cohort.csv\" ([^>]*)"
                       r"> \"\$out/replay.txt\"", workflow_text())
    assert replay is not None
    assert [arg for arg in replay.group(1).split() if arg != "\\"] == REPLAY_ARGS


def test_determinism_generated_arguments_match_the_tests():
    bench = re.search(r"nestedprune.cli bench ([^\"]*)--variants \"\$out/variants.json\" "
                      r"--baseline asha --out \"\$out/generated.json\"", workflow_text())
    assert bench is not None
    assert [arg for arg in bench.group(1).split() if arg != "\\"] == GENERATED_ARGS


def test_reference_layer_counts_match_the_tests():
    step = re.search(r"- name: Trace reference and require its per-round layer counts"
                     r".*?\n\s*expected = (\{.*?\})\n", workflow_text(), re.DOTALL)
    assert step is not None
    assert ast.literal_eval(step.group(1)) == CRITERION_1_LAYER_COUNTS


def test_determinism_variants_match_the_tests():
    written = re.search(r"printf '%s' '([^']*)' \\\n\s*> \"\$out/variants.json\"", workflow_text())
    assert written is not None
    assert json.loads(written.group(1)) == VARIANTS


def test_every_benchmark_workload_runs_once():
    step = re.search(r"- name: Run each benchmark workload once.*?\n\s*for workload in "
                     r"([^;\n]*); do", workflow_text(), re.DOTALL)
    assert step is not None
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert step.group(1).split() == [workload["name"] for workload in declared]
