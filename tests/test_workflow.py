"""The CI workflow's determinism job runs here, and its tier-1 job's benchmark steps
pin the same layer counts as the tests and run every benchmark workload.

The determinism job holds the only copy of its digests, commands and variants,
so it is run as written: each ``run: |`` block under ``bash -e -c``, with the
running interpreter as ``python``. The tier-1 job's benchmark steps take
seconds and time themselves, so they run in CI alone; their layer counts and
workload list are checked against the tests and BENCHMARK.json as text. The
workflow is read as text: no YAML parser is needed or installed.
"""

import ast
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

from test_acceptance import CRITERION_1_LAYER_COUNTS

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def workflow_text() -> str:
    return WORKFLOW.read_text(encoding="utf-8")


def job_run_blocks(job: str) -> tuple[int, list[str]]:
    """The number of ``run:`` keys in ``job``, and the script of each ``run: |`` among them."""
    lines = workflow_text().splitlines()
    start = lines.index(f"  {job}:") + 1
    end = next((i for i in range(start, len(lines)) if re.match(r" {0,2}\S", lines[i])),
               len(lines))
    section = lines[start:end]
    keys = [i for i, line in enumerate(section) if re.match(r"\s*(- )?run:", line)]
    blocks = []
    for i in keys:
        key = re.match(r"(\s*(- )?)run: \|$", section[i])
        if key is None:
            continue
        body = []
        for line in section[i + 1:]:
            if line.strip() and len(line) - len(line.lstrip()) <= len(key.group(1)):
                break
            body.append(line)
        blocks.append(textwrap.dedent("\n".join(body)).strip("\n") + "\n")
    return len(keys), blocks


def test_determinism_job_runs_and_its_digests_hold(tmp_path):
    keys, blocks = job_run_blocks("determinism")
    assert keys >= 1 and len(blocks) == keys, f"{keys} run: keys, {len(blocks)} blocks taken out"
    assert all(block.strip() for block in blocks)
    for tool in ("bash", "sha256sum", "cmp"):
        assert shutil.which(tool) is not None, f"the determinism job needs {tool}"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    python = bin_dir / "python"
    python.write_text(f"#!/bin/sh\nexec {shlex.quote(sys.executable)} \"$@\"\n", encoding="utf-8")
    python.chmod(0o755)
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    for block in blocks:
        done = subprocess.run(["bash", "-e", "-c", block], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, f"{block}\n{done.stdout}\n{done.stderr}"


def test_reference_layer_counts_match_the_tests():
    step = re.search(r"- name: Trace reference and require its per-round layer counts"
                     r".*?\n\s*expected = (\{.*?\})\n", workflow_text(), re.DOTALL)
    assert step is not None
    assert ast.literal_eval(step.group(1)) == CRITERION_1_LAYER_COUNTS


def test_every_benchmark_workload_runs_once():
    step = re.search(r"- name: Run each benchmark workload once.*?\n\s*for workload in "
                     r"([^;\n]*); do", workflow_text(), re.DOTALL)
    assert step is not None
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert step.group(1).split() == [workload["name"] for workload in declared]
