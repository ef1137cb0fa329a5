"""The benchmark's smoke tasks, run in process and checked against its reference.

``perfbench/workloads.py`` is only imported: its tasks run through
``execute``, ``parse`` and ``compare`` as in a benchmark run, but no result
file is written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import magnon
import magnon.cli  # noqa: F401  (the tasks run the command line in process)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()
with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
    REFERENCE = json.load(fh)["entries"]


@pytest.mark.parametrize("workload", sorted(workloads.SMOKE))
def test_smoke_tasks_match_the_reference(workload):
    tasks = workloads.TaskSource(workload, 1, REFERENCE, smoke=True).cycle(0)
    assert tasks
    for task in tasks:
        parsed = workloads.parse(task, workloads.execute(task, magnon))
        workloads.compare(parsed, REFERENCE)
