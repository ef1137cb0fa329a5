"""Regenerate ``reference.json``: the output of every candidate task.

Runs each candidate input of every workload slot once, keeps the numbers of
the tasks the program accepts (exit code 0 and every invariant holds) and
lists the refused ones with the reason.  The benchmark draws its tasks only
from accepted inputs and checks each output against the stored numbers.

    python3 perfbench/make_reference.py

It runs one worker process per CPU.

Run it only when the set of candidates changes; a stored reference is the
yardstick later versions of the program are checked against.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _evaluate(task):
    magnon = run._import_magnon()
    t0 = time.perf_counter()
    try:
        parsed = workloads.parse(task, workloads.execute(task, magnon))
        return task, parsed, None, time.perf_counter() - t0
    except Exception as exc:  # recorded as a refused input
        return task, None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0


def main() -> int:
    tasks = workloads.all_candidates()
    entries, refused = {}, {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool() as pool:
        for i, (task, parsed, error, dt) in enumerate(pool.imap_unordered(_evaluate, tasks)):
            key = workloads.task_key(task)
            if error is None:
                entries.update(parsed)
            else:
                refused[key] = error
            print(f"[{i + 1}/{len(tasks)}] {dt:7.2f}s {'ok ' if error is None else 'REF'} {key}",
                  flush=True)
    doc = {
        "rtol": workloads.RTOL,
        "atol": workloads.ATOL,
        "entries": dict(sorted(entries.items())),
        "refused": dict(sorted(refused.items())),
    }
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(entries)} reference entries, {len(refused)} refused inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
