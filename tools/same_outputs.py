"""Run every benchmark candidate task against one ``src/`` and print what it gave.

Usage::

    python tools/same_outputs.py PATH/TO/src > outputs.jsonl

The tasks are ``perfbench.workloads.all_candidates()``, run in order, in this
one interpreter, the way the benchmark runs them (``workloads.execute``).
Each line holds one task: its key, its exit code, the SHA-256 of its stdout
and stderr, and the values an API task returned (or the exception a task
raised).  Two checkouts give the same file exactly when every task gave the
same bytes, so ``cmp`` of the two files is the byte-identity check of a
refactor.  The task list always comes from the ``perfbench/`` next to this
script, which is only imported.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not (Path(argv[0]) / "magnon" / "__init__.py").is_file():
        sys.exit("usage: same_outputs.py PATH/TO/src (a directory holding magnon/)")
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import magnon
    import magnon.cli  # noqa: F401  (not imported by the package itself)
    import workloads

    for task in workloads.all_candidates():
        line = {"key": workloads.task_key(task)}
        try:
            outcome = workloads.execute(task, magnon)
        except Exception as exc:  # a refusal of an API task is an output too
            line["raised"] = f"{type(exc).__name__}: {exc}"
        else:
            line["rc"] = outcome["rc"]
            if "values" in outcome:
                line["values"] = list(outcome["values"])
            else:
                line["stdout"] = _digest(outcome["stdout"])
                line["stderr"] = _digest(outcome["stderr"])
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
