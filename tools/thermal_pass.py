"""Replay the traces one benchmark task list leaves in the spectral memo, through two thermal passes.

Usage::

    python tools/thermal_pass.py PATH/TO/src WORKLOAD SEED

The task list is the one ``perfbench/run.py --workload WORKLOAD --seed SEED
--seconds 30 --trace 0`` draws, run in order in this one interpreter through
``workloads.execute``, with every memo filling as it does in the benchmark.
Each trace then held in ``magnon.fock._spectra_memo`` is replayed at every
inverse temperature of ``BETA_TILDES``, where whole sectors underflow at the
large ones, by two routes:

- ``fock.gibbs_expectation_truncated``, a memo hit: the package's thermal
  pass, with its checks and its memo lookup, summing over the whole trace;
- ``thermal_pass`` of ``tests/dense_oracles.py``, which weighs the trace's
  spectra one sector at a time, on the per-sector lists of
  ``dense_oracles.sector_spectra`` (built once per trace, outside the
  timing, by solving the sectors again).

Each comparison is the largest difference of the two ``(values, log_z)``
over its summation error bound (``dense_oracles.thermal_pass_error_ratio``:
``n eps sum_i b_i |d_ij| / z`` on a value, ``n eps`` on ``log Z``, ``n``
the trace length), which must be at most 1.  Each route is timed as the
median of ``REPEATS`` calls, summed over all comparisons.  One JSON line
gives the traces, the comparisons, the largest ratio, the comparisons over
1, both times and the reference's time over the package's; the exit status
is 1 if any comparison is over 1.  The ``perfbench/`` and ``tests/`` next
to this script are only imported.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BETA_TILDES = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 100.0, 1e3, 1e4, 1e5)
REPEATS = 21


def _median_seconds(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3 or not (Path(argv[0]) / "magnon" / "__init__.py").is_file():
        sys.exit("usage: thermal_pass.py PATH/TO/src WORKLOAD SEED")
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "tests"))
    import dense_oracles
    import magnon
    import magnon.cli  # noqa: F401  (not imported by the package itself)
    import workloads

    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["entries"]
    for task in workloads.TaskSource(argv[1], int(argv[2]), reference).tasks(30.0):
        workloads.execute(task, magnon)

    fock = magnon.fock
    traces = list(fock._spectra_memo)  # a hit reorders the memo
    comparisons = over = 0
    worst = 0.0
    reference_s = package_s = 0.0
    for spec, n_max, top, hamiltonian, observables in traces:
        spectra = dense_oracles.sector_spectra(spec, n_max, top, hamiltonian, observables)
        for bt in BETA_TILDES:
            def package(bt=bt):
                return fock.gibbs_expectation_truncated(
                    spec, n_max, bt, observables, hamiltonian=hamiltonian, max_total=top
                )

            def oracle(bt=bt):
                return dense_oracles.thermal_pass(spectra, bt)

            comparisons += 1
            ratio = dense_oracles.thermal_pass_error_ratio(spectra, bt, package(), oracle())
            worst, over = max(worst, ratio), over + (ratio > 1.0)
            package_s += _median_seconds(package)
            reference_s += _median_seconds(oracle)
    print(json.dumps({
        "workload": argv[1],
        "seed": int(argv[2]),
        "traces": len(traces),
        "comparisons": comparisons,
        "worst_error_over_bound": worst,
        "over_bound": over,
        "reference_s": reference_s,
        "package_s": package_s,
        "reference_over_package": reference_s / package_s,
    }))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
