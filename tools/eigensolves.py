"""Count the dense eigensolves and sector bases of one benchmark task list, per task kind.

Usage::

    python tools/eigensolves.py PATH/TO/src WORKLOAD SEED [SECONDS]

The task list is the one ``perfbench/run.py --workload WORKLOAD --seed SEED
--seconds SECONDS --trace 0`` draws (``SECONDS`` defaults to 30), run in
order in this one interpreter through ``workloads.execute``, with every memo
filling as it does in the benchmark.  ``magnon.linalg.eigh`` and ``eigvalsh``
are wrapped to count their calls and the sum of ``n^3`` over the matrices
they solve.  ``magnon.fock.SectorBasis`` and ``magnon.fock._hop_table`` are
wrapped to count the sector bases built, those of them that rebuild a
``(spec, n_max, n_total)`` built earlier in the list, and the hop tables
built, one per ``_hop_table`` call (each ``SectorBasis`` and ``FockBasis``
builds its own as it is constructed).  One JSON line is printed per task
kind (the subcommand, or the ``wick`` function of an API task), then one
with the totals.  Then one line per memo (``MEMOS``), as it stands after
the task list: its entries, the floats it holds and its
``cap``, and over the list the most floats it held, the reads through
``get`` that found an entry (hits) and that did not (misses), its stores,
the stores it refused (an entry over ``cap``) and the entries it dropped to
make room.  The ``perfbench/`` next to this script is only imported.
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVERS = ("eigh", "eigvalsh")
MEMOS = ("fock._sector_memo", "fock._spectra_memo", "fock._eigensystem_memo", "diagrams._tori")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (3, 4) or not (Path(argv[0]) / "magnon" / "__init__.py").is_file():
        sys.exit("usage: eigensolves.py PATH/TO/src WORKLOAD SEED [SECONDS]")
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import magnon
    import magnon.cli  # noqa: F401  (not imported by the package itself)
    import workloads

    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["entries"]
    seconds = float(argv[3]) if len(argv) == 4 else 30.0
    tasks = workloads.TaskSource(argv[1], int(argv[2]), reference).tasks(seconds)

    counts = collections.defaultdict(collections.Counter)
    kind = None
    for name in SOLVERS:
        solve = getattr(magnon.linalg, name)

        def counting(m, _solve=solve, _name=name):
            counts[kind][f"{_name}_calls"] += 1
            counts[kind][f"{_name}_n3_sum"] += m.shape[0] ** 3
            return _solve(m)

        setattr(magnon.linalg, name, counting)

    init, hop_table = magnon.fock.SectorBasis.__init__, magnon.fock._hop_table
    built = set()

    def counting_init(self, *args):
        counts[kind]["sector_bases"] += 1
        counts[kind]["sector_rebuilds"] += args in built
        built.add(args)
        init(self, *args)

    def counting_hops(basis):
        counts[kind]["hop_tables"] += 1
        return hop_table(basis)

    magnon.fock.SectorBasis.__init__ = counting_init
    magnon.fock._hop_table = counting_hops

    memos = {}
    for name in MEMOS:
        module, attr = name.split(".")
        memos[name] = getattr(getattr(magnon, module), attr)
    names = {id(memo): name for name, memo in memos.items()}
    traffic = collections.defaultdict(collections.Counter)
    get, put = magnon.lattice._Memo.get, magnon.lattice._Memo.put

    def counting_get(self, key):
        value = get(self, key)
        if id(self) in names:
            traffic[names[id(self)]]["misses" if value is None else "hits"] += 1
        return value

    def counting_put(self, key, value, floats):
        before = set(self)
        put(self, key, value, floats)
        if id(self) in names:
            seen = traffic[names[id(self)]]
            seen["stores"] += 1
            seen["refused"] += floats > self.cap
            seen["evicted"] += len(before - set(self))
            seen["peak_floats"] = max(seen["peak_floats"], self.floats)

    magnon.lattice._Memo.get, magnon.lattice._Memo.put = counting_get, counting_put

    for task in tasks:
        kind = task["argv"][0] if task["kind"] == "cli" else f"wick.{task['fn']}"
        counts[kind]["tasks"] += 1
        workloads.execute(task, magnon)

    fields = ["tasks"] + [f"{s}_{c}" for s in SOLVERS for c in ("calls", "n3_sum")]
    fields += ["sector_bases", "sector_rebuilds", "hop_tables"]
    total = collections.Counter()
    for kind in sorted(counts):
        total.update(counts[kind])
        print(json.dumps({"kind": kind, **{f: counts[kind][f] for f in fields}}))
    print(json.dumps({"kind": "all", **{f: total[f] for f in fields}}))
    for name, memo in memos.items():
        seen = traffic[name]
        print(json.dumps({
            "memo": name, "entries": len(memo), "floats": memo.floats, "cap": memo.cap,
            **{f: seen[f] for f in ("peak_floats", "hits", "misses", "stores", "refused",
                                    "evicted")},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
