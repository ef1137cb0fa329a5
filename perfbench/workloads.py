"""Workloads of the magnon benchmark: seeded task lists, execution, checks.

A workload is a *cycle* of slots.  A slot fixes every input that sets the
cost of a task (subcommand, dimension, box side, scan length, Fock
cutoffs); the seed draws the inputs that leave the cost unchanged
(temperature, spin, which temperatures a scan visits) from the slot's
candidates.  Every run therefore executes the same size mix, so runs with
different seeds are comparable, while the physics inputs still vary.

The candidates of a slot are the inputs for which ``reference.json`` holds
an output: ``make_reference.py`` enumerated each slot's grid once and kept
the inputs the program accepts.  The same file is the correctness oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re

RTOL = 1e-9
ATOL = 1e-13

BT_GRID = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
SCAN_BT_GRID = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def _api(fn: str, d: int, ell: int, two_s: int, beta_tilde: float, n_max: int) -> dict:
    return {
        "kind": "api",
        "fn": fn,
        "args": {"d": d, "ell": ell, "two_s": two_s, "beta_tilde": beta_tilde, "n_max": n_max},
    }


def task_key(task: dict) -> str:
    if task["kind"] == "cli":
        return " ".join(task["argv"])
    a = task["args"]
    return (
        f"wick.{task['fn']} d={a['d']} ell={a['ell']} two_s={a['two_s']} "
        f"beta_tilde={a['beta_tilde']} n_max={a['n_max']}"
    )


# ---------------------------------------------------------------------------
# slots: (repeat, candidates).  Candidates of one slot share their cost.


def _ed_exact(d, ell, two_s):
    return [
        _cli("ed-compare", "--mode", "exact", "--d", d, "--ell", ell, "--two-s", two_s,
             "--beta-tilde", bt)
        for bt in BT_GRID
    ]


def _analytic(d, ell):
    return [
        _cli("free-energy", "--mode", "analytic", "--d", d, "--ell", ell, "--two-s", ts,
             "--beta-tilde", bt)
        for ts in range(1, 9)
        for bt in BT_GRID
    ]


def _asymptotic(d):
    return [
        _cli("free-energy", "--d", d, "--two-s", ts, "--beta-tilde", bt)
        for ts in range(1, 9)
        for bt in BT_GRID
    ]


def _correction(d, ell):
    return [
        _cli("correction", "--d", d, "--ell", ell, "--two-s", ts, "--beta-tilde", bt)
        for ts in range(1, 9)
        for bt in BT_GRID
    ]


def _wick_verify(d, ell, cutoffs):
    return [
        _cli("wick-verify", "--d", d, "--ell", ell, "--two-s", ts, "--beta-tilde", bt,
             "--cutoffs", cutoffs)
        for ts in range(1, 5)
        for bt in BT_GRID
    ]


def _check(fn, d, ell, n_max, two_s_values=range(1, 5)):
    return [_api(fn, d, ell, ts, bt, n_max) for ts in two_s_values for bt in BT_GRID]


def _remainder_check(d, ell, n_max):
    # The check assembles the expansion on the (2S+1)^sites basis, so 2S
    # sets its cost: fixed here, only the temperature is drawn.
    return _check("remainder_check", d, ell, n_max, two_s_values=(2,))


def _scan(ell, n_temps):
    """A diagram scan: the seed draws its temperatures from ``SCAN_BT_GRID``."""
    return {"scan": ell, "n_temps": n_temps}


# Each workload: (slots run once per run, slots run every cycle).  The
# repeat counts put the median and the tail rank (the 11th largest task time
# of a 30-second run) inside groups of tasks of similar cost, so that these
# order statistics do not jump between size classes from run to run.  Where a
# workload has a heavy class, it runs at least 11 such tasks, so the tail
# falls among them rather than in the median's group.
WORKLOADS = {
    # Dense Fock assembly + one dense eigh per Gibbs functional + spin ED.
    # Spin dimensions 16..2048: matrices from 2 KB to 32 MB.  The median
    # falls among the 512-dimensional boxes, the tail among the 1024 ones.
    "box-exact": (
        [],
        [
            (2, _ed_exact(2, 2, 1)),
            (2, _ed_exact(2, 2, 2)),
            (2, _ed_exact(2, 2, 3)),
            (2, _ed_exact(1, 6, 1)),
            (2, _ed_exact(1, 4, 2)),
            (10, _ed_exact(2, 3, 1)),
            (1, _ed_exact(1, 6, 2)),
            (12, _ed_exact(1, 10, 1)),
            (1, _ed_exact(1, 11, 1)),
        ],
    ),
    # Wick bond moments, two-point tables and quadrature; no eigh.
    "box-analytic": (
        [],
        [
            (1, _correction(2, 16)),
            (1, _asymptotic(2)),
            (1, _analytic(2, 8)),
            (1, _correction(3, 8)),
            (1, _analytic(3, 4)),
            (1, _analytic(2, 16)),
            (2, _analytic(3, 6)),
            (2, _asymptotic(3)),
            (2, _analytic(2, 20)),
            (1, _analytic(2, 24)),
            (1, _analytic(3, 8)),
            (1, _analytic(3, 10)),
        ],
    ),
    # The only workload that reaches the torus diagrams.  Scan lengths 1..6
    # separate per-k1 costs from costs shared across temperatures.  The
    # median falls among the ell=5 scans, the tail among the ell=6 ones.
    "diagram-scan": (
        [],
        [
            (20, _scan(5, 1)),
            (1, _scan(5, 2)),
            (1, _scan(5, 6)),
            (11, _scan(6, 1)),
            (1, _scan(7, 1)),
        ],
    ),
    # Brute-force oracles: many mid-size sector blocks, small dense checks.
    "oracle-checks": (
        [(1, [_cli("verify")])],
        [
            (1, _wick_verify(2, 2, "6,8,10")),
            (1, _wick_verify(2, 2, "4,6,8")),
            (1, _wick_verify(1, 4, "4,6,8")),
            (3, _wick_verify(1, 3, "6,8,10")),
            (2, _wick_verify(1, 3, "4,6,8")),
            (1, _check("cross_term_check", 2, 2, 5)),
            (2, _remainder_check(2, 2, 5)),
            (1, _check("cross_term_check", 1, 4, 4)),
            (1, _remainder_check(1, 4, 4)),
            (2, _check("cross_term_check", 1, 3, 6)),
            (2, _remainder_check(1, 3, 6)),
        ],
    ),
}

# Nominal seconds per cycle on a 2-core x86 machine (cycle 0 of
# ``oracle-checks`` adds about 1 s for ``verify``).  A run executes the number
# of whole cycles whose nominal time is closest to ``--seconds`` (at least
# one): the work of a run is fixed by its arguments, never by how fast the
# machine happens to be.
CYCLE_SECONDS = {
    "box-exact": 27.5,
    "box-analytic": 10.0,
    "diagram-scan": 33.0,
    "oracle-checks": 8.0,
}

# Seconds-long versions of every workload: the cheapest slots of each.
SMOKE = {
    "box-exact": ([], [(1, _ed_exact(1, 6, 1)), (1, _ed_exact(2, 2, 2))]),
    "box-analytic": (
        [],
        [(1, _analytic(2, 8)), (1, _asymptotic(2)), (1, _correction(2, 16))],
    ),
    "diagram-scan": ([], [(1, _scan(5, 1)), (1, _scan(5, 2))]),
    "oracle-checks": (
        [],
        [
            (1, _wick_verify(1, 3, "4,6,8")),
            (1, _check("cross_term_check", 1, 3, 6)),
            (1, _remainder_check(1, 3, 6)),
        ],
    ),
}


def scan_row_key(ell: int, beta_tilde: float) -> str:
    return f"diagrams --ell {ell} --beta-tilde {beta_tilde}"


def all_candidates():
    """Every task whose output ``make_reference.py`` records, deduplicated.

    The smoke slots are a subset of these.
    """
    seen = {}
    for once, cyc in WORKLOADS.values():
        for _, cands in once + cyc:
            if isinstance(cands, dict):
                ell = cands["scan"]
                task = _cli("diagrams", "--ell", ell, "--beta-tilde",
                            ",".join(str(b) for b in SCAN_BT_GRID), "--format", "json")
                seen[task_key(task)] = task
            else:
                for task in cands:
                    seen[task_key(task)] = task
    return list(seen.values())


class TaskSource:
    """Seeded, replayable stream of tasks for one workload.

    ``cycle(i)`` returns the tasks of cycle ``i``; cycle 0 also holds the
    run-once slots.  Draws depend only on the seed and the reference table.
    """

    def __init__(self, workload: str, seed: int, reference: dict, smoke: bool = False):
        table = SMOKE if smoke else WORKLOADS
        if workload not in table:
            raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(table)}")
        self.once, self.slots = table[workload]
        self.cycle_seconds = CYCLE_SECONDS[workload]
        self.rng = random.Random(seed)
        self.reference = reference
        self.decks = {}

    def _accepted(self, cands):
        ok = [t for t in cands if task_key(t) in self.reference]
        if not ok:
            raise SystemExit(f"no reference output for any candidate of {task_key(cands[0])}")
        return ok

    def _temperatures(self, ell: int, n: int):
        """``n`` distinct scan temperatures, dealt from a shuffled deck per ``ell``.

        Dealing without replacement gives every temperature the same share
        of the scans at one ``ell``; the cost of a scan depends on them.
        """
        deck = self.decks.setdefault(ell, [])
        picked, skipped = [], []
        while len(picked) < n:
            if not deck:
                deck.extend(self.rng.sample(SCAN_BT_GRID, len(SCAN_BT_GRID)))
            bt = deck.pop()
            (skipped if bt in picked else picked).append(bt)
        deck.extend(skipped)
        return sorted(picked)

    def _draw(self, cands):
        if isinstance(cands, dict):
            bts = self._temperatures(cands["scan"], cands["n_temps"])
            return _cli("diagrams", "--ell", cands["scan"], "--beta-tilde",
                        ",".join(str(b) for b in bts), "--format", "json")
        return self.rng.choice(self._accepted(cands))

    def tasks(self, seconds: float):
        """The whole cycles whose nominal time is closest to ``seconds`` (at least one)."""
        n_cycles = max(1, round(seconds / self.cycle_seconds))
        return [t for i in range(n_cycles) for t in self.cycle(i)]

    def cycle(self, index: int):
        """The tasks of cycle ``index``, in a fixed shuffled order.

        Shuffling spreads each size class over the cycle, so that a slow
        phase of a shared machine, which lasts seconds, slows a share of
        every class rather than the whole of one.  The order does not depend
        on the seed, because the peak memory depends on the order in which
        the tasks allocate.
        """
        slots = (self.once if index == 0 else []) + self.slots
        tasks = [self._draw(cands) for repeat, cands in slots for _ in range(repeat)]
        random.Random(index).shuffle(tasks)
        return tasks


# ---------------------------------------------------------------------------
# execution


def execute(task: dict, magnon):
    """Run one task in-process and return its raw outcome.

    CLI tasks go through ``magnon.cli.main`` with stdout/stderr captured;
    API tasks call the public oracle in ``magnon.wick``.  Module attributes
    are looked up at call time, so a tracer that wrapped them sees the call.
    """
    if task["kind"] == "api":
        a = task["args"]
        spec = magnon.lattice.LatticeSpec(a["d"], a["ell"], magnon.lattice.Boundary.DIRICHLET)
        fn = getattr(magnon.wick, task["fn"])
        lhs, rhs = fn(spec, a["two_s"], a["beta_tilde"], a["n_max"])
        return {"rc": 0, "values": (float(lhs), float(rhs))}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = magnon.cli.main(list(task["argv"]))
        except SystemExit as exc:  # argparse refusal
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


class CheckError(Exception):
    """A task output failed an invariant or could not be parsed."""


def _require(cond: bool, what: str):
    if not cond:
        raise CheckError(what)


_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\S+)\s.*worst=(\S+) tol=(\S+)$")


def parse(task: dict, outcome: dict):
    """Numbers of one task output, keyed by reference key, after invariants.

    Returns ``{ref_key: {field: float}}``.  Raises ``CheckError`` when the
    task was refused or an invariant that needs no reference fails.
    """
    _require(outcome["rc"] == 0, f"exit code {outcome['rc']}: {outcome.get('stderr', '')[:200]}")
    if task["kind"] == "api":
        lhs, rhs = outcome["values"]
        _require(lhs <= rhs, f"oracle lhs {lhs!r} exceeds bound {rhs!r}")
        return {task_key(task): {"lhs": lhs, "rhs": rhs}}
    cmd = task["argv"][0]
    key = task_key(task)
    if cmd == "verify":
        nums = {}
        for line in outcome["stdout"].splitlines():
            m = _VERIFY_LINE.match(line)
            if m:
                _require(m.group(1) == "PASS", f"verify check {m.group(2)} failed")
                nums[f"worst.{m.group(2)}"] = float(m.group(3))
        _require(len(nums) == 7, f"verify printed {len(nums)} of 7 checks")
        return {key: nums}
    doc = json.loads(outcome["stdout"])
    if cmd == "ed-compare":
        _require(doc["all_ok"] is True, "ed-compare reports a negative margin")
        nums = {}
        for i, row in enumerate(doc["rows"]):
            _require(row["exact_free_energy"] <= row["upper_bound"] + 1e-10,
                     "ED free energy above the bound")
            for f in ("exact_free_energy", "upper_bound", "margin"):
                nums[f"{i}.{f}"] = row[f]
        return {key: nums}
    if cmd == "free-energy":
        nums = {}
        for i, rep in enumerate(doc["reports"]):
            comps = rep["error_terms"]["components"]
            _require(rep["correction"] <= 0.0, "correction is positive")
            _require(all(v >= 0.0 for v in comps.values()), "negative budget entry")
            total = rep["leading"] + rep["correction"] + sum(comps.values())
            _require(abs(total - rep["total_upper_bound"])
                     <= 1e-9 * max(1.0, abs(rep["total_upper_bound"])),
                     "total != leading + correction + budget")
            for f in ("leading", "correction", "total_upper_bound"):
                nums[f"{i}.{f}"] = rep[f]
            for name, v in comps.items():
                nums[f"{i}.budget.{name}"] = v
        return {key: nums}
    if cmd == "correction":
        nums = {}
        for i, row in enumerate(doc["rows"]):
            for f in ("lattice", "bulk", "continuum"):
                if row[f] is not None:
                    nums[f"{i}.{f}"] = row[f]
            for f in ("bulk", "continuum"):
                _require(row[f] is None or row[f] <= 0.0, f"{f} correction is positive")
        return {key: nums}
    if cmd == "wick-verify":
        _require(doc["all_ok"] is True, "wick-verify routes disagree")
        vals = doc["values"]
        nums = {f: vals[f] for f in ("position", "mode_space", "monomials")}
        nums.update({f"fock.{c}": v for c, v in vals["fock"].items()})
        return {key: nums}
    if cmd == "diagrams":
        _require(doc["k3_residual_max"] < 1e-9, "k3 identity residual too large")
        ell = int(task["argv"][task["argv"].index("--ell") + 1])
        out = {}
        for row in doc["rows"]:
            out[scan_row_key(ell, row["beta_tilde"])] = {
                f: row[f] for f in sorted(row) if f != "beta_tilde"
            }
        return out
    raise CheckError(f"no parser for {cmd!r}")


def compare(parsed: dict, reference: dict):
    """Raise ``CheckError`` unless every reference number is matched.

    Fields an output adds beyond the reference are not checked.
    """
    for key, nums in parsed.items():
        ref = reference.get(key)
        _require(ref is not None, f"no reference for {key}")
        missing = sorted(set(ref) - set(nums))
        _require(not missing, f"{key}: output lacks {missing}")
        for f, r in ref.items():
            v = nums[f]
            _require(abs(v - r) <= max(RTOL * abs(r), ATOL),
                     f"{key}: {f} = {v!r}, reference {r!r}")
