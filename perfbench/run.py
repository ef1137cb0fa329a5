"""Closed-loop benchmark of the magnon package.

One client, one process: each task starts when the previous one finished.
The tasks of a run come from a seeded generator (see ``workloads.py``); the
library only sees the generated inputs.  Every output is parsed, checked
against invariants and against ``reference.json``.

    python3 perfbench/run.py --workload box-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
cycles for half of ``--seconds`` untraced, then replays the same tasks with
every public magnon function wrapped (``tracer.py``) and reports the
per-layer metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 7


def _import_magnon():
    if not (SRC / "magnon" / "__init__.py").is_file():
        sys.exit(f"perfbench: no magnon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import magnon
    import magnon.cli  # noqa: F401  (not imported by the package itself)

    return magnon


def _load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def _load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "magnon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# running tasks


class Pass:
    """Outcome of running a sequence of tasks once."""

    def __init__(self):
        self.tasks, self.times, self.outputs, self.errors = [], [], [], []
        self.wall = 0.0
        self.cpu = 0.0

    def failures(self):
        return [(t, e) for t, e in zip(self.tasks, self.errors) if e is not None]


def _run_one(task, call, magnon, reference, workloads, out: Pass):
    t0 = time.perf_counter()
    try:
        outcome = call(task, magnon)
        error = None
    except Exception as exc:  # a raising task is a failed task; keep running
        outcome, error = None, f"raised {type(exc).__name__}: {exc}"
    out.times.append(time.perf_counter() - t0)
    parsed = None
    if error is None:
        try:
            parsed = workloads.parse(task, outcome)
            workloads.compare(parsed, reference)
        except (workloads.CheckError, KeyError, TypeError, ValueError) as exc:
            error = f"check: {type(exc).__name__}: {exc}"
    out.tasks.append(task)
    out.outputs.append(parsed)
    out.errors.append(error)


def run_list(tasks, call, magnon, reference, workloads, probe=None) -> Pass:
    """Run ``tasks`` in order; ``probe`` takes set-up samples between them."""
    out = Pass()
    w0, c0 = time.perf_counter(), time.process_time()
    for task in tasks:
        if probe is not None:
            probe.between(time.perf_counter() - w0)
        _run_one(task, call, magnon, reference, workloads, out)
    out.wall, out.cpu = time.perf_counter() - w0, time.process_time() - c0
    if probe is not None:
        out.wall -= probe.spent
    return out


# ---------------------------------------------------------------------------
# metrics


class SetupProbe:
    """Set-up samples: fresh interpreters that import magnon and build the inputs.

    The samples are spread over the timed pass, one due every ``interval``
    seconds of task time, because a slow phase of a shared machine lasts
    seconds and would otherwise cover them all.  Samples still due when the
    pass ends are taken then.  Their wall time is left out of the pass.
    """

    def __init__(self, args, count: int, interval: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", "0"]
        self.cmd += ["--smoke"] if args.smoke else []
        self.count, self.interval = count, interval
        self.times, self.spent = [], 0.0

    def _sample(self):
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.DEVNULL)
        # A blocking wait: ``wait(timeout=...)`` polls with sleeps of up to
        # 50 ms, which would round every sample up to that step.
        guard = threading.Timer(120.0, proc.kill)
        guard.start()
        try:
            rc = proc.wait()
        finally:
            guard.cancel()
        dt = time.perf_counter() - t0
        if rc != 0:
            raise subprocess.CalledProcessError(rc, self.cmd)
        self.times.append(dt)
        self.spent += dt

    def between(self, elapsed: float):
        """Take a sample if one is due after ``elapsed`` seconds of the pass."""
        if len(self.times) < self.count and elapsed - self.spent >= len(self.times) * self.interval:
            self._sample()

    def finish(self) -> list:
        while len(self.times) < self.count:
            self._sample()
        return self.times


def tail(times):
    """Highest order statistic with at least ten samples above it, and its percentile."""
    xs = sorted(times)
    rank = max(0, len(xs) - 11)
    return xs[rank], 100.0 * (rank + 1) / len(xs)


def end_to_end(p: Pass, setup_times) -> dict:
    tail_value, tail_pct = tail(p.times)
    n = len(p.times)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "tasks_per_s": (n / p.wall, "1/s", n),
        "task_s_p50": (statistics.median(p.times), "s", n),
        "task_s_tail": (tail_value, "s", n, f"p{tail_pct:.1f}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "fail_frac": (len(p.failures()) / n, "fraction", n),
    }


def traced_replay(p: Pass, magnon, reference, workloads):
    """Replay the tasks of ``p`` with every public function wrapped."""
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install(magnon)
    try:
        traced = run_list(p.tasks, tr.span("bench", "task", workloads.execute),
                          magnon, reference, workloads)
    finally:
        tr.restore()
    mismatches = sum(1 for a, b in zip(p.outputs, traced.outputs) if a != b)
    m = tracing.layer_metrics(tr)
    m["proc.cpu_util"] = (p.cpu / p.wall, "ratio")
    m["trace.overhead_frac"] = ((traced.wall - p.wall) / p.wall, "fraction")
    m["trace.mismatches"] = (mismatches, "count")
    return traced, m, tr


def _self_shares(layer: dict) -> dict:
    selfs = {k[:-len(".self_s")]: v[0] for k, v in layer.items() if k.endswith(".self_s")}
    selfs["lattice"] = layer["lattice.s"][0]
    total = sum(selfs.values()) or 1.0
    return {k: v / total for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])}


# ---------------------------------------------------------------------------
# entry points


def run(args, magnon, workloads) -> dict:
    reference = _load_reference()
    source = workloads.TaskSource(args.workload, args.seed, reference, smoke=args.smoke)
    env = environment()
    if args.replay:
        with open(args.replay, encoding="utf-8") as fh:
            tasks = json.load(fh)["tasks"]
    else:
        tasks = source.tasks(args.seconds / 2.0 if args.trace else args.seconds)
    probe = None if args.trace else SetupProbe(
        args, 1 if args.smoke else SETUP_REPEATS, args.seconds / SETUP_REPEATS)
    first = run_list(tasks, workloads.execute, magnon, reference, workloads, probe)
    setup_times = probe.finish() if probe else []
    passes = [first]
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env}
    if args.trace:
        traced, layer, tr = traced_replay(first, magnon, reference, workloads)
        passes.append(traced)
        metrics = {k: v[:2] for k, v in layer.items()}
        result["self_share"] = _self_shares(layer)
        failed = sum(len(p.failures()) for p in passes) + layer["trace.mismatches"][0]
    else:
        e2e = end_to_end(first, setup_times)
        metrics = {k: v[:2] for k, v in e2e.items()}
        result["samples"] = {k: v[2] for k, v in e2e.items()}
        result["task_s_tail_percentile"] = e2e["task_s_tail"][3]
        failed = len(first.failures())
    attempted = sum(len(p.tasks) for p in passes)
    result.update(
        attempted=attempted,
        failed=failed,
        failures=[{"task": t, "error": e} for p in passes for t, e in p.failures()],
        task_times=[[workloads.task_key(t), dt] for t, dt in zip(first.tasks, first.times)],
        metrics=metrics,
        setup_times=setup_times,
    )
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    with open(RESULTS / f"tasks-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "tasks": first.tasks}, fh)
    with open(RESULTS / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if args.trace:
        tr.write(str(RESULTS / f"trace-{stem}.jsonl"))
    return result


def _summarize(result: dict):
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    samples = result.get("samples", {})
    for name, (value, unit) in result["metrics"].items():
        extra = f"  n={samples[name]}" if name in samples else ""
        if name == "task_s_tail":
            extra += f"  ({result['task_s_tail_percentile']})"
        print(f"  {name:28s} {value:>14.6g} {unit}{extra}")
    for name, share in result.get("self_share", {}).items():
        print(f"  share of traced self time  {name:12s} {share:6.1%}")
    for f in result["failures"][:10]:
        print(f"  FAILED {json.dumps(f['task'])}: {f['error']}")


def smoke(args, magnon, workloads) -> int:
    """Seconds-long pass over every workload, both modes; checks metric names."""
    bench = _load_benchmark()
    ok = True
    for name in workloads.SMOKE:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args.workload, args.trace, args.seconds = name, trace, 0.0
            result = run(args, magnon, workloads)
            _summarize(result)
            want = {m["name"] for m in bench[section]}
            missing = sorted(want - set(result["metrics"]))
            if missing or result["failed"]:
                ok = False
                print(f"SMOKE FAIL {name} trace={trace}: missing={missing} "
                      f"failed={result['failed']}/{result['attempted']}")
    print("SMOKE OK" if ok else "SMOKE FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", help="run the task list written by an earlier run")
    ap.add_argument("--smoke", action="store_true", help="seconds-long check of every workload")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    magnon = _import_magnon()
    import workloads

    if args.setup_only:
        source = workloads.TaskSource(args.workload, args.seed, _load_reference(),
                                      smoke=args.smoke)
        source.tasks(args.seconds / 2.0 if args.trace else args.seconds)
        return 0
    if args.smoke:
        return smoke(args, magnon, workloads)
    if not args.workload:
        ap.error("--workload is required")
    result = run(args, magnon, workloads)
    _summarize(result)
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in _load_benchmark()[section]]
    metrics = {k: dict(zip(("value", "unit"), result["metrics"][k])) for k in names}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
