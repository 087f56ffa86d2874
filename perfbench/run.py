"""Benchmark entry point: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload solve-probe --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

A run sets up the workload (import, inputs, one warm-up call), then runs
timed passes over its tasks back to back, in one process with no added
threads, until the next pass would end past `--seconds` (at least three
passes). A round of fixed reference work (`reference.py`) runs before each
task, outside the task clocks, and `wall_rel` is a pass's wall time divided
by its reference time. The pinned checks run after each pass clock stops.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced passes and reports the per-layer
metrics. The second-to-last line of standard output is the run record
(versions, seed, per-task times, self-checks); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--workload all` runs every workload in turn and prints a table.

The program is imported from `src/` next to this directory; the run exits
with code 2, printing no result, when it is not there.
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
import time
from pathlib import Path

sys.dont_write_bytecode = True

from tracer import DESCENT_CALLERS, KERNEL_CALLERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("solve-probe", "companion")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
CHILD_SETUPS = 2
CHILD_TIMEOUT_S = 150

# Per-layer metrics: (name, unit, layer whose absence makes it absent).
LAYER_METRICS = [
    ("potential.kernel.calls", "count", "potential.kernel"),
    ("potential.kernel.rows", "count", "potential.kernel"),
    ("potential.kernel.row_sites", "count", "potential.kernel"),
    ("potential.kernel.tie_rows", "count", "potential.kernel"),
    ("potential.kernel.tie_groups", "count", "potential.kernel"),
    ("potential.kernel.self_s", "s", "potential.kernel"),
    ("potential.kernel.bytes_computed", "B", "potential.kernel"),
    *[(f"potential.kernel.calls.{c}", "count", "potential.kernel")
      for c in (*KERNEL_CALLERS, "other")],
    ("action.minimize.calls", "count", "action.minimize"),
    ("action.minimize.total_s", "s", "action.minimize"),
    ("action.minimize.self_s", "s", "action.minimize"),
    ("action.minimize.starts", "count", "action.minimize"),
    ("action.minimize.starts_redundant", "count", "action.minimize"),
    ("action.minimize.converged", "count", "action.minimize"),
    ("action.dp_oracle.calls", "count", "action.dp_oracle"),
    ("action.dp_oracle.self_s", "s", "action.dp_oracle"),
    ("action.dp_oracle.grid_points", "count", "action.dp_oracle"),
    ("action.constrained_minimize.calls", "count", "action.constrained_minimize"),
    ("action.constrained_minimize.self_s", "s", "action.constrained_minimize"),
    ("geometry.cell_frame.calls", "count", "geometry.cell_frame"),
    ("geometry.cell_frame.self_s", "s", "geometry.cell_frame"),
    ("geometry.min_norm_point.calls", "count", "geometry.min_norm_point"),
    ("geometry.min_norm_point.self_s", "s", "geometry.min_norm_point"),
    ("mag.interior_balance_verdict.calls", "count", "mag.interior_balance_verdict"),
    ("mag.interior_balance_verdict.self_s", "s", "mag.interior_balance_verdict"),
    ("mag.interior_balance_verdict.cells", "count", "mag.interior_balance_verdict"),
    ("potential.zone_table.calls", "count", "potential.zone_table"),
    ("potential.zone_table.self_s", "s", "potential.zone_table"),
    ("potential.zone_table.probes", "count", "potential.zone_table"),
    ("mag.build_mag.self_s", "s", "mag.build_mag"),
    ("analysis.self_s", "s", "analysis.regularity_report"),
    ("process.wall_s", "s", None),
    ("process.cpu_s", "s", None),
    ("process.cpu_util", "ratio", None),
    ("trace.overhead_frac", "ratio", None),
]


# ---------------------------------------------------------------------------
# Set-up and passes


def setup_workload(name: str, seed: int):
    """Import the program, build the workload's inputs and warm up; timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    import voract

    if Path(voract.__file__).resolve().parent != SRC / "voract":
        raise RuntimeError(f"voract was imported from {voract.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed)
    workload.warmup(inputs)
    return workload, inputs, time.perf_counter() - t0


def child_setup_seconds(name: str, seed: int) -> float:
    """Set-up time of a fresh process, as measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, inputs, tracer=None) -> dict:
    """One timed pass over the workload's tasks, then their checks.

    One round of the reference work runs before each task, outside the task
    clocks; the pass wall time is the sum of the task times. With a tracer,
    the tasks run traced and the reference work and the checks do not; the
    pass records the tracer's kernel mark after each task.
    """
    import workloads
    from reference import reference_seconds

    outputs, marks = [], []
    wall = cpu = ref = 0.0
    if tracer is not None:
        tracer.reset()
    for task in workload.tasks:
        ref += reference_seconds()
        if tracer is not None:
            tracer.install()
        try:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out, error = task.run(inputs), None
            except Exception as exc:  # a failing task is counted, never retried
                out, error = None, f"{type(exc).__name__}: {exc}"
            task_wall = time.perf_counter() - t0
            cpu += time.process_time() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall += task_wall
        outputs.append((task, out, error, task_wall))
        if tracer is not None:
            marks.append(tracer.kernel_mark())

    tasks = []
    for task, out, error, task_wall in outputs:
        failed_checks, ratios = [], []
        if error is None:
            try:
                checks = task.check(inputs, out)
                ratios = [action / workloads.REFERENCE_ACTIONS[label]
                          for label, action in out.get("actions", {}).items()]
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            else:
                if not out.get("converged", True):
                    failed_checks.append("converged")
                failed_checks += [name for name, passed, _ in checks if not passed]
        tasks.append({"task": task.name, "wall_s": task_wall, "error": error,
                      "failed_checks": failed_checks,
                      "ok": error is None and not failed_checks,
                      "action_ratio": max(ratios) if ratios else 1.0})
    return {"wall_s": wall, "ref_s": ref, "wall_rel": wall / ref, "cpu_s": cpu, "tasks": tasks,
            "marks": marks}


def timed_passes(seconds: float, min_passes: int, one_pass) -> list:
    """Repeat `one_pass` until the next one would end past `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        if len(results) >= min_passes and (now - start) + (now - t0) > seconds:
            return results


# ---------------------------------------------------------------------------
# Traced run


def traced_run(workload, inputs, seed: int, seconds: float):
    """Alternate untraced and traced passes; derive per-layer metrics."""
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(seed)  # traced once for the set-up layers
    finally:
        tracer.uninstall()
    build_mag_s = tracer.self_s["mag.build_mag"]

    def pair():
        plain = run_pass(workload, inputs)
        traced = run_pass(workload, inputs, tracer)
        marks = [(0.0, 0, 0)] + traced["marks"]
        traced["task_kernel"] = {
            t["task"]: {"kernel_self_s": k1 - k0, "trial_move_kernel_calls": c1 - c0,
                        "descent_kernel_calls": d1 - d0}
            for t, (k0, c0, d0), (k1, c1, d1) in zip(traced["tasks"], marks, marks[1:])}
        traced["self_s"] = dict(tracer.self_s)
        traced["calls"] = dict(tracer.calls)
        traced["total_s"] = dict(tracer.total_s)
        traced["counts"] = tracer.count_snapshot()
        traced["root_s"] = tracer.root_s
        return plain, traced

    pairs = timed_passes(seconds, MIN_TRACED_PAIRS, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]

    def med(values):
        return statistics.median(values)

    wall = med([p["wall_s"] for p in plain])
    traced_wall = med([t["wall_s"] for t in traced])
    cpu = med([p["cpu_s"] for p in plain])
    counts = traced[0]["counts"]

    def self_s(layer):
        return med([t["self_s"].get(layer, 0.0) for t in traced])

    def calls(layer):
        return traced[0]["calls"].get(layer, 0)

    values = {
        "potential.kernel.calls": calls("potential.kernel"),
        "potential.kernel.self_s": self_s("potential.kernel"),
        "action.minimize.calls": calls("action.minimize"),
        "action.minimize.total_s": med([t["total_s"].get("action.minimize", 0.0)
                                        for t in traced]),
        "action.minimize.self_s": self_s("action.minimize"),
        "action.dp_oracle.calls": calls("action.dp_oracle"),
        "action.dp_oracle.self_s": self_s("action.dp_oracle"),
        "action.dp_oracle.grid_points": counts.get("potential.kernel.rows.dp_oracle", 0),
        "action.constrained_minimize.calls": calls("action.constrained_minimize"),
        "action.constrained_minimize.self_s": self_s("action.constrained_minimize"),
        "geometry.cell_frame.calls": calls("geometry.cell_frame"),
        "geometry.cell_frame.self_s": self_s("geometry.cell_frame"),
        "geometry.min_norm_point.calls": calls("geometry.min_norm_point"),
        "geometry.min_norm_point.self_s": self_s("geometry.min_norm_point"),
        "mag.interior_balance_verdict.calls": calls("mag.interior_balance_verdict"),
        "mag.interior_balance_verdict.self_s": self_s("mag.interior_balance_verdict"),
        "potential.zone_table.calls": calls("potential.zone_table"),
        "potential.zone_table.self_s": self_s("potential.zone_table"),
        "mag.build_mag.self_s": build_mag_s,
        "analysis.self_s": self_s("analysis.detect_shocks") + self_s("analysis.regularity_report"),
        "process.wall_s": wall,
        "process.cpu_s": cpu,
        "process.cpu_util": cpu / wall,
        # Relative to the reference work, so host drift between passes cancels.
        "trace.overhead_frac": (med([t["wall_rel"] for t in traced])
                                / med([p["wall_rel"] for p in plain]) - 1.0),
    }
    metrics = {}
    for name, unit, layer in LAYER_METRICS:
        if layer is not None and tracer.is_absent(layer):
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            value = values[name] if name in values else counts.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}

    kernel_share = values["potential.kernel.self_s"] / traced_wall
    descent_calls = sum(counts.get(f"potential.kernel.calls.{c}", 0) for c in DESCENT_CALLERS)
    self_checks = {
        # Layer self times plus time outside every span add up to the pass.
        "self_time_sum_within_1pct": all(
            abs(sum(t["self_s"].values()) + (t["wall_s"] - t["root_s"]) - t["wall_s"])
            <= 0.01 * t["wall_s"] for t in traced),
        "counts_repeat_exactly": all(t["counts"] == counts and
                                     t["calls"] == traced[0]["calls"] for t in traced),
    }
    task_kernel = traced[-1]["task_kernel"]
    task_wall = {t["task"]: t["wall_s"] for t in traced[-1]["tasks"]}
    if workload.name == "solve-probe":
        mag = task_kernel["mag-exchange"]
        probe = ("interior-verdict", "zones")
        predictions = {
            "mag_exchange_kernel_self_at_least_half":
                mag["kernel_self_s"] >= 0.5 * task_wall["mag-exchange"],
            "mag_exchange_trial_move_kernel_calls": mag["trial_move_kernel_calls"] > 0,
            "probe_kernel_self_at_least_90pct":
                sum(task_kernel[t]["kernel_self_s"] for t in probe)
                >= 0.9 * sum(task_wall[t] for t in probe),
            "probe_no_descent_kernel_calls":
                sum(task_kernel[t]["descent_kernel_calls"] for t in probe) == 0,
        }
    else:
        predictions = {"kernel_self_under_5pct": kernel_share < 0.05,
                       "no_descent_kernel_calls": descent_calls == 0}
    trace = {
        "untraced_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [t["wall_s"] for t in traced],
        "unattributed_s": med([t["wall_s"] - t["root_s"] for t in traced]),
        "kernel_share": kernel_share,
        "tasks": {name: dict(task_kernel[name], wall_s=task_wall[name]) for name in task_wall},
        "self_s": {k: self_s(k) for k in sorted(traced[0]["self_s"])},
        "counts": counts,
        "self_checks": self_checks,
        "predictions": predictions,
        "absent": tracer.absent,
    }
    return metrics, plain + traced, trace, all(self_checks.values())


# ---------------------------------------------------------------------------
# Run record


def _blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it (read only)."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_stats():
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def run_record(args, setup_samples, passes, extra) -> dict:
    import numpy
    import scipy

    src_lines, src_sha = _src_stats()
    per_task = {}
    for p in passes:
        for t in p["tasks"]:
            rec = per_task.setdefault(t["task"], {"wall_s": [], "failed": 0, "problems": []})
            rec["wall_s"].append(t["wall_s"])
            if not t["ok"]:
                rec["failed"] += 1
                rec["problems"].append(t["error"] or t["failed_checks"])
    tasks = [t for p in passes for t in p["tasks"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        "src_sha256": src_sha,
        "setup_s_samples": setup_samples,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_ref_s": [p["ref_s"] for p in passes],
        "pass_wall_rel": [p["wall_rel"] for p in passes],
        "tasks": {name: {"wall_s": statistics.median(r["wall_s"]), "failed": r["failed"],
                         "problems": r["problems"][:3]} for name, r in per_task.items()},
        "fail_frac": sum(not t["ok"] for t in tasks) / len(tasks),
        "action_excess": max(t["action_ratio"] for t in tasks) - 1.0,
    }
    record.update(extra)
    return record


# ---------------------------------------------------------------------------
# Commands


def run_one(args) -> int:
    workload, inputs, own_setup = setup_workload(args.workload, args.seed)
    if args.setup_only:
        print(repr(own_setup))
        return 0

    if args.trace:
        metrics, passes, trace, sound = traced_run(workload, inputs, args.seed, args.seconds)
        setup_samples = [own_setup]
        extra = {"trace_report": trace}
    else:
        setup_samples = [own_setup] + [child_setup_seconds(args.workload, args.seed)
                                       for _ in range(CHILD_SETUPS)]
        passes = timed_passes(args.seconds, MIN_PASSES, lambda: run_pass(workload, inputs))
        sound = True
        extra = {}

    if "voract.presets" in sys.modules:
        raise RuntimeError("voract.presets was imported: its solve cache could serve a pass")
    tasks = [t for p in passes for t in p["tasks"]]
    attempted = len(tasks)
    failed = sum(not t["ok"] for t in tasks)
    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_rel": {"value": statistics.median(p["wall_rel"] for p in passes),
                         "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
            "success_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "action_ratio": {"value": max(t["action_ratio"] for t in tasks), "unit": "ratio"},
        }
    record = run_record(args, setup_samples, passes, extra)
    print(json.dumps({"run_record": record}, default=str))
    print(json.dumps({"correct": failed == 0 and sound, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, printed as a table."""
    ok = True
    print(f"{'workload':<15} {'metric':<14} {'value':>14}  unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<15} failed with exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        record = json.loads(lines[-2])["run_record"]
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:<15} {metric:<14} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<15} {'fail_frac':<14} {record['fail_frac']:>14.6g}  ratio")
        print(f"{name:<15} {'action_excess':<14} {record['action_excess']:>14.6g}  ratio")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and exit")
    args = parser.parse_args(argv)
    if not (SRC / "voract" / "__init__.py").is_file():
        print(f"error: the program's sources are missing: {SRC / 'voract'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
