"""Named experiment presets, one per acceptance gate of the project.

Each preset builds its scenario, runs the required computation and
evaluates a fixed list of checks with pinned tolerances. The four solve
presets are run configs, `RUN_CONFIGS[name]`, solved and checked by the
pipeline of `voract solve` (`cli.load_run_config` -> `cli.solve_run`);
their gates read the run's checks. The aggregate presets (energy
constancy, regularity bound) reuse the solve presets through an
in-process cache, so running the full battery solves each scenario once.

`run_preset(name, outdir)` optionally writes `checks.json` and
`timing.json` under `outdir`, and for a solve preset the artifacts of
`cli.write_run` (trajectory CSV, events/report/summary JSON, SVG plots,
and `particle{i}.csv` for `mag-exchange`), the files `voract solve` writes
for that config. Wall-clock timings live only on the returned outcome
object and in `timing.json`.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .action import Shape, SolverConfig, dp_oracle, evaluate_action, minimize
from .analysis import detect_shocks, jump_residual
from .cli import Run, load_run_config, solve_run, write_run
from .geometry import PointSet, Polytope, min_norm_point, polytope_distance_ratio
from .mag import stability_run
from .potential import extended_gradient, slope_sup_oracle, zone_table

__all__ = ["PRESET_NAMES", "CheckResult", "PresetOutcome", "run_preset"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float | None = None
    tolerance: str = ""


@dataclass
class PresetOutcome:
    name: str
    criterion: int
    checks: list[CheckResult]
    converged: bool = True
    runtime: float = 0.0
    payload: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.converged and all(c.passed for c in self.checks)


_CACHE: dict[str, object] = {}


def _cached(key: str, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


# ---------------------------------------------------------------------------
# Shared scenario definitions


def line_points() -> PointSet:
    return PointSet([[-1.0], [1.0]])


def triangle_points() -> PointSet:
    return PointSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


def grid3_points() -> PointSet:
    pts = [[float(i), float(j)] for i in range(3) for j in range(3)]
    return PointSet(pts)


# The solve presets: run configs as `voract solve --config` reads them.
RUN_CONFIGS = {
    name: {"scenario": name, "points": points, "endpoints": {"start": x0, "end": x1},
           "delta": 1.0, "solver": {"M": 512, "refinements": 3, "starts": 3, "seed": 0},
           **extra}
    for name, points, x0, x1, extra in (
        ("example1-c1", {"inline": [[-1.0], [1.0]]}, [-1.0], [1.0], {}),
        ("example1-c02", {"inline": [[-1.0], [1.0]]}, [-0.2], [0.2],
         {"oracle_grid": {"lo": [-1.5], "hi": [1.5], "resolution": 0.01, "time_slices": 100,
                          "vmax": 4.0}}),
        ("example2", {"inline": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]}, [0.0, -1.0], [0.0, 0.0],
         {}),
        ("mag-exchange", {"mag": {"base_points": [[0.0], [0.5]], "n": 1, "m": 2}},
         [0.2, 0.3], [0.3, 0.2], {}),
    )
}

SHIPPED_POINT_SETS = {
    "line": line_points,
    "triangle": triangle_points,
    "grid3": grid3_points,
    "exchange": lambda: load_run_config(RUN_CONFIGS["mag-exchange"])["kset"],
}


def _solve_record(name: str) -> Run:
    return _cached(f"solve:{name}", lambda: solve_run(load_run_config(RUN_CONFIGS[name])))


# ---------------------------------------------------------------------------
# Preset implementations


def _preset_example1_c1() -> PresetOutcome:
    rec = _solve_record("example1-c1")
    events = rec.report.events
    prev_events = detect_shocks(rec.result.prev_path, rec.cfg["kset"])
    checks = [
        CheckResult("one_shock", len(events) == 1, float(len(events)), "== 1"),
        CheckResult("kind_nondegenerate",
                    bool(events) and events[0].kind == "nondegenerate",
                    tolerance="kind == nondegenerate (not effective)"),
        CheckResult("stable_under_refinement",
                    len(prev_events) == len(events)
                    and all(e.kind == "nondegenerate" for e in prev_events),
                    float(len(prev_events)), "same count/kind at M=256"),
        CheckResult("runtime", rec.elapsed < 30.0, None, "< 30 s"),
    ]
    return PresetOutcome("example1-c1", 1, checks, rec.result.converged, rec.elapsed,
                         payload={"action": rec.result.breakdown.total})


def _preset_example1_c02() -> PresetOutcome:
    rec = _solve_record("example1-c02")
    cfg = rec.cfg
    t0 = time.perf_counter()
    oracle_path = _cached("dp:example1-c02", lambda: dp_oracle(
        cfg["x0"], cfg["x1"], cfg["delta"], cfg["kset"], cfg["shape"], cfg["oracle_grid"]))
    oracle_action = evaluate_action(oracle_path, cfg["kset"], cfg["shape"]).total
    runtime = rec.elapsed + (time.perf_counter() - t0)

    left = [e for e in rec.report.events if e.kind == "effective_left"]
    right = [e for e in rec.report.events if e.kind == "effective_right"]
    action = rec.result.breakdown.total
    t_left = left[0].time if left else np.nan
    waiting = (right[0].time - left[0].time) if (left and right) else 0.0
    rel_dev = abs(action - oracle_action) / oracle_action
    checks = [
        CheckResult("two_effective_shocks", len(left) == 1 and len(right) == 1,
                    float(len(left) + len(right)), "left + right"),
        CheckResult("waiting_length", waiting >= 0.4, waiting, ">= 0.4"),
        CheckResult("entry_time", abs(t_left - 0.2231) <= 0.02, t_left, "0.2231 +/- 0.02"),
        CheckResult("action", abs(action - 0.72) <= 0.01, action, "0.72 +/- 0.01"),
        CheckResult("oracle_match", rel_dev <= 0.03, rel_dev, "<= 3% of DP at res 0.01"),
        CheckResult("runtime", runtime < 120.0, None, "< 2 min incl oracle"),
    ]
    return PresetOutcome("example1-c02", 2, checks, rec.result.converged, runtime,
                         payload={"action": action, "oracle_action": oracle_action,
                                  "t_left": t_left, "waiting": waiting})


def _preset_example2() -> PresetOutcome:
    rec = _solve_record("example2")
    max_x1 = float(np.max(np.abs(rec.result.path.nodes[:, 0])))
    arrivals = [e for e in rec.report.events if e.class_after == (0, 1, 2)]
    first_deg = bool(arrivals) and arrivals[0].kind == "degenerate"
    checks = [
        CheckResult("axis_confinement", max_x1 <= 1e-4, max_x1, "max |x1| <= 1e-4 at M=512"),
        CheckResult("degenerate_arrival", first_deg, float(len(rec.report.events)),
                    "first origin arrival classified degenerate"),
    ]
    return PresetOutcome("example2", 3, checks, rec.result.converged, rec.elapsed,
                         payload={"action": rec.result.breakdown.total, "max_x1": max_x1})


def _per_solve_preset(name: str, criterion: int, check) -> PresetOutcome:
    """``check(run)`` on every solve preset, converged when every solve is."""
    recs = [_solve_record(preset) for preset in RUN_CONFIGS]
    return PresetOutcome(name, criterion, [check(rec) for rec in recs],
                         all(rec.result.converged for rec in recs), sum(r.elapsed for r in recs))


def _preset_energy_constancy() -> PresetOutcome:
    def check(rec: Run) -> CheckResult:
        energy = rec.checks["energy"]
        return CheckResult(f"energy_std:{rec.cfg['scenario']}", energy["passed"], energy["value"],
                           f"<= max(1e-3, 5*dt) = {energy['tolerance']:.3g}")

    return _per_solve_preset("energy-constancy", 4, check)


def _preset_jump_identity() -> PresetOutcome:
    rec = _solve_record("example1-c02")
    dt = rec.result.path.dt
    tol = max(1e-2, 10.0 * dt)
    eff = [e for e in rec.report.events if e.kind.startswith("effective")]
    checks = [CheckResult("two_effective", len(eff) == 2, float(len(eff)), "== 2")]
    for ev in eff:
        res = jump_residual(ev, rec.cfg["shape"])
        checks.append(CheckResult(f"jump_residual:{ev.kind}", res <= tol, res,
                                  f"<= max(1e-2, 10*dt) = {tol:.3g}"))
        checks.append(CheckResult(f"jump_floor:{ev.kind}", ev.jump_sq >= 1.0 - 1e-2,
                                  ev.jump_sq, ">= h(beta) - 1e-2 = 0.99"))
    return PresetOutcome("jump-identity", 5, checks, rec.result.converged, rec.elapsed)


def _preset_regularity_bound() -> PresetOutcome:
    return _per_solve_preset("regularity-bound", 6, lambda rec: CheckResult(
        f"second_diff:{rec.cfg['scenario']}", rec.checks["regularity"]["passed"],
        float(rec.checks["regularity"]["value"]), "no excess over h'(s)*sqrt(s) + 20*dt"))


def _min_norm_grid_oracle(vertices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Independent brute-force hull projection: barycentric grid search with
    local refinement down to ~1e-7 barycentric scale."""
    m = vertices.shape[0]
    if m == 1:
        return vertices[0]
    center = np.full(m, 1.0 / m)
    scale = 1.0
    divs = 6
    grid = [np.array(c, dtype=float) / divs
            for c in itertools.product(range(divs + 1), repeat=m)
            if sum(c) == divs]
    best = center
    for _ in range(26):
        cands = []
        for g in grid:
            lam = center + scale * (g - np.full(m, 1.0 / m))
            lam = np.maximum(lam, 0.0)
            s = lam.sum()
            if s <= 0:
                continue
            cands.append(lam / s)
        pts = np.array(cands) @ vertices
        d2 = np.einsum("ij,ij->i", pts - x[None, :], pts - x[None, :])
        k = int(np.argmin(d2))
        best = np.array(cands)[k]
        center = best
        scale *= 0.5
    return best @ vertices


def _preset_minnorm_oracle() -> PresetOutcome:
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    n_cases = 200
    for _ in range(n_cases):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        verts = rng.normal(size=(m, d)) * 2.0
        x = rng.normal(size=d) * 2.0
        p = min_norm_point(verts, x)
        q = _min_norm_grid_oracle(verts, x)
        worst = max(worst, float(np.linalg.norm(p - q)))
    runtime = time.perf_counter() - t0
    checks = [CheckResult("grid_oracle_match", worst <= 1e-6, worst,
                          "200 random instances (d<=3, |V|<=4) within 1e-6")]
    return PresetOutcome("minnorm-oracle", 7, checks, True, runtime)


def _bisector_margin(x: np.ndarray, kset: PointSet) -> float:
    """Distance from x to the nearest bisector with its nearest site."""
    diff = kset.points - x[None, :]
    d2 = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(d2)
    p0 = kset.points[order[0]]
    margins = []
    for j in order[1:]:
        pj = kset.points[j]
        gap = np.linalg.norm(pj - p0)
        if gap == 0:
            continue
        margins.append(abs(d2[j] - d2[order[0]]) / (2.0 * gap))
    return min(margins) if margins else np.inf


def _preset_slope_oracle() -> PresetOutcome:
    t0 = time.perf_counter()
    checks = []
    for name, builder in SHIPPED_POINT_SETS.items():
        kset = builder()
        rng = np.random.default_rng(101)
        lo = np.min(kset.points, axis=0) - 0.7
        hi = np.max(kset.points, axis=0) + 0.7
        picked = 0
        low_dev = 0.0
        high_dev = 0.0
        while picked < 500:
            x = lo + rng.random(kset.dim) * (hi - lo)
            if _bisector_margin(x, kset) < 0.01:
                continue
            picked += 1
            info = extended_gradient(x, kset)
            est = slope_sup_oracle(x, kset, sample_count=120, seed=picked)
            grad = float(np.sqrt(info.slope_sq))
            low_dev = max(low_dev, grad - est)
            high_dev = max(high_dev, est - grad)
        checks.append(CheckResult(f"slope_band:{name}",
                                  low_dev <= 5e-3 and high_dev <= 1e-6,
                                  max(low_dev, high_dev),
                                  "oracle in [|grad|-5e-3, |grad|+1e-6], 500 probes"))
    return PresetOutcome("slope-oracle", 8, checks, True, time.perf_counter() - t0)


def _preset_zones() -> PresetOutcome:
    t0 = time.perf_counter()
    line = zone_table(line_points(), ([-3.0], [3.0]), probe_count=500, seed=0)
    etas = np.sort(line.etas.ravel())
    c_line = CheckResult(
        "line_balanced",
        line.balanced and abs(line.beta - 1.0) <= 1e-9
        and etas.shape[0] == 3 and np.allclose(etas, [-1.0, 0.0, 1.0], atol=1e-9),
        line.beta, "balanced, etas {-1,0,1}, beta 1")

    grid = zone_table(grid3_points(), ([-1.0, -1.0], [3.0, 3.0]), probe_count=3000, seed=0)
    c_grid = CheckResult("grid3_balanced", grid.balanced, float(grid.witnessed_cells),
                         "balanced on witnessed cells")

    tri = zone_table(triangle_points(), ([-2.0, -2.0], [2.0, 2.0]), probe_count=2000, seed=0)
    witness_ok = (not tri.balanced and tri.unbalanced_witness is not None
                  and set(tri.unbalanced_witness) == {(0, 1, 2), (0, 2)})
    c_tri = CheckResult("triangle_witness", witness_ok, float(tri.witnessed_cells),
                        "unbalanced with witness {(0,1,2),(0,2)}")
    return PresetOutcome("zones", 9, [c_line, c_grid, c_tri], True,
                         time.perf_counter() - t0,
                         payload={"line_beta": line.beta, "triangle_beta": tri.beta})


def _preset_stability() -> PresetOutcome:
    t0 = time.perf_counter()
    shape = Shape.identity()
    cfg = SolverConfig(M=256, refinements=2, starts=3, seed=0)
    js = [1, 2, 4, 8, 16]
    ksets = [PointSet([[-1.0 - 1.0 / j], [1.0 + 1.0 / j]]) for j in js]
    endpoints = [([-0.02], [0.02])] * len(js)
    results = stability_run(ksets, endpoints, 1.0, shape, cfg)
    actions = [r.breakdown.total for r in results]
    gaps = [actions[i] - actions[i + 1] for i in range(len(actions) - 1)]
    checks = [
        CheckResult("monotone_trend", all(g > 0 for g in gaps), min(gaps), "decreasing actions"),
        CheckResult("final_gap", abs(gaps[-1]) <= 1e-2, gaps[-1], "|a(8) - a(16)| <= 1e-2"),
    ]
    kline = line_points()
    worst = 0.0
    smalls = []
    for c in (0.2, 0.1, 0.05):
        r = minimize([-c], [c], 1.0, kline, shape, cfg)
        target = 2.0 * c * (2.0 - c)
        worst = max(worst, abs(r.breakdown.total - target) / target)
        smalls.append(r.breakdown.total)
    checks.append(CheckResult("vanishing_endpoints", worst <= 0.10, worst,
                              "within 10% of 2c(2-c) at c in {0.2, 0.1, 0.05}"))
    checks.append(CheckResult("vanishing_trend", smalls[0] > smalls[1] > smalls[2] > 0,
                              smalls[-1], "actions decrease toward 0"))
    return PresetOutcome("stability", 10, checks, all(r.converged for r in results),
                         time.perf_counter() - t0,
                         payload={"kj_actions": actions, "gamma_actions": smalls})


def _preset_mag_exchange() -> PresetOutcome:
    rec = _solve_record("mag-exchange")
    dt = rec.result.path.dt
    eff = [e for e in rec.report.events if e.kind.startswith("effective")]
    mom = dict(rec.report.momentum_residuals)
    mom_worst = max((mom.get(e.node_index, np.inf) for e in eff), default=np.inf)
    energy, cert = rec.checks["energy"], rec.checks["window_certificate"]
    checks = [
        CheckResult("effective_shock", len(eff) >= 1, float(len(eff)), ">= 1"),
        CheckResult("energy_std", energy["passed"], energy["value"],
                    f"<= {energy['tolerance']:.3g}"),
        CheckResult("momentum_residual", mom_worst <= 5.0 * dt, mom_worst,
                    f"<= 5*dt = {5 * dt:.3g}"),
        CheckResult("window_certificate", cert["passed"], tolerance=cert["tolerance"]),
    ]
    return PresetOutcome("mag-exchange", 11, checks, rec.result.converged, rec.elapsed,
                         payload={"action": rec.result.breakdown.total})


def corner_polytopes() -> tuple[Polytope, Polytope]:
    a = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
    half = Polytope(
        np.vstack([[1.0, 1.0], np.eye(2), -np.eye(2)]),
        np.array([0.0, 2.0, 2.0, 2.0, 2.0]),
    )
    return a, half


def _preset_ratio_corner() -> PresetOutcome:
    t0 = time.perf_counter()
    a, b = corner_polytopes()
    m1 = polytope_distance_ratio(a, b, samples=10_000, seed=7)
    m2 = polytope_distance_ratio(a, b, samples=20_000, seed=7)
    rel = abs(m2 - m1) / m1
    checks = [
        CheckResult("sqrt2_value", abs(m1 - np.sqrt(2.0)) <= 0.05, m1, "sqrt(2) +/- 0.05 at 1e4"),
        CheckResult("sample_stability", rel <= 0.02, rel, "<= 2% when samples double"),
        CheckResult("monotone", m2 >= m1 - 1e-12, m2 - m1, "prefix-stable sampling"),
    ]
    return PresetOutcome("ratio-corner", 12, checks, True, time.perf_counter() - t0,
                         payload={"ratio_1e4": m1, "ratio_2e4": m2})


_PRESETS = {
    "example1-c1": _preset_example1_c1,
    "example1-c02": _preset_example1_c02,
    "example2": _preset_example2,
    "energy-constancy": _preset_energy_constancy,
    "jump-identity": _preset_jump_identity,
    "regularity-bound": _preset_regularity_bound,
    "minnorm-oracle": _preset_minnorm_oracle,
    "slope-oracle": _preset_slope_oracle,
    "zones": _preset_zones,
    "stability": _preset_stability,
    "mag-exchange": _preset_mag_exchange,
    "ratio-corner": _preset_ratio_corner,
}

PRESET_NAMES = tuple(_PRESETS)


def run_preset(name: str, outdir: str | None = None) -> PresetOutcome:
    """Run a named preset; optionally write its artifacts under ``outdir``."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    outcome = _PRESETS[name]()
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        payload = {
            "preset": outcome.name,
            "criterion": outcome.criterion,
            "converged": outcome.converged,
            "passed": outcome.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "value": c.value, "tolerance": c.tolerance}
                for c in outcome.checks if c.name != "runtime"
            ],
            "payload": outcome.payload,
        }
        artifacts.write_json(os.path.join(outdir, "checks.json"), payload)
        artifacts.write_json(os.path.join(outdir, "timing.json"),
                             {"runtime_seconds": round(outcome.runtime, 3),
                              "note": "wall clock; not reproducible bit-for-bit"})
        if name in RUN_CONFIGS:
            write_run(_solve_record(name), outdir)
    return outcome
