"""The benchmark's two workloads.

Each workload builds its inputs once in set-up (`setup(seed)`), makes one
small untimed warm-up call, and then runs its tasks back to back in every
timed pass. A task returns its raw outputs; the pinned checks run on them
after the pass clock stops.

The checks repeat the acceptance presets' pinned checks (criterion numbers
in the comments) and, for the constrained companion cases, the unit tests'
checks, at unchanged tolerances. The meshes are smaller than the presets'
where a preset solve would not fit in one run: see README.md.

The workloads call the library only through attributes of the `voract`
package, so the tracer sees every call, and never import `voract.presets`,
so its in-process solve cache cannot serve a pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import voract as vo

# Reference action of every returned path, recorded with seed 0 at the
# commit that introduced the benchmark. `action_ratio` is the largest
# action / reference over a pass.
REFERENCE_ACTIONS = {
    "mag-exchange": 0.08806714877862275,
    "example1-c1": 4.325956351532242,
    "example1-c02": 0.7180489109490991,
    "example1-c02.oracle": 0.71534,
    "example2": 1.313047144516923,
    "stability.j1": 0.11245625000000001,
    "stability.j2": 0.085425,
    "stability.j4": 0.0748390625,
    "stability.j8": 0.07027851562500001,
    "stability.j16": 0.06818134765625,
    "stability.c0.2": 0.7045371902222147,
    "stability.c0.1": 0.3646511575688726,
    "stability.c0.05": 0.18017212974539765,
    "dp-example2": 1.7389800000000006,
    "dp-mag-exchange": 0.21083229999999997,
    "constrained-hug": 1.3895268733278867,
    "constrained-bend": 1.712980283345217,
    "constrained-segment": 1.3130827230381978,
}

Check = tuple[str, bool, object]


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], list[Check]]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    warmup: Callable[[dict], object]
    tasks: tuple[Task, ...]


def _energy_tol(path) -> float:
    return max(1e-3, 5.0 * path.dt)


# ---------------------------------------------------------------------------
# Solves with their shock analysis


def _solve(inp: dict, scenario: str) -> dict:
    x0, x1, kset, cfg = inp[scenario]
    shape = inp["shape"]
    t0 = time.perf_counter()
    res = vo.minimize(x0, x1, 1.0, kset, shape, cfg)
    runtime = time.perf_counter() - t0
    events = vo.detect_shocks(res.path, kset)
    prev_events = vo.detect_shocks(res.prev_path, kset)
    report = vo.regularity_report(res.path, kset, shape)
    return {"result": res, "events": events, "prev_events": prev_events, "report": report,
            "runtime": runtime, "converged": res.converged,
            "actions": {scenario: res.breakdown.total}}


def _shape_checks(out: dict) -> list[Check]:
    """Energy constancy (criterion 4) and the second-difference bound (criterion 6)."""
    path = out["result"].path
    std = out["report"].energy_std_away_from_shocks
    n_viol = len(out["report"].second_diff_violations)
    return [("energy_std", std <= _energy_tol(path), std),
            ("second_diff", n_viol == 0, n_viol)]


def _check_mag_exchange(inp: dict, out: dict) -> list[Check]:
    # criterion 11
    res, report = out["result"], out["report"]
    dt = res.path.dt
    eff = [e for e in out["events"] if e.kind.startswith("effective")]
    mom = dict(report.momentum_residuals)
    mom_worst = max((mom.get(e.node_index, np.inf) for e in eff), default=np.inf)
    return _shape_checks(out) + [
        ("effective_shock", len(eff) >= 1, len(eff)),
        ("momentum_residual", mom_worst <= 5.0 * dt, mom_worst),
        ("window_certificate", vo.window_certificate(inp["system"], res.path), None),
    ]


# ---------------------------------------------------------------------------
# The paper's solve scenarios


def _check_c1(inp: dict, out: dict) -> list[Check]:
    # criterion 1
    events, prev = out["events"], out["prev_events"]
    return _shape_checks(out) + [
        ("one_shock", len(events) == 1, len(events)),
        ("kind_nondegenerate", bool(events) and events[0].kind == "nondegenerate", None),
        ("stable_under_refinement",
         len(prev) == len(events) and all(e.kind == "nondegenerate" for e in prev), len(prev)),
        ("runtime", out["runtime"] < 30.0, out["runtime"]),
    ]


def _run_c02(inp: dict) -> dict:
    out = _solve(inp, "example1-c02")
    x0, x1, kset, _ = inp["example1-c02"]
    t0 = time.perf_counter()
    oracle = vo.dp_oracle(x0, x1, 1.0, kset, inp["shape"], inp["c02_grid"])
    out["oracle_action"] = vo.evaluate_action(oracle, kset, inp["shape"]).total
    out["runtime"] += time.perf_counter() - t0
    out["actions"]["example1-c02.oracle"] = out["oracle_action"]
    return out


def _check_c02(inp: dict, out: dict) -> list[Check]:
    # criteria 2 and 5
    res, events = out["result"], out["events"]
    left = [e for e in events if e.kind == "effective_left"]
    right = [e for e in events if e.kind == "effective_right"]
    action = res.breakdown.total
    t_left = left[0].time if left else np.nan
    waiting = (right[0].time - left[0].time) if (left and right) else 0.0
    rel_dev = abs(action - out["oracle_action"]) / out["oracle_action"]
    checks = _shape_checks(out) + [
        ("two_effective_shocks", len(left) == 1 and len(right) == 1, len(left) + len(right)),
        ("waiting_length", waiting >= 0.4, waiting),
        ("entry_time", abs(t_left - 0.2231) <= 0.02, t_left),
        ("action", abs(action - 0.72) <= 0.01, action),
        ("oracle_match", rel_dev <= 0.03, rel_dev),
        ("runtime", out["runtime"] < 120.0, out["runtime"]),
    ]
    dt = res.path.dt
    tol = max(1e-2, 10.0 * dt)
    eff = [e for e in events if e.kind.startswith("effective")]
    checks.append(("two_effective", len(eff) == 2, len(eff)))
    for ev in eff:
        residual = vo.jump_residual(ev, inp["shape"])
        checks.append((f"jump_residual:{ev.kind}", residual <= tol, residual))
        checks.append((f"jump_floor:{ev.kind}", ev.jump_sq >= 1.0 - 1e-2, ev.jump_sq))
    return checks


def _check_example2(inp: dict, out: dict) -> list[Check]:
    # criterion 3
    max_x1 = float(np.max(np.abs(out["result"].path.nodes[:, 0])))
    arrivals = [e for e in out["events"] if e.class_after == (0, 1, 2)]
    return _shape_checks(out) + [
        ("axis_confinement", max_x1 <= 1e-4, max_x1),
        ("degenerate_arrival", bool(arrivals) and arrivals[0].kind == "degenerate", None),
    ]


STABILITY_JS = (1, 2, 4, 8, 16)
STABILITY_CS = (0.2, 0.1, 0.05)


def _run_stability(inp: dict) -> dict:
    shape, cfg = inp["shape"], inp["stability_cfg"]
    results = vo.stability_run(inp["stability_ksets"], [([-0.02], [0.02])] * len(STABILITY_JS),
                               1.0, shape, cfg)
    smalls = [vo.minimize([-c], [c], 1.0, inp["line"], shape, cfg) for c in STABILITY_CS]
    actions = {f"stability.j{j}": r.breakdown.total for j, r in zip(STABILITY_JS, results)}
    actions.update({f"stability.c{c}": r.breakdown.total for c, r in zip(STABILITY_CS, smalls)})
    return {"results": results, "smalls": smalls, "actions": actions,
            "converged": all(r.converged for r in results)}


def _check_stability(inp: dict, out: dict) -> list[Check]:
    # criterion 10
    actions = [r.breakdown.total for r in out["results"]]
    gaps = [actions[i] - actions[i + 1] for i in range(len(actions) - 1)]
    smalls = [r.breakdown.total for r in out["smalls"]]
    worst = max(abs(a - 2.0 * c * (2.0 - c)) / (2.0 * c * (2.0 - c))
                for a, c in zip(smalls, STABILITY_CS))
    return [
        ("monotone_trend", all(g > 0 for g in gaps), min(gaps)),
        ("final_gap", abs(gaps[-1]) <= 1e-2, gaps[-1]),
        ("vanishing_endpoints", worst <= 0.10, worst),
        ("vanishing_trend", smalls[0] > smalls[1] > smalls[2] > 0, smalls[-1]),
    ]


# ---------------------------------------------------------------------------
# Zone probing


def _run_verdict(inp: dict) -> dict:
    balanced, witness, cells = vo.interior_balance_verdict(inp["lattice"], probe_count=1200,
                                                           seed=inp["seed"])
    return {"balanced": balanced, "witness": witness, "cells": cells}


def _check_verdict(inp: dict, out: dict) -> list[Check]:
    return [("balanced", bool(out["balanced"]), out["witness"]),
            ("cells", out["cells"] > 10, out["cells"])]


def _run_zones(inp: dict) -> dict:
    seed = inp["seed"]
    return {
        "line": vo.zone_table(inp["line"], ([-3.0], [3.0]), probe_count=500, seed=seed),
        "grid": vo.zone_table(inp["grid3"], ([-1.0, -1.0], [3.0, 3.0]), probe_count=3000,
                              seed=seed),
        "triangle": vo.zone_table(inp["triangle"], ([-2.0, -2.0], [2.0, 2.0]),
                                  probe_count=2000, seed=seed),
    }


def _check_zones(inp: dict, out: dict) -> list[Check]:
    # criterion 9
    line, grid, tri = out["line"], out["grid"], out["triangle"]
    etas = np.sort(line.etas.ravel())
    line_ok = (line.balanced and abs(line.beta - 1.0) <= 1e-9 and etas.shape[0] == 3
               and np.allclose(etas, [-1.0, 0.0, 1.0], atol=1e-9))
    witness_ok = (not tri.balanced and tri.unbalanced_witness is not None
                  and set(tri.unbalanced_witness) == {(0, 1, 2), (0, 2)})
    return [("line_balanced", bool(line_ok), line.beta),
            ("grid3_balanced", bool(grid.balanced), grid.witnessed_cells),
            ("triangle_witness", bool(witness_ok), tri.witnessed_cells)]


def _setup_solve_probe(seed: int) -> dict:
    line = vo.PointSet([[-1.0], [1.0]])
    triangle = vo.PointSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    base = [[0.0], [0.5]]
    x0, x1 = [0.2, 0.3], [0.3, 0.2]
    system = vo.build_mag(base, 1, 2, vo.default_window(base, 1, 2, x0, x1))
    full = vo.SolverConfig(M=512, refinements=3, starts=3, seed=seed)
    return {
        "seed": seed,
        "shape": vo.Shape.identity(),
        "system": system,
        "mag-exchange": (np.array(x0), np.array(x1), system.kset,
                         vo.SolverConfig(M=64, refinements=3, starts=3, seed=seed)),
        "line": line,
        "example1-c1": (np.array([-1.0]), np.array([1.0]), line, full),
        "example1-c02": (np.array([-0.2]), np.array([0.2]), line, full),
        "c02_grid": vo.GridSpec(lo=np.array([-1.5]), hi=np.array([1.5]), resolution=0.01,
                                time_slices=100, vmax=4.0),
        "example2": (np.array([0.0, -1.0]), np.array([0.0, 0.0]), triangle,
                     vo.SolverConfig(M=128, refinements=3, starts=3, seed=seed)),
        "stability_ksets": [vo.PointSet([[-1.0 - 1.0 / j], [1.0 + 1.0 / j]])
                            for j in STABILITY_JS],
        "stability_cfg": vo.SolverConfig(M=64, refinements=2, starts=3, seed=seed),
        # Four particles on the circle, window 1: 4! * 3^4 = 1944 sites in R^4.
        "lattice": vo.build_mag([[0.0], [0.2], [0.45], [0.7]], 1, 4, 1),
        "grid3": vo.PointSet([[float(i), float(j)] for i in range(3) for j in range(3)]),
        "triangle": triangle,
        "warmup_cfg": vo.SolverConfig(M=8, refinements=1, starts=3, seed=seed),
        "warmup_lattice": vo.build_mag(base, 1, 2, 1),
    }


def _warmup_solve_probe(inp: dict):
    x0, x1, kset, _ = inp["mag-exchange"]
    vo.minimize(x0, x1, 1.0, kset, inp["shape"], inp["warmup_cfg"])
    return vo.interior_balance_verdict(inp["warmup_lattice"], probe_count=50, seed=inp["seed"])


SOLVE_PROBE = Workload(
    name="solve-probe",
    setup=_setup_solve_probe,
    warmup=_warmup_solve_probe,
    tasks=(
        Task("mag-exchange", lambda inp: _solve(inp, "mag-exchange"), _check_mag_exchange),
        Task("example1-c1", lambda inp: _solve(inp, "example1-c1"), _check_c1),
        Task("example1-c02", _run_c02, _check_c02),
        Task("example2", lambda inp: _solve(inp, "example2"), _check_example2),
        Task("stability", _run_stability, _check_stability),
        Task("interior-verdict", _run_verdict, _check_verdict),
        Task("zones", _run_zones, _check_zones),
    ),
)


# ---------------------------------------------------------------------------
# Companion solvers: the DP oracle and the convex-constrained problem


def _oracle_grid(x0, x1) -> vo.GridSpec:
    """The `oracle` command's default grid: unit-order margin, 200 cells a side."""
    margin = max(1.0, 0.5 * float(np.linalg.norm(x1 - x0)))
    lo = np.minimum(x0, x1) - margin
    hi = np.maximum(x0, x1) + margin
    return vo.GridSpec(lo=lo, hi=hi, resolution=float(np.max(hi - lo)) / 200.0, time_slices=100)


def _dp_task(scenario: str) -> Task:
    def run(inp: dict) -> dict:
        x0, x1, kset = inp[scenario]
        path = vo.dp_oracle(x0, x1, 1.0, kset, inp["shape"], _oracle_grid(x0, x1))
        return {"path": path,
                "actions": {scenario: vo.evaluate_action(path, kset, inp["shape"]).total}}

    def check(inp: dict, out: dict) -> list[Check]:
        x0, x1, _ = inp[scenario]
        nodes = out["path"].nodes
        return [("finite", bool(np.all(np.isfinite(nodes))), None),
                ("endpoints", bool(np.array_equal(nodes[0], x0) and np.array_equal(nodes[-1], x1)),
                 None)]

    return Task(scenario, run, check)


def _constrained_task(name: str, polytope: str, x0, x1, center, check) -> Task:
    def run(inp: dict) -> dict:
        con = vo.constrained_minimize(x0, x1, 1.0, inp[polytope], center, inp["shape"],
                                      inp["constrained_cfg"])
        return {"result": con, "converged": con.converged,
                "actions": {name: con.breakdown.total}}

    return Task(name, run, check)


def _check_hug(inp: dict, out: dict) -> list[Check]:
    con = out["result"]
    max_x0 = float(np.max(con.path.nodes[:, 0]))
    return [("hugs_boundary", max_x0 <= 1e-7, max_x0),
            ("pg_norm", con.pg_norm <= inp["constrained_cfg"].grad_tol, con.pg_norm)]


def _check_bend(inp: dict, out: dict) -> list[Check]:
    con = out["result"]
    nodes, dt = con.path.nodes, con.path.dt
    second = np.linalg.norm(nodes[2:] - 2 * nodes[1:-1] + nodes[:-2], axis=1) / dt**2
    bound = np.linalg.norm(2.0 * (nodes[1:-1] - np.array([-1.0, 0.5])), axis=1) / 2.0
    excess = float(np.max(second - bound - 30.0 * dt))
    return [("second_difference_bound", excess <= 0.0, excess)]


def _check_segment(inp: dict, out: dict) -> list[Check]:
    con = out["result"]
    off_axis = float(np.max(np.abs(con.path.nodes[:, 0])))
    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(10):
        bump = rng.normal(size=(con.path.nodes.shape[0], 2)) * 0.05
        bump[0] = bump[-1] = 0.0
        competitor = vo.Path(1.0, con.path.nodes + bump)
        margin = vo.evaluate_action(competitor, inp["triangle"], inp["shape"]).total \
            - con.breakdown.total
        worst = min(worst, margin)
    return [("on_segment", off_axis <= 1e-8, off_axis),
            ("beats_departing_competitors", worst >= -1e-9, worst)]


def _setup_companion(seed: int) -> dict:
    triangle = vo.PointSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    base = [[0.0], [0.5]]
    x0, x1 = [0.2, 0.3], [0.3, 0.2]
    system = vo.build_mag(base, 1, 2, vo.default_window(base, 1, 2, x0, x1))
    return {
        "shape": vo.Shape.identity(),
        "triangle": triangle,
        "dp-example2": (np.array([0.0, -1.0]), np.array([0.0, 0.0]), triangle),
        "dp-mag-exchange": (np.array(x0), np.array(x1), system.kset),
        "box": vo.Polytope.from_box([0.0, 0.0], [1.0, 1.0]),
        # {0} x [-2, 0]
        "segment": vo.Polytope(np.vstack([np.eye(2), -np.eye(2)]),
                               np.array([0.0, 0.0, 0.0, 2.0])),
        "constrained_cfg": vo.SolverConfig(M=64, refinements=2, starts=3, seed=seed),
        "warmup_cfg": vo.SolverConfig(M=8, refinements=1, starts=3, seed=seed),
        "warmup_grid": vo.GridSpec(lo=np.array([-2.0, -2.0]), hi=np.array([1.0, 1.0]),
                                   resolution=0.1, time_slices=10),
    }


def _warmup_companion(inp: dict):
    x0, x1, kset = inp["dp-example2"]
    vo.dp_oracle(x0, x1, 1.0, kset, inp["shape"], inp["warmup_grid"])
    return vo.constrained_minimize([0.0, 0.2], [0.0, 0.8], 1.0, inp["box"], [-1.0, 0.5],
                                   inp["shape"], inp["warmup_cfg"])


COMPANION = Workload(
    name="companion",
    setup=_setup_companion,
    warmup=_warmup_companion,
    tasks=(
        _dp_task("dp-example2"),
        _dp_task("dp-mag-exchange"),
        _constrained_task("constrained-hug", "box", [0.0, 0.2], [0.0, 0.8], [-1.0, 0.5],
                          _check_hug),
        _constrained_task("constrained-bend", "box", [0.0, 0.2], [0.3, 0.8], [-1.0, 0.5],
                          _check_bend),
        _constrained_task("constrained-segment", "segment", [0.0, -1.0], [0.0, 0.0],
                          [0.0, 0.0], _check_segment),
    ),
)


WORKLOADS = {w.name: w for w in (SOLVE_PROBE, COMPANION)}
