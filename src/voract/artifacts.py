"""Deterministic run artifacts: trajectory CSV, JSON reports, SVG plots.

Float formatting uses shortest round-trip repr and JSON keys are sorted,
so identical inputs produce bit-identical files (no timestamps, no
environment captures). Timing numbers never enter these files.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from .action import ActionBreakdown, Path, Shape
from .analysis import RegularityReport, ShockEvent
from .geometry import PointSet, VoractError
from .mag import MagSystem, particle_paths
from .potential import batch_field, class_ids
from .svg import polyline_chart

__all__ = [
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_json",
    "events_payload",
    "report_payload",
    "write_standard_plots",
    "write_path_artifacts",
    "write_particle_csvs",
]


def _f(x) -> str:
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None  # strict JSON has no Infinity/NaN
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def write_json(path, payload) -> None:
    payload = _jsonable(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(path, traj: Path, kset: PointSet, shape: Shape):
    """Columns: t, x1..xd, action_density, slope_sq, class_id.

    ``class_id`` indexes the returned class registry (order of first
    appearance along the path). Action density at a node is the forward
    difference speed squared (backward at the last node) plus h(slope_sq).
    """
    _, s, _, groups = batch_field(traj.nodes, kset)
    ids, registry = class_ids(s.size, groups)
    dt = traj.dt
    diffs = np.diff(traj.nodes, axis=0)
    speed_sq = np.einsum("ij,ij->i", diffs, diffs) / dt**2
    dens = shape.h(s)
    dens[:-1] += speed_sq
    dens[-1] += speed_sq[-1]
    times = traj.times
    d = traj.dim
    header = "t," + ",".join(f"x{j + 1}" for j in range(d)) + ",action_density,slope_sq,class_id"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for k in range(traj.nodes.shape[0]):
            row = [_f(times[k]), *map(_f, traj.nodes[k]), _f(dens[k]), _f(s[k]), str(ids[k])]
            fh.write(",".join(row) + "\n")
    return registry


def read_trajectory_csv(path):
    """Read a trajectory CSV back; returns (delta, nodes), delta being the
    last time. A file without data rows, with a missing or non-numeric
    cell, or whose time column is not a uniform grid from 0 to a positive
    delta raises VoractError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        d = sum(1 for name in header if name.startswith("x"))
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise VoractError(f"{path}: no data rows")
    try:
        times = np.array([float(r[0]) for r in rows])
        nodes = np.array([[float(v) for v in r[1:1 + d]] for r in rows])
    except ValueError as exc:
        raise VoractError(f"{path}: {exc}") from None
    delta = float(times[-1])
    if not (delta > 0.0 and np.allclose(times, np.linspace(0.0, delta, times.size),
                                        rtol=0.0, atol=1e-9 * delta)):
        raise VoractError(f"{path}: the time column t must run uniformly from 0 to a "
                          "final time > 0")
    return delta, nodes


def events_payload(events: list[ShockEvent]) -> list[dict]:
    """Every :class:`ShockEvent` field but ``merged_class``, per event."""
    return [{k: v for k, v in asdict(ev).items() if k != "merged_class"} for ev in events]


def report_payload(report: RegularityReport, breakdown: ActionBreakdown | None = None) -> dict:
    payload = {
        "energy_constant": report.energy_constant,
        "energy_std_away_from_shocks": report.energy_std_away_from_shocks,
        "second_diff_violations": [
            {"node": n, "estimate": e, "bound": b} for n, e, b in report.second_diff_violations
        ],
        "max_second_diff_excess": report.max_second_diff_excess,
        "shock_count_by_kind": report.shock_count_by_kind,
        "momentum_residuals": [{"node": n, "residual": r} for n, r in report.momentum_residuals],
    }
    if breakdown is not None:
        payload["action"] = asdict(breakdown)
    return payload


def write_standard_plots(outdir, traj: Path, report: RegularityReport) -> None:
    """``position.svg``, ``energy.svg`` and ``slope.svg`` of a path and its report."""
    times = traj.times
    polyline_chart(os.path.join(outdir, "position.svg"), times,
                   [(f"x{j + 1}", traj.nodes[:, j]) for j in range(traj.dim)],
                   "position vs time")
    polyline_chart(os.path.join(outdir, "energy.svg"), times[:-1],
                   [("interval energy", report.energy_values)], "interval energy vs time")
    polyline_chart(os.path.join(outdir, "slope.svg"), times,
                   [("slope_sq", report.slope_sq)], "squared slope vs time")


def write_path_artifacts(outdir, traj: Path, kset: PointSet, shape: Shape,
                         report: RegularityReport, breakdown: ActionBreakdown,
                         plots: bool = True) -> list[tuple[int, ...]]:
    """Trajectory CSV, events, report and (optionally) plots of a solved path."""
    registry = write_trajectory_csv(os.path.join(outdir, "trajectory.csv"), traj, kset, shape)
    write_json(os.path.join(outdir, "events.json"), events_payload(report.events))
    write_json(os.path.join(outdir, "report.json"), report_payload(report, breakdown))
    if plots:
        write_standard_plots(outdir, traj, report)
    return registry


def write_particle_csvs(outdir, system: MagSystem, traj: Path) -> None:
    """``particle{i}.csv`` per particle: columns t, y1..yn (lifted), torus1..torusn."""
    header = ",".join(["t", *(f"{c}{j + 1}" for c in ("y", "torus") for j in range(system.n))])
    for i, (lift, tor) in enumerate(zip(*particle_paths(system, traj))):
        with open(os.path.join(outdir, f"particle{i + 1}.csv"), "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in np.column_stack([traj.times, lift, tor]):
                fh.write(",".join(map(_f, row)) + "\n")
