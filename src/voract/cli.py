"""Command-line interface: configured runs, analysis, oracles and presets.

Subcommands:

- ``solve``      minimize a configured scenario; write trajectory CSV,
                 events/report/summary JSON and SVG plots, plus per-particle
                 tracks and the window certificate check for a ``points.mag``
                 particle system; exit 0 iff the solve converged and every
                 check passed.
- ``analyze``    re-analyze a trajectory CSV against a site set.
- ``oracle``     run the dynamic-programming oracle for a scenario.
- ``zones``      print the zone table of a site set as JSON.
- ``stability``  solve a sequence of scenarios and report their actions;
                 ``points.mag`` entries are window-certified.
- ``preset``     run a named acceptance preset.

Exit codes: 0 when the command succeeded, 1 when it ran but a check (a
window certificate included) failed, 2 for invalid input or usage (an
``error:`` line on stderr).

Configuration is strict JSON: unknown fields are rejected so presets and
configs stay honest test fixtures. All artifacts are deterministic for a
fixed config and seed; wall-clock timing is only logged, never stored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import artifacts
from .action import (
    GridSpec,
    Path,
    Shape,
    SolverConfig,
    dp_oracle,
    evaluate_action,
    minimize,
)
from .analysis import regularity_report
from .geometry import PointSet, VoractError, load_point_set
from .mag import MagSystem, build_mag, default_window, stability_run, window_certificate
from .potential import zone_table
from .presets import PRESET_NAMES, _energy_tol, run_preset

__all__ = ["main", "ConfigError", "load_run_config", "execute_run"]


class ConfigError(VoractError):
    """Malformed or unknown configuration fields."""


def _require_keys(obj: dict, allowed: set[str], context: str, required=()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {context}: {', '.join(sorted(unknown))}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{context} is missing {key!r}")


def _number(spec: dict, key: str, context: str, default=None, integer: bool = False):
    """``spec[key]`` (``default`` when absent) as a float, or as it is if
    ``integer``; a ConfigError unless it is a JSON number (an integer if
    ``integer``), never a string or a bool, that a float can hold."""
    value = spec.get(key, default)
    kind, name = (int, "an integer") if integer else ((int, float), "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{context} {key} must be {name}, got {value!r}")
    try:
        return value if integer else float(value)
    except OverflowError:
        raise ConfigError(f"{context} {key} must be a finite number, "
                          "got an integer too large for a float") from None


def _typed(spec: dict, key: str, kind: type, context: str, default=None):
    """``spec[key]`` (``default`` when absent); a ConfigError unless it is a
    ``kind`` (``str``, ``bool`` or ``list``)."""
    if key in spec and not isinstance(spec[key], kind):
        name = {str: "string", bool: "boolean", list: "array"}[kind]
        raise ConfigError(f"{context} {key} must be a JSON {name}, got {spec[key]!r}")
    return spec.get(key, default)


def _array(value, context: str) -> np.ndarray:
    """``value`` as a float array, else a ConfigError naming ``context``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{context} must be numbers, got {value!r}") from None


def _parse_points(spec: dict, tie_tolerance: float,
                  *endpoints) -> tuple[PointSet, MagSystem | None]:
    """The site set of a ``points`` spec and, for ``mag`` points, its particle
    system (whose ``kset`` is that site set), else None."""
    _require_keys(spec, {"inline", "file", "mag"}, "points")
    given = [k for k in ("inline", "file", "mag") if k in spec]
    if len(given) != 1:
        raise ConfigError("points needs exactly one of inline/file/mag")
    if "inline" in spec:
        return PointSet(_array(spec["inline"], "points.inline"),
                        tie_tolerance=tie_tolerance), None
    if "file" in spec:
        return load_point_set(_typed(spec, "file", str, "points"),
                              tie_tolerance=tie_tolerance), None
    mag = spec["mag"]
    _require_keys(mag, {"base_points", "n", "m", "window"}, "points.mag", ("base_points", "n", "m"))
    base = _array(mag["base_points"], "points.mag base_points")
    n, m = (_number(mag, k, "points.mag", integer=True) for k in ("n", "m"))
    window = (_number(mag, "window", "points.mag", integer=True) if "window" in mag
              else default_window(base, n, m, *endpoints))
    system = build_mag(base, n, m, window)
    kset = PointSet(system.kset.points, tie_tolerance=tie_tolerance)
    return kset, replace(system, kset=kset)


def _cli_points(args) -> PointSet:
    """Site set of the ``--points`` file or the ``--inline`` JSON list."""
    spec = {"file": args.points} if args.points else {"inline": json.loads(args.inline)}
    return _parse_points(spec, args.tie_tolerance)[0]


def _parse_shape(spec: dict | None) -> Shape:
    if spec is None:
        return Shape.identity()
    _require_keys(spec, {"kind", "p", "a", "b"}, "shape")
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return Shape.identity()
    if kind == "power":
        return Shape.power(_number(spec, "p", "shape"))
    if kind == "affine":
        return Shape.affine(_number(spec, "a", "shape", 1.0), _number(spec, "b", "shape", 0.0))
    raise ConfigError(f"unknown shape kind {kind!r}")


def _parse_solver(spec: dict | None) -> SolverConfig:
    if spec is None:
        return SolverConfig()
    allowed = {"M", "refinements", "starts", "seed", "grad_tol", "max_iters"}
    _require_keys(spec, allowed, "solver")
    kwargs = {k: spec[k] for k in allowed if k in spec}
    return SolverConfig(**kwargs)


def load_run_config(path: str) -> dict:
    """Read and validate a run configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    allowed = {"scenario", "points", "tie_tolerance", "shape", "endpoints", "delta",
               "solver", "oracle_grid", "output_dir", "checks", "plots"}
    _require_keys(raw, allowed, "run config", ("points", "endpoints", "delta"))
    _require_keys(raw["endpoints"], {"start", "end"}, "endpoints", ("start", "end"))
    checks = _typed(raw, "checks", list, "run config", ["energy", "regularity"])
    bad = [c for c in checks if c not in ("energy", "regularity")]
    if bad:
        raise ConfigError(f"unknown checks: {bad}")
    tie = _number(raw, "tie_tolerance", "run config", 1e-9)
    x0, x1 = (_array(raw["endpoints"][k], f"endpoints {k}") for k in ("start", "end"))
    kset, system = _parse_points(raw["points"], tie, x0, x1)
    return {
        "scenario": _typed(raw, "scenario", str, "run config", "run"),
        "kset": kset, "system": system,
        "shape": _parse_shape(raw.get("shape")),
        "x0": x0, "x1": x1,
        "delta": _number(raw, "delta", "run config"),
        "solver": _parse_solver(raw.get("solver")),
        "checks": checks,
        "plots": _typed(raw, "plots", bool, "run config", True),
        "output_dir": _typed(raw, "output_dir", str, "run config"),
        "oracle_grid": raw.get("oracle_grid"),
    }


def _parse_grid(spec: dict | None, cfg: dict) -> GridSpec:
    if spec is None:
        x0, x1 = cfg["x0"], cfg["x1"]
        margin = max(1.0, 0.5 * float(np.linalg.norm(x1 - x0)))
        lo = np.minimum(x0, x1) - margin
        hi = np.maximum(x0, x1) + margin
        res = float(np.max(hi - lo)) / 200.0
        return GridSpec(lo=lo, hi=hi, resolution=res, time_slices=100)
    _require_keys(spec, {"lo", "hi", "resolution", "time_slices", "vmax"}, "oracle_grid",
                  ("lo", "hi", "resolution", "time_slices"))
    return GridSpec(lo=_array(spec["lo"], "oracle_grid lo"),
                    hi=_array(spec["hi"], "oracle_grid hi"),
                    resolution=_number(spec, "resolution", "oracle_grid"),
                    time_slices=spec["time_slices"],
                    vmax=None if spec.get("vmax") is None else _number(spec, "vmax", "oracle_grid"))


def execute_run(cfg: dict, outdir: str) -> tuple[int, dict]:
    """solve -> analyze -> report; returns (exit_code, summary payload)."""
    os.makedirs(outdir, exist_ok=True)
    t0 = time.perf_counter()
    result = minimize(cfg["x0"], cfg["x1"], cfg["delta"], cfg["kset"], cfg["shape"],
                      cfg["solver"])
    elapsed = time.perf_counter() - t0
    kset, shape = cfg["kset"], cfg["shape"]
    report = regularity_report(result.path, kset, shape)

    measured = {"energy": (report.energy_std_away_from_shocks, _energy_tol(result.path)),
                "regularity": (len(report.second_diff_violations), 0)}
    check_results = {name: {"passed": value <= tol, "value": value, "tolerance": tol}
                     for name, (value, tol) in measured.items() if name in cfg["checks"]}
    system = cfg["system"]
    if system is not None:
        check_results["window_certificate"] = {
            "passed": window_certificate(system, result.path), "value": system.window,
            "tolerance": "no window-shell site in any class"}
        artifacts.write_particle_csvs(outdir, system, result.path)
    ok = result.converged and all(c["passed"] for c in check_results.values())

    registry = artifacts.write_path_artifacts(outdir, result.path, kset, shape, report,
                                              result.breakdown, cfg["plots"])
    summary = {
        "scenario": cfg["scenario"],
        "converged": result.converged,
        "grad_norm": result.grad_norm,
        "action": asdict(result.breakdown),
        "prev_stage_action": evaluate_action(result.prev_path, kset, shape).total,
        "starts": [
            {"label": s.label, "action": s.action, "converged": s.converged,
             "dev_from_best": s.dev_from_best}
            for s in result.starts
        ],
        "checks": check_results,
        "class_registry": [list(c) for c in registry],
        "exit_ok": ok,
    }
    artifacts.write_json(os.path.join(outdir, "summary.json"), summary)
    if not ok:
        artifacts.write_json(os.path.join(outdir, "failure.json"), {
            "scenario": cfg["scenario"],
            "converged": result.converged,
            "failed_checks": [k for k, v in check_results.items() if not v["passed"]],
        })
    print(f"[solve] {cfg['scenario']}: action={result.breakdown.total!r} "
          f"converged={result.converged} checks_ok={ok} ({elapsed:.1f}s)")
    return (0 if ok else 1), summary


def _cmd_solve(args) -> int:
    cfg = load_run_config(args.config)
    outdir = args.out or cfg.get("output_dir") or "run-output"
    code, _ = execute_run(cfg, outdir)
    return code


def _cmd_oracle(args) -> int:
    cfg = load_run_config(args.config)
    outdir = args.out or cfg.get("output_dir") or "oracle-output"
    grid = _parse_grid(cfg.get("oracle_grid"), cfg)
    path = dp_oracle(cfg["x0"], cfg["x1"], cfg["delta"], cfg["kset"], cfg["shape"], grid)
    breakdown = evaluate_action(path, cfg["kset"], cfg["shape"])
    os.makedirs(outdir, exist_ok=True)
    artifacts.write_trajectory_csv(os.path.join(outdir, "oracle_trajectory.csv"),
                                   path, cfg["kset"], cfg["shape"])
    artifacts.write_json(os.path.join(outdir, "oracle_summary.json"), {
        "scenario": cfg["scenario"],
        "action": asdict(breakdown),
        "grid": {"lo": grid.lo, "hi": grid.hi, "resolution": grid.resolution,
                 "time_slices": grid.time_slices},
    })
    print(f"[oracle] {cfg['scenario']}: action={breakdown.total!r}")
    return 0


def _cmd_analyze(args) -> int:
    delta, nodes = artifacts.read_trajectory_csv(args.trajectory)
    kset = _cli_points(args)
    shape = _parse_shape(json.loads(args.shape) if args.shape else None)
    traj = Path(delta if args.delta is None else args.delta, nodes)
    report = regularity_report(traj, kset, shape, window=args.window)
    outdir = args.out or "analysis-output"
    os.makedirs(outdir, exist_ok=True)
    artifacts.write_json(os.path.join(outdir, "events.json"),
                         artifacts.events_payload(report.events))
    artifacts.write_json(os.path.join(outdir, "report.json"), artifacts.report_payload(report))
    if args.plots:
        artifacts.write_standard_plots(outdir, traj, report)
    print(f"[analyze] events={len(report.events)} "
          f"energy_std={report.energy_std_away_from_shocks!r} "
          f"violations={len(report.second_diff_violations)}")
    return 0


def _cmd_zones(args) -> int:
    kset = _cli_points(args)
    lo = _array(json.loads(args.box_lo), "--box-lo")
    hi = _array(json.loads(args.box_hi), "--box-hi")
    table = zone_table(kset, (lo, hi), probe_count=args.probes, seed=args.seed)
    payload = {
        "etas": table.etas,
        "beta": None if not np.isfinite(table.beta) else table.beta,
        "balanced": table.balanced,
        "balanced_note": "verdict certified on witnessed cells only",
        "witnessed_cells": table.witnessed_cells,
        "unbalanced_witness": (None if table.unbalanced_witness is None
                               else [list(c) for c in table.unbalanced_witness]),
        "coverage": table.coverage,
    }
    text = json.dumps(artifacts._jsonable(payload), indent=1, sort_keys=True)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "zones.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_stability(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    _require_keys(raw, {"sequence", "delta", "shape", "solver"}, "stability config",
                  ("sequence", "delta"))
    shape = _parse_shape(raw.get("shape"))
    solver = _parse_solver(raw.get("solver"))
    delta = _number(raw, "delta", "stability config")
    ksets, systems, ends = [], [], []
    for i, entry in enumerate(_typed(raw, "sequence", list, "stability config")):
        context = f"sequence[{i}]"
        _require_keys(entry, {"points", "tie_tolerance", "start", "end"}, context,
                      ("points", "start", "end"))
        x0, x1 = (_array(entry[k], f"{context} {k}") for k in ("start", "end"))
        tie = _number(entry, "tie_tolerance", context, 1e-9)
        kset, system = _parse_points(entry["points"], tie, x0, x1)
        ksets.append(kset)
        systems.append(system)
        ends.append((x0, x1))
    actions = []
    results = stability_run(ksets, ends, delta, shape, solver)
    for i, (res, system) in enumerate(zip(results, systems)):
        cert = None if system is None else window_certificate(system, res.path)
        actions.append({"index": i, "action": res.breakdown.total, "converged": res.converged,
                        "window_certificate": cert})
        print(f"[stability] {i}: action={res.breakdown.total!r} converged={res.converged} "
              f"window_certificate={cert}")
    gaps = [abs(actions[i]["action"] - actions[i + 1]["action"]) for i in range(len(actions) - 1)]
    payload = {"actions": actions, "gaps": gaps}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        artifacts.write_json(os.path.join(args.out, "stability.json"), payload)
    return 1 if any(a["window_certificate"] is False for a in actions) else 0


def _cmd_preset(args) -> int:
    outcome = run_preset(args.name, outdir=args.out)
    for check in outcome.checks:
        status = "PASS" if check.passed else "FAIL"
        val = "" if check.value is None else f" value={check.value!r}"
        print(f"[{status}] {outcome.name}/{check.name}{val} ({check.tolerance})")
    print(f"[preset] {outcome.name}: criterion {outcome.criterion} "
          f"{'PASSED' if outcome.passed else 'FAILED'} in {outcome.runtime:.1f}s")
    return 0 if outcome.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="voract",
        description="Action minimization over site-set distance potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimize a configured scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="dynamic-programming oracle for a scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("analyze", help="re-analyze a trajectory CSV")
    p.add_argument("--trajectory", required=True)
    sites = p.add_mutually_exclusive_group(required=True)
    sites.add_argument("--points", default=None, help="point-set file (d N header)")
    sites.add_argument("--inline", default=None, help="inline JSON point list")
    p.add_argument("--shape", default=None, help="shape JSON, e.g. '{\"kind\":\"identity\"}'")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--tie-tolerance", type=float, default=1e-9)
    p.add_argument("--plots", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("zones", help="zone table of a site set as JSON")
    sites = p.add_mutually_exclusive_group(required=True)
    sites.add_argument("--points", default=None)
    sites.add_argument("--inline", default=None)
    p.add_argument("--box-lo", required=True, help="JSON vector")
    p.add_argument("--box-hi", required=True, help="JSON vector")
    p.add_argument("--probes", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tie-tolerance", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_zones)

    p = sub.add_parser("stability", help="solve a sequence of scenarios")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("preset", help=f"run a named preset: {', '.join(PRESET_NAMES)}")
    p.add_argument("name", choices=list(PRESET_NAMES))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_preset)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VoractError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
