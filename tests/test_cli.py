import json
import os
import subprocess
import sys

import pytest

import voract
from voract import (ActionError, AnalysisError, GeometryError, MagError, PointSet, Shape,
                    SolverConfig, VoractError, artifacts, cli, minimize, presets,
                    regularity_report)
from voract.action import NODE_BUDGET
from voract.artifacts import read_trajectory_csv
from voract.cli import ConfigError, load_run_config, main
from voract import mag as mag_module
from voract.mag import build_mag, window_certificate


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


BASE_CONFIG = {
    "scenario": "test-scenario",
    "points": {"inline": [[-1.0], [1.0]]},
    "shape": {"kind": "identity"},
    "endpoints": {"start": [-0.2], "end": [0.2]},
    "delta": 1.0,
    "solver": {"M": 64, "refinements": 1, "starts": 2, "seed": 0},
    "plots": True,
}


def test_config_rejects_unknown_fields(tmp_path):
    bad = dict(BASE_CONFIG)
    bad["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        load_run_config(_write(tmp_path / "c.json", bad))
    bad2 = dict(BASE_CONFIG)
    bad2["solver"] = {"M": 64, "momentum": 0.9}
    with pytest.raises(ConfigError, match="momentum"):
        load_run_config(_write(tmp_path / "c2.json", bad2))
    bad3 = dict(BASE_CONFIG)
    del bad3["delta"]
    with pytest.raises(ConfigError, match="delta"):
        load_run_config(_write(tmp_path / "c3.json", bad3))


def test_solve_writes_artifacts_and_exit_code(tmp_path):
    cfg = _write(tmp_path / "cfg.json", BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    for name in ("trajectory.csv", "events.json", "report.json", "summary.json",
                 "position.svg", "energy.svg", "slope.svg"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["exit_ok"] is True
    assert summary["checks"]["energy"]["passed"] is True
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x1,action_density,slope_sq,class_id"


def test_solve_reproducible_byte_identical(tmp_path):
    cfg = _write(tmp_path / "cfg.json", BASE_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "events.json", "report.json", "summary.json",
                 "position.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_trajectory_round_trip(tmp_path):
    cfg = _write(tmp_path / "cfg.json", BASE_CONFIG)
    out = tmp_path / "run"
    main(["solve", "--config", cfg, "--out", str(out)])
    delta, nodes = read_trajectory_csv(out / "trajectory.csv")
    assert delta == 1.0
    assert nodes.shape == (65, 1)
    assert nodes[0, 0] == -0.2 and nodes[-1, 0] == 0.2


def test_path_artifacts_run_the_field_kernel_once(tmp_path, monkeypatch):
    # The trajectory CSV classifies the nodes; the slope plot reuses the
    # report's squared slopes instead of a second kernel call.
    kset, shape = PointSet([[-1.0], [1.0]]), Shape.identity()
    res = minimize([-0.2], [0.2], 1.0, kset, shape, SolverConfig(M=64, refinements=1, starts=1))
    report = regularity_report(res.path, kset, shape)
    rows, batch_field = [], artifacts.batch_field

    def counted(nodes, *args):
        rows.append(len(nodes))
        return batch_field(nodes, *args)

    monkeypatch.setattr(artifacts, "batch_field", counted)
    artifacts.write_path_artifacts(str(tmp_path), res.path, kset, shape, report, res.breakdown)
    assert rows == [65]
    assert (tmp_path / "slope.svg").exists() and (tmp_path / "trajectory.csv").exists()


def test_analyze_on_written_trajectory(tmp_path):
    cfg = _write(tmp_path / "cfg.json", BASE_CONFIG)
    run = tmp_path / "run"
    main(["solve", "--config", cfg, "--out", str(run)])
    out = tmp_path / "analysis"
    code = main(["analyze", "--trajectory", str(run / "trajectory.csv"),
                 "--inline", "[[-1.0],[1.0]]", "--out", str(out)])
    assert code == 0
    events = (out / "events.json").read_text()
    assert [e["kind"] for e in json.loads(events)] == ["effective_left", "effective_right"]
    # The CSV round-trips the nodes and the horizon, so the analysis repeats the solve's.
    assert events == (run / "events.json").read_text()


def test_analyze_plots(tmp_path):
    # --plots writes the solve's three charts, and the same bytes, from the CSV alone.
    cfg = _write(tmp_path / "cfg.json", BASE_CONFIG)
    run = tmp_path / "run"
    main(["solve", "--config", cfg, "--out", str(run)])
    out = tmp_path / "analysis"
    assert main(["analyze", "--trajectory", str(run / "trajectory.csv"),
                 "--inline", "[[-1.0],[1.0]]", "--plots", "--out", str(out)]) == 0
    for name in ("position.svg", "energy.svg", "slope.svg"):
        assert (out / name).read_bytes() == (run / name).read_bytes(), name
    bare = tmp_path / "bare"
    main(["analyze", "--trajectory", str(run / "trajectory.csv"),
          "--inline", "[[-1.0],[1.0]]", "--out", str(bare)])
    assert not list(bare.glob("*.svg"))


def test_oracle_command(tmp_path):
    cfg_payload = dict(BASE_CONFIG)
    cfg_payload["oracle_grid"] = {"lo": [-1.5], "hi": [1.5], "resolution": 0.01,
                                  "time_slices": 100, "vmax": 4.0}
    cfg = _write(tmp_path / "cfg.json", cfg_payload)
    out = tmp_path / "orc"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "oracle_summary.json").read_text())
    assert abs(summary["action"]["total"] - 0.72) <= 0.03


def test_oracle_default_grid(tmp_path):
    # BASE_CONFIG has the README config's points, endpoints and delta.
    out = tmp_path / "orc"
    assert main(["oracle", "--config", _write(tmp_path / "cfg.json", BASE_CONFIG),
                 "--out", str(out)]) == 0
    grid = json.loads((out / "oracle_summary.json").read_text())["grid"]
    assert grid == {"lo": [-1.2], "hi": [1.2], "resolution": 0.012, "time_slices": 100}
    _, nodes = read_trajectory_csv(str(out / "oracle_trajectory.csv"))
    assert nodes.shape == (101, 1) and nodes[0, 0] == -0.2 and nodes[-1, 0] == 0.2


def test_zones_command(tmp_path, capsys):
    code = main(["zones", "--inline", "[[-1.0],[1.0]]",
                 "--box-lo", "[-3]", "--box-hi", "[3]", "--probes", "200"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["balanced"] is True
    assert payload["beta"] == 1.0
    assert payload["witnessed_cells"] == 3


def test_zones_out_writes_what_it_prints(tmp_path, capsys):
    out = tmp_path / "zones"
    assert main(["zones", "--inline", "[[-1.0],[1.0]]", "--box-lo", "[-3]", "--box-hi", "[3]",
                 "--probes", "200", "--out", str(out)]) == 0
    assert (out / "zones.json").read_text() == capsys.readouterr().out


MAG_RUN = {"points": {"mag": {"base_points": [[0.0], [0.5]], "n": 1, "m": 2}},
           "endpoints": {"start": [0.2, 0.3], "end": [0.3, 0.2]}, "delta": 1.0,
           "solver": {"M": 64, "refinements": 1, "starts": 2, "seed": 0}, "plots": False}
# Window 2 is too small for endpoints near 2.6: the solve converges and passes
# the energy and regularity checks, but its path touches the window shell.
SHELL_POINTS = {"mag": {"base_points": [[0.0], [0.5]], "n": 1, "m": 2, "window": 2}}
SHELL_START, SHELL_END = [2.2, 0.3], [2.6, 0.2]
SHELL_SOLVER = {"M": 32, "refinements": 1, "starts": 1}


def test_mag_command(tmp_path):
    out = tmp_path / "mag"
    assert main(["solve", "--config", _write(tmp_path / "mag.json", MAG_RUN),
                 "--out", str(out)]) == 0
    assert not (out / "particle3.csv").exists()
    _, nodes = read_trajectory_csv(str(out / "trajectory.csv"))
    for i in range(2):  # lifted track and its reduction mod 1, per particle
        lines = (out / f"particle{i + 1}.csv").read_text().splitlines()
        assert lines[0] == "t,y1,torus1"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [r[1] for r in rows] == list(nodes[:, i])
        assert [r[2] for r in rows] == [r[1] % 1.0 for r in rows]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["window_certificate"] == {
        "passed": True, "value": 2, "tolerance": "no window-shell site in any class"}


def test_window_certificate_failure_exits_1(tmp_path):
    run = {"points": SHELL_POINTS, "endpoints": {"start": SHELL_START, "end": SHELL_END},
           "delta": 1.0, "solver": SHELL_SOLVER, "plots": False}
    out = tmp_path / "shell"
    assert main(["solve", "--config", _write(tmp_path / "run.json", run),
                 "--out", str(out)]) == 1
    failure = json.loads((out / "failure.json").read_text())
    assert failure["converged"] is True
    assert failure["failed_checks"] == ["window_certificate"]
    assert (out / "particle1.csv").exists()


def test_passing_rerun_removes_a_stale_failure(tmp_path):
    shell = {"points": SHELL_POINTS, "endpoints": {"start": SHELL_START, "end": SHELL_END},
             "delta": 1.0, "solver": SHELL_SOLVER, "plots": False}
    out = tmp_path / "shell"
    assert main(["solve", "--config", _write(tmp_path / "shell.json", shell),
                 "--out", str(out)]) == 1
    assert (out / "failure.json").exists()
    # Without the window the default one covers the endpoints and the run passes.
    wide = {**shell, "points": {"mag": {k: v for k, v in SHELL_POINTS["mag"].items()
                                        if k != "window"}}}
    assert main(["solve", "--config", _write(tmp_path / "wide.json", wide),
                 "--out", str(out)]) == 0
    assert not (out / "failure.json").exists()
    assert json.loads((out / "summary.json").read_text())["exit_ok"] is True


@pytest.mark.parametrize("first, second, stale", [
    (BASE_CONFIG, {**BASE_CONFIG, "plots": False},
     ("position.svg", "energy.svg", "slope.svg")),
    (MAG_RUN, BASE_CONFIG, ("particle1.csv", "particle2.csv")),
], ids=["plots-off", "mag-then-inline"])
def test_rerun_removes_the_files_it_does_not_write(first, second, stale, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("not the run's")

    def solve(cfg):
        assert main(["solve", "--config", _write(tmp_path / "cfg.json", cfg),
                     "--out", str(out)]) == 0
        return set(os.listdir(out))

    assert set(stale) <= solve(first)
    files = solve(second)
    assert not files & set(stale)
    assert {"trajectory.csv", "summary.json", "notes.txt"} <= files


@pytest.mark.parametrize("name", sorted(presets.RUN_CONFIGS))
def test_solve_presets_are_run_configs(name, tmp_path):
    # voract solve on a solve preset's run config writes the preset's directory,
    # less the preset's own checks.json and timing.json.
    cfg = _write(tmp_path / "cfg.json", presets.RUN_CONFIGS[name])
    solved, preset = tmp_path / "solve", tmp_path / "preset"
    assert main(["solve", "--config", cfg, "--out", str(solved)]) == 0
    outcome = presets.run_preset(name, str(preset))
    assert outcome.passed
    written = sorted(p.name for p in solved.iterdir())
    assert written == sorted(p.name for p in preset.iterdir()
                             if p.name not in ("checks.json", "timing.json"))
    for file in written:
        assert (solved / file).read_bytes() == (preset / file).read_bytes(), file
    if name == "example1-c02":
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "oracle")]) == 0
        oracle = json.loads((tmp_path / "oracle" / "oracle_summary.json").read_text())
        assert oracle["action"]["total"] == outcome.payload["oracle_action"]


def test_stability_entry_that_fails_the_certificate_exits_1(tmp_path):
    wide = {"mag": {**SHELL_POINTS["mag"], "window": 4}}
    payload = {"sequence": [{"points": points, "start": SHELL_START, "end": SHELL_END}
                            for points in (wide, SHELL_POINTS)],
               "delta": 1.0, "solver": SHELL_SOLVER}
    out = tmp_path / "stab"
    assert main(["stability", "--config", _write(tmp_path / "stab.json", payload),
                 "--out", str(out)]) == 1
    result = json.loads((out / "stability.json").read_text())
    assert [a["window_certificate"] for a in result["actions"]] == [True, False]
    assert all(a["converged"] for a in result["actions"])


def test_mag_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mag", "--base", "[[0.0],[0.5]]", "--n", "1", "--m", "2",
              "--start", "[0.2,0.3]", "--end", "[0.3,0.2]"])
    assert exc.value.code == 2
    assert "invalid choice: 'mag'" in capsys.readouterr().err


def test_stability_command(tmp_path):
    payload = {
        "sequence": [
            {"points": {"inline": [[-2.0], [2.0]]}, "start": [-0.02], "end": [0.02]},
            {"points": {"inline": [[-1.5], [1.5]]}, "start": [-0.02], "end": [0.02]},
        ],
        "delta": 1.0,
        "shape": {"kind": "identity"},
        "solver": {"M": 64, "refinements": 1, "starts": 2, "seed": 0},
    }
    cfg = _write(tmp_path / "stab.json", payload)
    out = tmp_path / "stab"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "stability.json").read_text())
    assert len(result["actions"]) == 2
    assert result["actions"][0]["action"] > result["actions"][1]["action"]
    assert [a["window_certificate"] for a in result["actions"]] == [None, None]


def test_mag_points_window_covers_the_endpoints(tmp_path, monkeypatch):
    # Base points alone give window 2; the endpoints near 2.6 need 4, as the
    # window policy picks, or the solved path fails the window certificate.
    windows, real_build = [], cli.build_mag

    def recording_build(*args):
        windows.append(args[3])
        return real_build(*args)

    monkeypatch.setattr(cli, "build_mag", recording_build)
    points = {"mag": {"base_points": [[0.0], [0.5]], "n": 1, "m": 2}}
    start, end = [2.2, 0.3], [2.6, 0.2]
    run = {"points": points, "endpoints": {"start": start, "end": end}, "delta": 1.0,
           "solver": {"M": 32, "refinements": 1, "starts": 1}}
    cfg = load_run_config(_write(tmp_path / "run.json", run))
    res = minimize(cfg["x0"], cfg["x1"], cfg["delta"], cfg["kset"], cfg["shape"], cfg["solver"])
    assert windows == [4] and cfg["system"].window == 4
    assert window_certificate(build_mag([[0.0], [0.5]], 1, 2, 4), res.path)
    assert not window_certificate(build_mag([[0.0], [0.5]], 1, 2, 2), res.path)
    stability = {"sequence": [{"points": points, "start": start, "end": end}], "delta": 1.0,
                 "solver": {"M": 16, "refinements": 1, "starts": 1}}
    assert main(["stability", "--config", _write(tmp_path / "stab.json", stability)]) == 0
    assert windows == [4, 4]


def test_mag_points_keep_the_configured_tie_tolerance(tmp_path):
    run = {"points": {"mag": {"base_points": [[0.0], [0.5]], "n": 1, "m": 2}},
           "tie_tolerance": 1e-6, "endpoints": {"start": [0.2, 0.3], "end": [0.3, 0.2]},
           "delta": 1.0}
    cfg = load_run_config(_write(tmp_path / "run.json", run))
    assert cfg["kset"].tie_tolerance == 1e-6
    assert cfg["system"].kset is cfg["kset"]
    entry = {"mag": {"base_points": [[0.0], [0.5]], "n": 1, "m": 2, "window": 1}}
    kset, system = cli._parse_points(entry, 1e-6)  # as a stability entry loads
    assert kset.tie_tolerance == 1e-6 and system.kset is kset
    assert system.window == 1 and system.kset.n == build_mag([[0.0], [0.5]], 1, 2, 1).kset.n
    assert cli._parse_points({"inline": [[0.0]]}, 1e-6)[1] is None


def test_preset_command(tmp_path):
    out = tmp_path / "pz"
    assert main(["preset", "zones", "--out", str(out)]) == 0
    checks = json.loads((out / "checks.json").read_text())
    assert checks["criterion"] == 9
    assert checks["passed"] is True


def test_config_error_exit_code(tmp_path):
    bad = _write(tmp_path / "bad.json", {"nonsense": True})
    assert main(["solve", "--config", bad]) == 2


@pytest.mark.parametrize("section,value", [
    ("solver", [16, 1]),
    ("points", [[-1.0], [1.0]]),
    ("endpoints", [[-0.2], [0.2]]),
    ("shape", "identity"),
])
def test_config_section_of_the_wrong_json_type_is_a_config_error(section, value, tmp_path,
                                                                  capsys):
    cfg = _write(tmp_path / "cfg.json", {**BASE_CONFIG, section: value})
    for config in (cfg, {**BASE_CONFIG, section: value}):  # a file and a parsed dict alike
        with pytest.raises(ConfigError, match=f"{section} must be a JSON object"):
            load_run_config(config)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("payload", [
    {**BASE_CONFIG, "delta": float("nan")},
    {**BASE_CONFIG, "solver": {**BASE_CONFIG["solver"], "M": 16.5}},
])
def test_solve_rejects_non_finite_and_non_integral_numbers(payload, tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("delta" in err or "M must be" in err)


GRID = {"lo": [-1.5], "hi": [1.5], "resolution": 0.05, "time_slices": 20, "vmax": 4.0}
ENTRY = {"points": {"inline": [[-2.0], [2.0]]}, "start": [-0.02], "end": [0.02]}
STABILITY = {"sequence": [ENTRY], "delta": 1.0,
             "solver": {"M": 16, "refinements": 1, "starts": 1}}
MAG_POINTS = {"base_points": [[0.0], [0.5]], "n": 1, "m": 2}


@pytest.mark.parametrize("command,payload,message", [
    ("solve", {**BASE_CONFIG, "delta": "abc"}, "delta must be a number"),
    ("solve", {**BASE_CONFIG, "tie_tolerance": [1]}, "tie_tolerance must be a number"),
    ("solve", {**BASE_CONFIG, "tie_tolerance": float("nan")},
     "tie_tolerance must be a finite number"),  # the point set's GeometryError
    ("solve", {**BASE_CONFIG, "shape": {"kind": "power", "p": "x"}}, "p must be a number"),
    ("solve", {**BASE_CONFIG, "shape": {"kind": "power"}}, "p must be a number"),
    ("solve", {**BASE_CONFIG, "shape": {"kind": "affine", "a": [2.0]}}, "a must be a number"),
    ("solve", {**BASE_CONFIG, "shape": {"kind": "affine", "b": "y"}}, "b must be a number"),
    ("oracle", {**BASE_CONFIG, "oracle_grid": {**GRID, "resolution": "fine"}},
     "resolution must be a number"),
    ("oracle", {**BASE_CONFIG, "oracle_grid": {**GRID, "vmax": [4.0]}}, "vmax must be a number"),
    ("stability", {**STABILITY, "delta": "abc"}, "delta must be a number"),
    ("stability", {**STABILITY, "sequence": [{**ENTRY, "tie_tolerance": "x"}]},
     "tie_tolerance must be a number"),
    ("stability", {k: v for k, v in STABILITY.items() if k != "sequence"},
     "stability config is missing 'sequence'"),
    ("stability", {**STABILITY, "sequence": [{k: v for k, v in ENTRY.items() if k != "end"}]},
     "sequence[0] is missing 'end'"),
    ("solve", {**BASE_CONFIG, "points": {"mag": {**MAG_POINTS, "n": "x"}}},
     "points.mag n must be an integer"),
    ("solve", {**BASE_CONFIG, "points": {"mag": {**MAG_POINTS, "n": 1.7}}},
     "points.mag n must be an integer"),
    ("solve", {**BASE_CONFIG, "points": {"inline": [["a"], [1]]}}, "points.inline must be numbers"),
    ("solve", {**BASE_CONFIG, "endpoints": {"start": ["a"], "end": [0.2]}},
     "endpoints start must be numbers"),
    ("solve", {**BASE_CONFIG, "delta": "1.0"}, "delta must be a number"),
    ("solve", {**BASE_CONFIG, "tie_tolerance": "1e-9"}, "tie_tolerance must be a number"),
    ("solve", {**BASE_CONFIG, "delta": True}, "delta must be a number"),
    ("solve", {**BASE_CONFIG, "delta": 10**400}, "delta must be a finite number"),
    ("solve", {**BASE_CONFIG, "tie_tolerance": 10**400}, "tie_tolerance must be a finite number"),
    ("solve", {**BASE_CONFIG, "solver": {**BASE_CONFIG["solver"], "M": 10**400}}, "M must be below"),
    ("solve", {**BASE_CONFIG, "solver": {**BASE_CONFIG["solver"], "M": NODE_BUDGET}},
     "M must be below"),
    ("stability", {k: v for k, v in STABILITY.items() if k != "delta"},
     "stability config is missing 'delta'"),
    ("solve", {**BASE_CONFIG, "solver": {**BASE_CONFIG["solver"], "grad_tol": 10**400}},
     "grad_tol must be a finite number"),
    ("solve", {**MAG_RUN, "endpoints": {"start": [float("inf"), 0.3], "end": [0.3, 0.2]}},
     "endpoints and base points must be finite numbers"),  # as 1e400 in the file reads
    ("solve", {**MAG_RUN, "endpoints": {"start": [float("nan"), 0.3], "end": [0.3, 0.2]}},
     "endpoints and base points must be finite numbers"),
    ("stability", {**STABILITY, "sequence": [
        {"points": {"mag": MAG_POINTS}, "start": [float("inf"), 0.3], "end": [0.3, 0.2]}]},
     "endpoints and base points must be finite numbers"),
    ("solve", {**MAG_RUN, "points": {"mag": {**MAG_POINTS, "base_points": []}}},
     "expected 2 base points of dimension 1"),
])
def test_config_number_that_is_not_a_number_exits_2(command, payload, message, tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_shape_that_overflows_exits_2(tmp_path, capsys):
    payload = {**BASE_CONFIG, "shape": {"kind": "affine", "a": 1e308},
               "solver": {**BASE_CONFIG["solver"], "M": 16}}
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "shape overflows" in err


def test_stability_of_mixed_dimensions_exits_2_before_solving(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mag_module, "minimize", lambda *args: pytest.fail("solved"))
    payload = {**STABILITY, "sequence": [
        ENTRY, {"points": {"inline": [[0.0, 0.0], [1.0, 0.0]]}, "start": [0.2, 0.1],
                "end": [0.8, 0.1]}]}
    out = tmp_path / "stab"
    assert main(["stability", "--config", _write(tmp_path / "stab.json", payload),
                 "--out", str(out)]) == 2
    assert "one dimension" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["zones", "--box-lo", "[0]", "--box-hi", "[1]"],
    ["analyze", "--trajectory", "missing.csv"],
])
def test_missing_site_set_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {"solver": {"M": 8, "refinements": 3}},               # ActionError: coarse mesh below 4
    {"delta": -1.0},                                      # ActionError: nonpositive horizon
    {"points": {"mag": {**MAG_RUN["points"]["mag"], "m": 6}}},  # MagError: 2 base points
    {"endpoints": {"start": ["a", 0.3], "end": [0.3, 0.2]}},    # ConfigError: not numbers
])
def test_mag_input_errors_exit_2(extra, tmp_path, capsys):
    cfg = _write(tmp_path / "mag.json", {**MAG_RUN, **extra})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "mag")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("grid", [
    {"lo": [-0.1], "hi": [1.5]},  # start -0.2 outside the box
    {"vmax": 0.0},
    {"resolution": 1e-300},  # GridBudgetError before the axes are built
    {"time_slices": 10, "vmax": 1e308},  # GridBudgetError: vmax * dt / resolution is inf
])
def test_oracle_input_errors_exit_2(grid, tmp_path, capsys):
    payload = dict(BASE_CONFIG)
    payload["oracle_grid"] = {"lo": [-1.5], "hi": [1.5], "resolution": 0.05,
                              "time_slices": 20, "vmax": 4.0, **grid}
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "orc")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "orc").exists()


LINE_CSV = "t,x1\n" + "".join(f"{k / 8},{0.05 * k - 0.2}\n" for k in range(9))


def _crossing_csv(times) -> str:
    """A 1-D path crossing the bisector of the sites -1 and 1, at ``times``."""
    nodes = [0.5 * (2.0 * k / (len(times) - 1) - 1.0) for k in range(len(times))]
    return "t,x1\n" + "".join(f"{t!r},{x!r}\n" for t, x in zip(times, nodes))


@pytest.mark.parametrize("csv, sites, message", [
    (LINE_CSV, "[[-1.0,0.0],[1.0,0.0]]", "1-D path"),  # AnalysisError, not a matmul error
    ("t,x1,action_density,slope_sq,class_id\n", "[[-1.0],[1.0]]", "no data rows"),
    (LINE_CSV.replace("0.0,", "abc,"), "[[-1.0],[1.0]]", "abc"),
    # The time column must be a uniform grid from 0: not shifted, not stretched, not reversed.
    (_crossing_csv([5.0 + k / 64 for k in range(65)]), "[[-1.0],[1.0]]", "time column"),
    (_crossing_csv([(k / 64) ** 2 for k in range(65)]), "[[-1.0],[1.0]]", "time column"),
    (_crossing_csv([1.0 - k / 64 for k in range(65)]), "[[-1.0],[1.0]]", "time column"),
], ids=["dimension-mismatch", "header-only", "non-numeric", "times-offset", "times-squared",
        "times-reversed"])
def test_analyze_input_errors_exit_2(csv, sites, message, tmp_path, capsys):
    traj = tmp_path / "trajectory.csv"
    traj.write_text(csv)
    assert main(["analyze", "--trajectory", str(traj), "--inline", sites,
                 "--out", str(tmp_path / "analysis")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("flag", [["--window", "3"], ["--delta", "1"]])
def test_analyze_takes_no_window_or_delta(flag, tmp_path, capsys):
    # The classification rule is fixed and delta comes from the CSV's time column.
    traj = tmp_path / "trajectory.csv"
    traj.write_text(LINE_CSV)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--trajectory", str(traj), "--inline", "[[-1.0],[1.0]]",
              "--out", str(tmp_path / "analysis"), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--probes", "-5"], ["--seed", "-1"]])
def test_zones_input_errors_exit_2(extra, capsys):
    assert main(["zones", "--inline", "[[-1.0],[1.0]]", "--box-lo", "[-3]", "--box-hi", "[3]",
                 *extra]) == 2
    assert "must be nonnegative" in capsys.readouterr().err


def test_zones_probe_budget_exits_2(capsys):
    # 10^11 probes would take 745 GiB; the count is refused before drawing.
    assert main(["zones", "--inline", "[[-1.0],[1.0]]", "--box-lo", "[-3]", "--box-hi", "[3]",
                 "--probes", "100000000000"]) == 2
    assert "exceed the budget" in capsys.readouterr().err


@pytest.mark.parametrize("command,payload,message", [
    *(("oracle", {**BASE_CONFIG, "oracle_grid": {k: v for k, v in GRID.items() if k != key}},
       f"oracle_grid is missing {key!r}") for key in ("lo", "hi", "resolution", "time_slices")),
    ("solve", {**BASE_CONFIG, "points": {"file": 0}}, "points file must be a JSON string"),
    ("solve", {**BASE_CONFIG, "scenario": ["a"]}, "scenario must be a JSON string"),
    ("solve", {**BASE_CONFIG, "plots": "no"}, "plots must be a JSON boolean"),
    ("stability", {**STABILITY, "sequence": 5}, "sequence must be a JSON array"),
    ("stability", {**STABILITY, "sequence": []}, "site-set sequence is empty"),
], ids=["grid-no-lo", "grid-no-hi", "grid-no-resolution", "grid-no-time_slices",
        "points-file-number",
        "scenario-list", "plots-string", "sequence-number", "sequence-empty"])
def test_run_config_field_of_the_wrong_json_type_exits_2(command, payload, message, tmp_path,
                                                         capsys):
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("field,value", [("checks", ["energy"]), ("output_dir", "out")])
def test_run_config_has_no_checks_or_output_dir(field, value, tmp_path, capsys):
    # solve always runs both checks; the output directory is --out or the default.
    cfg = _write(tmp_path / "cfg.json", {**BASE_CONFIG, field: value})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: unknown fields in run config: {field}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("payload,message", [
    ({**BASE_CONFIG, "points": {"inline": [[-1.0, 0.0], [1.0, 0.0]]},
      "endpoints": {"start": [-0.2, 0.0], "end": [0.2, 0.0, 0.1]}}, "endpoints end must be 2"),
    ({**BASE_CONFIG, "oracle_grid": [1]}, "oracle_grid must be a JSON object"),
    ({**BASE_CONFIG, "oracle_grid": {**GRID, "time_slices": 10.5}}, "time_slices must be"),
    ({**BASE_CONFIG, "surprise": 1}, "unknown fields in run config: surprise"),
    ({k: v for k, v in BASE_CONFIG.items() if k != "endpoints"},
     "run config is missing 'endpoints'"),
], ids=["endpoint-dimension", "grid-list", "grid-fractional-slices", "unknown-field",
        "missing-key"])
def test_solve_and_oracle_validate_one_config_alike(command, payload, message, tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    # load_run_config raises the same error from the parsed dict as from the file.
    raised = []
    for config in (cfg, payload):
        with pytest.raises(VoractError) as exc:
            load_run_config(config)
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0] == raised[1]


@pytest.mark.parametrize("sites,lo,hi,message", [
    ("[[-1.0],[1.0]]", "null", "[3]", "probe_box corners must be finite"),
    ("[[1e160],[-1e160]]", "[-1e161]", "[1e161]", "squared diagonal overflows"),
], ids=["nan-corner", "huge-sites"])
def test_zones_of_non_finite_boxes_exit_2(sites, lo, hi, message, capsys):
    assert main(["zones", "--inline", sites, "--box-lo", lo, "--box-hi", hi]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err


def test_points_file_error_exits_2(tmp_path, capsys):
    # The loader's GeometryError (test_geometry covers its cases), not a ValueError.
    pts = tmp_path / "points.txt"
    pts.write_text("1 2\n-1.0\nabc\n")
    assert main(["zones", "--points", str(pts), "--box-lo", "[-3]", "--box-hi", "[3]"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {pts}: could not convert")


def test_error_classes_share_one_base():
    for cls in (GeometryError, ActionError, AnalysisError, MagError, ConfigError):
        assert issubclass(cls, VoractError)
    assert issubclass(VoractError, ValueError)


def test_points_file_config(tmp_path):
    pts = tmp_path / "points.txt"
    pts.write_text("1 2\n-1.0\n1.0\n")
    payload = dict(BASE_CONFIG)
    payload["points"] = {"file": str(pts)}
    cfg = _write(tmp_path / "cfg.json", payload)
    parsed = load_run_config(cfg)
    assert parsed["kset"].n == 2


# Runs in a fresh interpreter: this test process has loaded scipy.optimize already.
IMPORT_CONTRACT = """
import sys
import voract, voract.cli
from voract import (PointSet, Polytope, Shape, SolverConfig, build_mag, constrained_minimize,
                    interior_balance_verdict, minimize, regularity_report, zone_table)
line, shape = PointSet([[-1.0], [1.0]]), Shape.identity()
res = minimize([-0.2], [0.2], 1.0, line, shape, SolverConfig(M=32, refinements=1, starts=3))
assert [s.label for s in res.starts][:2] == ["straight", "dp"]
regularity_report(res.path, line, shape)
zone_table(line, ([-3.0], [3.0]), probe_count=200, seed=0)
interior_balance_verdict(build_mag([[0.0], [0.5]], 1, 2, 1), probe_count=200, seed=0)
assert "scipy.optimize" not in sys.modules, "scipy.optimize was loaded"
box = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
con = constrained_minimize([0.0, 0.2], [0.0, 0.8], 1.0, box, [-1.0, 0.5], shape,
                           SolverConfig(M=64, refinements=1, starts=2, seed=0))
assert con.converged and "scipy.optimize" in sys.modules
"""


def test_only_polytopes_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(voract.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_CONTRACT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
