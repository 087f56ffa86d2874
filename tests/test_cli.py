import json

import pytest

from voract import ActionError, AnalysisError, GeometryError, MagError, VoractError
from voract.artifacts import read_trajectory_csv
from voract.cli import ConfigError, load_run_config, main


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


def test_analyze_on_written_trajectory(tmp_path):
    cfg = _write(tmp_path / "cfg.json", BASE_CONFIG)
    run = tmp_path / "run"
    main(["solve", "--config", cfg, "--out", str(run)])
    out = tmp_path / "analysis"
    code = main(["analyze", "--trajectory", str(run / "trajectory.csv"),
                 "--inline", "[[-1.0],[1.0]]", "--out", str(out)])
    assert code == 0
    events = json.loads((out / "events.json").read_text())
    assert [e["kind"] for e in events] == ["effective_left", "effective_right"]


def test_oracle_command(tmp_path):
    cfg_payload = dict(BASE_CONFIG)
    cfg_payload["oracle_grid"] = {"lo": [-1.5], "hi": [1.5], "resolution": 0.01,
                                  "time_slices": 100, "vmax": 4.0}
    cfg = _write(tmp_path / "cfg.json", cfg_payload)
    out = tmp_path / "orc"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "oracle_summary.json").read_text())
    assert abs(summary["action"]["total"] - 0.72) <= 0.03


def test_zones_command(tmp_path, capsys):
    code = main(["zones", "--inline", "[[-1.0],[1.0]]",
                 "--box-lo", "[-3]", "--box-hi", "[3]", "--probes", "200"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["balanced"] is True
    assert payload["beta"] == 1.0
    assert payload["witnessed_cells"] == 3


def test_mag_command(tmp_path):
    out = tmp_path / "mag"
    code = main(["mag", "--base", "[[0.0],[0.5]]", "--n", "1", "--m", "2",
                 "--start", "[0.2,0.3]", "--end", "[0.3,0.2]",
                 "--mesh", "64", "--refinements", "1", "--starts", "2",
                 "--out", str(out)])
    assert code == 0
    assert (out / "particle1.csv").exists() and (out / "particle2.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["window_certificate"] is True


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


def test_preset_command(tmp_path):
    out = tmp_path / "pz"
    assert main(["preset", "zones", "--out", str(out)]) == 0
    checks = json.loads((out / "checks.json").read_text())
    assert checks["criterion"] == 9
    assert checks["passed"] is True


def test_config_error_exit_code(tmp_path):
    bad = _write(tmp_path / "bad.json", {"nonsense": True})
    assert main(["solve", "--config", bad]) == 2


@pytest.mark.parametrize("argv", [
    ["zones", "--box-lo", "[0]", "--box-hi", "[1]"],
    ["analyze", "--trajectory", "missing.csv"],
])
def test_missing_site_set_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


MAG_ARGS = ["mag", "--base", "[[0.0],[0.5]]", "--n", "1", "--m", "2",
            "--start", "[0.2,0.3]", "--end", "[0.3,0.2]"]


@pytest.mark.parametrize("extra", [
    ["--mesh", "8", "--refinements", "3"],  # ActionError: coarse mesh below 4
    ["--delta", "-1"],                       # ActionError: nonpositive horizon
    ["--m", "6"],                            # MagError: 6 particles, 2 base points
])
def test_mag_input_errors_exit_2(extra, tmp_path, capsys):
    assert main(MAG_ARGS + extra + ["--out", str(tmp_path / "mag")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("grid", [
    {"lo": [-0.1], "hi": [1.5]},  # start -0.2 outside the box
    {"vmax": 0.0},
])
def test_oracle_input_errors_exit_2(grid, tmp_path, capsys):
    payload = dict(BASE_CONFIG)
    payload["oracle_grid"] = {"lo": [-1.5], "hi": [1.5], "resolution": 0.05,
                              "time_slices": 20, "vmax": 4.0, **grid}
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "orc")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
