import numpy as np
import pytest

from voract import (
    AnalysisError,
    Path,
    PointSet,
    Shape,
    detect_shocks,
    jump_residual,
    opt_class,
    regularity_report,
)
from voract import analysis as analysis_module
from conftest import waiting_nodes


def crossing_nodes(m: int) -> np.ndarray:
    """Symmetric transversal crossing of the two-site scenario (endpoints at
    the sites): sinh branches with the middle node exactly on the bisector."""
    t = np.linspace(0.0, 1.0, m + 1)
    x = np.where(t <= 0.5,
                 -1.0 + np.sinh(t) / np.sinh(0.5),
                 1.0 - np.sinh(1.0 - t) / np.sinh(0.5))
    return x[:, None]


def axis_arrival_nodes(m: int) -> np.ndarray:
    """Closed-form minimizer of the triangle scenario: sinh profile along the
    axis, arriving at the origin exactly at the final time."""
    t = np.linspace(0.0, 1.0, m + 1)
    y = -np.sinh(1.0 - t) / np.sinh(1.0)
    y[-1] = 0.0
    return np.stack([np.zeros_like(t), y], axis=1)


# ---------------------------------------------------------------------------
# per-interval energy of regularity reports


def test_energy_constant_path_at_site(line_k):
    shape = Shape.affine(1.0, 0.3)
    p = Path(1.0, np.full((33, 1), 1.0))
    rep = regularity_report(p, line_k, shape)
    assert np.allclose(rep.energy_values, -0.3)
    assert rep.energy_constant == pytest.approx(-0.3)


def test_energy_zero_on_waiting_minimizer(line_k, identity_shape):
    p = Path(1.0, waiting_nodes(0.2, 512))
    rep = regularity_report(p, line_k, identity_shape)
    # zero-energy branch: the median interval energy vanishes with dt
    assert abs(rep.energy_constant) <= 5.0 * p.dt


def test_energy_nonzero_constant_on_crossing(line_k, identity_shape):
    p = Path(1.0, crossing_nodes(512))
    rep = regularity_report(p, line_k, identity_shape)
    exact = 1.0 / np.sinh(0.5) ** 2  # cosh^2 - sinh^2 on the branch
    assert rep.energy_constant == pytest.approx(exact, abs=0.05)
    assert abs(rep.energy_constant) > 1.0  # clearly away from zero

    inner = rep.energy_values[3:-3]
    keep = np.abs(np.arange(3, 3 + inner.size) - 256) > 4
    assert np.std(inner[keep]) <= 5.0 * p.dt


def test_energy_needs_four_intervals(line_k, identity_shape):
    with pytest.raises(AnalysisError):
        regularity_report(Path(1.0, np.zeros((4, 1))), line_k, identity_shape)


# ---------------------------------------------------------------------------
# shock detection on closed-form paths


def test_detect_two_effective_shocks_on_waiting_path(line_k, identity_shape):
    p = Path(1.0, waiting_nodes(0.2, 512))
    events = detect_shocks(p, line_k)
    kinds = [e.kind for e in events]
    assert kinds == ["effective_left", "effective_right"]
    left, right = events
    assert left.class_before == (0,) and left.class_after == (0, 1)
    assert right.class_before == (0, 1) and right.class_after == (1,)
    t0 = -np.log(0.8)
    assert left.time == pytest.approx(t0, abs=2 * p.dt)
    assert right.time == pytest.approx(1.0 - t0, abs=2 * p.dt)
    # one-sided velocities: entry speed 1, waiting side 0
    assert np.linalg.norm(left.v_minus - 1.0) <= 5e-3
    assert np.linalg.norm(left.v_plus) <= 1e-9
    assert left.jump_sq == pytest.approx(1.0, abs=1e-2)


def test_jump_identity_on_waiting_path(line_k, identity_shape):
    p = Path(1.0, waiting_nodes(0.2, 512))
    for ev in detect_shocks(p, line_k):
        res = jump_residual(ev, identity_shape)
        assert res <= 1e-2
        assert ev.jump_sq >= 1.0 - 1e-2  # superadditive floor h(beta) = 1


def test_jump_residual_rejects_non_effective(line_k, identity_shape):
    p = Path(1.0, crossing_nodes(64))
    events = detect_shocks(p, line_k)
    with pytest.raises(AnalysisError):
        jump_residual(events[0], identity_shape)


def test_detect_single_merged_crossing(line_k):
    for m in (256, 512):
        p = Path(1.0, crossing_nodes(m))
        events = detect_shocks(p, line_k)
        assert len(events) == 1
        ev = events[0]
        assert ev.kind == "nondegenerate"
        assert ev.merged_class == (0, 1)
        assert ev.class_before == (0,) and ev.class_after == (1,)
        assert ev.node_index == m // 2
        # velocity continuous through a non-effective nondegenerate shock
        assert ev.jump_sq <= 1e-3


def test_detect_degenerate_arrival(triangle_k):
    p = Path(1.0, axis_arrival_nodes(512))
    events = detect_shocks(p, triangle_k)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind == "degenerate"
    assert ev.class_before == (0, 2) and ev.class_after == (0, 1, 2)
    assert np.linalg.norm(ev.eta_before - ev.eta_after) <= 1e-9


def test_analysis_rejects_short_paths(line_k, identity_shape):
    # Shock detection needs 3 intervals, a regularity report 4.
    with pytest.raises(AnalysisError, match="at least 3 intervals"):
        detect_shocks(Path(1.0, crossing_nodes(2)), line_k)
    assert len(detect_shocks(Path(1.0, crossing_nodes(3)), line_k)) == 1
    with pytest.raises(AnalysisError, match="at least 4 intervals"):
        regularity_report(Path(1.0, crossing_nodes(3)), line_k, identity_shape)
    assert regularity_report(Path(1.0, crossing_nodes(4)), line_k, identity_shape).events


def test_analysis_rejects_a_path_of_another_dimension(line_k, triangle_k, identity_shape):
    for path, kset in ((Path(1.0, crossing_nodes(64)), triangle_k),
                       (Path(1.0, axis_arrival_nodes(64)), line_k)):
        for analyse in (lambda: detect_shocks(path, kset),
                        lambda: regularity_report(path, kset, identity_shape)):
            with pytest.raises(AnalysisError, match="-D path against"):
                analyse()


def test_shock_times_stable_under_refinement(line_k):
    coarse = Path(1.0, waiting_nodes(0.2, 256))
    fine = Path(1.0, waiting_nodes(0.2, 512))
    ev_c = detect_shocks(coarse, line_k)
    ev_f = detect_shocks(fine, line_k)
    assert [e.kind for e in ev_c] == [e.kind for e in ev_f]
    for a, b in zip(ev_c, ev_f):
        assert abs(a.time - b.time) <= 2.0 * coarse.dt


def snapped_path(seed: int) -> tuple[Path, PointSet]:
    """Noisy polyline over a few integer sites with 40% of its nodes snapped
    to a site or a pairwise midpoint, so class changes land exactly on
    cell boundaries and single-node visits of larger classes are common."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    sites = np.unique(rng.integers(-3, 4, size=(int(rng.integers(2, 6)), d)), axis=0)
    if sites.shape[0] < 2:
        sites = np.vstack([sites, sites[0] + 1])
    sites = sites.astype(float)
    m = int(rng.integers(8, 65))
    way = rng.uniform(-3.5, 3.5, size=(4, d))
    t = np.linspace(0.0, 3.0, m + 1)
    nodes = np.stack([np.interp(t, np.arange(4), way[:, j]) for j in range(d)], axis=1)
    nodes += rng.normal(scale=0.05, size=nodes.shape)
    i, j = np.triu_indices(sites.shape[0], 1)
    targets = np.vstack([sites, 0.5 * (sites[i] + sites[j])])
    snap = np.flatnonzero(rng.random(m + 1) < 0.4)
    nodes[snap] = targets[rng.integers(targets.shape[0], size=snap.size)]
    return Path(1.0, nodes), PointSet(sites)


def test_detect_shocks_properties_on_snapped_paths():
    merged_seen = 0
    for seed in range(300):
        p, k = snapped_path(seed)
        classes = [opt_class(x, k) for x in p.nodes]
        events = detect_shocks(p, k)
        nodes = [e.node_index for e in events]
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        for e in events:
            n = e.node_index
            assert e.class_before == classes[n - 1]
            if e.merged_class is None:
                assert e.class_after == classes[n]
                continue
            merged_seen += 1
            assert e.class_after == classes[n + 1]
            assert classes[n] == e.merged_class
            assert set(e.class_before) < set(e.merged_class) > set(e.class_after)
            assert not e.kind.startswith("effective")
        changes = sum(a != b for a, b in zip(classes, classes[1:]))
        assert changes == len(events) + sum(e.merged_class is not None for e in events)
    assert merged_seen > 0


def test_merged_crossing_into_nested_class_is_not_effective(triangle_k):
    # cell of site 0 -> the triple point (single node) -> the (0, 1) bisector:
    # the classes nest and the projection jumps, but a merged crossing is a
    # transversal passage, never an effective shock.
    nodes = [[0.9, -0.6], [0.6, -0.4], [0.3, -0.2], [0.0, 0.0],
             [0.25, 0.25], [0.5, 0.5], [0.75, 0.75], [1.0, 1.0]]
    (ev,) = detect_shocks(Path(1.0, nodes), triangle_k)
    assert (ev.class_before, ev.merged_class, ev.class_after) == ((0,), (0, 1, 2), (0, 1))
    assert ev.node_index == 3 and ev.kind == "nondegenerate"


# ---------------------------------------------------------------------------
# regularity reports


def test_report_single_cell_equality(identity_shape):
    # singleton site: |gamma''| = h'(s)*sqrt(s) with equality up to O(dt^2)
    k = PointSet([[0.0]])
    t = np.linspace(0.0, 1.0, 257)
    nodes = (0.5 * np.cosh(t) + 0.1 * np.sinh(t))[:, None]
    p = Path(1.0, nodes)
    rep = regularity_report(p, k, identity_shape)
    assert rep.second_diff_violations == []
    assert rep.shock_count_by_kind == {}
    dt = p.dt
    second = np.abs(nodes[2:, 0] - 2 * nodes[1:-1, 0] + nodes[:-2, 0]) / dt**2
    bound = np.abs(nodes[1:-1, 0])
    assert np.max(np.abs(second - bound)) <= 1e-3


def test_report_on_waiting_path(line_k, identity_shape):
    p = Path(1.0, waiting_nodes(0.2, 512))
    rep = regularity_report(p, line_k, identity_shape)
    assert rep.shock_count_by_kind == {"effective_left": 1, "effective_right": 1}
    assert rep.second_diff_violations == []
    assert rep.energy_std_away_from_shocks <= max(1e-3, 5.0 * p.dt)
    # momentum: the waiting-cell equidistance space is zero-dimensional in 1d
    assert all(r == 0.0 for _, r in rep.momentum_residuals)


def test_report_evaluates_the_field_once(line_k, identity_shape, monkeypatch):
    # One kernel call serves the events, which equal those of detect_shocks,
    # the second-difference bound and the per-interval energy.
    p = Path(1.0, waiting_nodes(0.2, 512))
    events = detect_shocks(p, line_k)
    calls = []
    kernel = analysis_module.batch_field

    def counted(nodes, kset, *args):
        calls.append(nodes.shape[0])
        return kernel(nodes, kset, *args)

    monkeypatch.setattr(analysis_module, "batch_field", counted)
    rep = regularity_report(p, line_k, identity_shape)
    assert calls == [513]
    assert [ev.node_index for ev in rep.events] == [ev.node_index for ev in events]


def test_orthogonal_decomposition_at_left_effective_shock(identity_shape):
    # pair of sites on the x-axis: the equidistance locus is the y-axis, so a
    # drifting entry keeps its tangential velocity while the normal one dies:
    # |v-|^2 - |v+|^2 = jump_sq and v+ is the tangential part of v-.
    k = PointSet([[-1.0, 0.0], [1.0, 0.0]])
    m = 512
    x = waiting_nodes(0.2, m)[:, 0]
    y = np.linspace(0.0, 0.5, m + 1)
    p = Path(1.0, np.stack([x, y], axis=1))
    events = detect_shocks(p, k)
    assert [e.kind for e in events] == ["effective_left", "effective_right"]
    left = events[0]
    assert abs((left.v_minus @ left.v_minus) - (left.v_plus @ left.v_plus)
               - left.jump_sq) <= max(1e-2, 10.0 * p.dt)
    assert np.allclose(left.v_plus, [0.0, 0.5], atol=5e-3)
    assert jump_residual(left, identity_shape) <= 1e-2
    rep = regularity_report(p, k, identity_shape)
    assert all(r <= 5.0 * p.dt for _, r in rep.momentum_residuals)


def test_report_momentum_on_collision(identity_shape):
    # 2-d diagonal-riding path: momentum along the boundary is continuous
    base = PointSet([[0.0, 0.5], [0.5, 0.0]])
    t = np.linspace(0.0, 1.0, 513)
    t0 = np.log(1.25)
    a = 0.5 / np.sqrt(2.0)
    v = np.zeros_like(t)
    entry = t < t0
    exits = t > 1.0 - t0
    c = 0.1 / np.sqrt(2.0)
    v[entry] = (a - c) * np.exp(t[entry]) - a
    v[exits] = a - (a - c) * np.exp(1.0 - t[exits])
    u = np.full_like(t, 0.5 / np.sqrt(2.0))
    rot = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    nodes = np.stack([u, v], axis=1) @ rot.T
    p = Path(1.0, nodes)
    rep = regularity_report(p, base, identity_shape)
    kinds = sorted(rep.shock_count_by_kind)
    assert kinds == ["effective_left", "effective_right"]
    assert all(r <= 5.0 * p.dt for _, r in rep.momentum_residuals)
    assert rep.second_diff_violations == []
