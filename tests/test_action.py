import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voract import action as action_module
from voract import (
    ActionError,
    GridSpec,
    Path,
    PointSet,
    Polytope,
    Shape,
    SolverConfig,
    action_gradient,
    build_mag,
    constrained_minimize,
    dp_oracle,
    evaluate_action,
    minimize,
)
from voract.action import _Descent
from voract.potential import batch_field

QUICK = SolverConfig(M=128, refinements=2, starts=3, seed=0, max_iters=2000)


# ---------------------------------------------------------------------------
# shapes and paths


def test_shape_kinds():
    s = np.array([0.0, 0.5, 2.0])
    assert np.allclose(Shape.identity().h(s), s)
    assert np.allclose(Shape.power(2.0).h(s), s**2)
    assert np.allclose(Shape.affine(2.0, 0.5).h(s), 2.0 * s + 0.5)
    assert np.allclose(Shape.power(2.0).h_prime(s[1:]), 2.0 * s[1:])
    with pytest.raises(ActionError):
        Shape.power(-1.0)
    with pytest.raises(ActionError):
        Shape.affine(0.0, 0.0)
    with pytest.raises(ActionError):
        Shape("mystery")


def test_path_basics():
    p = Path.from_line([0.0], [1.0], 2.0, 8)
    assert p.m_intervals == 8 and p.dim == 1
    assert p.dt == pytest.approx(0.25)
    r = p.refined()
    assert r.m_intervals == 16
    assert np.allclose(r.nodes[::2], p.nodes)
    with pytest.raises(ActionError):
        Path(1.0, np.zeros((2, 1)))
    with pytest.raises(ActionError):
        Path(-1.0, np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# evaluation


def test_action_constant_path(line_k, identity_shape):
    p = Path(1.0, np.zeros((65, 1)))
    assert evaluate_action(p, line_k, identity_shape).total == 0.0


def test_action_stationary_at_site(line_k):
    shape = Shape.affine(1.0, 0.25)  # h(0) = 0.25
    p = Path(2.0, np.full((33, 1), -1.0))
    bd = evaluate_action(p, line_k, shape)
    assert bd.kinetic == 0.0
    assert bd.total == pytest.approx(2.0 * 0.25)


def test_action_linear_path_converges(line_k, identity_shape):
    # limit 4 + 1/3: kinetic 4 exactly, potential  2*int_0^{1/2} (2t)^2 dt = 1/3
    errs = []
    for m in (64, 128, 256):
        p = Path.from_line([-1.0], [1.0], 1.0, m)
        bd = evaluate_action(p, line_k, identity_shape)
        assert bd.kinetic == pytest.approx(4.0)
        errs.append(abs(bd.total - 13.0 / 3.0))
        assert errs[-1] <= 8.0 / m
    assert errs[2] < errs[0]  # first-order convergence


def test_breakdown_consistency(line_k, identity_shape):
    p = Path.from_line([-0.4], [0.7], 1.3, 32)
    bd = evaluate_action(p, line_k, identity_shape)
    assert bd.total == pytest.approx(bd.kinetic + bd.potential)
    assert np.all(bd.kinetic_terms >= 0) and np.all(bd.potential_terms >= 0)
    assert len(bd.per_interval) == 32


# ---------------------------------------------------------------------------
# gradient


def test_gradient_matches_finite_differences(line_k, identity_shape):
    m = 30
    base = Path.from_line([0.3], [0.8], 1.0, m).nodes.copy()
    base[1:-1, 0] += 0.05 * np.sin(np.linspace(0, 3, m + 1))[1:-1]
    p = Path(1.0, base)
    g = action_gradient(p, line_k, identity_shape)
    eps = 1e-6
    for k in range(1, m):
        up = base.copy()
        up[k, 0] += eps
        dn = base.copy()
        dn[k, 0] -= eps
        fd = (evaluate_action(Path(1.0, up), line_k, identity_shape).total
              - evaluate_action(Path(1.0, dn), line_k, identity_shape).total) / (2 * eps)
        assert g[k - 1, 0] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_gradient_zero_at_stationary_site(line_k, identity_shape):
    p = Path(1.0, np.full((9, 1), 1.0))
    g = action_gradient(p, line_k, identity_shape)
    assert np.max(np.abs(g)) == 0.0


def test_gradient_single_cell_matches_smooth_problem(identity_shape):
    # inside one cell the gradient equals the smooth problem with the cell site
    k2 = PointSet([[0.0], [10.0]])
    k1 = PointSet([[0.0]])
    nodes = Path.from_line([1.0], [2.0], 1.0, 16).nodes.copy()
    nodes[1:-1, 0] += 0.1 * np.cos(np.linspace(0, 2, 17))[1:-1]
    p = Path(1.0, nodes)
    g2 = action_gradient(p, k2, identity_shape)
    g1 = action_gradient(p, k1, identity_shape)
    assert np.allclose(g1, g2)


def test_gradient_tie_break_lexicographic(line_k, identity_shape):
    # node exactly on the bisector uses the smallest-index cell
    nodes = np.array([[-0.5], [0.0], [0.5]])
    g = action_gradient(Path(1.0, nodes), line_k, identity_shape)
    dt = 0.5
    expect = 2.0 * (2 * 0.0 - (-0.5) - 0.5) / dt + dt * 2.0 * (0.0 - (-1.0))
    assert g[0, 0] == pytest.approx(expect)


# ---------------------------------------------------------------------------
# minimizer


def test_minimize_trivial_constant(line_k, identity_shape):
    res = minimize([0.0], [0.0], 1.0, line_k, identity_shape, QUICK)
    assert res.breakdown.total <= 1e-10
    assert res.converged


def test_minimize_single_cell_matches_analytic(identity_shape):
    # singleton site: nodes follow p + A cosh(t) + B sinh(t)
    p0 = np.array([1.0, 2.0])
    k = PointSet([p0])
    x0 = p0 + np.array([0.3, -0.1])
    x1 = p0 + np.array([-0.2, 0.4])
    cfg = SolverConfig(M=512, refinements=3, starts=2, seed=0)
    res = minimize(x0, x1, 1.0, k, identity_shape, cfg)
    t = res.path.times
    a = x0 - p0
    b = (x1 - p0 - a * np.cosh(1.0)) / np.sinh(1.0)
    exact = p0[None, :] + np.outer(np.cosh(t), a) + np.outer(np.sinh(t), b)
    assert res.converged
    assert np.max(np.abs(res.path.nodes - exact)) <= 1e-3


def test_minimize_waiting_branch_quick(line_k, identity_shape):
    res = minimize([-0.2], [0.2], 1.0, line_k, identity_shape, QUICK)
    assert res.converged
    assert res.breakdown.total == pytest.approx(0.72, abs=0.02)
    zero_nodes = np.flatnonzero(np.abs(res.path.nodes[:, 0]) < 1e-9)
    times = res.path.times
    assert times[zero_nodes[-1]] - times[zero_nodes[0]] >= 0.4


def test_minimize_refinement_stability(line_k, identity_shape):
    # <= 1% action change across the final mesh doubling on converged runs;
    # the quadrature term is O(dt), so this needs a production-sized mesh.
    cfg = SolverConfig(M=256, refinements=2, starts=2, seed=0)
    res = minimize([-0.2], [0.2], 1.0, line_k, identity_shape, cfg)
    assert res.converged
    rel = abs(res.breakdown.total - res.prev_breakdown.total) / res.breakdown.total
    assert rel <= 0.01


def test_minimize_reports_all_starts(line_k, identity_shape):
    res = minimize([-0.2], [0.2], 1.0, line_k, identity_shape, QUICK)
    assert len(res.starts) == QUICK.starts
    labels = [s.label for s in res.starts]
    assert "straight" in labels and "dp" in labels
    best = min(s.action for s in res.starts)
    assert res.breakdown.total == pytest.approx(best, abs=1e-12)


def test_minimize_flags_non_convergence(line_k):
    # a single iteration of a non-quadratic problem cannot reach tolerance;
    # the best iterate must still come back, flagged
    cramped = SolverConfig(M=64, refinements=1, starts=1, seed=0, max_iters=1,
                           grad_tol=1e-12)
    res = minimize([-0.7], [0.9], 1.0, line_k, Shape.power(2.0), cramped)
    assert not res.converged
    assert res.grad_norm > cramped.grad_tol
    assert np.isfinite(res.breakdown.total)


def test_minimize_deterministic(line_k, identity_shape):
    r1 = minimize([-0.2], [0.2], 1.0, line_k, identity_shape, QUICK)
    r2 = minimize([-0.2], [0.2], 1.0, line_k, identity_shape, QUICK)
    assert np.array_equal(r1.path.nodes, r2.path.nodes)
    assert r1.breakdown.total == r2.breakdown.total


# ---------------------------------------------------------------------------
# stacked descent engine


def test_descent_direction_matches_dense_solve(triangle_k):
    # Two stacked paths of 7 interior rows; rows 0, 3 (path 0) and 10, 13
    # (path 1) sit at the circumcenter class, whose tangent is a point.
    engine = _Descent(triangle_k, Shape.power(2.0), 1.0, QUICK)
    engine._project_pinned = lambda arr, pin_groups: arr  # compare before projection
    b, n_int, d = 2, 7, 2
    dt = 1.0 / (n_int + 1)
    rng = np.random.default_rng(3)
    s = rng.uniform(0.1, 2.0, (b, n_int + 2))
    g = rng.standard_normal((b, n_int, d))
    fixed = np.array([0, 3, n_int + 3, 2 * n_int - 1])
    step = engine._direction(g, [((0, 1, 2), fixed)], s, dt)

    size = b * n_int
    dense = np.diag(4.0 / dt + 2.0 * dt * 2.0 * s[:, 1:-1].ravel() + 1e-12)
    for i in range(size - 1):
        if (i + 1) % n_int and i not in fixed and i + 1 not in fixed:
            dense[i, i + 1] = dense[i + 1, i] = -2.0 / dt
    expected = np.linalg.solve(dense, g.reshape(size, d))
    np.testing.assert_allclose(step.reshape(size, d), expected, rtol=0.0, atol=1e-12)


def _candidate_stack(engine, x0, x1, m):
    """A converged path, copies with one node moved onto a neighbor, the
    chord and two noisy chords: paths that leave the stack at different
    iterations, after different step-size histories."""
    chord = Path.from_line(x0, x1, 1.0, m).nodes
    nodes = engine.solve(chord[None], 400)[0][0]
    stack = [nodes, chord]
    for k in (1, m // 4, m // 2, m - 1):
        moved = nodes.copy()
        moved[k] = nodes[k + 1]
        stack.append(moved)
    rng = np.random.default_rng(1)
    for amp in (0.05, 0.3):
        noisy = chord + amp * rng.standard_normal(chord.shape)
        noisy[0], noisy[-1] = chord[0], chord[-1]
        stack.append(noisy)
    return np.array(stack)


@pytest.mark.parametrize("case", ["line", "mag"])
def test_lockstep_relaxation_matches_single_paths(case, line_k):
    # h(s) = s^2 makes the line searches halve differently per path.
    if case == "line":
        kset, x0, x1 = line_k, [-0.2], [0.2]
    else:
        kset, x0, x1 = build_mag([[0.0], [0.5]], 1, 2, 1).kset, [0.2, 0.3], [0.3, 0.2]
    engine = _Descent(kset, Shape.power(2.0), 1.0, QUICK)
    stack = _candidate_stack(engine, x0, x1, 32)
    nodes, values, converged, grad_norm = engine.solve(stack, _Descent.RELAX_ITERS,
                                                       allow_moves=False)
    for j in range(stack.shape[0]):
        one = engine.solve(stack[j:j + 1], _Descent.RELAX_ITERS, allow_moves=False)
        assert np.array_equal(one[0][0], nodes[j])
        assert one[1][0] == values[j]
        assert one[2][0] == converged[j] and one[3][0] == grad_norm[j]


def test_nan_gradient_ends_descent_like_a_failed_search(line_k, monkeypatch):
    # A NaN gradient at node 2, which sits on the site -1, must make the
    # path take the failed-search exit (trial moves, then return), not idle
    # until max_iters. The gradient itself no longer yields NaN there, so
    # the NaN is injected.
    interior_gradient = action_module._interior_gradient

    def nan_on_sites(nodes, etas, slope_sq, dt, shape):
        g = interior_gradient(nodes, etas, slope_sq, dt, shape)
        g[slope_sq[..., 1:-1] == 0.0] = np.nan
        return g

    monkeypatch.setattr(action_module, "_interior_gradient", nan_on_sites)
    engine = _Descent(line_k, Shape.power(0.5), 1.0, QUICK)
    calls = []
    engine._trial_moves = lambda nodes, f0: (calls.append(1), (False, nodes, f0))[1]
    nodes = Path.from_line([-1.5], [0.5], 1.0, 8).nodes
    assert nodes[2, 0] == -1.0
    with np.errstate(invalid="ignore"):
        _, _, converged, grad_norm = engine.solve(nodes[None], 100)
    assert calls == [1]
    assert np.isnan(grad_norm[0]) and not converged[0]


def test_gradient_on_a_site_is_finite_for_power_below_one():
    # h'(0) is infinite for p < 1; a node on its own site takes the zero
    # potential term, so the descent converges without numeric warnings.
    kset = build_mag([[0.0], [0.5]], 1, 2, 1).kset
    res = minimize([0.2, 0.3], [0.3, 0.2], 1.0, kset, Shape.power(0.5),
                   SolverConfig(M=32, refinements=1, starts=2))
    assert res.converged
    assert res.grad_norm <= 1e-5
    g = action_gradient(Path.from_line([-1.5], [0.5], 1.0, 8), PointSet([[-1.0], [1.0]]),
                        Shape.power(0.5))
    assert np.all(np.isfinite(g)) and g[1, 0] == 0.0


@pytest.mark.parametrize("bound", [1, 2 * 129 * 2])
def test_minimize_independent_of_relaxation_blocks(bound, line_k, identity_shape, monkeypatch):
    # The QUICK solve relaxes six candidates per round; bound 1 relaxes them
    # one by one, bound 516 in blocks of two at M = 128.
    ref = minimize([-0.2], [0.2], 1.0, line_k, identity_shape, QUICK)
    monkeypatch.setattr(action_module, "KERNEL_CHUNK_ROW_SITES", bound)
    res = minimize([-0.2], [0.2], 1.0, line_k, identity_shape, QUICK)
    assert np.array_equal(res.path.nodes, ref.path.nodes)
    assert np.array_equal(res.prev_path.nodes, ref.prev_path.nodes)
    assert res.starts == ref.starts
    assert res.grad_norm == ref.grad_norm


@pytest.mark.parametrize("shape,sites,endpoints", [
    (Shape.power(2.0), [[-1.0], [1.0]], ([-0.2], [0.2])),
    (Shape.affine(1.0, 0.4), [[-1.0], [1.0]], ([-0.2], [0.2])),
    (Shape.identity(), [[-1.0], [0.2], [1.0]], ([-0.6], [0.8])),
    (Shape.identity(), [[0.0, 0.0], [1.0, 1.0]], ([0.1, 0.0], [0.9, 1.0])),
])
def test_minimize_shape_and_site_sweep(shape, sites, endpoints):
    # no branch-specific asserts here: this guards the machinery (descent,
    # moves, analysis) across shapes and site layouts
    from voract import detect_shocks, regularity_report

    k = PointSet(sites)
    cfg = SolverConfig(M=64, refinements=1, starts=2, seed=1, max_iters=1500)
    res = minimize(endpoints[0], endpoints[1], 1.0, k, shape, cfg)
    assert np.isfinite(res.breakdown.total)
    assert res.breakdown.total >= 0.0
    recheck = evaluate_action(res.path, k, shape).total
    assert recheck == pytest.approx(res.breakdown.total, abs=1e-12)
    events = detect_shocks(res.path, k)
    report = regularity_report(res.path, k, shape)
    assert all(ev.jump_sq >= -1e-12 for ev in events)
    assert report.energy_values.shape == (64,)


def test_minimize_seed_insensitive_optimum(line_k, identity_shape):
    # different seeds change the perturbed starts, not the selected branch
    a0 = minimize([-0.2], [0.2], 1.0, line_k, identity_shape,
                  SolverConfig(M=128, refinements=2, starts=3, seed=0)).breakdown.total
    a1 = minimize([-0.2], [0.2], 1.0, line_k, identity_shape,
                  SolverConfig(M=128, refinements=2, starts=3, seed=12345)).breakdown.total
    assert a0 == pytest.approx(a1, abs=1e-6)


# ---------------------------------------------------------------------------
# dynamic-programming oracle


def test_dp_trivial_endpoint_at_site(line_k, identity_shape):
    gs = GridSpec(lo=np.array([-1.5]), hi=np.array([1.5]), resolution=0.05, time_slices=20)
    path = dp_oracle([-1.0], [-1.0], 0.5, line_k, identity_shape, gs)
    assert evaluate_action(path, line_k, identity_shape).total == pytest.approx(0.0, abs=1e-12)


def test_dp_waiting_cost(line_k, identity_shape):
    gs = GridSpec(lo=np.array([-1.5]), hi=np.array([1.5]), resolution=0.01,
                  time_slices=100, vmax=4.0)
    path = dp_oracle([-0.2], [0.2], 1.0, line_k, identity_shape, gs)
    cost = evaluate_action(path, line_k, identity_shape).total
    assert abs(cost - 0.72) <= 0.03 * 0.72


def test_dp_nested_grid_monotone(line_k, identity_shape):
    costs = []
    for res in (0.02, 0.01):
        gs = GridSpec(lo=np.array([-1.6]), hi=np.array([1.6]), resolution=res,
                      time_slices=50, vmax=4.0)
        path = dp_oracle([-0.2], [0.2], 1.0, line_k, identity_shape, gs)
        costs.append(evaluate_action(path, line_k, identity_shape).total)
    assert costs[1] <= costs[0] + 1e-12


def test_dp_unreachable_endpoint(line_k, identity_shape):
    gs = GridSpec(lo=np.array([-1.5]), hi=np.array([1.5]), resolution=0.05,
                  time_slices=10, vmax=0.01)
    with pytest.raises(ActionError, match="unreachable"):
        dp_oracle([-1.0], [1.0], 1.0, line_k, identity_shape, gs)


def test_dp_budget_guard(line_k, identity_shape):
    from voract import GridBudgetError

    gs = GridSpec(lo=np.array([-1.0, -1.0, -1.0]), hi=np.array([1.0, 1.0, 1.0]),
                  resolution=0.002, time_slices=400)
    with pytest.raises(GridBudgetError):
        dp_oracle([0.0] * 3, [0.0] * 3, 1.0, PointSet(np.eye(3)), identity_shape, gs)


def test_minimize_dominates_oracle(line_k, identity_shape):
    res = minimize([-0.2], [0.2], 1.0, line_k, identity_shape, QUICK)
    gs = GridSpec(lo=np.array([-1.5]), hi=np.array([1.5]), resolution=0.01,
                  time_slices=100, vmax=4.0)
    dp_cost = evaluate_action(dp_oracle([-0.2], [0.2], 1.0, line_k, identity_shape, gs),
                              line_k, identity_shape).total
    slack = 10.0 * 0.01 * max(1.0, 0.4)  # resolution times a speed-scale bound
    assert res.breakdown.total <= dp_cost + slack


@pytest.mark.parametrize("x0,x1,delta,kset,grid", [
    ([-3.0], [0.2], 1.0, None, {}),                          # start outside the box
    ([-0.2], [1.6], 1.0, None, {}),                          # end outside the box
    ([-0.2, 0.0], [0.2, 0.0], 1.0, PointSet([[-1.0, 0.0], [1.0, 0.0]]), {}),  # 1-d grid
    ([-0.2], [0.2], 1.0, None, {"snap_axes": ((0.5,), (0.5,))}),  # 2-d snap axes
    ([-0.2], [0.2], 0.0, None, {}),                          # delta = 0
    ([-0.2], [0.2], -1.0, None, {}),
])
def test_dp_rejects_inconsistent_inputs(x0, x1, delta, kset, grid, line_k, identity_shape):
    gs = GridSpec(**{"lo": np.array([-1.5]), "hi": np.array([1.5]), "resolution": 0.05,
                     "time_slices": 20, **grid})
    with pytest.raises(ActionError):
        dp_oracle(x0, x1, delta, kset or line_k, identity_shape, gs)


@pytest.mark.parametrize("fields", [
    {"lo": [-1.5, -1.5], "hi": [1.5]},
    {"vmax": 0.0},
    {"vmax": -1.0},
    {"vmax": float("inf")},
    {"vmax": float("nan")},
])
def test_grid_spec_rejects_invalid_fields(fields):
    with pytest.raises(ActionError):
        GridSpec(**{"lo": [-1.5], "hi": [1.5], "resolution": 0.05, "time_slices": 20,
                    **fields})


def _reference_dp(x0, x1, delta, kset, shape, gs):
    """Full-offset relaxation: every step of the (2k+1)^d box, every slice.

    Returns ``(optimal cost, nodes, axes, k)``, with ``nodes`` None when
    the goal is unreachable.
    """
    a, b = np.asarray(x0, dtype=float), np.asarray(x1, dtype=float)
    d = kset.dim
    dt = delta / gs.time_slices
    snap_axes = gs.snap_axes or tuple(() for _ in range(d))
    axes = [action_module._axis_coords(float(gs.lo[ax]), float(gs.hi[ax]), gs.resolution,
                                       tuple(snap_axes[ax]) + (float(a[ax]), float(b[ax])))
            for ax in range(d)]
    shape_g = tuple(len(c) for c in axes)
    vmax = 4.0 * max(1.0, float(np.linalg.norm(b - a)) / delta) if gs.vmax is None else gs.vmax
    k = max(1, int(np.ceil(vmax * dt / gs.resolution)))
    offsets = list(itertools.product(range(-k, k + 1), repeat=d))
    grid_pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    h = shape.h(batch_field(grid_pts, kset)[1]).reshape(shape_g)
    start = tuple(int(np.argmin(np.abs(axes[ax] - a[ax]))) for ax in range(d))
    goal = tuple(int(np.argmin(np.abs(axes[ax] - b[ax]))) for ax in range(d))

    def slices_for(off):
        src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, shape_g))
        dst = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(off, shape_g))
        return src, dst

    cost = np.full(shape_g, np.inf)
    cost[start] = 0.0
    parents = np.zeros((gs.time_slices,) + shape_g, dtype=np.int32)
    for t in range(gs.time_slices):
        new = np.full(shape_g, np.inf)
        for oid, off in enumerate(offsets):
            if any(abs(o) >= n for o, n in zip(off, shape_g)):
                continue  # reaches no grid point
            src, dst = slices_for(off)
            kin = sum(((axes[ax][dst[ax]] - axes[ax][src[ax]]) ** 2).reshape(
                [-1 if i == ax else 1 for i in range(d)]) for ax in range(d)) / dt
            cand = cost[src] + kin + dt * 0.5 * (h[src] + h[dst])
            better = cand < new[dst]
            new[dst] = np.where(better, cand, new[dst])
            parents[t][dst] = np.where(better, oid, parents[t][dst])
        cost = new
    if not np.isfinite(cost[goal]):
        return np.inf, None, axes, k
    idx = goal
    rev = [idx]
    for t in range(gs.time_slices - 1, -1, -1):
        idx = tuple(i - o for i, o in zip(idx, offsets[int(parents[t][idx])]))
        rev.append(idx)
    nodes = np.array([[axes[ax][i[ax]] for ax in range(d)] for i in reversed(rev)])
    return float(cost[goal]), nodes, axes, k


@pytest.mark.parametrize("x0,x1,delta,grid", [
    ([-1.0], [-1.0], 0.5, dict(resolution=0.05, time_slices=20)),
    ([-0.2], [0.2], 1.0, dict(resolution=0.01, time_slices=100, vmax=4.0)),
    ([-0.2], [0.2], 1.0, dict(lo=np.array([-1.6]), hi=np.array([1.6]), resolution=0.02,
                              time_slices=50, vmax=4.0)),
])
def test_dp_matches_full_offset_reference_on_test_grids(x0, x1, delta, grid, line_k,
                                                        identity_shape):
    gs = GridSpec(**{"lo": np.array([-1.5]), "hi": np.array([1.5]), **grid})
    _, ref_nodes, _, _ = _reference_dp(x0, x1, delta, line_k, identity_shape, gs)
    path = dp_oracle(x0, x1, delta, line_k, identity_shape, gs)
    assert np.array_equal(path.nodes, ref_nodes)


@st.composite
def _dp_problems(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    res = draw(st.sampled_from({1: [0.1, 0.25], 2: [0.25, 0.5], 3: [0.5]}[d]))
    lo = np.array([draw(st.integers(-4, 0)) * 0.5 for _ in range(d)])
    hi = lo + np.array([draw(st.integers(1, {1: 6, 2: 4, 3: 3}[d])) * 0.5 for _ in range(d)])
    lattice = [np.linspace(l, h, int(round((h - l) / res)) + 1) for l, h in zip(lo, hi)]
    x0 = [draw(st.sampled_from(c.tolist())) for c in lattice]
    x1 = [draw(st.sampled_from(c.tolist())) for c in lattice]
    quarter = st.integers(-10, 6).map(lambda i: 0.25 * i)
    sites = draw(st.lists(st.tuples(*[quarter] * d), min_size=1, max_size=5, unique=True))
    snap = draw(st.one_of(st.none(), st.lists(st.lists(quarter, max_size=3).map(tuple),
                                              min_size=d, max_size=d).map(tuple)))
    vmax = draw(st.sampled_from([2.5, None, 0.3, 1.0, 6.0]))
    gs = GridSpec(lo=lo, hi=hi, resolution=res, time_slices=draw(st.integers(2, 6)),
                  vmax=vmax, snap_axes=snap)
    shape = draw(st.sampled_from([Shape.identity(), Shape.power(0.5), Shape.power(2.0),
                                  Shape.affine(2.0, 0.5)]))
    delta = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return x0, x1, delta, PointSet(sites, tie_tolerance=1e-9), shape, gs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_dp_problems())
def test_dp_separable_relaxation_matches_full_offset_reference(problem):
    x0, x1, delta, kset, shape, gs = problem
    ref_cost, ref_nodes, axes, k = _reference_dp(*problem)
    if ref_nodes is None:
        with pytest.raises(ActionError, match="unreachable"):
            dp_oracle(*problem)
        return
    path = dp_oracle(*problem)
    nodes = path.nodes
    assert np.array_equal(nodes[0], x0) and np.array_equal(nodes[-1], x1)
    for ax, coords in enumerate(axes):
        idx = np.searchsorted(coords, nodes[:, ax])
        assert np.array_equal(coords[idx], nodes[:, ax])
        assert np.max(np.abs(np.diff(idx))) <= k
    tol = 1e-12 * max(1.0, ref_cost)
    assert abs(evaluate_action(path, kset, shape).total - ref_cost) <= tol
    assert abs(evaluate_action(Path(delta, ref_nodes), kset, shape).total - ref_cost) <= tol


# ---------------------------------------------------------------------------
# comparison principle


def test_comparison_principle_surrogate(triangle_k, identity_shape):
    # inside one subgradient region the true action is dominated by the
    # surrogate with potential h(|x - eta|^2); equality while the hull
    # projection actually equals eta.
    eta = np.array([0.5, 0.5])
    m = 40
    t = np.linspace(0.3, 0.0, m + 1)
    nodes = np.stack([t, t], axis=1)  # NE bisector ray into the origin
    p = Path(1.0, nodes)
    bd = evaluate_action(p, triangle_k, identity_shape)
    diffs = np.diff(nodes, axis=0)
    kin = float(np.sum(np.einsum("ij,ij->i", diffs, diffs))) / p.dt
    s = np.einsum("ij,ij->i", nodes - eta, nodes - eta)
    h = identity_shape.h(s)
    surrogate = kin + p.dt * float(np.sum(0.5 * (h[:-1] + h[1:])))
    assert bd.total <= surrogate + 1e-12
    assert surrogate - bd.total > 1e-4  # strict at the origin node (zone changes)

    interior = Path(1.0, np.stack([np.linspace(0.4, 0.2, 9)] * 2, axis=1))
    bd2 = evaluate_action(interior, triangle_k, identity_shape)
    s2 = np.einsum("ij,ij->i", interior.nodes - eta, interior.nodes - eta)
    h2 = identity_shape.h(s2)
    surrogate2 = (float(np.sum(np.einsum("ij,ij->i", np.diff(interior.nodes, axis=0),
                                         np.diff(interior.nodes, axis=0)))) / interior.dt
                  + interior.dt * float(np.sum(0.5 * (h2[:-1] + h2[1:]))))
    assert bd2.total == pytest.approx(surrogate2, abs=1e-12)


# ---------------------------------------------------------------------------
# constrained companion problem


def test_constrained_inactive_box_matches_unconstrained(identity_shape):
    k = PointSet([[0.0, 0.0]])
    cfg = SolverConfig(M=128, refinements=2, starts=2, seed=0)
    free = minimize([0.5, 0.0], [0.0, 0.5], 1.0, k, identity_shape, cfg)
    box = Polytope.from_box([-10.0, -10.0], [10.0, 10.0])
    con = constrained_minimize([0.5, 0.0], [0.0, 0.5], 1.0, box, [0.0, 0.0],
                               identity_shape, cfg)
    assert con.converged
    assert abs(con.breakdown.total - free.breakdown.total) <= 1e-6


def test_constrained_segment_beats_departing_competitors(triangle_k, identity_shape):
    # axis segment constraint with the potential centered at the shared
    # projection point; competitors leaving the segment pay more in the
    # true site-set action.
    seg = Polytope(np.vstack([np.eye(2), -np.eye(2)]),
                   np.array([0.0, 0.0, 0.0, 2.0]))  # {0} x [-2, 0]
    cfg = SolverConfig(M=128, refinements=2, starts=2, seed=0)
    con = constrained_minimize([0.0, -1.0], [0.0, 0.0], 1.0, seg, [0.0, 0.0],
                               identity_shape, cfg)
    assert con.converged
    assert np.max(np.abs(con.path.nodes[:, 0])) <= 1e-8
    rng = np.random.default_rng(0)
    for _ in range(10):
        bump = rng.normal(size=(con.path.nodes.shape[0], 2)) * 0.05
        bump[0] = bump[-1] = 0.0
        competitor = Path(1.0, con.path.nodes + bump)
        assert evaluate_action(competitor, triangle_k, identity_shape).total \
            >= con.breakdown.total - 1e-9


def test_constrained_boundary_hug(identity_shape):
    # endpoints on the boundary, attractor outside: path hugs the boundary
    box = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
    cfg = SolverConfig(M=64, refinements=1, starts=2, seed=0)
    con = constrained_minimize([0.0, 0.2], [0.0, 0.8], 1.0, box, [-1.0, 0.5],
                               identity_shape, cfg)
    assert con.converged
    assert np.max(con.path.nodes[:, 0]) <= 1e-7
    assert con.pg_norm <= cfg.grad_tol


def test_constrained_second_difference_bound(identity_shape):
    # |gamma''| <= |grad Psi|/2 + O(dt) from the constrained regularity bound
    box = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
    cfg = SolverConfig(M=256, refinements=2, starts=2, seed=0)
    con = constrained_minimize([0.0, 0.2], [0.3, 0.8], 1.0, box, [-1.0, 0.5],
                               identity_shape, cfg)
    nodes = con.path.nodes
    dt = con.path.dt
    second = np.linalg.norm(nodes[2:] - 2 * nodes[1:-1] + nodes[:-2], axis=1) / dt**2
    rel = nodes[1:-1] - np.array([-1.0, 0.5])
    bound = np.linalg.norm(2.0 * rel, axis=1) / 2.0
    assert np.all(second <= bound + 30.0 * dt)


def test_constrained_rejects_infeasible_endpoints(identity_shape):
    box = Polytope.from_box([0.0], [1.0])
    with pytest.raises(ActionError):
        constrained_minimize([2.0], [0.5], 1.0, box, [0.0], identity_shape, QUICK)
