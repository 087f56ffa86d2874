import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voract import action as action_module
from voract import potential as potential_module
from voract import presets
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
    default_window,
    dp_oracle,
    evaluate_action,
    interior_balance_verdict,
    minimize,
    zone_table,
)
from voract.action import _Descent, seed_grid_spec
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
    assert bd.total == bd.kinetic + bd.potential
    assert bd.kinetic >= 0 and bd.potential >= 0


@pytest.mark.parametrize("shape", [Shape.identity(), Shape.power(1.5), Shape.affine(2.0, 0.5)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_evaluate_action_is_the_engine_value(d, shape):
    rng = np.random.default_rng(d)
    kset = PointSet(rng.uniform(-2.0, 2.0, size=(5, d)))
    engine = _Descent(kset, shape, 1.3, SolverConfig())
    for m in (2, 7, 64, 129):
        path = Path(1.3, rng.uniform(-2.5, 2.5, size=(m + 1, d)))
        assert evaluate_action(path, kset, shape).total == engine.value(path.nodes[None])[0]


def test_breakdown_total_is_the_winning_start_action():
    res = presets._solve_record("example1-c02").result
    assert res.breakdown.total == min(s.action for s in res.starts)


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
    assert res.breakdown.total == best


def test_mesh_schedule_ends_at_an_m_the_doublings_miss(line_k, identity_shape):
    cfg = SolverConfig(M=100, refinements=3, starts=1)
    assert action_module._mesh_schedule(cfg) == [12, 24, 48, 96, 100]
    res = minimize([-0.2], [0.2], 1.0, line_k, identity_shape, cfg)
    assert res.path.nodes.shape == (101, 1) and res.prev_path.nodes.shape == (97, 1)


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


def _dense_pinned_step(g, s, dt, shape, bases):
    """Reference step ``Z (Z^T H Z)^-1 Z^T g`` by dense linear algebra.

    ``H`` is the block-tridiagonal Hessian of the stacked interior rows
    (diagonal ``4/dt + 2 dt h'``, coupling ``-2/dt`` within a path) and ``Z``
    the block-diagonal matrix of the per-row tangent bases ``bases[r]``
    (``d x k`` columns). Rows with infinite ``h'`` must come with ``k = 0``.
    """
    b, n_int, d = g.shape
    size = b * n_int
    hp = shape.h_prime(s[:, 1:-1]).ravel()
    tri = np.diag(4.0 / dt + 2.0 * dt * np.where(np.isinf(hp), 0.0, hp) + 1e-12)
    for i in range(size - 1):
        if (i + 1) % n_int:
            tri[i, i + 1] = tri[i + 1, i] = -2.0 / dt
    hess = np.kron(tri, np.eye(d))
    zmat = np.zeros((size * d, sum(z.shape[1] for z in bases)))
    col = 0
    for r, z in enumerate(bases):
        zmat[r * d:(r + 1) * d, col:col + z.shape[1]] = z
        col += z.shape[1]
    reduced = zmat.T @ hess @ zmat
    step = zmat @ np.linalg.solve(reduced, zmat.T @ g.reshape(-1))
    return step.reshape(b, n_int, d)


def _pinned_fixture(pins, b, n_int, d, seed):
    """Random slopes and a gradient projected onto the pinned rows' tangents,
    as ``_state`` hands them over, and the tangent basis of every row."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.1, 2.0, (b, n_int + 2))
    g = rng.standard_normal((b, n_int, d))
    bases = [np.eye(d)] * (b * n_int)
    for _, rows, tangent in pins:
        for r in rows:
            bases[r] = tangent
            g.reshape(-1, d)[r] = tangent @ (tangent.T @ g.reshape(-1, d)[r])
    return s, g, bases


def test_descent_direction_is_the_reduced_newton_step(triangle_k):
    # Two stacked paths of 7 interior rows. Rows 0 and 10 sit at the
    # circumcenter class (0-dimensional tangent), rows 3, 4 and 13 on the
    # bisector of sites 0 and 2, rows 5, 6 (the path's last) and 7 (the
    # next path's first) on the bisector of sites 0 and 1.
    shape = Shape.power(2.0)
    engine = _Descent(triangle_k, shape, 1.0, QUICK)
    b, n_int, d = 2, 7, 2
    dt = 1.0 / (n_int + 1)
    pins = [((0, 1, 2), np.array([0, 10]), np.zeros((2, 0))),
            ((0, 2), np.array([3, 4, 13]), np.array([[0.0], [1.0]])),
            ((0, 1), np.array([5, 6, 7]), np.array([[1.0], [1.0]]) / np.sqrt(2.0))]
    s, g, bases = _pinned_fixture(pins, b, n_int, d, 3)
    for key, _, tangent in pins:  # the engine's tangents span the same lines
        basis = engine._tangent(key)
        np.testing.assert_allclose(basis.T @ basis, tangent @ tangent.T, atol=1e-15)
    step = engine._direction(g, [(key, rows) for key, rows, _ in pins], s, dt)
    np.testing.assert_allclose(step, _dense_pinned_step(g, s, dt, shape, bases),
                               rtol=0.0, atol=1e-12)


def test_descent_direction_on_polytope_faces_and_infinite_curvature():
    # 3-D, two stacked paths of 6 interior rows in the unit cube: rows on
    # one face (2-dimensional tangent), on an edge (1-dimensional) and at a
    # vertex (none). With h(s) = sqrt(s) the rows 2 and 9 sit on their own
    # site, where h' is infinite: they must not move.
    cube = _halfspaces(*_CUBE)
    shape = Shape.power(0.5)
    engine = _Descent(PointSet([[0.0, 0.0, 0.0]]), shape, 1.0, QUICK, cube)
    b, n_int, d = 2, 6, 3
    dt = 1.0 / (n_int + 1)
    null = {}
    for faces in ((0,), (0, 2), (0, 2, 4)):
        vt = np.linalg.svd(cube.normals[list(faces)], full_matrices=True)[2]
        null[faces] = vt[len(faces):].T
    pins = [(("faces", 0), np.array([0, 1, 8]), null[(0,)]),
            (("faces", 0, 2), np.array([4, 5, 6]), null[(0, 2)]),
            (("faces", 0, 2, 4), np.array([11]), null[(0, 2, 4)])]
    s, g, bases = _pinned_fixture(pins, b, n_int, d, 5)
    s[0, 3] = s[1, 4] = 0.0  # interior rows 2 and 9
    bases[2] = bases[9] = np.zeros((d, 0))
    step = engine._direction(g, [(key, rows) for key, rows, _ in pins], s, dt)
    assert np.all(np.isfinite(step))
    assert np.all(step.reshape(-1, d)[[2, 9]] == 0.0)
    np.testing.assert_allclose(step, _dense_pinned_step(g, s, dt, shape, bases),
                               rtol=0.0, atol=1e-12)


def test_mag_exchange_descent_converges_in_few_iterations():
    # The Newton step of the pinned problem converges in a few iterations
    # per stage at every mesh; five per stage suffice for every start.
    sc = presets._scenario("mag-exchange")
    cfg = SolverConfig(M=256, refinements=3, starts=1, max_iters=5)
    res = minimize(sc.x0, sc.x1, sc.delta, sc.kset, sc.shape, cfg)
    assert res.converged and res.grad_norm <= cfg.grad_tol
    assert len(res.starts) == 2 and all(st.converged for st in res.starts)


def _candidate_stack(engine, x0, x1, m):
    """A converged path, copies with one node moved onto a neighbor, the
    chord and two noisy chords: paths that leave the stack at different
    iterations, after different step-size histories."""
    chord = Path.from_line(x0, x1, 1.0, m).nodes
    settle = _Descent(engine.kset, engine.shape, 1.0, replace(engine.cfg, max_iters=400))
    nodes = settle.descend(chord[None])[0][0]
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


SITES_3D = [[-2, 1, -1], [-1, -1, 0], [1, -2, 0], [1, 0, 1], [1, 2, 2], [2, -2, 1]]


def _fresh(engine):
    """An engine on a copy of the point set: no class frame or zone value memoized."""
    return _Descent(PointSet(engine.kset.points, engine.kset.tie_tolerance), engine.shape,
                    engine.delta, engine.cfg)


@pytest.mark.parametrize("case", ["line", "mag", "3d"])
def test_lockstep_relaxation_matches_single_paths(case, line_k):
    # h(s) = s^2 makes the line searches halve differently per path. In 3-D
    # the nodes pinned to a two-site class project their gradient onto a
    # two-row basis, which a BLAS product would round by row position.
    if case == "line":
        kset, x0, x1 = line_k, [-0.2], [0.2]
    elif case == "mag":
        kset, x0, x1 = build_mag([[0.0], [0.5]], 1, 2, 1).kset, [0.2, 0.3], [0.3, 0.2]
    else:
        kset, x0, x1 = PointSet(SITES_3D), [-2.0, 1.0, -1.0], [0.0, -0.5, 0.0]
    engine = _Descent(kset, Shape.power(2.0), 1.0, QUICK)
    stack = _candidate_stack(engine, x0, x1, 32)
    nodes, values, converged, grad_norm, stopped = engine.solve(stack)
    assert stopped.all()
    for j in range(stack.shape[0]):
        # Alone, on the stack's engine and on a fresh one that meets every
        # class first in this path.
        for one in (engine.solve(stack[j:j + 1]), _fresh(engine).solve(stack[j:j + 1])):
            assert np.array_equal(one[0][0], nodes[j])
            assert one[1][0] == values[j]
            assert one[2][0] == converged[j] and one[3][0] == grad_norm[j]
    # The move rounds run in lockstep too, a duplicated path included.
    stack = np.concatenate([stack, stack[2:3]])
    descended = engine.descend(stack)
    assert len(descended) == stack.shape[0]
    for j, entry in enumerate(descended):
        (alone,) = engine.descend(stack[j:j + 1])
        assert np.array_equal(entry[0], alone[0]) and entry[1:] == alone[1:]


def test_descend_of_a_permuted_stack_permutes_its_entries():
    # A class's zone value does not depend on which path met it first: a
    # fresh engine descending the 3-D candidate stack rotated to start at
    # the chord returns the rotated entries, bit for bit.
    engine = _Descent(PointSet(SITES_3D), Shape.power(2.0), 1.0, QUICK)
    stack = _candidate_stack(engine, [-2.0, 1.0, -1.0], [0.0, -0.5, 0.0], 32)
    forward = _fresh(engine).descend(stack)
    perm = np.roll(np.arange(len(stack)), -1)
    for j, entry in zip(perm, _fresh(engine).descend(stack[perm])):
        assert np.array_equal(entry[0], forward[j][0]) and entry[1:] == forward[j][1:]


@pytest.mark.parametrize("case", ["line", "mag", "3d"])
def test_descend_stages_of_a_permuted_stack_permute_its_stages(case, line_k):
    # Four starts, one of them a copy of another, in two orders on fresh
    # engines: every stage and every entry is permuted bit for bit, whichever
    # copy of the duplicate comes first and is descended.
    if case == "line":
        kset, x0, x1 = line_k, [-0.2], [0.2]
    elif case == "mag":
        kset, x0, x1 = build_mag([[0.0], [0.5]], 1, 2, 1).kset, [0.2, 0.3], [0.3, 0.2]
    else:
        kset, x0, x1 = PointSet(SITES_3D), [-2.0, 1.0, -1.0], [0.0, -0.5, 0.0]
    engine = _Descent(kset, Shape.power(2.0), 1.0, QUICK)
    a, b = np.array(x0, float), np.array(x1, float)
    chord = Path.from_line(a, b, 1.0, 8).nodes
    rng = np.random.default_rng(4)
    noisy = [chord + amp * rng.standard_normal(chord.shape) for amp in (0.05, 0.3)]
    stack = np.array([chord, noisy[0], noisy[1], noisy[0]])
    perm = [3, 2, 0, 1]
    stages, entries = action_module._descend_stages(_fresh(engine), stack.copy(), a, b,
                                                    [8, 16, 32])
    p_stages, p_entries = action_module._descend_stages(_fresh(engine), stack[perm], a, b,
                                                        [8, 16, 32])
    assert all(np.array_equal(p, s[perm]) for p, s in zip(p_stages, stages))
    for j, entry in zip(perm, p_entries):
        assert np.array_equal(entry[0], entries[j][0]) and entry[1:] == entries[j][1:]


def test_nan_gradient_ends_descent_like_a_failed_search(line_k, monkeypatch):
    # A NaN gradient at node 2, which sits on the site -1, must make the
    # path leave the descent at once (one move round, then return), not
    # idle until max_iters. The gradient itself no longer yields NaN there,
    # so the NaN is injected.
    interior_gradient = action_module._interior_gradient

    def nan_on_sites(nodes, etas, slope_sq, dt, shape):
        g = interior_gradient(nodes, etas, slope_sq, dt, shape)
        g[slope_sq[..., 1:-1] == 0.0] = np.nan
        return g

    monkeypatch.setattr(action_module, "_interior_gradient", nan_on_sites)
    engine = _Descent(line_k, Shape.power(0.5), 1.0, replace(QUICK, max_iters=100))
    calls = []
    engine._trial_moves = lambda stack, f0: calls.append(len(stack)) or [None] * len(stack)
    nodes = Path.from_line([-1.5], [0.5], 1.0, 8).nodes
    assert nodes[2, 0] == -1.0
    with np.errstate(invalid="ignore"):
        ((_, _, converged, grad_norm),) = engine.descend(nodes[None])
    assert calls == [1]
    assert np.isnan(grad_norm) and not converged


def test_solve_only_descends_and_descend_runs_the_rounds(line_k):
    engine = _Descent(line_k, Shape.power(2.0), 1.0, QUICK)

    def no_moves(stack, f0):
        raise AssertionError("solve ran a trial move")

    engine._trial_moves = no_moves
    chord = Path.from_line([-0.7], [0.9], 1.0, 32).nodes
    stack = np.array([chord, chord[::-1].copy()])
    _, _, converged, _, stopped = engine.solve(stack)
    assert converged.all() and stopped.all()
    # A descent still stepping at max_iters ends descend without a round.
    capped = _Descent(line_k, Shape.power(2.0), 1.0, replace(QUICK, max_iters=1))
    capped._trial_moves = no_moves
    assert not capped.solve(chord[None])[4][0]
    assert not any(entry[2] for entry in capped.descend(stack))

    solve, solves, rounds = engine.solve, [], []

    def counted_solve(stack):
        solves.append(stack.shape[0])
        return solve(stack)

    engine.solve = counted_solve
    engine._trial_moves = lambda stack, f0: rounds.append(f0.copy()) or [None] * len(stack)
    engine.descend(stack)
    assert len(rounds) == 1 and len(rounds[0]) == 2 and solves == [2]

    # Every round improves the second path and none the first: the first
    # leaves after one round, the second after 64, adopting each finished
    # winner as it is, without descending it again.
    rounds.clear()
    solves.clear()
    engine._trial_moves = lambda stack, f0: (rounds.append(f0.copy()), [None] * (len(stack) - 1)
                                             + [(stack[-1], f0[-1] - 1.0, True, 0.0, True)])[1]
    first, second = engine.descend(stack)
    assert [len(f0) for f0 in rounds] == [2] + [1] * 63 and solves == [2]
    assert first[1] == rounds[0][0]
    assert second[2] and second[1] == rounds[-1][-1] - 1.0 and second[3] == 0.0


def test_solve_reports_the_scaled_residual_of_the_nodes_it_returns(line_k):
    # A perturbed chord inside the cell of the site -1, so no row is
    # pinned and the engine's gradient is `action_gradient`. At max_iters = 1
    # the path is still stepping; the residual must be that of the nodes
    # returned, max|g|/dt, not of the nodes before the step.
    shape = Shape.power(2.0)
    chord = Path.from_line([-0.9], [-0.1], 1.0, 64).nodes.copy()
    chord[1:-1, 0] += 0.05 * np.sin(np.linspace(0.0, 3.0 * np.pi, 65))[1:-1]
    engine = _Descent(line_k, shape, 1.0, replace(QUICK, max_iters=1))
    nodes, _, converged, grad_norm, stopped = engine.solve(chord[None])
    assert not stopped[0] and not np.array_equal(nodes[0], chord)
    g = action_gradient(Path(1.0, nodes[0]), line_k, shape)
    residual = float(np.max(np.linalg.norm(g, axis=1))) * 64
    assert grad_norm[0] == pytest.approx(residual, rel=1e-12, abs=0.0)
    assert converged[0] == (residual <= QUICK.grad_tol)
    before = float(np.max(np.linalg.norm(action_gradient(Path(1.0, chord), line_k, shape),
                                         axis=1))) * 64
    assert before > 2.0 * residual


def test_descend_solves_each_path_once(monkeypatch):
    # example1-c02 sites at M = 64 from the chord and a wavy chord, with the
    # kernel cut into blocks of 4 paths: descend makes one solve of the
    # stack, then one per round that holds every candidate of the round,
    # and returns each path's last round winner's solve entry unchanged.
    kset = presets.line_points()
    monkeypatch.setattr(potential_module, "KERNEL_CHUNK_ROW_SITES", 4 * 65 * kset.n)
    engine = _Descent(kset, Shape.identity(), 1.0, SolverConfig(M=64, refinements=0))
    solve, trial_moves = engine.solve, engine._trial_moves
    outside, rounds, winners, candidates = [], [], [], []

    def counted_solve(stack):
        (rounds[-1] if len(rounds) > len(winners) else outside).append(stack.shape[0])
        return solve(stack)

    def recorded_moves(stack, f0):
        # Two release moves per boundary node facing a free neighbour, one
        # capture move per free node facing a boundary neighbour.
        ties = batch_field(stack.reshape(-1, 1), kset)[2].reshape(stack.shape[:2])
        faced = ties[:, 1:-1, None] != np.stack([ties[:, :-2], ties[:, 2:]], axis=2)
        candidates.append(int(np.sum(np.where(ties[:, 1:-1, None], 2, 1) * faced)))
        rounds.append([])
        winners.append(trial_moves(stack, f0))
        return winners[-1]

    engine.solve, engine._trial_moves = counted_solve, recorded_moves
    chord = Path.from_line([-0.2], [0.2], 1.0, 64).nodes
    wavy = chord + 0.05 * np.sin(2.0 * np.pi * np.linspace(0.0, 1.0, 65))[:, None]
    descended = engine.descend(np.array([chord, wavy]))
    assert outside == [2]
    assert rounds == [[count] if count else [] for count in candidates]
    assert max(candidates) > 4
    # Replay which paths were in each round; each leaves on its first round
    # without a winner and ends on its previous winner.
    live, last = [0, 1], {}
    for round_winners in winners:
        assert len(round_winners) == len(live)
        last.update((j, w) for j, w in zip(live, round_winners) if w is not None)
        live = [j for j, w in zip(live, round_winners) if w is not None and w[4]]
    assert live == [] and sorted(last) == [0, 1] and len(winners) > 2
    for j, (nodes, value, converged, grad_norm) in enumerate(descended):
        assert np.array_equal(nodes, last[j][0]) and last[j][4]
        assert (value, converged, grad_norm) == (last[j][1], last[j][2], last[j][3])


def test_minimize_descends_a_duplicate_start_once(monkeypatch):
    # On a stability site set the dp start lands on the straight start's
    # path in the first stage: the later stages descend two starts, not
    # three, and the dp start still reports under its own label.
    solve, stacks = _Descent.solve, []

    def counted_solve(self, stack):
        stacks.append(stack.shape[:2])
        return solve(self, stack)

    monkeypatch.setattr(_Descent, "solve", counted_solve)
    res = minimize([-0.02], [0.02], 1.0, PointSet([[-2.0], [2.0]]), Shape.identity(),
                   SolverConfig(M=64, refinements=2, starts=3))
    stage_stacks = {}
    for paths, n in stacks:  # a stage's first solve descends its stack
        stage_stacks.setdefault(n, paths)
    assert stage_stacks == {17: 3, 33: 2, 65: 2}
    straight, dp, perturb = res.starts
    assert (straight.label, dp.label, perturb.label) == ("straight", "dp", "perturb0")
    assert replace(dp, label="straight") == straight


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
def test_minimize_independent_of_relaxation_blocks(bound, line_k, grid3_k, identity_shape,
                                                   monkeypatch):
    # The QUICK solve relaxes six candidates per round; bound 1 classifies
    # the kernel's rows one by one, bound 516 two paths at a time at M = 128.
    # The zone table and the lattice verdict stream their probes the same way.
    def run():
        lattice = build_mag([[0.0], [0.2], [0.45]], 1, 3, 1)  # 162 sites in R^3
        return (minimize([-0.2], [0.2], 1.0, line_k, identity_shape, QUICK),
                zone_table(grid3_k, ([-1.0, -1.0], [3.0, 3.0]), probe_count=300, seed=2),
                interior_balance_verdict(lattice, probe_count=1200, seed=0))

    ref, ref_table, ref_verdict = run()
    monkeypatch.setattr(potential_module, "KERNEL_CHUNK_ROW_SITES", bound)
    res, table, verdict = run()
    assert np.array_equal(res.path.nodes, ref.path.nodes)
    assert np.array_equal(res.prev_path.nodes, ref.prev_path.nodes)
    assert res.starts == ref.starts
    assert res.grad_norm == ref.grad_norm
    assert table.etas.tobytes() == ref_table.etas.tobytes()
    assert (table.beta, table.cell_to_zone, table.coverage) == (
        ref_table.beta, ref_table.cell_to_zone, ref_table.coverage)
    assert verdict == ref_verdict


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


def test_dp_keeps_endpoints_nearest_one_grid_point(line_k, identity_shape):
    # 0.001 and 0.003 are both nearest the grid point 0.0; both must stay
    # on the axis, so the path starts at x0 and ends at x1.
    gs = GridSpec(lo=[-1.5], hi=[1.5], resolution=0.01, time_slices=20, vmax=4.0)
    path = dp_oracle([0.001], [0.003], 1.0, line_k, identity_shape, gs)
    assert path.nodes[0, 0] == 0.001 and path.nodes[-1, 0] == 0.003


def test_dp_budget_guard(line_k, identity_shape):
    from voract import GridBudgetError

    gs = GridSpec(lo=np.array([-1.0, -1.0, -1.0]), hi=np.array([1.0, 1.0, 1.0]),
                  resolution=0.002, time_slices=400)
    with pytest.raises(GridBudgetError):
        dp_oracle([0.0] * 3, [0.0] * 3, 1.0, PointSet(np.eye(3)), identity_shape, gs)
    # Grids whose uniform axes or step box overflow an int or an array: the
    # budgets are checked before any count or array is made.
    for fields in ({"resolution": 1e-300}, {"vmax": 1e308}):
        gs = GridSpec(**{"lo": [-1.5], "hi": [1.5], "resolution": 0.05, "time_slices": 10,
                         **fields})
        with pytest.raises(GridBudgetError):
            dp_oracle([-0.2], [0.2], 1.0, line_k, identity_shape, gs)


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


NAN = float("nan")
_GRID = {"lo": [-1.5], "hi": [1.5], "resolution": 0.05, "time_slices": 20}


@pytest.mark.parametrize("field,make", [
    ("M must", lambda: SolverConfig(M=16.5)),
    ("M must", lambda: SolverConfig(M=True)),
    ("starts", lambda: SolverConfig(starts=2.0)),
    ("seed", lambda: SolverConfig(seed=-1)),
    ("grad_tol", lambda: SolverConfig(grad_tol=NAN)),
    ("time_slices", lambda: GridSpec(**{**_GRID, "time_slices": 10.5})),
    ("resolution", lambda: GridSpec(**{**_GRID, "resolution": NAN})),
    ("corners", lambda: GridSpec(**{**_GRID, "lo": [NAN]})),
    ("delta", lambda: minimize([-0.2], [0.2], NAN, PointSet([[-1.0], [1.0]]), Shape.identity(),
                               QUICK)),
    ("delta", lambda: dp_oracle([-0.2], [0.2], NAN, PointSet([[-1.0], [1.0]]), Shape.identity(),
                                GridSpec(**_GRID))),
    ("delta", lambda: constrained_minimize([0.2], [0.8], NAN, Polytope([[1.0], [-1.0]], [1.0, 0.0]),
                                           [0.5], Shape.identity(), QUICK)),
    ("delta", lambda: Path(NAN, [[0.0], [0.5], [1.0]])),
    ("power shape p", lambda: Shape.power(NAN)),
    ("affine shape a", lambda: Shape.affine(float("inf"), 0.0)),
    ("dimension", lambda: seed_grid_spec([0.0] * 4, [1.0] * 4, 1.0, PointSet(np.eye(4)))),
])
def test_non_finite_or_non_integral_input_is_an_action_error(field, make):
    with pytest.raises(ActionError, match=field):
        make()


def _seed_grid_cases():
    rng = np.random.default_rng(7)
    yield [-0.0, 0.5], [0.5, -0.0], PointSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    yield [-0.0], [0.2], PointSet([[-1.0], [1.0]])
    yield [0.2, 0.3], [0.3, 0.2], presets.exchange_system().kset
    for d in (1, 2, 3) * 4:
        pts = np.round(rng.uniform(-2.0, 2.0, (int(rng.integers(1, 40)), d)), 2)
        x0 = np.where(rng.random(d) < 0.3, -0.0, rng.uniform(-1.0, 1.0, d))
        yield x0, rng.uniform(-1.0, 1.0, d), PointSet(np.unique(pts, axis=0))


@pytest.mark.parametrize("x0,x1,kset", list(_seed_grid_cases()))
def test_seed_grid_snaps_match_scalar_rounding(x0, x1, kset):
    # The snap values are rounded as one array; they must equal rounding
    # each value on its own, the sign of a zero included.
    spec = action_module.seed_grid_spec(x0, x1, 1.0, kset)
    for ax, snap in enumerate(spec.snap_axes):
        pts = kset.points[:, ax]
        vals = [float(np.asarray(x0, dtype=float)[ax]), float(np.asarray(x1, dtype=float)[ax]),
                *pts.tolist(), *(0.5 * (pts[:, None] + pts[None, :])).ravel().tolist()]
        expected = tuple(sorted(set(float(np.round(v, 12)) for v in vals)))
        assert list(map(repr, snap)) == list(map(repr, expected))


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


_TRIANGLE = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
_MAG_BASE = [[0.0], [0.5]]


@pytest.mark.parametrize("x0,x1,delta,grid,sites", [
    # The first three ids predate the site-set column; None is the line.
    pytest.param([-1.0], [-1.0], 0.5, dict(resolution=0.05, time_slices=20), None,
                 id="x00-x10-0.5-grid0"),
    pytest.param([-0.2], [0.2], 1.0, dict(resolution=0.01, time_slices=100, vmax=4.0), None,
                 id="x01-x11-1.0-grid1"),
    pytest.param([-0.2], [0.2], 1.0, dict(lo=np.array([-1.6]), hi=np.array([1.6]),
                                          resolution=0.02, time_slices=50, vmax=4.0), None,
                 id="x02-x12-1.0-grid2"),
    # The first-axis row window is partial in the first and last slices and
    # the whole axis in the middle ones.
    pytest.param([-1.5, 0.0], [1.0, -0.5], 1.0,
                 dict(lo=[-1.5, -1.0], hi=[1.0, 0.5], resolution=0.25, time_slices=24),
                 _TRIANGLE, id="2d-first-to-last-row"),
    pytest.param([-1.0, 0.0, 0.5], [1.0, 0.5, -0.5], 1.0,
                 dict(lo=[-1.0, -0.5, -0.5], hi=[1.0, 1.0, 0.5], resolution=0.25,
                      time_slices=20, vmax=6.0),
                 [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]], id="3d-first-to-last-row"),
    pytest.param([-1.0, 0.0], [1.0, 0.25], 1.0,  # k = 3 on a 3-point last axis
                 dict(lo=[-1.0, -0.25], hi=[1.0, 0.25], resolution=0.25, time_slices=20,
                      vmax=12.0),
                 _TRIANGLE, id="2d-last-axis-shorter-than-k"),
    pytest.param([0.25, -1.0], [-0.25, 1.0], 1.0,  # k = 3 on a 3-point first axis
                 dict(lo=[-0.25, -1.0], hi=[0.25, 1.0], resolution=0.25, time_slices=20,
                      vmax=12.0),
                 _TRIANGLE, id="2d-first-axis-shorter-than-k"),
    pytest.param([-1.2, 0.05], [0.9, -0.33], 1.0,
                 dict(lo=[-1.5, -1.0], hi=[1.0, 0.5], resolution=0.25, time_slices=30,
                      snap_axes=((-0.37, 0.12, 0.4), (0.05, -0.33))),
                 _TRIANGLE, id="2d-snapped-axes"),
    # The benchmark's two oracle grids (200 cells a side) at 4x the resolution.
    pytest.param([0.0, -1.0], [0.0, 0.0], 1.0,
                 dict(lo=[-1.0, -2.0], hi=[1.0, 1.0], resolution=0.06, time_slices=100),
                 _TRIANGLE, id="example2-oracle-grid-coarse"),
    pytest.param([0.2, 0.3], [0.3, 0.2], 1.0,
                 dict(lo=[-0.8, -0.8], hi=[1.3, 1.3], resolution=0.042, time_slices=100),
                 "mag", id="mag-exchange-oracle-grid-coarse"),
])
def test_dp_matches_full_offset_reference_on_test_grids(x0, x1, delta, grid, sites, line_k,
                                                        identity_shape):
    if sites is None:
        kset = line_k
    elif sites == "mag":
        kset = build_mag(_MAG_BASE, 1, 2, default_window(_MAG_BASE, 1, 2, x0, x1)).kset
    else:
        kset = PointSet(sites)
    gs = GridSpec(**{"lo": np.array([-1.5]), "hi": np.array([1.5]), **grid})
    _, ref_nodes, _, _ = _reference_dp(x0, x1, delta, kset, identity_shape, gs)
    path = dp_oracle(x0, x1, delta, kset, identity_shape, gs)
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


def _reference_constrained(x0, x1, delta, polytope, center, shape, cfg):
    """The projected-gradient loop `constrained_minimize` ran before it used
    the descent engine: diagonal preconditioner, Dykstra projection of every
    line-search trial, Armijo test on the projected step, and the gradient
    mapping at dt/4 checked every iteration. Returns ``(nodes, action,
    converged, pg_norm)``."""
    a, b, c = (np.asarray(v, dtype=float) for v in (x0, x1, center))

    def psi_and_grad(nodes):
        rel = nodes - c[None, :]
        s = np.einsum("ij,ij->i", rel, rel)
        return shape.h(s), 2.0 * shape.h_prime(s)[:, None] * rel, s

    def value(nodes, dt):
        diffs = np.diff(nodes, axis=0)
        h = psi_and_grad(nodes)[0]
        return (float(np.sum(diffs * diffs)) / dt
                + dt * (0.5 * h[0] + float(np.sum(h[1:-1])) + 0.5 * h[-1]))

    meshes = action_module._mesh_schedule(cfg)
    nodes = Path.from_line(a, b, delta, meshes[0]).nodes.copy()
    nodes[1:-1] = polytope.project(nodes[1:-1], tol=1e-10)
    converged, pg_norm = False, np.inf
    for m in meshes:
        if nodes.shape[0] != m + 1:
            nodes = action_module._interp_to_mesh(nodes, delta, m)
            nodes[1:-1] = polytope.project(nodes[1:-1], tol=1e-10)
        nodes[0], nodes[-1] = a, b
        dt = delta / m
        alpha, f0 = 1.0, value(nodes, dt)
        for _ in range(cfg.max_iters):
            _, gpsi, s = psi_and_grad(nodes)
            g = 2.0 * (2.0 * nodes[1:-1] - nodes[:-2] - nodes[2:]) / dt + dt * gpsi[1:-1]
            ref = 0.25 * dt
            mapped = nodes[1:-1] - polytope.project(nodes[1:-1] - ref * g, tol=1e-10)
            pg_norm = float(np.max(np.linalg.norm(mapped, axis=1), initial=0.0)) / ref
            converged = pg_norm <= cfg.grad_tol
            if converged:
                break
            diag = 4.0 / dt + 2.0 * dt * np.maximum(shape.h_prime(s[1:-1]), 0.0)
            direction = g / diag[:, None]
            step = alpha
            for _ in range(45):
                trial = nodes.copy()
                trial[1:-1] = polytope.project(nodes[1:-1] - step * direction, tol=1e-10)
                f_trial = value(trial, dt)
                if f_trial <= f0 - 1e-4 * float(np.sum((trial - nodes) ** 2)) / step:
                    nodes, f0, alpha = trial, f_trial, min(step * 1.6, 16.0)
                    break
                step *= 0.5
            else:
                break
    return nodes, value(nodes, delta / (nodes.shape[0] - 1)), converged, pg_norm


def _halfspaces(*rows):
    """Polytope from rows ``(n_1, ..., n_d, b)`` of ``n·x <= b``."""
    rows = np.array(rows, dtype=float)
    return Polytope(rows[:, :-1], rows[:, -1])


_UNIT_SQUARE = [(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)]
_CUBE = [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1)]

CONSTRAINED_CASES = {
    # 1-D: the attractor below the interval, so the path presses on 0.
    "interval-power": (_halfspaces((1, 1), (-1, 0)), [0.2], [0.8], [-1.0],
                       Shape.power(2.0)),
    # Attractor outside a box corner: the middle of the path sits on the vertex.
    "square-vertex": (_halfspaces(*_UNIT_SQUARE), [0.2, 0.9], [0.9, 0.2], [2.5, 2.5],
                      Shape.identity()),
    # An oblique face cuts the corner off; the path rides it and the box faces.
    "square-oblique": (_halfspaces(*_UNIT_SQUARE, (1, 1, 1.5)), [0.6, 0.9], [0.9, 0.6],
                       [2.0, 2.0], Shape.affine(2.0, 0.3)),
    # A triangle with two oblique faces and an acute corner.
    "triangle": (_halfspaces((-1, 0, 0), (1, -2, 0), (1, 2, 2)), [0.0, 0.1], [0.0, 0.9],
                 [3.0, 0.5], Shape.identity()),
    "triangle-sqrt": (_halfspaces((-1, 0, 0), (1, -2, 0), (1, 2, 2)), [0.0, 0.1], [0.0, 0.9],
                      [3.0, 0.5], Shape.power(0.5)),
    # 3-D: a cube with one and with two oblique cuts, the attractor past them.
    "cube-cut": (_halfspaces(*_CUBE, (1, 1, 1, 1)), [-0.5, 0.5, 0.5], [0.5, 0.5, -0.5],
                 [2.0, 2.0, 2.0], Shape.identity()),
    "cube-two-cuts": (_halfspaces(*_CUBE, (1, 1, 1, 1), (1, -1, 2, 1)), [-0.5, 0.5, 0.5],
                      [0.5, 0.5, -0.5], [2.0, 1.0, 3.0], Shape.affine(1.5, 0.0)),
    "cube-corner": (_halfspaces(*_CUBE), [-0.5, 0.9, 0.9], [0.9, 0.9, -0.5], [3.0, 3.0, 3.0],
                    Shape.power(2.0)),
}


@pytest.mark.parametrize("name", sorted(CONSTRAINED_CASES))
def test_constrained_matches_projected_gradient_reference(name):
    polytope, x0, x1, center, shape = CONSTRAINED_CASES[name]
    cfg = SolverConfig(M=32, refinements=1)
    con = constrained_minimize(x0, x1, 1.0, polytope, center, shape, cfg)
    _, ref_action, _, _ = _reference_constrained(x0, x1, 1.0, polytope, center, shape, cfg)
    assert con.converged and con.pg_norm <= cfg.grad_tol
    assert np.all(polytope.contains(con.path.nodes, tol=1e-8))
    assert con.breakdown.total <= ref_action * (1.0 + 1e-9)


@pytest.mark.parametrize("name", ["square-vertex", "square-oblique"])
def test_constrained_verdict_is_the_engine_final_entry(name, monkeypatch):
    # `constrained_minimize` reports the engine's entry for its one start,
    # the residual max|g_eff|/dt of the returned path, and computes no
    # second verdict (no `action_gradient`, no projected gradient mapping).
    polytope, x0, x1, center, shape = CONSTRAINED_CASES[name]
    cfg = SolverConfig(M=32, refinements=1)
    engine = _Descent(PointSet([center]), shape, 1.0, cfg, polytope)
    meshes = action_module._mesh_schedule(cfg)
    chord = Path.from_line(x0, x1, 1.0, meshes[0]).nodes
    _, ((nodes, _, converged, residual),) = action_module._descend_stages(
        engine, chord[None].copy(), np.array(x0, float), np.array(x1, float), meshes)
    _, g_eff, _, dt = engine._state(nodes[None])
    assert residual == float(np.max(np.linalg.norm(g_eff[0], axis=1))) / dt

    def second_judge(*args):
        raise AssertionError("constrained_minimize computed its own gradient")

    monkeypatch.setattr(action_module, "action_gradient", second_judge)
    con = constrained_minimize(x0, x1, 1.0, polytope, center, shape, cfg)
    assert np.array_equal(con.path.nodes, nodes)
    assert type(con.converged) is bool and con.converged == converged
    assert type(con.pg_norm) is float and con.pg_norm == residual


@pytest.mark.parametrize("center", [[1.0, 2.0], [0.0, 3.0], [-2.0, 1.5], [0.5, -1.0]])
def test_face_pins_project_the_gradient_onto_the_tangent_cone(center):
    # The middle node sits on the obtuse apex (0, 1) of a roof. For the
    # attractor (1, 2) the step -g leaves through both roof faces, yet the
    # tangent-cone projection slides down the right face, not to zero; for
    # (0, 3) it is zero, for (-2, 1.5) the left face alone is active, and
    # for (0.5, -1) no face is.
    roof = _halfspaces((-0.2, 1, 1), (0.2, 1, 1), (1, 0, 1), (-1, 0, 1), (0, -1, 1))
    apex = np.array([0.0, 1.0])
    engine = _Descent(PointSet([center]), Shape.identity(), 1.0, QUICK, roof)
    _, g_eff, _, _ = engine._state(np.array([[apex, apex, apex]]))
    g = action_gradient(Path(1.0, [apex, apex, apex]), PointSet([center]), Shape.identity())
    r = 1e-3
    mapping = (apex - roof.project(apex - r * g[0], tol=1e-14)) / r
    np.testing.assert_allclose(g_eff[0, 0], mapping, rtol=0.0, atol=1e-9)
