import functools
import itertools
import sys
import tracemalloc
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
from voract.cli import load_run_config
from voract.geometry import GeometryError, class_frame, opt_class
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


@pytest.mark.parametrize("make", [lambda: Shape.affine(1e308, 0.0), lambda: Shape.power(1000)],
                         ids=["affine-1e308", "power-1000"])
def test_shape_that_overflows_on_the_check_grid_is_refused(make):
    # h is inf from s ~ 1.8 (affine) or s ~ 2.03 (power) on; the checks must
    # not read the resulting NaNs as passing, and must warn nothing.
    with pytest.raises(ActionError, match="not finite"):
        make()


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
        assert evaluate_action(path, kset, shape).total == engine.value(path.nodes[None])[0][0]


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
    prev_total = evaluate_action(res.prev_path, line_k, identity_shape).total
    rel = abs(res.breakdown.total - prev_total) / res.breakdown.total
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
    """Random slopes, a gradient projected onto the pinned rows' tangents and
    the rows' tangent projectors, as ``value`` hands them over, and the
    tangent basis of every row."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.1, 2.0, (b, n_int + 2))
    g = rng.standard_normal((b, n_int, d))
    bases = [np.eye(d)] * (b * n_int)
    for _, rows, tangent in pins:
        for r in rows:
            bases[r] = tangent
            g.reshape(-1, d)[r] = tangent @ (tangent.T @ g.reshape(-1, d)[r])
    proj = np.array([z @ z.T for z in bases]).reshape(b, n_int, d, d)
    return s, g, proj, bases


def _triangle_direction_stack(triangle_k):
    """Two stacked paths of 7 interior rows. Rows 0 and 10 sit at the
    circumcenter class (0-dimensional tangent), rows 3, 4 and 13 on the
    bisector of sites 0 and 2, rows 5, 6 (the path's last) and 7 (the next
    path's first) on the bisector of sites 0 and 1. Returns the engine, the
    :meth:`_Descent._direction` arguments, the rows' bases and the pins."""
    engine = _Descent(triangle_k, Shape.power(2.0), 1.0, QUICK)
    b, n_int, d = 2, 7, 2
    pins = [((0, 1, 2), np.array([0, 10]), np.zeros((2, 0))),
            ((0, 2), np.array([3, 4, 13]), np.array([[0.0], [1.0]])),
            ((0, 1), np.array([5, 6, 7]), np.array([[1.0], [1.0]]) / np.sqrt(2.0))]
    s, g, proj, bases = _pinned_fixture(pins, b, n_int, d, 3)
    return engine, (g, proj, s, 1.0 / (n_int + 1)), bases, pins


def _cube_direction_stack():
    """3-D, two stacked paths of 6 interior rows in the unit cube: rows on
    one face (2-dimensional tangent), on an edge (1-dimensional) and at a
    vertex (none). With h(s) = sqrt(s) the rows 2 and 9 sit on their own
    site, where h' is infinite. Returned as :func:`_triangle_direction_stack`
    returns its stack, without the pins."""
    cube = _halfspaces(*_CUBE)
    engine = _Descent(PointSet([[0.0, 0.0, 0.0]]), Shape.power(0.5), 1.0, QUICK, cube)
    b, n_int, d = 2, 6, 3
    null = {}
    for faces in ((0,), (0, 2), (0, 2, 4)):
        vt = np.linalg.svd(cube.normals[list(faces)], full_matrices=True)[2]
        null[faces] = vt[len(faces):].T
    pins = [(("faces", 0), np.array([0, 1, 8]), null[(0,)]),
            (("faces", 0, 2), np.array([4, 5, 6]), null[(0, 2)]),
            (("faces", 0, 2, 4), np.array([11]), null[(0, 2, 4)])]
    s, g, proj, bases = _pinned_fixture(pins, b, n_int, d, 5)
    s[0, 3] = s[1, 4] = 0.0  # interior rows 2 and 9, free: their projectors are the identity
    bases[2] = bases[9] = np.zeros((d, 0))
    return engine, (g, proj, s, 1.0 / (n_int + 1)), bases


def _line_direction_stack(line_k):
    """1-D, three stacked paths of 5 interior rows; rows 2, 3 and 11 wait on
    the midpoint of the two sites (0-dimensional tangent). Returned as
    :func:`_cube_direction_stack` returns its stack."""
    engine = _Descent(line_k, Shape.power(2.0), 1.0, QUICK)
    b, n_int, d = 3, 5, 1
    s, g, proj, bases = _pinned_fixture([((0, 1), np.array([2, 3, 11]), np.zeros((1, 0)))],
                                        b, n_int, d, 7)
    return engine, (g, proj, s, 1.0 / (n_int + 1)), bases


def test_descent_direction_is_the_reduced_newton_step(triangle_k):
    engine, args, bases, pins = _triangle_direction_stack(triangle_k)
    g, _, s, dt = args
    for key, _, tangent in pins:  # the engine's tangents span the same lines
        basis = class_frame(key, triangle_k).basis_b
        np.testing.assert_allclose(basis.T @ basis, tangent @ tangent.T, atol=1e-15)
    step = engine._direction(*args)
    np.testing.assert_allclose(step, _dense_pinned_step(g, s, dt, engine.shape, bases),
                               rtol=0.0, atol=1e-12)


def test_descent_direction_on_polytope_faces_and_infinite_curvature():
    # The rows 2 and 9 on their own site, where h' is infinite, must not move.
    engine, args, bases = _cube_direction_stack()
    g, _, s, dt = args
    shape, d = engine.shape, g.shape[2]
    step = engine._direction(*args)
    assert np.all(np.isfinite(step))
    assert np.all(step.reshape(-1, d)[[2, 9]] == 0.0)
    np.testing.assert_allclose(step, _dense_pinned_step(g, s, dt, shape, bases),
                               rtol=0.0, atol=1e-12)


def _reference_direction(engine, g_eff, proj, s, dt):
    """`_Descent._direction` through scipy's ``solveh_banded``, kept verbatim."""
    from scipy.linalg import solveh_banded

    b, n_int, d = g_eff.shape
    size = b * n_int
    hp = engine.shape.h_prime(s[:, 1:-1]).ravel()
    frozen = np.isinf(hp)
    diag = 4.0 / dt + 2.0 * dt * np.maximum(np.where(frozen, 0.0, hp), 0.0) + 1e-12
    proj = np.where(frozen[:, None, None], 0.0, proj.reshape(size, d, d))
    rhs = np.where(frozen[:, None], 0.0, g_eff.reshape(size, d))
    strip = np.zeros((size, 3 * d, d))  # (diagonal | coupling to the next row | 0) blocks
    strip[:, :d] = diag[:, None, None] * proj + (np.eye(d) - proj)
    strip[:-1, d:2 * d] = (-2.0 / dt) * (proj[1:] @ proj[:-1])
    strip[n_int - 1::n_int, d:2 * d] = 0.0
    # Lower band storage (?ptsv if d = 1, else ?pbsv): band[m, rd + c] = strip[r, c + m, c].
    k, c = np.ogrid[:2 * d, :d]
    band = strip[:, k + c, c].transpose(1, 0, 2).reshape(2 * d, size * d)
    step = solveh_banded(band, rhs.reshape(-1), lower=True, check_finite=False)
    return step.reshape(b, n_int, d)


def _direction_stacks(line_k, triangle_k):
    return {"line": _line_direction_stack(line_k)[:2],
            "triangle": _triangle_direction_stack(triangle_k)[:2],
            "cube": _cube_direction_stack()[:2]}


@pytest.mark.parametrize("case", ["line", "triangle", "cube"])
def test_direction_lapack_call_is_the_solveh_banded_step(case, line_k, triangle_k):
    # dptsv (d = 1) and dpbsv (d = 2, 3) called directly give the step that
    # solveh_banded gives on the same band, bit for bit.
    engine, args = _direction_stacks(line_k, triangle_k)[case]
    step = engine._direction(*args)
    assert step.tobytes() == _reference_direction(engine, *args).tobytes()


@pytest.mark.parametrize("case", ["line", "triangle", "cube"])
def test_direction_of_a_band_that_is_not_positive_definite_raises(case, line_k, triangle_k):
    # Projectors -I make every diagonal block 2 - D_r < 0: LAPACK reports a
    # leading minor that is not positive definite, and both calls raise.
    from scipy.linalg import LinAlgError

    engine, (g, proj, s, dt) = _direction_stacks(line_k, triangle_k)[case]
    bad = -np.broadcast_to(np.eye(g.shape[2]), proj.shape)
    for direction in (engine._direction, functools.partial(_reference_direction, engine)):
        with pytest.raises(LinAlgError):
            direction(g, bad, s, dt)


def test_mag_exchange_descent_converges_in_few_iterations():
    # The Newton step of the pinned problem converges in a few iterations
    # per stage at every mesh; five per stage suffice for every start.
    sc = load_run_config(presets.RUN_CONFIGS["mag-exchange"])
    cfg = SolverConfig(M=256, refinements=3, starts=1, max_iters=5)
    res = minimize(sc["x0"], sc["x1"], sc["delta"], sc["kset"], sc["shape"], cfg)
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


def _classes(engine, ids):
    """The class tuples that the class ids ``ids`` stand for in ``engine``'s registry."""
    registry = list(engine.registry)
    return [registry[i] for i in np.ravel(ids)]


def _ties(engine, ids):
    """Tie flags (several sites in the class) of the class ids ``ids`` of ``engine``."""
    return np.array([len(cls) >= 2 for cls in engine.registry])[ids]


def _reference_action_terms(stack, slope_sq, delta, shape):
    """``action._action_terms`` as it was written with numpy's wrappers."""
    b, n, _ = stack.shape
    dt = delta / (n - 1)
    diffs = np.diff(stack, axis=1)
    kin = np.sum(np.einsum("bij,bij->bi", diffs, diffs), axis=1) / dt
    h = shape.h(slope_sq).reshape(b, n)
    return kin, dt * (0.5 * h[:, 0] + np.sum(h[:, 1:-1], axis=1) + 0.5 * h[:, -1])


def _reference_interior_gradient(nodes, etas, slope_sq, dt, shape):
    """``action._interior_gradient`` as it was written with ``np.where``."""
    kin = 2.0 * (2.0 * nodes[..., 1:-1, :] - nodes[..., :-2, :] - nodes[..., 2:, :]) / dt
    s = slope_sq[..., 1:-1]
    hp = np.where(s == 0.0, 0.0, shape.h_prime(s))
    pot = dt * hp[..., None] * 2.0 * (nodes[..., 1:-1, :] - etas[..., 1:-1, :])
    return kin + pot


def _reference_value(engine, stack):
    """``_Descent.value`` before its per-class tables, kept verbatim: every
    evaluation registers each class by ``setdefault``, masks each tie
    group's interior rows, takes its frame from ``class_frame`` and forms
    ``B^T B`` anew. Face pins come from the engine's ``_face_groups``."""
    b, n, d = stack.shape
    etas, s, _, groups = batch_field(stack.reshape(-1, d), engine.kset)
    f = np.add(*_reference_action_terms(stack, s, engine.delta, engine.shape))
    s = s.reshape(b, n)
    g = _reference_interior_gradient(stack, etas.reshape(b, n, d), s, engine.delta / (n - 1),
                                     engine.shape)
    pins, ids = [], np.empty(b * n, dtype=np.intp)
    for cls, rows in groups:
        ids[rows] = engine.registry.setdefault(cls, len(engine.registry))
        if len(cls) < 2:
            continue
        k = rows % n
        rows = rows[(k >= 1) & (k <= n - 2)]
        if not rows.size:
            continue
        try:
            basis = class_frame(cls, engine.kset).basis_b
        except GeometryError:
            continue
        pins.append((basis, rows - 2 * (rows // n) - 1))
    flat = g.reshape(-1, d)
    if engine.polytope is not None:
        pins += [(basis, rows) for (basis, _), rows in
                 engine._face_groups(stack[:, 1:-1].reshape(-1, d), flat)]
    proj = np.zeros((b * (n - 2), d, d))
    proj.reshape(-1, d * d)[:, ::d + 1] = 1.0
    for basis, rows in pins:
        coef = np.sum(flat[rows][:, None] * basis, axis=2)
        flat[rows] = np.sum(coef[:, :, None] * basis, axis=1)
        proj[rows] = basis.T @ basis
    return f, s, g, proj.reshape(b, n - 2, d, d), ids.reshape(b, n)


@st.composite
def _value_cases(draw):
    """Sites, a shape, an optional box, a kernel path and two stacks whose
    nodes are drawn from the sites, pair midpoints, points on pair
    bisectors, triple circumcentres and random points, and clipped to the
    box. The collinear sites with a 1e-3 tie tolerance tie far above their
    line with no locus."""
    from voract.potential import _circumcenter, _pair_probes

    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if d >= 2 and draw(st.booleans()):
        sites = np.zeros((3, d))
        sites[:, 0] = [-1.0, 0.0, 1.0]
        kset = PointSet(sites, tie_tolerance=1e-3)
        far = np.zeros((4, d))
        far[:, 0], far[:, 1] = rng.uniform(-0.5, 0.5, 4), 100.0
        pool = [sites, far]
    else:
        cells = rng.choice(9 ** d, size=draw(st.integers(2, 6)), replace=False)
        sites = (np.stack(np.unravel_index(cells, (9,) * d), axis=1) - 4) / 2.0
        kset = PointSet(sites)
        pool = [sites]
    n_sites = kset.n
    pairs = np.stack(np.triu_indices(n_sites, 1), axis=1)
    mids, offsets = _pair_probes(kset.points, pairs)
    centers = [_circumcenter(kset.points[list(t)]) for t in itertools.combinations(range(n_sites), 3)]
    pool += [mids, offsets, np.array([c for c in centers if c is not None]).reshape(-1, d),
             rng.uniform(-3.0, 3.0, size=(8, d))]
    pool = np.vstack(pool)
    b, n = draw(st.integers(1, 3)), draw(st.integers(3, 9))
    stacks = [pool[rng.integers(0, len(pool), size=(b, n))] for _ in range(2)]
    shape = draw(st.sampled_from([Shape.identity(), Shape.power(0.5), Shape.power(1.5),
                                  Shape.affine(2.0, 0.5)]))
    polytope = None
    if draw(st.booleans()):  # a box the stacks are clipped to: many nodes sit on its faces
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, size=(2, d)), axis=0) + [[-0.5], [0.5]]
        polytope = Polytope.from_box(lo, hi)
        stacks = [np.clip(stack, lo, hi) for stack in stacks]
    kernel = draw(st.sampled_from(["dense", "tree", "blocks"]))
    return kset, shape, polytope, kernel, stacks


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_value_cases())
def test_value_matches_the_reference_evaluation(case):
    # Exact ties, ties with no locus, power 1/2 on a site, affine shapes,
    # face pins, the tree and the blocked kernel: two evaluations in a row
    # give the reference's outputs bit for bit and leave the same registry,
    # entries and order.
    kset, shape, polytope, kernel, stacks = case
    engine, ref = (_Descent(kset, shape, 1.3, SolverConfig(), polytope) for _ in range(2))
    with pytest.MonkeyPatch.context() as patch, np.errstate(divide="ignore"):
        if kernel == "tree":
            patch.setattr(potential_module, "TREE_MIN_SITES", 1)
        elif kernel == "blocks":
            patch.setattr(potential_module, "KERNEL_CHUNK_ROW_SITES", 5)
        for stack in stacks:
            out, want = engine.value(stack), _reference_value(ref, stack)
            for a, b in zip(out, want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert list(engine.registry.items()) == list(ref.registry.items())


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
    nodes, values, grad_norm, stopped, classes = engine.solve(stack)
    assert stopped.all()
    for j in range(stack.shape[0]):
        # Each id stands for the node's nearest-site class.
        assert _classes(engine, classes[j]) == [opt_class(x, kset) for x in nodes[j]]
        # Alone, on the stack's engine and on a fresh one that meets every
        # class first in this path and so numbers the classes its own way.
        for solver in (engine, _fresh(engine)):
            one = solver.solve(stack[j:j + 1])
            assert np.array_equal(one[0][0], nodes[j])
            assert one[1][0] == values[j] and one[2][0] == grad_norm[j]
            assert _classes(solver, one[4][0]) == _classes(engine, classes[j])
    # The move rounds run in lockstep too, a duplicated path included.
    stack = np.concatenate([stack, stack[2:3]])
    descended = engine.descend(stack)
    assert all(len(rows) == stack.shape[0] for rows in descended)
    for j in range(stack.shape[0]):
        alone = engine.descend(stack[j:j + 1])
        assert all(np.array_equal(rows[j], one[0]) for rows, one in zip(descended, alone))


def test_descend_of_a_permuted_stack_permutes_its_entries():
    # A class's zone value does not depend on which path met it first: a
    # fresh engine descending the 3-D candidate stack rotated to start at
    # the chord returns the rotated entries, bit for bit.
    engine = _Descent(PointSet(SITES_3D), Shape.power(2.0), 1.0, QUICK)
    stack = _candidate_stack(engine, [-2.0, 1.0, -1.0], [0.0, -0.5, 0.0], 32)
    forward = _fresh(engine).descend(stack)
    perm = np.roll(np.arange(len(stack)), -1)
    for rows, permuted in zip(forward, _fresh(engine).descend(stack[perm])):
        assert np.array_equal(permuted, rows[perm])


@pytest.mark.parametrize("case", ["line", "mag", "3d"])
def test_descend_stages_of_a_permuted_stack_permute_its_stages(case, line_k):
    # Four starts, one of them a copy of another, in two orders on fresh
    # engines: the stage before last and every row of the last stage are
    # permuted bit for bit, whichever copy of the duplicate comes first and
    # is descended.
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
    forward = action_module._descend_stages(_fresh(engine), stack.copy(), a, b, [8, 16, 32])
    permuted = action_module._descend_stages(_fresh(engine), stack[perm], a, b, [8, 16, 32])
    for rows, p_rows in zip(forward, permuted):
        assert np.array_equal(p_rows, rows[perm])


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
    engine._trial_moves = lambda stack, f0, _: (calls.append(len(stack))
                                                or (np.full(len(stack), -1), ()))
    nodes = Path.from_line([-1.5], [0.5], 1.0, 8).nodes
    assert nodes[2, 0] == -1.0
    with np.errstate(invalid="ignore"):
        _, _, (grad_norm,) = engine.descend(nodes[None])
    assert calls == [1]
    assert np.isnan(grad_norm) and not grad_norm <= engine.cfg.grad_tol


def test_solve_only_descends_and_descend_runs_the_rounds(line_k):
    engine = _Descent(line_k, Shape.power(2.0), 1.0, QUICK)

    def no_moves(stack, f0, classes):
        raise AssertionError("solve ran a trial move")

    engine._trial_moves = no_moves
    chord = Path.from_line([-0.7], [0.9], 1.0, 32).nodes
    stack = np.array([chord, chord[::-1].copy()])
    _, _, grad_norm, stopped, _ = engine.solve(stack)
    assert np.all(grad_norm <= QUICK.grad_tol) and stopped.all()
    # A descent still stepping at max_iters ends descend without a round.
    capped = _Descent(line_k, Shape.power(2.0), 1.0, replace(QUICK, max_iters=1))
    capped._trial_moves = no_moves
    assert not capped.solve(chord[None])[3][0]
    assert not np.any(capped.descend(stack)[2] <= QUICK.grad_tol)

    solve, solves, rounds = engine.solve, [], []

    def counted_solve(stack):
        solves.append(stack.shape[0])
        return solve(stack)

    engine.solve = counted_solve
    engine._trial_moves = lambda stack, f0, _: (rounds.append(f0.copy())
                                                or (np.full(len(stack), -1), ()))
    engine.descend(stack)
    assert len(rounds) == 1 and len(rounds[0]) == 2 and solves == [2]

    # Every round improves the second path and none the first: the first
    # leaves after one round, the second after 64, adopting each finished
    # winner as it is, without descending it again.
    rounds.clear()
    solves.clear()

    def last_path_improves(stack, f0, classes):
        rounds.append(f0.copy())
        pick = np.full(len(stack), -1)
        pick[-1] = 0
        return pick, (stack[-1:], f0[-1:] - 1.0, np.zeros(1), np.ones(1, bool), classes[-1:])

    engine._trial_moves = last_path_improves
    _, values, grad_norm = engine.descend(stack)
    assert [len(f0) for f0 in rounds] == [2] + [1] * 63 and solves == [2]
    assert values[0] == rounds[0][0]
    assert values[1] == rounds[-1][-1] - 1.0 and grad_norm[1] == 0.0


@pytest.mark.parametrize("case", ["3d", "cube-corner", "example1-c02"])
def test_solve_classifies_each_evaluated_stack_once(case, monkeypatch):
    # One field-kernel call per evaluated stack, the entry stack and each
    # line-search trial, on exactly its nodes and from `value`: an accepted
    # trial's pinned state is the next iteration's, and a release/capture
    # round reads the tie classes of the evaluation that produced its nodes,
    # so no iterate is classified twice.
    if case == "3d":
        engine = _Descent(PointSet(SITES_3D), Shape.power(2.0), 1.0, QUICK)
        stack = _candidate_stack(engine, [-2.0, 1.0, -1.0], [0.0, -0.5, 0.0], 32)
    elif case == "cube-corner":
        polytope, x0, x1, center, shape = CONSTRAINED_CASES[case]
        engine = _Descent(PointSet([center]), shape, 1.0, QUICK, polytope)
        chord = Path.from_line(x0, x1, 1.0, 32).nodes
        wavy = chord.copy()
        wavy[1:-1] += 0.2 * np.sin(np.linspace(0.0, 3.0 * np.pi, 33))[1:-1, None]
        stack = np.array([chord, wavy])
    else:
        # The chord captures one node per round; a start waiting on the
        # bisector at every interior node releases one.
        sc = load_run_config(presets.RUN_CONFIGS[case])
        engine = _Descent(sc["kset"], sc["shape"], sc["delta"], SolverConfig(M=16, refinements=0))
        chord = Path.from_line(sc["x0"], sc["x1"], sc["delta"], 16).nodes
        waiting = chord.copy()
        waiting[1:-1] = 0.0
        stack = np.array([chord, waiting])
    evaluated, classified, callers, tie_counts = [], [], [], []
    feasible, trial_moves = engine._feasible, engine._trial_moves

    def recorded_feasible(nodes):
        evaluated.append(feasible(nodes).copy())
        return nodes

    def recorded_kernel(points, kset, *args, **kwargs):
        classified.append(points.copy())
        callers.append(sys._getframe(1).f_code.co_name)
        return batch_field(points, kset, *args, **kwargs)

    def recorded_moves(stack, f0, classes):
        pick, relaxed = trial_moves(stack, f0, classes)
        tie_counts.extend((np.sum(_ties(engine, before)), np.sum(_ties(engine, relaxed[4][j])))
                          for before, j in zip(classes, pick) if j >= 0)
        return pick, relaxed

    engine._feasible, engine._trial_moves = recorded_feasible, recorded_moves
    monkeypatch.setattr(action_module, "batch_field", recorded_kernel)
    if case == "example1-c02":
        engine.descend(stack)
        assert any(after > before for before, after in tie_counts)
        assert any(after < before for before, after in tie_counts)
    else:
        assert engine.solve(stack)[3].all()
    assert len(evaluated) > 2 * stack.shape[0]
    assert len(classified) == len(evaluated) and set(callers) == {"value"}
    for nodes, points in zip(evaluated, classified):
        assert np.array_equal(points, nodes.reshape(-1, nodes.shape[2]))


def test_solve_reports_the_scaled_residual_of_the_nodes_it_returns(line_k):
    # A perturbed chord inside the cell of the site -1, so no row is
    # pinned and the engine's gradient is `action_gradient`. At max_iters = 1
    # the path is still stepping; the residual must be that of the nodes
    # returned, max|g|/dt, not of the nodes before the step.
    shape = Shape.power(2.0)
    chord = Path.from_line([-0.9], [-0.1], 1.0, 64).nodes.copy()
    chord[1:-1, 0] += 0.05 * np.sin(np.linspace(0.0, 3.0 * np.pi, 65))[1:-1]
    engine = _Descent(line_k, shape, 1.0, replace(QUICK, max_iters=1))
    nodes, _, grad_norm, stopped, _ = engine.solve(chord[None])
    assert not stopped[0] and not np.array_equal(nodes[0], chord)
    g = action_gradient(Path(1.0, nodes[0]), line_k, shape)
    residual = float(np.max(np.linalg.norm(g, axis=1))) * 64
    assert grad_norm[0] == pytest.approx(residual, rel=1e-12, abs=0.0)
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

    def recorded_moves(stack, f0, classes):
        # The scalar reference's candidates; the round's tie classes are
        # those a fresh classification finds.
        ties = batch_field(stack.reshape(-1, 1), kset)[2].reshape(stack.shape[:2])
        assert np.array_equal(ties, _ties(engine, classes))
        candidates.append(len(_reference_trials(engine, stack, classes)[1]))
        rounds.append([])
        winners.append(trial_moves(stack, f0, classes))
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
    for pick, relaxed in winners:
        assert len(pick) == len(live)
        last.update((j, [entry[w] for entry in relaxed]) for j, w in zip(live, pick) if w >= 0)
        live = [j for j, w in zip(live, pick) if w >= 0 and relaxed[3][w]]
    assert live == [] and sorted(last) == [0, 1] and len(winners) > 2
    nodes, values, grad_norm = descended
    for j in (0, 1):
        assert np.array_equal(nodes[j], last[j][0]) and last[j][3]
        assert (values[j], grad_norm[j]) == (last[j][1], last[j][2])


def _reference_trials(engine, stack, ids):
    """Scalar reference of a round's candidate stack: the triple loop over
    paths, interior nodes k and neighbours k - 1, k + 1, then the run
    captures of its captures in the same order, and the moves ``(kind,
    path, k, neighbour)`` it makes."""
    registry = list(engine.registry)
    n = stack.shape[1]
    trials, moves, runs = [], [], []
    for i, nodes in enumerate(stack):
        ties = [len(registry[c]) >= 2 for c in ids[i]]
        for k in range(1, n - 1):
            for nb in (k - 1, k + 1):
                if ties[k] and not ties[nb]:
                    kind, positions = "release", [nodes[k] + w * (nodes[nb] - nodes[k])
                                                  for w in (0.5, 1.0)]
                elif not ties[k] and ties[nb]:
                    try:
                        frame = class_frame(registry[ids[i, nb]], engine.kset)
                    except GeometryError:
                        continue

                    def project(p):
                        return frame.p_h + frame.basis_b.T @ (frame.basis_b @ (p - frame.p_h))

                    kind, positions = "capture", [project(nodes[k])]
                    # The run: free interior nodes from k away from nb, as many
                    # as nb's segment of its class has.
                    seg, away = 0, k - nb
                    while 0 <= nb - seg * away < n and ids[i, nb - seg * away] == ids[i, nb]:
                        seg += 1
                    run = nodes.copy()
                    moved, m = 0, k
                    while moved < seg and 0 < m < n - 1 and not ties[m]:
                        run[m] = project(nodes[m])
                        moved, m = moved + 1, m + away
                    if moved >= 2:
                        runs.append((run, ("run", i, k, nb)))
                else:
                    continue
                for pos in positions:
                    trials.append(nodes.copy())
                    trials[-1][k] = pos
                    moves.append((kind, i, k, nb))
    trials += [run for run, _ in runs]
    moves += [move for _, move in runs]
    return np.array(trials).reshape(-1, *stack.shape[1:]), moves


@pytest.mark.parametrize("case", ["line", "mag", "3d", "example1-c02", "example1-c02-chord",
                                  "tied-endpoint"])
def test_trial_moves_build_the_reference_candidates(case, line_k, triangle_k):
    # Every round of a descend relaxes the candidates of the scalar triple
    # loop and its run captures, in their order and bit for bit.
    if case in ("line", "mag", "3d"):
        kset, x0, x1 = {"line": (line_k, [-0.2], [0.2]),
                        "mag": (build_mag([[0.0], [0.5]], 1, 2, 1).kset, [0.2, 0.3], [0.3, 0.2]),
                        "3d": (PointSet(SITES_3D), [-2.0, 1.0, -1.0], [0.0, -0.5, 0.0])}[case]
        engine = _Descent(kset, Shape.power(2.0), 1.0, QUICK)
        stack = _candidate_stack(engine, x0, x1, 32)
    elif case.startswith("example1-c02"):
        sc = load_run_config(presets.RUN_CONFIGS["example1-c02"])
        engine = _Descent(sc["kset"], sc["shape"], sc["delta"], SolverConfig(M=16, refinements=0))
        chord = Path.from_line(sc["x0"], sc["x1"], sc["delta"], 16).nodes
        waiting = chord.copy()
        waiting[1:-1] = 0.0
        # The chord alone grows its waiting segment 1, 2, 4, 8 nodes by runs.
        stack = np.array([chord, waiting]) if case == "example1-c02" else chord[None]
    else:
        # The start [0, -1] lies on the bisector of the sites (1, 0) and
        # (-1, 0), so node 1 is captured onto its endpoint's boundary line.
        engine = _Descent(triangle_k, Shape.identity(), 1.0, SolverConfig(M=16, refinements=0))
        stack = Path.from_line([0.0, -1.0], [0.6, 0.4], 1.0, 16).nodes[None]
    solve, trial_moves = engine.solve, engine._trial_moves
    rounds, built, won = [], [], []

    def recorded_solve(stack):
        if len(rounds) > len(built):
            built.append(stack.copy())
        return solve(stack)

    def recorded_moves(stack, f0, ids):
        rounds.append(_reference_trials(engine, stack, ids))
        out = trial_moves(stack, f0, ids)
        if len(rounds) > len(built):  # no candidate, so no solve
            built.append(np.empty((0, *stack.shape[1:])))
        won.append([rounds[-1][1][j] for j in out[0] if j >= 0])
        return out

    engine.solve, engine._trial_moves = recorded_solve, recorded_moves
    engine.descend(stack)
    assert len(rounds) == len(built) > 0
    for (reference, _), trials in zip(rounds, built):
        assert trials.shape == reference.shape and trials.tobytes() == reference.tobytes()
    kinds = {"release", "capture"} | (set() if case in ("mag", "3d") else {"run"})
    assert {move[0] for _, moves in rounds for move in moves} == kinds
    if case == "example1-c02-chord":
        # A capture, then two run captures: the segment grows 1, 2, 4, 8 nodes.
        assert [moves[0][0] for moves in won[:3]] == ["capture", "run", "run"]
    if case == "tied-endpoint":
        assert ("capture", 0, 1, 0) in rounds[0][1]


# Pinned solves: per name, the coarsest stage's round bound and the
# winning action before run captures existed. The four solve presets at
# M = 512, the benchmark's eight `stability` solves and its `example2`.
# Before run captures the coarsest stages took 1, 37, 64 (the cap) and 37
# rounds; 15 on each `stability.j*` solve, 9, 13 and 15 on the `stability.c*`
# ones, and 16 on `example2` at M = 128.
PINNED_SOLVES = {
    "example1-c1": (1, 4.325956351532242),
    "example1-c02": (17, 0.7180489109490991),
    "example2": (7, 1.3130360266897274),
    "mag-exchange": (21, 0.08975611386863737),
    "stability.j1": (5, 0.11245625000000001),
    "stability.j2": (5, 0.085425),
    "stability.j4": (5, 0.0748390625),
    "stability.j8": (5, 0.07027851562500001),
    "stability.j16": (5, 0.06818134765625),
    "stability.c0.2": (7, 0.7045371902222148),
    "stability.c0.1": (7, 0.36465115756887256),
    "stability.c0.05": (6, 0.18017212974539765),
    "probe.example2": (5, 1.313047144516923),
}


@functools.cache
def _staged_rounds(name):
    """Release/capture rounds per mesh stage, coarsest first, and the
    winning action of a pinned solve."""
    if name in presets.PRESET_NAMES:
        sc = load_run_config(presets.RUN_CONFIGS[name])
        problem = (sc["x0"], sc["x1"], sc["kset"], sc["solver"])
    elif name == "probe.example2":
        problem = ([0.0, -1.0], [0.0, 0.0], PointSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
                   SolverConfig(M=128, refinements=3, starts=3, seed=0))
    else:
        cfg = SolverConfig(M=64, refinements=2, starts=3, seed=0)
        label = name.removeprefix("stability.")
        if label.startswith("j"):
            j = float(label[1:])
            problem = ([-0.02], [0.02], PointSet([[-1.0 - 1.0 / j], [1.0 + 1.0 / j]]), cfg)
        else:
            c = float(label[1:])
            problem = ([-c], [c], PointSet([[-1.0], [1.0]]), cfg)
    descend, trial_moves, rounds = _Descent.descend, _Descent._trial_moves, []

    def counted_descend(self, stack):
        rounds.append(0)
        return descend(self, stack)

    def counted_moves(self, stack, f0, ids):
        rounds[-1] += 1
        return trial_moves(self, stack, f0, ids)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Descent, "descend", counted_descend)
        patch.setattr(_Descent, "_trial_moves", counted_moves)
        x0, x1, kset, cfg = problem
        res = minimize(x0, x1, 1.0, kset, Shape.identity(), cfg)
    return rounds, res.breakdown.total


@pytest.mark.parametrize("name", list(PINNED_SOLVES))
def test_run_captures_bound_the_rounds_per_stage(name):
    # Run captures let a boundary-riding segment double in a round; no
    # stage reaches the 64-round cap.
    rounds, _ = _staged_rounds(name)
    assert len(rounds) == (4 if name in presets.PRESET_NAMES or name == "probe.example2" else 3)
    assert max(rounds) < 64 and rounds[0] <= PINNED_SOLVES[name][0]


@pytest.mark.parametrize("name", list(PINNED_SOLVES))
def test_run_captures_raise_no_pinned_action(name):
    _, total = _staged_rounds(name)
    before = PINNED_SOLVES[name][1]
    assert total <= before + 1e-12 * abs(before)


def test_a_run_that_leaves_its_class_is_no_candidate(monkeypatch):
    # Seeded sweep case 128: 3-D sites, power 1.5. On the coarsest mesh the
    # dp start's best relaxed candidate is a run onto the (0, 1) bisector
    # plane whose relaxation pulls its nodes off it. Adopting it would end
    # the start at 21.7525, the straight start's action, not at 21.6914.
    kset = PointSet([[-2, -1, -2], [0, 1, 1], [2, -2, 1], [2, -1, 0], [1, -2, 1], [-2, 2, -1]])
    trial_moves, passed_over = _Descent._trial_moves, []

    def recorded_moves(self, stack, f0, ids):
        pick, relaxed = trial_moves(self, stack, f0, ids)
        trials, moves = _reference_trials(self, stack, ids)
        f = relaxed[1] if len(relaxed) else np.empty(0)
        for j, (kind, path, k, nb) in enumerate(moves):
            if kind == "run" and f[j] < f0[path] and (pick[path] < 0 or f[j] < f[pick[path]]):
                # The better run left: some node it moved is no longer in nb's class.
                moved = np.any(trials[j] != stack[path], axis=1)
                assert np.any(relaxed[4][j, moved] != ids[path, nb])
                passed_over.append(j)
        return pick, relaxed

    monkeypatch.setattr(_Descent, "_trial_moves", recorded_moves)
    res = minimize([1.455, -0.029, 1.103], [-1.978, -1.151, -1.013], 1.0, kset, Shape.power(1.5),
                   SolverConfig(M=128, refinements=2, starts=2, seed=128, max_iters=1500))
    assert passed_over
    assert [st.action for st in res.starts] == [21.752483257254454, 21.691398901044277]


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


def test_a_tie_without_an_equidistance_locus_leaves_its_nodes_free():
    # Far above three collinear sites every node ties all three within the
    # relative tolerance, but no point is equidistant from them: value leaves
    # such nodes free, as the trial moves skip the class, and the solve ends.
    kset = PointSet([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], tie_tolerance=1e-3)
    engine = _Descent(kset, Shape.identity(), 1.0, SolverConfig(M=4, refinements=0))
    *_, proj, ids = engine.value(Path.from_line([-0.5, 100.0], [0.5, 100.0], 1.0, 4).nodes[None])
    assert _classes(engine, ids[:, 1:-1]) == [(0, 1, 2)] * 3
    assert np.array_equal(proj[0], np.tile(np.eye(2), (3, 1, 1)))
    res = minimize([-0.5, 100.0], [0.5, 100.0], 1.0, kset, Shape.identity(),
                   SolverConfig(M=16, refinements=1, starts=1))
    assert res.converged and np.isfinite(res.breakdown.total)


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


@pytest.mark.parametrize("field,make", [
    ("grad_tol", lambda: SolverConfig(grad_tol=10**400)),
    ("resolution", lambda: GridSpec(**{**_GRID, "resolution": 10**400})),
    ("delta", lambda: Path(10**400, [[0.0], [0.5], [1.0]])),
], ids=["grad_tol", "resolution", "delta"])
def test_int_too_large_for_a_float_is_an_action_error(field, make):
    # An int too large for a float is not finite.
    with pytest.raises(ActionError, match=field):
        make()


def _seed_grid_cases():
    rng = np.random.default_rng(7)
    yield [-0.0, 0.5], [0.5, -0.0], PointSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    yield [-0.0], [0.2], PointSet([[-1.0], [1.0]])
    yield [0.2, 0.3], [0.3, 0.2], load_run_config(presets.RUN_CONFIGS["mag-exchange"])["kset"]
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


# The bounded relaxation against the unbounded one: the same path, bit for bit.

def _reference_dp_oracle(x0, xdelta, delta, kset, shape, grid_spec):
    """`dp_oracle` before its bound, kept verbatim: the separable relaxation of
    every first-axis row that can still reach the goal, on the whole grid's
    field, with a ``(T, d) + grid`` parent array."""
    import math

    from voract.action import (EDGE_BUDGET, NODE_BUDGET, GridBudgetError, _as_vector,
                               _axis_coords, _check_number)

    d = kset.dim
    if d > 3:
        raise ActionError("dp_oracle supports dimension <= 3")
    a = _as_vector(x0, d)
    b = _as_vector(xdelta, d)
    _check_number("delta", delta, 0.0)
    if grid_spec.lo.shape[0] != d or (grid_spec.snap_axes is not None
                                      and len(grid_spec.snap_axes) != d):
        raise ActionError(f"grid dimension {grid_spec.lo.shape[0]} does not match "
                          f"the point set's dimension {d}")
    t_slices = grid_spec.time_slices
    dt = delta / t_slices
    res = grid_spec.resolution
    if grid_spec.vmax is None:
        vmax = 4.0 * max(1.0, float(np.linalg.norm(b - a)) / delta)
    else:
        vmax = grid_spec.vmax
    # Snapping only adds points to the uniform axes, which hold at least
    # (hi - lo)/res + 1/2 points each, and k is at least vmax*dt/res: both
    # budgets are first checked on these Python floats, which overflow to
    # inf rather than raise, before any count or array is made.
    g_least = math.prod(max((hi - lo) / res + 0.5, 2.0)
                        for lo, hi in zip(grid_spec.lo.tolist(), grid_spec.hi.tolist()))
    if g_least * (t_slices + 1) > NODE_BUDGET:
        raise GridBudgetError(f"{g_least:.3g} grid points x {t_slices + 1} slices "
                              "exceeds the budget")
    if g_least * t_slices * math.prod([2.0 * max(1.0, vmax * dt / res) + 1.0] * d) > EDGE_BUDGET:
        raise GridBudgetError("edge relaxation budget exceeded; coarsen the grid")

    snap_axes = grid_spec.snap_axes or tuple(() for _ in range(d))
    axes = []
    for ax in range(d):
        snap = tuple(snap_axes[ax]) + (float(a[ax]), float(b[ax]))
        axes.append(_axis_coords(float(grid_spec.lo[ax]), float(grid_spec.hi[ax]), res, snap))
    shape_g = tuple(len(c) for c in axes)
    g_total = int(np.prod(shape_g))
    if g_total * (t_slices + 1) > NODE_BUDGET:
        raise GridBudgetError(f"{g_total} grid points x {t_slices + 1} slices exceeds the budget")
    k_off = max(1, int(np.ceil(vmax * dt / res)))
    if g_total * t_slices * (2 * k_off + 1) ** d > EDGE_BUDGET:
        raise GridBudgetError("edge relaxation budget exceeded; coarsen the grid")
    if np.any(np.minimum(a, b) < grid_spec.lo) or np.any(np.maximum(a, b) > grid_spec.hi):
        raise ActionError("endpoints must lie in the grid box")

    mesh = np.meshgrid(*axes, indexing="ij")
    grid_pts = np.stack([m.ravel() for m in mesh], axis=1)
    _, s, _, _ = batch_field(grid_pts, kset)
    hh = 0.5 * dt * shape.h(s)

    start = tuple(int(np.argmin(np.abs(axes[ax] - a[ax]))) for ax in range(d))
    goal = tuple(int(np.argmin(np.abs(axes[ax] - b[ax]))) for ax in range(d))

    # The first-axis rows [lo, hi) that can hold a finite cost at slice t and
    # still reach the goal: within t*k0 rows of the start, (T - t)*k0 of the goal.
    n0 = shape_g[0]
    k0 = min(k_off, n0 - 1)
    windows = [(max(start[0] - t * k0, goal[0] - (t_slices - t) * k0, 0),
                min(start[0] + t * k0, goal[0] + (t_slices - t) * k0, n0 - 1) + 1)
               for t in range(t_slices + 1)]
    if windows[0][0] >= windows[0][1]:
        raise ActionError("endpoint unreachable on this grid (raise vmax or widen the box)")

    # Costs live in two flat C-ordered buffers with k0 rows of inf at each
    # end, so a step of o cells along an axis reads one contiguous range
    # shifted by o * stride. Per axis, the steps -k..k (clamped to the axis
    # length: longer steps reach nothing) as (step index, flat shift,
    # kinetic term by target coordinate, inf where the source is off the axis).
    strides = [int(np.prod(shape_g[ax + 1:])) for ax in range(d)]
    row = strides[0]
    pad = k0 * row
    passes = []
    for ax in reversed(range(d)):
        n, x = shape_g[ax], axes[ax]
        steps = []
        for o in range(-min(k_off, n - 1), min(k_off, n - 1) + 1):
            dst, src = slice(max(0, o), n + min(0, o)), slice(max(0, -o), n - max(0, o))
            kin = np.full((n, 1), np.inf)
            kin[dst, 0] = (x[dst] - x[src]) ** 2 / dt
            steps.append((o + k_off, o * strides[ax], kin))
        passes.append((ax, n, strides[ax], steps))

    bufs = [np.full(g_total + 2 * pad, np.inf) for _ in range(2)]
    bufs[0][pad + int(np.ravel_multi_index(start, shape_g))] = 0.0
    # Each buffer is inf outside its span, the range its last pass wrote.
    span = [(pad + windows[0][0] * row, pad + windows[0][1] * row), (pad, pad)]
    parents = np.zeros((t_slices, d) + shape_g, dtype=np.min_scalar_type(2 * k_off))
    flat_parents = parents.reshape(t_slices, d, g_total)
    cand = np.empty(g_total)
    better = np.empty(g_total, dtype=bool)
    cur = 0
    for t in range(t_slices):
        lo, hi = span[cur]
        np.add(bufs[cur][lo:hi], hh[lo - pad:hi - pad], out=bufs[cur][lo:hi])
        for ax, n, stride, steps in passes:
            # Every pass but the first axis's keeps the rows of slice t.
            r0, r1 = windows[t + 1] if ax == 0 else windows[t]
            lo, hi = pad + r0 * row, pad + r1 * row
            view = (-1, n, stride) if ax else (r1 - r0, stride)
            rows = slice(None) if ax else slice(r0, r1)
            src, out = bufs[cur], bufs[1 - cur]
            out[min(lo, span[1 - cur][0]):max(hi, span[1 - cur][1])] = np.inf
            span[1 - cur] = (lo, hi)
            new = out[lo:hi].reshape(view)
            c = cand[:hi - lo].reshape(view)
            m = better[:hi - lo].reshape(view)
            parent = flat_parents[t, ax, lo - pad:hi - pad].reshape(view)
            for oid, shift, kin in steps:
                np.add(src[lo - shift:hi - shift].reshape(view), kin[rows], out=c)
                np.less(c, new, out=m)
                np.copyto(parent, oid, where=m)
                np.minimum(new, c, out=new)
            cur = 1 - cur
        lo, hi = span[cur]
        np.add(bufs[cur][lo:hi], hh[lo - pad:hi - pad], out=bufs[cur][lo:hi])
    if not np.isfinite(bufs[cur][pad + int(np.ravel_multi_index(goal, shape_g))]):
        raise ActionError("endpoint unreachable on this grid (raise vmax or widen the box)")

    idx = list(goal)
    rev = [tuple(idx)]
    for t in range(t_slices - 1, -1, -1):
        for ax in range(d):
            idx[ax] -= int(parents[(t, ax, *idx)]) - k_off
        rev.append(tuple(idx))
    rev.reverse()
    nodes = np.array([[axes[ax][i[ax]] for ax in range(d)] for i in rev])
    return Path(delta, nodes)


@st.composite
def _mirrored_dp_problems(draw):
    """Dyadic grids, sites and endpoints symmetric under x_0 -> -x_0 (the
    endpoints mirror each other or lie on x_0 = 0), so mirrored grid paths
    cost the same to the last bit and the DP meets exact ties."""
    d = draw(st.sampled_from([1, 2, 3]))
    res = draw(st.sampled_from({1: [0.125, 0.25], 2: [0.25, 0.5], 3: [0.5]}[d]))
    half = draw(st.integers(1, {1: 6, 2: 4, 3: 2}[d])) * 0.5
    lo = [-half] + [draw(st.integers(-4, 0)) * 0.5 for _ in range(d - 1)]
    hi = [half] + [low + draw(st.integers(1, {2: 4, 3: 3}[d])) * 0.5 for low in lo[1:]]
    lattice = [np.linspace(low, high, int(round((high - low) / res)) + 1)
               for low, high in zip(lo, hi)]
    rest = [[draw(st.sampled_from(c.tolist())) for c in lattice[1:]] for _ in range(2)]
    p = draw(st.sampled_from(lattice[0].tolist()))
    p = draw(st.sampled_from([p, 0.0]))
    x0, x1 = [-p] + rest[0], [p] + rest[1]
    quarter = st.integers(-8, 8).map(lambda i: 0.25 * i)
    base = draw(st.lists(st.tuples(*[quarter] * d), min_size=1, max_size=4, unique=True))
    sites = sorted(set(base) | {(-s[0], *s[1:]) for s in base})
    snap = draw(st.one_of(st.none(), st.lists(quarter, max_size=2).map(
        lambda vals: (tuple(sorted({v for w in vals for v in (w, -w)})),)
        + tuple(() for _ in range(d - 1)))))
    gs = GridSpec(lo=lo, hi=hi, resolution=res, time_slices=draw(st.integers(2, 8)),
                  vmax=draw(st.sampled_from([None, 1.0, 2.5, 6.0])), snap_axes=snap)
    shape = draw(st.sampled_from([Shape.identity(), Shape.power(0.5), Shape.power(2.0)]))
    delta = draw(st.sampled_from([0.5, 1.0]))
    return x0, x1, delta, PointSet(sites, tie_tolerance=1e-9), shape, gs


def _assert_dp_matches_unbounded(problem):
    try:
        reference = _reference_dp_oracle(*problem)
    except ActionError as err:
        with pytest.raises(type(err)) as raised:
            dp_oracle(*problem)
        assert str(raised.value) == str(err)
        return None
    path = dp_oracle(*problem)
    assert path.nodes.tobytes() == reference.nodes.tobytes()
    return path


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mirrored_dp_problems())
def test_dp_bound_returns_the_unbounded_path(problem):
    _assert_dp_matches_unbounded(problem)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dp_snapped_chord_optimum_survives_the_tightest_cut(d):
    # A site on every cell of the snapped chord gives it zero potential, so it
    # is the optimum and U is its cost: every chord cell meets the ellipse and
    # the per-slice cut with equality up to rounding.
    lo, hi, res, t_slices = -0.2, 1.2, 0.1, 10
    axis = action_module._axis_coords(lo, hi, res, (0.0, 1.0))
    chord = np.repeat(axis[2:2 + t_slices + 1, None], d, axis=1)
    gs = GridSpec(lo=[lo] * d, hi=[hi] * d, resolution=res, time_slices=t_slices, vmax=2.0)
    path = _assert_dp_matches_unbounded((chord[0], chord[-1], 1.0, PointSet(chord),
                                         Shape.identity(), gs))
    assert np.array_equal(path.nodes, chord)


def test_dp_without_a_snapped_chord_path_relaxes_the_whole_grid(monkeypatch, triangle_k):
    # The first axis is -1, -0.5, 0.15, 0.2, 0.5, 1: the chord's slices 2 and 3
    # snap to -0.5 and 0.2, two cells apart where k = 1, so U is inf and the
    # field is evaluated once, on every cell.
    problem = ([-1.0, 0.0], [1.0, 0.0], 1.0, triangle_k, Shape.identity(),
               GridSpec(lo=[-1.0, -1.0], hi=[1.0, 1.0], resolution=0.5, time_slices=5,
                        vmax=2.0, snap_axes=((0.15, 0.2), ())))
    rows = []

    def counted(nodes, kset):
        rows.append(len(nodes))
        return batch_field(nodes, kset)

    monkeypatch.setattr(action_module, "batch_field", counted)
    assert _assert_dp_matches_unbounded(problem) is not None
    assert rows == [6 * 5]


@pytest.mark.parametrize("case", ["vmax", "axis-1", "resolution", "step-box", "nodes"])
def test_dp_raises_where_the_unbounded_relaxation_raises(case, line_k, triangle_k):
    # "endpoint unreachable" and GridBudgetError for the same inputs as before.
    grid = {"lo": [-1.5], "hi": [1.5], "resolution": 0.05, "time_slices": 10}
    problem = {
        "vmax": ([-1.0], [1.0], line_k, {"vmax": 0.01}),
        "axis-1": ([0.0, -1.0], [0.0, 1.0], triangle_k,
                   {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "resolution": 0.25, "time_slices": 4,
                    "vmax": 0.5}),
        "resolution": ([-0.2], [0.2], line_k, {"resolution": 1e-300}),
        "step-box": ([-0.2], [0.2], line_k, {"vmax": 1e308}),
        "nodes": ([0.0] * 3, [0.0] * 3, PointSet(np.eye(3)),
                  {"lo": [-1.0] * 3, "hi": [1.0] * 3, "resolution": 0.002, "time_slices": 400}),
    }[case]
    x0, x1, kset, fields = problem
    assert _assert_dp_matches_unbounded(
        (x0, x1, 1.0, kset, Shape.identity(), GridSpec(**{**grid, **fields}))) is None


# The benchmark's production grids and the backtrack's edge cases, bit for bit.


def _mag_exchange_problem(oracle_grid: bool) -> tuple:
    """The exchange of two particles on the circle, on the `oracle` command's
    default grid (200 cells a side, T = 100) or on the ``dp`` seed's grid."""
    x0, x1 = [0.2, 0.3], [0.3, 0.2]
    kset = build_mag(_MAG_BASE, 1, 2, default_window(_MAG_BASE, 1, 2, x0, x1)).kset
    grid = (GridSpec(lo=[-0.8, -0.8], hi=[1.3, 1.3], resolution=2.1 / 200.0, time_slices=100)
            if oracle_grid else seed_grid_spec(x0, x1, 1.0, kset))
    return x0, x1, 1.0, kset, Shape.identity(), grid


def _seed_problem(a: float, sites) -> tuple:
    """The ``dp`` seed of ``minimize`` from ``a`` to ``-a`` on a 1-D site set."""
    kset = PointSet(sites)
    return [a], [-a], 1.0, kset, Shape.identity(), seed_grid_spec([a], [-a], 1.0, kset)


@pytest.mark.parametrize("problem", [
    # The stability j = 1 seed grid: T = 233, k = 8.
    pytest.param(([-0.02], [0.02], 1.0, PointSet([[-2.0], [2.0]]), Shape.identity(),
                  seed_grid_spec([-0.02], [0.02], 1.0, PointSet([[-2.0], [2.0]]))),
                 id="stability-j1-seed-grid"),
    pytest.param(([-0.2], [0.2], 1.0, PointSet([[-1.0], [1.0]]), Shape.identity(),
                  GridSpec(lo=[-1.5], hi=[1.5], resolution=0.01, time_slices=100, vmax=4.0)),
                 id="example1-c02-oracle-grid"),
    pytest.param(([0.0, -1.0], [0.0, 0.0], 1.0, PointSet(_TRIANGLE), Shape.identity(),
                  GridSpec(lo=[-1.0, -2.0], hi=[1.0, 1.0], resolution=3.0 / 200.0,
                           time_slices=100)),
                 id="dp-example2-oracle-grid"),
    # The other 1-D seed grids of the benchmark's solve-probe workload.
    *(pytest.param(_seed_problem(-0.02, [[-1.0 - 1.0 / j], [1.0 + 1.0 / j]]),
                   id=f"stability-j{j}-seed-grid") for j in (2, 4, 8, 16)),
    *(pytest.param(_seed_problem(-c, [[-1.0], [1.0]]), id=f"stability-c{c}-seed-grid")
      for c in (0.2, 0.1, 0.05)),
    pytest.param(_seed_problem(-1.0, [[-1.0], [1.0]]), id="example1-c1-seed-grid"),
    pytest.param(_seed_problem(-0.2, [[-1.0], [1.0]]), id="example1-c02-seed-grid"),
    pytest.param(_mag_exchange_problem(oracle_grid=True), id="dp-mag-exchange-oracle-grid"),
    # The 2-D seed grids of the benchmark's solve-probe workload.
    pytest.param(([0.0, -1.0], [0.0, 0.0], 1.0, PointSet(_TRIANGLE), Shape.identity(),
                  seed_grid_spec([0.0, -1.0], [0.0, 0.0], 1.0, PointSet(_TRIANGLE))),
                 id="example2-seed-grid"),
    pytest.param(_mag_exchange_problem(oracle_grid=False), id="mag-exchange-seed-grid"),
    # A 3-D seed grid: the sites and their pairwise midpoints snap every axis.
    pytest.param(([0.0, 0.0, 0.0], [0.5, 0.5, 0.2], 1.0, PointSet(np.eye(3)), Shape.identity(),
                  seed_grid_spec([0.0, 0.0, 0.0], [0.5, 0.5, 0.2], 1.0, PointSet(np.eye(3)))),
                 id="unit-vectors-3d-seed-grid"),
])
def test_dp_matches_the_unbounded_relaxation_on_production_grids(problem):
    assert _assert_dp_matches_unbounded(problem) is not None


@pytest.mark.parametrize("problem", [
    # The 5-point axis is shorter than k = 25, so the steps are clamped to -4..4.
    pytest.param(([-0.2], [0.1], 1.0, PointSet([[-1.0], [0.05]]), Shape.identity(),
                  GridSpec(lo=[-0.2], hi=[0.2], resolution=0.1, time_slices=3, vmax=7.5)),
                 id="short-first-axis"),
    # The 3-point second axis clamps its steps to -2..2 while the first keeps -5..5.
    pytest.param(([-0.6, 0.0], [0.4, 0.2], 1.0, PointSet([[0.0, 0.0], [0.5, 0.2]]),
                  Shape.power(2.0),
                  GridSpec(lo=[-1.0, 0.0], hi=[1.0, 0.2], resolution=0.1, time_slices=4,
                           vmax=1.8)),
                 id="short-second-axis"),
    pytest.param(([-0.3], [0.4], 1.0, PointSet([[-1.0], [0.1]]), Shape.identity(),
                  GridSpec(lo=[-1.0], hi=[1.0], resolution=0.1, time_slices=2)),
                 id="two-slices-1d"),
    pytest.param(([-0.5, 0.5], [0.5, 0.0], 1.0, PointSet(_TRIANGLE), Shape.identity(),
                  GridSpec(lo=[-1.0, -1.0], hi=[1.0, 1.0], resolution=0.1, time_slices=2)),
                 id="two-slices-2d"),
    # Start on the first axis point, goal on the last, and the reverse.
    pytest.param(([-1.0], [1.0], 1.0, PointSet([[-0.5], [0.3]]), Shape.identity(),
                  GridSpec(lo=[-1.0], hi=[1.0], resolution=0.1, time_slices=5)),
                 id="first-to-last-point"),
    pytest.param(([1.0], [-1.0], 1.0, PointSet([[-0.5], [0.3]]), Shape.power(2.0),
                  GridSpec(lo=[-1.0], hi=[1.0], resolution=0.1, time_slices=5)),
                 id="last-to-first-point"),
    # Both endpoints on the first point; steps clamped to the short axis.
    pytest.param(([-0.3], [-0.3], 1.0, PointSet([[0.1], [0.2]]), Shape.identity(),
                  GridSpec(lo=[-0.3], hi=[0.3], resolution=0.1, time_slices=4, vmax=30.0)),
                 id="first-point-both-ends"),
    # Two slices on a 3-point axis: m = n - 1 = 2, every node an endpoint or an axis end.
    pytest.param(([-0.1], [0.1], 1.0, PointSet([[-1.0], [0.05]]), Shape.identity(),
                  GridSpec(lo=[-0.1], hi=[0.1], resolution=0.1, time_slices=2, vmax=9.0)),
                 id="two-slices-m-is-n-minus-1"),
    # The 5-point second axis with k = 2: the offsets widen from the row's
    # first cell, clipped there, to both ends of the row, and the path runs
    # from one end to the other under a finite cut.
    pytest.param(([-0.5, 0.0], [0.5, 0.4], 1.0, PointSet([[0.0, 0.2], [0.3, -0.5]]),
                  Shape.identity(),
                  GridSpec(lo=[-1.0, 0.0], hi=[1.0, 0.4], resolution=0.1, time_slices=6,
                           vmax=1.1)),
                 id="offsets-reach-both-row-ends-2d"),
    # On a 7 x 7 x 7 grid with k = 1, a slice's offsets span up to 39 of a
    # row's 49 cells: several second-axis rows, the first and last in part.
    pytest.param(([0.0, 0.0, 0.0], [0.5, 0.5, 0.2], 1.0, PointSet(np.eye(3)), Shape.identity(),
                  GridSpec(lo=[-0.5] * 3, hi=[1.0] * 3, resolution=0.25, time_slices=6,
                           vmax=1.0)),
                 id="offsets-span-second-axis-rows-3d"),
    # Slice 0's cut drops the start row (13; rows 14..24 stay), which slice
    # 1's first-axis pass still reads, k = 29 rows each way, in the buffer
    # slice 0's second-axis pass wrote: it must read inf there, not slice
    # 0's costs, or the path waits a slice at the start row for free.
    pytest.param(([-0.25, 0.2], [0.2, 0.35], 2.0, PointSet([[0.3, 0.6]]), Shape.identity(),
                  GridSpec(lo=[-0.9, -0.75], hi=[0.55, 0.6], resolution=0.05, time_slices=2)),
                 id="cut-drops-the-start-row-2d"),
])
def test_dp_backtrack_edge_cases_match_the_unbounded_relaxation(problem):
    assert _assert_dp_matches_unbounded(problem) is not None


def test_dp_cut_that_empties_a_slice_reports_the_goal_unreachable(monkeypatch, triangle_k):
    # A snapped chord path always passes the cut, so only a bound below the
    # optimum can empty a slice: here the chord's cells read a zero field.
    # Slice 8 keeps no cell, and the goal is reported unreachable.
    calls = []

    def chord_without_field(nodes, kset):
        field = batch_field(nodes, kset)
        calls.append(len(nodes))
        return field if len(calls) > 1 else (field[0], np.zeros_like(field[1]), *field[2:])

    monkeypatch.setattr(action_module, "batch_field", chord_without_field)
    with pytest.raises(ActionError, match="endpoint unreachable"):
        dp_oracle([0.0, -1.0], [0.0, 0.0], 1.0, triangle_k, Shape.identity(),
                  GridSpec(lo=[-1.0, -1.0], hi=[1.0, 1.0], resolution=0.1, time_slices=10))
    assert calls == [11, 11]


@pytest.mark.parametrize("d", [1, 2])
def test_dp_backtrack_takes_the_last_step_when_it_is_the_only_finite_one(d):
    # The endpoints are T k cells apart on every axis, so each node of the
    # path is reached only by the step of +k cells: the last of -k..k.
    res, t_slices, vmax = 0.1, 4, 1.4  # k = ceil(1.4 * 0.25 / 0.1) = 4
    gs = GridSpec(lo=[-1.0] * d, hi=[1.0] * d, resolution=res, time_slices=t_slices, vmax=vmax)
    problem = ([-0.8] * d, [0.8] * d, 1.0, PointSet([[0.3] * d, [-0.5] * d]), Shape.identity(),
               gs)
    path = _assert_dp_matches_unbounded(problem)
    axis = action_module._axis_coords(-1.0, 1.0, res, (-0.8, 0.8))
    idx = np.searchsorted(axis, path.nodes)
    assert np.all(np.diff(idx, axis=0) == 4)


def _dp_peak(*problem) -> int:
    """Peak bytes ``tracemalloc`` sees during a second ``dp_oracle`` call."""
    dp_oracle(*problem)
    tracemalloc.start()
    try:
        dp_oracle(*problem)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dp_peak_memory_on_a_400_slice_1d_seed_grid():
    # Sites at +-4 and endpoints +-0.02 give the seed grid's cap of 400 slices
    # on about 485 points. Each pass keeps its read range whole (8 B a cell):
    # about 1.8 MiB in all, where int32 offsets plus costs (12 B a finite
    # cell) took 2.4 MiB.
    problem = _seed_problem(-0.02, [[-4.0], [4.0]])
    assert problem[-1].time_slices == 400
    assert _dp_peak(*problem) <= 2 * 2**20


def test_dp_peak_memory_on_the_mag_exchange_oracle_grid():
    # The `oracle` command's default grid for the exchange (200 cells a side,
    # T = 100): the relaxation keeps no full-grid parent record and no
    # candidate block of every cell times 2k + 1 steps.
    assert _dp_peak(*_mag_exchange_problem(oracle_grid=True)) <= 5 * 2**20


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


def _count_engine_calls(monkeypatch):
    """Live counts of the Newton directions and objective evaluations of `_Descent`."""
    calls = {"_direction": 0, "value": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(_Descent, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(_Descent, name, counted)
    return calls


def test_unit_step_cap_ends_the_overshoots_of_an_identity_bend(monkeypatch):
    # The companion benchmark's bend case. Its pinned objective is quadratic
    # between face changes, so the unit Newton step is exact; growing it to
    # 1.6 and beyond overshot and backtracked (26 directions, 44 evaluations).
    calls = _count_engine_calls(monkeypatch)
    con = constrained_minimize([0, 0.2], [0.3, 0.8], 1.0, Polytope.from_box([0, 0], [1, 1]),
                               [-1, 0.5], Shape.identity(), SolverConfig(M=64, refinements=2))
    assert calls["_direction"] <= 8 and calls["value"] <= 11
    assert con.converged
    assert con.breakdown.total <= 1.7129802824646272 * (1.0 + 1e-12)


def test_unit_step_cap_keeps_the_example2_action(monkeypatch):
    calls = _count_engine_calls(monkeypatch)
    res = minimize([0.0, -1.0], [0.0, 0.0], 1.0, PointSet(_TRIANGLE), Shape.identity(),
                   SolverConfig(M=128, refinements=3, starts=3, seed=0))
    assert calls["_direction"] <= 9  # 17 with steps grown past 1
    assert res.breakdown.total == PINNED_SOLVES["probe.example2"][1]


def test_power_shape_steps_still_grow_on_a_stiff_corner(monkeypatch):
    # Rows riding the edge of two cuts, Shape.power(2): the Newton model
    # leaves out the h'' curvature term and accepted steps must grow past 1.
    # Capping them at 1 took 1,818 directions; the unit step first on every
    # iteration took 8,024 and ended unconverged.
    corner = _halfspaces((1, 0, 0, 1.639), (0, 1, 0, 1.835), (0, 0, 1, 1.977),
                         (-1, 0, 0, 1.082), (0, -1, 0, 1.931), (0, 0, -1, 1.287),
                         (-0.618, -0.675, 0.404, 0.935), (0.169, -0.418, -0.893, -0.002))
    calls = _count_engine_calls(monkeypatch)
    con = constrained_minimize([-0.641, -0.06, 1.052], [-0.157, 1.626, -0.73], 1.0, corner,
                               [0.77, -5.698, 1.374], Shape.power(2.0),
                               SolverConfig(M=32, refinements=2))
    assert con.converged
    assert calls["_direction"] <= 1175
    assert con.breakdown.total <= 555.0413894529738


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
    _, (nodes,), _, (residual,) = action_module._descend_stages(
        engine, chord[None].copy(), np.array(x0, float), np.array(x1, float), meshes)
    g_eff = engine.value(nodes[None])[2]
    dt = 1.0 / (nodes.shape[0] - 1)
    assert residual == float(np.max(np.linalg.norm(g_eff[0], axis=1))) / dt

    def second_judge(*args):
        raise AssertionError("constrained_minimize computed its own gradient")

    monkeypatch.setattr(action_module, "action_gradient", second_judge)
    con = constrained_minimize(x0, x1, 1.0, polytope, center, shape, cfg)
    assert np.array_equal(con.path.nodes, nodes)
    assert type(con.converged) is bool and con.converged == (residual <= cfg.grad_tol)
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
    g_eff = engine.value(np.array([[apex, apex, apex]]))[2]
    g = action_gradient(Path(1.0, [apex, apex, apex]), PointSet([center]), Shape.identity())
    r = 1e-3
    mapping = (apex - roof.project(apex - r * g[0], tol=1e-14)) / r
    np.testing.assert_allclose(g_eff[0, 0], mapping, rtol=0.0, atol=1e-9)
