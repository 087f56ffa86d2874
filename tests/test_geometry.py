import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from voract import (
    FrameError,
    GeometryError,
    PointSet,
    Polytope,
    PolytopeError,
    cell_frame,
    load_point_set,
    min_norm_point,
    opt_class,
    polytope_distance_ratio,
)
from voract.presets import _min_norm_grid_oracle


# ---------------------------------------------------------------------------
# point sets and optimality classes


def test_point_set_validation():
    with pytest.raises(GeometryError):
        PointSet([[0.0], [0.0]])
    with pytest.raises(GeometryError):
        PointSet(np.zeros((0, 2)))
    k = PointSet([[0.0, 1.0], [2.0, 3.0]])
    assert k.n == 2 and k.dim == 2
    with pytest.raises(ValueError):
        k.points[0, 0] = 5.0  # immutable


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, "1e-9", None, True, 10**400])
def test_point_set_rejects_a_tie_tolerance_that_is_not_a_finite_number(tol):
    # A NaN tolerance would detect no tie at all.
    with pytest.raises(GeometryError, match="tie_tolerance must be a finite number"):
        PointSet([[0.0], [1.0]], tie_tolerance=tol)


def test_point_set_rejects_near_duplicates_that_are_not_sort_neighbours():
    # A 100 x 50 grid plus a point 1e-13 from (0, 7): in lexicographic
    # order its neighbours are (0, 49) and (1, 0), far away.
    grid = np.stack(np.meshgrid(np.arange(100.0), np.arange(50.0), indexing="ij"), -1)
    grid = grid.reshape(-1, 2)
    assert PointSet(grid).n == 5000
    with pytest.raises(GeometryError, match="min gap 1e-13"):
        PointSet(np.vstack([grid, [[1e-13, 7.0]]]))


@pytest.mark.parametrize("dim", [1, 2])
def test_point_set_rejects_a_box_whose_squared_diagonal_overflows(dim):
    # Sites at +-5e153 span a squared diagonal of 1e308; at +-1e154 it is 4e308, past
    # the largest float, where the k-d tree's box distances overflow.
    def pair(c):
        return [[c] + [0.0] * (dim - 1), [-c] + [0.0] * (dim - 1)]

    assert PointSet(pair(5e153)).n == 2
    with pytest.raises(GeometryError, match="squared diagonal overflows"):
        PointSet(pair(1e154))


def test_opt_class_examples(line_k):
    assert opt_class([-0.3], line_k) == (0,)
    assert opt_class([0.0], line_k) == (0, 1)
    assert opt_class([1.0], line_k) == (1,)


def test_opt_class_dimension_mismatch(line_k):
    with pytest.raises(GeometryError):
        opt_class([0.0, 0.0], line_k)


def test_opt_class_tie_tolerance_rescaling_robustness():
    # Away from bisectors the class must not depend on moderate tolerance changes.
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(6, 2))
    for _ in range(50):
        x = rng.normal(size=2) * 1.5
        base = PointSet(pts, tie_tolerance=1e-9)
        d2 = np.sort(np.sum((pts - x) ** 2, axis=1))
        if d2[1] - d2[0] < 1e-6:
            continue
        got = opt_class(x, base)
        for factor in (0.5, 0.75, 1.0):
            other = PointSet(pts, tie_tolerance=1e-9 * factor)
            assert opt_class(x, other) == got


# ---------------------------------------------------------------------------
# minimum-norm point


def test_min_norm_examples():
    assert np.allclose(min_norm_point([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]), [0.5, 0.5])
    assert np.allclose(min_norm_point([[-1.0], [1.0]], [0.0]), [0.0])


def test_min_norm_matches_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        verts = rng.normal(size=(m, d)) * 1.5
        x = rng.normal(size=d) * 1.5
        p = min_norm_point(verts, x)
        q = _min_norm_grid_oracle(verts, x)
        assert np.linalg.norm(p - q) <= 1e-6


def test_min_norm_variational_inequality():
    rng = np.random.default_rng(5)
    for _ in range(30):
        verts = rng.normal(size=(4, 3))
        x = rng.normal(size=3) * 2
        p = min_norm_point(verts, x)
        assert np.min((verts - p) @ (p - x)) >= -1e-9 * 20


def test_min_norm_identity_on_members():
    # x in conv(V) (certified by LP) must project to itself.
    rng = np.random.default_rng(9)
    for _ in range(20):
        verts = rng.normal(size=(5, 2)) * 2
        lam = rng.random(5)
        lam /= lam.sum()
        x = lam @ verts
        res = linprog(np.zeros(5), A_eq=np.vstack([verts.T, np.ones(5)]),
                      b_eq=np.append(x, 1.0), bounds=[(0, None)] * 5, method="highs")
        assert res.success
        assert np.linalg.norm(min_norm_point(verts, x) - x) <= 1e-8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_min_norm_is_one_lipschitz(seed_a, seed_b):
    rng = np.random.default_rng(seed_a * 31 + 7)
    verts = rng.normal(size=(5, 2)) * 2
    rng2 = np.random.default_rng(seed_b * 17 + 3)
    x = rng2.normal(size=2) * 3
    y = rng2.normal(size=2) * 3
    px = min_norm_point(verts, x)
    py = min_norm_point(verts, y)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-8


def _face_scan(vertices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Projection of x onto conv(vertices) by scanning every face: each
    nonempty vertex subset is solved as an equality-constrained least
    squares problem and kept when its barycentric coordinates are feasible."""
    m = vertices.shape[0]
    best, best_d = None, np.inf
    for r in range(1, m + 1):
        for subset in itertools.combinations(range(m), r):
            pts = vertices[list(subset)]
            q = pts - x[None, :]
            kkt = np.ones((r + 1, r + 1))
            kkt[:r, :r] = q @ q.T
            kkt[r, r] = 0.0
            lam = np.linalg.lstsq(kkt, np.eye(r + 1)[r], rcond=None)[0][:r]
            # Skip infeasible faces and inconsistent solutions of singular systems.
            if np.any(lam < -1e-12) or abs(float(np.sum(lam)) - 1.0) > 1e-8:
                continue
            cand = pts[0] if r == 1 else lam @ pts
            d = float(np.linalg.norm(cand - x))
            if d < best_d - 1e-15:
                best, best_d = cand, d
    return best


def test_min_norm_wolfe_branch_many_vertices():
    # Wolfe serves every vertex count; the exact face scan is the reference.
    rng = np.random.default_rng(77)
    verts = rng.normal(size=(9, 2)) * 2
    cases = [(verts, rng.normal(size=2) * 3) for _ in range(10)]
    for d in range(1, 5):
        for m in range(1, d + 2):  # at most d + 1 vertices, half-integer and often degenerate
            cases += [(rng.integers(-4, 5, size=(m, d)) / 2.0, rng.normal(size=d) * 2)
                      for _ in range(3)]
    for verts, x in cases:
        p = min_norm_point(verts, x)
        q = _face_scan(verts, x)
        assert np.linalg.norm(p - q) <= 1e-8


# ---------------------------------------------------------------------------
# cell frames


def test_cell_frame_pair_1d(line_k):
    fr = cell_frame(opt_class([0.0], line_k), line_k)
    assert fr.basis_b.shape == (0, 1)
    assert fr.basis_a.shape == (1, 1)
    assert np.allclose(fr.p_h, [0.0])


def test_cell_frame_pair_2d(triangle_k):
    fr = cell_frame(opt_class([0.0, -0.5], triangle_k), triangle_k)
    assert np.allclose(np.abs(fr.basis_a), [[1.0, 0.0]])
    assert np.allclose(np.abs(fr.basis_b), [[0.0, 1.0]])
    assert np.allclose(fr.p_h, [0.0, 0.0], atol=1e-12)


def test_cell_frame_singleton(triangle_k):
    fr = cell_frame(opt_class([1.0, 0.05], triangle_k), triangle_k)
    assert fr.basis_a.shape == (0, 2)
    assert np.allclose(fr.basis_b, np.eye(2))
    assert np.allclose(fr.p_h, [1.0, 0.0])


def test_cell_frame_invariants_random():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(7, 3)) * 2
    k = PointSet(pts)
    for _ in range(40):
        x = rng.normal(size=3) * 2
        cls = opt_class(x, k)
        fr = cell_frame(cls, k)
        assert fr.basis_a.shape[0] + fr.basis_b.shape[0] == 3
        if fr.basis_a.shape[0] and fr.basis_b.shape[0]:
            assert np.max(np.abs(fr.basis_a @ fr.basis_b.T)) <= 1e-10
        # every class site is equidistant from p_h and from p_h + B-basis rows
        sites = k.points[list(cls)]
        for probe in [fr.p_h] + [fr.p_h + b for b in fr.basis_b]:
            dists = np.linalg.norm(sites - probe, axis=1)
            assert np.max(dists) - np.min(dists) <= 1e-8


def test_cell_frame_empty_equidistance_rejected():
    # three collinear sites cannot be co-equidistant
    k = PointSet([[0.0], [1.0], [2.0]])
    with pytest.raises(FrameError):
        cell_frame((0, 1, 2), k)


def test_cell_frame_of_the_empty_class_rejected():
    with pytest.raises(GeometryError, match="nonempty"):
        cell_frame((), PointSet([[0.0], [1.0]]))


# ---------------------------------------------------------------------------
# polytopes


def test_polytope_certification():
    box = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
    assert box.contains([0.5, 0.5])
    assert not box.contains([1.5, 0.5])
    with pytest.raises(PolytopeError):  # empty
        Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
    with pytest.raises(PolytopeError):  # unbounded
        Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))


@pytest.mark.parametrize("normals,offsets", [
    ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, np.nan, 1.0, 1.0]),
    ([[np.nan, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 1.0, 1.0]),
    ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, np.inf, 1.0]),
    ([[np.inf, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 1.0, 1.0]),
], ids=["nan-offset", "nan-normal", "inf-offset", "inf-normal"])
def test_polytope_rejects_non_finite_input(normals, offsets):
    # Not linprog's ValueError: the check runs before the first LP.
    with pytest.raises(PolytopeError, match="must be finite"):
        Polytope(np.array(normals), np.array(offsets))


@pytest.mark.parametrize("normals,offsets,unit_normal", [
    # |n|^2 overflows: the first row used to read as 0 x <= 0, the set as unbounded.
    ([[1e200, 1e200], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 1.0, 1.0],
     [0.5 ** 0.5, 0.5 ** 0.5]),
    # |n|^2 underflows: the first row used to read as a zero normal.
    ([[1e-170, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1e-170, 1.0, 1.0, 1.0],
     [1.0, 0.0]),
], ids=["normal-squares-to-inf", "normal-squares-to-zero"])
def test_polytope_normalizes_normals_whose_squares_leave_the_float_range(normals, offsets,
                                                                          unit_normal):
    poly = Polytope(np.array(normals), np.array(offsets))
    assert np.allclose(poly.normals[0], unit_normal, rtol=0.0, atol=1e-15)
    assert np.array_equal(poly.lo, [-1.0, -1.0]) and np.allclose(poly.hi, [1.0, 1.0])


def test_polytope_keeps_the_plain_norm_of_an_ordinary_normal():
    # Dividing [1, 3] by its largest entry first would move its first
    # coordinate by an ulp, and with it every polytope result.
    poly = Polytope(np.array([[1.0, 3.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                    np.array([1.0, 1.0, 1.0, 1.0]))
    assert poly.normals[0].tobytes() == (np.array([1.0, 3.0]) / np.sqrt(10.0)).tobytes()
    assert poly.offsets[0] == 1.0 / np.sqrt(10.0)


def test_polytope_bounds_a_set_with_an_offset_highs_reads_as_no_bound():
    # x <= 1e170 once normalized: HiGHS reads an offset of 1e20 or more as
    # none, so the plain LPs called this box unbounded. Here the far row
    # binds only the largest x, and the other bounds are the near rows' own.
    poly = Polytope(np.array([[1e-170, 0.0], [0, 1], [-1, 0], [0, -1]]), np.array([1.0, 1, 1, 1]))
    assert np.all(np.isfinite(poly.lo)) and np.all(np.isfinite(poly.hi))
    assert np.array_equal(poly.lo, [-1.0, -1.0]) and poly.hi[1] == 1.0
    assert poly.hi[0] == pytest.approx(1e170, rel=1e-12)


def test_polytope_bounds_without_far_offsets_are_unchanged():
    # The constrained companion's box and segment ({0} x [-2, 0]), as the LPs
    # gave them before far offsets were scaled: signed zeros included.
    box = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
    segment = Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.array([0.0, 0.0, 0.0, 2.0]))
    for poly, lo, hi in ((box, [0.0, 0.0], [1.0, 1.0]), (segment, [0.0, -2.0], [-0.0, -0.0])):
        assert poly.lo.tobytes() == np.array(lo).tobytes()
        assert poly.hi.tobytes() == np.array(hi).tobytes()


def test_polytope_rejects_an_offset_that_overflows_once_normalized():
    with pytest.raises(PolytopeError, match="offset overflows"):
        Polytope(np.array([[1e-300, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                 np.array([1e300, 1.0, 1.0, 1.0]))


def test_polytope_projection_and_distance():
    box = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
    assert np.allclose(box.project([2.0, 0.5]), [1.0, 0.5], atol=1e-8)
    assert abs(box.distance([2.0, 0.5]) - 1.0) <= 1e-8
    assert np.allclose(box.project([0.3, 0.4]), [0.3, 0.4])
    batch = box.project(np.array([[2.0, 2.0], [-1.0, 0.5]]))
    assert np.allclose(batch, [[1.0, 1.0], [0.0, 0.5]], atol=1e-7)



def test_polytope_projection_of_no_rows_is_no_rows():
    box = Polytope.from_box([0.0], [1.0])
    empty = box.project(np.zeros((0, 1)))
    assert empty.shape == (0, 1)
    assert box.distance(np.zeros((0, 1))).shape == (0,)


def test_ratio_shared_facet_is_one():
    a = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
    b = Polytope.from_box([1.0, 0.0], [2.0, 1.0])
    ratio = polytope_distance_ratio(a, b, samples=400, seed=3)
    assert abs(ratio - 1.0) <= 1e-6


def test_ratio_corner_sqrt2():
    a = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
    b = Polytope(np.vstack([[1.0, 1.0], np.eye(2), -np.eye(2)]),
                 np.array([0.0, 2.0, 2.0, 2.0, 2.0]))
    ratio = polytope_distance_ratio(a, b, samples=2000, seed=7)
    assert abs(ratio - np.sqrt(2.0)) <= 0.05


def test_ratio_identical_sets():
    a = Polytope.from_box([0.0], [1.0])
    assert polytope_distance_ratio(a, a, samples=100, seed=0) <= 1.0


def test_ratio_monotone_in_samples():
    a = Polytope.from_box([0.0, 0.0], [1.0, 1.0])
    b = Polytope(np.vstack([[1.0, 1.0], np.eye(2), -np.eye(2)]),
                 np.array([0.0, 2.0, 2.0, 2.0, 2.0]))
    r1 = polytope_distance_ratio(a, b, samples=500, seed=1)
    r2 = polytope_distance_ratio(a, b, samples=1000, seed=1)
    assert r2 >= r1 - 1e-12


def test_ratio_empty_intersection_rejected():
    a = Polytope.from_box([0.0], [1.0])
    b = Polytope.from_box([2.0], [3.0])
    with pytest.raises(PolytopeError):
        polytope_distance_ratio(a, b, samples=10, seed=0)



@pytest.mark.parametrize("samples", [0, -3])
def test_ratio_needs_at_least_one_sample(samples):
    a = Polytope.from_box([0.0], [1.0])
    b = Polytope.from_box([0.5], [2.0])
    with pytest.raises(PolytopeError, match="at least 1"):
        polytope_distance_ratio(a, b, samples=samples, seed=0)


# ---------------------------------------------------------------------------
# text formats


def test_point_set_round_trip(tmp_path, triangle_k):
    path = tmp_path / "points.txt"
    rows = [" ".join(repr(float(v)) for v in row) for row in triangle_k.points]
    path.write_text("\n".join([f"{triangle_k.dim} {triangle_k.n}", *rows]) + "\n")
    back = load_point_set(path)
    assert back.dim == 2 and back.n == 3
    assert np.array_equal(back.points, triangle_k.points)


@pytest.mark.parametrize("text, message", [
    ("1 two\n-1.0\n1.0\n", "invalid literal"),
    ("1 2\n-1.0\nabc\n", "could not convert"),
    ("1 -2\n", "d >= 1 and N >= 1"),
    ("0 2\n", "d >= 1 and N >= 1"),
], ids=["non-numeric-header", "non-numeric-cell", "negative-count", "zero-dimension"])
def test_point_set_file_errors_name_the_file(text, message, tmp_path):
    path = tmp_path / "points.txt"
    path.write_text(text)
    with pytest.raises(GeometryError, match=message) as exc:
        load_point_set(path)
    assert str(exc.value).startswith(f"{path}: ")
