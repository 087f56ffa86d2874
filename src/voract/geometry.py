"""Tolerance-aware computational geometry for finite point sets.

This module provides the geometric substrate the rest of the package is
built on:

- ``PointSet``: an immutable finite set of sites in R^d with a relative
  tie tolerance controlling nearest-site tie detection.
- ``opt_class``: the set of sites (co-)nearest to a query point, as the
  ascending tuple of their indices (a class, everywhere in the package).
- ``min_norm_point``: projection of a point onto the convex hull of a
  small vertex set (Wolfe's minimum-norm-point algorithm).
- ``cell_frame``: the orthogonal splitting attached to a nearest-site
  class: the affine span of the class sites versus their equidistance
  locus, and the unique intersection point of the two.
- ``class_frame`` / ``class_eta``: a class's frame and zone value, memoized.
- ``Polytope``: bounded halfspace intersections with certified
  nonemptiness/boundedness and projection-based distances (Dykstra).
- ``polytope_distance_ratio``: empirical bound on dist_{A∩B} / dist_B
  over samples drawn in A.

All types are immutable after construction and all operations are pure,
so everything here is safe to call concurrently: a ``PointSet``'s class
memo holds pure values, and a race at worst computes an entry twice; its
k-d tree is built once, at construction, and only read after.
Sampling operations take explicit seeds.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "VoractError",
    "GeometryError",
    "MinNormError",
    "FrameError",
    "PolytopeError",
    "PointSet",
    "CellFrame",
    "Polytope",
    "opt_class",
    "min_norm_point",
    "cell_frame",
    "polytope_distance_ratio",
    "load_point_set",
]


MIN_NORM_TOL = 1e-10  # Wolfe optimality gap, relative to 1 + max squared vertex distance
DYKSTRA_MAX_SWEEPS = 50_000  # sweep cap of Polytope.project
SAMPLE_MAX_DRAWS = 10_000_000  # rejection-sampling budget of Polytope.sample


class VoractError(ValueError):
    """Base of every error the library raises for invalid input or a failed computation."""


class GeometryError(VoractError):
    """Base error for geometric precondition or convergence failures."""


class MinNormError(GeometryError):
    """Minimum-norm-point iteration failed to converge (numerical degeneracy)."""


class FrameError(GeometryError):
    """Cell frame construction hit a rank decision or an empty equidistance locus."""


class PolytopeError(GeometryError):
    """Polytope is empty/unbounded, or a projection failed to converge."""


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise GeometryError(f"expected a {dim}-vector, got shape {np.shape(x)}")
    if not np.all(np.isfinite(v)):
        raise GeometryError("vector contains non-finite entries")
    return v


def _as_points(arr) -> np.ndarray:
    pts = np.asarray(arr, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise GeometryError(f"expected an (N, d) array of points, got shape {np.shape(arr)}")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("points contain non-finite entries")
    return pts


@dataclass(frozen=True)
class PointSet:
    """Immutable finite site set in R^d.

    ``tie_tolerance`` is the relative slack used when deciding nearest-site
    ties: a site belongs to the class of ``x`` when its squared distance is
    within a factor (1 + tie_tolerance) of the minimum. Sites must be
    separated well beyond that slack for class queries to be meaningful.
    """

    points: np.ndarray
    tie_tolerance: float = 1e-9
    # Memo of class_frame and class_eta: pure functions of the sites and a class.
    _classes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # k-d tree of the sites: the distinctness check's, kept for the field kernel.
    _tree: cKDTree = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = _as_points(self.points)
        object.__setattr__(self, "points", pts)
        tol = self.tie_tolerance
        if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                or not 0 <= tol <= sys.float_info.max):
            raise GeometryError(f"tie_tolerance must be a finite number >= 0, got {tol!r}")
        with np.errstate(over="ignore"):  # the k-d tree's box distances would overflow
            span = np.ptp(pts, axis=0)
            if not np.isfinite(span @ span):
                raise GeometryError("points span too large a box: its squared diagonal overflows")
        scale = 1.0 + float(np.max(np.linalg.norm(pts, axis=1)))
        floor = 10.0 * self.tie_tolerance * scale
        object.__setattr__(self, "_tree", cKDTree(pts))
        pairs = self._tree.query_pairs(floor, output_type="ndarray")
        if pairs.size:
            gap = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1).min()
            raise GeometryError(f"points are not pairwise distinct: min gap {gap:g} <= {floor:g}")
        pts.flags.writeable = False

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sq_dists_to_sites(x: np.ndarray, kset: PointSet) -> np.ndarray:
    diff = kset.points - x[None, :]
    return np.einsum("ij,ij->i", diff, diff)


def tie_indices(sq: np.ndarray, tie_tolerance: float) -> np.ndarray:
    """Indices within relative ``tie_tolerance`` of the minimal squared distance."""
    dmin = float(np.min(sq))
    return np.flatnonzero(sq <= (1.0 + tie_tolerance) * dmin + 0.0)


def opt_class(x, kset: PointSet) -> tuple[int, ...]:
    """Ascending indices of the sites whose squared distance to ``x`` ties the minimum.

    Deterministic: the result depends only on the distances and the point
    set's relative tie tolerance.
    """
    xv = _as_vector(x, kset.dim)
    sq = sq_dists_to_sites(xv, kset)
    idx = tie_indices(sq, kset.tie_tolerance)
    return tuple(int(i) for i in idx)


# ---------------------------------------------------------------------------
# Minimum-norm point / convex hull projection


def _affine_min_norm(q: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of the min-norm point in the affine hull of rows of q."""
    m = q.shape[0]
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = q @ q.T
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:m]


def _project_wolfe(vertices: np.ndarray, x: np.ndarray, max_iter: int) -> np.ndarray:
    """Wolfe's minimum-norm-point algorithm on the translated vertex set."""
    q = vertices - x[None, :]
    norms2 = np.einsum("ij,ij->i", q, q)
    start = int(np.argmin(norms2))
    corral = [start]
    lam = np.array([1.0])
    z = q[start].copy()
    scale = 1.0 + float(np.max(norms2))

    for _ in range(max_iter):
        scores = q @ z
        j = int(np.argmin(scores))
        zz = float(z @ z)
        if zz - float(scores[j]) <= MIN_NORM_TOL * scale or j in corral:
            # Optimal, or no progress left but roundoff: re-solve the final
            # face in index order and combine the vertices themselves, so the
            # point does not depend on the order the corral was built in.
            face = sorted(corral)
            lam = _affine_min_norm(q[face]) if len(face) > 1 else np.ones(1)
            return lam @ vertices[face]
        corral.append(j)
        lam = np.append(lam, 0.0)

        for _ in range(max_iter):
            sub = q[corral]
            mu = _affine_min_norm(sub)
            if np.all(mu > 1e-12):
                lam = mu
                z = mu @ sub
                break
            # Step from lam toward mu, stopping at the simplex boundary.
            neg = mu <= 1e-12
            denom = lam[neg] - mu[neg]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 1e-15, lam[neg] / denom, np.inf)
            theta = min(1.0, float(np.min(ratios)))
            lam = (1.0 - theta) * lam + theta * mu
            keep = lam > 1e-12
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            corral = [c for c, k in zip(corral, keep) if k]
            lam = lam[keep]
            lam = lam / float(np.sum(lam))
            z = lam @ q[corral]
        else:
            raise MinNormError("minor cycle failed to converge")

    raise MinNormError(f"Wolfe iteration cap ({max_iter}) exceeded")


def min_norm_point(vertices, x) -> np.ndarray:
    """Unique projection of ``x`` onto the convex hull of ``vertices``.

    Runs Wolfe's minimum-norm-point algorithm (iteration cap
    10*(len(vertices)+d)) for every vertex count. The returned point
    satisfies the variational inequality (p - x)·(v - p) >= -1e-9·scale
    for every vertex v; a violation raises :class:`MinNormError`.
    """
    verts = _as_points(vertices)
    xv = _as_vector(x, verts.shape[1])
    p = _project_wolfe(verts, xv, 10 * sum(verts.shape))
    scale = 1.0 + float(np.max(np.abs(verts - xv[None, :]))) ** 2
    resid = float(np.min((verts - p[None, :]) @ (p - xv)))
    if resid < -1e-9 * scale:
        raise MinNormError(f"variational inequality violated by {-resid:g}")
    return p


# ---------------------------------------------------------------------------
# Cell frames


@dataclass(frozen=True)
class CellFrame:
    """Orthogonal frame of a nearest-site class.

    ``basis_a`` spans the directions between the class sites; ``basis_b``
    spans their equidistance locus. Both are orthonormal row stacks and
    together span R^d. ``p_h`` is the unique point lying in both affine
    pieces.
    """

    basis_a: np.ndarray
    basis_b: np.ndarray
    p_h: np.ndarray

    def __post_init__(self):
        for name in ("basis_a", "basis_b", "p_h"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def split_span(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal row stacks of the row space of ``rows`` ``(m >= 1, d)`` and its
    complement; the rank counts singular values above 1e-10 times the largest."""
    _, sing, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(sing > 1e-10 * sing[0]))
    return vt[:rank], vt[rank:]


def cell_frame(indices: tuple[int, ...], kset: PointSet) -> CellFrame:
    """Frame of the class ``indices`` (ascending site indices): site-span
    directions, equidistance directions, pivot.

    Rank decisions use the SVD cutoff of :func:`split_span`. Raises
    :class:`GeometryError` for an empty class and :class:`FrameError` when
    the equidistance system is inconsistent beyond tolerance (the class has
    no equidistance locus).
    """
    if not indices:
        raise GeometryError("a nearest-site class must be nonempty")
    d = kset.dim
    pts = kset.points[list(indices)]
    m = pts.shape[0]
    if m == 1:
        return CellFrame(basis_a=np.zeros((0, d)), basis_b=np.eye(d), p_h=pts[0].copy())
    diffs = pts[1:] - pts[0][None, :]
    basis_a, basis_b = split_span(diffs)

    # Equidistance system: 2(p_j - p_0)·x = |p_j|^2 - |p_0|^2, solved on the
    # site-span so the intersection point with the equidistance locus pops out.
    lhs_full = 2.0 * diffs
    rhs = np.einsum("ij,ij->i", pts[1:], pts[1:]) - float(pts[0] @ pts[0])
    lhs = lhs_full @ basis_a.T
    rhs_rel = rhs - lhs_full @ pts[0]
    t, *_ = np.linalg.lstsq(lhs, rhs_rel, rcond=None)
    p_h = pts[0] + basis_a.T @ t
    scale = 1.0 + float(np.max(np.abs(pts)))
    resid = float(np.max(np.abs(lhs_full @ p_h - rhs)))
    if resid > 1e-7 * scale * scale:
        raise FrameError(
            f"class {indices} has no equidistance locus (residual {resid:g}); "
            "near-degenerate site configuration"
        )
    return CellFrame(basis_a=basis_a, basis_b=basis_b, p_h=p_h)


def class_frame(indices: tuple[int, ...], kset: PointSet) -> CellFrame:
    """:func:`cell_frame` of the class ``indices`` (ascending site indices),
    memoized on ``kset`` together with the GeometryError it raised, if any."""
    entry = kset._classes.setdefault(indices, {})
    if "frame" not in entry:
        try:
            entry["frame"] = cell_frame(indices, kset)
        except GeometryError as err:
            entry["frame"] = err
    if isinstance(entry["frame"], GeometryError):
        raise entry["frame"].with_traceback(None)
    return entry["frame"]


def class_eta(indices: tuple[int, ...], kset: PointSet) -> np.ndarray | None:
    """Zone value eta of the class ``indices``, memoized on ``kset``, read-only:
    the site, the midpoint of a pair, else the hull projection of the frame
    pivot, which every equidistant point shares. None for a class without an
    equidistance locus (FrameError), a tie only within the tolerance, far off."""
    if len(indices) == 1:
        return kset.points[indices[0]]
    entry = kset._classes.setdefault(indices, {})
    if "eta" not in entry:
        pts = kset.points[list(indices)]
        try:
            eta = (0.5 * (pts[0] + pts[1]) if len(indices) == 2
                   else min_norm_point(pts, class_frame(indices, kset).p_h))
            eta.flags.writeable = False
        except FrameError:
            eta = None
        entry["eta"] = eta
    return entry["eta"]


# ---------------------------------------------------------------------------
# Polytopes


@dataclass(frozen=True)
class Polytope:
    """Bounded intersection of halfspaces {x : n·x <= b} with unit normals.

    Construction certifies nonemptiness and boundedness by linear programs
    (feasibility, then min/max of every coordinate); the per-coordinate
    bounds are kept for sampling. Raises :class:`PolytopeError` otherwise.
    """

    normals: np.ndarray
    offsets: np.ndarray
    lo: np.ndarray = field(init=False, compare=False)
    hi: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        offsets = np.asarray(self.offsets, dtype=float).reshape(-1)
        if normals.shape[0] != offsets.shape[0]:
            raise PolytopeError("normals/offsets length mismatch")
        if not (np.all(np.isfinite(normals)) and np.all(np.isfinite(offsets))):
            raise PolytopeError("normals and offsets must be finite numbers")
        scale = np.max(np.abs(normals), axis=1, initial=0.0)
        if np.any(scale == 0):
            raise PolytopeError("zero normal vector")
        # A row whose squares would overflow or underflow is divided by its
        # largest entry first; any other row keeps the plain norm, bit for bit.
        scale = np.where((scale > 2.0 ** 500) | (scale < 2.0 ** -500), scale, 1.0)
        normals = normals / scale[:, None]
        lengths = np.linalg.norm(normals, axis=1)
        normals = normals / lengths[:, None]
        with np.errstate(over="ignore"):
            offsets = offsets / scale / lengths
        if not np.all(np.isfinite(offsets)):
            raise PolytopeError("an offset overflows once its normal has unit length")
        d = normals.shape[1]

        from scipy.optimize import linprog  # deferred: only polytopes need scipy.optimize (~11 MiB)

        res = linprog(np.zeros(d), A_ub=normals, b_ub=offsets, bounds=[(None, None)] * d,
                      method="highs")
        if not res.success:
            raise PolytopeError("empty polytope (infeasible halfspace system)")
        lo = np.empty(d)
        hi = np.empty(d)
        for i in range(d):
            c = np.zeros(d)
            c[i] = 1.0
            for sign, store in ((1.0, lo), (-1.0, hi)):
                r = linprog(sign * c, A_ub=normals, b_ub=offsets,
                            bounds=[(None, None)] * d, method="highs")
                if r.status == 3:
                    raise PolytopeError("unbounded polytope")
                if not r.success:
                    raise PolytopeError(f"boundedness certification failed: {r.message}")
                store[i] = sign * r.fun
        for arr, name in ((normals, "normals"), (offsets, "offsets"), (lo, "lo"), (hi, "hi")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @classmethod
    def from_box(cls, lo, hi) -> "Polytope":
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        d = lo.shape[0]
        eye = np.eye(d)
        return cls(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))

    def intersection(self, other: "Polytope") -> "Polytope":
        if other.dim != self.dim:
            raise PolytopeError("dimension mismatch")
        return Polytope(np.vstack([self.normals, other.normals]),
                        np.concatenate([self.offsets, other.offsets]))

    def contains(self, x, tol: float = 1e-9) -> np.ndarray | bool:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        scale = 1.0 + float(np.max(np.abs(self.offsets), initial=0.0))
        ok = np.all(pts @ self.normals.T <= self.offsets[None, :] + tol * scale, axis=1)
        return bool(ok[0]) if np.asarray(x).ndim == 1 else ok

    def project(self, x, tol: float = 1e-8) -> np.ndarray:
        """Dykstra projection onto the polytope (batched over rows of x)."""
        single = np.asarray(x).ndim == 1
        pts = np.atleast_2d(np.asarray(x, dtype=float)).copy()
        n, d = pts.shape
        m = self.normals.shape[0]
        corr = np.zeros((m, n, d))
        prev = pts.copy()
        for _ in range(DYKSTRA_MAX_SWEEPS):
            for i in range(m):
                y = pts + corr[i]
                viol = y @ self.normals[i] - self.offsets[i]
                step = np.maximum(viol, 0.0)
                proj = y - step[:, None] * self.normals[i][None, :]
                corr[i] = y - proj
                pts = proj
            move = float(np.max(np.linalg.norm(pts - prev, axis=1), initial=0.0))
            if move <= tol:
                res = pts[0] if single else pts
                return res
            prev = pts.copy()
        raise PolytopeError("Dykstra projection failed to converge")

    def distance(self, x) -> np.ndarray | float:
        proj = self.project(x)
        if np.asarray(x).ndim == 1:
            return float(np.linalg.norm(np.asarray(x, dtype=float) - proj))
        return np.linalg.norm(np.atleast_2d(np.asarray(x, dtype=float)) - proj, axis=1)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """First ``count`` accepted rejection samples, uniform on the polytope.

        The accepted stream is a prefix-stable function of the generator
        state, so doubling ``count`` extends the sample rather than
        reshuffling it.
        """
        if count < 1:
            raise PolytopeError(f"sample count must be at least 1, got {count!r}")
        out = []
        drawn = 0
        width = self.hi - self.lo
        while sum(len(o) for o in out) < count:
            if drawn > SAMPLE_MAX_DRAWS:
                raise PolytopeError("rejection sampling budget exceeded (thin polytope?)")
            block = self.lo + rng.random((max(256, count), self.dim)) * width
            drawn += block.shape[0]
            out.append(block[self.contains(block)])
        return np.vstack(out)[:count]


def polytope_distance_ratio(a: Polytope, b: Polytope, samples: int, seed: int) -> float:
    """Empirical max of dist_{A∩B}(x) / dist_B(x) over samples x drawn in A, x outside B.

    The intersection must be nonempty (certified by LP at construction of
    the intersection polytope). Samples already in B contribute 0/0 and are
    skipped; with a fixed seed the sample stream is prefix-stable in
    ``samples``, so the estimate is monotone nondecreasing in the sample
    count.
    """
    inter = a.intersection(b)  # raises PolytopeError when A∩B is empty
    rng = np.random.default_rng(seed)
    pts = a.sample(samples, rng)
    scale = 1.0 + float(np.max(np.abs(pts)))
    d_b = np.asarray(b.distance(pts))
    outside = d_b > 1e-9 * scale
    if not np.any(outside):
        return 0.0
    d_ib = np.asarray(inter.distance(pts[outside]))
    ratios = d_ib / d_b[outside]
    return float(np.max(ratios))


# ---------------------------------------------------------------------------
# Point-set files


def load_point_set(path, tie_tolerance: float = 1e-9) -> PointSet:
    """Read a point set: first line ``d N`` (both at least 1), then N rows
    of d coordinates. A malformed file raises GeometryError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise GeometryError(f"{path}: truncated point-set file")
    try:
        d, n = int(tokens[0]), int(tokens[1])
        vals = [float(t) for t in tokens[2:]]
    except ValueError as exc:
        raise GeometryError(f"{path}: {exc}") from None
    if d < 1 or n < 1:
        raise GeometryError(f"{path}: the header needs d >= 1 and N >= 1, got {d} {n}")
    if len(vals) != d * n:
        raise GeometryError(f"{path}: expected {d * n} coordinates, found {len(vals)}")
    return PointSet(np.array(vals).reshape(n, d), tie_tolerance=tie_tolerance)
