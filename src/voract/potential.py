"""Scalar field layer over a finite site set.

The central object is the concave field ``f(x) = -dist^2(x, K)/2`` whose
extended gradient (minimal-norm subgradient selection) drives the action
functionals in :mod:`voract.action`. This module computes:

- ``f_eval``: the field.
- ``extended_gradient``: nearest-site class, its zone value
  ``eta(x)``, the gradient ``eta(x) - x`` and the squared slope.
- ``batch_field``: the same data for a stack of points, the one field
  kernel behind the action, the shock and zone diagnostics and the
  particle-lattice verdict. It returns ``(etas, slope_sq, tie_mask,
  groups)``, where ``groups`` holds one ``(class, rows)`` entry for every
  distinct class (singletons included), ordered by first row, with rows
  ascending; ``class_ids`` turns them into one integer class id per row.
  It classifies the rows in blocks of at most ``KERNEL_CHUNK_ROW_SITES``
  rows x sites, so no caller cuts its arrays. From ``TREE_MIN_SITES`` sites
  up it takes each row's candidate sites from the point set's k-d tree
  instead, with the same formula and tie rule (``_classify_tree``).
  Both take a class's ``eta`` from :func:`~voract.geometry.class_eta`, so
  it is constant on each cell and independent of row and call order.
- ``slope_sup_oracle``: an independent sampled estimate of the slope via
  difference quotients, used to cross-validate the gradient formula.
- ``same_zone``: the one test that two zone values are one zone, also of
  one value against a stack of known zones.
- ``zone_table``: sampled discovery of the distinct ``eta`` values (the
  potential zones), the minimal squared separation ``beta`` between them,
  and a balancedness verdict (does the nearest-site partition coincide
  with the zone partition on the witnessed cells?). Its passes ``_witness``
  and ``_zones`` also make the particle-lattice verdict of :mod:`voract.mag`.
- ``in_p_eta``: membership of a zone value in the subgradient of the
  convex companion ``g(x) = f(x) + |x|^2/2`` at a point.

Everything is pure and immutable; zone discovery takes an explicit seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    GeometryError,
    PointSet,
    class_eta,
    class_frame,
    min_norm_point,
    opt_class,
    sq_dists_to_sites,
    _as_vector,
)

__all__ = [
    "GradientInfo",
    "ZoneTable",
    "f_eval",
    "extended_gradient",
    "slope_sup_oracle",
    "zone_table",
    "in_p_eta",
    "batch_field",
    "class_ids",
    "same_zone",
]

ETA_DEDUP_TOL = 1e-7  # radius of one zone; read only by same_zone
# Rows x sites per block of batch_field: a block's distance matrix and tie
# mask cost about 9 bytes per row-site.
KERNEL_CHUNK_ROW_SITES = 1_000_000
# From this many sites up, _classify takes each row's candidates from the site
# set's k-d tree; below it the dense block is faster (measured crossover).
TREE_MIN_SITES = 512
TREE_K = 4  # first candidate count per row of the tree path, doubled as needed
# Row-candidates per k-d tree query: about 1.5 MB of arrays at d = 4, so the
# tree path adds little to a process's peak memory.
TREE_QUERY_CANDIDATES = 16_384
TRIPLE_MAX_SITES = 40  # zone_table skips triple circumcenters above this many sites
MAX_PAIRS = 20_000  # zone_table probes at most this many site pairs, drawn by its seed
MAX_PROBE_COORDS = 10_000_000  # uniform probes x dimension, checked before drawing


def f_eval(x, kset: PointSet) -> float:
    """-(squared distance to the nearest site)/2."""
    xv = _as_vector(x, kset.dim)
    return -0.5 * float(np.min(sq_dists_to_sites(xv, kset)))


@dataclass(frozen=True)
class GradientInfo:
    """Extended-gradient data at a query point.

    ``opt`` is the nearest-site class of ``x`` as :func:`opt_class` returns it
    (ascending site indices). ``grad`` equals ``eta - x`` by construction; ``slope_sq`` is its
    squared norm and never exceeds ``-2 f_value`` times ``1 + tie_tolerance``
    (equality iff the nearest site is unique); :func:`extended_gradient` checks.
    """

    x: np.ndarray
    opt: tuple[int, ...]
    eta: np.ndarray
    grad: np.ndarray
    f_value: float
    slope_sq: float

    def __post_init__(self):
        for name in ("x", "eta", "grad"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _zone_values(cls: tuple[int, ...], xs: np.ndarray, kset: PointSet) -> np.ndarray:
    """eta of the rows ``xs`` of class ``cls``: its zone value or, for a class
    without an equidistance locus, the fallback of each row's hull projection."""
    eta = class_eta(cls, kset)
    if eta is not None:
        return eta
    pts = kset.points[list(cls)]
    return np.array([min_norm_point(pts, x) for x in xs])


def extended_gradient(x, kset: PointSet) -> GradientInfo:
    """Class, zone value ``eta`` (as in :func:`batch_field`), gradient and
    squared slope at ``x``."""
    xv = _as_vector(x, kset.dim)
    cls = opt_class(xv, kset)
    eta = _zone_values(cls, xv[None, :], kset).reshape(-1)
    grad = eta - xv
    f_value, slope_sq = f_eval(xv, kset), float(grad @ grad)
    # eta lies in the hull of the class sites, each within (1 + tie_tolerance) of the nearest.
    if slope_sq > -2.0 * f_value * (1.0 + kset.tie_tolerance) + 1e-9:
        raise GeometryError(f"slope_sq {slope_sq:g} exceeds squared distance {-2.0 * f_value:g}")
    if len(cls) == 1 and abs(slope_sq + 2.0 * f_value) > 1e-9 * (1.0 + slope_sq):
        raise GeometryError("unique-nearest-site slope must equal the distance")
    return GradientInfo(x=xv, opt=cls, eta=eta, grad=grad, f_value=f_value, slope_sq=slope_sq)


def batch_field(nodes: np.ndarray, kset: PointSet):
    """Vectorized class/eta/slope data for a stack of query points.

    Returns ``(etas, slope_sq, tie_mask, groups)``: ``etas`` is an (n, d)
    array of zone values, ``slope_sq`` an (n,) array of squared
    extended gradients, ``tie_mask`` flags rows whose class has several
    sites, and ``groups`` lists ``(class_tuple, rows)`` for every distinct
    class, singletons included. Groups are ordered by their first row and
    ``rows`` ascend, so iterating the groups meets each class in order of
    first appearance; :func:`class_ids` numbers them per row.

    Every row of a multi-site class gets the class's zone value, as in
    :func:`extended_gradient`: the midpoint of a pair, the hull projection
    of the frame pivot for three or more sites. A class without an
    equidistance locus (a tie only within the tolerance, far from the
    sites) falls back to each row's own hull projection. Rows are classified
    in blocks of at most :data:`KERNEL_CHUNK_ROW_SITES` row-sites, so a call
    of any size holds one block's distance matrix; no result depends on it.
    From :data:`TREE_MIN_SITES` sites up, the call is one block whose rows
    take their candidates from the k-d tree (:func:`_classify_tree`).
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    # The tree path bounds each of its queries itself, so it takes the call whole.
    chunk = nodes.shape[0] if kset.n >= TREE_MIN_SITES else KERNEL_CHUNK_ROW_SITES // kset.n
    chunk = max(1, chunk)
    if nodes.shape[0] <= chunk:  # zero rows too, so they still give arrays of the right shape
        nearest, tie_mask, tie_bits = _classify(nodes, kset)
    else:
        blocks = [_classify(nodes[lo:lo + chunk], kset) for lo in range(0, nodes.shape[0], chunk)]
        nearest, tie_mask, tie_bits = (np.concatenate(parts) for parts in zip(*blocks))
    etas = kset.points[nearest]

    single_rows = np.flatnonzero(~tie_mask)
    groups = [((int(nearest[rows[0]]),), rows)
              for rows in _split_by_key(single_rows, nearest[single_rows])]
    tie_rows = np.flatnonzero(tie_mask)
    if tie_rows.size:
        for at in _split_by_bits(np.arange(tie_rows.size), tie_bits):
            idx = tuple(np.flatnonzero(np.unpackbits(tie_bits[at[0]], count=kset.n)).tolist())
            rows = tie_rows[at]
            etas[rows] = _zone_values(idx, nodes[rows], kset)
            groups.append((idx, rows))
    groups.sort(key=lambda group: group[1][0])
    diff = etas - nodes
    slope_sq = np.einsum("ij,ij->i", diff, diff)
    return etas, slope_sq, tie_mask, groups


def _classify(nodes: np.ndarray, kset: PointSet):
    """Nearest site, tie flag and the tied rows' bit-packed site masks of one
    block of rows.

    Below :data:`TREE_MIN_SITES` sites the block's sites x rows distance
    matrix ``d2 = |p|^2 + |x|^2 - 2 p.x``, clamped at 0, is built and dies on
    return. Its minimum, tie count and ``argmin`` (the lowest site index
    among the minima) over each row's sites run across the rows, one long
    elementwise step per site rather than one short reduction per row; the
    tests check the outputs against a rows x sites block, bit for bit. Each
    tied row's column packs into its row of mask bits. From
    :data:`TREE_MIN_SITES` sites up, each row's candidates come from the
    site set's k-d tree instead (:func:`_classify_tree`), under the same
    formula and tie rule.
    """
    if kset.n >= TREE_MIN_SITES:
        return _classify_tree(nodes, kset)
    pts = kset.points
    d2 = np.einsum("ij,ij->i", pts, pts)[:, None] + np.einsum("ij,ij->i", nodes, nodes)
    prod = pts @ nodes.T
    prod *= 2.0
    d2 -= prod
    del prod  # a full block holds one other block-sized array at a time
    dmin = np.min(np.maximum(d2, 0.0, out=d2), axis=0)
    ties = d2 <= (1.0 + kset.tie_tolerance) * dmin
    tie = np.sum(ties, axis=0) >= 2
    bits = np.ascontiguousarray(np.packbits(ties[:, tie], axis=0).T)
    return np.argmin(d2, axis=0), tie, bits


def _classify_tree(nodes: np.ndarray, kset: PointSet):
    """:func:`_classify` of a block of rows from each row's nearest candidates.

    A row's ``k`` candidates (``TREE_K`` at first) come from a k-nearest query
    on ``kset``'s k-d tree, sorted by site index. On them the row takes the
    dense path's formula, ``d2 = |x|^2 + |p|^2 - 2 x.p`` clamped at 0, its
    ``dmin``, its ties ``d2 <= (1 + tie_tolerance) dmin`` and, as ``argmin``
    does, the lowest site index among the minima. A row is done once every
    other site provably fails that tie test; the others query again with
    ``2k`` candidates, up to all sites.

    Why the margin suffices: let ``u = eps/2`` be the unit roundoff and ``S =
    |x|^2 + max|p|^2``. The two squared norms together and the doubled dot product
    are d-term sums, each within ``d u S`` of its exact value; the sum and
    the difference round once more, by at most ``u S`` and ``2u S``. So a
    site's ``d2``, clamped or not, is within ``(2d + 3) u S + O(u^2) <= (d + 2)
    eps S`` of its exact squared distance ``D``. The tree's distances and
    pruning bounds are sums of ``d`` rounded squares, within ``(d + 2) u`` of
    exact relative to ``D``, and the returned distance squared adds ``2u``;
    with ``r_k^2 <= 2S``, a site the query leaves out has ``D >= r_k^2 -
    (d + 5) eps S``, hence ``d2 >= r_k^2 - (2d + 7) eps S``. A row stops when
    ``r_k^2 - m > (1 + tie_tolerance) dmin + m`` with ``m = 2 (d + 4) eps S``:
    ``2m`` covers that bound and the two roundings of the test itself (at
    most ``eps S`` each), so no left-out site is a minimum or a tie, and the
    row's outputs are those of the dense path on the same ``d2``.

    The cross term is an elementwise sum here and a BLAS product there, so a
    ``d2`` can differ from the dense one by a few ulps. That moves only a row
    within rounding of the tie bound, where the dense path already depends
    on its block, and the ``nearest`` among exact minima of a tied row, which
    :func:`batch_field` overwrites with the class's zone value. Each query
    holds at most :data:`TREE_QUERY_CANDIDATES` row-candidates.
    """
    pts, n, d = kset.points, kset.n, kset.dim
    sq_pts = np.einsum("ij,ij->i", pts, pts)
    sq_rows = np.einsum("ij,ij->i", nodes, nodes)
    margin = 2.0 * (d + 4) * np.finfo(float).eps * (sq_rows + np.max(sq_pts))
    nearest = np.empty(nodes.shape[0], dtype=np.intp)
    tie = np.zeros(nodes.shape[0], dtype=bool)
    tie_rows, tie_sites = [], []
    todo, k = np.arange(nodes.shape[0]), min(TREE_K, n)
    while todo.size:
        step, again = max(1, TREE_QUERY_CANDIDATES // k), []
        for at in (todo[lo:lo + step] for lo in range(0, todo.size, step)):
            dist, cand = kset._tree.query(nodes[at], k)
            cand = np.sort(cand.reshape(at.size, k), axis=1)
            d2 = sq_rows[at, None] + sq_pts[cand]
            d2 -= 2.0 * np.einsum("ikj,ij->ik", pts[cand], nodes[at])
            dmin = np.min(np.maximum(d2, 0.0, out=d2), axis=1)
            bound = (1.0 + kset.tie_tolerance) * dmin
            if k < n:
                done = np.reshape(dist, (at.size, k))[:, -1] ** 2 - margin[at] > bound + margin[at]
                again.append(at[~done])
                at, cand, d2, bound = at[done], cand[done], d2[done], bound[done]
            ties = d2 <= bound[:, None]
            tied = np.sum(ties, axis=1) >= 2
            nearest[at] = cand[np.arange(at.size), np.argmin(d2, axis=1)]
            tie[at] = tied
            rows, cols = np.nonzero(ties[tied])
            tie_rows.append(at[tied][rows])
            tie_sites.append(cand[tied][rows, cols])
        todo, k = np.concatenate(again or [todo[:0]]), min(2 * k, n)
    bits = np.zeros((np.count_nonzero(tie), (n + 7) // 8), dtype=np.uint8)
    if tie_rows:
        sites = np.concatenate(tie_sites)
        at = np.searchsorted(np.flatnonzero(tie), np.concatenate(tie_rows))
        np.bitwise_or.at(bits, (at, sites >> 3), (128 >> (sites & 7)).astype(np.uint8))
    return nearest, tie, bits


def _split_by_key(rows: np.ndarray, keys: np.ndarray) -> list[np.ndarray]:
    """Split ``rows`` into runs of equal key, each run in ascending row order."""
    if rows.size == 0:
        return []
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    cuts = (np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist()
    sorted_rows = rows[order]
    return [sorted_rows[a:b] for a, b in zip([0] + cuts, cuts + [rows.size])]


def _split_by_bits(rows: np.ndarray, bits: np.ndarray) -> list[np.ndarray]:
    """Split ``rows`` into runs of equal packed boolean rows ``bits`` (one
    per row of ``rows``), each run in ascending row order."""
    return _split_by_key(rows, bits.view(np.dtype((np.void, bits.shape[1]))).ravel())


def class_ids(n: int, groups):
    """Per-row class ids ``(n,)`` of the :func:`batch_field` ``groups`` of
    ``n`` rows, and the registry of class tuples they index, by first row."""
    ids = np.empty(n, dtype=np.intp)
    for i, (_, rows) in enumerate(groups):
        ids[rows] = i
    return ids, [cls for cls, _ in groups]


def slope_sup_oracle(x, kset: PointSet, sample_count: int = 400, seed: int = 0) -> float:
    """Sampled lower estimate of the local slope of the distance field.

    Evaluates the positive part of ``(f(x) - f(y) - |x-y|^2/2) / |x-y|``
    over points y on shrinking spheres around x, over the sites
    themselves, over the hull projection of x, and along the ray pointing
    away from that projection. Every sample is a valid difference
    quotient, so the maximum is a lower bound on the true supremum; it is
    used to cross-validate ``|grad|`` from :func:`extended_gradient`.
    """
    if sample_count < 100:
        raise GeometryError("sample_count must be at least 100")
    xv = _as_vector(x, kset.dim)
    rng = np.random.default_rng(seed)
    info = extended_gradient(xv, kset)
    fx = info.f_value

    radii = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    per_sphere = max(sample_count // len(radii), 20)

    candidates = [kset.points, info.eta[None, :]]
    for r in radii:
        dirs = rng.standard_normal((per_sphere, kset.dim))
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0] = 1.0
        dirs = dirs / norms[:, None]
        candidates.append(xv[None, :] + r * dirs)
        if info.slope_sq > 0:
            away = -info.grad / np.sqrt(info.slope_sq)
            candidates.append((xv + r * away)[None, :])
    ys = np.vstack(candidates)

    sq_pts = np.einsum("ij,ij->i", kset.points, kset.points)
    d2 = np.einsum("ij,ij->i", ys, ys)[:, None] + sq_pts[None, :] - 2.0 * ys @ kset.points.T
    f_ys = -0.5 * np.min(np.maximum(d2, 0.0), axis=1)
    gaps = ys - xv[None, :]
    dist = np.linalg.norm(gaps, axis=1)
    ok = dist > 1e-13
    numer = fx - f_ys[ok] - 0.5 * dist[ok] ** 2
    ratios = np.maximum(numer, 0.0) / dist[ok]
    return float(np.max(ratios, initial=0.0))


@dataclass(frozen=True)
class ZoneTable:
    """Witnessed zone values of a site set.

    ``etas`` holds the distinct zone values discovered by probing, one per
    zone in the sense of :func:`same_zone`; ``beta`` is the minimal squared
    separation between them. ``cell_to_zone`` maps each witnessed class
    to the index of its zone value. ``balanced`` is true when no two
    distinct witnessed classes share a zone value; otherwise
    ``unbalanced_witness`` stores one offending class pair. The verdict
    is certified only on witnessed cells; ``coverage`` records how many
    probes each candidate source contributed.
    """

    etas: np.ndarray
    beta: float
    cell_to_zone: dict[tuple[int, ...], int]
    balanced: bool
    unbalanced_witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    class_witness: dict[tuple[int, ...], np.ndarray] = field(repr=False)
    coverage: dict[str, int] = field(default_factory=dict)

    @property
    def witnessed_cells(self) -> int:
        return len(self.cell_to_zone)


def same_zone(eta: np.ndarray, known: np.ndarray):
    """Whether zone value ``eta`` and ``known`` are one zone: within
    :data:`ETA_DEDUP_TOL` of each other, in the Euclidean norm.

    ``known`` is one zone value (d,), giving a bool, or a stack (m, d), giving
    the index of its first row within the radius (None if none is). matmul
    takes each norm as the 1-D dot product ``np.linalg.norm`` uses, so the
    stack's answers equal the pairwise ones.
    """
    gaps = np.reshape(known, (-1, np.size(eta))) - eta
    close = np.flatnonzero(np.sqrt((gaps[:, None, :] @ gaps[:, :, None]).reshape(-1))
                           <= ETA_DEDUP_TOL)
    if np.ndim(known) == 1:
        return close.size > 0
    return int(close[0]) if close.size else None


def _witness(kset: PointSet, pts: np.ndarray, cells: dict, keep=None) -> dict:
    """Add to ``cells`` the first ``(eta, probe)`` of each new class of ``pts``
    that ``keep`` accepts (all when None), from one :func:`batch_field` call."""
    etas, _, _, groups = batch_field(pts, kset)
    for cls, rows in groups:
        if cls not in cells and (keep is None or keep(cls)):
            cells[cls] = (etas[rows[0]], pts[rows[0]].copy())
    return cells


def _zones(cells: dict):
    """The distinct zone values of :func:`_witness` ``cells`` in witness order,
    each class's zone index, and the first pair of classes, in sorted order,
    that share a zone (None if none do)."""
    etas, cell_to_zone = [], {}
    for cls, (eta, _) in cells.items():
        zone = same_zone(eta, np.reshape(etas, (-1, eta.size)))
        cell_to_zone[cls] = len(etas) if zone is None else zone
        if zone is None:
            etas.append(eta)
    first: dict[int, tuple[int, ...]] = {}
    for cls in sorted(cell_to_zone):
        other = first.setdefault(cell_to_zone[cls], cls)
        if other != cls:
            return etas, cell_to_zone, (other, cls)
    return etas, cell_to_zone, None


def _uniform_probes(lo: np.ndarray, hi: np.ndarray, probe_count: int, seed: int):
    """The generator of ``seed`` and ``probe_count`` uniform probes it draws in ``[lo, hi]``."""
    if probe_count < 0 or seed < 0:
        raise GeometryError(f"probe_count and seed must be nonnegative, got {probe_count}, {seed}")
    if probe_count * lo.shape[0] > MAX_PROBE_COORDS:
        raise GeometryError(f"{probe_count} probes in R^{lo.shape[0]} exceed the budget of "
                            f"{MAX_PROBE_COORDS} probe coordinates")
    rng = np.random.default_rng(seed)
    return rng, lo + rng.random((probe_count, lo.shape[0])) * (hi - lo)


def _pair_probes(points: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints of site pairs and offsets along their bisector hyperplanes.

    ``pairs`` is an (P, 2) index array into ``points``. Returns the (P, d)
    midpoints and, per pair in order, the points ``mid +/- t * |gap|/2 * b``
    for ``t`` in (0.05, 0.15, 0.35) and each vector ``b`` of an orthonormal
    basis of the bisector hyperplane: 6 (d - 1) rows per pair. The offsets
    witness the positive-codimension pair cells that midpoints alone miss.
    """
    a = points[pairs[:, 0]]
    b = points[pairs[:, 1]]
    mids = 0.5 * (a + b)
    gaps = b - a
    # matmul takes each norm as the 1-D dot product np.linalg.norm(gap) uses;
    # a row sum can round differently and move the probes by an ulp.
    norms = np.sqrt((gaps[:, None, :] @ gaps[:, :, None]).reshape(-1))
    basis = np.linalg.svd((gaps / norms[:, None])[:, None, :], full_matrices=True)[2][:, 1:]
    steps = np.array([0.05, 0.15, 0.35])[None, :] * (0.5 * norms)[:, None]
    shifts = steps[:, :, None, None] * basis[:, None]  # (P, t, d - 1, d)
    centers = mids[:, None, None, :]
    offsets = np.stack([centers + shifts, centers - shifts], axis=2)
    return mids, offsets.reshape(-1, points.shape[1])


def _circumcenter(pts: np.ndarray) -> np.ndarray | None:
    """Point equidistant from all rows of pts, if the system is consistent."""
    diffs = 2.0 * (pts[1:] - pts[0][None, :])
    rhs = np.einsum("ij,ij->i", pts[1:], pts[1:]) - float(pts[0] @ pts[0])
    sol, *_ = np.linalg.lstsq(diffs, rhs, rcond=None)
    if np.max(np.abs(diffs @ sol - rhs), initial=0.0) > 1e-8 * (1.0 + np.max(np.abs(pts)) ** 2):
        return None
    return sol


def zone_table(
    kset: PointSet,
    probe_box,
    probe_count: int = 2000,
    seed: int = 0,
) -> ZoneTable:
    """Probe the zone structure of ``kset`` inside ``probe_box``.

    Probes are uniform samples plus structured candidates: the sites, all
    pairwise midpoints, offsets from each midpoint along the pair's
    bisector hyperplane (these witness the positive-codimension pair
    cells that midpoints alone miss), circumcenters of site triples
    (d >= 2, skipped above ``TRIPLE_MAX_SITES`` sites), and the frame
    pivots of all witnessed classes. Candidates outside the box are
    dropped, so the verdict is scoped to the probed region.
    """
    lo = np.asarray(probe_box[0], dtype=float).reshape(-1)
    hi = np.asarray(probe_box[1], dtype=float).reshape(-1)
    d = kset.dim
    if lo.shape[0] != d or hi.shape[0] != d:
        raise GeometryError("probe_box dimension mismatch")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise GeometryError("probe_box corners must be finite")
    if np.any(kset.points < lo[None, :] - 1e-12) or np.any(kset.points > hi[None, :] + 1e-12):
        raise GeometryError("probe_box must contain every site")

    rng, uniform = _uniform_probes(lo, hi, probe_count, seed)
    sources: list[tuple[str, np.ndarray]] = [("uniform", uniform)]
    sources.append(("sites", kset.points.copy()))

    n = kset.n
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    if pairs.shape[0] > MAX_PAIRS:
        keep = rng.choice(pairs.shape[0], size=MAX_PAIRS, replace=False)
        pairs = pairs[np.sort(keep)]
    if pairs.shape[0]:
        mids, offsets = _pair_probes(kset.points, pairs)
        sources.append(("midpoints", mids))
        if offsets.shape[0]:
            sources.append(("bisector_offsets", offsets))

    if d >= 2 and n <= TRIPLE_MAX_SITES:
        centers = [c for c in (_circumcenter(kset.points[list(t)])
                               for t in itertools.combinations(range(n), 3)) if c is not None]
        if centers:
            sources.append(("circumcenters", np.array(centers)))

    cells, coverage = {}, {}

    def absorb(name: str, pts: np.ndarray) -> None:
        inside = np.all((pts >= lo[None, :] - 1e-12) & (pts <= hi[None, :] + 1e-12), axis=1)
        coverage[name] = coverage.get(name, 0) + int(np.count_nonzero(inside))
        _witness(kset, pts[inside], cells)

    for name, pts in sources:
        absorb(name, pts)

    # Refinement pass: frame pivots of every witnessed multi-site class.
    pivots = []
    for cls in cells:
        if len(cls) >= 2:
            try:
                pivots.append(class_frame(cls, kset).p_h)
            except GeometryError:
                continue
    if pivots:
        absorb("frame_pivots", np.array(pivots))

    etas, cell_to_zone, witness = _zones(cells)
    eta_arr = np.array(etas) if etas else np.zeros((0, d))
    gaps = eta_arr[:, None, :] - eta_arr[None, :, :]
    sq = np.einsum("ijk,ijk->ij", gaps, gaps)
    np.fill_diagonal(sq, np.inf)
    beta = float(np.min(sq, initial=np.inf))

    return ZoneTable(etas=eta_arr, beta=beta, cell_to_zone=cell_to_zone, balanced=witness is None,
                     unbalanced_witness=witness, coverage=coverage,
                     class_witness={cls: probe for cls, (_, probe) in cells.items()})


def in_p_eta(x, eta, kset: PointSet, tol: float = 1e-8) -> bool:
    """True iff ``eta`` lies in the subgradient of ``g = f + |x|^2/2`` at ``x``.

    Membership is distance of ``eta`` to the convex hull of the class
    sites of ``x`` being at most ``tol``.
    """
    xv = _as_vector(x, kset.dim)
    ev = _as_vector(eta, kset.dim)
    cls = opt_class(xv, kset)
    proj = min_norm_point(kset.points[list(cls)], ev)
    return float(np.linalg.norm(proj - ev)) <= tol
