"""Discretized action functionals over site-set distance potentials.

The functional is the time integral of ``|path'|^2 + h(slope_sq(path))``
where ``slope_sq`` is the squared extended gradient of the opposite
squared distance field of a :class:`~voract.geometry.PointSet` and ``h``
is an increasing C^1 potential shape. Paths are uniform-time node chains
with fixed endpoints; the kinetic term is the forward-difference square
sum and the potential term is the trapezoid rule on node values. One
helper (`_action_terms`) sums both, for the descent engine and for
`evaluate_action` alike, so every reported action is the engine's value.

The minimizer runs multi-start Newton descent with mesh doubling. The
potential is discontinuous across nearest-site cell boundaries, so nodes
sitting exactly on a boundary (tie class) are pinned: they move only along
the boundary's equidistance directions, and no smooth line search crosses
the potential jump. So that boundary-riding segments can shrink or grow
across it, the starts of a mesh stage descend once, as one stack, then run
rounds of release/capture trial moves in lockstep (a single-node move
across the jump, or a run capture that can double a segment, plus a
relaxation; each start's best strict objective decrease wins) and adopt
each round's relaxed winners as they are, until a start's round finds no
improvement (at most 64 rounds). Every path is descended exactly once, and
a start whose nodes equal an earlier start's bit for bit after a stage is
not descended again.

One descent engine (`_Descent`) does all of this on stacks of paths.
Its direction is the Newton step of the problem restricted to the pinned
nodes' tangent spaces (the active-set step of projected Newton, Bertsekas
1982): one banded LAPACK solve for the whole stack, with zero coupling
between paths. The candidates of a round relax together in one stack.
Paths in a stack never interact and each row's arithmetic is its own, so
results depend neither on the field kernel's block size nor on which
starts share a stack.

A layered-graph dynamic program (`dp_oracle`) provides an independent
lower-fidelity solution used both as a solver seed and as a
cross-validation oracle. Its edge cost is separable over the axes, so
each time slice relaxes one axis at a time, ``d(2k + 1)`` shifted array
operations instead of one per offset of the ``(2k + 1)^d`` step box, each
on the rows, and the span within each row, that can still reach the goal. The
snapped chord's cost bounds the optimum, and only the cells that can still
beat it get a field value or stay in the relaxation (the bounding step of
A*), without changing the returned path by a bit.
`constrained_minimize` runs the same engine on the convex-constrained
companion problem, with nodes on active polytope faces pinned like ties.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpbsv, dptsv

from .geometry import (GeometryError, PointSet, Polytope, VoractError, _as_vector, class_frame,
                       split_span)
from .potential import _split_by_bits, batch_field

__all__ = [
    "ActionError",
    "GridBudgetError",
    "Shape",
    "Path",
    "ActionBreakdown",
    "SolverConfig",
    "GridSpec",
    "MinimizeResult",
    "StartSummary",
    "evaluate_action",
    "action_gradient",
    "minimize",
    "dp_oracle",
    "constrained_minimize",
    "seed_grid_spec",
]


class ActionError(VoractError):
    """Invalid solver input or failed action computation."""


class GridBudgetError(ActionError):
    """Dynamic-programming grid exceeds the node/edge budget."""


NODE_BUDGET = 10_000_000  # path mesh nodes, and DP grid points x time slices
EDGE_BUDGET = 400_000_000


def _check_number(name: str, value, low, integer: bool = False, closed: bool = False) -> None:
    """ActionError naming ``name`` unless ``value`` is a finite number (not a
    bool, nor an int beyond the largest float) ``> low``, or ``>= low`` if
    ``closed``; an integer if ``integer``."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (integer or abs(value) <= sys.float_info.max)
            or value < low or (value == low and not closed)):
        raise ActionError(f"{name} must be a finite {'integer' if integer else 'number'} "
                          f"{'>=' if closed else '>'} {low}, got {value!r}")


# ---------------------------------------------------------------------------
# Shapes, paths, breakdowns, configs


@dataclass(frozen=True)
class Shape:
    """Increasing C^1 potential shape applied to the squared slope.

    Supported kinds: ``identity``, ``power`` (s^p, p > 0) and ``affine``
    (a*s + b, a > 0, b >= 0). Construction validates monotonicity on a
    grid and the closed-form derivative against centered differences.
    """

    kind: str = "identity"
    p: float = 1.0
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "power", "affine"):
            raise ActionError(f"unknown shape kind {self.kind!r}")
        if self.kind == "power":
            _check_number("power shape p", self.p, 0.0)
        if self.kind == "affine":
            _check_number("affine shape a", self.a, 0.0)
            _check_number("affine shape b", self.b, 0.0, closed=True)
        grid = np.linspace(0.0, 10.0, 101)
        vals = self.h(grid)
        if vals[0] < 0 or np.any(np.diff(vals) <= 0):
            raise ActionError("shape must be nonnegative at 0 and strictly increasing")
        s = np.linspace(0.05, 10.0, 64)
        eps = 1e-5 * (1.0 + s)
        fd = (self.h(s + eps) - self.h(s - eps)) / (2.0 * eps)
        rel = np.abs(fd - self.h_prime(s)) / np.maximum(np.abs(fd), 1e-12)
        if float(np.max(rel)) > 1e-6:
            raise ActionError("shape derivative disagrees with finite differences")

    def h(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "identity":
            return s.copy()
        if self.kind == "power":
            return np.power(s, self.p)
        return self.a * s + self.b

    def h_prime(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "identity":
            return np.ones_like(s)
        if self.kind == "power":
            with np.errstate(divide="ignore"):
                out = self.p * np.power(s, self.p - 1.0)
            return out
        return np.full_like(s, self.a)

    @classmethod
    def identity(cls) -> "Shape":
        return cls("identity")

    @classmethod
    def power(cls, p: float) -> "Shape":
        return cls("power", p=float(p))

    @classmethod
    def affine(cls, a: float, b: float) -> "Shape":
        return cls("affine", a=float(a), b=float(b))


@dataclass(frozen=True)
class Path:
    """Uniform-time node chain on [0, delta]."""

    delta: float
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_2d(np.array(self.nodes, dtype=float))
        _check_number("delta", self.delta, 0.0)
        if nodes.shape[0] < 3:
            raise ActionError("a path needs at least 2 intervals")
        if not np.all(np.isfinite(nodes)):
            raise ActionError("path nodes must be finite")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def m_intervals(self) -> int:
        return self.nodes.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def dt(self) -> float:
        return self.delta / self.m_intervals

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.delta, self.nodes.shape[0])

    @classmethod
    def from_line(cls, x0, x1, delta: float, m_intervals: int) -> "Path":
        a = _as_vector(x0)
        b = _as_vector(x1, a.shape[0])
        t = np.linspace(0.0, 1.0, m_intervals + 1)[:, None]
        return cls(delta, a[None, :] * (1.0 - t) + b[None, :] * t)


@dataclass(frozen=True)
class ActionBreakdown:
    """A path's discrete action: ``total`` is ``kinetic + potential``."""

    kinetic: float
    potential: float
    total: float


@dataclass(frozen=True)
class SolverConfig:
    """Minimizer knobs: final mesh, doubling stages, starts, tolerances.
    ``grad_tol`` bounds the residual ``max|g|/dt`` of the returned path."""

    M: int = 512
    refinements: int = 3
    starts: int = 4
    seed: int = 0
    grad_tol: float = 1e-5
    max_iters: int = 4000

    def __post_init__(self):
        for name, low in {"M": 1, "refinements": 0, "starts": 1, "seed": 0, "max_iters": 1}.items():
            _check_number(name, getattr(self, name), low, integer=True, closed=True)
        _check_number("grad_tol", self.grad_tol, 1e-12, closed=True)
        if self.M + 1 > NODE_BUDGET:
            raise ActionError(f"M must be below {NODE_BUDGET}, the mesh node budget")
        if self.M >> self.refinements < 4:
            raise ActionError("too many refinements for this M (coarse mesh < 4)")


@dataclass(frozen=True)
class StartSummary:
    label: str
    action: float
    converged: bool
    dev_from_best: float


@dataclass(frozen=True)
class MinimizeResult:
    path: Path
    breakdown: ActionBreakdown
    converged: bool
    grad_norm: float
    starts: tuple[StartSummary, ...]
    prev_path: Path


# ---------------------------------------------------------------------------
# Evaluation and gradient


def _action_terms(stack: np.ndarray, slope_sq: np.ndarray, delta: float, shape: Shape):
    """Kinetic and potential terms ``(B,)`` of the stack ``(B, n, d)`` with
    node slopes ``slope_sq`` ``(B * n,)``: ``sum |x_{k+1} - x_k|^2 / dt`` and
    ``dt (h_0 / 2 + h_1 + ... + h_{n-1} / 2)``. The only code that sums the
    discrete action; each path's sums are its own, whatever the stack."""
    b, n, _ = stack.shape
    dt = delta / (n - 1)
    diffs = np.diff(stack, axis=1)
    kin = np.sum(np.einsum("bij,bij->bi", diffs, diffs), axis=1) / dt
    h = shape.h(slope_sq).reshape(b, n)
    return kin, dt * (0.5 * h[:, 0] + np.sum(h[:, 1:-1], axis=1) + 0.5 * h[:, -1])


def evaluate_action(path: Path, kset: PointSet, shape: Shape) -> ActionBreakdown:
    """Discrete action of the path: the descent engine's value of its nodes,
    bit for bit, so a minimizer's ``breakdown.total`` is its winning start's
    ``action``."""
    if path.dim != kset.dim:
        raise ActionError("path/point-set dimension mismatch")
    _, s, _, _ = batch_field(path.nodes, kset)
    kin, pot = (float(t[0]) for t in _action_terms(path.nodes[None], s, path.delta, shape))
    return ActionBreakdown(kinetic=kin, potential=pot, total=kin + pot)


def _interior_gradient(nodes: np.ndarray, etas: np.ndarray, slope_sq: np.ndarray,
                       dt: float, shape: Shape) -> np.ndarray:
    """Gradient of the discrete action at interior nodes, eta frozen per node.

    A node on its own eta (zero slope) gets a zero potential term, the
    minimal-norm choice, even where ``h'(0)`` is infinite (power p < 1).
    """
    kin = 2.0 * (2.0 * nodes[..., 1:-1, :] - nodes[..., :-2, :] - nodes[..., 2:, :]) / dt
    s = slope_sq[..., 1:-1]
    hp = np.where(s == 0.0, 0.0, shape.h_prime(s))
    pot = dt * hp[..., None] * 2.0 * (nodes[..., 1:-1, :] - etas[..., 1:-1, :])
    return kin + pot


def action_gradient(path: Path, kset: PointSet, shape: Shape) -> np.ndarray:
    """Exact gradient of the discrete action at interior nodes.

    Where a node lies on a cell boundary (its class has several sites) the
    deterministic subgradient choice is the cell of the lexicographically
    smallest class, i.e. the singleton of the smallest site index.
    """
    etas, s, _, groups = batch_field(path.nodes, kset)
    for cls, rows in groups:
        if len(cls) >= 2:
            p = kset.points[cls[0]]
            etas[rows] = p
            diff = path.nodes[rows] - p
            s[rows] = np.einsum("ij,ij->i", diff, diff)
    return _interior_gradient(path.nodes, etas, s, path.dt, shape)


# ---------------------------------------------------------------------------
# Descent engine

FACE_EPS = 1e-9  # slack within which a node counts as on a polytope face
PROJECT_TOL = 1e-10  # Dykstra tolerance of the constrained companion's projections


def _run_lengths(a: np.ndarray):
    """Lengths ``(left, right)`` of the runs of equal entries of ``a`` ``(B, n)``
    along each row that end, and that start, at each entry."""
    n = a.shape[1]
    j = np.arange(n)
    cut = np.ones((a.shape[0], n + 1), dtype=bool)
    cut[:, 1:-1] = a[:, 1:] != a[:, :-1]
    start = np.maximum.accumulate(np.where(cut[:, :-1], j, 0), axis=1)
    stop = np.minimum.accumulate(np.where(cut[:, 1:], j, n - 1)[:, ::-1], axis=1)[:, ::-1]
    return j - start + 1, stop - j + 1


class _Descent:
    """Newton descent on the interior nodes of a stack of paths.

    :meth:`solve` only descends: the paths of a stack ``(B, n, d)`` share
    one mesh and advance in lockstep. Each evaluated stack (the entry stack,
    each line-search trial) is classified once, by :meth:`value`, the only
    field-kernel caller; an accepted trial's state is the next iteration's.
    A path leaves on its first iteration without a step.
    Class frames and zone values are pure functions of the class, memoized
    on the point set, and no row's rounding depends on the other rows of a
    call, so each path's iterates are those it would have alone.
    :meth:`descend` is the only loop over release/capture rounds: it
    descends a mesh stage's stack once, then each path adopts its round's
    relaxed winner from :meth:`_trial_moves` by index, without descending it
    again; the round reads the class ids :meth:`value` gave its nodes.
    Per-path state is plain arrays, one row per path.

    Pinned nodes (tie classes) move only along their boundary's
    equidistance directions (:meth:`_direction`). With a ``polytope``,
    iterates are projected onto it and nodes on active faces are pinned
    the same way.
    """

    def __init__(self, kset: PointSet, shape: Shape, delta: float, cfg: SolverConfig,
                 polytope: Polytope | None = None):
        self.kset = kset
        self.shape = shape
        self.delta = delta
        self.cfg = cfg
        self.polytope = polytope
        self._faces: dict[tuple, np.ndarray] = {}
        self.registry: dict[tuple[int, ...], int] = {}  # class -> id, on first meeting

    # -- objective pieces ---------------------------------------------------

    def value(self, stack: np.ndarray):
        """Actions ``(B,)``, field slopes ``(B, n)``, interior gradients
        projected onto their rows' tangents ``(B, n - 2, d)``, the tangent
        projectors ``B^T B`` ``(B, n - 2, d, d)`` and the nodes' class ids
        ``(B, n)``, numbered by :attr:`registry`, from the stack's one kernel
        call. Tie-class rows pin to their equidistance directions
        (``class_frame(cls).basis_b``) and, with a polytope, rows on active
        faces to their null space (:meth:`_face_groups`); free rows, and
        those of a class without a frame, get the identity."""
        b, n, d = stack.shape
        etas, s, _, groups = batch_field(stack.reshape(-1, d), self.kset)
        f = np.add(*_action_terms(stack, s, self.delta, self.shape))
        s = s.reshape(b, n)
        g = _interior_gradient(stack, etas.reshape(b, n, d), s, self.delta / (n - 1), self.shape)
        # Pinned rows index the stacked interior rows: node k of path i is row i * (n - 2) + k - 1.
        pins, ids = [], np.empty(b * n, dtype=np.intp)
        for cls, rows in groups:
            ids[rows] = self.registry.setdefault(cls, len(self.registry))
            if len(cls) < 2:
                continue
            k = rows % n
            rows = rows[(k >= 1) & (k <= n - 2)]
            if not rows.size:
                continue
            try:
                basis = class_frame(cls, self.kset).basis_b
            except GeometryError:
                continue  # a tie only within the tolerance, with no locus: the rows stay free
            pins.append((basis, rows - 2 * (rows // n) - 1))
        flat = g.reshape(-1, d)
        if self.polytope is not None:
            pins += self._face_groups(stack[:, 1:-1].reshape(-1, d), flat)
        proj = np.zeros((b * (n - 2), d, d))
        proj.reshape(-1, d * d)[:, ::d + 1] = 1.0
        for basis, rows in pins:
            # Row by row: a BLAS product would round a row by its place in the call.
            coef = np.sum(flat[rows][:, None] * basis, axis=2)
            flat[rows] = np.sum(coef[:, :, None] * basis, axis=1)
            proj[rows] = basis.T @ basis
        return f, s, g, proj.reshape(b, n - 2, d, d), ids.reshape(b, n)

    def _face_groups(self, inner: np.ndarray, g: np.ndarray) -> list:
        """Pins ``(basis, rows)`` of the stacked interior rows ``inner`` on
        polytope faces, given their gradients ``g``: each group's rows share
        their active faces, and ``basis`` spans the faces' null space
        (memoized per face set).

        A row is pinned to the faces it lies on (``n_i·x >= b_i - FACE_EPS``)
        that carry a positive multiplier in the projection of ``-g`` onto
        their tangent cone: the active set of projected Newton (Bertsekas
        1982). On one face that means ``n_i·g < 0``; on several, the
        multipliers are a nonnegative least-squares fit of ``-g`` by the
        normals, since ``-g`` can leave an obtuse corner through two faces
        and still slide along one.
        """
        from scipy.optimize import nnls  # deferred: only polytopes need scipy.optimize (~11 MiB)

        normals = self.polytope.normals
        on = inner @ normals.T >= self.polytope.offsets - FACE_EPS
        active = on & (g @ normals.T < 0.0)
        for r in np.flatnonzero(np.sum(on, axis=1) >= 2):
            faces = np.flatnonzero(on[r])
            active[r, faces] = nnls(normals[faces].T, -g[r])[0] > 0.0
        rows = np.flatnonzero(np.any(active, axis=1))
        pins = []
        for grp in _split_by_bits(rows, np.packbits(active[rows], axis=1)):
            faces = tuple(np.flatnonzero(active[grp[0]]).tolist())
            if faces not in self._faces:
                self._faces[faces] = split_span(normals[list(faces)])[1]
            pins.append((self._faces[faces], grp))
        return pins

    def _direction(self, g_eff: np.ndarray, proj, s: np.ndarray, dt: float) -> np.ndarray:
        """Newton step ``Z (Z^T H Z)^-1 Z^T g`` of the pinned problem for a stack.

        ``H`` is block-tridiagonal (diagonal ``D_r = 4/dt + 2 dt h'``, coupling
        ``-2/dt``, zero across path boundaries) and ``Z`` holds each row's
        tangent basis ``B``, the identity on free rows: the null-space method
        (Nocedal & Wright, ch. 16). In projector form, ``P_r = B^T B`` from
        :meth:`value`, the step solves the SPD system ``P H P + I - P``
        (diagonal blocks ``D_r P_r + I - P_r``, coupling ``-2/dt P_{r+1} P_r``),
        whose solution lies in the tangent spaces: one LAPACK call on ``2d``
        band rows, ``dptsv`` if d = 1, else ``dpbsv``, the routines and band
        ``solveh_banded`` would use, without its checks and copies. A band
        that is not positive definite raises ``LinAlgError``. Rows with
        infinite ``h'`` (power p < 1 on its own site) get ``P = 0`` and a
        zero step.
        """
        b, n_int, d = g_eff.shape
        size = b * n_int
        hp = self.shape.h_prime(s[:, 1:-1]).ravel()
        frozen = np.isinf(hp)
        diag = 4.0 / dt + 2.0 * dt * np.maximum(np.where(frozen, 0.0, hp), 0.0) + 1e-12
        proj = np.where(frozen[:, None, None], 0.0, proj.reshape(size, d, d))
        rhs = np.where(frozen[:, None], 0.0, g_eff.reshape(size, d))
        strip = np.zeros((size, 3 * d, d))  # (diagonal | coupling to the next row | 0) blocks
        strip[:, :d] = diag[:, None, None] * proj + (np.eye(d) - proj)
        strip[:-1, d:2 * d] = (-2.0 / dt) * (proj[1:] @ proj[:-1])
        strip[n_int - 1::n_int, d:2 * d] = 0.0
        # Lower band storage, Fortran-ordered as LAPACK reads it:
        # band[m, rd + c] = strip[r, c + m, c].
        k, c = np.ogrid[:2 * d, :d]
        band = strip[:, k + c, c].transpose(0, 2, 1).reshape(size * d, 2 * d).T
        if d == 1:
            *_, step, info = dptsv(band[0], band[1, :-1], rhs.reshape(-1), overwrite_d=True,
                                   overwrite_e=True, overwrite_b=True)
        else:
            _, step, info = dpbsv(band, rhs.reshape(-1), lower=True, overwrite_ab=True,
                                  overwrite_b=True)
        if info:
            raise LinAlgError(f"Newton band solve failed: LAPACK info {info}")
        return step.reshape(b, n_int, d)

    def _feasible(self, stack: np.ndarray) -> np.ndarray:
        """Project the interior nodes of the stack onto the polytope, in place."""
        if self.polytope is not None:
            b, n, d = stack.shape
            inner = stack[:, 1:-1].reshape(-1, d)
            stack[:, 1:-1] = self.polytope.project(inner, tol=PROJECT_TOL).reshape(b, n - 2, d)
        return stack

    # -- main loop ------------------------------------------------------------

    def solve(self, stack: np.ndarray):
        """Descend every path of the stack in lockstep.

        Each iteration steps the searching paths along :meth:`_direction`,
        halving a path's step until its trial passes the Armijo test, whose
        :meth:`value` entries then become the path's own: none is evaluated twice.

        Returns ``(nodes, values, grad_norm, stopped, ids)``, one row per
        path, ``ids`` the nodes' :meth:`value` class ids. ``grad_norm`` is
        the residual of the returned nodes, their largest pinned,
        face-projected gradient over dt (the discrete Euler-Lagrange
        residual); the results judge a path converged where it is at most
        ``grad_tol``. A path leaves on the first iteration that takes no
        step: its residual meets ``grad_tol`` or is not finite, or its line
        search fails. ``stopped`` is false for the paths still stepping
        after ``cfg.max_iters`` steps.
        """
        stack = self._feasible(stack.copy())
        f, s, g_eff, proj, ids = self.value(stack)
        dt = self.delta / (stack.shape[1] - 1)
        alpha = np.ones(f.size)  # first trial: the unit Newton step
        grad_norm = np.full(f.size, np.inf)
        tol = self.cfg.grad_tol
        live = np.arange(f.size)
        for it in range(self.cfg.max_iters + 1):
            if not live.size:
                break
            grad_norm[live] = np.max(np.linalg.norm(g_eff[live], axis=2), axis=1, initial=0.0) / dt
            if it == self.cfg.max_iters:
                break
            paths = live[np.isfinite(grad_norm[live]) & (grad_norm[live] > tol)]
            stepped = np.zeros(f.size, dtype=bool)
            g = g_eff[paths]
            direction = self._direction(g, proj[paths], s[paths], dt) if paths.size else g
            slope = np.sum(g * direction, axis=(1, 2))
            step = alpha[paths]
            for _ in range(45):
                if not paths.size:
                    break
                trial = stack[paths]
                trial[:, 1:-1] -= step[:, None, None] * direction
                f_trial, *state = self.value(self._feasible(trial))
                ok = (f_trial <= f[paths] - 1e-4 * step * slope) & (slope > 0.0)
                won = paths[ok]
                stack[won], f[won] = trial[ok], f_trial[ok]
                s[won], g_eff[won], proj[won], ids[won] = (entry[ok] for entry in state)
                alpha[won] = np.minimum(step[ok] * 1.6, 16.0)
                stepped[won] = True
                paths, step, slope = paths[~ok], step[~ok] * 0.5, slope[~ok]
                direction = direction[~ok]
            live = np.flatnonzero(stepped)
        return stack, f, grad_norm, ~np.isin(np.arange(f.size), live), ids

    def descend(self, stack: np.ndarray):
        """Descend a stack of paths once, then run at most 64 lockstep rounds
        of release/capture moves (:meth:`_trial_moves`) on the class ids
        :meth:`solve` returned; each path in the loop adopts its round's
        relaxed winner, ids included, as it is. Since a run capture can
        double a boundary-riding segment, a segment reaches L nodes in about
        log2(L) rounds, not L, and single-node moves then trim its ends. A
        path leaves where it would leave alone: no winner, or its descent or
        its winner's relaxation ran out of iterations. Returns ``(nodes,
        values, grad_norm)``, one row per path, the residuals as
        :meth:`solve` measured them on those nodes; each path's objective
        decreases strictly from round to round.
        """
        nodes, value, gnorm, stopped, ids = self.solve(stack)
        live = np.flatnonzero(stopped)
        for _ in range(64):
            if not live.size:
                break
            pick, relaxed = self._trial_moves(nodes[live], value[live], ids[live])
            live, pick = live[pick >= 0], pick[pick >= 0]
            for entry, new in zip((nodes, value, gnorm, stopped, ids), relaxed):
                entry[live] = new[pick]
            live = live[stopped[live]]
        return nodes, value, gnorm

    # -- release / capture ------------------------------------------------------

    def _trial_moves(self, stack: np.ndarray, f0: np.ndarray, ids: np.ndarray):
        """One round of release/capture moves for the stack ``(B, n, d)`` with
        values ``f0`` and :meth:`value` class ids ``ids``. Returns ``(pick,
        relaxed)``: ``relaxed`` is the :meth:`solve` of every candidate (empty
        if there is none), and ``pick[i]`` the index in it of path i's best
        candidate that beats its ``f0`` by over 1e-12 relative, ties to the
        earlier one, or -1.

        A single-node candidate moves one node across the potential jump: a
        tied node facing a free neighbour is released toward it by half and
        all of the gap, a free node facing a tied one is captured onto that
        class's boundary plane if the class has a frame. Each capture also
        makes a run capture, which projects the free nodes from the captured
        one on, away from its neighbour, onto the same plane: as many as the
        neighbour's segment of that class has, up to the first tie node or
        endpoint, and only if at least two move. A segment can so double in
        a round (exponential search, Bentley & Yao 1976). A run whose
        relaxation moves one of its nodes out of that class is no candidate
        for ``pick``: such a jump tore the segment it was to extend. The
        single-node candidates run by path, node, neighbour k - 1 then k + 1,
        and weight; the run captures follow in the order of their captures.
        All relax in one :meth:`solve`.
        """
        registry = list(self.registry)
        is_tie = np.array([len(cls) >= 2 for cls in registry])
        ties = is_tie[ids]
        tie, nb = ties[:, 1:-1, None], np.stack([ids[:, :-2], ids[:, 2:]], axis=2)
        faced = tie != is_tie[nb]
        # Two slots per node and neighbour: a capture or a half release, then a full release.
        owner, k, side, full = np.nonzero(np.stack([faced, faced & tie], 3))
        held = np.where(tie[owner, k, 0], -1, nb[owner, k, side])  # captured class, or -1
        frames = {}
        for c in set(held.tolist()) - {-1}:
            try:
                frames[c] = class_frame(registry[c], self.kset)
            except GeometryError:
                held[held == c] = -2  # no frame: no capture
        owner, k, side, full, held = (entry[held > -2] for entry in (owner, k, side, full, held))
        pick = np.full(stack.shape[0], -1)
        if not owner.size:
            return pick, ()
        x = stack[owner, k + 1]
        pos = x + np.where(full, 1.0, 0.5)[:, None] * (stack[owner, k + 2 * side] - x)
        # A run's length: the neighbour's segment, clipped to the free interior nodes ahead.
        fixed = ties.copy()
        fixed[:, [0, -1]] = True
        (same_l, same_r), (free_l, free_r) = _run_lengths(ids), _run_lengths(fixed)
        length = np.where(side == 0, np.minimum(same_l[owner, k], free_r[owner, k + 1]),
                          np.minimum(same_r[owner, k + 2], free_l[owner, k + 1]))
        run = np.flatnonzero((held >= 0) & (length >= 2))
        size = length[run]
        at = np.repeat(run, size)  # the capture that each run row extends
        step = np.arange(at.size) - np.repeat(np.cumsum(size) - size, size)
        rows = k[at] + 1 + np.where(side[at] == 0, step, -step)
        into = k.size + np.repeat(np.arange(run.size), size)  # the candidate of each run row
        # One entry per moved node: the single-node candidates', then the runs'.
        cand, node = np.concatenate([np.arange(k.size), into]), np.concatenate([k + 1, rows])
        cls = np.concatenate([held, held[at]])
        x = np.concatenate([x, stack[owner[at], rows]])
        pos = np.concatenate([pos, x[k.size:]])
        for c, frame in frames.items():
            # A stacked matmul makes one BLAS product per row: no row rounds by its place.
            on = cls == c
            rel = (x[on] - frame.p_h)[:, :, None]
            pos[on] = frame.p_h + (frame.basis_b.T @ (frame.basis_b @ rel))[:, :, 0]
        owner = np.concatenate([owner, owner[run]])
        trials = stack[owner]
        trials[cand, node] = pos
        relaxed = self.solve(trials)
        # A run counts only if the relaxation keeps each of its nodes in the class it captured.
        f = relaxed[1].copy()
        f[into[relaxed[4][into, rows] != held[at]]] = np.inf
        # Per path, its first candidate in (value, index) order under its threshold.
        ok = np.flatnonzero(f < (f0 - 1e-12 * (1.0 + np.abs(f0)))[owner])
        ok = ok[np.lexsort((ok, f[ok], owner[ok]))]
        paths, first = np.unique(owner[ok], return_index=True)
        pick[paths] = ok[first]
        return pick, relaxed


# ---------------------------------------------------------------------------
# Multi-start minimization with mesh refinement


def _interp_to_mesh(path_nodes: np.ndarray, delta: float, m_target: int) -> np.ndarray:
    t_src = np.linspace(0.0, delta, path_nodes.shape[0])
    t_dst = np.linspace(0.0, delta, m_target + 1)
    return np.stack([np.interp(t_dst, t_src, col) for col in path_nodes.T], axis=1)


def seed_grid_spec(x0, xdelta, delta: float, kset: PointSet) -> "GridSpec":
    """Grid specification used when seeding the minimizer from the DP oracle.

    The box covers the endpoints with a unit-order margin; per-axis grids
    snap to endpoint, site and pairwise-midpoint coordinates so boundary
    wells are exactly representable.
    """
    a = _as_vector(x0, kset.dim)
    b = _as_vector(xdelta, kset.dim)
    span = float(np.linalg.norm(b - a))
    margin = max(1.0, 0.5 * span)
    lo = np.minimum(a, b) - margin
    hi = np.maximum(a, b) + margin
    d = kset.dim
    if d > 3:
        raise ActionError(f"seed_grid_spec supports dimension <= 3, got {d}")
    points_per_axis = {1: 481, 2: 61, 3: 25}[d]
    res = float(np.max(hi - lo)) / (points_per_axis - 1)
    snap = []
    for ax in range(d):
        vals = [a[ax], b[ax]]
        vals.extend(kset.points[:, ax].tolist())
        if kset.n <= 60:
            pts = kset.points[:, ax]
            vals.extend((0.5 * (pts[:, None] + pts[None, :])).ravel().tolist())
        snap.append(tuple(sorted(set(np.round(np.asarray(vals, dtype=float), 12).tolist()))))
    dist0 = float(np.min(np.linalg.norm(kset.points - a[None, :], axis=1)))
    dist1 = float(np.min(np.linalg.norm(kset.points - b[None, :], axis=1)))
    v_scale = max(1.0, span / delta, dist0, dist1)
    # Time slicing is tied to the spatial resolution so the speed quantum
    # res * T / delta stays a usable fraction of the typical speed.
    t_slices = int(np.clip(round(delta * 0.5 * v_scale / res), 20, 400))
    return GridSpec(lo=lo, hi=hi, resolution=res, time_slices=t_slices,
                    vmax=4.0 * v_scale, snap_axes=tuple(snap))


def _mesh_schedule(cfg: SolverConfig) -> list[int]:
    """Mesh sizes of the doubling stages, coarsest first, ending at ``cfg.M``."""
    meshes = [(cfg.M >> cfg.refinements) << i for i in range(cfg.refinements + 1)]
    return meshes if meshes[-1] == cfg.M else meshes + [cfg.M]


def _descend_stages(engine: _Descent, stack: np.ndarray, a, b, meshes: list[int]):
    """Descend a stack of starts through the mesh stages, one
    :meth:`_Descent.descend` per stage. A start whose nodes equal an earlier
    start's (``np.array_equal``) takes that start's rows, which its own
    descent would repeat, instead of being descended. Returns the stack
    after the stage before last (after the only one, if there is one), then
    the last stage's ``(nodes, values, grad_norm)``, one row per start."""
    prev = last = None
    for m in meshes:
        if stack.shape[1] != m + 1:
            stack = np.array([_interp_to_mesh(nodes, engine.delta, m) for nodes in stack])
        stack[:, 0], stack[:, -1] = a, b
        first = [next(i for i in range(j + 1) if np.array_equal(stack[i], stack[j]))
                 for j in range(len(stack))]
        own, back = np.unique(first, return_inverse=True)
        prev, last = last, [entry[back] for entry in engine.descend(stack[own])]
        stack = last[0]
    return (stack if prev is None else prev[0]), *last


def minimize(x0, xdelta, delta: float, kset: PointSet, shape: Shape,
             cfg: SolverConfig = SolverConfig()) -> MinimizeResult:
    """Multi-start minimization of the discrete action with mesh doubling.

    Starts: the straight chord, a DP-oracle seed (dimension <= 3), and
    seeded smooth Gaussian perturbations of the chord. The starts descend
    through the refinement stages as one stack per stage; a start that
    equals an earlier one bit for bit shares its later stages and keeps its
    own label in ``starts``. The result is the best final minimizer ordered
    by (action, start index). Deterministic for a fixed seed. ``grad_norm``
    is the engine's residual for that start and ``converged`` means it is at
    most ``grad_tol``; if not, the best iterate is returned flagged so.
    """
    a = _as_vector(x0, kset.dim)
    b = _as_vector(xdelta, kset.dim)
    _check_number("delta", delta, 0.0)
    meshes = _mesh_schedule(cfg)
    m0 = meshes[0]

    starts: list[tuple[str, np.ndarray]] = []
    chord = Path.from_line(a, b, delta, m0).nodes.copy()
    starts.append(("straight", chord))
    if kset.dim <= 3:
        try:
            dp_path = dp_oracle(a, b, delta, kset, shape, seed_grid_spec(a, b, delta, kset))
            starts.append(("dp", _interp_to_mesh(dp_path.nodes, delta, m0)))
        except GridBudgetError:
            pass
    rng = np.random.default_rng(cfg.seed)
    scale = 0.1 * max(1.0, float(np.linalg.norm(b - a)))
    n_perturb = max(cfg.starts - len(starts), 0)
    t_env = np.sin(np.pi * np.linspace(0.0, 1.0, m0 + 1))[:, None]
    for i in range(n_perturb):
        noise = rng.standard_normal((m0 + 1, kset.dim))
        for _ in range(2):  # cheap smoothing
            noise[1:-1] = (noise[:-2] + noise[1:-1] + noise[2:]) / 3.0
        starts.append((f"perturb{i}", chord + scale * t_env * noise))

    engine = _Descent(kset, shape, delta, cfg)
    prev, nodes, values, grad_norm = _descend_stages(
        engine, np.array([st for _, st in starts]), a, b, meshes)
    actions, converged = values.tolist(), (grad_norm <= cfg.grad_tol).tolist()
    best = min(range(len(starts)), key=lambda j: actions[j])
    best_path = Path(delta, nodes[best])
    summaries = tuple(
        StartSummary(label=lab, action=act, converged=conv,
                     dev_from_best=float(np.max(np.linalg.norm(st - nodes[best], axis=1))))
        for (lab, _), st, act, conv in zip(starts, nodes, actions, converged))
    return MinimizeResult(
        path=best_path,
        breakdown=evaluate_action(best_path, kset, shape),
        converged=converged[best],
        grad_norm=float(grad_norm[best]),
        starts=summaries,
        prev_path=Path(delta, prev[best]),
    )


# ---------------------------------------------------------------------------
# Dynamic-programming oracle


@dataclass(frozen=True)
class GridSpec:
    """Spatial box, resolution and time slicing for the DP oracle.

    ``snap_axes`` optionally lists per-axis coordinates that replace their
    nearest uniform grid point (endpoint coordinates are always injected);
    ``vmax`` bounds the speed of admissible transitions.
    """

    lo: np.ndarray
    hi: np.ndarray
    resolution: float
    time_slices: int
    vmax: float | None = None
    snap_axes: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape:
            raise ActionError(f"grid box corners have different lengths {lo.size} and {hi.size}")
        if not np.all(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)):
            raise ActionError("grid box corners lo and hi must be finite with hi > lo")
        _check_number("resolution", self.resolution, 0.0)
        _check_number("time_slices", self.time_slices, 2, integer=True, closed=True)
        if self.vmax is not None:
            _check_number("vmax", self.vmax, 0.0)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def _axis_coords(lo: float, hi: float, res: float, snap) -> np.ndarray:
    """Uniform axis with its nearest points replaced by the in-box snap values,
    each also added, so two values nearest one point both stay."""
    n = max(int(round((hi - lo) / res)) + 1, 2)
    coords = np.linspace(lo, hi, n)
    inside = [s for s in snap if lo <= s <= hi]
    for s in inside:
        coords[int(np.argmin(np.abs(coords - s)))] = s
    return np.unique(np.concatenate([coords, inside]))


def dp_oracle(x0, xdelta, delta: float, kset: PointSet, shape: Shape,
              grid_spec: GridSpec) -> Path:
    """Exact shortest path of the grid-discretized action (dimension <= 3).

    Nodes are (time slice, grid point) pairs; an edge of spatial step dx
    over one slice costs ``|dx|^2/dt + dt*(h_src + h_dst)/2``, so the DP
    value equals :func:`evaluate_action` of the returned path up to
    rounding. The endpoints must lie in the grid box and snap to their
    nearest grid points (their coordinates are injected into the per-axis
    grids). Admissible steps form the box ``[-k, k]^d`` in grid cells, with
    ``k = max(1, ceil(vmax * dt / resolution))``.

    The edge cost is a sum over axes plus a source and a target term, and
    the step box is a product of per-axis ranges, so each slice's min-plus
    product is separable (Felzenszwalb & Huttenlocher 2012): add the source
    half ``dt*h/2`` to the costs, run one 1-D min-plus pass per axis over
    the steps ``-k..k`` (per-axis squared coordinate differences over dt,
    exact on snapped, non-uniform axes), then add the target half. The
    intermediate points of a step stay in the grid box, so the optimum is
    that of relaxing every offset of the box, at ``d`` passes per slice
    instead of ``(2k + 1)^d`` shifted relaxations.

    Each pass runs on one rectangle of the C-ordered grid seen as a matrix
    of first-axis rows by offsets within a row: rows ``[r0, r1)``, offsets
    ``[c0, c1)``. A step of ``o`` cells along an axis is a flat shift by
    ``o`` times the axis's stride, and a target whose source would leave the
    axis gets an infinite kinetic term. With ``m = min(k, n - 1)`` for an
    axis of ``n`` points (longer steps reach nothing), a pass is one add and
    one minimum: a basic slice of a read-only strided view of the source
    buffer, shape ``(2m + 1, r1 - r0, c1 - c0)`` with entry ``[i, r, c]`` the
    source of cell ``(r, c)`` shifted by ``(i - m)`` strides, plus the
    pass's kinetic terms (by row on the first axis, by offset within the row
    on the others) fill one reused candidate block, and its minimum over the
    steps is the pass's costs. The views, built once per call, read inside
    the buffer: the buffers hold ``k0 = min(k, n_0 - 1)`` rows of inf before
    and after the grid, on the first axis ``m stride = k0 row``, and on any
    other axis ``m stride <= (n - 1) stride < row <= k0 row``, since every
    axis has at least two points. Slice 0's rectangle is the start cell. A
    pass along another axis keeps the rows and widens the offsets by
    ``m stride`` each way, clipped to the row; the first axis's pass keeps
    the offsets and relaxes the rows within ``k`` of the rows and within
    ``(T - t - 1) k`` of the goal row. Every other cell stays infinite.

    The passes run from the last axis to the first and record no steps:
    each keeps the rectangle of sources it read, whole: the rows
    ``[r0 - m, r1 + m)`` at the offsets ``[c0, c1)`` on the first axis, and
    on the others the rows ``[r0, r1)`` at the offsets ``[c0 - m stride,
    c1 + m stride)``, read across the row's ends. In that rectangle a
    node's candidates are one strided slice, read backwards. The backtrack
    undoes the passes in reverse, first axis first, and re-derives each
    node's step: it rebuilds the node's ``2m + 1`` candidates from the kept
    costs with the same additions and takes the first minimum in ``-m..m``
    order. So exact ties resolve to the lexicographically smallest offset,
    first axis first. The backtrack rebuilds ``2m + 1`` candidates per node
    and pass, while numpy's argmin over the short step axis of every
    relaxed cell takes two to four times as long as the pass's add and
    minimum.

    The relaxation is bounded as in A* (Hart, Nilsson & Raphael 1968) or
    the bounding step of branch and bound (Morin & Marsten 1976). The chord
    ``a + (b - a) t/T`` snapped to the grid is a grid path unless one of its
    steps is longer than ``k`` cells; its cost U, in the edge formula above,
    bounds the optimum, and ``cut = U + 1e-9 (1 + U)`` covers rounding
    (without such a path U is inf and nothing is cut). Since ``h >= 0``, by
    Cauchy-Schwarz the rest of any path from x at slice t costs at least
    ``L_t(x) = |x - b|^2 / ((T - t) dt)``, and a path of cost at most
    ``cut`` stays in the ellipse ``|x - a| + |x - b| <= sqrt(delta cut)``.
    So the field is evaluated on the ellipse's cells only, every other cell
    gets ``h = inf``, and the row ranges keep to the ellipse's rows. On
    grids of two or more axes, slice ``t`` also ends by setting to inf every
    cell with ``cost + L_{t+1} > cut`` and keeping the next slice's rows and
    offsets to those that still hold a finite cell. One-axis grids skip
    this: their slices are a few hundred cells, so the prune would cost more
    numpy calls than it saves.

    The returned path is the one of relaxing the whole grid, bit for bit.
    The offsets alone change no cost: a cell of a relaxed row outside a
    pass's offsets has no finite candidate, since each of its sources lies
    either at an offset outside the source's rectangle, outside which the
    source buffer is inf, or off the axis, where the kinetic term is inf; so
    it stays inf, as when relaxing whole rows. A cell inside gets the same
    additions in the same ``-m..m`` order, and the cut's rectangle drops
    only cells it has set to inf. Every step only adds and takes minima, and
    cutting turns a cost into inf, so no cell's cost falls below its
    unbounded value. Call a cell
    *critical* if it lies on the unbounded path or is a source of a step
    that attains a critical cell's minimum (ties included). For a step from
    s to y, ``L_t(s) <= |s - y|^2/dt + L_{t+1}(y)`` by convexity, and the
    step costs at least ``|s - y|^2/dt``, so ``cost + L`` never increases
    along a minimizing step; it is at most the optimum at the goal, which
    is at most U. A critical cell therefore passes the cut, lies in the
    ellipse (Cauchy-Schwarz on its two sides), and lies in a relaxed row.
    By induction over the slices its candidates are unchanged where they
    attain the minimum and no lower elsewhere, so it gets the same cost and,
    ties going to the first step, the same first minimizing step: the
    backtrack, which rebuilds exactly the candidates the pass added,
    re-derives the same path.
    """
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

    start = tuple(int(np.argmin(np.abs(axes[ax] - a[ax]))) for ax in range(d))
    goal = tuple(int(np.argmin(np.abs(axes[ax] - b[ax]))) for ax in range(d))
    k0 = min(k_off, shape_g[0] - 1)
    if abs(start[0] - goal[0]) > t_slices * k0:
        raise ActionError("endpoint unreachable on this grid (raise vmax or widen the box)")

    # The bound: the snapped chord's cost, if its steps are at most k cells.
    frac = np.arange(t_slices + 1) / t_slices
    chord = np.empty((t_slices + 1, d), dtype=np.intp)
    for ax, x in enumerate(axes):
        v = a[ax] + (b[ax] - a[ax]) * frac
        i = np.clip(np.searchsorted(x, v), 1, len(x) - 1)
        chord[:, ax] = i - (v - x[i - 1] <= x[i] - v)  # the nearest point, the lower on a tie
    chord[0], chord[-1] = start, goal
    cut = np.inf
    if np.max(np.abs(np.diff(chord, axis=0))) <= k_off:
        pts = np.stack([x[chord[:, ax]] for ax, x in enumerate(axes)], axis=1)
        hc = 0.5 * dt * shape.h(batch_field(pts, kset)[1])
        bound = float(np.sum((pts[1:] - pts[:-1]) ** 2 / dt) + np.sum(hc[:-1] + hc[1:]))
        cut = bound + 1e-9 * (1.0 + bound)

    # Squared distances to a and b per cell; the field only inside the ellipse.
    def sq_dist(p):
        out = np.zeros(shape_g)
        for ax, x in enumerate(axes):
            out += ((x - p[ax]) ** 2).reshape([-1 if i == ax else 1 for i in range(d)])
        return out.reshape(-1)

    to_goal = sq_dist(b)
    cells = np.arange(g_total)
    if np.isfinite(cut):
        cells = np.flatnonzero(np.sqrt(sq_dist(a)) + np.sqrt(to_goal) <= math.sqrt(delta * cut))
    hh = np.full(g_total, np.inf)
    grid_pts = np.stack([x[i] for x, i in zip(axes, np.unravel_index(cells, shape_g))], axis=1)
    hh[cells] = 0.5 * dt * shape.h(batch_field(grid_pts, kset)[1])

    # Costs live in two flat C-ordered buffers with k0 rows of inf at each
    # end, each also seen as its (first-axis row, offset in the row) grid.
    # Per axis, the steps -m..m with m = min(k, n - 1) (longer steps reach
    # nothing) and their kinetic terms, row i for the step of i - m cells,
    # inf where the source is off the axis: by row on the first axis, by
    # offset in the row on the others. Per buffer, two read-only views:
    # `shifted`, whose [i, r, c] is the source of cell (r, c) for the step of
    # i - m cells, a flat shift by (i - m) * stride; and `reads`, whose
    # [r, c] is the cell m strides before cell (r, c) (on the other axes its
    # rows run 2m strides past the row's end), so that the sources a pass
    # reads for a rectangle of cells are one rectangle of it.
    n0 = shape_g[0]
    strides = [int(np.prod(shape_g[ax + 1:])) for ax in range(d)]
    row = strides[0]
    pad = k0 * row
    bufs = [np.full(g_total + 2 * pad, np.inf) for _ in range(2)]
    grids = [buf[pad:pad + g_total].reshape(n0, row) for buf in bufs]
    hh, to_goal = hh.reshape(n0, row), to_goal.reshape(n0, row)
    itemsize = bufs[0].itemsize
    passes = []
    for ax in reversed(range(d)):
        n, x, stride = shape_g[ax], axes[ax], strides[ax]
        m = min(k_off, n - 1)
        kin = np.full((2 * m + 1, n), np.inf)
        for o in range(-m, m + 1):
            dst, src = slice(max(0, o), n + min(0, o)), slice(max(0, -o), n - max(0, o))
            kin[o + m, dst] = (x[dst] - x[src]) ** 2 / dt
        if ax:
            kin = kin[:, np.arange(row) // stride % n]
        shifted = [as_strided(buf[pad + m * stride:], shape=(2 * m + 1, n0, row),
                              strides=(-stride * itemsize, row * itemsize, itemsize),
                              writeable=False) for buf in bufs]
        reads = [buf.reshape(-1, row) if ax == 0 else
                 as_strided(buf[pad - m * stride:], shape=(n0, row + 2 * m * stride),
                            strides=(row * itemsize, itemsize), writeable=False)
                 for buf in bufs]
        passes.append((ax, stride, m, kin, shifted, reads))

    flat = int(np.ravel_multi_index(start, shape_g))
    grids[0][start[0], flat % row] = 0.0
    # The rows [r0, r1) and offsets in the row [c0, c1) of slice t that can
    # hold a finite cost; the rows keep to the ellipse's rows [e0, e1).
    r0, r1, c0, c1 = start[0], start[0] + 1, flat % row, flat % row + 1
    e0, e1 = int(cells[0]) // row, int(cells[-1]) // row + 1
    # Each buffer is inf outside its span, the rectangle its last pass wrote.
    span = [(r0, r1, c0, c1), (0, 0, 0, 0)]
    # One candidate block for every pass: no pass relaxes more than the
    # ellipse's rows (slice 0's passes before the first axis's relax the
    # start row).
    block = np.empty(max(e1 - e0, 1) * row * max(2 * p[2] + 1 for p in passes))
    # Per slice and pass: the first row and offset written, and the
    # rectangle of `reads` holding every source read.
    sources = []
    prune = d > 1 and np.isfinite(cut)
    cur = 0
    for t in range(t_slices):
        left = t_slices - t - 1
        q0 = max(r0 - k0, goal[0] - left * k0, e0)
        rows_next = (q0, max(q0, min(r1 + k0, goal[0] + left * k0 + 1, e1)))
        cost = grids[cur][r0:r1, c0:c1]
        np.add(cost, hh[r0:r1, c0:c1], out=cost)
        for ax, stride, m, kin, shifted, reads in passes:
            # The first axis's pass moves the rows and keeps the offsets; the
            # others keep the rows and widen the offsets by m strides.
            if ax:
                c0, c1 = max(c0 - m * stride, 0), min(c1 + m * stride, row)
                sources.append((r0, c0, reads[cur][r0:r1, c0:c1 + 2 * m * stride].copy()))
                steps = kin[:, None, c0:c1]
            else:
                r0, r1 = rows_next
                sources.append((r0, c0, reads[cur][r0:r1 + 2 * m, c0:c1].copy()))
                steps = kin[:, r0:r1, None]
            out = grids[1 - cur]
            s0, s1, s2, s3 = span[1 - cur]
            out[s0:s1, s2:s3] = np.inf
            span[1 - cur] = (r0, r1, c0, c1)
            cand = block[:(2 * m + 1) * (r1 - r0) * (c1 - c0)].reshape(2 * m + 1, r1 - r0, c1 - c0)
            np.add(shifted[cur][:, r0:r1, c0:c1], steps, out=cand)
            np.minimum.reduce(cand, axis=0, out=out[r0:r1, c0:c1])
            cur = 1 - cur
        cost = grids[cur][r0:r1, c0:c1]
        np.add(cost, hh[r0:r1, c0:c1], out=cost)
        if prune and left:
            keep = cost + to_goal[r0:r1, c0:c1] / (left * dt) <= cut
            np.copyto(cost, np.inf, where=~keep)
            kept_rows = np.flatnonzero(np.any(keep, axis=1))
            if kept_rows.size:  # else the goal is unreachable: the rectangle stays, all inf
                kept_cols = np.flatnonzero(np.any(keep, axis=0))
                r0, r1 = r0 + int(kept_rows[0]), r0 + int(kept_rows[-1]) + 1
                c0, c1 = c0 + int(kept_cols[0]), c0 + int(kept_cols[-1]) + 1
    flat = int(np.ravel_multi_index(goal, shape_g))
    if not np.isfinite(grids[cur][goal[0], flat % row]):
        raise ActionError("endpoint unreachable on this grid (raise vmax or widen the box)")

    # Each node's step, pass by pass from the last: its candidates rebuilt
    # from the kept sources with the forward pass's additions, the first
    # minimum in -m..m order. A node's place in a pass's kept rectangle holds
    # the source m strides before it, so the source of the step of m - j
    # cells lies j strides further on (on the first axis, j rectangle rows).
    idx = list(goal)
    rev = [tuple(idx)]
    for t in range(t_slices - 1, -1, -1):
        for (ax, stride, m, kin, _, _), (first_row, first_col, costs) in zip(
                reversed(passes), reversed(sources[t * d:(t + 1) * d])):
            r, c = divmod(flat, row)
            width = costs.shape[1]
            step = stride if ax else width
            at = (r - first_row) * width + c - first_col
            cand = costs.reshape(-1)[at:at + 2 * m * step + 1:step][::-1]
            o = int(np.argmin(cand + kin[:, c if ax else r])) - m
            idx[ax] -= o
            flat -= o * stride
        rev.append(tuple(idx))
    rev.reverse()
    nodes = np.array([[axes[ax][i[ax]] for ax in range(d)] for i in rev])
    return Path(delta, nodes)


# ---------------------------------------------------------------------------
# Convex-constrained companion problem


@dataclass(frozen=True)
class ConstrainedResult:
    """``pg_norm`` is the engine's residual ``max|g|/dt``; ``converged`` means
    it is at most ``grad_tol``."""

    path: Path
    breakdown: ActionBreakdown
    converged: bool
    pg_norm: float


def constrained_minimize(x0, xdelta, delta: float, polytope: Polytope, psi_center,
                         shape: Shape, cfg: SolverConfig = SolverConfig()) -> ConstrainedResult:
    """Minimize the action of the smooth potential ``h(|x - psi_center|^2)``
    over paths whose nodes lie in a polytope.

    The potential is that of the one-site set ``{psi_center}``, so the
    chord start runs through :func:`minimize`'s engine and mesh stages with
    the polytope as constraint: iterates are projected onto it, and nodes
    on faces the gradient points out of are pinned like tie classes. The
    single start leaves ``cfg.starts`` and ``cfg.seed`` unused. The engine
    judges convergence, as for :func:`minimize`.
    """
    a = _as_vector(x0, polytope.dim)
    b = _as_vector(xdelta, polytope.dim)
    center = _as_vector(psi_center, polytope.dim)
    _check_number("delta", delta, 0.0)
    if not (polytope.contains(a) and polytope.contains(b)):
        raise ActionError("endpoints must lie in the constraint polytope")
    kset = PointSet(center[None, :])
    meshes = _mesh_schedule(cfg)
    engine = _Descent(kset, shape, delta, cfg, polytope)
    chord = Path.from_line(a, b, delta, meshes[0]).nodes
    _, (nodes,), _, (pg_norm,) = _descend_stages(engine, chord[None].copy(), a, b, meshes)
    path = Path(delta, nodes)
    return ConstrainedResult(path=path, breakdown=evaluate_action(path, kset, shape),
                             converged=bool(pg_norm <= cfg.grad_tol), pg_norm=float(pg_norm))
