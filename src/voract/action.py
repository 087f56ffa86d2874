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
across the jump plus a relaxation; each start's best strict objective
decrease wins) and adopt each round's relaxed winners as they are, until a
start's round finds no improvement (at most 64 rounds). Every path is
descended exactly once, and a start whose nodes equal an earlier start's
bit for bit after a stage is not descended again.

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
on the one contiguous range of rows that can still reach the goal.
`constrained_minimize` runs the same engine on the convex-constrained
companion problem, with nodes on active polytope faces pinned like ties.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded
from scipy.optimize import nnls

from .geometry import GeometryError, PointSet, Polytope, VoractError, _as_vector, class_frame
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
    bool) ``> low``, or ``>= low`` if ``closed``; an integer if ``integer``."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (integer or np.isfinite(value)) or value < low or (value == low and not closed)):
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
    prev_breakdown: ActionBreakdown


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


class _Descent:
    """Newton descent on the interior nodes of a stack of paths.

    :meth:`solve` only descends: the paths of a stack ``(B, n, d)`` share
    one mesh and advance in lockstep, one field-kernel call per iteration
    for every live path and one per line-search halving for the paths
    still searching. A path leaves on its first iteration without a step.
    Class frames and zone values are pure functions of the class, memoized
    on the point set, and no row's rounding depends on the other rows of a
    call, so each path's iterates are those it would have alone.
    :meth:`descend` is the only loop over release/capture rounds: it
    descends a mesh stage's stack once, then each path adopts its round's
    relaxed winner from :meth:`_trial_moves` without descending it again.

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

    # -- objective pieces ---------------------------------------------------

    def value(self, stack: np.ndarray) -> np.ndarray:
        """Discrete action of every path of the stack, shape ``(B,)``."""
        _, s, _, _ = batch_field(stack.reshape(-1, stack.shape[2]), self.kset)
        return np.add(*_action_terms(stack, s, self.delta, self.shape))

    def _tangent(self, key: tuple) -> np.ndarray:
        """Moves of a pinned group: a tie class's equidistance directions, or
        the null space of the faces of a ``("faces", i, ...)`` key."""
        if key[0] != "faces":
            return class_frame(key, self.kset).basis_b
        basis = self._faces.get(key)
        if basis is None:
            _, sing, vt = np.linalg.svd(self.polytope.normals[list(key[1:])], full_matrices=True)
            basis = self._faces[key] = vt[int(np.sum(sing > 1e-10 * sing[0])):]
        return basis

    def _state(self, stack: np.ndarray):
        """Field slopes ``(B, n)``, projected interior gradients ``(B, n - 2, d)``
        and pinned groups ``(key, rows)`` of the stack.

        Pinned rows index the stacked interior rows: node ``k`` of path ``b``
        is row ``b * (n - 2) + k - 1``. With a polytope the groups also hold
        the rows pinned to polytope faces (:meth:`_face_groups`).
        """
        b, n, d = stack.shape
        dt = self.delta / (n - 1)
        etas, s, _, groups = batch_field(stack.reshape(-1, d), self.kset)
        s = s.reshape(b, n)
        g = _interior_gradient(stack, etas.reshape(b, n, d), s, dt, self.shape)
        pin_groups = []
        for cls, rows in groups:
            if len(cls) < 2:
                continue
            k = rows % n
            rows = rows[(k >= 1) & (k <= n - 2)]
            if rows.size:
                pin_groups.append((cls, rows - 2 * (rows // n) - 1))
        flat = g.reshape(-1, d)
        if self.polytope is not None:
            pin_groups += self._face_groups(stack[:, 1:-1].reshape(-1, d), flat)
        for key, rows in pin_groups:
            basis = self._tangent(key)
            # Row by row: a BLAS product would round a row by its place in the call.
            coef = np.sum(flat[rows][:, None] * basis, axis=2)
            flat[rows] = np.sum(coef[:, :, None] * basis, axis=1)
        return s, g, pin_groups, dt

    def _face_groups(self, inner: np.ndarray, g: np.ndarray) -> list:
        """Groups ``(("faces", i, ...), rows)`` of the stacked interior rows
        ``inner`` pinned to polytope faces, given their gradients ``g``.

        A row is pinned to the faces it lies on (``n_i·x >= b_i - FACE_EPS``)
        that carry a positive multiplier in the projection of ``-g`` onto
        their tangent cone: the active set of projected Newton (Bertsekas
        1982). On one face that means ``n_i·g < 0``; on several, the
        multipliers are a nonnegative least-squares fit of ``-g`` by the
        normals, since ``-g`` can leave an obtuse corner through two faces
        and still slide along one.
        """
        normals = self.polytope.normals
        on = inner @ normals.T >= self.polytope.offsets - FACE_EPS
        active = on & (g @ normals.T < 0.0)
        for r in np.flatnonzero(np.sum(on, axis=1) >= 2):
            faces = np.flatnonzero(on[r])
            active[r, faces] = nnls(normals[faces].T, -g[r])[0] > 0.0
        rows = np.flatnonzero(np.any(active, axis=1))
        return [(("faces", *np.flatnonzero(active[grp[0]]).tolist()), grp)
                for grp in _split_by_bits(rows, np.packbits(active[rows], axis=1))]

    def _direction(self, g_eff: np.ndarray, pin_groups, s: np.ndarray, dt: float) -> np.ndarray:
        """Newton step of the pinned problem for the whole stack, ``Z (Z^T H Z)^-1 Z^T g``.

        ``H`` is block-tridiagonal (diagonal ``D_r = 4/dt + 2 dt h'``, coupling
        ``-2/dt``, zero across path boundaries) and ``Z`` holds each row's
        tangent basis ``B``, the identity on free rows: the null-space method
        (Nocedal & Wright, ch. 16). In projector form, ``P_r = B^T B``, the step
        solves the SPD system ``P H P + I - P`` (diagonal blocks
        ``D_r P_r + I - P_r``, coupling ``-2/dt P_{r+1} P_r``), whose solution
        lies in the tangent spaces: one ``solveh_banded`` call, ``2d`` band
        rows. Rows with infinite ``h'`` (power p < 1 on its own site) get
        ``P = 0`` and a zero step.
        """
        b, n_int, d = g_eff.shape
        size = b * n_int
        hp = self.shape.h_prime(s[:, 1:-1]).ravel()
        frozen = np.isinf(hp)
        diag = 4.0 / dt + 2.0 * dt * np.maximum(np.where(frozen, 0.0, hp), 0.0) + 1e-12
        proj = np.tile(np.eye(d), (size, 1, 1))
        for key, rows in pin_groups:
            basis = self._tangent(key)
            proj[rows] = basis.T @ basis
        proj[frozen] = 0.0
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

        Returns ``(nodes, values, converged, grad_norm, stopped)``, one entry
        per path. ``grad_norm`` is the residual of the returned nodes, their
        largest pinned, face-projected gradient over dt (the discrete
        Euler-Lagrange residual), and ``converged`` means it is at most
        ``grad_tol``: the package's one convergence test. A path leaves on the
        first iteration that takes no step: its residual meets ``grad_tol`` or
        is not finite, or its line search fails. ``stopped`` is false for the
        paths still stepping after ``cfg.max_iters`` steps.
        """
        stack = self._feasible(stack.copy())
        f = self.value(stack)
        alpha = np.ones(stack.shape[0])  # first trial: the unit Newton step
        grad_norm = np.full(stack.shape[0], np.inf)
        tol = self.cfg.grad_tol
        live = np.arange(stack.shape[0])
        for it in range(self.cfg.max_iters + 1):
            if not live.size:
                break
            s, g_eff, pin_groups, dt = self._state(stack[live])
            grad_norm[live] = np.max(np.linalg.norm(g_eff, axis=2), axis=1, initial=0.0) / dt
            if it == self.cfg.max_iters:
                break
            search = np.flatnonzero(np.isfinite(grad_norm[live]) & (grad_norm[live] > tol))
            stepped = np.zeros(live.size, dtype=bool)
            direction = (self._direction(g_eff, pin_groups, s, dt) if search.size else g_eff)[search]
            slope = np.sum(g_eff[search] * direction, axis=(1, 2))
            step = alpha[live[search]]
            for _ in range(45):
                if not search.size:
                    break
                paths = live[search]
                trial = stack[paths]
                trial[:, 1:-1] -= step[:, None, None] * direction
                f_trial = self.value(self._feasible(trial))
                ok = (f_trial <= f[paths] - 1e-4 * step * slope) & (slope > 0.0)
                stack[paths[ok]], f[paths[ok]] = trial[ok], f_trial[ok]
                alpha[paths[ok]] = np.minimum(step[ok] * 1.6, 16.0)
                stepped[search[ok]] = True
                search, step, slope = search[~ok], step[~ok] * 0.5, slope[~ok]
                direction = direction[~ok]
            live = live[stepped]
        return stack, f, grad_norm <= tol, grad_norm, ~np.isin(np.arange(f.size), live)

    def descend(self, stack: np.ndarray):
        """Descend a stack of paths once, then run at most 64 lockstep rounds
        of release/capture moves; each path in the loop adopts its round's
        relaxed winner as it is. A path leaves where it would leave alone:
        no winner, or its descent or its winner's relaxation ran out of
        iterations. Returns one ``(nodes, value, converged, grad_norm)`` per
        path, the last as :meth:`solve` measured them on those nodes; each
        path's objective decreases strictly from round to round.
        """
        nodes, value, conv, gnorm, stopped = self.solve(stack)
        live = np.flatnonzero(stopped)
        for _ in range(64):
            if not live.size:
                break
            winners = self._trial_moves(nodes[live], value[live])
            for j, best in zip(live, winners):
                if best is not None:
                    nodes[j], value[j], conv[j], gnorm[j], stopped[j] = best
            live = live[[best is not None and bool(best[4]) for best in winners]]
        return list(zip(nodes, value.tolist(), conv.tolist(), gnorm.tolist()))

    # -- release / capture ------------------------------------------------------

    def _trial_moves(self, stack: np.ndarray, f0: np.ndarray):
        """One round of release/capture moves for the stack ``(B, n, d)`` with
        values ``f0``: per path, the :meth:`solve` entry of its best relaxed
        candidate that beats its ``f0`` by over 1e-12 relative, ties to the
        earlier one, or None.

        Each candidate moves one node across the potential jump. All paths'
        candidates relax together in one :meth:`solve`.
        """
        n_paths, n_total, d = stack.shape
        _, _, tie_mask, groups = batch_field(stack.reshape(-1, d), self.kset)
        tie_mask = tie_mask.reshape(n_paths, n_total)
        tie_classes = {int(r): cls for cls, rows in groups if len(cls) >= 2 for r in rows}
        candidates = []
        for i, (nodes, ties) in enumerate(zip(stack, tie_mask)):
            for k in range(1, n_total - 1):
                for nb in (k - 1, k + 1):
                    if ties[k] and not ties[nb]:
                        # Release: slide the boundary node toward the free side.
                        candidates += [(i, k, nodes[k] + w * (nodes[nb] - nodes[k]))
                                       for w in (0.5, 1.0)]
                    elif not ties[k] and ties[nb]:
                        # Capture: project the free node onto the neighbor's boundary plane.
                        try:
                            frame = class_frame(tie_classes[i * n_total + nb], self.kset)
                        except GeometryError:
                            continue
                        rel = nodes[k] - frame.p_h
                        proj = frame.p_h + frame.basis_b.T @ (frame.basis_b @ rel)
                        candidates.append((i, k, proj))
        best = [None] * n_paths
        if not candidates:
            return best
        trials = stack[[i for i, _, _ in candidates]]
        for j, (_, k, pos) in enumerate(candidates):
            trials[j, k] = pos
        relaxed = self.solve(trials)
        threshold = f0 - 1e-12 * (1.0 + np.abs(f0))
        for j, (i, _, _) in enumerate(candidates):
            f_trial = relaxed[1][j]
            if f_trial < threshold[i] and (best[i] is None or f_trial < best[i][1]):
                best[i] = tuple(entry[j] for entry in relaxed)
        return best


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
    start's (``np.array_equal``) takes that start's entries, which its own
    descent would repeat, instead of being descended. Returns the stack
    after each stage and the last stage's entries, one per start."""
    stages = []
    for m in meshes:
        if stack.shape[1] != m + 1:
            stack = np.array([_interp_to_mesh(nodes, engine.delta, m) for nodes in stack])
        stack[:, 0], stack[:, -1] = a, b
        first = [next(i for i in range(j + 1) if np.array_equal(stack[i], stack[j]))
                 for j in range(len(stack))]
        own = sorted(set(first))
        descended = dict(zip(own, engine.descend(stack[own])))
        entries = [descended[i] for i in first]
        stack = np.array([entry[0] for entry in entries])
        stages.append(stack)
    return stages, entries


def minimize(x0, xdelta, delta: float, kset: PointSet, shape: Shape,
             cfg: SolverConfig = SolverConfig()) -> MinimizeResult:
    """Multi-start minimization of the discrete action with mesh doubling.

    Starts: the straight chord, a DP-oracle seed (dimension <= 3), and
    seeded smooth Gaussian perturbations of the chord. The starts descend
    through the refinement stages as one stack per stage; a start that
    equals an earlier one bit for bit shares its later stages and keeps its
    own label in ``starts``. The result is the best final minimizer ordered
    by (action, start index). Deterministic for a fixed seed. ``converged``
    and ``grad_norm`` are the engine's verdict and residual for that start;
    if it misses ``grad_tol`` the best iterate is returned flagged so.
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
    stages, entries = _descend_stages(engine, np.array([st for _, st in starts]), a, b, meshes)
    best = min(range(len(starts)), key=lambda j: entries[j][1])
    best_path = Path(delta, stages[-1][best])
    prev_path = Path(delta, stages[max(len(stages) - 2, 0)][best])
    summaries = tuple(
        StartSummary(label=lab, action=act, converged=conv,
                     dev_from_best=float(np.max(np.linalg.norm(st - stages[-1][best], axis=1))))
        for (lab, _), st, (_, act, conv, _) in zip(starts, stages[-1], entries))
    return MinimizeResult(
        path=best_path,
        breakdown=evaluate_action(best_path, kset, shape),
        converged=entries[best][2],
        grad_norm=entries[best][3],
        starts=summaries,
        prev_path=prev_path,
        prev_breakdown=evaluate_action(prev_path, kset, shape),
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
    that of relaxing every offset of the box, at ``d(2k + 1)`` shifted
    array operations per slice instead of ``(2k + 1)^d``.

    The passes run from the last axis to the first. Each pass records its
    step index (``0..2k`` for ``-k..k``) in a parent array of shape
    ``(time_slices, d) + grid`` of the smallest unsigned dtype that holds
    ``2k``; within a pass ties go to the first step in ``-k..k`` order, so
    exact ties resolve to the lexicographically smallest offset, first axis
    first. The backtrack undoes the passes in reverse, first axis first.

    Each pass runs on one contiguous range of the C-ordered grid: a step of
    ``o`` cells along an axis is a flat shift by ``o`` times the axis's
    stride, and a target whose source would leave the axis gets an infinite
    kinetic term. Only first-axis rows within ``t*k`` of the start row and
    ``(T - t)*k`` of the goal row are relaxed at slice ``t`` (the passes
    before the first axis's keep the source row); every other cell stays
    infinite. A row outside that window either holds an infinite cost or
    cannot reach the goal, so it feeds no cell of a later window: the
    relaxed cells get the same costs in the same order of steps, and the
    optimum, its ties and the returned path are those of relaxing the whole
    grid.
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


# ---------------------------------------------------------------------------
# Convex-constrained companion problem


@dataclass(frozen=True)
class ConstrainedResult:
    """``converged``, ``pg_norm``: the engine's verdict and residual ``max|g|/dt``."""

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
    nodes, _, converged, pg_norm = _descend_stages(engine, chord[None].copy(), a, b, meshes)[1][0]
    path = Path(delta, nodes)
    return ConstrainedResult(path=path, breakdown=evaluate_action(path, kset, shape),
                             converged=bool(converged), pg_norm=float(pg_norm))
