"""Discretized action functionals over site-set distance potentials.

The functional is the time integral of ``|path'|^2 + h(slope_sq(path))``
where ``slope_sq`` is the squared extended gradient of the opposite
squared distance field of a :class:`~voract.geometry.PointSet` and ``h``
is an increasing C^1 potential shape. Paths are uniform-time node chains
with fixed endpoints; the kinetic term is the forward-difference square
sum and the potential term is the trapezoid rule on node values.

The minimizer runs multi-start preconditioned descent with mesh doubling.
The potential is discontinuous across nearest-site cell boundaries, so
nodes sitting exactly on a boundary (tie class) are treated as pinned:
their descent direction is projected onto the boundary's equidistance
directions, and dedicated release/capture trial moves (single-node move
plus a short relaxation, accepted only on strict objective decrease) let
boundary-riding segments shrink or grow across the potential jump, which
no smooth line search can cross.

One descent engine (`_Descent`) does all of this on stacks of paths.
The Newton-like direction of a whole stack is one LAPACK ``?ptsv`` solve
of a block-tridiagonal system whose coupling is zero between paths and
around fully pinned nodes (a block-coordinate view of projected Newton,
Bertsekas 1982). A start's descent is a stack of one; the candidates of
a trial-move round relax together in lockstep, one field-kernel call per
iteration and per line-search halving, in blocks of at most
``KERNEL_CHUNK_ROW_SITES // (n * sites)`` paths. Paths in a stack never
interact, so results do not depend on the block size.

A layered-graph dynamic program (`dp_oracle`) provides an independent
lower-fidelity solution used both as a solver seed and as a
cross-validation oracle. Its edge cost is separable over the axes, so
each time slice relaxes one axis at a time, ``d(2k + 1)`` shifted array
operations instead of one per offset of the ``(2k + 1)^d`` step box.
`constrained_minimize` solves the smooth convex-constrained companion
problem by projected descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded

from .geometry import (GeometryError, OptClass, PointSet, Polytope, VoractError, cell_frame,
                       _as_vector)
from .potential import KERNEL_CHUNK_ROW_SITES, batch_field

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
        if self.kind == "power" and self.p <= 0:
            raise ActionError("power shape needs p > 0")
        if self.kind == "affine" and (self.a <= 0 or self.b < 0):
            raise ActionError("affine shape needs a > 0 and b >= 0")
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
        if self.delta <= 0:
            raise ActionError("delta must be positive")
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

    def refined(self) -> "Path":
        """Mesh-doubled path: old nodes kept, midpoints linearly interpolated."""
        m = self.m_intervals
        out = np.empty((2 * m + 1, self.dim))
        out[::2] = self.nodes
        out[1::2] = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        return Path(self.delta, out)


@dataclass(frozen=True)
class ActionBreakdown:
    kinetic: float
    potential: float
    total: float
    kinetic_terms: np.ndarray = field(repr=False)
    potential_terms: np.ndarray = field(repr=False)

    @property
    def per_interval(self) -> list[tuple[float, float]]:
        return list(zip(self.kinetic_terms.tolist(), self.potential_terms.tolist()))


@dataclass(frozen=True)
class SolverConfig:
    """Minimizer knobs: final mesh, doubling stages, starts, tolerances."""

    M: int = 512
    refinements: int = 3
    starts: int = 4
    seed: int = 0
    step_init: float = 1.0
    grad_tol: float = 1e-5
    max_iters: int = 4000

    def __post_init__(self):
        if min(self.M, self.refinements + 1, self.starts, self.max_iters) <= 0:
            raise ActionError("solver config fields must be positive")
        if self.step_init <= 0:
            raise ActionError("step_init must be positive")
        if self.grad_tol < 1e-12:
            raise ActionError("grad_tol must be at least 1e-12")
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


def _breakdown(nodes: np.ndarray, dt: float, hvals: np.ndarray) -> ActionBreakdown:
    """Forward-difference kinetic terms plus trapezoid terms of the node potentials."""
    diffs = np.diff(nodes, axis=0)
    kin = np.einsum("ij,ij->i", diffs, diffs) / dt
    pot = dt * 0.5 * (hvals[:-1] + hvals[1:])
    return ActionBreakdown(
        kinetic=float(np.sum(kin)),
        potential=float(np.sum(pot)),
        total=float(np.sum(kin) + np.sum(pot)),
        kinetic_terms=kin,
        potential_terms=pot,
    )


def evaluate_action(path: Path, kset: PointSet, shape: Shape) -> ActionBreakdown:
    """Discrete action of the path: forward-difference kinetic terms plus
    trapezoid potential terms on node values."""
    if path.dim != kset.dim:
        raise ActionError("path/point-set dimension mismatch")
    _, s, _, _ = batch_field(path.nodes, kset)
    return _breakdown(path.nodes, path.dt, shape.h(s))


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


class _Descent:
    """Preconditioned descent on the interior nodes of a stack of paths.

    Every method acts on a stack ``(B, n, d)`` of independent paths that
    share one mesh; the outer descent of a start is a stack of one. The
    paths advance in lockstep: one field-kernel call per iteration
    evaluates the state of every live path, one call per line-search
    halving evaluates the paths still searching, and a path leaves the
    stack exactly when its own loop would have returned. The paths share
    only the engine's caches of cell frames and class projections, so each
    path's iterates, step sizes and iteration count are those it would
    have on its own.

    Pinned nodes (tie classes) move only along their boundary's
    equidistance directions; release/capture trial moves handle the
    discontinuous jumps. Deterministic throughout.
    """

    RELAX_ITERS = 60

    def __init__(self, kset: PointSet, shape: Shape, delta: float, cfg: SolverConfig):
        self.kset = kset
        self.shape = shape
        self.delta = delta
        self.cfg = cfg
        self._frames: dict[tuple[int, ...], np.ndarray] = {}
        self._etas: dict[tuple[int, ...], np.ndarray] = {}

    # -- objective pieces ---------------------------------------------------

    def value(self, stack: np.ndarray) -> np.ndarray:
        """Discrete action of every path of the stack, shape ``(B,)``."""
        b, n, d = stack.shape
        dt = self.delta / (n - 1)
        diffs = np.diff(stack, axis=1)
        kin = np.sum(np.einsum("bij,bij->bi", diffs, diffs), axis=1) / dt
        _, s, _, _ = batch_field(stack.reshape(-1, d), self.kset, self._etas)
        h = self.shape.h(s).reshape(b, n)
        return kin + dt * (0.5 * h[:, 0] + np.sum(h[:, 1:-1], axis=1) + 0.5 * h[:, -1])

    def _tangent(self, cls: tuple[int, ...]) -> np.ndarray:
        basis = self._frames.get(cls)
        if basis is None:
            frame = cell_frame(OptClass(cls, self.kset.points[cls[0]]), self.kset)
            basis = frame.basis_b
            self._frames[cls] = basis
        return basis

    def _project_pinned(self, arr: np.ndarray, pin_groups) -> np.ndarray:
        """Project the pinned rows of the stacked interior rows ``arr`` (N, d)
        onto their tangent spaces."""
        for cls, rows in pin_groups:
            basis = self._tangent(cls)
            if basis.shape[0]:
                arr[rows] = (arr[rows] @ basis.T) @ basis
            else:
                arr[rows] = 0.0
        return arr

    def _state(self, stack: np.ndarray):
        """Field slopes ``(B, n)``, projected interior gradients ``(B, n - 2, d)``
        and pinned groups ``(class, rows)`` of the stack.

        Pinned rows index the stacked interior rows: node ``k`` of path ``b``
        is row ``b * (n - 2) + k - 1``.
        """
        b, n, d = stack.shape
        dt = self.delta / (n - 1)
        etas, s, _, groups = batch_field(stack.reshape(-1, d), self.kset, self._etas)
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
        self._project_pinned(g.reshape(-1, d), pin_groups)
        return s, g, pin_groups, dt

    def _direction(self, g_eff: np.ndarray, pin_groups, s: np.ndarray, dt: float) -> np.ndarray:
        """Newton-like step for the whole stack: one tridiagonal solve, then
        tangent projection.

        The stacked interior rows form one symmetric positive definite
        tridiagonal system (diagonal ``4/dt + 2 dt h'``, coupling ``-2/dt``)
        that LAPACK ``?ptsv`` solves for all paths and coordinates at once.
        The coupling is zero across every path boundary, so the paths do not
        interact. Pinned rows with a nontrivial tangent stay coupled (Newton
        along boundary-riding valleys; the post-projected solve remains a
        descent direction for the projected gradient). Fully pinned rows
        (zero-dimensional tangent) cannot move at all and are decoupled, so
        their free neighbors see them as Dirichlet data.
        """
        b, n_int, d = g_eff.shape
        band = np.empty((2, b * n_int))
        band[0] = (4.0 / dt + 2.0 * dt * np.maximum(self.shape.h_prime(s[:, 1:-1]), 0.0)
                   + 1e-12).ravel()
        band[1] = -2.0 / dt
        band[1, n_int - 1::n_int] = 0.0
        fixed = [rows for cls, rows in pin_groups if self._tangent(cls).shape[0] == 0]
        if fixed:
            idx = np.concatenate(fixed)
            band[1, idx] = 0.0
            band[1, idx[idx > 0] - 1] = 0.0
        step = solveh_banded(band, g_eff.reshape(-1, d), lower=True, check_finite=False)
        return self._project_pinned(step, pin_groups).reshape(b, n_int, d)

    # -- main loop ------------------------------------------------------------

    def solve(self, stack: np.ndarray, max_iters: int, allow_moves: bool = True):
        """Descend every path of the stack in lockstep.

        Returns ``(nodes, values, converged, grad_norm)``, one entry per
        path. A path stops when its gradient meets ``grad_tol``, when its
        line search fails, or after ``max_iters`` iterations; with
        ``allow_moves`` it first tries release/capture moves and continues
        if one is accepted.
        """
        stack = stack.copy()
        f = self.value(stack)
        alpha = np.full(stack.shape[0], self.cfg.step_init)
        grad_norm = np.full(stack.shape[0], np.inf)
        tol = self.cfg.grad_tol
        live = np.arange(stack.shape[0])
        for _ in range(max_iters):
            if not live.size:
                break
            s, g_eff, pin_groups, dt = self._state(stack[live])
            grad_norm[live] = np.max(np.linalg.norm(g_eff, axis=2), axis=1, initial=0.0)
            small = grad_norm[live] <= tol
            keep = np.ones(live.size, dtype=bool)
            for j in np.flatnonzero(small):
                keep[j] = allow_moves and self._move(stack, f, live[j])
            search = np.flatnonzero(~small)
            direction = self._direction(g_eff, pin_groups, s, dt)[search]
            g_eff = g_eff[search]
            slope = np.sum(g_eff * direction, axis=(1, 2))
            flat = slope <= 0
            direction[flat] = g_eff[flat]
            slope[flat] = np.sum(g_eff[flat] * g_eff[flat], axis=(1, 2))
            step = alpha[live[search]]
            for _ in range(45):
                if not search.size:
                    break
                paths = live[search]
                trial = stack[paths]
                trial[:, 1:-1] -= step[:, None, None] * direction
                f_trial = self.value(trial)
                ok = f_trial <= f[paths] - 1e-4 * step * slope
                stack[paths[ok]], f[paths[ok]] = trial[ok], f_trial[ok]
                alpha[paths[ok]] = np.minimum(step[ok] * 1.6, 16.0)
                search, step, slope = search[~ok], step[~ok] * 0.5, slope[~ok]
                direction = direction[~ok]
            for j in search:
                keep[j] = allow_moves and self._move(stack, f, live[j])
                if keep[j]:
                    alpha[live[j]] = self.cfg.step_init
            live = live[keep]
        return stack, f, grad_norm <= tol, grad_norm

    # -- release / capture ------------------------------------------------------

    def _move(self, stack: np.ndarray, f: np.ndarray, b: int) -> bool:
        """Run trial moves on path ``b`` in place; true if one was accepted."""
        moved, stack[b], f[b] = self._trial_moves(stack[b], f[b])
        return moved

    def _trial_moves(self, nodes, f0):
        """Try boundary release/capture moves; keep the best strict improvement.

        Each candidate moves one node across the potential jump and then
        relaxes for up to ``RELAX_ITERS`` iterations with moves disabled.
        All candidates of a round relax together as one lockstep stack, in
        blocks of at most ``KERNEL_CHUNK_ROW_SITES // (n * sites)`` paths
        (at least one) to bound the kernel's distance matrix. The paths of a
        stack do not interact, so the block size never changes a result.
        The best strict improvement wins, ties going to the earlier
        candidate; the loop is monotone in the objective by construction.
        """
        n_total = nodes.shape[0]
        block = max(1, KERNEL_CHUNK_ROW_SITES // (n_total * self.kset.n))
        moved_any = False
        for _ in range(64):
            _, _, tie_mask, groups = batch_field(nodes, self.kset, self._etas)
            tie_classes = {int(r): cls for cls, rows in groups if len(cls) >= 2 for r in rows}
            candidates = []
            for k in range(1, n_total - 1):
                for nb in (k - 1, k + 1):
                    if tie_mask[k] and not tie_mask[nb]:
                        # Release: slide the boundary node toward the free side.
                        base = nodes[k]
                        target = nodes[nb]
                        for w in (0.5, 1.0):
                            candidates.append((k, base + w * (target - base)))
                    elif not tie_mask[k] and tie_mask[nb]:
                        # Capture: project the free node onto the neighbor's boundary plane.
                        cls = tie_classes[nb]
                        try:
                            frame = cell_frame(OptClass(cls, nodes[nb]), self.kset)
                        except GeometryError:
                            continue
                        rel = nodes[k] - frame.p_h
                        proj = frame.p_h + (frame.basis_b.T @ (frame.basis_b @ rel)
                                            if frame.basis_b.shape[0] else 0.0)
                        candidates.append((k, proj))
            if not candidates:
                return moved_any, nodes, f0
            best = None
            threshold = f0 - 1e-12 * (1.0 + abs(f0))
            for lo in range(0, len(candidates), block):
                chunk = candidates[lo:lo + block]
                trials = np.repeat(nodes[None], len(chunk), axis=0)
                for j, (k, pos) in enumerate(chunk):
                    trials[j, k] = pos
                relaxed, values, _, _ = self.solve(trials, self.RELAX_ITERS, allow_moves=False)
                for f_trial, path in zip(values, relaxed):
                    if f_trial < threshold and (best is None or f_trial < best[0]):
                        best = (f_trial, path)
            if best is None:
                return moved_any, nodes, f0
            f0, nodes = best
            moved_any = True
        return moved_any, nodes, f0


# ---------------------------------------------------------------------------
# Multi-start minimization with mesh refinement


def _interp_to_mesh(path_nodes: np.ndarray, delta: float, m_target: int) -> np.ndarray:
    t_src = np.linspace(0.0, delta, path_nodes.shape[0])
    t_dst = np.linspace(0.0, delta, m_target + 1)
    out = np.empty((m_target + 1, path_nodes.shape[1]))
    for j in range(path_nodes.shape[1]):
        out[:, j] = np.interp(t_dst, t_src, path_nodes[:, j])
    return out


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
    points_per_axis = {1: 481, 2: 61, 3: 25}[d]
    res = float(np.max(hi - lo)) / (points_per_axis - 1)
    snap = []
    for ax in range(d):
        vals = [a[ax], b[ax]]
        vals.extend(kset.points[:, ax].tolist())
        if kset.n <= 60:
            pts = kset.points[:, ax]
            vals.extend((0.5 * (pts[:, None] + pts[None, :])).ravel().tolist())
        snap.append(tuple(sorted(set(float(np.round(v, 12)) for v in vals))))
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
    m0 = max(cfg.M >> cfg.refinements, 4)
    meshes = [m0 * (1 << i) for i in range(cfg.refinements + 1)]
    if meshes[-1] != cfg.M:
        meshes = sorted(set(meshes + [cfg.M]))
    return meshes


def minimize(x0, xdelta, delta: float, kset: PointSet, shape: Shape,
             cfg: SolverConfig = SolverConfig()) -> MinimizeResult:
    """Multi-start minimization of the discrete action with mesh doubling.

    Starts: the straight chord, a DP-oracle seed (dimension <= 3), and
    seeded smooth Gaussian perturbations of the chord. Every start is
    descended through all refinement stages; the result is the best final
    minimizer ordered by (action, start index). Deterministic for a fixed
    seed. If no start meets the gradient tolerance the best iterate is
    returned flagged non-converged.
    """
    a = _as_vector(x0, kset.dim)
    b = _as_vector(xdelta, kset.dim)
    if delta <= 0:
        raise ActionError("delta must be positive")
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
    results = []
    actions = []
    for label, nodes in starts:
        prev_nodes = None
        converged = False
        gnorm = np.inf
        for mi, m in enumerate(meshes):
            if nodes.shape[0] != m + 1:
                nodes = _interp_to_mesh(nodes, delta, m)
            nodes[0], nodes[-1] = a, b
            out, values, conv, gnorms = engine.solve(nodes[None], cfg.max_iters)
            nodes, action = out[0], float(values[0])
            converged, gnorm = bool(conv[0]), float(gnorms[0])
            if mi == len(meshes) - 2:
                prev_nodes = nodes.copy()
        if prev_nodes is None:
            prev_nodes = nodes.copy()
        results.append((label, nodes, prev_nodes, converged, gnorm))
        actions.append(action)

    order = sorted(range(len(results)), key=lambda i: (actions[i], i))
    best = order[0]
    label, nodes, prev_nodes, converged, gnorm = results[best]
    best_path = Path(delta, nodes)
    prev_path = Path(delta, prev_nodes)
    summaries = []
    for i, (lab, nds, _, conv, _) in enumerate(results):
        dev = float(np.max(np.linalg.norm(_interp_to_mesh(nds, delta, meshes[-1]) - nodes, axis=1)))
        summaries.append(StartSummary(label=lab, action=actions[i], converged=conv, dev_from_best=dev))
    return MinimizeResult(
        path=best_path,
        breakdown=evaluate_action(best_path, kset, shape),
        converged=converged,
        grad_norm=gnorm,
        starts=tuple(summaries),
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
        if np.any(hi <= lo):
            raise ActionError("grid box must have positive extent")
        if self.resolution <= 0 or self.time_slices < 2:
            raise ActionError("invalid grid resolution or time slicing")
        if self.vmax is not None and not (np.isfinite(self.vmax) and self.vmax > 0):
            raise ActionError("vmax must be finite and positive")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


NODE_BUDGET = 10_000_000
EDGE_BUDGET = 400_000_000


def _axis_coords(lo: float, hi: float, res: float, snap) -> np.ndarray:
    n = max(int(round((hi - lo) / res)) + 1, 2)
    coords = np.linspace(lo, hi, n)
    if snap:
        for s in snap:
            if lo <= s <= hi:
                coords[int(np.argmin(np.abs(coords - s)))] = s
    return np.unique(coords)


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
    """
    d = kset.dim
    if d > 3:
        raise ActionError("dp_oracle supports dimension <= 3")
    a = _as_vector(x0, d)
    b = _as_vector(xdelta, d)
    if delta <= 0:
        raise ActionError("delta must be positive")
    if grid_spec.lo.shape[0] != d or (grid_spec.snap_axes is not None
                                      and len(grid_spec.snap_axes) != d):
        raise ActionError(f"grid dimension {grid_spec.lo.shape[0]} does not match "
                          f"the point set's dimension {d}")
    t_slices = grid_spec.time_slices
    dt = delta / t_slices

    snap_axes = grid_spec.snap_axes or tuple(() for _ in range(d))
    axes = []
    for ax in range(d):
        snap = tuple(snap_axes[ax]) + (float(a[ax]), float(b[ax]))
        axes.append(_axis_coords(float(grid_spec.lo[ax]), float(grid_spec.hi[ax]),
                                 grid_spec.resolution, snap))
    shape_g = tuple(len(c) for c in axes)
    g_total = int(np.prod(shape_g))
    if g_total * (t_slices + 1) > NODE_BUDGET:
        raise GridBudgetError(f"{g_total} grid points x {t_slices + 1} slices exceeds the budget")

    if grid_spec.vmax is None:
        vmax = 4.0 * max(1.0, float(np.linalg.norm(b - a)) / delta)
    else:
        vmax = grid_spec.vmax
    k_off = max(1, int(np.ceil(vmax * dt / grid_spec.resolution)))
    if g_total * t_slices * (2 * k_off + 1) ** d > EDGE_BUDGET:
        raise GridBudgetError("edge relaxation budget exceeded; coarsen the grid")
    if np.any(np.minimum(a, b) < grid_spec.lo) or np.any(np.maximum(a, b) > grid_spec.hi):
        raise ActionError("endpoints must lie in the grid box")

    mesh = np.meshgrid(*axes, indexing="ij")
    grid_pts = np.stack([m.ravel() for m in mesh], axis=1)
    _, s, _, _ = batch_field(grid_pts, kset)
    hh = 0.5 * dt * shape.h(s).reshape(shape_g)

    start = tuple(int(np.argmin(np.abs(axes[ax] - a[ax]))) for ax in range(d))
    goal = tuple(int(np.argmin(np.abs(axes[ax] - b[ax]))) for ax in range(d))

    # Per axis, the steps -k..k (clamped to the axis length: longer steps
    # reach nothing) as (step index, source slices, target slices, kinetic
    # term shaped to broadcast along the axis).
    passes = []
    for ax in reversed(range(d)):
        n = shape_g[ax]
        k_ax = min(k_off, n - 1)
        steps = []
        for o in range(-k_ax, k_ax + 1):
            src = [slice(None)] * d
            dst = [slice(None)] * d
            src[ax] = slice(max(0, -o), n - max(0, o))
            dst[ax] = slice(max(0, o), n - max(0, -o))
            kin = (axes[ax][dst[ax]] - axes[ax][src[ax]]) ** 2 / dt
            kin = kin.reshape([-1 if i == ax else 1 for i in range(d)])
            steps.append((o + k_off, tuple(src), tuple(dst), kin))
        passes.append((ax, steps))

    cost = np.full(shape_g, np.inf)
    cost[start] = 0.0
    parents = np.zeros((t_slices, d) + shape_g, dtype=np.min_scalar_type(2 * k_off))
    cur = np.empty(shape_g)
    new = np.empty(shape_g)
    cand = np.empty(shape_g)
    better = np.empty(shape_g, dtype=bool)
    for t in range(t_slices):
        np.add(cost, hh, out=cur)
        for ax, steps in passes:
            new.fill(np.inf)
            parent = parents[t, ax]
            for oid, src, dst, kin in steps:
                np.add(cur[src], kin, out=cand[dst])
                np.less(cand[dst], new[dst], out=better[dst])
                np.copyto(new[dst], cand[dst], where=better[dst])
                np.copyto(parent[dst], oid, where=better[dst])
            cur, new = new, cur
        np.add(cur, hh, out=cost)
    if not np.isfinite(cost[goal]):
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
    path: Path
    breakdown: ActionBreakdown
    converged: bool
    pg_norm: float


def constrained_minimize(x0, xdelta, delta: float, polytope: Polytope, psi_center,
                         shape: Shape, cfg: SolverConfig = SolverConfig()) -> ConstrainedResult:
    """Projected descent for the smooth potential ``h(|x - psi_center|^2)``
    constrained to a polytope.

    Every accepted step projects all interior nodes back onto the
    polytope; convergence is measured by the gradient mapping at a fixed
    dt/4 step (max nodal norm <= grad_tol).
    """
    a = _as_vector(x0, polytope.dim)
    b = _as_vector(xdelta, polytope.dim)
    center = _as_vector(psi_center, polytope.dim)
    if not (polytope.contains(a) and polytope.contains(b)):
        raise ActionError("endpoints must lie in the constraint polytope")

    def psi_and_grad(nodes):
        rel = nodes - center[None, :]
        s = np.einsum("ij,ij->i", rel, rel)
        return shape.h(s), 2.0 * shape.h_prime(s)[:, None] * rel, s

    def value(nodes, dt):
        diffs = np.diff(nodes, axis=0)
        kin = float(np.sum(np.einsum("ij,ij->i", diffs, diffs))) / dt
        h, _, _ = psi_and_grad(nodes)
        return kin + dt * (0.5 * h[0] + float(np.sum(h[1:-1])) + 0.5 * h[-1]), kin

    meshes = _mesh_schedule(cfg)
    nodes = Path.from_line(a, b, delta, meshes[0]).nodes.copy()
    nodes[1:-1] = polytope.project(nodes[1:-1], tol=1e-10)

    converged = False
    pg_norm = np.inf
    for m in meshes:
        if nodes.shape[0] != m + 1:
            nodes = _interp_to_mesh(nodes, delta, m)
            nodes[1:-1] = polytope.project(nodes[1:-1], tol=1e-10)
        nodes[0], nodes[-1] = a, b
        dt = delta / m
        alpha = cfg.step_init
        f0, _ = value(nodes, dt)
        for _ in range(cfg.max_iters):
            h, gpsi, s = psi_and_grad(nodes)
            g = (2.0 * (2.0 * nodes[1:-1] - nodes[:-2] - nodes[2:]) / dt
                 + dt * gpsi[1:-1])
            ref = 0.25 * dt
            mapped = nodes[1:-1] - polytope.project(nodes[1:-1] - ref * g, tol=1e-10)
            pg_norm = float(np.max(np.linalg.norm(mapped, axis=1), initial=0.0)) / ref
            if pg_norm <= cfg.grad_tol:
                converged = True
                break
            diag = 4.0 / dt + 2.0 * dt * np.maximum(shape.h_prime(s[1:-1]), 0.0)
            direction = g / diag[:, None]
            accepted = False
            aa = alpha
            for _ in range(45):
                trial = nodes.copy()
                trial[1:-1] = polytope.project(nodes[1:-1] - aa * direction, tol=1e-10)
                f_trial, _ = value(trial, dt)
                step_sq = float(np.sum((trial[1:-1] - nodes[1:-1]) ** 2))
                if f_trial <= f0 - 1e-4 * step_sq / max(aa, 1e-30):
                    nodes, f0 = trial, f_trial
                    alpha = min(aa * 1.6, 16.0)
                    accepted = True
                    break
                aa *= 0.5
            if not accepted:
                converged = pg_norm <= cfg.grad_tol
                break

    path = Path(delta, nodes)
    h, _, _ = psi_and_grad(nodes)
    breakdown = _breakdown(nodes, path.dt, h)
    return ConstrainedResult(path=path, breakdown=breakdown, converged=converged, pg_norm=pg_norm)
