"""Discrete gravitational model driven by optimal assignment distance.

``m`` equal particles live on the n-torus; a configuration is lifted to
R^(n*m) and its potential is the squared distance to the union of the m!
permuted copies of the base-point lattice, truncated to integer
translates with max-norm at most a window ``W``. Trajectories are local
minimizers of the action functional from :mod:`voract.action` over that
site set; particle collisions show up as boundary (tie-class) riding and
shocks of the lifted path.

`window_certificate` checks that the truncation is inert: no nearest-site
class along a path touches a translate on the window shell, so enlarging
the window cannot change any class. `stability_run` solves a sequence of
site sets/endpoints for convergence inspection of minimal actions.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .action import MinimizeResult, Shape, SolverConfig, Path, minimize
from .geometry import PointSet, VoractError, _as_vector
from .potential import _pair_probes, _uniform_probes, _witness, _zones, batch_field

__all__ = [
    "MagError",
    "MagSystem",
    "build_mag",
    "default_window",
    "window_certificate",
    "particle_paths",
    "stability_run",
    "interior_balance_verdict",
]

SITE_BUDGET = 1_000_000
MAX_PARTICLES = 5


class MagError(VoractError):
    """Invalid model construction or budget overflow."""


@dataclass(frozen=True)
class MagSystem:
    """Truncated permutation-lattice site set for m particles on the n-torus.

    ``kset`` holds exactly the points (a_{sigma(1)}, ..., a_{sigma(m)}) + z
    over all permutations sigma and integer translates z with
    ``max|z| <= window``: with T = (2*window + 1)^(n*m), row r is sigma of
    rank ``r // T`` in ``itertools.permutations`` order and z + window the
    base-(2*window + 1) digits of ``r % T``, most significant first.
    ``translate_sups`` holds each row's ``max|z|``, read-only.
    """

    n: int
    m: int
    base_points: np.ndarray
    window: int
    kset: PointSet
    translate_sups: np.ndarray

    def __post_init__(self):
        sups = np.array(self.translate_sups)
        if sups.shape != (self.kset.n,) or sups.dtype.kind not in "iu":
            raise MagError(f"translate_sups must be one integer per site ({self.kset.n}), "
                           f"got {sups.dtype} of shape {sups.shape}")
        for name, arr in (("base_points", np.array(self.base_points, dtype=float)),
                          ("translate_sups", sups)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.n * self.m


def build_mag(base_points, n: int, m: int, window: int, tie_tolerance: float = 1e-9) -> MagSystem:
    """Enumerate the truncated permutation lattice and validate it.

    ``base_points`` are m distinct points in [0,1)^n. Budgets: m <= 5 and
    at most 10^6 sites. ``tie_tolerance`` is the site set's (`PointSet`).
    """
    for name, value in (("n", n), ("m", m), ("window", window)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise MagError(f"{name} must be an integer, got {value!r}")
    base = np.atleast_2d(np.asarray(base_points, dtype=float))
    if base.shape != (m, n):
        raise MagError(f"expected {m} base points of dimension {n}, got shape {base.shape}")
    if np.any(base < 0.0) or np.any(base >= 1.0):
        raise MagError("base points must lie in [0, 1)^n")
    if m > MAX_PARTICLES:
        raise MagError(f"particle count capped at {MAX_PARTICLES} (factorial growth)")
    if window < 1:
        raise MagError("window must be at least 1")
    # Two sites differ by at least the torus distance of two base points.
    diff = base[:, None] - base[None, :]
    if np.any(np.linalg.norm(diff - np.round(diff), axis=2)[np.triu_indices(m, 1)] < 1e-9):
        raise MagError("base points are not distinct on the torus")
    count = math.factorial(m) * (2 * window + 1) ** (n * m)
    if count > SITE_BUDGET:
        raise MagError(f"site budget exceeded: {count} > {SITE_BUDGET}")

    perms = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    translates = np.array(list(itertools.product(range(-window, window + 1), repeat=n * m)))
    sites = base[perms].reshape(len(perms), 1, n * m) + translates
    return MagSystem(
        n=n, m=m, base_points=base, window=window,
        kset=PointSet(sites.reshape(-1, n * m), tie_tolerance=tie_tolerance),
        translate_sups=np.tile(np.max(np.abs(translates), axis=1, initial=0), len(perms)),
    )


def default_window(base_points, n: int, m: int, *endpoints) -> int:
    """Window policy: ceil of the largest lifted coordinate magnitude, plus one.

    A path staying within that magnitude cannot have nearest sites beyond
    the window shell; `window_certificate` verifies this after the fact and
    a failure means the window must be raised.
    """
    coords = np.concatenate([np.asarray(c, dtype=float).reshape(-1)
                             for c in (*endpoints, base_points)])
    if not np.all(np.isfinite(coords)):
        raise MagError("endpoints and base points must be finite numbers")
    return int(np.ceil(np.max(np.abs(coords), initial=0.0))) + 1


def window_certificate(system: MagSystem, path: Path) -> bool:
    """True iff no class along the path touches the translate shell.

    When every nearest-site class only uses translates with max-norm
    strictly below the window, enlarging the window cannot change any
    class along the path, so the truncation is sound.
    """
    if path.dim != system.dim:
        raise MagError("path dimension does not match the lifted configuration space")
    _, _, _, groups = batch_field(path.nodes, system.kset)
    shell = system.window
    sites = [idx for cls, _ in groups for idx in cls]
    return bool(np.all(system.translate_sups[sites] < shell))


def particle_paths(system: MagSystem, path: Path):
    """Split a lifted trajectory into per-particle lifted and torus tracks.

    Returns ``(lifted, torus)``: each a list of m arrays of shape
    (nodes, n); the torus track is the lifted one reduced mod 1.
    """
    if path.dim != system.dim:
        raise MagError("path dimension does not match the lifted configuration space")
    blocks = path.nodes.reshape(path.nodes.shape[0], system.m, system.n)
    lifted = [blocks[:, i, :].copy() for i in range(system.m)]
    torus = [np.mod(b, 1.0) for b in lifted]
    return lifted, torus


def interior_balance_verdict(system: MagSystem, probe_count: int = 2000, seed: int = 0):
    """Balancedness verdict restricted to truncation-inert cells.

    Probes one lattice period around the base cell (every inert cell type
    has a representative there by periodicity): uniform samples plus
    midpoints of nearby inert site pairs and offsets along their bisector
    hyperplanes. A witnessed class counts only when none of its sites
    touches the translate shell, so its structure agrees with the
    untruncated lattice; zones are judged as in ``zone_table``. Returns
    ``(balanced, witness_pair, cell_count)``.
    """
    k = system.kset
    d = system.dim
    lo = np.full(d, -0.25)
    hi = np.full(d, 1.25)
    uniform = _uniform_probes(lo, hi, probe_count, seed)[1]

    inert = system.translate_sups < system.window
    pts = k.points[inert]
    pairs = np.stack(np.triu_indices(pts.shape[0], 1), axis=1)
    a, b = pts[pairs[:, 0]], pts[pairs[:, 1]]
    mids = 0.5 * (a + b)
    period = np.max(np.linalg.norm(system.base_points, axis=1)) + 1.0
    near = np.all((mids >= lo) & (mids <= hi), axis=1) & (np.linalg.norm(b - a, axis=1) <= period)
    probes = np.vstack([uniform, *_pair_probes(pts, pairs[near])])

    cells = _witness(k, probes, {}, keep=lambda cls: inert[list(cls)].all())
    pair = _zones(cells)[2]
    return pair is None, pair, len(cells)


def stability_run(k_sequence, endpoints_sequence, delta: float, shape: Shape,
                  cfg: SolverConfig) -> list[MinimizeResult]:
    """Minimize over a sequence of site sets and endpoint pairs.

    All sets must share one ambient dimension, and every input is checked
    before the first solve; results are returned in order for convergence
    inspection of the minimal actions.
    """
    k_sequence = list(k_sequence)
    endpoints_sequence = list(endpoints_sequence)
    if len(k_sequence) != len(endpoints_sequence):
        raise MagError("site-set and endpoint sequences must have equal length")
    if len({k.dim for k in k_sequence}) != 1:
        raise MagError("all site sets must share one dimension" if k_sequence
                       else "the site-set sequence is empty")
    ends = [(_as_vector(x0, k.dim), _as_vector(x1, k.dim))
            for k, (x0, x1) in zip(k_sequence, endpoints_sequence)]
    return [minimize(a, b, delta, k, shape, cfg) for k, (a, b) in zip(k_sequence, ends)]
