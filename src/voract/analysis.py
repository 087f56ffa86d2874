"""Numerical verification of structural properties on computed paths.

Given a discrete path over a site set, this module measures:

- the first integral ``|path'|^2 - h(slope_sq)`` (energy), whose
  constancy away from shocks certifies the autonomous Euler condition;
- shock events: nodes where the nearest-site class changes, classified
  as degenerate (hull projection unchanged), nondegenerate, or effective
  left/right (clean one-sided passage between strictly nested classes);
- the velocity-jump identity at effective shocks,
  ``|v- - v+|^2 = h(|x - eta_low|^2) - h(|x - eta_high|^2)``;
- a second-difference bound check against ``h'(|x-eta|^2)|x-eta|`` away
  from nondegenerate shocks, plus momentum continuity of the velocity
  component along the boundary's equidistance directions.

Shock times are resolved at node resolution: the continuum event lies in
the interval between the last node of the old class and the first node of
the new one. One-sided velocities extrapolate two central differences
(centred 3 and 6 nodes before the boundary, or 2 and 5 after it) linearly
to the event time, which removes the O(dt) bias a single offset difference
would carry.

All functions are pure over immutable paths and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import Path, Shape
from .geometry import GeometryError, PointSet, VoractError, class_frame
from .potential import batch_field, class_ids, same_zone

__all__ = [
    "AnalysisError",
    "ShockEvent",
    "RegularityReport",
    "detect_shocks",
    "jump_residual",
    "regularity_report",
]


class AnalysisError(VoractError):
    """Invalid analysis input (path too short, wrong event kind, ...)."""


@dataclass(frozen=True)
class ShockEvent:
    """One detected class change along a path.

    ``node_index`` is the first node carrying the new class; the continuum
    event lies in [time - dt, time]. ``x_event`` is the node on the
    larger-class side of the boundary (the event node for left/merged
    events, its predecessor for right events). Kinds: ``degenerate``
    (projection unchanged within tolerance), ``nondegenerate``,
    ``effective_left`` / ``effective_right`` (strictly nested classes with
    runs of at least 2 nodes on both sides).
    """

    node_index: int
    time: float
    kind: str
    class_before: tuple[int, ...]
    class_after: tuple[int, ...]
    eta_before: np.ndarray
    eta_after: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    jump_sq: float
    x_event: np.ndarray
    merged_class: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("eta_before", "eta_after", "v_minus", "v_plus", "x_event"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.jump_sq < -1e-12:
            raise AnalysisError("jump_sq must be nonnegative")
        if self.kind == "degenerate":
            if not same_zone(self.eta_before, self.eta_after):
                raise AnalysisError("degenerate event with a projection jump")
        if self.kind == "effective_left" and not _strict_subset(self.class_before, self.class_after):
            raise AnalysisError("left effective event requires class_before < class_after")
        if self.kind == "effective_right" and not _strict_subset(self.class_after, self.class_before):
            raise AnalysisError("right effective event requires class_after < class_before")


def _strict_subset(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return set(a) < set(b)


def _field(path: Path, kset: PointSet):
    """:func:`batch_field` of the path's nodes, which must have the sites' dimension."""
    if path.dim != kset.dim:
        raise AnalysisError(f"a {path.dim}-D path against {kset.dim}-D sites")
    return batch_field(path.nodes, kset)


def _one_sided_velocity(nodes: np.ndarray, dt: float, boundary: int, side: str) -> np.ndarray:
    """Velocity at the event boundary, extrapolated linearly from two
    central differences centred 3 and 6 nodes before ``boundary``
    (``minus``) or 2 and 5 nodes after it (``plus``).

    Falls back to the near difference alone, then to a plain one-sided
    difference, when the run is short. ``boundary`` is the index of the
    first node of the new class.
    """
    centres = (boundary - 3, boundary - 6) if side == "minus" else (boundary + 2, boundary + 5)
    # The far centre is only in range when the near one is.
    slopes = [(nodes[c + 1] - nodes[c - 1]) / (2.0 * dt)
              for c in centres if 1 <= c <= nodes.shape[0] - 2]
    if len(slopes) == 2:
        return 2.0 * slopes[0] - slopes[1]
    if slopes:
        return slopes[0]
    if side == "minus":
        k = max(boundary - 1, 1)
        return (nodes[k] - nodes[k - 1]) / dt
    k = min(boundary, nodes.shape[0] - 2)
    return (nodes[k + 1] - nodes[k]) / dt


def detect_shocks(path: Path, kset: PointSet) -> list[ShockEvent]:
    """Class-change events along a path of at least 3 intervals, classified
    at node resolution.

    A single-node visit of a class strictly containing both neighbouring
    runs is coalesced into one crossing event (a transversal passage
    through a lower-dimensional cell) at that node. Effective
    classification requires strict class nesting, a projection jump and
    runs of at least 2 nodes on both sides.
    """
    if path.m_intervals < 3:
        raise AnalysisError("shock detection needs at least 3 intervals")
    etas, _, _, groups = _field(path, kset)
    return _shock_events(path, etas, *class_ids(etas.shape[0], groups))


def _shock_events(path: Path, etas: np.ndarray, ids, registry) -> list[ShockEvent]:
    """:func:`detect_shocks` from the nodes' zone values and :func:`class_ids`."""
    nodes, dt, times = path.nodes, path.dt, path.times

    # Runs [start, end, class, merged] of equal ids: ``merged`` is the class of a
    # coalesced single-node visit right after the run. The merge test reads the
    # class of node s - 1, not runs[-2], whose successor may have been merged away.
    cuts = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
    runs: list[list] = []
    for k, end in zip([0] + cuts, [c - 1 for c in cuts] + [ids.size - 1]):
        cls = registry[ids[k]]
        if len(runs) >= 2:
            s, e, mid, _ = runs[-1]
            if s == e and _strict_subset(registry[ids[s - 1]], mid) and _strict_subset(cls, mid):
                runs.pop()
                runs[-1][3] = mid
        runs.append([k, end, cls, None])

    events: list[ShockEvent] = []
    for (s0, e0, cls_before, merged), (s1, e1, cls_after, _) in zip(runs, runs[1:]):
        node = e0 + 1
        v_minus = _one_sided_velocity(nodes, dt, node, "minus")
        v_plus = _one_sided_velocity(nodes, dt, s1, "plus")
        jump = v_minus - v_plus
        if merged is not None or len(cls_after) >= len(cls_before):
            x_event = nodes[node]
        else:
            x_event = nodes[e0]

        if same_zone(etas[e0], etas[s1]):
            kind = "degenerate"
        else:
            kind = "nondegenerate"
            if merged is None and min(e0 - s0, e1 - s1) >= 1:
                if _strict_subset(cls_before, cls_after):
                    kind = "effective_left"
                elif _strict_subset(cls_after, cls_before):
                    kind = "effective_right"

        events.append(ShockEvent(
            node_index=node,
            time=float(times[node]),
            kind=kind,
            class_before=cls_before,
            class_after=cls_after,
            eta_before=etas[e0],
            eta_after=etas[s1],
            v_minus=v_minus,
            v_plus=v_plus,
            jump_sq=float(jump @ jump),
            x_event=x_event,
            merged_class=merged,
        ))
    return events


def jump_residual(event: ShockEvent, shape: Shape) -> float:
    """Absolute defect of the velocity-jump identity at an effective shock.

    For a left event the potential drops from the old zone to the new one;
    for a right event the roles are mirrored. Raises on non-effective
    events.
    """
    if event.kind not in ("effective_left", "effective_right"):
        raise AnalysisError(f"jump_residual needs an effective event, got {event.kind!r}")
    x = event.x_event
    d_before = float(np.sum((x - event.eta_before) ** 2))
    d_after = float(np.sum((x - event.eta_after) ** 2))
    if event.kind == "effective_left":
        h_diff = float(shape.h(d_before) - shape.h(d_after))
    else:
        h_diff = float(shape.h(d_after) - shape.h(d_before))
    return abs(event.jump_sq - h_diff)


@dataclass(frozen=True)
class RegularityReport:
    energy_values: np.ndarray
    slope_sq: np.ndarray
    energy_constant: float
    energy_std_away_from_shocks: float
    second_diff_violations: list[tuple[int, float, float]]
    max_second_diff_excess: float
    shock_count_by_kind: dict[str, int]
    momentum_residuals: list[tuple[int, float]]
    events: list[ShockEvent]


def regularity_report(path: Path, kset: PointSet, shape: Shape) -> RegularityReport:
    """Shocks, second-difference bound, energy constancy and momentum
    continuity of a path of at least 4 intervals.

    The per-interval energy is the forward-difference speed squared minus
    h at the interval's left node; its constant estimate is the median.
    Central second differences at nodes at least 2 away from any
    nondegenerate shock are compared against
    ``h'(|x-eta|^2)|x-eta| + 20 dt``. Momentum
    residuals compare the one-sided velocities projected on the
    equidistance directions of the union class at every shock.
    """
    if path.m_intervals < 4:
        raise AnalysisError("a regularity report needs at least 4 intervals")
    nodes = path.nodes
    etas, s, _, groups = _field(path, kset)
    events = _shock_events(path, etas, *class_ids(etas.shape[0], groups))
    dt = path.dt

    nondeg_nodes = [ev.node_index for ev in events if ev.kind != "degenerate"]
    excluded = np.zeros(nodes.shape[0], dtype=bool)
    for k in nondeg_nodes:
        excluded[max(k - 2, 0):k + 3] = True

    second = (nodes[2:] - 2.0 * nodes[1:-1] + nodes[:-2]) / dt**2
    sec_norm = np.linalg.norm(second, axis=1)
    bound = shape.h_prime(s[1:-1]) * np.sqrt(s[1:-1])
    violations: list[tuple[int, float, float]] = []
    max_excess = -np.inf
    for k in range(1, nodes.shape[0] - 1):
        if excluded[k]:
            continue
        est = float(sec_norm[k - 1])
        b = float(bound[k - 1])
        max_excess = max(max_excess, est - b)
        if est > b + 20.0 * dt:
            violations.append((k, est, b))

    diffs = np.diff(nodes, axis=0)
    energy = np.einsum("ij,ij->i", diffs, diffs) / dt**2 - shape.h(s[:-1])
    interval_excluded = excluded[:-1] | excluded[1:]
    kept = energy[~interval_excluded]
    energy_std = float(np.std(kept)) if kept.size else 0.0

    counts: dict[str, int] = {}
    for ev in events:
        counts[ev.kind] = counts.get(ev.kind, 0) + 1

    momentum: list[tuple[int, float]] = []
    for ev in events:
        try:
            union = set(ev.class_before) | set(ev.class_after) | set(ev.merged_class or ())
            frame = class_frame(tuple(sorted(union)), kset)
        except GeometryError:
            continue
        jump = frame.basis_b @ (ev.v_minus - ev.v_plus)
        momentum.append((ev.node_index, float(np.linalg.norm(jump))))

    return RegularityReport(
        energy_values=energy,
        slope_sq=s,
        energy_constant=float(np.median(energy)),
        energy_std_away_from_shocks=energy_std,
        second_diff_violations=violations,
        max_second_diff_excess=float(max_excess) if np.isfinite(max_excess) else 0.0,
        shock_count_by_kind=counts,
        momentum_residuals=momentum,
        events=events,
    )
