"""Reference work: a fixed computation timed between the tasks of a pass.

The host's speed drifts by up to 30% over minutes (other tenants share its
cores and caches), and the program's pass times drift with it. Timing this
fixed work next to every task measures the host's current speed, so
`wall_rel` (pass wall ÷ reference time of the same pass) keeps the
program's own speed and drops most of the drift. The work mixes what the
program spends its time on: interpreted Python, many small numpy calls,
and one distance matrix of a few MB. It never calls `voract`, so no change
to the program moves it. Changing it changes every `wall_rel`.

Every array is allocated once, at import, so the rounds add nothing to the
run's peak memory after the first.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20230422)
_FEW = _RNG.random((3, 1, 4))
_MANY = _RNG.random((100, 1, 4))
_SITES = _RNG.random((1, 2000, 4))
_FEW_DIFF = np.empty((3, 2000, 4))
_FEW_DIST = np.empty((3, 2000))
_MANY_DIFF = np.empty((100, 2000, 4))
_MANY_DIST = np.empty((100, 2000))


def _nearest(points, diff, dist) -> None:
    np.subtract(points, _SITES, out=diff)
    np.square(diff, out=diff)
    np.sum(diff, axis=-1, out=dist)
    best = dist.min(axis=1)
    np.flatnonzero(dist[0] <= best[0] + 1e-12)


def reference_seconds() -> float:
    """Wall time of one round of the reference work (about 0.2 s)."""
    t0 = time.perf_counter()
    total, table = 0.0, {}
    for i in range(400_000):
        total += i * 0.5
        table[i & 255] = total
    for _ in range(240):
        _nearest(_FEW, _FEW_DIFF, _FEW_DIST)
    for _ in range(4):
        _nearest(_MANY, _MANY_DIFF, _MANY_DIST)
    return time.perf_counter() - t0
