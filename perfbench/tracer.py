"""Layer tracer: spans around the public functions of each `voract` module.

The tracer replaces a boundary function at every name it is bound to in a
loaded `voract` module (`voract.action` and `voract.mag` bind the kernel and
`cell_frame` by name at import, so patching the defining module alone would
miss their calls). Each call records a span; a layer's self time is its
span time minus the time of the spans nested in it. Kernel calls also
record their work (rows, sites, tie rows) and the function that called them.

A boundary that is missing from its module is reported as absent, never as
zero. Nothing is patched until `install` and everything is restored by
`uninstall`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer, defining module, function name)
BOUNDARIES = (
    ("potential.kernel", "voract.potential", "batch_field"),
    ("potential.kernel", "voract.potential", "batch_field_light"),
    ("potential.zone_table", "voract.potential", "zone_table"),
    ("action.minimize", "voract.action", "minimize"),
    ("action.dp_oracle", "voract.action", "dp_oracle"),
    ("action.constrained_minimize", "voract.action", "constrained_minimize"),
    ("action.evaluate_action", "voract.action", "evaluate_action"),
    ("geometry.cell_frame", "voract.geometry", "cell_frame"),
    ("geometry.min_norm_point", "voract.geometry", "min_norm_point"),
    ("mag.interior_balance_verdict", "voract.mag", "interior_balance_verdict"),
    ("mag.build_mag", "voract.mag", "build_mag"),
    ("mag.stability_run", "voract.mag", "stability_run"),
    ("analysis.detect_shocks", "voract.analysis", "detect_shocks"),
    ("analysis.regularity_report", "voract.analysis", "regularity_report"),
)

# Functions whose kernel calls are counted on their own; any other caller
# counts as "other". Nested helpers count for their enclosing function.
KERNEL_CALLERS = ("value", "_state", "_trial_moves", "interior_balance_verdict", "zone_table",
                  "dp_oracle")
# The callers inside the descent engine (`_Descent`).
DESCENT_CALLERS = ("value", "_state", "_trial_moves")

# Bytes of the kernel's distance matrix (float64) and tie mask (bool) per
# row-site, and of its three row-by-dimension float64 arrays per row
# coordinate. A computed estimate, not a measurement.
KERNEL_BYTES_PER_ROW_SITE = 9
KERNEL_BYTES_PER_ROW_COORD = 24

REDUNDANT_START_GAP = 1e-6


def _caller(frame) -> str:
    code = frame.f_code
    qualname = getattr(code, "co_qualname", code.co_name)
    outer = qualname.split(".<locals>.")[0].rsplit(".", 1)[-1]
    return outer if outer in KERNEL_CALLERS else "other"


class Tracer:
    """Records spans and counts while installed; `reset` clears them."""

    def __init__(self):
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s = 0.0

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "voract" or name.startswith("voract."))]
        for layer, module_name, func_name in BOUNDARIES:
            original = getattr(sys.modules.get(module_name), func_name, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(layer, original, self._RESULT_HOOKS.get(layer))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def is_absent(self, layer: str) -> bool:
        """True when every boundary of the layer is missing from its module."""
        names = [f"{m}.{f}" for lay, m, f in BOUNDARIES if lay == layer]
        return bool(names) and all(n in self.absent for n in names)

    def _wrap(self, layer, original, hook):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            caller = sys._getframe(1)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                self.calls[layer] += 1
                self.total_s[layer] += duration
                self.self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration
            if hook is not None:
                # Count outside the span; the time goes to its own bucket.
                t1 = clock()
                hook(self, args, kwargs, result, caller)
                spent = clock() - t1
                self.self_s["trace.hooks"] += spent
                if stack:
                    stack[-1][0] += spent
                else:
                    self.root_s += spent
            return result

        traced.__wrapped__ = original
        return traced

    # -- per-layer counts ----------------------------------------------------------

    def _count_kernel(self, args, kwargs, result, caller) -> None:
        nodes = args[0] if args else kwargs["nodes"]
        kset = args[1] if len(args) > 1 else kwargs["kset"]
        rows, dim = (nodes.shape if getattr(nodes, "ndim", 0) == 2
                     else (1, len(nodes)))
        if len(result) == 4:  # batch_field_light: (etas, slope_sq, tie_mask, groups)
            tie_rows = int(result[2].sum())
            tie_groups = len(result[3])
        else:  # batch_field: (classes, etas, slope_sq)
            tied = [c for c in result[0] if len(c) > 1]
            tie_rows = len(tied)
            tie_groups = len(set(tied))
        c = self.counts
        c["potential.kernel.rows"] += rows
        c["potential.kernel.row_sites"] += rows * kset.n
        c["potential.kernel.tie_rows"] += tie_rows
        c["potential.kernel.tie_groups"] += tie_groups
        c["potential.kernel.bytes_computed"] += (KERNEL_BYTES_PER_ROW_SITE * rows * kset.n
                                                 + KERNEL_BYTES_PER_ROW_COORD * rows * dim)
        who = _caller(caller)
        c["potential.kernel.calls." + who] += 1
        c["potential.kernel.rows." + who] += rows

    def _count_minimize(self, args, kwargs, result, caller) -> None:
        starts = result.starts
        near_best = sum(1 for s in starts if s.dev_from_best <= REDUNDANT_START_GAP)
        self.counts["action.minimize.starts"] += len(starts)
        self.counts["action.minimize.starts_redundant"] += max(near_best - 1, 0)
        self.counts["action.minimize.converged"] += int(bool(result.converged))

    def _count_verdict(self, args, kwargs, result, caller) -> None:
        self.counts["mag.interior_balance_verdict.cells"] += int(result[2])

    def _count_zone_table(self, args, kwargs, result, caller) -> None:
        self.counts["potential.zone_table.probes"] += int(sum(result.coverage.values()))

    _RESULT_HOOKS = {
        "potential.kernel": _count_kernel,
        "action.minimize": _count_minimize,
        "mag.interior_balance_verdict": _count_verdict,
        "potential.zone_table": _count_zone_table,
    }

    # -- summaries -------------------------------------------------------------------

    def kernel_mark(self) -> tuple[float, int, int]:
        """Kernel self time, trial-move kernel calls and descent kernel calls so far."""
        c = self.counts
        return (self.self_s.get("potential.kernel", 0.0),
                c.get("potential.kernel.calls._trial_moves", 0),
                sum(c.get(f"potential.kernel.calls.{who}", 0) for who in DESCENT_CALLERS))

    def count_snapshot(self) -> dict[str, int]:
        """Every count and call count; these must repeat exactly for one seed."""
        snap = {f"{layer}.calls": n for layer, n in self.calls.items()}
        snap.update(self.counts)
        return dict(sorted(snap.items()))
