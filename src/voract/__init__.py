"""voract: action minimization over site-set distance potentials.

The library computes local minimizers of functionals of the form
``integral |path'|^2 + h(slope_sq(path))`` where the slope is the extended
gradient of the opposite squared distance to a finite point set, then
verifies the structural properties of the minimizers: energy constancy,
shock classification, velocity-jump identities and curvature bounds. The
discrete optimal-assignment gravitational model is the driving
application.
"""

from .geometry import (
    CellFrame,
    FrameError,
    GeometryError,
    MinNormError,
    PointSet,
    Polytope,
    PolytopeError,
    VoractError,
    cell_frame,
    load_point_set,
    min_norm_point,
    opt_class,
    polytope_distance_ratio,
)
from .potential import (
    GradientInfo,
    ZoneTable,
    extended_gradient,
    f_eval,
    in_p_eta,
    slope_sup_oracle,
    zone_table,
)
from .action import (
    ActionBreakdown,
    ActionError,
    GridBudgetError,
    GridSpec,
    MinimizeResult,
    Path,
    Shape,
    SolverConfig,
    action_gradient,
    constrained_minimize,
    dp_oracle,
    evaluate_action,
    minimize,
)
from .analysis import (
    AnalysisError,
    RegularityReport,
    ShockEvent,
    detect_shocks,
    jump_residual,
    regularity_report,
)
from .mag import (
    MagError,
    MagSystem,
    build_mag,
    default_window,
    interior_balance_verdict,
    particle_paths,
    stability_run,
    window_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "PointSet", "CellFrame", "Polytope",
    "opt_class", "min_norm_point", "cell_frame", "polytope_distance_ratio",
    "load_point_set",
    "VoractError", "GeometryError", "MinNormError", "FrameError", "PolytopeError",
    "GradientInfo", "ZoneTable",
    "f_eval", "extended_gradient", "slope_sup_oracle", "zone_table", "in_p_eta",
    "Shape", "Path", "ActionBreakdown", "SolverConfig", "GridSpec",
    "MinimizeResult", "ActionError", "GridBudgetError",
    "evaluate_action", "action_gradient", "minimize", "dp_oracle", "constrained_minimize",
    "ShockEvent", "RegularityReport", "AnalysisError",
    "detect_shocks", "jump_residual", "regularity_report",
    "MagSystem", "MagError",
    "build_mag", "default_window", "window_certificate", "particle_paths",
    "stability_run", "interior_balance_verdict",
    "__version__",
]
