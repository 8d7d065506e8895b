"""Curvature toolkit and flow integrator for Hessian metrics on periodic
affine charts: finite-difference tensor calculus, Koszul forms, the
curvature tensor of potential metrics and its pullback identities, explicit
positivity-preserving integration of dg/dt = -beta(g) in both tensor and
scalar-potential form, and existence-window criteria."""

__version__ = "0.1.0"

from .criteria import (
    InfeasibleAtZero,
    PencilResult,
    a2_margin,
    log_det_gauge,
    max_s,
)
from .flow import (
    DiagnosticsRow,
    FlowBlowup,
    FlowState,
    PotentialFlowState,
    StepControl,
    equivalence_check,
    run_flow,
    smoothing_probe,
    stable_dt,
    step_potential,
    step_tensor,
)
from .geometry import (
    CurvatureBundle,
    HessianCurvature,
    MetricField,
    NotPositiveDefinite,
    PotentialMetric,
    SectionalReport,
    Sym2Field,
    christoffel,
    contraction_identity_defect,
    curvature_bundle,
    hessian_curvature,
    hessian_curvature_from_metric,
    hessian_defect,
    kahler_curvature_pullback,
    koszul,
    metric_from_potential,
    pencil_eigenvalue_range,
    pullback_chern_torsion,
    riemann_from_gamma,
    riemann_from_q,
    sectional_extremes,
)
from .grid import PeriodicGrid, ScalarField, partial, partial2, partial3, partial4
from .registry import EXAMPLES, ExampleSpec, build_example
