"""Mean-field stochastic particle systems with common and individual noise.

Simulation (Ito and Stratonovich discretizations), exact Wasserstein
metrics, frozen-field characteristics, and Monte-Carlo diagnostics for
flocking decay, weak-form martingale structure, Cauchy-in-N convergence,
and conditional propagation of chaos.
"""

__version__ = "0.1.0"

from .characteristics import (
    FrozenField,
    evolve_transport,
    pushforward,
    solve_characteristics,
    transport_residual,
)
from .diagnostics import DiagnosticsReport
from .dynamics import (
    NoisePath,
    SimConfig,
    TrajectoryRecord,
    simulate,
)
from .kernels import (
    CuckerSmaleParams,
    KernelSet,
    Truncation,
    cucker_smale_kernels,
    eval_S2,
)
from .testfunctions import CylinderFunction, TestFunction
from .transport import (
    EmpiricalMeasure,
    MeasurePath,
    moments,
    support_radius,
    wasserstein,
    wasserstein_path,
)

__all__ = [
    "__version__",
    "CuckerSmaleParams",
    "CylinderFunction",
    "DiagnosticsReport",
    "EmpiricalMeasure",
    "FrozenField",
    "KernelSet",
    "MeasurePath",
    "NoisePath",
    "SimConfig",
    "TestFunction",
    "TrajectoryRecord",
    "Truncation",
    "cucker_smale_kernels",
    "eval_S2",
    "evolve_transport",
    "moments",
    "pushforward",
    "simulate",
    "solve_characteristics",
    "support_radius",
    "transport_residual",
    "wasserstein",
    "wasserstein_path",
]
