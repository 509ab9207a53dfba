"""Mean-field stochastic particle systems with common and individual noise.

Simulation (Ito and Stratonovich discretizations), exact Wasserstein
metrics, the frozen-field characteristics replay, and Monte-Carlo
diagnostics for flocking decay, weak-form martingale structure, Cauchy-in-N
convergence, stability under one common noise, and conditional propagation
of chaos.

``import meanflock`` loads no submodule: each public name is imported from
its module the first time it is read (PEP 562), so a process loads only the
layers it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "characteristics": ("solve_characteristics", "transport_residual"),
    "dynamics": ("NoisePath", "SimConfig", "TrajectoryRecord", "simulate"),
    "kernels": (
        "CuckerSmaleParams",
        "KernelSet",
        "Truncation",
        "cucker_smale_kernels",
    ),
    "testfunctions": ("TestFunction",),
    "transport": ("MeasurePath", "moments", "wasserstein_path"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
