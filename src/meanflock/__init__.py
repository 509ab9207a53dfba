"""Mean-field stochastic particle systems with common and individual noise.

Simulation (Ito and Stratonovich discretizations), exact Wasserstein
metrics, the frozen-field characteristics replay, and Monte-Carlo
diagnostics for flocking decay, weak-form martingale structure, Cauchy-in-N
convergence, stability under one common noise, and conditional propagation
of chaos.

Each name is imported from the module that defines it, as in
``from meanflock.dynamics import simulate``. ``import meanflock`` loads no
submodule, so a process loads only the layers it uses.
"""

__version__ = "0.1.0"
