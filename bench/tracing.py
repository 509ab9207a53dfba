"""In-memory spans around the public functions of each meanflock layer.

A span records its name, start, end, parent span, the run it belongs to and
a few argument-derived attributes (pair counts, LP sizes). Spans stay in
memory until the run ends; ``layer_metrics`` then folds them into the
per-layer vocabulary of the benchmark.

Functions are patched at every binding site, not only in the defining
module: ``from .kernels import field_drift_diffusion`` in ``dynamics`` makes
a second reference that a patch of ``kernels`` alone would miss. The wrapper
is installed wherever a ``meanflock`` module holds the original object.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

MIB = 2**20

DIAGNOSTICS = (
    "observed_position_spread",
    "energy_series",
    "weakform_single",
    "cauchy_single",
    "chaos_beta_path",
    "aggregate_flocking",
    "aggregate_cauchy",
    "aggregate_chaos",
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    attrs: Optional[dict]


class Tracer:
    """Collects spans for one run; nesting follows the call stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, labeler: Optional[Callable] = None):
        """Return ``fn`` recording one span per call.

        ``labeler(*args, **kwargs)`` returns ``(suffix, attrs)``: the suffix
        is appended to ``name`` (the transport route) and attrs is stored on
        the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, attrs = name, None
            if labeler is not None:
                suffix, attrs = labeler(*args, **kwargs)
                if suffix:
                    span_name = f"{name}.{suffix}"
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, span_name, start, end, parent, self.run_id, attrs))

        return traced

    def to_json(self) -> dict:
        return {
            "run": self.run_id,
            "fields": ["id", "name", "start", "end", "parent", "attrs"],
            "spans": [[s.id, s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans],
        }


# ---------------------------------------------------------------------------
# Labelers: derive the route and work size from the call's arguments
# ---------------------------------------------------------------------------


def _uniform(weights, n: int) -> bool:
    # same test as meanflock.transport (_WEIGHT_TOL = 1e-12)
    return float(abs(weights - 1.0 / n).max()) <= 1e-12


def _field_attrs(k, atoms, weights, queries, s1_convention="half_both", include_correction=True):
    m, n = queries.shape[0], atoms.shape[0]
    # the Ito correction builds two (m, n, dim, dim) Jacobians; this is the
    # computed size of one, not a measured allocation
    jac = m * n * k.dim * k.dim * 8 if (k.c is not None and include_correction) else 0
    return None, {"pairs": m * n, "temp_bytes": jac}


def _simulate_attrs(k, init, cfg, *args, **kwargs):
    return None, {"steps": cfg.steps}


def _wasserstein_route(mu, nu, p=2.0, support_cap=None):
    if mu.dim == 1:
        return "1d", None
    if mu.n == nu.n and _uniform(mu.weights, mu.n) and _uniform(nu.weights, nu.n):
        return "assignment", None
    return "lp", None


def _wasserstein_path_route(mu, nu, p=2.0, matching=None, support_cap=None):
    if matching is not None:
        return "matched", None
    n, m = mu.n_atoms, nu.n_atoms
    if n == m and _uniform(mu.weights, n) and _uniform(nu.weights, m):
        return "assignment", None
    return "lp", {"vars": n * m}


def _targets():
    """(module, attribute, span name, labeler) for every traced function."""
    out = [
        ("meanflock.config", "parse_config", "config.parse_config", None),
        ("meanflock.harness", "execute", "harness.execute", None),
        ("meanflock.kernels", "field_drift_diffusion", "kernels.field_drift_diffusion", _field_attrs),
        ("meanflock.dynamics", "simulate", "dynamics.simulate", _simulate_attrs),
        ("meanflock.transport", "wasserstein", "transport.wasserstein", _wasserstein_route),
        ("meanflock.transport", "wasserstein_path", "transport.wasserstein_path", _wasserstein_path_route),
        ("meanflock.transport", "path_sup_distances", "transport.path_sup_distances", None),
        ("meanflock.characteristics", "solve_characteristics", "characteristics.solve_characteristics", None),
        ("meanflock.characteristics", "transport_residual", "characteristics.transport_residual", None),
    ]
    out += [("meanflock.diagnostics", fn, f"diagnostics.{fn}", None) for fn in DIAGNOSTICS]
    return out


class installed:
    """Context manager patching every binding site of the traced functions.

    With ``only`` set, just those span names are traced; the untraced
    reference run uses it to time ``harness.execute`` alone.
    """

    def __init__(self, tracer: Tracer, only: Optional[set] = None):
        self.tracer = tracer
        self.only = only
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        import meanflock.harness  # noqa: F401  (imports every layer)

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "meanflock" or name.startswith("meanflock."))]
        for mod_name, attr, span_name, labeler in _targets():
            if self.only is not None and span_name not in self.only:
                continue
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.tracer.wrap(span_name, original, labeler)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        if self.only is None or "dynamics.NoisePath" in self.only:
            cls = sys.modules["meanflock.dynamics"].NoisePath
            self._set(cls, "__init__", self.tracer.wrap("dynamics.NoisePath", cls.__init__))
        return self.tracer

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False


# ---------------------------------------------------------------------------
# Folding spans into per-layer metrics
# ---------------------------------------------------------------------------


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(".us_per_call"):
        return "us"
    if metric.endswith(".ns_per_pair"):
        return "ns"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def layer_metrics(spans: list[Span]) -> dict:
    """Every per-layer metric of the benchmark; layers not reached read 0.

    Self time is a span's duration minus the time its direct children
    cover (children of one span never overlap: the run is single-threaded).
    """
    covered: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.end - sp.start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[str, int] = defaultdict(int)
    maxes: dict[str, int] = defaultdict(int)
    for sp in spans:
        dur = sp.end - sp.start
        calls[sp.name] += 1
        total[sp.name] += dur
        self_s[sp.name] += dur - covered[sp.id]
        for key, value in (sp.attrs or {}).items():
            sums[f"{sp.name}.{key}"] += value
            maxes[f"{sp.name}.{key}"] = max(maxes[f"{sp.name}.{key}"], value)

    fdd = "kernels.field_drift_diffusion"
    m = {
        "config.parse_config.s": total["config.parse_config"],
        "harness.execute.s": total["harness.execute"],
        "harness.execute.self_s": self_s["harness.execute"],
        f"{fdd}.calls": calls[fdd],
        f"{fdd}.s": total[fdd],
        f"{fdd}.us_per_call": total[fdd] / calls[fdd] * 1e6 if calls[fdd] else 0.0,
        f"{fdd}.pairs": sums[f"{fdd}.pairs"],
        f"{fdd}.ns_per_pair": total[fdd] / sums[f"{fdd}.pairs"] * 1e9 if sums[f"{fdd}.pairs"] else 0.0,
        f"{fdd}.temp_mb": maxes[f"{fdd}.temp_bytes"] / MIB,
        "dynamics.simulate.calls": calls["dynamics.simulate"],
        "dynamics.simulate.steps": sums["dynamics.simulate.steps"],
        "dynamics.simulate.s": total["dynamics.simulate"],
        "dynamics.simulate.self_s": self_s["dynamics.simulate"],
        "dynamics.NoisePath.s": total["dynamics.NoisePath"],
    }
    for route in ("1d", "assignment", "lp"):
        m[f"transport.wasserstein.{route}.calls"] = calls[f"transport.wasserstein.{route}"]
        m[f"transport.wasserstein.{route}.s"] = total[f"transport.wasserstein.{route}"]
    for route in ("matched", "assignment", "lp"):
        m[f"transport.wasserstein_path.{route}.calls"] = calls[f"transport.wasserstein_path.{route}"]
        m[f"transport.wasserstein_path.{route}.s"] = total[f"transport.wasserstein_path.{route}"]
    m["transport.wasserstein_path.lp.vars"] = maxes["transport.wasserstein_path.lp.vars"]
    m["transport.path_sup_distances.calls"] = calls["transport.path_sup_distances"]
    m["transport.path_sup_distances.s"] = total["transport.path_sup_distances"]
    sc, tr = "characteristics.solve_characteristics", "characteristics.transport_residual"
    m[f"{sc}.calls"] = calls[sc]
    m[f"{sc}.s"] = total[sc]
    m[f"{sc}.self_s"] = self_s[sc]
    m[f"{tr}.s"] = total[tr]
    m[f"{tr}.self_s"] = self_s[tr]
    for fn in DIAGNOSTICS:
        m[f"diagnostics.{fn}.s"] = total[f"diagnostics.{fn}"]
        m[f"diagnostics.{fn}.self_s"] = self_s[f"diagnostics.{fn}"]
    return m
