"""Flat key = value experiment configuration with a strict schema.

The format is deliberately primitive so configs diff cleanly and every run
is auditable: one ``key = value`` pair per line, ``#`` comments, no
sections, no nesting. Unknown keys, bad types, missing required keys and
keys that the model or the experiment kind does not read are all rejected
before any computation starts, with the offending line or key quoted.

Every float key must be finite: the parser rejects NaN and +-inf. The value
bounds that library objects also enforce (the time grid and the blow-up
norm, the Cucker-Smale parameters, the truncation and the state dimension)
are written once here, as rule functions that raise ``ValueError``.
``SimConfig``, ``CuckerSmaleParams``, ``Truncation`` and ``KernelSet`` call
the same functions, and ``parse_config`` turns their errors into
``ConfigError``s that name the keys given. The scheme and S1-convention
choices (each convention mapped to its factor on s1), the assignment
solver's ``DEFAULT_SUPPORT_CAP`` and ``state_dim`` are defined here too, for
``dynamics``, ``transport`` and ``harness`` to import.
This module imports only ``errors`` and the standard library, so
``meanflock validate`` loads no numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Any, Callable

from .errors import ConfigError

SCHEMES = ("euler_ito", "heun_stratonovich")
S1_CONVENTIONS = {"half_both": 0.5, "paper_literal": 1.0}
# atoms of the two measures an assignment solve takes at most, combined
DEFAULT_SUPPORT_CAP = 4096


# ---------------------------------------------------------------------------
# Value rules shared with the library constructors
# ---------------------------------------------------------------------------


def check_time_grid(t_final, dt) -> None:
    """The grid 0, dt, ..., t_final: a whole number of steps, none only if t_final = 0."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not t_final >= 0:
        raise ValueError("t_final must be >= 0")
    steps = t_final / dt
    whole = math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9
    if not whole or (round(steps) == 0) != (t_final == 0):
        raise ValueError("t_final must be an integer multiple of dt")


def check_blowup_norm(blowup_norm) -> None:
    if not blowup_norm > 0:
        raise ValueError("blowup_norm must be positive")


def check_cucker_smale(half_dim, lam, gamma, phi_lam, phi_gamma) -> None:
    if not half_dim >= 1:
        raise ValueError("half_dim must be >= 1")
    if not lam > 0:
        raise ValueError("psi amplitude lam must be positive")
    if not gamma >= 0:
        raise ValueError("psi exponent gamma must be >= 0")
    if not (phi_lam >= 0 and phi_gamma >= 0):
        raise ValueError("phi parameters must be >= 0")


def check_truncation(radius, margin) -> None:
    if not (radius > 0 and margin > 0):
        raise ValueError("truncation radius and margin must be positive")


def check_dim(dim) -> None:
    if not dim >= 1:
        raise ValueError("kernel dimension must be >= 1")


# ---------------------------------------------------------------------------
# Catalogues: models, and the experiment keys each kind reads
# ---------------------------------------------------------------------------

Model = namedtuple("Model", "doc keys coefficients position_velocity individual_noise required",
                   defaults=((), False, False, ()))
Model.__doc__ = """One catalogued kernel model and the model-parameter keys it reads.

``position_velocity`` marks the Cucker-Smale family, whose states are
(x, v) in R^{2 half_dim}. The other models are presets of the affine
kernel: ``keys`` are ``dim`` and the value keys, and ``coefficients`` names
the coefficient each value key sets; the others are 0.
"""


_CS = ("half_dim", "lambda", "gamma", "phi_lambda", "phi_gamma")
_TRUNC = ("trunc_radius", "trunc_margin")
_B = ("dim", "drift_value")
_SIGMA = ("dim", "sigma_scale")

MODELS = {
    "cucker-smale": Model(
        "flocking drift psi(x-y)(w-v) with optional common noise phi(x-y)(w-v)",
        _CS, position_velocity=True,
    ),
    "cucker-smale-truncated": Model(
        "cucker-smale with C^2-truncated velocities in the noise term",
        _CS + _TRUNC, position_velocity=True, required=_TRUNC,
    ),
    "cucker-smale-individual": Model(
        "cucker-smale plus constant individual noise on velocities",
        _CS + _TRUNC + ("sigma_scale",), position_velocity=True, individual_noise=True,
    ),
    "zero": Model("all coefficients zero", ("dim",)),
    "constant-drift": Model("b(x,y) = drift_value in every coordinate", _B, ("b0",)),
    "linear-drift": Model("b(x,y) = drift_value * x", _B, ("bx",)),
    "linear-common": Model("c(x,y) = drift_value * x, geometric common noise", _B, ("cx",)),
    "constant-common": Model(
        "c(x,y) = drift_value per coordinate, additive common noise", _B, ("c0",)),
    "diag-individual": Model("sigma(x) = sigma_scale * diag(x)", _SIGMA, ("sx",),
                             individual_noise=True),
    "constant-individual": Model("sigma(x) = sigma_scale * I", _SIGMA, ("s0",),
                                 individual_noise=True),
}

# the initial-condition scales each family reads, keyed by Model.position_velocity
INIT_KEYS = {
    True: ("init_position_scale", "init_velocity_scale"),
    False: ("init_scale",),
}


def _keys_read(model: Model) -> tuple:
    """The model-parameter and initial-condition keys a model reads."""
    return model.keys + INIT_KEYS[model.position_velocity]


def state_dim(values: dict) -> int:
    """The state dimension of a config's model: 2 half_dim, or dim."""
    return 2 * values["half_dim"] if MODELS[values["model"]].position_velocity else values["dim"]


MODEL_KEYS = frozenset(key for model in MODELS.values() for key in _keys_read(model))

Kind = namedtuple("Kind", "keys required min_seeds common_noise_only cucker_smale_only schemes",
                  defaults=((), 1, False, False, SCHEMES))
Kind.__doc__ = """One experiment kind: the keys it reads (other kinds reject them) and
requires, its fewest seeds, and whether it runs only on Cucker-Smale models, only under some
schemes, or only without individual noise: chaos as its resamples would reuse one seed's
B^i, transport-check as only a measure driven by beta alone follows its characteristics."""

KINDS = {
    "simulate": Kind(("n_particles",)),
    "flocking": Kind(("n_particles",), cucker_smale_only=True),
    "weakform": Kind(("n_particles",), min_seeds=16),
    # two seeds give the fewest a standard error is defined for
    "cauchy": Kind(("sizes", "wasserstein_p"), ("sizes",), min_seeds=2),
    "chaos": Kind(("n_list", "ref_n", "n_resamples"), ("n_list",), common_noise_only=True),
    "comparison": Kind(("n_particles", "radius", "comparison_shift", "wasserstein_p")),
    # the characteristics replay steps with the Euler-Ito update only
    "transport-check": Kind(("n_particles",), common_noise_only=True, schemes=("euler_ito",)),
}

EXPERIMENT_KINDS = tuple(KINDS)
EXPERIMENT_KEYS = frozenset(key for kind in KINDS.values() for key in kind.keys)


def _parse_int_list(raw: str) -> list[int]:
    if not all(tok.strip() for tok in raw.split(",")):
        raise ValueError("empty item")
    return [int(tok) for tok in raw.split(",")]


def _parse_str(raw: str) -> str:
    if not raw.strip():
        raise ValueError("empty value")
    return raw.strip()


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


_PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": _parse_str,
    "int_list": _parse_int_list,
}


Key = namedtuple("Key", "name kind default required choices help", defaults=(None, False, None, ""))


SCHEMA: dict[str, Key] = {
    k.name: k
    for k in [
        Key("experiment", "str", required=True, choices=EXPERIMENT_KINDS,
            help="experiment kind; experiment keys it does not read are rejected"),
        Key("model", "str", required=True,
            help="kernel model name, see `meanflock models`; keys it does not read are rejected"),
        Key("output_dir", "str", required=True, help="artifact directory"),
        # model parameters
        Key("half_dim", "int", default=1, help="d for position-velocity models"),
        Key("dim", "int", default=1, help="state dimension for generic models"),
        Key("lambda", "float", default=1.0, help="psi amplitude"),
        Key("gamma", "float", default=1.0, help="psi decay exponent"),
        Key("phi_lambda", "float", default=0.0, help="phi amplitude"),
        Key("phi_gamma", "float", default=0.0, help="phi decay exponent"),
        Key("trunc_radius", "float", help="velocity truncation radius"),
        Key("trunc_margin", "float", help="velocity truncation smoothing margin"),
        Key("sigma_scale", "float", default=0.1, help="individual noise amplitude"),
        Key("drift_value", "float", default=1.0, help="constant/linear kernel coefficient"),
        # discretization
        Key("n_particles", "int", default=8),
        Key("t_final", "float", default=1.0),
        Key("dt", "float", default=0.01),
        Key("scheme", "str", default="euler_ito", choices=SCHEMES),
        Key("s1_convention", "str", default="half_both", choices=S1_CONVENTIONS),
        Key("master_seed", "int", default=0),
        Key("blowup_norm", "float", default=1e6,
            help="a run whose largest particle norm exceeds it stops with a blow-up error; > 0"),
        # initial conditions
        Key("init_kind", "str", default="gaussian", choices=("gaussian", "uniform")),
        Key("init_position_scale", "float", default=1.0, help="for position-velocity models"),
        Key("init_velocity_scale", "float", default=1.0, help="for position-velocity models"),
        Key("init_scale", "float", default=1.0, help="scale for generic-model states"),
        # Monte-Carlo ensemble
        Key("n_seeds", "int", default=1,
            help="run seeds master_seed .. master_seed+n_seeds-1; at least 1, cauchy at least 2, "
                 "weakform at least 16"),
        # experiment inputs; a verdict's slack, bands, checkpoints and test function are constants
        Key("sizes", "int_list",
            help="cauchy sizes: at least three, each half the one before, the last >= 1"),
        Key("wasserstein_p", "float", default=2.0),
        Key("n_list", "int_list",
            help="chaos system sizes: at least two, strictly increasing, the first > 2"),
        Key("ref_n", "int", help="chaos reference size > max(n_list) (default 8x largest)"),
        Key("n_resamples", "int", default=64, help="chaos initial resamples per beta path, >= 32"),
        Key("radius", "float", default=50.0, help="stopping radius for comparison, > 0"),
        Key("comparison_shift", "float", default=0.5,
            help="offset applied to the second initial measure; finite and nonzero"),
    ]
}

# cylinder functions used by the chaos experiment
CHAOS_R = 2


class ExperimentConfig:
    """The value of every schema key of one config, and the text it was parsed from."""

    def __init__(self, values: dict, text: str):
        self.values = values
        self.text = text

    @property
    def kind(self) -> str:
        return self.values["experiment"]

    def sha256(self) -> str:
        # only a run's manifest needs the hash; validate never loads OpenSSL
        import hashlib

        return hashlib.sha256(self.text.encode()).hexdigest()

    def seeds(self) -> list[int]:
        """The run's one seed block: master_seed .. master_seed + n_seeds - 1."""
        base = self.values["master_seed"]
        return list(range(base, base + self.values["n_seeds"]))


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        name, raw_value = (part.strip() for part in line.split("=", 1))
        if name not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{name}'")
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key '{name}'")
        key = SCHEMA[name]
        try:
            value = _PARSERS[key.kind](raw_value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: field '{name}' expects {key.kind}: {exc}"
            ) from exc
        if key.choices is not None and value not in key.choices:
            raise ConfigError(
                f"line {lineno}: field '{name}' must be one of {tuple(key.choices)}, got {value!r}"
            )
        values[name] = value

    given = set(values)
    for key in SCHEMA.values():
        if key.required and key.name not in values:
            raise ConfigError(f"missing required key '{key.name}'")
        if key.name not in values:
            values[key.name] = key.default

    kind = values["experiment"]
    unread = sorted(key for key in given & EXPERIMENT_KEYS if key not in KINDS[kind].keys)
    if unread:
        raise ConfigError(f"experiment '{kind}' does not read {', '.join(unread)}")
    for needed in KINDS[kind].required:
        if values.get(needed) is None:
            raise ConfigError(f"experiment '{kind}' requires key '{needed}'")
    # a config runs at least one step; the library also takes t_final = 0
    if not values["t_final"] > 0:
        raise ConfigError("field 't_final' must be positive")
    _checked(check_time_grid, ("t_final", "dt"), values, given)
    _checked(check_blowup_norm, ("blowup_norm",), values, given)
    for name in ("n_particles", "wasserstein_p"):
        if not values[name] >= 1:
            raise ConfigError(f"field '{name}' must be >= 1, got {values[name]}")
    if (values.get("trunc_radius") is None) != (values.get("trunc_margin") is None):
        raise ConfigError("trunc_radius and trunc_margin must be given together")
    # numpy's SeedSequence takes no negative entropy
    if values["master_seed"] < 0:
        raise ConfigError(f"field 'master_seed' must be >= 0, got {values['master_seed']}")
    _check_model(values, given)
    _check_experiment(values)
    return ExperimentConfig(values=values, text=text)


def _check_model(values: dict, given: set) -> None:
    name = values["model"]
    model = MODELS.get(name)
    if model is None:
        raise ConfigError(f"unknown model '{name}'; available: {', '.join(sorted(MODELS))}")
    unread = sorted(key for key in given & MODEL_KEYS if key not in _keys_read(model))
    if unread:
        raise ConfigError(f"model '{name}' does not read {', '.join(unread)}")
    for key in model.required:
        if values[key] is None:
            raise ConfigError(f"model '{name}' requires key '{key}'")
    if model.position_velocity:
        _checked(check_cucker_smale, _CS, values, given)
    else:
        _checked(check_dim, ("dim",), values, given)
    if values["trunc_radius"] is not None:
        _checked(check_truncation, _TRUNC, values, given)


def _checked(rule: Callable, keys: tuple, values: dict, given: set) -> None:
    """Apply ``rule(*values of keys)`` as a config rule.

    Defaults pass every rule, so a rejection is blamed on the keys the
    config gives.
    """
    try:
        rule(*(values[key] for key in keys))
    except ValueError as exc:
        named = [key for key in keys if key in given] or list(keys)
        label = "field" if len(named) == 1 else "fields"
        raise ConfigError(f"{label} {', '.join(map(repr, named))}: {exc}") from None


def _check_experiment(values: dict) -> None:
    kind, name, n_seeds = values["experiment"], values["model"], values["n_seeds"]
    model, rules = MODELS[name], KINDS[kind]
    if n_seeds < 1:
        raise ConfigError("at least one seed is required")
    if rules.common_noise_only and model.individual_noise:
        raise ConfigError(
            f"experiment '{kind}' requires a model without individual noise, got '{name}'"
        )
    if values["scheme"] not in rules.schemes:
        raise ConfigError(f"experiment '{kind}' requires scheme {' or '.join(rules.schemes)}, "
                          f"got '{values['scheme']}'")
    if rules.cucker_smale_only and not model.position_velocity:
        raise ConfigError(f"experiment '{kind}' requires a cucker-smale model, got '{name}'")
    if kind == "comparison":
        # a run stopped at t = 0, or two start measures at one point, leaves no ratio to judge
        radius, shift = values["radius"], values["comparison_shift"]
        if not radius > 0:
            raise ConfigError(f"field 'radius' must be positive, got {radius}")
        if shift == 0:
            raise ConfigError(f"field 'comparison_shift' must be finite and nonzero, got {shift}")
        # the t = 0 pairing solves n against n atoms; the 1-D sort order has no cap
        n = values["n_particles"]
        if state_dim(values) > 1 and 2 * n > DEFAULT_SUPPORT_CAP:
            raise ConfigError(f"comparison solves {n} against {n} atoms, above the support cap "
                              f"of {DEFAULT_SUPPORT_CAP} combined")
    if kind == "cauchy":
        # three sizes give two coupled distances, the fewest a verdict compares
        sizes = values["sizes"]
        if len(sizes) < 3 or sizes[-1] < 1 or any(a != 2 * b for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(
                f"sizes must be three or more positive sizes, each half the one before; got {sizes}"
            )
        if sizes[0] + sizes[1] > DEFAULT_SUPPORT_CAP:
            raise ConfigError(f"cauchy solves {sizes[1]} against {sizes[0]} atoms, above the "
                              f"support cap of {DEFAULT_SUPPORT_CAP} combined")
    if kind == "chaos":
        n_list = values["n_list"]
        increasing = all(a < b for a, b in zip(n_list, n_list[1:]))
        if len(n_list) < 2 or n_list[0] <= CHAOS_R or not increasing:
            raise ConfigError(f"n_list must be two or more strictly increasing sizes above "
                              f"r = {CHAOS_R}; got {n_list}")
        if values["n_resamples"] < 32:
            raise ConfigError(f"chaos needs n_resamples >= 32, got {values['n_resamples']}")
        if values["ref_n"] is None:
            values["ref_n"] = 8 * n_list[-1]
        if values["ref_n"] <= n_list[-1]:
            raise ConfigError(f"ref_n must exceed every size in n_list, got {values['ref_n']}")
    # after the kind's own checks, as a malformed size list is the first thing to mend
    if n_seeds < rules.min_seeds:
        raise ConfigError(f"{kind} needs at least {rules.min_seeds} seeds, got {n_seeds}")


def list_models() -> dict[str, str]:
    return {name: f"{m.doc}; params: {', '.join(m.keys)}" for name, m in MODELS.items()}


def schema_lines() -> list[str]:
    out = []
    for key in SCHEMA.values():
        parts = [f"{key.name} ({key.kind})"]
        if key.required:
            parts.append("required")
        elif key.default is not None:
            parts.append(f"default={key.default}")
        if key.choices:
            parts.append("choices=" + "|".join(str(c) for c in key.choices))
        if key.help:
            parts.append(key.help)
        out.append("  ".join(parts))
    return out
