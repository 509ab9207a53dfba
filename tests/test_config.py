import ast
import math
import re
from pathlib import Path

import pytest

from meanflock import config, dynamics, harness, kernels
from meanflock.cli import main
from meanflock.config import parse_config, schema_lines
from meanflock.dynamics import SimConfig
from meanflock.errors import ConfigError
from meanflock.kernels import CuckerSmaleParams, Truncation, affine_kernels

BASE = """
experiment = transport-check
model = cucker-smale
output_dir = /tmp/out
phi_lambda = 0.4
"""


def test_parse_minimal():
    cfg = parse_config(BASE)
    assert cfg.kind == "transport-check"
    assert cfg.values["model"] == "cucker-smale"
    assert cfg.values["dt"] == 0.01  # default
    assert cfg.seeds() == [0]


def test_comments_and_blanks_ignored():
    cfg = parse_config("# header\n\n" + BASE + "\nn_particles = 4  # inline\n")
    assert cfg.values["n_particles"] == 4


def test_unknown_key_cites_line():
    text = BASE + "\nwibble = 1\n"
    with pytest.raises(ConfigError, match=r"line 7: unknown key 'wibble'"):
        parse_config(text)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(BASE + "\nmodel = zero\n")


def test_type_error_names_field():
    with pytest.raises(ConfigError, match="'n_particles' expects int"):
        parse_config(BASE + "\nn_particles = four\n")


def test_choice_error():
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(BASE + "\nscheme = rk4\n")


def test_missing_required():
    with pytest.raises(ConfigError, match="required key 'output_dir'"):
        parse_config("experiment = simulate\nmodel = zero\n")


def test_kind_specific_requirements():
    text = BASE.replace("transport-check", "cauchy")
    with pytest.raises(ConfigError, match="'sizes'"):
        parse_config(text)


def test_nonpositive_dt_rejected():
    with pytest.raises(ConfigError, match="'dt'"):
        parse_config(BASE + "\ndt = -0.5\n")


def test_truncation_keys_travel_together():
    with pytest.raises(ConfigError, match="trunc"):
        parse_config(BASE + "\ntrunc_radius = 1.0\n")


def test_seed_list_and_derivation():
    # one seed block from master_seed; n_seeds defaults to 1
    assert parse_config(BASE).seeds() == [0]
    assert parse_config(BASE + "\nmaster_seed = 7\n").seeds() == [7]
    cfg = parse_config(BASE + "\nmaster_seed = 10\nn_seeds = 3\n")
    assert cfg.seeds() == [10, 11, 12]


def test_sha_is_stable():
    a = parse_config(BASE)
    b = parse_config(BASE)
    assert a.sha256() == b.sha256()


def test_schema_lines_cover_all_keys():
    text = "\n".join(schema_lines())
    for key in ("experiment", "sizes", "n_list"):
        assert key in text


def test_every_value_type_is_read_by_a_key():
    # a parser that no schema key uses is a value type nothing can write
    assert {key.kind for key in config.SCHEMA.values()} == set(config._PARSERS)


REJECTED = {
    "unknown-model": ("simulate", "model = nonsense", "unknown model 'nonsense'; available: constant-common"),
    "weakform-3-seeds": ("weakform", "model = zero\nn_seeds = 3", "weakform needs at least 16 seeds, got 3"),
    "chaos-decreasing": ("chaos", "model = zero\nn_list = 16, 8", "n_list must be two or more strictly increasing"),
    "chaos-single-size": ("chaos", "model = zero\nn_list = 8", "n_list must be two or more"),
    "chaos-r-marginals": (
        "chaos", "model = zero\nn_list = 2, 4\nref_n = 64", "sizes above r = 2; got [2, 4]"
    ),
    "chaos-ref-n": ("chaos", "model = zero\nn_list = 4, 8\nref_n = 8", "ref_n must exceed every size"),
    "chaos-resamples": (
        "chaos", "model = zero\nn_list = 4, 8\nn_resamples = 4", "chaos needs n_resamples >= 32, got 4"
    ),
    "cauchy-single-size": ("cauchy", "model = zero\nsizes = 8", "sizes must be three or more positive sizes"),
    "cauchy-two-sizes": (
        "cauchy", "model = zero\nsizes = 8, 4\nn_seeds = 2", "sizes must be three or more positive sizes"
    ),
    "cauchy-one-seed": ("cauchy", "model = zero\nsizes = 8, 4, 2", "cauchy needs at least 2 seeds, got 1"),
    "cauchy-not-halving": ("cauchy", "model = zero\nsizes = 8, 3", "each half the one before; got [8, 3]"),
    "cauchy-zero-sizes": ("cauchy", "model = zero\nsizes = 0, 0", "positive sizes"),
    # an empty list item is a typo, not a size to drop
    "sizes-empty-item": (
        "cauchy", "model = zero\nsizes = 8,,4,2\nn_seeds = 2",
        "line 4: field 'sizes' expects int_list: empty item",
    ),
    "sizes-trailing-comma": (
        "cauchy", "model = zero\nsizes = 8, 4, 2,\nn_seeds = 2",
        "line 4: field 'sizes' expects int_list: empty item",
    ),
    "sizes-leading-comma": (
        "cauchy", "model = zero\nsizes = ,8,4,2\nn_seeds = 2",
        "line 4: field 'sizes' expects int_list: empty item",
    ),
    "n-list-empty-item": (
        "chaos", "model = zero\nn_list = 4,,16", "line 4: field 'n_list' expects int_list: empty item"
    ),
    # an empty value is a missing one, not the empty string
    "model-empty": ("simulate", "model =", "line 3: field 'model' expects str: empty value"),
    "scheme-empty": (
        "simulate", "model = zero\nscheme =", "line 4: field 'scheme' expects str: empty value"
    ),
    "chaos-individual": (
        "chaos", "model = diag-individual\nn_list = 4, 8", "'chaos' requires a model without individual"
    ),
    "transport-individual": (
        "transport-check", "model = cucker-smale-individual", "'transport-check' requires a model without"
    ),
    "transport-heun": (
        "transport-check", "model = cucker-smale\nscheme = heun_stratonovich",
        "experiment 'transport-check' requires scheme euler_ito, got 'heun_stratonovich'",
    ),
    "flocking-generic": ("flocking", "model = zero", "experiment 'flocking' requires a cucker-smale model"),
    "unread-trunc": (
        "simulate", "model = cucker-smale\ntrunc_radius = 1\ntrunc_margin = 1",
        "model 'cucker-smale' does not read trunc_margin, trunc_radius",
    ),
    "unread-phi": ("simulate", "model = zero\nphi_lambda = 0.3", "model 'zero' does not read phi_lambda"),
    "unread-init-generic": (
        "simulate", "model = zero\ninit_velocity_scale = 5\ninit_position_scale = 3",
        "model 'zero' does not read init_position_scale, init_velocity_scale",
    ),
    "unread-init-cs": (
        "simulate", "model = cucker-smale\ninit_scale = 5", "model 'cucker-smale' does not read init_scale"
    ),
    "truncated-needs-radius": (
        "simulate", "model = cucker-smale-truncated", "model 'cucker-smale-truncated' requires key 'trunc_radius'"
    ),
    "no-seeds": ("simulate", "model = zero\nn_seeds = 0", "at least one seed"),
    "no-equals": (
        "simulate", "model = zero\nn_particles 4", "line 4: expected 'key = value', got 'n_particles 4'"
    ),
    # a negative seed would fail in numpy's SeedSequence, after the output dir is made
    "negative-master-seed": (
        "simulate", "model = zero\nmaster_seed = -1", "field 'master_seed' must be >= 0, got -1"
    ),
    # a run's seeds are one block from master_seed: no list can repeat, skip or negate one
    "seeds": ("simulate", "model = zero\nseeds = 3, 5", "unknown key 'seeds'"),
    "unread-flocking": (
        "flocking", "model = cucker-smale\nsizes = 8, 4, 2\nn_list = 4, 8\nradius = 3",
        "experiment 'flocking' does not read n_list, radius, sizes",
    ),
    "unread-cauchy": (
        "cauchy", "model = zero\nsizes = 8, 4, 2\nn_seeds = 2\nn_particles = 99",
        "experiment 'cauchy' does not read n_particles",
    ),
    "unread-chaos": (
        "chaos", "model = zero\nn_list = 4, 8\nwasserstein_p = 2", "experiment 'chaos' does not read wasserstein_p"
    ),
    "record-stride": ("simulate", "model = zero\nrecord_stride = 1", "unknown key 'record_stride'"),
    # simulate always writes its trajectories
    "write-trajectories": (
        "simulate", "model = zero\nwrite_trajectories = false", "unknown key 'write_trajectories'"
    ),
    # a verdict's slack, band and checkpoints are diagnostics constants, not config keys
    "rate-tolerance": ("flocking", "model = cucker-smale\nrate_tolerance = -50", "unknown key 'rate_tolerance'"),
    "fit-start-fraction": (
        "flocking", "model = cucker-smale\nfit_start_fraction = 0.5", "unknown key 'fit_start_fraction'"
    ),
    "psi-window": ("flocking", "model = cucker-smale\npsi_window = 1", "unknown key 'psi_window'"),
    "mean-band": ("weakform", "model = zero\nn_seeds = 16\nmean_band = 1e9", "unknown key 'mean_band'"),
    "var-band": ("weakform", "model = zero\nn_seeds = 16\nvar_band = 1e9", "unknown key 'var_band'"),
    "n-checkpoints": ("weakform", "model = zero\nn_seeds = 16\nn_checkpoints = 4", "unknown key 'n_checkpoints'"),
    # every verdict's test function is a bump at 0 of radius harness.TF_RADIUS
    "tf-center": ("weakform", "model = zero\nn_seeds = 16\ntf_center = 100", "unknown key 'tf_center'"),
    "tf-radius": ("chaos", "model = zero\nn_list = 4, 8\ntf_radius = 0.5", "unknown key 'tf_radius'"),
    "residual-tolerance": (
        "transport-check", "model = cucker-smale\nresidual_tolerance = 1e9", "unknown key 'residual_tolerance'"
    ),
    # either stops every seed at t = 0 or starts both measures at one point: no verdict forms
    "comparison-radius": ("comparison", "model = zero\nradius = 0", "field 'radius' must be positive, got 0.0"),
    "comparison-shift": (
        "comparison", "model = zero\ncomparison_shift = 0", "field 'comparison_shift' must be finite and nonzero"
    ),
    # value bounds, most of them shared with the library constructors (config.check_*)
    "grid": ("simulate", "model = zero\nt_final = 1\ndt = 0.3", "fields 't_final', 'dt'"),
    "t-final-zero": ("simulate", "model = zero\nt_final = 0", "field 't_final' must be positive"),
    # every float key is finite: NaN and +-inf stop at the parser, which names the field
    "t-final-inf": ("simulate", "model = zero\nt_final = inf", "field 't_final' expects float: not a finite"),
    "grid-no-step": (
        "simulate", "model = zero\nt_final = 1e-12\ndt = 1", "t_final must be an integer multiple of dt"
    ),
    "dt-nan": ("simulate", "model = zero\ndt = nan", "field 'dt' expects float: not a finite number: 'nan'"),
    "lambda-nan": ("simulate", "model = cucker-smale\nlambda = nan", "field 'lambda' expects float: not a finite"),
    # with p = inf every distance reads 0**0 = 1, and the decrease check passes on 0
    "wasserstein-p-inf": (
        "cauchy", "model = zero\nsizes = 8, 4, 2\nn_seeds = 2\nwasserstein_p = inf",
        "field 'wasserstein_p' expects float: not a finite number: 'inf'",
    ),
    "init-scale-nan": ("simulate", "model = zero\ninit_scale = nan", "field 'init_scale' expects float"),
    "init-velocity-scale-inf": (
        "transport-check", "model = cucker-smale\ninit_velocity_scale = inf",
        "field 'init_velocity_scale' expects float: not a finite number: 'inf'",
    ),
    # a bad blow-up norm would read as a numerical blow-up at step 0
    "blowup-norm-zero": ("simulate", "model = zero\nblowup_norm = 0", "field 'blowup_norm': blowup_norm must"),
    "blowup-norm-negative": ("simulate", "model = zero\nblowup_norm = -1", "blowup_norm must be positive"),
    # the assignment solver's support cap, checked before any seed is simulated
    "cauchy-support-cap": (
        "cauchy", "model = zero\nsizes = 4096, 2048, 1024\nn_seeds = 2",
        "cauchy solves 2048 against 4096 atoms, above the support cap of 4096 combined",
    ),
    "comparison-support-cap": (
        "comparison", "model = cucker-smale\nn_particles = 2100",
        "comparison solves 2100 against 2100 atoms, above the support cap of 4096 combined",
    ),
    "half-dim": ("simulate", "model = cucker-smale\nhalf_dim = 0", "field 'half_dim'"),
    "lambda": ("simulate", "model = cucker-smale\nlambda = -1", "field 'lambda'"),
    "n-particles": ("simulate", "model = zero\nn_particles = 0", "field 'n_particles'"),
    "trunc-radius": (
        "simulate", "model = cucker-smale-truncated\ntrunc_radius = 0\ntrunc_margin = 1",
        "fields 'trunc_radius', 'trunc_margin'",
    ),
    "wasserstein-p": (
        "cauchy", "model = zero\nsizes = 8, 4\nwasserstein_p = 0.5", "field 'wasserstein_p'"
    ),
    "dim": ("simulate", "model = zero\ndim = 0", "field 'dim'"),
}


@pytest.mark.parametrize("kind, lines, message", REJECTED.values(), ids=REJECTED.keys())
def test_rule_violations_rejected(tmp_path, capsys, kind, lines, message):
    text = f"experiment = {kind}\noutput_dir = {tmp_path / 'out'}\n{lines}\n"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_defaults_are_not_explicit_model_keys():
    # dim, sigma_scale etc. have defaults; only keys written in the file count
    assert parse_config(BASE).values["dim"] == 1
    assert parse_config(BASE.replace("cucker-smale", "cucker-smale-truncated")
                        + "trunc_radius = 1\ntrunc_margin = 1\n").values["trunc_radius"] == 1.0


def test_chaos_ref_n_defaults_to_eight_times_largest():
    text = BASE.replace("transport-check", "chaos") + "n_list = 4, 8\n"
    assert parse_config(text).values["ref_n"] == 64


# each bound that a library constructor enforces, written once in config:
# (bad library call, experiment kind, config lines breaking the same bound)
SHARED_RULES = {
    "dt": (lambda: SimConfig(t_final=1.0, dt=-0.5), "simulate", "model = zero\ndt = -0.5"),
    "grid-multiple": (lambda: SimConfig(t_final=1.0, dt=0.3), "simulate", "model = zero\ndt = 0.3"),
    "half-dim": (lambda: CuckerSmaleParams(half_dim=0), "simulate", "model = cucker-smale\nhalf_dim = 0"),
    "lambda": (lambda: CuckerSmaleParams(1, lam=0.0), "simulate", "model = cucker-smale\nlambda = 0"),
    "gamma": (lambda: CuckerSmaleParams(1, gamma=-1.0), "simulate", "model = cucker-smale\ngamma = -1"),
    "phi": (
        lambda: CuckerSmaleParams(1, phi_gamma=-1.0), "simulate", "model = cucker-smale\nphi_gamma = -1"
    ),
    "truncation": (
        lambda: Truncation(1.0, 0.0), "simulate",
        "model = cucker-smale-truncated\ntrunc_radius = 1\ntrunc_margin = 0",
    ),
    "dim": (lambda: affine_kernels(0), "simulate", "model = zero\ndim = 0"),
    "blowup-norm": (
        lambda: SimConfig(t_final=1.0, dt=0.5, blowup_norm=0.0), "simulate", "model = zero\nblowup_norm = 0"
    ),
}


@pytest.mark.parametrize("build, kind, lines", SHARED_RULES.values(), ids=SHARED_RULES.keys())
def test_library_and_config_share_each_rule(build, kind, lines):
    with pytest.raises(ValueError) as library:
        build()
    with pytest.raises(ConfigError) as parsed:
        parse_config(f"experiment = {kind}\noutput_dir = out\n{lines}\n")
    assert str(parsed.value).endswith(f": {library.value}")


def test_one_dimensional_comparison_has_no_support_cap(tmp_path):
    # the 1-D sort order builds no pair table, so 2 * 2100 atoms above the cap still run
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment = comparison\nmodel = zero\nn_particles = 2100\n"
                   f"t_final = 0.1\ndt = 0.05\noutput_dir = {tmp_path}\n")
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg)]) == 0


def test_choices_are_defined_once():
    assert dynamics.SCHEMES is config.SCHEMES
    assert dynamics.S1_CONVENTIONS is config.S1_CONVENTIONS
    # the field takes SimConfig's factor, not a convention name
    assert not hasattr(kernels, "S1_CONVENTIONS")
    assert config.SCHEMA["scheme"].choices is config.SCHEMES
    assert config.SCHEMA["s1_convention"].choices is config.S1_CONVENTIONS


def test_time_grid_has_no_step_only_at_t_final_zero():
    # configs reject t_final = 0 (REJECTED above); the library takes it
    assert SimConfig(t_final=0.0, dt=0.1).steps == 0
    for t_final, dt in ((1e-12, 1.0), (1.0, math.inf), (math.inf, 0.1)):
        with pytest.raises(ValueError, match="integer multiple"):
            SimConfig(t_final=t_final, dt=dt)


def test_kind_key_table_covers_the_schema():
    assert not config.EXPERIMENT_KEYS & config.MODEL_KEYS
    assert config.EXPERIMENT_KEYS <= set(config.SCHEMA)
    # every other key is read by every run: a key left in SCHEMA but dropped
    # from every KINDS row would be accepted and ignored by every kind
    assert set(config.SCHEMA) - config.EXPERIMENT_KEYS - config.MODEL_KEYS == {
        "blowup_norm", "dt", "experiment", "init_kind", "master_seed", "model", "n_seeds",
        "output_dir", "s1_convention", "scheme", "t_final",
    }


def test_kind_rows_agree_with_the_code():
    for name, kind in config.KINDS.items():
        assert set(kind.required) <= set(kind.keys), name
        assert set(kind.schemes) <= set(config.SCHEMES), name
        if kind.min_seeds > 1:
            assert f"{name} at least {kind.min_seeds}" in config.SCHEMA["n_seeds"].help
    assert set(config.KINDS) == set(harness.EXPERIMENTS)


def test_every_kind_key_is_read_by_the_harness():
    # a key left in a KINDS row but read nowhere would be accepted and ignored
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    read = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
        and (getattr(node.value, "id", None) == "values" or getattr(node.value, "attr", None) == "values")
    }
    orphans = {name: sorted(set(kind.keys) - read) for name, kind in config.KINDS.items()}
    assert not any(orphans.values()), orphans


# the whole message of each rule that a KINDS row declares, for its REJECTED case
KIND_RULE_MESSAGES = {
    "no-seeds": "at least one seed is required",
    "weakform-3-seeds": "weakform needs at least 16 seeds, got 3",
    "cauchy-one-seed": "cauchy needs at least 2 seeds, got 1",
    "chaos-individual":
        "experiment 'chaos' requires a model without individual noise, got 'diag-individual'",
    "transport-individual": "experiment 'transport-check' requires a model without individual noise, "
                            "got 'cucker-smale-individual'",
    "transport-heun": "experiment 'transport-check' requires scheme euler_ito, got 'heun_stratonovich'",
    "flocking-generic": "experiment 'flocking' requires a cucker-smale model, got 'zero'",
}


@pytest.mark.parametrize("case", KIND_RULE_MESSAGES)
def test_kind_rule_messages_are_unchanged(case):
    kind, lines, _ = REJECTED[case]
    with pytest.raises(ConfigError) as info:
        parse_config(f"experiment = {kind}\noutput_dir = /tmp/out\n{lines}\n")
    assert str(info.value) == KIND_RULE_MESSAGES[case]


def test_every_kind_rule_has_a_rejected_case():
    def kinds_rejected(phrase):
        return {REJECTED[case][0] for case, message in KIND_RULE_MESSAGES.items() if phrase in message}

    rows = config.KINDS.items()
    assert kinds_rejected("seeds, got") == {name for name, kind in rows if kind.min_seeds > 1}
    assert kinds_rejected("without individual noise") == {
        name for name, kind in rows if kind.common_noise_only
    }
    assert kinds_rejected("requires scheme") == {
        name for name, kind in rows if kind.schemes != config.SCHEMES
    }
    assert kinds_rejected("cucker-smale model") == {
        name for name, kind in rows if kind.cucker_smale_only
    }
