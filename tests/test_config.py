import dataclasses
import math
import sys

import numpy as np
import pytest

from inpaintlab import (
    ConfigError,
    GaussianMixture,
    GMMDenoiser,
    MaskOperator,
    SamplerConfig,
    Schedule,
    make_grid,
    make_observation,
    posterior_given_state,
)
from inpaintlab.config import _SAMPLER_KEYS, load_config, parse_flat
from inpaintlab.gmm import Evaluation
from inpaintlab.io import dsmp_header, write_pgm_mask, write_samples
from inpaintlab.masklift import LatentMask, PixelMask

BASIC = """\
# two-component prior in R^2
prior.component.0.weight = 0.5
prior.component.0.mean   = 2, 2
prior.component.0.cov    = 1, 1
prior.component.1.weight = 0.5
prior.component.1.mean   = -2, -2
prior.component.1.cov    = 1, 1

schedule   = linear-flow
grid.k     = 10
grid.spacing = uniform
eta        = 0.8
gamma      = 0.2
n_chains   = 8
seed       = 3
out_dir    = out
methods    = ding, ddnm
mask.inline  = 1, 0
xstar.inline = 1.5, -0.5
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_flat_basics():
    pairs = parse_flat("a = 1\n# comment\n b.c = hello # trailing\n\n")
    assert pairs == {"a": "1", "b.c": "hello"}


def test_parse_flat_line_diagnostics():
    with pytest.raises(ConfigError, match="line 2"):
        parse_flat("a = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat("a = 1\na = 2\n")


def test_load_basic_config(tmp_path):
    cfg = load_config(_write(tmp_path, BASIC))
    assert cfg.prior.n_components == 2 and cfg.prior.dim == 2
    assert cfg.grid.num_steps == 10
    assert cfg.methods == ("ding", "ddnm")
    assert cfg.mask.observed_count == 1
    np.testing.assert_allclose(cfg.x_star, [1.5, -0.5])
    assert str(cfg.out_dir) == "out"  # resolved against the cwd at run time
    scfg = cfg.sampler_config("ding")
    assert scfg.eta == 0.8 and scfg.gamma == 0.2 and scfg.seed == 3


def test_method_overrides(tmp_path):
    text = BASIC + "method.ding.gamma = 0.05\nmethod.ding.ding_nz = 3\nmethod.ddnm.eta = 0.3\n"
    text += "zeta = 0.5\nmethod.ding.zeta = 0.25\nmethod.ddnm.lambda = 2\n"
    text += "final_replacement = off\nmethod.ding.final_replacement = on\n"
    cfg = load_config(_write(tmp_path, text))
    assert cfg.sampler_config("ding").gamma == 0.05
    assert cfg.sampler_config("ding").ding_nz == 3
    assert cfg.sampler_config("ddnm").eta == 0.3
    assert cfg.sampler_config("ddnm").gamma == 0.2  # unoverridden falls back
    assert cfg.sampler_config("ding").dps_scale == 0.25
    assert cfg.sampler_config("ddnm").dps_scale == 0.5
    assert cfg.sampler_config("ddnm").diffpir_lambda == 2.0
    assert cfg.sampler_config("ding").diffpir_lambda == SamplerConfig.diffpir_lambda
    assert cfg.sampler_config("ding").final_replacement is True
    assert cfg.sampler_config("ddnm").final_replacement is False


def test_sampler_key_table_names_every_knob():
    knobs = {f.name for f in dataclasses.fields(SamplerConfig)}
    knobs -= {"method", "grid", "seed", "n_chains"}
    assert sorted(name for name, *_ in _SAMPLER_KEYS.values()) == sorted(knobs)


def test_unset_knobs_keep_sampler_defaults(tmp_path):
    text = "\n".join(line for line in BASIC.splitlines() if not line.startswith(("eta", "gamma")))
    cfg = load_config(_write(tmp_path, text))
    assert cfg.samplers == {
        m: SamplerConfig(m, cfg.grid, seed=3, n_chains=8) for m in ("ding", "ddnm")
    }
    assert list(cfg.samplers) == ["ding", "ddnm"]
    assert (cfg.eta, cfg.gamma) == (SamplerConfig.eta, SamplerConfig.gamma)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(_write(tmp_path, BASIC + "grid.spacng = uniform\n"))


@pytest.mark.parametrize("key", [
    "prior.component.1.covariance = 9, 9",
    "prior.component.one.weight = 0.5",
    "prior.component.1 = 0.5",
    "prior.component.01.mean = 1, 1",
])
def test_unknown_prior_component_key_rejected(tmp_path, key):
    name = key.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"unknown config key '{name}'"):
        load_config(_write(tmp_path, BASIC + key + "\n"))


@pytest.mark.parametrize("line", [
    "oracle.n = 0", "oracle.n = -5", "sw2.projections = 0", "cpsnr.peak = 0", "cpsnr.peak = -1",
    # a global knob that every listed method overrides is still checked
    pytest.param("gamma = -0.1\nmethod.ding.gamma = 0.1\nmethod.ddnm.gamma = 0.1",
                 id="gamma-overridden"),
    pytest.param("eta = 5\nmethod.ding.eta = 0.5\nmethod.ddnm.eta = 0.5", id="eta-overridden"),
    pytest.param("zeta = -1\nmethod.ding.zeta = 1\nmethod.ddnm.zeta = 1", id="zeta-overridden"),
    pytest.param("lambda = 0\nmethod.ding.lambda = 1\nmethod.ddnm.lambda = 1",
                 id="lambda-overridden"),
    pytest.param("ding_nz = 0\nmethod.ding.ding_nz = 1\nmethod.ddnm.ding_nz = 1",
                 id="ding_nz-overridden"),
    # an override meets its knob's rule whether its method is listed or not
    "method.ding.eta = 0", "method.ddnm.eta = 5", "method.dps.eta = -0.5",
    "method.dps.gamma = -1", "method.blended.gamma = 0", "method.dps.zeta = 0",
    "method.diffpir.lambda = -2", "method.blended.ding_nz = 0",
])
def test_run_time_values_checked_at_load(tmp_path, line):
    key = line.split("=")[0].strip()
    lines = [kept for kept in BASIC.splitlines() if kept.split("=")[0].strip() != key]
    want = "must lie in \\[0, 1\\]" if key.split(".")[-1] == "eta" else "must be strictly positive"
    if key == "method.ding.eta":  # within [0, 1], but ding's own rule
        want = "must be > 0 for ding"
    with pytest.raises(ConfigError, match=f"^{key}: {want}"):
        load_config(_write(tmp_path, "\n".join(lines) + "\n" + line + "\n"))


@pytest.mark.parametrize("line, message", [
    ("method.diffpir.lambda = -1", "method.diffpir.lambda: must be strictly positive, got '-1'"),
    ("method.dps.zeta = 0", "method.dps.zeta: must be strictly positive, got '0'"),
    # ding reads no zeta, and the error names the key, not a method or a field
    ("zeta = -1", "zeta: must be strictly positive, got '-1'"),
    ("n_chains = 0", "n_chains: must be a positive integer, got '0'"),
    ("seed = -3", "seed: must be non-negative, got '-3'"),
    ("eta = 0", "eta: must be > 0 for ding (at 0 it applies no guidance), got '0'"),
])
def test_value_errors_name_the_key_that_set_the_value(tmp_path, line, message):
    key = line.split("=")[0].strip()
    lines = [kept for kept in BASIC.splitlines() if kept.split("=")[0].strip() != key]
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, "\n".join(lines) + "\n" + line + "\n"))
    assert str(info.value) == message


_DSMP_ROWS = "must be below 2**32, the rows a .dsmp file holds"


@pytest.mark.parametrize("lines, message", [
    (["n_chains = 4294967296"], f"n_chains: {_DSMP_ROWS}, got '4294967296'"),
    (["oracle.n = 4294967296"], f"oracle.n: {_DSMP_ROWS}, got '4294967296'"),
    (["grid.k = 1", "n_chains = 2147483648", "trajectories = on"],
     f"trajectories: (grid.k + 1) * n_chains = 4294967296 {_DSMP_ROWS}"),
    # grid.k alone: its knots would take 32 GiB
    (["grid.k = 4294967295", "n_chains = 1", "trajectories = on"],
     f"trajectories: (grid.k + 1) * n_chains = 4294967296 {_DSMP_ROWS}"),
])
def test_row_counts_past_the_dsmp_header_rejected_at_load(tmp_path, monkeypatch, lines, message):
    # a .dsmp header stores n as uint32; only the config is read, nothing is
    # allocated: the time grid is never built
    def no_grid(*args):
        raise AssertionError("make_grid called before the row counts were checked")

    monkeypatch.setattr("inpaintlab.config.make_grid", no_grid)
    keys = {line.split("=")[0].strip() for line in lines}
    kept = [line for line in BASIC.splitlines() if line.split("=")[0].strip() not in keys]
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, "\n".join(kept + lines) + "\n"))
    assert str(info.value) == message


def test_row_counts_just_below_the_dsmp_header_load(tmp_path):
    kept = [line for line in BASIC.splitlines() if not line.startswith(("n_chains", "grid.k"))]
    cfg = load_config(_write(tmp_path, "\n".join(kept + [
        "grid.k = 1", "n_chains = 2147483647", "trajectories = on", "oracle.n = 4294967295",
    ]) + "\n"))
    assert (cfg.n_chains, cfg.oracle_n, cfg.record_trajectories) == (2**31 - 1, 2**32 - 1, True)


def test_grid_whose_knots_cannot_be_allocated_is_a_config_error(tmp_path, monkeypatch):
    # with trajectories off no row count bounds grid.k: its 8 GB of knots are
    # the first allocation, refused here by a patched make_grid
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr("inpaintlab.config.make_grid", no_memory)
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, BASIC.replace("grid.k     = 10", "grid.k = 1000000000")))
    assert str(info.value) == ("grid.k: its knots need 8000000008 bytes, more than could be "
                               "allocated, got '1000000000'")


@pytest.mark.parametrize("extra", ["method.ding.eta = 0.5", "methods = ddnm"])
def test_global_eta_zero_accepted_where_ding_does_not_read_it(tmp_path, extra):
    lines = [kept for kept in BASIC.splitlines() if not kept.startswith(("eta", "methods"))]
    if not extra.startswith("methods"):
        lines.append("methods = ding, ddnm")
    cfg = load_config(_write(tmp_path, "\n".join(lines + ["eta = 0", extra]) + "\n"))
    assert cfg.sampler_config("ddnm").eta == 0.0


def test_run_time_values_loaded(tmp_path):
    text = BASIC + "oracle.n = 5\nsw2.projections = 3\ncpsnr.peak = 2.5\n"
    cfg = load_config(_write(tmp_path, text))
    assert (cfg.oracle_n, cfg.sw2_projections, cfg.cpsnr_peak) == (5, 3, 2.5)
    assert load_config(_write(tmp_path, BASIC)).oracle_n is None


def test_problem_draws_from_its_rng_only_when_observation_noisy_is_on(tmp_path):
    off = load_config(_write(tmp_path, BASIC)).problem(np.random.default_rng(0))
    np.testing.assert_array_equal(off.y, [1.5, 0.0])
    on = load_config(_write(tmp_path, BASIC + "observation.noisy = on\n"))
    assert on.problem(np.random.default_rng(0)).y[0] != 1.5
    np.testing.assert_array_equal(on.problem().y, [1.5, 0.0])


@pytest.mark.parametrize("key, value", [
    ("prior.component.0.weight", "half"),
    ("prior.component.1.mean", "-2, minus two"),
    ("prior.component.0.cov", "1; 1"),
    ("mask.inline", "1, o"),
    ("xstar.inline", "1.5, -0.5x"),
    ("prior.component.0.weight", "nan"),
    ("xstar.inline", "1.5, inf"),
    ("cpsnr.peak", "nan"),
])
def test_malformed_number_names_its_key(tmp_path, key, value):
    lines = [line for line in BASIC.splitlines() if line.split("=")[0].strip() != key]
    with pytest.raises(ConfigError, match=f"^{key}: expected a"):
        load_config(_write(tmp_path, "\n".join(lines) + f"\n{key} = {value}\n"))


_ROOT_MAX = math.sqrt(sys.float_info.max)


@pytest.mark.parametrize("key, accepted, rejected", [
    # gamma * gamma must be finite: the largest such double, and the next one up
    ("gamma", _ROOT_MAX, math.nextafter(_ROOT_MAX, math.inf)),
    ("method.ding.gamma", _ROOT_MAX, math.nextafter(_ROOT_MAX, math.inf)),
    ("method.dps.gamma", 1e-200, 1e300),  # dps is not listed: checked all the same
    # peak * peak must be positive and finite, at both ends
    ("cpsnr.peak", _ROOT_MAX, math.nextafter(_ROOT_MAX, math.inf)),
    ("cpsnr.peak", 1.5717277847026288e-162, 1.5717277847026285e-162),
])
def test_squared_values_checked_at_both_boundaries(tmp_path, key, accepted, rejected):
    lines = [line for line in BASIC.splitlines() if line.split("=")[0].strip() != key]
    cfg = load_config(_write(tmp_path, "\n".join(lines) + f"\n{key} = {accepted!r}\n"))
    read = {"gamma": cfg.samplers["ddnm"].gamma, "method.ding.gamma": cfg.samplers["ding"].gamma,
            "method.dps.gamma": accepted, "cpsnr.peak": cfg.cpsnr_peak}
    assert read[key] == accepted
    want = f"^{key}: must be strictly positive with a (nonzero )?finite square, got '{rejected!r}'$"
    with pytest.raises(ConfigError, match=want.replace("+", "\\+")):
        load_config(_write(tmp_path, "\n".join(lines) + f"\n{key} = {rejected!r}\n"))


def test_malformed_prior_csv_row_names_its_line(tmp_path):
    (tmp_path / "prior.csv").write_text("0.4, 1.0, -1.0, 0.5, 0.7\n0.6, 0.0, two, 1.0, 1.0\n")
    text = "\n".join(
        line for line in BASIC.splitlines() if not line.startswith("prior.component")
    ) + "\nprior.csv = prior.csv\n"
    with pytest.raises(ConfigError, match="prior.csv line 2: expected a list of numbers"):
        load_config(_write(tmp_path, text))


def test_unknown_method_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown method"):
        load_config(_write(tmp_path, BASIC.replace("ding, ddnm", "ding, dnnm")))
    with pytest.raises(ConfigError, match="unknown method"):
        load_config(_write(tmp_path, BASIC + "method.dpss.gamma = 1\n"))
    with pytest.raises(ConfigError, match="'ding' is listed more than once"):
        load_config(_write(tmp_path, BASIC.replace("ding, ddnm", "ding, ddnm, ding")))


def test_dimension_mismatches_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mask"):
        load_config(_write(tmp_path, BASIC.replace("mask.inline  = 1, 0", "mask.inline = 1, 0, 1")))
    with pytest.raises(ConfigError, match="x_star"):
        load_config(_write(tmp_path, BASIC.replace("xstar.inline = 1.5, -0.5", "xstar.inline = 1.5")))


def test_invalid_override_value_rejected(tmp_path):
    with pytest.raises(ConfigError, match="ding"):
        load_config(_write(tmp_path, BASIC + "method.ding.gamma = -3\n"))


def test_full_covariance_inline(tmp_path):
    text = BASIC.replace("prior.component.0.cov    = 1, 1",
                         "prior.component.0.cov    = 1, 0.3, 0.3, 2")
    cfg = load_config(_write(tmp_path, text))
    assert not cfg.prior.is_diagonal
    np.testing.assert_allclose(cfg.prior.covariances[0], [[1.0, 0.3], [0.3, 2.0]])


def test_prior_csv(tmp_path):
    csv = tmp_path / "prior.csv"
    csv.write_text("0.4, 1.0, -1.0, 0.5, 0.7\n0.6, 0.0, 2.0, 1.0, 1.0\n")
    text = "\n".join(
        line for line in BASIC.splitlines() if not line.startswith("prior.component")
    ) + "\nprior.csv = prior.csv\n"
    cfg = load_config(_write(tmp_path, text))
    assert cfg.prior.n_components == 2 and cfg.prior.dim == 2
    np.testing.assert_allclose(cfg.prior.weights, [0.4, 0.6])
    np.testing.assert_allclose(cfg.prior.covariances[0], [0.5, 0.7])


def test_mask_from_pgm_and_xstar_from_dsmp(tmp_path):
    write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.array([[1, 0]], dtype=np.uint8)))
    write_samples(tmp_path / "ref.dsmp", np.array([[1.5, -0.5], [9.0, 9.0]]))
    text = BASIC.replace("mask.inline  = 1, 0", "mask.pgm = m.pgm").replace(
        "xstar.inline = 1.5, -0.5", "xstar.dsmp = ref.dsmp"
    )
    cfg = load_config(_write(tmp_path, text))
    np.testing.assert_array_equal(cfg.mask.m, [1.0, 0.0])
    np.testing.assert_allclose(cfg.x_star, [1.5, -0.5])


@pytest.mark.parametrize("extra, first, second", [
    ("prior.csv = nosuch.csv", "prior.csv", "prior.component.0.weight"),
    ("mask.pgm = nosuch.pgm", "mask.inline", "mask.pgm"),
    ("xstar.dsmp = nosuch.dsmp", "xstar.inline", "xstar.dsmp"),
], ids=["prior", "mask", "xstar"])
def test_two_sources_for_one_input_rejected(tmp_path, extra, first, second):
    # the second source was silently ignored; the error names both keys and
    # comes before any input file is read (none of these files exists)
    with pytest.raises(ConfigError, match=f"^{first} and {second} are both given"):
        load_config(_write(tmp_path, BASIC + extra + "\n"))


def test_bad_prior_csv_and_xstar_file_are_config_errors(tmp_path):
    # each reached exit 2 only through the CLI's blanket ValueError mapping before
    (tmp_path / "prior.csv").write_text("0.3, 0.0, 1.0\n0.3, 1.0, 1.0\n")
    no_inline = [line for line in BASIC.splitlines() if not line.startswith("prior.component")]
    with pytest.raises(ConfigError, match="invalid prior: weights sum to"):
        load_config(_write(tmp_path, "\n".join(no_inline) + "\nprior.csv = prior.csv\n"))
    for rows, match in (([[np.nan, 0.0]], "x_star must be finite"), (np.zeros((0, 2)), "x_star has 0")):
        write_samples(tmp_path / "ref.dsmp", np.array(rows))
        text = BASIC.replace("xstar.inline = 1.5, -0.5", "xstar.dsmp = ref.dsmp")
        with pytest.raises(ConfigError, match=match):
            load_config(_write(tmp_path, text))
    (tmp_path / "m.pgm").write_bytes(b"P5\n2 x\n255\n" + bytes(2))
    with pytest.raises(ConfigError, match="m.pgm: malformed PGM header"):
        load_config(_write(tmp_path, BASIC.replace("mask.inline  = 1, 0", "mask.pgm = m.pgm")))


def test_missing_required_sections(tmp_path):
    no_prior = "\n".join(
        line for line in BASIC.splitlines() if not line.startswith("prior")
    )
    with pytest.raises(ConfigError, match="prior"):
        load_config(_write(tmp_path, no_prior))
    with pytest.raises(ConfigError, match="methods"):
        load_config(_write(tmp_path, BASIC.replace("methods    = ding, ddnm\n", "")))
    with pytest.raises(ConfigError, match="mask"):
        load_config(_write(tmp_path, BASIC.replace("mask.inline  = 1, 0\n", "")))


def _prior():
    return GaussianMixture([0.5, 0.5], [[2.0, 2.0], [-2.0, -2.0]], [[1.0, 1.0], [1.0, 1.0]])


def _problem():
    return make_observation(np.array([1.5, -0.5]), MaskOperator([1, 0]), 0.2)


_X = np.array([[0.3, -0.1], [1.0, 2.0]])
VALUE_CLASSES = {
    "GaussianMixture": _prior,
    "Evaluation": lambda: Evaluation(0.5, _X.copy()),
    "ConditionalMixture": lambda: GMMDenoiser(_prior(), Schedule()).evaluate(_X, 0.5),
    "PosteriorGivenState": lambda: posterior_given_state(_problem(), _prior(), Schedule(), _X,
                                                         0.5),
    "MaskOperator": lambda: MaskOperator([1, 0, 1]),
    "InpaintingProblem": _problem,
    "TimeGrid": lambda: make_grid(3),
    "PixelMask": lambda: PixelMask(np.ones((2, 2))),
    "LatentMask": lambda: LatentMask(np.ones((1, 2, 2)), (1, 2, 2)),
}


@pytest.mark.parametrize("name", [*VALUE_CLASSES, "ExperimentConfig"])
def test_array_holding_values_compare_by_identity(tmp_path, name):
    # their fields hold arrays, so a generated __eq__ would raise for two
    # distinct instances: two instances from equal inputs are two objects
    if name == "ExperimentConfig":
        path = _write(tmp_path, BASIC)
        a, b = load_config(path), load_config(path)
    else:
        a, b = VALUE_CLASSES[name](), VALUE_CLASSES[name]()
    assert type(a).__name__ == name and "__eq__" not in vars(type(a))
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and hash(a) != hash(b)


def test_sampler_configs_from_one_load_compare_by_value(tmp_path):
    # a SamplerConfig holds the config's one TimeGrid: equal knobs, equal configs
    cfg = load_config(_write(tmp_path, BASIC))
    a = cfg.sampler_config("ding")
    b = dataclasses.replace(a)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != dataclasses.replace(a, seed=4)
    # two grids, though of equal knots, are two objects
    assert SamplerConfig("ding", make_grid(3)) != SamplerConfig("ding", make_grid(3))
    assert cfg.sampler_config("ddnm").grid is a.grid


# each load-time check of the config and its prior, one single-fault case per
# ConfigError that load_config raises and per rule of a checked key: (dropped
# key prefixes, added lines, input files by name, the message; <dir> stands
# for the config's directory)
_COMPONENT_2 = ["prior.component.2.weight = 0.5", "prior.component.2.mean = -2, -2",
                "prior.component.2.cov = 1, 1"]
_CSV = (("prior.component",), ["prior.csv = prior.csv"])
_NAN_ROW = dsmp_header(1, 2) + np.array([np.nan, 0.0]).tobytes()


def _case(drop, add, message, files=None, *, id):
    return pytest.param(drop, add, files or {}, message, id=id)


def _csv(text, message, *, id):
    return _case(*_CSV, message, {"prior.csv": text}, id=id)


def _set(key, value, message, *, id):
    """BASIC with ``key = value`` in place of its own line, if it has one."""
    return _case((key,), [f"{key} = {value}"], message, id=id)


# numpy sizes no array past sys.maxsize bytes.  Per unit of its key, ding's
# step holds the largest of the (64 * ceil(n / 64), ding_nz, d) proposal draw
# and the denoiser's (K, d, n * ding_nz) products and (d + 1, n * ding_nz)
# rows, and sliced_w2 holds (d + 1) * 8 bytes per projection; d = 2 in each
# (drop, add, files, key, what, bytes per unit, id)
_SIZES = [
    ((), [], {}, "ding_nz", "its proposals", 8 * 64 * 2, "ding_nz-draw"),  # n = 8, K = 2
    (("n_chains",), ["n_chains = 64"], {}, "method.ding.ding_nz", "its proposals",
     8 * 2 * 2 * 64, "ding_nz-products"),  # n = 64, K = 2
    (("prior.component", "n_chains"), ["prior.csv = prior.csv", "n_chains = 64"],
     {"prior.csv": "1, 0, 0, 1, 1\n"}, "ding_nz", "its proposals", 8 * 3 * 64,
     "ding_nz-rows"),  # n = 64, K = 1
    ((), [], {}, "sw2.projections", "its directions and results", 8 * 3, "sw2.projections"),
]


def _past_numpy(drop, add, files, key, what, unit, value, *, id):
    return _case(drop + (key,), add + [f"{key} = {value}"], f"{key}: {what} need "
                 f"{value * unit} bytes, more than could be allocated, got '{value}'", files,
                 id=id)


@pytest.mark.parametrize("drop, add, files, message", [
    # parse_flat
    _case((), ["= 1"], "line 20: empty key", id="empty-key"),
    _case((), ["not a pair"], "line 20: expected 'key = value', got 'not a pair'", id="no-equals"),
    _case((), ["seed = 4"], "line 20: duplicate key 'seed'", id="duplicate-key"),
    # an empty value, rejected before any file is read
    _set("out_dir", "", "out_dir: empty value on line 19", id="empty-out_dir"),
    _case(("xstar.inline",), ["xstar.dsmp =  # none"], "xstar.dsmp: empty value on line 19",
          id="empty-file-key"),
    _set("method.ding.eta", "", "method.ding.eta: empty value on line 20", id="empty-knob"),
    # keys, and the one source of each input
    _case((), ["grid.spacng = uniform"], "unknown config key 'grid.spacng'", id="unknown-key"),
    _case((), ["prior.component.1 = 0.5"], "unknown config key 'prior.component.1'; expected "
          "prior.component.<i>.weight, .mean or .cov", id="unknown-component-key"),
    _case((), ["method.dpss.gamma = 1"], "method.dpss.gamma: unknown method 'dpss'; expected one "
          "of ('blended', 'dps', 'ding', 'ddnm', 'diffpir')", id="override-unknown-method"),
    _case((), ["xstar.dsmp = nosuch.dsmp"], "xstar.inline and xstar.dsmp are both given; give "
          "one of them", id="two-sources"),
    # the prior
    _csv("# no rows\n", "<dir>/prior.csv: empty prior CSV", id="csv-empty"),
    _csv("0.5, 1, 1, 1\n", "<dir>/prior.csv: rows must hold weight, d means, d variances",
         id="csv-even-width"),
    _csv("1\n", "<dir>/prior.csv: rows must hold weight, d means, d variances", id="csv-narrow"),
    _csv("0.5, 1, 1\n0.5, 1, 1, 2, 2\n", "<dir>/prior.csv: ragged rows", id="csv-ragged"),
    _csv("1, 1, x\n", "<dir>/prior.csv line 1: expected a list of numbers, got '1, 1, x'",
         id="csv-malformed"),
    _csv("0.5, 1, 1\n0.5, 1, inf\n",
         "<dir>/prior.csv line 2: expected a finite number in every entry, got '0.5, 1, inf'",
         id="csv-non-finite"),
    _csv(b"0.5, 1, 1\n\xff\n", "<dir>/prior.csv: not a text file (invalid start byte at byte 10)",
         id="csv-binary"),
    _csv("0.5, 1, 1\n0.5, 1, -1\n", "invalid prior: diagonal covariances must be strictly "
         "positive", id="csv-variance"),
    _csv("0.5, 1, 1\n0.25, 1, 1\n", "invalid prior: weights sum to 0.75, expected 1 within 1e-12",
         id="csv-weight-sum"),
    _case(("prior",), [], "no prior given (prior.csv or prior.component.* keys)", id="no-prior"),
    _case(("prior.component.1",), _COMPONENT_2, "prior component indices must be 0..1",
          id="component-gap"),
    _case(("prior.component.1.cov",), [], "missing key prior.component.1.cov",
          id="component-key-missing"),
    _case(("prior.component.1.mean",), ["prior.component.1.mean = -2, -2, -2"],
          "prior component means have inconsistent dimensions", id="mean-dimensions"),
    _case(("prior.component.1.cov",), ["prior.component.1.cov = 1, 1, 1"],
          "prior covariances must have 2 (diagonal) or 4 (full) entries", id="cov-entries"),
    _set("prior.component.0.weight", "half",
         "prior.component.0.weight: expected a number, got 'half'", id="weight-malformed"),
    _set("prior.component.0.weight", "inf",
         "prior.component.0.weight: expected a finite number, got 'inf'", id="weight-non-finite"),
    _set("prior.component.0.weight", "0", "invalid prior: all mixture weights must be strictly "
         "positive", id="weight-zero"),
    _set("prior.component.1.mean", "-2, minus two",
         "prior.component.1.mean: expected a list of numbers, got '-2, minus two'",
         id="mean-malformed"),
    # mask and reference
    _case(("mask.inline",), [], "no mask given (mask.inline or mask.pgm)", id="no-mask"),
    _set("mask.inline", "1, 2", "mask.inline: entries must be 0 or 1, got '1, 2'",
         id="mask-entries"),
    _set("mask.inline", "1, 0, 1", "mask.inline: mask has 3 entries, prior dimension is 2",
         id="mask-dimension"),
    _case(("xstar.inline",), [], "no reference given (xstar.inline or xstar.dsmp)",
          id="no-reference"),
    _set("xstar.inline", "1.5", "xstar.inline: x_star has 1 entries, prior dimension is 2",
         id="xstar-dimension"),
    _set("xstar.inline", "1.5, inf",
         "xstar.inline: expected a finite number in every entry, got '1.5, inf'",
         id="xstar-non-finite"),
    _case(("xstar.inline",), ["xstar.dsmp = ref.dsmp"], "xstar.dsmp: x_star must be finite, "
          "got [nan  0.]", {"ref.dsmp": _NAN_ROW}, id="xstar-dsmp-non-finite"),
    # methods
    _case(("methods",), [], "no methods listed", id="no-methods"),
    _set("methods", ",", "methods: the list is empty", id="no-method"),
    _set("methods", "ding, dnnm", "methods: unknown method 'dnnm'; expected one of ('blended', "
         "'dps', 'ding', 'ddnm', 'diffpir')", id="unknown-method"),
    _set("methods", "ding, ddnm, ding", "methods: 'ding' is listed more than once",
         id="method-twice"),
    # each key's reader and rule
    _set("schedule", "vp", "schedule: must be one of linear-flow, trig-vp, got 'vp'",
         id="schedule"),
    _set("grid.k", "ten", "grid.k: expected an integer, got 'ten'", id="grid.k-malformed"),
    _set("grid.k", "0", "grid.k: must be a positive integer, got '0'", id="grid.k"),
    # knots past any array size, where numpy raises ValueError or IndexError, not MemoryError
    *(_set("grid.k", k, f"grid.k: its knots need {8 * (k + 1)} bytes, more than could be "
           f"allocated, got '{k}'", id=f"grid.k-{name}")
      for name, k in (("2**60", 2**60), ("2**63-1", 2**63 - 1), ("10**30", 10**30))),
    _set("grid.spacing", "cubic", "grid.spacing: must be one of uniform, quadratic, got 'cubic'",
         id="grid.spacing"),
    _set("n_chains", "0", "n_chains: must be a positive integer, got '0'", id="n_chains"),
    _set("seed", "-3", "seed: must be non-negative, got '-3'", id="seed"),
    _set("oracle.n", "0", "oracle.n: must be strictly positive, got '0'", id="oracle.n"),
    _set("sw2.projections", "0", "sw2.projections: must be strictly positive, got '0'",
         id="sw2.projections"),
    *(_past_numpy(*size, sys.maxsize // size[-1] + 1, id=f"{id}-past-numpy")
      for *size, id in _SIZES),
    _past_numpy(*_SIZES[0][:-1], 10**21, id="ding_nz-10**21"),
    _past_numpy(*_SIZES[-1][:-1], 10**30, id="sw2.projections-10**30"),
    _set("sw2.seed", "-1", "sw2.seed: must be non-negative, got '-1'", id="sw2.seed"),
    _set("cpsnr.peak", "nan", "cpsnr.peak: expected a finite number, got 'nan'",
         id="cpsnr.peak-non-finite"),
    _set("cpsnr.peak", "0",
         "cpsnr.peak: must be strictly positive with a nonzero finite square, got '0'",
         id="cpsnr.peak"),
    _set("trajectories", "maybe", "trajectories: expected on/off, got 'maybe'",
         id="trajectories"),
    _set("observation.noisy", "2", "observation.noisy: expected on/off, got '2'",
         id="observation.noisy"),
    _set("eta", "1.5", "eta: must lie in [0, 1], got '1.5'", id="eta"),
    _set("method.ding.eta", "0",
         "method.ding.eta: must be > 0 for ding (at 0 it applies no guidance), got '0'",
         id="eta-ding"),
    _set("gamma", "0", "gamma: must be strictly positive with a finite square, got '0'",
         id="gamma"),
    _set("zeta", "x", "zeta: expected a number, got 'x'", id="zeta-malformed"),
    _set("method.dps.zeta", "0", "method.dps.zeta: must be strictly positive, got '0'",
         id="zeta"),
    _set("lambda", "-inf", "lambda: expected a finite number, got '-inf'",
         id="lambda-non-finite"),
    _set("ding_nz", "0", "ding_nz: must be strictly positive, got '0'", id="ding_nz"),
    _set("method.blended.ding_nz", "1.0", "method.blended.ding_nz: expected an integer, "
         "got '1.0'", id="ding_nz-malformed"),
    _set("final_replacement", "sometimes", "final_replacement: expected on/off, got 'sometimes'",
         id="final_replacement"),
])
def test_config_input_checks(tmp_path, drop, add, files, message):
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, drop, add, files)
    assert str(info.value) == message.replace("<dir>", str(tmp_path))


def _load(tmp_path, drop, add, files):
    lines = [line for line in BASIC.splitlines() if not line.startswith(drop)]
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    return load_config(_write(tmp_path, "\n".join(lines + add) + "\n"))


@pytest.mark.parametrize("drop, add, files, key, unit", [(*size[:4], size[5]) for size in _SIZES],
                         ids=[size[-1] for size in _SIZES])
def test_sizes_up_to_the_largest_numpy_array_load(tmp_path, drop, add, files, key, unit):
    # one below each past-numpy case of test_config_input_checks; loading allocates none of it
    cfg = _load(tmp_path, drop + (key,), add + [f"{key} = {sys.maxsize // unit}"], files)
    assert sys.maxsize // unit in (cfg.sw2_projections, cfg.sampler_config("ding").ding_nz)
