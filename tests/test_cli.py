import csv
import subprocess
import sys

import numpy as np
import pytest

from inpaintlab.cli import main
from inpaintlab.io import read_samples, write_pgm_mask, write_samples
from inpaintlab.masklift import PixelMask

CFG = """\
prior.component.0.weight = 0.5
prior.component.0.mean   = 2, 2
prior.component.0.cov    = 1, 1
prior.component.1.weight = 0.5
prior.component.1.mean   = -2, -2
prior.component.1.cov    = 1, 1
schedule   = linear-flow
grid.k     = 12
eta        = 0.8
gamma      = 0.2
n_chains   = 16
seed       = 5
out_dir    = {out}
methods    = ding, ddnm
mask.inline  = 1, 0
xstar.inline = 1.5, -0.5
final_replacement = off
"""


def _write_cfg(tmp_path, out_name="out", name="exp.cfg", extra=""):
    path = tmp_path / name
    path.write_text(CFG.format(out=tmp_path / out_name) + extra)
    return path


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_writes_results_and_samples(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    rows = _read_rows(out / "results.csv")
    assert rows[0] == [
        "method", "K", "eta", "gamma", "seed", "sw2_to_oracle", "cpsnr",
        "runtime_ms", "n_chains",
    ]
    assert [r[0] for r in rows[1:]] == ["ding", "ddnm"]
    assert all(r[1] == "12" and r[8] == "16" for r in rows[1:])
    samples = read_samples(out / "ding_5.dsmp")
    assert samples.shape == (16, 2)
    assert read_samples(out / "oracle_5.dsmp").shape == (16, 2)


def test_run_deterministic_modulo_runtime(tmp_path):
    cfg_a = _write_cfg(tmp_path, out_name="out_a", name="a.cfg")
    cfg_b = _write_cfg(tmp_path, out_name="out_b", name="b.cfg")
    assert main(["run", "--config", str(cfg_a)]) == 0
    assert main(["run", "--config", str(cfg_b)]) == 0
    rows_a = _read_rows(tmp_path / "out_a" / "results.csv")
    rows_b = _read_rows(tmp_path / "out_b" / "results.csv")
    runtime_col = rows_a[0].index("runtime_ms")
    for ra, rb in zip(rows_a, rows_b):
        del ra[runtime_col], rb[runtime_col]
    assert rows_a == rows_b
    np.testing.assert_array_equal(
        read_samples(tmp_path / "out_a" / "ding_5.dsmp"),
        read_samples(tmp_path / "out_b" / "ding_5.dsmp"),
    )


def test_run_method_order_does_not_change_samples(tmp_path):
    # 70 chains: two blocks of substreams, the second partly used
    cfg_a = _write_cfg(tmp_path, out_name="oa", name="a.cfg")
    cfg_a.write_text(cfg_a.read_text().replace("n_chains   = 16", "n_chains   = 70"))
    text = cfg_a.read_text().replace("methods    = ding, ddnm", "methods    = ddnm, ding")
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(text.replace("oa", "ob"))
    main(["run", "--config", str(cfg_a)])
    main(["run", "--config", str(cfg_b)])
    np.testing.assert_array_equal(
        read_samples(tmp_path / "oa" / "ding_5.dsmp"),
        read_samples(tmp_path / "ob" / "ding_5.dsmp"),
    )


def test_trajectory_matrix_reads_back(tmp_path):
    plain = _write_cfg(tmp_path, out_name="plain", name="plain.cfg")
    traced = _write_cfg(tmp_path, out_name="traced", name="traced.cfg", extra="trajectories = on\n")
    assert main(["run", "--config", str(plain)]) == 0
    assert main(["run", "--config", str(traced)]) == 0
    out = tmp_path / "traced"
    rows = read_samples(out / "ding_5_trajectories.dsmp")
    assert rows.shape == (13 * 16, 4)  # (K+1) * chains, x then xhat0
    # the last block is every chain at t = 0, where the estimate is the state
    samples = read_samples(out / "ding_5.dsmp")
    np.testing.assert_array_equal(rows[-16:], np.hstack((samples, samples)))
    for name in ("ding_5.dsmp", "ddnm_5.dsmp", "oracle_5.dsmp"):
        assert (out / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert [p.name for p in out.glob("*.csv")] == ["results.csv"]


def test_streamed_trajectory_equals_the_collected_blocks(tmp_path):
    # the file run streams is, byte for byte, the header, then every block a
    # collecting sink receives, stacked in time order, then the t = 0 block
    # [samples | samples]
    from inpaintlab import GMMDenoiser, run_conditional
    from inpaintlab.cli import _observe
    from inpaintlab.config import load_config
    from inpaintlab.io import dsmp_header

    cfg_path = _write_cfg(tmp_path, extra="trajectories = on\n")
    cfg_path.write_text(cfg_path.read_text().replace(
        "methods    = ding, ddnm", "methods    = blended, dps, ding, ddnm, diffpir"))
    assert main(["run", "--config", str(cfg_path)]) == 0
    cfg = load_config(cfg_path)
    problem = _observe(cfg, cfg.seed)[0]
    denoiser = GMMDenoiser(cfg.prior, cfg.sched)
    for method, scfg in cfg.samplers.items():
        blocks = []
        samples = run_conditional(problem, denoiser, cfg.sched, scfg,
                                  record=lambda b: blocks.append(b.copy()))
        assert len(blocks) == 12
        stacked = np.concatenate(blocks + [np.hstack((samples, samples))])
        streamed = (cfg.out_dir / f"{method}_5_trajectories.dsmp").read_bytes()
        assert streamed == dsmp_header(*stacked.shape) + stacked.astype("<f8").tobytes(), method
        assert (cfg.out_dir / f"{method}_5.dsmp").read_bytes() == (
            dsmp_header(*samples.shape) + samples.astype("<f8").tobytes()
        )


def test_oracle_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out_csv = tmp_path / "post.csv"
    samples = tmp_path / "post.dsmp"
    code = main(
        ["oracle", "--config", str(cfg), "--out", str(out_csv),
         "--samples", str(samples), "--n", "32"]
    )
    assert code == 0
    rows = _read_rows(out_csv)
    assert rows[0] == ["weight", "mean_0", "mean_1", "var_0", "var_1"]
    assert len(rows) == 3
    weights = [float(r[0]) for r in rows[1:]]
    assert sum(weights) == pytest.approx(1.0)
    assert read_samples(samples).shape == (32, 2)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_oracle_rejects_non_positive_n_before_writing(tmp_path, capsys, n):
    out_csv, samples = tmp_path / "post.csv", tmp_path / "post.dsmp"
    code = main(["oracle", "--config", str(_write_cfg(tmp_path)), "--out", str(out_csv),
                 "--samples", str(samples), "--n", n])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: --n must be positive, got {n}"]
    assert not out_csv.exists() and not samples.exists()


def test_oracle_rejects_n_past_the_dsmp_header_before_sampling(tmp_path, capsys):
    out_csv, samples = tmp_path / "post.csv", tmp_path / "post.dsmp"
    code = main(["oracle", "--config", str(_write_cfg(tmp_path)), "--out", str(out_csv),
                 "--samples", str(samples), "--n", "4294967296"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: --n must be below 2**32, the rows a .dsmp file holds, got 4294967296"
    ]
    assert not out_csv.exists() and not samples.exists()


def _one_config_error(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    return err[0]


@pytest.mark.parametrize("peak", ["0", "-1", "inf", "nan"])
def test_metrics_rejects_bad_peak(tmp_path, capsys, peak):
    rng = np.random.default_rng(0)
    write_samples(tmp_path / "a.dsmp", rng.standard_normal((10, 2)))
    write_samples(tmp_path / "b.dsmp", rng.standard_normal((1, 2)))
    write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.array([[1, 0]], dtype=np.uint8)))
    code = main(["metrics", "--a", str(tmp_path / "a.dsmp"), "--b", str(tmp_path / "b.dsmp"),
                 "--metric", "cpsnr", "--mask", str(tmp_path / "m.pgm"), "--peak", peak])
    assert code == 2
    assert "--peak" in _one_config_error(capsys)


@pytest.mark.parametrize("factors", ["a,b", "4.5,4", "4,", "0,4", "3,3"])
def test_masklift_rejects_bad_factors(tmp_path, capsys, factors):
    write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.ones((16, 16), dtype=np.uint8)))
    code = main(["masklift", "--in", str(tmp_path / "m.pgm"), "--factors", factors,
                 "--out", str(tmp_path / "latent.pgm")])
    assert code == 2
    _one_config_error(capsys)
    assert not (tmp_path / "latent.pgm").exists()


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # only ConfigError maps to exit 2; any other ValueError is a bug and propagates
    import inpaintlab.cli as cli

    def broken(*args):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "sliced_w2", broken)
    rng = np.random.default_rng(0)
    write_samples(tmp_path / "a.dsmp", rng.standard_normal((10, 2)))
    with pytest.raises(ValueError, match="internal"):
        main(["metrics", "--a", str(tmp_path / "a.dsmp"), "--b", str(tmp_path / "a.dsmp")])


def test_masklift_subcommand(tmp_path, capsys):
    grid = np.ones((16, 16), dtype=np.uint8)
    grid[4:6, 4:9] = 0
    write_pgm_mask(tmp_path / "m.pgm", PixelMask(grid))
    out = tmp_path / "latent.pgm"
    report = tmp_path / "leak.csv"
    code = main(
        ["masklift", "--in", str(tmp_path / "m.pgm"), "--factors", "4,4",
         "--dilate", "2", "--out", str(out), "--report", str(report)]
    )
    assert code == 0
    rows = _read_rows(report)
    assert rows[0] == ["edited_pixels_in_observed_cells", "observed_pixels_in_edited_cells"]
    assert rows[1][0] == "0"
    from inpaintlab.io import read_pgm_mask

    latent = read_pgm_mask(out)
    assert latent.shape == (1, 4, 4)


def test_metrics_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    write_samples(tmp_path / "a.dsmp", rng.standard_normal((50, 2)))
    write_samples(tmp_path / "b.dsmp", rng.standard_normal((50, 2)) + 1.0)
    code = main(
        ["metrics", "--a", str(tmp_path / "a.dsmp"), "--b", str(tmp_path / "b.dsmp"),
         "--metric", "sw2", "--projections", "32", "--seed", "9"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "metric,value,n,seed"
    metric, value, n, seed = lines[1].split(",")
    assert metric == "sw2" and n == "50" and seed == "9"
    assert float(value) > 0


def test_oracle_writes_full_posterior_covariances(tmp_path, capsys):
    # a full-covariance prior gives a full posterior: d*d covariance columns,
    # each entry the repr of the exact posterior's
    from inpaintlab import exact_posterior
    from inpaintlab.cli import _observe
    from inpaintlab.config import load_config

    cfg_path = _write_cfg(tmp_path)
    cfg_path.write_text(cfg_path.read_text().replace(
        "prior.component.0.cov    = 1, 1", "prior.component.0.cov = 1, 0.3, 0.3, 2"))
    out_csv = tmp_path / "post.csv"
    assert main(["oracle", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
    assert capsys.readouterr().out == f"wrote {out_csv}\n"
    rows = _read_rows(out_csv)
    assert rows[0] == ["weight", "mean_0", "mean_1", "cov_0_0", "cov_0_1", "cov_1_0", "cov_1_1"]
    cfg = load_config(cfg_path)
    posterior = exact_posterior(_observe(cfg, cfg.seed)[0], cfg.prior)
    want = np.column_stack((posterior.weights, posterior.means,
                            posterior.covariances.reshape(posterior.n_components, -1)))
    np.testing.assert_array_equal(np.array(rows[1:], dtype=float), want)


def test_masklift_reads_and_writes_multi_frame_dmsk(tmp_path, capsys):
    # a .dmsk input keeps its frames, and an output named .dmsk is written as one;
    # without --report the leakage CSV goes to stdout
    from inpaintlab.io import read_dmsk, write_dmsk

    grid = np.ones((2, 8, 8), dtype=np.uint8)
    grid[1, 2:4, 2:4] = 0
    write_dmsk(tmp_path / "m.dmsk", PixelMask(grid))
    out = tmp_path / "latent.dmsk"
    assert main(["masklift", "--in", str(tmp_path / "m.dmsk"), "--factors", "1,4,4",
                 "--dilate", "0", "--out", str(out)]) == 0
    latent = read_dmsk(out)
    assert latent.shape == (2, 2, 2)
    np.testing.assert_array_equal(latent.grid[:, 0, 0], [1, 0])
    assert capsys.readouterr().out == (
        "edited_pixels_in_observed_cells,observed_pixels_in_edited_cells\n0,12\n"
    )
    pgm = tmp_path / "latent.pgm"
    assert main(["masklift", "--in", str(tmp_path / "m.dmsk"), "--factors", "1,4,4",
                 "--out", str(pgm)]) == 2
    assert _one_config_error(capsys) == (
        "config error: PGM stores a single frame; name the output .dmsk instead"
    )
    assert not pgm.exists()


def test_metrics_cpsnr_writes_its_row_to_out(tmp_path, capsys):
    # rows 1 and 2 off the reference on the observed coordinate at peak 2:
    # PSNRs 10 log10(4) and 0, whose mean is 10 log10(2)
    write_samples(tmp_path / "a.dsmp", np.array([[1.0, 7.0], [2.0, -3.0]]))
    write_samples(tmp_path / "b.dsmp", np.array([[0.0, 0.0], [5.0, 5.0]]))
    write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.array([[1, 0]], dtype=np.uint8)))
    out = tmp_path / "cpsnr.csv"
    assert main(["metrics", "--a", str(tmp_path / "a.dsmp"), "--b", str(tmp_path / "b.dsmp"),
                 "--metric", "cpsnr", "--mask", str(tmp_path / "m.pgm"), "--peak", "2",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    rows = _read_rows(out)
    assert rows[0] == ["metric", "value", "n", "seed"]
    assert rows[1][0] == "cpsnr" and rows[1][2:] == ["2", "0"]
    assert float(rows[1][1]) == pytest.approx(10 * np.log10(2.0), rel=1e-12)


@pytest.mark.parametrize("args, message", [
    (["oracle", "--config", "{cfg}", "--out", "{tmp}/post.csv", "--seed", "-1"],
     "--seed must be non-negative, got -1"),
    (["masklift", "--in", "{tmp}/m.pgm", "--factors", "1,1,4,4", "--out", "{tmp}/l.pgm"],
     "--factors takes f_h,f_w or f_t,f_h,f_w"),
    (["metrics", "--a", "{tmp}/empty.dsmp", "--b", "{tmp}/a.dsmp"], "--a holds no sample"),
    (["metrics", "--a", "{tmp}/a.dsmp", "--b", "{tmp}/c.dsmp"], "--a, --b have d = 2, 3"),
    (["metrics", "--a", "{tmp}/a.dsmp", "--b", "{tmp}/a.dsmp", "--projections", "0"],
     "--projections must be at least 1 and --seed at least 0"),
    (["metrics", "--a", "{tmp}/a.dsmp", "--b", "{tmp}/a.dsmp", "--metric", "cpsnr"],
     "cpsnr needs --mask"),
    (["metrics", "--a", "{tmp}/a.dsmp", "--b", "{tmp}/a.dsmp", "--metric", "cpsnr",
      "--mask", "{tmp}/zero.pgm"], "--mask observes no coordinate"),
], ids=["oracle-seed", "masklift-factor-count", "metrics-empty", "metrics-dimensions",
        "metrics-projections", "cpsnr-no-mask", "cpsnr-unobserved-mask"])
def test_subcommand_argument_errors_exit_2(tmp_path, capsys, args, message):
    rng = np.random.default_rng(0)
    write_samples(tmp_path / "a.dsmp", rng.standard_normal((4, 2)))
    write_samples(tmp_path / "empty.dsmp", np.zeros((0, 2)))
    write_samples(tmp_path / "c.dsmp", rng.standard_normal((4, 3)))
    write_pgm_mask(tmp_path / "zero.pgm", PixelMask(np.zeros((1, 2), dtype=np.uint8)))
    write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.ones((16, 16), dtype=np.uint8)))
    cfg = _write_cfg(tmp_path)
    argv = [a.format(cfg=cfg, tmp=tmp_path) for a in args]
    assert main(argv) == 2
    assert _one_config_error(capsys) == f"config error: {message}"
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "post.csv").exists() and not (tmp_path / "l.pgm").exists()


def test_metrics_rejects_zero_dimension_samples(tmp_path, capsys):
    write_samples(tmp_path / "z.dsmp", np.zeros((5, 0)))
    code = main(["metrics", "--a", str(tmp_path / "z.dsmp"), "--b", str(tmp_path / "z.dsmp")])
    assert code == 2
    assert "z.dsmp: sample dimension d = 0" in _one_config_error(capsys)
    assert capsys.readouterr().out == ""


def test_cpsnr_metric_checks_mask_length(tmp_path, capsys):
    rng = np.random.default_rng(0)
    write_samples(tmp_path / "a.dsmp", rng.standard_normal((10, 3)))
    write_samples(tmp_path / "b.dsmp", rng.standard_normal((1, 3)))
    for width in (5, 2):
        write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.ones((1, width), dtype=np.uint8)))
        code = main(
            ["metrics", "--a", str(tmp_path / "a.dsmp"), "--b", str(tmp_path / "b.dsmp"),
             "--metric", "cpsnr", "--mask", str(tmp_path / "m.pgm")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"--mask has {width} entries" in err and "d = 3" in err


@pytest.mark.parametrize("metric", ["sw2", "cpsnr"])
@pytest.mark.parametrize("flag", ["--a", "--b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_metrics_rejects_non_finite_samples(tmp_path, capsys, metric, flag, bad):
    rng = np.random.default_rng(0)
    files = {"--a": rng.standard_normal((2, 2)), "--b": rng.standard_normal((2, 2))}
    files[flag][1, 0] = bad
    for name, x in files.items():
        write_samples(tmp_path / f"{name[2:]}.dsmp", x)
    write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.array([[1, 0]], dtype=np.uint8)))
    code = main(["metrics", "--a", str(tmp_path / "a.dsmp"), "--b", str(tmp_path / "b.dsmp"),
                 "--metric", metric, "--mask", str(tmp_path / "m.pgm")])
    assert code == 2
    assert _one_config_error(capsys) == f"config error: {flag} holds a non-finite value"
    assert capsys.readouterr().out == ""


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a config\n")
    assert main(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("sw2.projections", "0", id="sw2.projections"),
        pytest.param("cpsnr.peak", "0", id="cpsnr.peak"),
        pytest.param("sw2.seed", "-1", id="sw2.seed"),
        pytest.param("cpsnr.peak", "inf", id="cpsnr.peak-inf"),
        pytest.param("method.ding.gamma", "nan", id="method.ding.gamma-nan"),
        pytest.param("zeta", "inf", id="zeta-inf"),
        # overrides of methods the config does not list
        pytest.param("method.dps.gamma", "-1", id="method.dps.gamma-unlisted"),
        pytest.param("method.diffpir.eta", "5", id="method.diffpir.eta-unlisted"),
    ],
)
def test_metric_settings_rejected_before_sampling(tmp_path, capsys, key, value):
    assert main(["run", "--config", str(_write_cfg(tmp_path, extra=f"{key} = {value}\n"))]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ding_at_eta_zero_rejected_before_sampling(tmp_path, capsys):
    # at eta = 0 ding's step never reads the observation; ddnm's still does,
    # and a ding override is checked even when ding is not listed
    cfg = tmp_path / "exp.cfg"
    text = CFG.format(out=tmp_path / "out")
    zero = text.replace("eta        = 0.8", "eta        = 0")
    ddnm_only = zero.replace("methods    = ding, ddnm", "methods    = ddnm")
    for bad in (zero, text + "method.ding.eta = 0\n", ddnm_only + "method.ding.eta = 0\n"):
        cfg.write_text(bad)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "ding" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    cfg.write_text(ddnm_only)
    assert main(["run", "--config", str(cfg)]) == 0


def test_method_eta_override_reaches_every_transition(tmp_path, monkeypatch):
    # each method's transitions read eta from its own SamplerConfig
    import inpaintlab.cli as cli
    from inpaintlab import bridge

    original, run = bridge.transition_params, cli.run_conditional
    current, seen = [None], {}

    def recording(sched, eta, *rest):
        seen.setdefault(current[0], set()).add(eta)
        return original(sched, eta, *rest)

    def tagged(problem, denoiser, sched, cfg, **kw):
        current[0] = cfg.method
        return run(problem, denoiser, sched, cfg, **kw)

    for name, module in list(sys.modules.items()):
        if name.startswith("inpaintlab") and vars(module).get("transition_params") is original:
            monkeypatch.setattr(module, "transition_params", recording)
    monkeypatch.setattr(cli, "run_conditional", tagged)
    cfg = _write_cfg(tmp_path, extra="method.ddnm.eta = 0.3\n")
    cfg.write_text(cfg.read_text().replace(
        "methods    = ding, ddnm", "methods    = blended, dps, ding, ddnm, diffpir"))
    assert main(["run", "--config", str(cfg)]) == 0
    assert seen == {"ddnm": {0.3}, **{m: {0.8} for m in ("blended", "dps", "ding", "diffpir")}}
    eta_col = {r[0]: r[2] for r in _read_rows(tmp_path / "out" / "results.csv")[1:]}
    assert eta_col == {"ddnm": "0.3", **{m: "0.8" for m in ("blended", "dps", "ding", "diffpir")}}


@pytest.mark.parametrize("cov", ["1, 0.3, 0.3, 2", "1, 1"], ids=["full", "diagonal"])
@pytest.mark.parametrize("command", ["run", "oracle"])
def test_exact_posterior_below_rounding_is_a_numeric_failure(tmp_path, capsys, command, cov):
    gamma = 1e-170  # gamma^2 underflows to 0, and the observed variances with it
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text()
                   .replace("prior.component.0.cov    = 1, 1", f"prior.component.0.cov = {cov}")
                   .replace("gamma      = 0.2", f"gamma = {gamma!r}"))
    out_csv, samples = tmp_path / "post.csv", tmp_path / "post.dsmp"
    files = ["--out", str(out_csv), "--samples", str(samples)] if command == "oracle" else []
    assert main([command, "--config", str(cfg), *files]) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"numeric failure: exact posterior at gamma = {gamma:g}: "
        "2 of 2 components lost variance to rounding"
    ]
    assert not out_csv.exists() and not samples.exists() and not (tmp_path / "out").exists()


def test_zero_posterior_weight_is_dropped_not_a_failure(tmp_path, capsys):
    # the component at (100, 100) has evidence about exp(-4950) at y = 0: its
    # posterior weight underflows to 0, and the posterior is the other component
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text()
                   .replace("mean   = 2, 2", "mean = 0, 0")
                   .replace("mean   = -2, -2", "mean = 100, 100")
                   .replace("xstar.inline = 1.5, -0.5", "xstar.inline = 0, 0")
                   .replace("gamma      = 0.2", "gamma = 0.1"))
    assert main(["run", "--config", str(cfg)]) == 0
    assert [r[0] for r in _read_rows(tmp_path / "out" / "results.csv")[1:]] == ["ding", "ddnm"]
    assert np.all(np.isfinite(read_samples(tmp_path / "out" / "oracle_5.dsmp")))
    out_csv = tmp_path / "post.csv"
    assert main(["oracle", "--config", str(cfg), "--out", str(out_csv)]) == 0
    assert capsys.readouterr().err == ""
    rows = _read_rows(out_csv)
    assert len(rows) == 2 and rows[1][:3] == ["1.0", "0.0", "0.0"]


def _quickstart(tmp_path, **values):
    """configs/quickstart.cfg with the given keys set (dots written as __)
    and the output under tmp_path."""
    from pathlib import Path

    values = {key.replace("__", "."): value for key, value in values.items()}
    values["out_dir"] = str(tmp_path / "out")
    text = (Path(__file__).resolve().parent.parent / "configs" / "quickstart.cfg").read_text()
    keep = [line for line in text.splitlines() if line.split("=")[0].strip() not in values]
    cfg = tmp_path / "quickstart.cfg"
    cfg.write_text("\n".join(keep + [f"{key} = {value}" for key, value in values.items()]) + "\n")
    return cfg


@pytest.mark.parametrize("key, values", [
    ("method.diffpir.lambda", {"method__diffpir__lambda": "-1"}),
    ("zeta", {"zeta": "-1", "methods": "ding, ddnm"}),
    ("n_chains", {"n_chains": "0"}),
    ("seed", {"seed": "-3"}),
    ("eta", {"eta": "0"}),
    ("mask.inline", {"mask__inline": "1, 0, 1"}),
    ("xstar.inline", {"xstar__inline": "1.5, 2.4, 0"}),
])
def test_config_error_starts_with_the_key_that_set_the_value(tmp_path, capsys, key, values):
    assert main(["run", "--config", str(_quickstart(tmp_path, **values))]) == 2
    line = _one_config_error(capsys)
    assert line.startswith(f"config error: {key}: "), line
    assert "dps_scale" not in line and "diffpir_lambda" not in line
    assert not (tmp_path / "out").exists()


def test_dimension_errors_of_mask_and_reference_files_start_with_their_key(tmp_path, capsys):
    write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.ones((1, 1, 3), dtype=bool)))
    write_samples(tmp_path / "ref.dsmp", np.zeros((1, 3)))
    for key, line in (("mask.pgm", "mask.pgm = m.pgm"), ("xstar.dsmp", "xstar.dsmp = ref.dsmp")):
        inline = key.split(".")[0] + ".inline"
        cfg = _write_cfg(tmp_path)
        text = cfg.read_text().splitlines()
        cfg.write_text("\n".join(r for r in text if not r.startswith(inline)) + f"\n{line}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert _one_config_error(capsys).startswith(f"config error: {key}: "), key


# one value each key rejects; out_dir takes any path, and a file that
# prior.csv, mask.pgm or xstar.dsmp names is reported by its own path
_BAD_VALUES = {
    "schedule": "vp", "grid.k": "0", "grid.spacing": "cubic", "n_chains": "x", "seed": "1.5",
    "methods": "ding, nope", "mask.inline": "1, 2", "xstar.inline": "1.5, x",
    "observation.noisy": "maybe", "sw2.projections": "0", "sw2.seed": "-1", "cpsnr.peak": "0",
    "trajectories": "maybe", "oracle.n": "0", "eta": "2", "gamma": "0", "zeta": "nan",
    "lambda": "-1", "ding_nz": "0", "final_replacement": "maybe",
}


def test_bad_values_cover_every_config_key():
    from inpaintlab.config import _GLOBAL_KEYS, _SAMPLER_KEYS

    files = {"out_dir", "prior.csv", "mask.pgm", "xstar.dsmp"}
    assert set(_BAD_VALUES) == (_GLOBAL_KEYS | set(_SAMPLER_KEYS)) - files


@pytest.mark.parametrize("key", sorted(_BAD_VALUES))
def test_every_config_key_names_itself_in_its_error(tmp_path, capsys, key):
    cfg = _quickstart(tmp_path, **{key.replace(".", "__"): _BAD_VALUES[key]})
    assert main(["run", "--config", str(cfg)]) == 2
    line = _one_config_error(capsys)
    assert line.startswith(f"config error: {key}: "), line


def test_all_zero_mask_prints_one_warning_line(tmp_path):
    # the library's UserWarning reaches the user as one line, not a traceback-style warning
    cfg = _quickstart(tmp_path, mask__inline="0, 0", n_chains="20", grid__k="5")
    for args in (["run"], ["oracle", "--out", str(tmp_path / "post.csv")]):
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "inpaintlab.cli", *args, "--config", str(cfg)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: all-zero mask: posterior equals the prior\n"


def test_exit_code_io_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 3


def _run_diverging_quickstart(tmp_path, methods, extra=()):
    # dps at zeta = 1 diverges on the quickstart problem
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "configs" / "quickstart.cfg").read_text()
    keep = [
        line for line in text.splitlines()
        if not line.startswith(("methods", "method.dps.zeta", "out_dir"))
    ]
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("\n".join(
        keep + [f"methods = {methods}", "method.dps.zeta = 1", f"out_dir = {tmp_path / 'out'}",
                *extra]
    ) + "\n")
    return subprocess.run(
        [sys.executable, "-W", "always", "-m", "inpaintlab.cli", "run", "--config", str(cfg)],
        capture_output=True, text=True,
    )


def test_exit_code_numeric_failure_names_method_and_step(tmp_path):
    # the run must say where, without a raw numpy warning on stderr
    proc = _run_diverging_quickstart(tmp_path, "dps")
    assert proc.returncode == 4, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "numeric failure: dps at step k=21 (t=0.42 -> s=0.4): "
        "transition mean must be finite: 826 of 1000 chains non-finite"
    ]


@pytest.mark.parametrize("line", [
    "n_chains = 4294967296", "oracle.n = 4294967296", "trajectories = on\nn_chains = 330382100",
])
def test_row_count_past_the_dsmp_header_exits_2(tmp_path, capsys, line):
    # rejected at load, before anything is sampled or written: (12 + 1) * 330382100 >= 2**32
    cfg = _write_cfg(tmp_path)
    text = cfg.read_text().replace("n_chains   = 16\n", "")
    cfg.write_text(text + line + "\n")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "below 2**32" in err
    assert not (tmp_path / "out").exists()


def test_numeric_failure_leaves_no_partial_trajectory(tmp_path):
    # dps fails at step 21 after streaming 30 knots; its file goes with it
    proc = _run_diverging_quickstart(tmp_path, "dps, ding", extra=["trajectories = on"])
    assert proc.returncode == 4, proc.stderr
    out = tmp_path / "out"
    assert not (out / "dps_0_trajectories.dsmp").exists()
    assert not (out / "dps_0.dsmp").exists()
    assert read_samples(out / "ding_0_trajectories.dsmp").shape == (51 * 1000, 4)
    assert proc.stderr.splitlines()[0].startswith("numeric failure: dps at step k=21")


def test_numeric_failure_of_one_method_keeps_the_others(tmp_path):
    proc = _run_diverging_quickstart(tmp_path, "dps, ding")
    assert proc.returncode == 4, proc.stderr
    out = tmp_path / "out"
    assert [r[0] for r in _read_rows(out / "results.csv")[1:]] == ["ding"]
    assert (out / "ding_0.dsmp").exists()
    assert not (out / "dps_0.dsmp").exists()
    assert proc.stderr.splitlines() == [
        "numeric failure: dps at step k=21 (t=0.42 -> s=0.4): "
        "transition mean must be finite: 826 of 1000 chains non-finite"
    ]


def test_benchmark_config_satisfies_recovery_bound(tmp_path, monkeypatch):
    # the shipped R^8 benchmark config must beat a quarter of the prior's
    # sliced-W2 distance to the exact posterior, for every method
    from pathlib import Path

    from inpaintlab import exact_posterior, sliced_w2
    from inpaintlab.cli import run_experiment
    from inpaintlab.config import load_config

    cfg_path = Path(__file__).resolve().parent.parent / "configs" / "benchmark_gmm8.cfg"
    monkeypatch.chdir(tmp_path)
    cfg = load_config(cfg_path)
    rows = run_experiment(cfg)

    posterior = exact_posterior(cfg.problem(), cfg.prior)
    oracle = read_samples(cfg.out_dir / f"oracle_{cfg.seed}.dsmp")
    prior_samples = cfg.prior.sample(cfg.n_chains, np.random.default_rng(101))
    base = sliced_w2(prior_samples, oracle, cfg.sw2_projections, cfg.seed)
    assert posterior.dim == 8
    for row in rows:
        assert row.sw2_to_oracle <= 0.25 * base, (row.method, row.sw2_to_oracle, base)


def test_console_entry_point(tmp_path):
    cfg = _write_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "inpaintlab.cli", "run", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout


def test_module_exit_codes_reach_the_shell(tmp_path):
    # python -m inpaintlab.cli hands main's return value to the shell
    write_samples(tmp_path / "a.dsmp", np.random.default_rng(0).standard_normal((4, 2)))
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("gamma      = 0.2", "gamma = 1e-170"))
    a = str(tmp_path / "a.dsmp")
    cases = [
        (0, ["metrics", "--a", a, "--b", a], ""),
        (2, ["metrics", "--a", a, "--b", a, "--projections", "0"], "config error: "),
        (3, ["metrics", "--a", str(tmp_path / "missing.dsmp"), "--b", a], "i/o error: "),
        (4, ["oracle", "--config", str(cfg), "--out", str(tmp_path / "post.csv")],
         "numeric failure: "),
    ]
    for code, args, prefix in cases:
        proc = subprocess.run([sys.executable, "-m", "inpaintlab.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == code, (args, proc.stderr)
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == bool(prefix)


def test_run_loads_numpy_only(tmp_path):
    # scipy is a test-only dependency: neither the import nor a run may load it
    cfg = _write_cfg(tmp_path, extra="trajectories = on\n")
    code = (
        "import sys\n"
        "import inpaintlab.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        f"assert inpaintlab.cli.main(['run', '--config', {str(cfg)!r}]) == 0\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_import_loads_no_test_dependency():
    # start-up is numpy's import and the package's own: a fresh interpreter
    # that imports the command line loads none of the test-only packages
    import os
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "import inpaintlab.cli\n"
        "roots = {m.split('.')[0] for m in sys.modules}\n"
        "print(sorted(roots & {'scipy', 'hypothesis', 'pytest'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
