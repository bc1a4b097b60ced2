import csv
import math
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
    # the file run streams is, byte for byte, the header, then the block
    # [x | ev.xhat0] of every state a collecting hook is handed, stacked in
    # time order, then the t = 0 block [samples | samples]
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
                                  on_step=lambda x, ev: blocks.append(np.hstack((x, ev.xhat0))))
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


@pytest.mark.parametrize("peak", ["0", "-1", "inf", "nan", "1e200", "1e-300"])
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


def test_masklift_rejects_a_pgm_header_number_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n" + b"1" * 5000 + b" 2\n255\n" + bytes(4))
    assert main(["masklift", "--in", str(path), "--factors", "1,1",
                 "--out", str(tmp_path / "l.pgm")]) == 2
    assert _one_config_error(capsys) == (
        f"config error: {path}: malformed PGM header; a number has too many digits")
    assert not (tmp_path / "l.pgm").exists()


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


def test_cpsnr_of_chains_at_both_infinities_reads_nan_without_a_warning(tmp_path, capsys,
                                                                        monkeypatch):
    # row 0 matches the reference (+inf), row 1's mse overflows (-inf)
    write_samples(tmp_path / "a.dsmp", np.array([[1.0, 2.0], [1e300, 0.0]]))
    write_samples(tmp_path / "b.dsmp", np.array([[1.0, 5.0]]))
    write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.array([[1, 0]], dtype=np.uint8)))
    assert main(["metrics", "--a", str(tmp_path / "a.dsmp"), "--b", str(tmp_path / "b.dsmp"),
                 "--metric", "cpsnr", "--mask", str(tmp_path / "m.pgm")]) == 0
    assert capsys.readouterr() == ("metric,value,n,seed\ncpsnr,nan,2,0\n", "")
    # run_experiment averages its chains the same way
    monkeypatch.setattr("inpaintlab.cli.cpsnr", lambda *args: np.array([np.inf, -np.inf]))
    assert main(["run", "--config", str(_write_cfg(tmp_path))]) == 0
    assert capsys.readouterr().err == ""
    assert [r[6] for r in _read_rows(tmp_path / "out" / "results.csv")[1:]] == ["nan", "nan"]


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
    # (d + 1) * 8 bytes per projection at d = 2, past numpy's largest array
    (["metrics", "--a", "{tmp}/a.dsmp", "--b", "{tmp}/a.dsmp", "--projections", str(10**30)],
     f"--projections: its directions and results need {24 * 10**30} bytes, more than could be "
     f"allocated, got {10**30}"),
    (["metrics", "--a", "{tmp}/a.dsmp", "--b", "{tmp}/a.dsmp", "--metric", "cpsnr"],
     "cpsnr needs --mask"),
    (["metrics", "--a", "{tmp}/a.dsmp", "--b", "{tmp}/a.dsmp", "--metric", "cpsnr",
      "--mask", "{tmp}/zero.pgm"], "--mask observes no coordinate"),
], ids=["oracle-seed", "masklift-factor-count", "metrics-empty", "metrics-dimensions",
        "metrics-projections", "metrics-projections-past-numpy", "cpsnr-no-mask",
        "cpsnr-unobserved-mask"])
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


def test_grid_whose_knots_cannot_be_allocated_exits_2(tmp_path, capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr("inpaintlab.config.make_grid", no_memory)
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("grid.k     = 12", "grid.k     = 1000000000"))
    assert main(["run", "--config", str(cfg)]) == 2
    assert _one_config_error(capsys) == ("config error: grid.k: its knots need 8000000008 bytes, "
                                         "more than could be allocated, got '1000000000'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, target", [
    ("run", "inpaintlab.cli.run_conditional"),
    ("oracle", "inpaintlab.cli.exact_posterior"),
])
def test_allocation_failure_is_one_config_error_line(tmp_path, capsys, monkeypatch, command,
                                                     target):
    # a size that numpy can shape but the machine cannot hold; nothing is allocated here
    text = "Unable to allocate 1.82 PiB for an array with shape (128, 1000000000000, 2)"

    def no_memory(*args, **kwargs):
        raise MemoryError(text)

    monkeypatch.setattr(target, no_memory)
    args = [command, "--config", str(_write_cfg(tmp_path))]
    if command == "oracle":
        args += ["--out", str(tmp_path / "post.csv")]
    assert main(args) == 2
    assert _one_config_error(capsys) == ("config error: the configured sizes need more memory "
                                         f"than could be allocated: {text}")
    if command == "run":  # the outputs written before the failure stay
        assert (tmp_path / "out" / "oracle_5.dsmp").exists()


def test_config_file_that_is_not_text_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"seed = \xff\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert _one_config_error(capsys) == (
        f"config error: {cfg}: not a text file (invalid start byte at byte 7)")


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("sw2.projections", "0", id="sw2.projections"),
        # numpy could size no array they need: the run would write oracle_0.dsmp and
        # the results.csv header, then exit 1 with a ValueError traceback
        pytest.param("sw2.projections", str(10**30), id="sw2.projections-past-numpy"),
        pytest.param("ding_nz", str(10**21), id="ding_nz-past-numpy"),
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
    values.setdefault("out_dir", str(tmp_path / "out"))
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
# prior.csv, mask.pgm or xstar.dsmp names is reported by its own path, so
# these four are given the empty value, which every key rejects
_BAD_VALUES = {
    "schedule": "vp", "grid.k": "0", "grid.spacing": "cubic", "n_chains": "x", "seed": "1.5",
    "methods": "ding, nope", "mask.inline": "1, 2", "xstar.inline": "1.5, x",
    "observation.noisy": "maybe", "sw2.projections": "0", "sw2.seed": "-1", "cpsnr.peak": "0",
    "trajectories": "maybe", "oracle.n": "0", "eta": "2", "gamma": "0", "zeta": "nan",
    "lambda": "-1", "ding_nz": "0", "final_replacement": "maybe",
    "out_dir": "", "prior.csv": "", "mask.pgm": "", "xstar.dsmp": "",
}


def test_bad_values_cover_every_config_key():
    from inpaintlab.config import _GLOBAL_KEYS, _SAMPLER_KEYS

    assert set(_BAD_VALUES) == _GLOBAL_KEYS | set(_SAMPLER_KEYS)


@pytest.mark.parametrize("key", sorted(_BAD_VALUES))
def test_every_config_key_names_itself_in_its_error(tmp_path, capsys, monkeypatch, key):
    monkeypatch.chdir(tmp_path)  # an empty out_dir would be the working directory
    cfg = _quickstart(tmp_path, **{key.replace(".", "__"): _BAD_VALUES[key]})
    assert main(["run", "--config", str(cfg)]) == 2
    line = _one_config_error(capsys)
    assert line.startswith(f"config error: {key}: "), line
    assert [path.name for path in tmp_path.iterdir()] == [cfg.name]  # nothing written


def test_blended_reads_the_noisy_observation_in_a_run(tmp_path, capsys):
    # replaying the hidden reference would end every chain on it: cpsnr = inf
    cfg = _quickstart(tmp_path, gamma="0.5", observation__noisy="on", methods="blended",
                      n_chains="20", grid__k="5")
    assert main(["run", "--config", str(cfg)]) == 0
    rows = _read_rows(tmp_path / "out" / "results.csv")
    assert [r[0] for r in rows[1:]] == ["blended"]
    assert math.isfinite(float(rows[1][6]))


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


def _diverging_quickstart(tmp_path, methods, extra=()):
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
    return cfg


def _run_diverging_quickstart(tmp_path, methods, extra=()):
    cfg = _diverging_quickstart(tmp_path, methods, extra)
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


def test_numeric_failure_names_the_step_that_left_a_chain_non_finite(tmp_path):
    # at gamma = 1e154 ding's conjugate update at k=15 leaves one chain
    # non-finite; the failure is that step's, not the next evaluation's
    cfg = _quickstart(tmp_path, gamma="1e154")
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "inpaintlab.cli", "run", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.splitlines() == [
        "numeric failure: ding at step k=15 (t=0.3 -> s=0.28): "
        "new state must be finite: 1 of 1000 chains non-finite"
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


def test_failing_method_deletes_its_trajectory_in_process(tmp_path, capsys, monkeypatch):
    # the same cleanup as above, run in this process: dps is forced to fail
    # halfway down the grid, after streaming 27 of its 51 knots
    from inpaintlab import guidance
    from inpaintlab.errors import NumericError

    step_dps = guidance.step_dps

    def failing_halfway(x, ev, *rest):
        if ev.t < 0.5:
            raise NumericError("forced")
        return step_dps(x, ev, *rest)

    monkeypatch.setattr(guidance, "step_dps", failing_halfway)
    cfg = _quickstart(tmp_path, trajectories="on", n_chains="40")
    assert main(["run", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "numeric failure: dps at step k=24 (t=0.48 -> s=0.46): forced"
    ]
    out = tmp_path / "out"
    assert not list(out.glob("dps_0*.dsmp"))
    others = ["ding", "ddnm", "diffpir", "blended"]
    assert [r[0] for r in _read_rows(out / "results.csv")[1:]] == others
    for method in others:
        assert read_samples(out / f"{method}_0_trajectories.dsmp").shape == (51 * 40, 4)


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
    # the program's own path writes what an in-process main writes, and no warning
    extra = "trajectories = on\n"
    cfg = _write_cfg(tmp_path, out_name="cli", name="cli.cfg", extra=extra)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "inpaintlab.cli", "run", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == f"wrote {tmp_path / 'cli' / 'results.csv'}"
    assert main(["run", "--config", str(_write_cfg(tmp_path, out_name="lib", extra=extra))]) == 0
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    names = sorted(f.name for f in cli.glob("*.dsmp"))
    assert len(names) == 5 and names == sorted(f.name for f in lib.glob("*.dsmp"))
    for name in names:
        assert (cli / name).read_bytes() == (lib / name).read_bytes(), name
    runtime = _read_rows(cli / "results.csv")[0].index("runtime_ms")
    cli_rows, lib_rows = ([r[:runtime] + r[runtime + 1:] for r in _read_rows(d / "results.csv")]
                          for d in (cli, lib))
    assert cli_rows == lib_rows


def test_only_the_program_path_freezes_the_collector(tmp_path):
    # the __main__ block and the installed command both run cli.program, which
    # freezes the import graph once main has returned, so the exit-time
    # collections skip it; an in-process caller's objects stay collectable
    import gc
    import re
    from pathlib import Path

    before = gc.get_freeze_count()
    assert main(["run", "--config", str(_write_cfg(tmp_path))]) == 0
    assert gc.get_freeze_count() == before
    a = str(tmp_path / "a.dsmp")
    write_samples(a, np.zeros((4, 2)))
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count()))\n"
        f"sys.argv = ['inpaintlab.cli', 'metrics', '--a', {a!r}, '--b', {a!r}]\n"
        "runpy.run_module('inpaintlab.cli', run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) > 0

    # the [project.scripts] entry, called the way an installed console script
    # calls it: sys.exit of its return value
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^inpaintlab = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    assert (module, func) == ("inpaintlab.cli", "program")
    cfg = _write_cfg(tmp_path, out_name="tiny", name="tiny.cfg")
    cfg.write_text(cfg.read_text().replace("gamma      = 0.2", "gamma = 1e-170"))
    cases = [
        (0, ["metrics", "--a", a, "--b", a], ""),
        (2, ["metrics", "--a", a, "--b", a, "--projections", "0"], "config error: "),
        (3, ["metrics", "--a", str(tmp_path / "missing.dsmp"), "--b", a], "i/o error: "),
        (4, ["oracle", "--config", str(cfg), "--out", str(tmp_path / "post.csv")],
         "numeric failure: "),
    ]
    for want, args, prefix in cases:
        script = (
            "import atexit, gc, sys\n"
            f"from {module} import {func}\n"
            "atexit.register(lambda: print(gc.get_freeze_count()))\n"
            f"sys.argv = ['inpaintlab', *{args!r}]\n"
            f"sys.exit({func}())\n"
        )
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == want, (args, proc.stderr)
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == bool(prefix)
        assert int(proc.stdout.splitlines()[-1]) > 0


def test_module_exit_codes_reach_the_shell(tmp_path):
    # python -m inpaintlab.cli hands main's return value to the shell
    write_samples(tmp_path / "a.dsmp", np.random.default_rng(0).standard_normal((4, 2)))
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("gamma      = 0.2", "gamma = 1e-170"))
    a = str(tmp_path / "a.dsmp")
    (tmp_path / "plain").write_text("")
    beneath_a_file = _write_cfg(tmp_path, out_name="plain/out", name="file.cfg")
    unknown_key = _write_cfg(tmp_path, out_name="bad", name="bad.cfg", extra="colour = 1\n")
    diverging = _diverging_quickstart(tmp_path, "dps")
    cases = [
        (0, ["metrics", "--a", a, "--b", a], ""),
        (2, ["metrics", "--a", a, "--b", a, "--projections", "0"], "config error: "),
        (3, ["metrics", "--a", str(tmp_path / "missing.dsmp"), "--b", a], "i/o error: "),
        (4, ["oracle", "--config", str(cfg), "--out", str(tmp_path / "post.csv")],
         "numeric failure: "),
        (2, ["run", "--config", str(unknown_key)], "config error: "),
        (3, ["run", "--config", str(beneath_a_file)], "i/o error: "),
        (4, ["run", "--config", str(diverging)], "numeric failure: dps at step k=21"),
    ]
    for code, args, prefix in cases:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "inpaintlab.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == code, (args, proc.stderr)
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == bool(prefix)


def test_overflowing_inputs_exit_with_one_line_under_warnings_as_errors(tmp_path):
    # a gamma or a peak whose square overflows (or a peak whose square is 0)
    # is a config error; an observation or prior so far out that an evidence
    # overflows is a numeric failure, and no numpy warning escapes either
    write_samples(tmp_path / "far.dsmp", np.array([[1e200, 0.0], [-1e200, 1.0]]))
    write_samples(tmp_path / "ref.dsmp", np.zeros((1, 2)))
    write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.array([[1, 0]], dtype=np.uint8)))
    metrics = ["metrics", "--a", str(tmp_path / "far.dsmp"), "--b", str(tmp_path / "ref.dsmp"),
               "--metric", "cpsnr", "--mask", str(tmp_path / "m.pgm")]

    def run(**values):
        case = tmp_path / f"case{len(list(tmp_path.glob('case*')))}"
        case.mkdir()
        return ["run", "--config", str(_quickstart(case, **values))]

    cases = [
        (run(gamma="1e300"), 2, "config error: gamma: "),
        (run(method__dps__gamma="1e155"), 2, "config error: method.dps.gamma: "),
        (run(cpsnr__peak="1e200"), 2, "config error: cpsnr.peak: "),
        (run(cpsnr__peak="1e-300"), 2, "config error: cpsnr.peak: "),
        (metrics + ["--peak", "1e200"], 2, "config error: --peak "),
        (run(xstar__inline="1e300, 1e300"), 4, "numeric failure: exact posterior at gamma = 0.1: "
                                               "no component keeps a positive finite weight"),
        (run(prior__component__0__mean="1e200, 1e200"), 4, "numeric failure: ding at step "),
        # the mse of these samples overflows: cpsnr reads -inf, the mirror of +inf
        (metrics, 0, ""),
    ]
    for args, code, prefix in cases:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "inpaintlab.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == code, (args, proc.stderr)
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == bool(prefix), args
    assert proc.stdout == "metric,value,n,seed\ncpsnr,-inf,2,0\n"
    oracle = ["oracle", *run(xstar__inline="1e300, 1e300")[1:], "--out", str(tmp_path / "p.csv")]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "inpaintlab.cli", *oracle],
                          capture_output=True, text=True)
    assert proc.returncode == 4 and proc.stderr == cases[5][2] + "\n"


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
