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
    # the last block is every chain at t = 0
    np.testing.assert_array_equal(rows[-16:, :2], read_samples(out / "ding_5.dsmp"))
    for name in ("ding_5.dsmp", "ddnm_5.dsmp", "oracle_5.dsmp"):
        assert (out / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert [p.name for p in out.glob("*.csv")] == ["results.csv"]


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


@pytest.mark.parametrize("cov, gamma", [
    ("1, 0.3, 0.3, 2", 1e-8),  # Woodbury leaves a covariance that is not positive definite
    ("1, 1", 1e-170),  # gamma^2 underflows to 0 and the observed variance with it
], ids=["full", "diagonal"])
@pytest.mark.parametrize("command", ["run", "oracle"])
def test_exact_posterior_below_rounding_is_a_numeric_failure(tmp_path, capsys, command, cov,
                                                             gamma):
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
])
def test_config_error_starts_with_the_key_that_set_the_value(tmp_path, capsys, key, values):
    assert main(["run", "--config", str(_quickstart(tmp_path, **values))]) == 2
    line = _one_config_error(capsys)
    assert line.startswith(f"config error: {key}: "), line
    assert "dps_scale" not in line and "diffpir_lambda" not in line
    assert not (tmp_path / "out").exists()


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


def _run_diverging_quickstart(tmp_path, methods):
    # dps at zeta = 1 diverges on the quickstart problem
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "configs" / "quickstart.cfg").read_text()
    keep = [
        line for line in text.splitlines()
        if not line.startswith(("methods", "method.dps.zeta", "out_dir"))
    ]
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("\n".join(
        keep + [f"methods = {methods}", "method.dps.zeta = 1", f"out_dir = {tmp_path / 'out'}"]
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
