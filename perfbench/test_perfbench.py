"""Tests of the benchmark's own code:  python -m pytest perfbench"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import inpaintlab  # noqa: E402
import inpaintlab.cli  # noqa: E402
from inpaintlab.config import load_config  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_loads(workload, tmp_path):
    for seed in (0, 7):
        seeds = workloads.config_seeds(workload, seed)
        texts = [workloads.config_text(workload, ROOT, s, "out") for s in seeds]
        assert texts == [workloads.config_text(workload, ROOT, s, "out") for s in seeds]
        assert len(set(texts)) == len(seeds) == workloads.SUB_SEEDS[workload]
        for config_seed, text in zip(seeds, texts):
            path = tmp_path / f"{workload}_{config_seed}.cfg"
            path.write_text(text)
            cfg = load_config(path)
            assert cfg.seed == config_seed
            assert cfg.out_dir == Path("out")
            assert set(cfg.methods) == set(run.METHODS)
            assert cfg.record_trajectories == (workload == "quickstart-traj")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_config_seeds_are_distinct_across_workload_seeds(workload):
    seen = [s for seed in range(10) for s in workloads.config_seeds(workload, seed)]
    assert len(seen) == len(set(seen))
    with pytest.raises(ValueError):
        workloads.config_seeds(workload, -1)


def test_mixture_full_shape(tmp_path):
    path = tmp_path / "mix.cfg"
    path.write_text(workloads.config_text("mixture-full", ROOT, 0, "out"))
    cfg = load_config(path)
    assert cfg.prior.dim == 12 and cfg.prior.n_components == 32
    assert not cfg.prior.is_diagonal
    assert cfg.mask.observed_count == 6
    assert (cfg.n_chains, cfg.grid.num_steps, cfg.eta, cfg.gamma) == (500, 50, 0.8, 0.1)
    assert cfg.sampler_config("dps").dps_scale == 0.1


def test_override_replaces_and_appends():
    text = "a = 1  # keep\nseed   = 0\n# seed = 9\n"
    assert workloads.override(text, {"seed": "4", "b": "x"}) == (
        "a = 1  # keep\nseed = 4\n# seed = 9\nb = x\n"
    )


def _span(name, start, end, parent=None):
    return spans.Span(name, float(start), float(end), parent)


def test_self_time_on_synthetic_tree():
    tree = [
        _span("root", 0, 10),
        _span("a", 1, 4, parent=0),
        _span("b", 3, 6, parent=0),     # overlaps a: the union 1..6 is covered once
        _span("a.child", 2, 3, parent=1),
        _span("c", 8, 12, parent=0),    # runs past its parent: clipped at 10
        _span("other", 11, 12),
    ]
    assert spans.self_times(tree) == [10 - 5 - 2, 2, 3, 1, 4, 1]
    assert spans.self_time_by_name(tree + [_span("a", 20, 21)]) == {
        "root": 3, "a": 3, "b": 3, "a.child": 1, "c": 4, "other": 1,
    }


def _inpaintlab_attributes() -> dict[tuple[str, str], object]:
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "inpaintlab" or name.startswith("inpaintlab.")):
            found.update({(name, attr): value for attr, value in vars(mod).items()})
    for cls in (inpaintlab.GMMDenoiser, inpaintlab.GaussianMixture):
        found.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return found


def test_install_then_restore_leaves_originals():
    before = _inpaintlab_attributes()
    restore, missing = spans.install(spans.Tracer())
    assert missing == []
    try:
        during = _inpaintlab_attributes()
        wrapped = {key for key in before if during[key] is not before[key]}
        # every module that imported a probed function by name holds the wrapper
        for key in [("inpaintlab.bridge", "standard_normal"), ("inpaintlab.guidance", "standard_normal"),
                    ("inpaintlab.problem", "standard_normal"), ("inpaintlab.gmm", "component_posterior"),
                    ("inpaintlab.oracle", "component_posterior"), ("inpaintlab.cli", "run_conditional"),
                    ("GMMDenoiser", "jacobian"), ("GaussianMixture", "sample")]:
            assert key in wrapped
    finally:
        restore()
    after = _inpaintlab_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_run_counts_layers_and_keeps_output(tmp_path, monkeypatch):
    text = workloads.config_text("quickstart-traj", ROOT, 3, "out")
    text = workloads.override(text, {"n_chains": "40", "grid.k": "6"})
    (tmp_path / "small.cfg").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert inpaintlab.cli.main(["run", "--config", "small.cfg"]) == 0
    plain = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.dsmp")}

    tracer = spans.Tracer()
    restore, _ = spans.install(tracer)
    try:
        assert inpaintlab.cli.main(["run", "--config", "small.cfg"]) == 0
    finally:
        restore()
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.dsmp")} == plain

    rows = json.loads(json.dumps(spans.to_json(tracer.spans)))
    figures = run.layer_metrics(spans.from_json(rows))
    assert figures["metrics.cpsnr.calls"] == 5 * 40
    assert figures["gmm.jacobian.calls"] == 6  # dps only
    assert figures["io.write_samples.bytes"] == 6 * (13 + 40 * 2 * 8)
    assert figures["cli.trajectories.bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "out").glob("*_trajectories.csv")
    )
    # each step: 1.8 posteriors for the transition, plus the trajectory record
    assert figures["gmm.posterior.per_step"] > 1.8
    assert set(figures) | {"cli.import_s", "trace.overhead_s", "sw2.dps"} == set(run.PER_LAYER)
    assert all(math.isfinite(v) and v >= 0 for v in figures.values())
    assert run.jacobian_audit(spans.from_json(rows)) == []


def test_jacobian_audit_flags_growth_during_ding():
    grew = spans.Span("guidance.run", 0.0, 1.0, None,
                      {"method": "ding", "jacobian_calls": 3}, {"method": "ding", "jacobian_calls": 4})
    dps = spans.Span("guidance.run", 1.0, 2.0, None,
                     {"method": "dps", "jacobian_calls": 4}, {"method": "dps", "jacobian_calls": 9})
    assert len(run.jacobian_audit([grew, dps])) == 1
    assert len(run.jacobian_audit([dps])) == 1  # nothing to audit is a failed check


def test_missing_or_mismatched_probes_do_not_break_the_program():
    def bad_read(args, kwargs):
        return {"x": args[99]}

    probes = (
        spans.Probe("inpaintlab.guidance", "no_such_function", "gone"),
        spans.Probe("inpaintlab.metrics", "cpsnr", "metrics.cpsnr", bad_read),
    )
    original = inpaintlab.metrics.cpsnr
    tracer = spans.Tracer()
    restore, missing = spans.install(tracer, probes)
    try:
        mask = inpaintlab.MaskOperator([1, 0])
        assert inpaintlab.metrics.cpsnr([1.0, 2.0], [1.5, 0.0], mask, 1.0) == original(
            [1.0, 2.0], [1.5, 0.0], mask, 1.0
        )
    finally:
        restore()
    assert missing == ["inpaintlab.guidance.no_such_function"]
    assert [(s.name, s.enter, s.exit) for s in tracer.spans] == [("metrics.cpsnr", {}, {})]
    assert inpaintlab.metrics.cpsnr is original


def test_benchmark_json_matches_the_script():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_speed_probe_samples_beside_a_child_and_scales(tmp_path):
    with run.SpeedProbe() as probe:
        code, wall, _ = run.spawn([sys.executable, "-c", "import time; time.sleep(0.5)"], tmp_path)
    assert code == 0 and 3 <= len(probe.samples) <= 0.5 / run.SPEED_EVERY_S + 2
    assert not probe._thread.is_alive()
    probe.samples = [run.REF_S, 3 * run.REF_S]
    assert probe.scale(10.0) == pytest.approx(10.0 * 0.5**run.SPEED_EXPONENT)
