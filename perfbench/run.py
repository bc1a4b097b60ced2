"""Benchmark of ``inpaintlab run``: end-to-end metrics, or per-layer metrics from spans.

    python3 perfbench/run.py --workload gmm8 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing.

``--trace 0`` times fresh ``python -m inpaintlab.cli run`` processes,
each after a fresh set-up process, for ``--seconds`` (at least one per
config seed and one more) and checks their outputs.  This process and
every child are pinned to one CPU.  While the set-up and run processes
work, a thread of this process times the CPU time of a fixed chunk of
page faults every 50 ms on that CPU; ``run_s`` and ``setup_s`` are
medians over iterations of the walls times (``REF_S`` over the mean
chunk time beside them) ** ``SPEED_EXPONENT``, i.e. seconds at the
machine's reference speed.
``--trace 1`` runs the same config in fresh ``runner.py`` processes, once plain and
once with spans around every layer (see ``spans.py``) per iteration,
checks that both wrote the same bytes, and reports per-layer figures.
The last line of standard output is one JSON object; the line before
it, prefixed ``record``, holds the provenance and the raw figures of
every iteration.  Exit code 0: every output check passed; 1: one
failed; 2: the checkout holds no program.  ``INPAINTLAB_THREADS`` is
removed from every child's environment.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import mmap
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUNNER = str(Path(__file__).resolve().parent / "runner.py")
WORK_DIR = ".perfbench_work"
CHILD_TIMEOUT_S = 150.0
# The speed probe: a chunk that faults in SPEED_CHUNK_BYTES of fresh
# pages (about 2.5 ms of CPU time), timed every SPEED_EVERY_S while the
# timed children work, and its usual mean CPU seconds on the baseline
# machine.  A shared 2-vCPU host was seen to change speed by up to 1.7x,
# in slow phases that last minutes and in switches every few seconds, and
# its two CPUs do not change together.  The chunk's CPU time on the
# child's own CPU slows down with the program, so walls scaled by
# (REF_S / mean chunk time beside them) ** SPEED_EXPONENT spread far
# less.  Of the chunks tried (a pure-Python loop, a pointer chase, a
# memory copy, file writes, page faults), page faults followed the
# program's walls most closely; the walls still change by about the
# 1.3th power of the chunk time (log-log slopes 1.1 to 1.5 over the
# three workloads), hence the exponent.
SPEED_CHUNK_BYTES = 1 << 22
SPEED_EVERY_S = 0.05
REF_S = 0.0025
SPEED_EXPONENT = 1.3
METHODS = ("ding", "dps", "ddnm", "diffpir", "blended")
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# dps's SW2 on mixture-full ranges over two orders of magnitude between
# seeds (a few chains nearly diverge), so no bound can hold it: it is
# reported with the per-layer figures instead.
BOUNDED_SW2 = ("ding", "ddnm", "diffpir", "blended")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "out_mb": "MiB",
    "done_frac": "ratio",
    **{f"sw2.{m}": "1" for m in BOUNDED_SW2},
}
PER_LAYER = {
    "gmm.posterior.calls": "count",
    "gmm.posterior.per_step": "ratio",
    "gmm.posterior.s": "s",
    "gmm.jacobian.calls": "count",
    "gmm.jacobian.s": "s",
    "bridge.normal.calls": "count",
    "bridge.normal.draws": "count",
    "bridge.normal.s": "s",
    "guidance.chain_rngs.s": "s",
    "guidance.step.self_s": "s",
    **{f"guidance.run.{m}.s": "s" for m in METHODS},
    "oracle.exact_posterior.s": "s",
    "oracle.sample.s": "s",
    "metrics.sliced_w2.s": "s",
    "metrics.cpsnr.calls": "count",
    "metrics.cpsnr.s": "s",
    "io.write_samples.s": "s",
    "io.write_samples.bytes": "B",
    "cli.trajectories.s": "s",
    "cli.trajectories.bytes": "B",
    "config.load.s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "sw2.dps": "1",
}


@dataclass
class Iteration:
    """One fresh run process at one config seed, with what it left in ``out``."""

    seed: int
    out: Path
    exit: int
    wall_s: float
    rss_kib: int
    setup_s: float = math.nan  # setup_wall_s at the reference speed
    setup_exit: int = 0
    setup_wall_s: float = math.nan
    run_s: float = math.nan  # wall_s at the reference speed
    chunk_s: float = math.nan  # mean speed-probe chunk beside set-up and run
    out_bytes: int = 0
    report: dict = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "INPAINTLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], cwd: Path) -> tuple[int, float, int]:
    """Run a child to completion in ``cwd``: (exit code, wall seconds, peak RSS in KiB).

    Output goes to ``cwd/child.log``; a child still running after
    ``CHILD_TIMEOUT_S`` is killed.
    """
    with open(cwd / "child.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def reference_chunk() -> float:
    """CPU seconds (user and system) of a fixed chunk: map ``SPEED_CHUNK_BYTES``, touch every page, unmap.

    It uses no ``inpaintlab`` code.  CPU time, not wall: the chunk shares
    its CPU with the timed child, and the time it waits for the child is
    not its speed.
    """
    start = time.thread_time()
    with mmap.mmap(-1, SPEED_CHUNK_BYTES) as area:
        for offset in range(0, SPEED_CHUNK_BYTES, mmap.PAGESIZE):
            area[offset] = 1
    return time.thread_time() - start


class SpeedProbe:
    """Times ``reference_chunk`` every ``SPEED_EVERY_S`` in a thread while a child runs.

    ``with SpeedProbe() as probe: spawn(...)``, then ``probe.scale(wall)``.
    The main thread waits in ``os.wait4`` meanwhile, so the probe takes
    about 4% of the child's CPU and no process of its own.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while True:
            self.samples.append(reference_chunk())
            if self._stop.wait(SPEED_EVERY_S):
                return

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, wall_s: float) -> float:
        """``wall_s`` at the reference speed: times (``REF_S`` / mean chunk time) ** ``SPEED_EXPONENT``."""
        return wall_s * (REF_S / statistics.fmean(self.samples)) ** SPEED_EXPONENT


def finish(it: Iteration) -> Iteration:
    """Count what the run wrote, then drop trajectory CSVs (26 MB a run), keeping ``.dsmp`` files."""
    if it.out.exists():
        it.out_bytes = sum(p.stat().st_size for p in it.out.rglob("*") if p.is_file())
        for path in it.out.glob("*_trajectories.csv"):
            path.unlink()
    return it


def iterate(seconds: float, minimum: int, step) -> list:
    """Call ``step(i)`` at least ``minimum`` times, then while another call fits in ``seconds``."""
    start = time.perf_counter()
    done, durations = [], []
    while len(done) < minimum or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        done.append(step(len(done)))
        durations.append(time.perf_counter() - t0)
    return done


def check_outputs(out: Path, config: Path) -> tuple[int, dict[str, float], list[str]]:
    """Methods configured, SW2 by method from ``results.csv``, and the output checks that failed."""
    import numpy as np
    from inpaintlab.config import load_config
    from inpaintlab.io import read_samples

    cfg = load_config(config)
    problems = []
    results = out / "results.csv"
    rows = list(csv.DictReader(results.open())) if results.exists() else []
    sw2 = {row["method"]: float(row["sw2_to_oracle"]) for row in rows}
    if sorted(row["method"] for row in rows) != sorted(cfg.methods):
        problems.append(f"results.csv rows {[r['method'] for r in rows]}, configured {list(cfg.methods)}")
    expected = {f"{m}_{cfg.seed}.dsmp": cfg.n_chains for m in cfg.methods}
    expected[f"oracle_{cfg.seed}.dsmp"] = cfg.oracle_n or cfg.n_chains
    for name, n in expected.items():
        try:
            x = read_samples(out / name)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if x.shape != (n, cfg.prior.dim) or not np.all(np.isfinite(x)):
            problems.append(f"{name}: shape {x.shape}, expected ({n}, {cfg.prior.dim}) and finite")
    return len(cfg.methods), sw2, problems


def dsmp_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.dsmp"))}


@dataclass
class Score:
    sw2_by_seed: dict[int, dict[str, float]]
    attempted: int
    failed: int
    problems: list[str]


def score(its: list[Iteration], configs: dict[int, Path]) -> Score:
    """Output checks of every iteration; iterations of one config seed must write the same bytes."""
    result = Score({}, 0, 0, [])
    first: dict[int, tuple[str, dict[str, str]]] = {}
    for it in its:
        where = it.out.parent.name
        if it.exit != 0:
            result.problems.append(f"{where}: run exited {it.exit}")
        if it.setup_exit != 0:
            result.problems.append(f"{where}: set-up exited {it.setup_exit}")
        n_methods, sw2, found = check_outputs(it.out, configs[it.seed])
        result.problems += [f"{where}: {p}" for p in found]
        result.sw2_by_seed.setdefault(it.seed, sw2)
        result.attempted += n_methods
        result.failed += n_methods - len(sw2)
        digests = dsmp_digests(it.out)
        earlier, expected = first.setdefault(it.seed, (where, digests))
        if digests != expected:
            result.problems.append(f"{where}: .dsmp files differ from {earlier} at config seed {it.seed}")
    return result


def write_configs(workload: str, work: Path, seed: int) -> dict[int, Path]:
    paths = {}
    for config_seed in workloads.config_seeds(workload, seed):
        path = work / f"config_{config_seed}.cfg"
        path.write_text(workloads.config_text(workload, ROOT, config_seed, "out"))
        paths[config_seed] = path
    return paths


def measure(workload: str, work: Path, seed: int, seconds: float):
    """``--trace 0``: end-to-end metrics of fresh set-up and run processes."""
    configs = write_configs(workload, work, seed)
    seeds = list(configs)

    def step(i: int) -> Iteration:
        config_seed = seeds[i % len(seeds)]
        config = str(configs[config_seed])
        cwd = work / f"it{i}"
        cwd.mkdir()
        with SpeedProbe() as probe:
            setup_exit, setup_wall, _ = spawn([sys.executable, RUNNER, "setup", "--config", config], cwd)
            code, wall, rss = spawn([sys.executable, "-m", "inpaintlab.cli", "run", "--config", config], cwd)
        it = Iteration(config_seed, cwd / "out", code, wall, rss, probe.scale(setup_wall), setup_exit,
                       setup_wall_s=setup_wall, run_s=probe.scale(wall),
                       chunk_s=statistics.fmean(probe.samples))
        return finish(it)

    # every config seed, then the first again, so every run checks determinism
    its = iterate(seconds, len(seeds) + 1, step)
    checked = score(its, configs)
    metrics = {
        "run_s": statistics.median(it.run_s for it in its),
        "setup_s": statistics.median(it.setup_s for it in its),
        "peak_rss_mb": statistics.median(it.rss_kib for it in its) / 1024,
        "out_mb": statistics.median(it.out_bytes for it in its) / 2**20,
        "done_frac": (checked.attempted - checked.failed) / checked.attempted,
    }
    for m in BOUNDED_SW2:
        values = [sw2[m] for sw2 in checked.sw2_by_seed.values() if m in sw2]
        if values:
            metrics[f"sw2.{m}"] = statistics.median(values)
    raw = {
        "iterations": [
            {"config_seed": it.seed, "exit": it.exit, "run_wall_s": it.wall_s,
             "setup_wall_s": it.setup_wall_s, "chunk_s": it.chunk_s, "run_s": it.run_s,
             "setup_s": it.setup_s, "peak_rss_kib": it.rss_kib, "out_bytes": it.out_bytes}
            for it in its
        ],
        "ref_chunk_s": REF_S,
        "sw2_by_config_seed": checked.sw2_by_seed,
    }
    return metrics, checked, raw


def layer_metrics(span_list: list[spans.Span]) -> dict[str, float]:
    """Per-layer figures of one traced run; ``.s`` is self time, except for a whole method's run."""
    own = spans.self_time_by_name(span_list)
    count = dict.fromkeys(own, 0)
    for s in span_list:
        count[s.name] += 1

    def total(name: str, key: str) -> float:
        return sum(s.exit.get(key, 0) for s in span_list if s.name == name)

    steps = count.get("guidance.step", 0)
    figures = {
        "gmm.posterior.calls": count.get("gmm.posterior", 0),
        "gmm.posterior.per_step": count.get("gmm.posterior", 0) / steps if steps else 0.0,
        "gmm.posterior.s": own.get("gmm.posterior", 0.0),
        "gmm.jacobian.calls": count.get("gmm.jacobian", 0),
        "gmm.jacobian.s": own.get("gmm.jacobian", 0.0),
        "bridge.normal.calls": count.get("bridge.normal", 0),
        "bridge.normal.draws": total("bridge.normal", "draws"),
        "bridge.normal.s": own.get("bridge.normal", 0.0),
        "guidance.chain_rngs.s": own.get("guidance.chain_rngs", 0.0),
        "guidance.step.self_s": own.get("guidance.step", 0.0),
        "oracle.exact_posterior.s": own.get("oracle.exact_posterior", 0.0),
        "oracle.sample.s": own.get("oracle.sample", 0.0),
        "metrics.sliced_w2.s": own.get("metrics.sliced_w2", 0.0),
        "metrics.cpsnr.calls": count.get("metrics.cpsnr", 0),
        "metrics.cpsnr.s": own.get("metrics.cpsnr", 0.0),
        "io.write_samples.s": own.get("io.write_samples", 0.0),
        "io.write_samples.bytes": total("io.write_samples", "bytes"),
        "cli.trajectories.s": own.get("cli.trajectories", 0.0),
        "cli.trajectories.bytes": total("cli.trajectories", "bytes"),
        "config.load.s": own.get("config.load", 0.0),
    }
    for m in METHODS:
        figures[f"guidance.run.{m}.s"] = sum(
            s.end - s.start for s in span_list
            if s.name == "guidance.run" and s.enter.get("method") == m
        )
    return figures


def jacobian_audit(span_list: list[spans.Span]) -> list[str]:
    """``GMMDenoiser.jacobian_calls`` must not grow while ding runs."""
    ding = [s for s in span_list if s.name == "guidance.run" and s.enter.get("method") == "ding"]
    if not ding or any("jacobian_calls" not in s.exit for s in ding):
        return ["jacobian audit: no ding run with a readable jacobian_calls in the spans"]
    return [
        f"jacobian_calls grew from {s.enter['jacobian_calls']} to {s.exit['jacobian_calls']} while ding ran"
        for s in ding
        if s.exit["jacobian_calls"] != s.enter["jacobian_calls"]
    ]


def trace(workload: str, work: Path, seed: int, seconds: float):
    """``--trace 1``: per-layer metrics from spans, beside a plain run of the same config."""
    configs = write_configs(workload, work, seed)
    config_seed = workloads.config_seeds(workload, seed)[0]

    def one(i: int, traced: bool) -> Iteration:
        cwd = work / f"it{i}{'traced' if traced else 'plain'}"
        cwd.mkdir()
        argv = [sys.executable, RUNNER, "run", "--config", str(configs[config_seed]),
                "--report", "report.json"]
        code, wall, rss = spawn(argv + (["--trace"] if traced else []), cwd)
        it = Iteration(config_seed, cwd / "out", code, wall, rss)
        if (cwd / "report.json").exists():
            it.report = json.loads((cwd / "report.json").read_text())
        return finish(it)

    pairs = iterate(seconds, 1, lambda i: (one(i, False), one(i, True)))
    checked = score([it for pair in pairs for it in pair], configs)
    per_pair, top = [], []
    for plain, traced in pairs:
        span_list = spans.from_json(traced.report.get("spans", []))
        checked.problems += jacobian_audit(span_list)
        wall = traced.report.get("wall_s", math.nan)
        figures = layer_metrics(span_list)
        figures["cli.import_s"] = traced.report.get("import_s", math.nan)
        figures["trace.overhead_s"] = wall - plain.report.get("wall_s", math.nan)
        figures["sw2.dps"] = checked.sw2_by_seed[config_seed].get("dps", math.nan)
        per_pair.append(figures)
        own = sorted(spans.self_time_by_name(span_list).items(), key=lambda kv: -kv[1])
        top.append([(name, s, s / wall) for name, s in own[:5]])
    metrics = {name: statistics.median(p[name] for p in per_pair) for name in per_pair[0]}
    unprobed = pairs[0][1].report.get("unprobed", [])
    return metrics, checked, {"pairs": per_pair, "top_self_s": top, "unprobed": unprobed}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout when it is itself a git work tree, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "config_seeds": workloads.config_seeds(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    needed = ("src/inpaintlab/cli.py", "configs/benchmark_gmm8.cfg", "configs/quickstart.cfg")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an inpaintlab checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # before any thread starts: the threads and children started later
    # inherit the CPU, so the speed probe runs where the program runs
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR))
    try:
        metrics, checked, raw = (trace if args.trace else measure)(
            args.workload, work, args.seed, args.seconds
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass  # another benchmark process still works there

    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{args.workload:<16} {name:<26} {metrics.get(name, math.nan):>14.6g} {unit}")
    for name, s, share in raw.get("top_self_s", [[]])[0]:
        print(f"{args.workload:<16} self time {name:<22} {s:>8.3f} s  {share:6.1%} of the traced run")
    for name in raw.get("unprobed", []):
        print(f"{args.workload:<16} not probed, no such function: {name}")
    for problem in checked.problems:
        print(f"CHECK FAILED: {problem}")
    record = {"provenance": provenance(args), "problems": checked.problems, **raw}
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not checked.problems,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if not checked.problems else 1


if __name__ == "__main__":
    sys.exit(main())
