"""Check that two source trees give the same ``inpaintlab run`` outputs.

    python tools/same_outputs.py PARENT_SRC [CASE ...]

PARENT_SRC is the ``src`` directory of the tree to compare against (for
example a ``git archive`` of the parent commit); the other tree is this
checkout's ``src``.  The cases are the workloads of
``perfbench/workloads.py`` and ``quickstart-noisy``, the shipped quickstart
with a noisy observation at gamma = 0.5, the trig-vp schedule, the
quadratic grid and an oracle of 700 draws against 1000 chains: paths that
no workload runs.  For each case (default: all of them) at config seeds 0
and 1, the config is written once and ``python -W error -m inpaintlab.cli
run`` runs it in a fresh directory per tree, with that tree's ``src``
alone on ``PYTHONPATH`` and no bytecode written.  The two runs must agree
in:

- the set of files written;
- the SHA-256 of every ``.dsmp`` file (method, oracle and trajectory
  samples);
- every ``results.csv`` column except ``runtime_ms``, and any other file
  byte for byte;
- the exit code, standard output and standard error.

Exit code 0 when everything is identical, 1 when anything differs (each
difference is printed), 2 on a usage error.  ``perfbench/workloads.py`` is
imported without writing bytecode next to it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
UNTIMED = "runtime_ms"
OFF_BENCHMARK = {
    "quickstart-noisy": {
        "observation.noisy": "on", "gamma": "0.5", "schedule": "trig-vp",
        "grid.spacing": "quadratic", "oracle.n": "700",
    },
}


def _load_workloads():
    """perfbench/workloads.py as a module, with no bytecode cache written."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()
CASES = (*workloads.WORKLOADS, *OFF_BENCHMARK)


def config_text(case: str, seed: int) -> str:
    """The config of ``case`` at config seed ``seed``, writing to ``out``."""
    if case in OFF_BENCHMARK:
        text = (ROOT / "configs" / "quickstart.cfg").read_text()
        values = {**OFF_BENCHMARK[case], "seed": str(seed), "out_dir": "out"}
        return workloads.override(text, values)
    return workloads.config_text(case, ROOT, seed, "out")


def _env(src: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def package_dir(src: Path) -> Path | None:
    """The directory ``import inpaintlab`` resolves to with ``src`` on the
    path, or None when it does not import."""
    proc = subprocess.run(
        [sys.executable, "-c", "import inpaintlab; print(inpaintlab.__file__)"],
        env=_env(src), cwd=tempfile.gettempdir(), capture_output=True, text=True,
    )
    return Path(proc.stdout.strip()).resolve().parent if proc.returncode == 0 else None


def run_tree(src: Path, config: str, run_dir: Path) -> dict[str, object]:
    """Run ``config`` with the package of ``src`` in ``run_dir``, writing to
    ``run_dir/out``; returns the exit code, stdout and stderr."""
    run_dir.mkdir(parents=True)
    (run_dir / "exp.cfg").write_text(config)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "inpaintlab.cli", "run", "--config", "exp.cfg"],
        env=_env(src), cwd=run_dir, capture_output=True, text=True,
    )
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _results(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != UNTIMED] if rows else []
    return [[row[i] for i in keep if i < len(row)] for row in rows]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def differences(parent: Path, change: Path) -> list[str]:
    """Every way the outputs under ``change/out`` differ from ``parent/out``."""
    found = []
    names = [sorted(p.name for p in (d / "out").iterdir()) if (d / "out").is_dir() else []
             for d in (parent, change)]
    for name in sorted(set(names[0]) ^ set(names[1])):
        found.append(f"{name}: written by {'parent' if name in names[0] else 'change'} only")
    for name in sorted(set(names[0]) & set(names[1])):
        a, b = parent / "out" / name, change / "out" / name
        if name == "results.csv":
            rows_a, rows_b = _results(a), _results(b)
            if len(rows_a) != len(rows_b):
                found.append(f"results.csv: {len(rows_a)} rows against {len(rows_b)}")
            bad = [i for i, (x, y) in enumerate(zip(rows_a, rows_b)) if x != y]
            if bad:
                found.append(f"results.csv: rows {bad} differ outside {UNTIMED}")
        elif name.endswith(".dsmp"):
            if _digest(a) != _digest(b):
                found.append(f"{name}: sha256 differs")
        elif a.read_bytes() != b.read_bytes():
            found.append(f"{name}: bytes differ")
    return found


def compare(parent_src: Path, change_src: Path, names: list[str], work: Path) -> list[str]:
    """Run every case at every seed in both trees; return the differences,
    each prefixed by its case and seed."""
    found = []
    for name in names:
        for seed in SEEDS:
            config = config_text(name, seed)
            case = f"{name} seed {seed}"
            runs = {}
            for tree, src in (("parent", parent_src), ("change", change_src)):
                runs[tree] = run_tree(src, config, work / tree / f"{name}-{seed}")
            diffs = [f"{key}: {runs['parent'][key]!r} against {runs['change'][key]!r}"
                     for key in runs["parent"] if runs["parent"][key] != runs["change"][key]]
            diffs += differences(work / "parent" / f"{name}-{seed}",
                                 work / "change" / f"{name}-{seed}")
            out = work / "change" / f"{name}-{seed}" / "out"
            n_dsmp = len(list(out.glob("*.dsmp"))) if out.is_dir() else 0
            stderr = "empty" if not runs["change"]["stderr"] else "not empty"
            print(f"{case}: {n_dsmp} .dsmp files, exit code {runs['change']['exit code']}, "
                  f"stderr {stderr}: {'identical' if not diffs else 'DIFFERENT'}")
            found += [f"{case}: {d}" for d in diffs]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help=f"any of {', '.join(CASES)} (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        parser.error(f"unknown cases {', '.join(unknown)}")
    names = args.cases or list(CASES)
    trees = (args.parent_src.resolve(), ROOT / "src")
    for src in trees:
        if package_dir(src) != src / "inpaintlab":
            print(f"same_outputs: inpaintlab does not load from {src}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        found = compare(*trees, names, Path(work))
    for line in found:
        print(f"DIFFERS {line}")
    print("identical" if not found else f"differences: {len(found)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
