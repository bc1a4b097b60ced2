"""The committed tools under ``tools/``, and a scan of the package source
for private names that nothing uses."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SAME_OUTPUTS = ROOT / "tools" / "same_outputs.py"
CODE_LINES = ROOT / "tools" / "code_lines.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_passes_a_tree_against_itself_and_names_a_corrupted_output(
        monkeypatch, capsys):
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(SAME_OUTPUTS), src, "quickstart-traj"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "identical"
    assert "quickstart-traj seed 1: 11 .dsmp files, exit code 0, stderr empty" in proc.stdout

    # one flipped byte in one trajectory file of the second tree's second seed
    tool = _load(SAME_OUTPUTS)
    run_tree = tool.run_tree

    def corrupting(tree_src, config, run_dir):
        result = run_tree(tree_src, config, run_dir)
        if run_dir.parent.name == "change" and run_dir.name.endswith("-1"):
            target = run_dir / "out" / "ding_1_trajectories.dsmp"
            data = bytearray(target.read_bytes())
            data[-1] ^= 1
            target.write_bytes(bytes(data))
        return result

    monkeypatch.setattr(tool, "run_tree", corrupting)
    assert tool.main([src, "quickstart-traj"]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS quickstart-traj seed 1: ding_1_trajectories.dsmp: sha256 differs" in out
    assert out.count("DIFFERS") == 1 and out.splitlines()[-1] == "differences: 1"


def test_same_outputs_runs_the_off_benchmark_quickstart_case(tmp_path):
    from inpaintlab.config import load_config

    # the case's config turns on what no benchmark workload runs
    path = tmp_path / "exp.cfg"
    path.write_text(_load(SAME_OUTPUTS).config_text("quickstart-noisy", 1))
    cfg = load_config(path)
    assert cfg.noisy_observation and cfg.gamma == 0.5 and cfg.seed == 1
    assert cfg.sched.kind == "trig-vp" and cfg.out_dir == Path("out")
    assert not np.allclose(np.diff(cfg.grid.knots), cfg.grid.knots[1])  # not uniform
    assert (cfg.oracle_n, cfg.n_chains) == (700, 1000)
    assert cfg.problem(np.random.default_rng(0)).y[0] != cfg.x_star[0]
    proc = subprocess.run([sys.executable, str(SAME_OUTPUTS), str(ROOT / "src"),
                           "quickstart-noisy"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        f"quickstart-noisy seed {seed}: 6 .dsmp files, exit code 0, stderr empty: identical"
        for seed in (0, 1)
    ] + ["identical"]


def test_same_outputs_rejects_a_tree_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(SAME_OUTPUTS), str(tmp_path), "gmm8"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "inpaintlab does not load from" in proc.stderr


# the docstrings (three lines of the module's, one each of f's and C's),
# comments and blank lines do not count; the call and the non-docstring
# string count every line they span
FIXTURE = '''"""A module docstring
over three
lines."""

import os  # a trailing comment does not stop the line counting

# a comment line


def f(x):
    """One docstring line."""
    s = """a string that is not a docstring,
    over two lines"""
    return os.path.join(
        x,  # inside a call
        s,
    )


class C:
    """Docstring."""

    y = 1
'''


def test_code_lines_counts_lines_with_a_token_outside_comments_and_docstrings(tmp_path):
    tool = _load(CODE_LINES)
    # import, def, the two string lines, the four return lines, class, y = 1
    assert tool.code_lines(FIXTURE) == 10
    package = tmp_path / "src" / "uncovered_fixture"
    package.mkdir(parents=True)
    (package / "b.py").write_text(FIXTURE)
    (package / "a.py").write_text("# only a comment\n\nx = (1,\n     2)\n")
    (package / "notes.txt").write_text("x = 1\n")
    proc = subprocess.run([sys.executable, str(CODE_LINES), str(package)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["     2  a.py", "    10  b.py", "    12  total", ""]
    proc = subprocess.run([sys.executable, str(CODE_LINES), str(tmp_path / "missing")],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "not a directory" in proc.stderr


UNCOVERED = ROOT / "tools" / "uncovered.py"
TWO_BRANCH = '''"""A module docstring, never reported."""

import functools


def sign(x):
    """Neither is this one."""
    if x < 0:
        return "negative"
    return "non-negative"


@functools.cache
def never_called():
    return (1,
            2)
'''


def test_uncovered_lists_the_branch_a_test_never_takes(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "uncovered_fixture"
    package.mkdir(parents=True)
    (package / "two_branch.py").write_text(TWO_BRANCH)
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_two_branch.py").write_text(
        "from uncovered_fixture.two_branch import sign\n\n\n"
        "def test_non_negative():\n    assert sign(2) == 'non-negative'\n\n\n"
        "def test_fails():\n    assert False\n")
    monkeypatch.setattr(sys, "path", sys.path[:])  # the tool puts tmp_path / "src" first
    tool = _load(UNCOVERED)
    previous = sys.gettrace()
    assert tool.main([str(tmp_path / "test_two_branch.py"), "-q", "-p", "no:cacheprovider"],
                     package=package) == 0
    assert sys.gettrace() is previous
    out = capsys.readouterr().out.splitlines()
    # the decorated def ran at import, its body never did; a failing test
    # sets pytest's exit code, not the tool's
    assert out[-4:] == [
        "src/uncovered_fixture/two_branch.py:9: return \"negative\"",
        "src/uncovered_fixture/two_branch.py:15: return (1,",
        "2 statements never ran",
        "pytest exit code 1",
    ]


def _unused_private_names(package: Path) -> list[str]:
    """Each private top-level function, class or assigned name of a module of
    ``package`` that its module never loads and no module imports or reads
    as an attribute, as ``module: name``."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    elsewhere = {node.attr if isinstance(node, ast.Attribute) else node.name
                 for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, (ast.Attribute, ast.alias))}
    unused = []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [f"{module}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in loaded | elsewhere]
    return unused


def test_every_private_top_level_name_of_the_package_is_used(tmp_path):
    assert _unused_private_names(ROOT / "src" / "inpaintlab") == []
    (tmp_path / "a.py").write_text(
        "_USED, _SPARE = 1, 2\n_IMPORTED = 3\n\n\ndef _orphan():\n    return _USED\n\n\n"
        "class _Unused:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import _IMPORTED\n")
    assert _unused_private_names(tmp_path) == ["a.py: _SPARE", "a.py: _orphan", "a.py: _Unused"]
