"""The committed tools under ``tools/``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAME_OUTPUTS = ROOT / "tools" / "same_outputs.py"


def _same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", SAME_OUTPUTS)
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
    tool = _same_outputs()
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


def test_same_outputs_rejects_a_tree_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(SAME_OUTPUTS), str(tmp_path), "gmm8"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "inpaintlab does not load from" in proc.stderr
