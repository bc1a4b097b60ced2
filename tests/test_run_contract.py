"""Property test of the run contract: over random small configs, ``run``
exits 0, 2 or 4, lets no warning escape, and each exit keeps its promise.

At exit 0 every ``.dsmp`` file is finite and ``results.csv`` holds one row
per method, in config order; at exit 2 stderr is one ``config error:``
line; at exit 4 it is one ``numeric failure:`` line that names a method
and a step for each failed method, or names the exact posterior with a
count of at least one failed component.
"""

import contextlib
import csv
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from inpaintlab import METHODS
from inpaintlab.cli import main
from inpaintlab.io import read_samples

_METHOD_FAILURE = re.compile(rf"({'|'.join(METHODS)}) at step k=\d+ \(t=\S+ -> s=\S+\): .+")
_POSTERIOR_FAILURE = re.compile(
    r"exact posterior at gamma = \S+: ([1-9]\d*) of \d+ components lost variance to rounding"
)


def _numbers(values) -> str:
    return ", ".join(repr(float(v)) for v in np.ravel(values))


@st.composite
def configs(draw):
    """The text of a small config (with no ``out_dir``) and its method list."""
    d, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    full = draw(st.booleans())
    scale = 10.0 ** draw(st.floats(-6, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.1, 1.0, k)
    weights /= weights.sum()
    means = 30.0 * draw(st.floats(0, 1)) * rng.uniform(-1, 1, (k, d))
    lines = []
    for i in range(k):
        if full:
            b = rng.standard_normal((d, d))
            cov = scale**2 * (b @ b.T / d + 0.1 * np.eye(d))
            cov = 0.5 * (cov + cov.T)
        else:
            cov = scale**2 * rng.uniform(0.5, 2.0, d)
        lines += [f"prior.component.{i}.weight = {float(weights[i])!r}",
                  f"prior.component.{i}.mean = {_numbers(means[i])}",
                  f"prior.component.{i}.cov = {_numbers(cov)}"]
    x_star = means[rng.integers(k)] + scale * rng.standard_normal(d)
    methods = draw(st.permutations(METHODS).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda n: order[:n])))
    on_off = st.sampled_from(["on", "off"])
    lines += [
        f"schedule = {draw(st.sampled_from(['linear-flow', 'trig-vp']))}",
        f"grid.k = {draw(st.integers(1, 40))}",
        f"grid.spacing = {draw(st.sampled_from(['uniform', 'quadratic']))}",
        f"eta = {draw(st.floats(0, 1))!r}",
        f"gamma = {10.0 ** draw(st.floats(-6, 1))!r}",
        f"zeta = {10.0 ** draw(st.floats(-3, 1))!r}",
        f"lambda = {10.0 ** draw(st.floats(-2, 2))!r}",
        f"ding_nz = {draw(st.integers(1, 3))}",
        f"final_replacement = {draw(on_off)}",
        f"trajectories = {draw(on_off)}",
        f"observation.noisy = {draw(on_off)}",
        f"methods = {', '.join(methods)}",
        f"mask.inline = {', '.join(str(m) for m in rng.integers(0, 2, d))}",
        f"xstar.inline = {_numbers(x_star)}",
        f"n_chains = {draw(st.integers(1, 8))}",
        f"seed = {draw(st.integers(0, 3))}",
        "sw2.projections = 8",
    ]
    return "\n".join(lines) + "\n", list(methods)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(configs())
def test_run_exits_0_2_or_4_and_keeps_each_exits_promise(case):
    text, methods = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text + f"out_dir = {out}\n")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg)])
        lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning: ")]
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2, 4), (code, lines)
        if code == 0:
            assert lines == []
            with open(out / "results.csv", newline="") as fh:
                assert [row[0] for row in csv.reader(fh)][1:] == methods
            for path in out.glob("*.dsmp"):
                assert np.all(np.isfinite(read_samples(path))), path.name
        elif code == 2:
            assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        else:
            assert len(lines) == 1 and lines[0].startswith("numeric failure: "), lines
            message = lines[0].removeprefix("numeric failure: ")
            if not _POSTERIOR_FAILURE.fullmatch(message):
                for part in message.split("; "):
                    assert _METHOD_FAILURE.fullmatch(part), message
