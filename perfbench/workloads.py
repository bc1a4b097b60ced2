"""The benchmark's workloads: one ``inpaintlab run`` config per (workload, seed).

Each workload seed expands to ``SUB_SEEDS[workload]`` config seeds.
Every config seed draws fresh chain and oracle streams on the same
problem, so the accuracy columns of ``results.csv`` vary only by Monte
Carlo error, and their median over the config seeds is steadier than a
single draw.  The cheap ``quickstart-traj`` takes more of them: its SW2
spreads most from draw to draw.

- ``gmm8``: the shipped ``configs/benchmark_gmm8.cfg`` (n=4000, d=8, two
  diagonal components, K=100, all five methods).  Many chains on a tiny
  prior: the per-chain noise draw dominates, the per-row cpsnr loop
  makes 20,000 calls, and the full-covariance paths are bypassed.
- ``mixture-full``: a generated prior in R^12 with 32 full-covariance
  components and half the coordinates observed, n=500, K=50, with the
  knobs of gmm8.  It exercises the full-covariance denoiser, its
  Jacobian (dps) and the oracle's per-component path; with few chains
  the noise draw is cheap.  The prior comes from the fixed
  ``PRIOR_SEED``: across freshly drawn priors the SW2 of one method
  spreads by about 100% of its median, which would hide any accuracy
  change.
- ``quickstart-traj``: the shipped ``configs/quickstart.cfg`` (d=2,
  n=1000, K=50) with ``trajectories = on``, the write-heavy use of
  ``run``: start-up and the trajectory CSV dominate.

Only the standard library is used here, so that the benchmark process
stays small while it times child processes (a child's peak RSS, read
from ``wait4``, includes the parent pages it was spawned from).
"""

from __future__ import annotations

import random
from pathlib import Path

PRIOR_SEED = 0
SUB_SEEDS = {"gmm8": 2, "mixture-full": 2, "quickstart-traj": 4}
WORKLOADS = tuple(SUB_SEEDS)

_SHIPPED = {"gmm8": "benchmark_gmm8.cfg", "quickstart-traj": "quickstart.cfg"}


def config_seeds(workload: str, seed: int) -> list[int]:
    """The config seeds that one workload seed expands to."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    n = SUB_SEEDS[workload]
    return [seed * n + r for r in range(n)]


def override(text: str, values: dict[str, str]) -> str:
    """Replace the ``key = value`` lines of ``values`` in a flat config; append missing keys."""
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if key in values and "=" in line:
            lines.append(f"{key} = {values[key]}")
            seen.add(key)
        else:
            lines.append(line)
    lines += [f"{key} = {value}" for key, value in values.items() if key not in seen]
    return "\n".join(lines) + "\n"


def _numbers(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def mixture_full_prior(d: int = 12, k: int = 32) -> str:
    """Prior, mask and reference lines of ``mixture-full``, from ``PRIOR_SEED``.

    Means ~ N(0, 2^2 I), weights ~ Dirichlet(1), covariances
    0.3 A A^T / d + 0.2 I with A standard normal, d/2 coordinates
    observed, and the reference drawn from the prior.
    """
    rng = random.Random(PRIOR_SEED)
    gammas = [rng.gammavariate(1.0, 1.0) for _ in range(k)]
    weights = [g / sum(gammas) for g in gammas]
    means = [[rng.gauss(0.0, 2.0) for _ in range(d)] for _ in range(k)]
    factors = [[[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(d)] for _ in range(k)]
    lines = []
    for c, (w, mu, a) in enumerate(zip(weights, means, factors)):
        cov = [
            0.3 * sum(a[i][l] * a[j][l] for l in range(d)) / d + (0.2 if i == j else 0.0)
            for i in range(d)
            for j in range(d)
        ]
        lines += [
            f"prior.component.{c}.weight = {w!r}",
            f"prior.component.{c}.mean = {_numbers(mu)}",
            f"prior.component.{c}.cov = {_numbers(cov)}",
        ]
    observed = set(rng.sample(range(d), d // 2))
    mask = ", ".join("1" if i in observed else "0" for i in range(d))
    # x = mu + sqrt(0.3/d) A z1 + sqrt(0.2) z2 has covariance 0.3 A A^T / d + 0.2 I
    c = rng.choices(range(k), weights=weights)[0]
    z1 = [rng.gauss(0.0, 1.0) for _ in range(d)]
    x_star = [
        means[c][i]
        + (0.3 / d) ** 0.5 * sum(factors[c][i][l] * z1[l] for l in range(d))
        + 0.2**0.5 * rng.gauss(0.0, 1.0)
        for i in range(d)
    ]
    lines += [f"mask.inline = {mask}", f"xstar.inline = {_numbers(x_star)}"]
    return "\n".join(lines) + "\n"


_MIXTURE_KNOBS = """\
schedule = linear-flow
grid.k = 50
grid.spacing = uniform
eta = 0.8
gamma = 0.1
n_chains = 500
methods = ding, dps, ddnm, diffpir, blended
method.dps.zeta = 0.1
final_replacement = off
"""


def config_text(workload: str, root: Path, seed: int, out_dir: str) -> str:
    """The config of ``workload`` at config seed ``seed``, writing to ``out_dir``."""
    values = {"seed": str(seed), "out_dir": out_dir}
    if workload == "mixture-full":
        return override(mixture_full_prior() + _MIXTURE_KNOBS, values)
    if workload == "quickstart-traj":
        values["trajectories"] = "on"
    elif workload != "gmm8":
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return override((root / "configs" / _SHIPPED[workload]).read_text(), values)

