"""Flat key = value experiment configuration.

The config file is plain text, one ``key = value`` pair per line, ``#``
comments, no nesting in the syntax (dots in keys carry the structure), so
no language-specific serialization is assumed.  See the README for the
full schema; the shape is:

    prior.component.0.weight = 0.5
    prior.component.0.mean   = -2, -2, -2, -2
    prior.component.0.cov    = 1, 1, 1, 1        # d values: diagonal, d*d: full
    schedule        = linear-flow
    grid.k          = 100
    grid.spacing    = uniform
    eta             = 0.8
    gamma           = 0.1
    n_chains        = 4000
    seed            = 0
    out_dir         = results
    methods         = ding, dps, ddnm            # each method once
    method.ding.gamma = 0.05                     # method.<m>.<knob> overrides <knob>
    mask.inline     = 1, 1, 0, 0                 # or mask.pgm = path
    xstar.inline    = 0.3, -1.2, 0.0, 0.4        # or xstar.dsmp = path (row 0)

A prior may instead come from ``prior.csv = file``: one component per
row, ``weight, mean_0..mean_{d-1}, var_0..var_{d-1}`` (diagonal layout).
Every number must be finite; parse errors report the offending line number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .gmm import GaussianMixture
from .guidance import METHODS, SamplerConfig
from .io import DSMP_LIMIT, read_pgm_mask, read_samples
from .metrics import valid_peak
from .problem import InpaintingProblem, MaskOperator, make_observation, valid_gamma
from .schedule import GRID_SPACINGS, SCHEDULE_KINDS, Schedule, TimeGrid, make_grid

_BOOL_WORDS = {"on": True, "true": True, "1": True, "yes": True,
               "off": False, "false": False, "0": False, "no": False}

_GLOBAL_KEYS = {
    "schedule", "grid.k", "grid.spacing", "n_chains", "seed", "out_dir", "methods",
    "mask.inline", "mask.pgm", "xstar.inline", "xstar.dsmp", "prior.csv",
    "observation.noisy", "sw2.projections", "sw2.seed", "cpsnr.peak",
    "trajectories", "oracle.n",
}
_COMPONENT_KEY = re.compile(r"prior\.component\.(0|[1-9][0-9]*)\.(weight|mean|cov)")


def parse_flat(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a flat dict, with line diagnostics."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _floats(key: str, value: str) -> np.ndarray:
    """The numbers of a comma- or space-separated list; ``key`` names it in errors."""
    try:
        numbers = np.array([float(v) for v in value.replace(",", " ").split()])
    except ValueError:
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}") from None
    if not np.all(np.isfinite(numbers)):
        raise ConfigError(f"{key}: expected a finite number in every entry, got {value!r}")
    return numbers


def _get_float(pairs: dict[str, str], key: str, default: float | None = None) -> float | None:
    if key not in pairs:
        return default
    try:
        value = float(pairs[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {pairs[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {pairs[key]!r}")
    return value


def _get_int(pairs: dict[str, str], key: str, default: int | None = None) -> int | None:
    if key not in pairs:
        return default
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {pairs[key]!r}") from None


def _get_bool(pairs: dict[str, str], key: str, default: bool | None = None) -> bool | None:
    if key not in pairs:
        return default
    word = pairs[key].lower()
    if word not in _BOOL_WORDS:
        raise ConfigError(f"{key}: expected on/off, got {pairs[key]!r}")
    return _BOOL_WORDS[word]


def _checked(pairs: dict[str, str], key: str, read, rule: tuple, default=None):
    """``read(pairs, key, default)``, where a value that ``key`` sets must pass
    ``rule``, a (test, text) pair; the error names ``key`` and states the text."""
    value = read(pairs, key)
    if value is None:
        return default
    test, text = rule
    if not test(value):
        raise ConfigError(f"{key}: {text}, got {pairs[key]!r}")
    return value


_POSITIVE = (lambda v: v > 0, "must be strictly positive")
_POSITIVE_INT = (lambda v: v > 0, "must be a positive integer")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_GAMMA = (valid_gamma, "must be strictly positive with a finite square")
_PEAK = (valid_peak, "must be strictly positive with a nonzero finite square")


def _one_of(names: tuple[str, ...]) -> tuple:
    return (lambda v: v in names, f"must be one of {', '.join(names)}")


# the sampler knobs: config key -> (SamplerConfig field, reader, rule); an
# unset knob keeps the field's default
_SAMPLER_KEYS = {
    "eta": ("eta", _get_float, (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")),
    "gamma": ("gamma", _get_float, _GAMMA),
    "zeta": ("dps_scale", _get_float, _POSITIVE),
    "lambda": ("diffpir_lambda", _get_float, _POSITIVE),
    "ding_nz": ("ding_nz", _get_int, _POSITIVE),
    "final_replacement": ("final_replacement", _get_bool, (lambda v: True, "")),
}


def _sampler_configs(
    pairs: dict[str, str], methods: list[str], grid: TimeGrid, seed: int, n_chains: int
) -> dict[str, SamplerConfig]:
    """One SamplerConfig per method, each knob from ``method.<m>.<key>`` or else ``<key>``.

    Every knob key given must meet its knob's rule, whether or not a listed
    method reads it, and an error names that key.
    """
    for key in pairs:
        if key not in _SAMPLER_KEYS and not key.startswith("method."):
            continue
        m, knob = key.split(".")[1:] if key.startswith("method.") else (None, key)
        if m is not None and m not in METHODS:
            raise ConfigError(f"{key}: unknown method {m!r}; expected one of {METHODS}")
        value = _checked(pairs, key, *_SAMPLER_KEYS[knob][1:])
        # a global eta reaches ding when ding is listed and does not override it
        if knob == "eta" and value == 0.0 and (
            m == "ding" or m is None and "ding" in methods and "method.ding.eta" not in pairs
        ):
            raise ConfigError(f"{key}: must be > 0 for ding (at 0 it applies no guidance), "
                              f"got {pairs[key]!r}")
    samplers = {}
    for m in methods:
        knobs = {}
        for key, (name, read, _) in _SAMPLER_KEYS.items():
            value = read(pairs, f"method.{m}.{key}", read(pairs, key))
            if value is not None:
                knobs[name] = value
        samplers[m] = SamplerConfig(m, grid, seed=seed, n_chains=n_chains, **knobs)
    return samplers


def _load_prior_csv(path: Path) -> GaussianMixture:
    rows = [
        _floats(f"{path} line {lineno}", line.split("#", 1)[0])
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if line.split("#", 1)[0].strip()
    ]
    if not rows:
        raise ConfigError(f"{path}: empty prior CSV")
    width = rows[0].size
    if width % 2 == 0 or width < 3:
        raise ConfigError(f"{path}: rows must hold weight, d means, d variances")
    d = (width - 1) // 2
    if any(r.size != width for r in rows):
        raise ConfigError(f"{path}: ragged rows")
    mat = np.stack(rows)
    return _mixture(mat[:, 0], mat[:, 1 : 1 + d], mat[:, 1 + d :])


def _mixture(weights: np.ndarray, means: np.ndarray, covs: np.ndarray) -> GaussianMixture:
    try:
        return GaussianMixture(weights, means, covs)
    except ValueError as exc:
        raise ConfigError(f"invalid prior: {exc}") from None


def _load_prior_inline(pairs: dict[str, str]) -> GaussianMixture:
    indices = sorted(
        {
            int(key.split(".")[2])
            for key in pairs
            if key.startswith("prior.component.")
        }
    )
    if not indices:
        raise ConfigError("no prior given (prior.csv or prior.component.* keys)")
    if indices != list(range(len(indices))):
        raise ConfigError(f"prior component indices must be 0..{len(indices) - 1}")
    weights, means, covs = [], [], []
    for i in indices:
        base = f"prior.component.{i}"
        for suffix in ("weight", "mean", "cov"):
            if f"{base}.{suffix}" not in pairs:
                raise ConfigError(f"missing key {base}.{suffix}")
        weights.append(_get_float(pairs, f"{base}.weight"))
        means.append(_floats(f"{base}.mean", pairs[f"{base}.mean"]))
        covs.append(_floats(f"{base}.cov", pairs[f"{base}.cov"]))
    d = means[0].size
    if any(m.size != d for m in means):
        raise ConfigError("prior component means have inconsistent dimensions")
    cov_sizes = {c.size for c in covs}
    if not cov_sizes <= {d, d * d}:
        raise ConfigError(f"prior covariances must have {d} (diagonal) or {d * d} (full) entries")
    if cov_sizes == {d}:
        cov_arr = np.stack(covs)
    else:  # at least one full matrix: promote any diagonals
        cov_arr = np.stack(
            [c.reshape(d, d) if c.size == d * d else np.diag(c) for c in covs]
        )
    return _mixture(np.array(weights), np.stack(means), cov_arr)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment as ``load_config`` reads it: the file's global keys,
    defaults filled in, and each method's ``SamplerConfig`` in ``samplers``."""

    prior: GaussianMixture
    sched: Schedule
    grid: TimeGrid
    samplers: dict[str, SamplerConfig]
    mask: MaskOperator
    x_star: np.ndarray
    gamma: float  # the observation's temperature, whatever a method overrides
    eta: float
    n_chains: int
    seed: int
    out_dir: Path
    noisy_observation: bool
    sw2_projections: int
    sw2_seed: int
    cpsnr_peak: float
    record_trajectories: bool
    oracle_n: int | None

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.samplers)

    def sampler_config(self, method: str) -> SamplerConfig:
        return self.samplers[method]

    def problem(self, rng: np.random.Generator | None = None) -> InpaintingProblem:
        return make_observation(
            self.x_star, self.mask, self.gamma, rng=rng, noisy=self.noisy_observation
        )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    pairs = parse_flat(path.read_text())
    base = path.parent

    for key in pairs:
        if key in _GLOBAL_KEYS or key in _SAMPLER_KEYS or _COMPONENT_KEY.fullmatch(key):
            continue
        if key.startswith("prior.component."):
            raise ConfigError(
                f"unknown config key {key!r}; expected prior.component.<i>.weight, .mean or .cov"
            )
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "method" and parts[2] in _SAMPLER_KEYS:
            continue  # its method and value are checked by _sampler_configs
        raise ConfigError(f"unknown config key {key!r}")

    # each input has one source: a second would be silently ignored
    component = next((key for key in pairs if key.startswith("prior.component.")), None)
    for first, second in (("prior.csv", component), ("mask.inline", "mask.pgm"),
                          ("xstar.inline", "xstar.dsmp")):
        if first in pairs and second in pairs:
            raise ConfigError(f"{first} and {second} are both given; give one of them")

    if "prior.csv" in pairs:
        prior = _load_prior_csv(base / pairs["prior.csv"])
    else:
        prior = _load_prior_inline(pairs)
    d = prior.dim

    sched = Schedule(_checked(pairs, "schedule", dict.get, _one_of(SCHEDULE_KINDS), "linear-flow"))
    grid_k = _checked(pairs, "grid.k", _get_int, _POSITIVE_INT, 50)
    spacing = _checked(pairs, "grid.spacing", dict.get, _one_of(GRID_SPACINGS), "uniform")

    if "mask.inline" in pairs:
        mask_vals = _floats("mask.inline", pairs["mask.inline"])
        if not np.all(np.isin(mask_vals, (0, 1))):
            raise ConfigError(f"mask.inline: entries must be 0 or 1, got {pairs['mask.inline']!r}")
    elif "mask.pgm" in pairs:
        mask_vals = read_pgm_mask(base / pairs["mask.pgm"]).grid.reshape(-1)
    else:
        raise ConfigError("no mask given (mask.inline or mask.pgm)")
    if mask_vals.size != d:
        key = "mask.inline" if "mask.inline" in pairs else "mask.pgm"
        raise ConfigError(f"{key}: mask has {mask_vals.size} entries, prior dimension is {d}")
    mask = MaskOperator(mask_vals)

    if "xstar.inline" in pairs:
        x_star = _floats("xstar.inline", pairs["xstar.inline"])
    elif "xstar.dsmp" in pairs:
        x_star = read_samples(base / pairs["xstar.dsmp"])[:1].reshape(-1)  # the first row
    else:
        raise ConfigError("no reference given (xstar.inline or xstar.dsmp)")
    key = "xstar.inline" if "xstar.inline" in pairs else "xstar.dsmp"
    if x_star.size != d:
        raise ConfigError(f"{key}: x_star has {x_star.size} entries, prior dimension is {d}")
    if not np.all(np.isfinite(x_star)):  # only a .dsmp row can hold one
        raise ConfigError(f"{key}: x_star must be finite, got {x_star}")

    if "methods" not in pairs:
        raise ConfigError("no methods listed")
    methods = [m.strip() for m in pairs["methods"].split(",") if m.strip()]
    if not methods:
        raise ConfigError("methods: the list is empty")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"methods: unknown method {m!r}; expected one of {METHODS}")
        if methods.count(m) > 1:
            raise ConfigError(f"methods: {m!r} is listed more than once")

    n_chains = _checked(pairs, "n_chains", _get_int, _POSITIVE_INT, 100)
    seed = _checked(pairs, "seed", _get_int, _NON_NEGATIVE, 0)
    oracle_n = _checked(pairs, "oracle.n", _get_int, _POSITIVE)
    record_trajectories = _get_bool(pairs, "trajectories", False)
    # a .dsmp header stores its row count as uint32
    for key in ("n_chains", "oracle.n"):
        if _get_int(pairs, key, 0) >= DSMP_LIMIT:
            raise ConfigError(f"{key}: must be below 2**32, the rows a .dsmp file holds, "
                              f"got {pairs[key]!r}")
    traj_rows = (grid_k + 1) * n_chains
    if record_trajectories and traj_rows >= DSMP_LIMIT:
        raise ConfigError(f"trajectories: (grid.k + 1) * n_chains = {traj_rows} must be below "
                          "2**32, the rows a .dsmp file holds")
    # built once every count is checked: its knots take 8 * (grid.k + 1) bytes
    grid = make_grid(grid_k, spacing)
    return ExperimentConfig(
        prior=prior,
        sched=sched,
        grid=grid,
        samplers=_sampler_configs(pairs, methods, grid, seed, n_chains),
        mask=mask,
        x_star=x_star,
        # gamma and eta, like every sampler knob, are checked by _sampler_configs
        gamma=_get_float(pairs, "gamma", SamplerConfig.gamma),
        eta=_get_float(pairs, "eta", SamplerConfig.eta),
        n_chains=n_chains,
        seed=seed,
        # inputs resolve against the config file; outputs against the cwd
        out_dir=Path(pairs.get("out_dir", "results")),
        noisy_observation=_get_bool(pairs, "observation.noisy", False),
        # these are read only once sampling has started, so they are checked here
        sw2_projections=_checked(pairs, "sw2.projections", _get_int, _POSITIVE, 128),
        sw2_seed=_checked(pairs, "sw2.seed", _get_int, _NON_NEGATIVE, seed),
        cpsnr_peak=_checked(pairs, "cpsnr.peak", _get_float, _PEAK, 1.0),
        record_trajectories=record_trajectories,
        oracle_n=oracle_n,
    )
