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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bridge import BLOCK
from .errors import ConfigError
from .gmm import GaussianMixture
from .guidance import METHODS, SAMPLER_RULES, SamplerConfig
from .io import DSMP_LIMIT, read_pgm_mask, read_samples
from .metrics import projection_bytes, valid_peak
from .problem import InpaintingProblem, MaskOperator, make_observation
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
        if not value:
            raise ConfigError(f"{key}: empty value on line {lineno}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _text(path: Path) -> str:
    """The text of a config or prior CSV file; bytes that do not decode are a ConfigError."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc.reason} at byte {exc.start})") from None


def _floats(key: str, value: str) -> np.ndarray:
    """The numbers of a comma- or space-separated list; ``key`` names it in errors."""
    try:
        numbers = np.array([float(v) for v in value.replace(",", " ").split()])
    except ValueError:
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}") from None
    if not np.all(np.isfinite(numbers)):
        raise ConfigError(f"{key}: expected a finite number in every entry, got {value!r}")
    return numbers


_EXPECTED = {float: "a number", int: "an integer", bool: "on/off"}


def _read(pairs: dict[str, str], key: str, kind: type, rule: tuple | None = None, default=None):
    """The value ``key`` sets, parsed as ``kind`` (float, int, bool or str),
    or ``default`` when it is unset.  A float must be finite, and a value
    must pass ``rule``, a (test, text) pair; each error names ``key``."""
    if key not in pairs:
        return default
    raw = pairs[key]
    try:
        value = _BOOL_WORDS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    if rule is not None and not rule[0](value):
        raise ConfigError(f"{key}: {rule[1]}, got {raw!r}")
    return value


# counts and seeds meet the rules of their SamplerConfig kin
_POSITIVE_INT, _NON_NEGATIVE = SAMPLER_RULES["n_chains"], SAMPLER_RULES["seed"]
_POSITIVE = SAMPLER_RULES["dps_scale"]
_PEAK = (valid_peak, "must be strictly positive with a nonzero finite square")


def _one_of(names: tuple[str, ...]) -> tuple:
    return (lambda v: v in names, f"must be one of {', '.join(names)}")


def _too_large(pairs: dict[str, str], key: str, what: str, nbytes: int) -> ConfigError:
    """The error for a ``key`` whose ``what`` needs ``nbytes``: numpy sizes
    no array past sys.maxsize bytes, and memory may run out before that."""
    return ConfigError(f"{key}: {what} need {nbytes} bytes, more than could be allocated, "
                       f"got {pairs[key]!r}")


# the sampler knobs: config key -> (SamplerConfig field, kind, the field's rule);
# an unset knob keeps the field's default
_SAMPLER_KEYS = {key: (field, kind, SAMPLER_RULES.get(field)) for key, field, kind in (
    ("eta", "eta", float), ("gamma", "gamma", float), ("zeta", "dps_scale", float),
    ("lambda", "diffpir_lambda", float), ("ding_nz", "ding_nz", int),
    ("final_replacement", "final_replacement", bool))}


def _sampler_configs(
    pairs: dict[str, str], methods: list[str], grid: TimeGrid, seed: int, n_chains: int,
    draw_bytes: int,
) -> dict[str, SamplerConfig]:
    """One SamplerConfig per method, each knob from ``method.<m>.<key>`` or else ``<key>``.

    Every knob key given must meet its knob's rule, whether or not a listed
    method reads it, and an error names that key; a ding_nz also bounds the
    largest array of ding's step, ``draw_bytes`` per proposal draw.
    """
    values = {}
    for key in pairs:
        if key not in _SAMPLER_KEYS and not key.startswith("method."):
            continue
        m, knob = key.split(".")[1:] if key.startswith("method.") else (None, key)
        if m is not None and m not in METHODS:
            raise ConfigError(f"{key}: unknown method {m!r}; expected one of {METHODS}")
        value = values[key] = _read(pairs, key, *_SAMPLER_KEYS[knob][1:])
        if knob == "ding_nz" and value * draw_bytes > sys.maxsize:
            raise _too_large(pairs, key, "its proposals", value * draw_bytes)
        # a global eta reaches ding when ding is listed and does not override it
        if knob == "eta" and value == 0.0 and (
            m == "ding" or m is None and "ding" in methods and "method.ding.eta" not in pairs
        ):
            raise ConfigError(f"{key}: must be > 0 for ding (at 0 it applies no guidance), "
                              f"got {pairs[key]!r}")
    samplers = {}
    for m in methods:
        # an override, read after its global key, wins
        knobs = {name: values[k] for key, (name, *_) in _SAMPLER_KEYS.items()
                 for k in (key, f"method.{m}.{key}") if k in values}
        samplers[m] = SamplerConfig(m, grid, seed=seed, n_chains=n_chains, **knobs)
    return samplers


def _load_prior_csv(path: Path) -> GaussianMixture:
    rows = [
        _floats(f"{path} line {lineno}", line.split("#", 1)[0])
        for lineno, line in enumerate(_text(path).splitlines(), start=1)
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


def _source(pairs: dict[str, str], first: str, second: str | None, missing: str) -> str:
    """The one of ``first`` and ``second`` that ``pairs`` gives: each input
    has one source, as a second would be silently ignored."""
    if first in pairs and second in pairs:
        raise ConfigError(f"{first} and {second} are both given; give one of them")
    if first not in pairs and second not in pairs:
        raise ConfigError(missing)
    return first if first in pairs else second


def _load_prior_inline(pairs: dict[str, str]) -> GaussianMixture:
    indices = sorted(
        {
            int(key.split(".")[2])
            for key in pairs
            if key.startswith("prior.component.")
        }
    )
    if indices != list(range(len(indices))):
        raise ConfigError(f"prior component indices must be 0..{len(indices) - 1}")
    weights, means, covs = [], [], []
    for i in indices:
        base = f"prior.component.{i}"
        for suffix in ("weight", "mean", "cov"):
            if f"{base}.{suffix}" not in pairs:
                raise ConfigError(f"missing key {base}.{suffix}")
        weights.append(_read(pairs, f"{base}.weight", float))
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
    eta: float  # the global eta, read by perfbench's tests; each method reads its sampler's
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
        """The observation of the reference; ``rng`` draws its noise when
        ``observation.noisy`` is on and is ignored otherwise."""
        rng = rng if self.noisy_observation else None
        return make_observation(self.x_star, self.mask, self.gamma, rng)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    pairs = parse_flat(_text(path))
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

    component = next((key for key in pairs if key.startswith("prior.component.")), None)
    prior_key = _source(pairs, "prior.csv", component,
                        "no prior given (prior.csv or prior.component.* keys)")
    mask_key = _source(pairs, "mask.inline", "mask.pgm", "no mask given (mask.inline or mask.pgm)")
    xstar_key = _source(pairs, "xstar.inline", "xstar.dsmp",
                        "no reference given (xstar.inline or xstar.dsmp)")

    prior = (_load_prior_csv(base / pairs[prior_key]) if prior_key == "prior.csv"
             else _load_prior_inline(pairs))
    d = prior.dim

    sched = Schedule(_read(pairs, "schedule", str, _one_of(SCHEDULE_KINDS), "linear-flow"))
    grid_k = _read(pairs, "grid.k", int, _POSITIVE_INT, 50)
    spacing = _read(pairs, "grid.spacing", str, _one_of(GRID_SPACINGS), "uniform")

    mask_vals = (_floats(mask_key, pairs[mask_key]) if mask_key == "mask.inline"
                 else read_pgm_mask(base / pairs[mask_key]).grid.reshape(-1))
    if not np.all(np.isin(mask_vals, (0, 1))):  # a PGM mask reads as 0 and 1 only
        raise ConfigError(f"{mask_key}: entries must be 0 or 1, got {pairs[mask_key]!r}")
    if mask_vals.size != d:
        raise ConfigError(f"{mask_key}: mask has {mask_vals.size} entries, prior dimension is {d}")
    mask = MaskOperator(mask_vals)

    x_star = (_floats(xstar_key, pairs[xstar_key]) if xstar_key == "xstar.inline"
              else read_samples(base / pairs[xstar_key])[:1].reshape(-1))  # the first row
    if x_star.size != d:
        raise ConfigError(f"{xstar_key}: x_star has {x_star.size} entries, prior dimension is {d}")
    if not np.all(np.isfinite(x_star)):  # only a .dsmp row can hold one
        raise ConfigError(f"{xstar_key}: x_star must be finite, got {x_star}")

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

    n_chains = _read(pairs, "n_chains", int, _POSITIVE_INT, 100)
    seed = _read(pairs, "seed", int, _NON_NEGATIVE, 0)
    oracle_n = _read(pairs, "oracle.n", int, _POSITIVE)
    record_trajectories = _read(pairs, "trajectories", bool, default=False)
    # a .dsmp header stores its row count as uint32
    for key, rows in (("n_chains", n_chains), ("oracle.n", oracle_n)):
        if (rows or 0) >= DSMP_LIMIT:
            raise ConfigError(f"{key}: must be below 2**32, the rows a .dsmp file holds, "
                              f"got {pairs[key]!r}")
    traj_rows = (grid_k + 1) * n_chains
    if record_trajectories and traj_rows >= DSMP_LIMIT:
        raise ConfigError(f"trajectories: (grid.k + 1) * n_chains = {traj_rows} must be below "
                          "2**32, the rows a .dsmp file holds")
    # built once every count is checked: its knots take 8 * (grid.k + 1) bytes
    try:
        if 8 * (grid_k + 1) > sys.maxsize:
            raise MemoryError
        grid = make_grid(grid_k, spacing)
    except MemoryError:
        raise _too_large(pairs, "grid.k", "its knots", 8 * (grid_k + 1)) from None
    # ding's largest arrays per proposal draw: the (ceil(n / BLOCK) * BLOCK,
    # ding_nz, d) draw of ChainStreams.take, and the (K, d, n * ding_nz)
    # products and (d + 1, n * ding_nz) rows of GMMDenoiser._scratch
    draw_bytes = 8 * max(-(-n_chains // BLOCK) * BLOCK * d, prior.n_components * d * n_chains,
                         (d + 1) * n_chains)
    cfg = ExperimentConfig(
        prior=prior,
        sched=sched,
        grid=grid,
        samplers=_sampler_configs(pairs, methods, grid, seed, n_chains, draw_bytes),
        mask=mask,
        x_star=x_star,
        # gamma and eta, like every sampler knob, are checked by _sampler_configs
        gamma=_read(pairs, "gamma", float, default=SamplerConfig.gamma),
        eta=_read(pairs, "eta", float, default=SamplerConfig.eta),
        n_chains=n_chains,
        seed=seed,
        # inputs resolve against the config file; outputs against the cwd
        out_dir=Path(_read(pairs, "out_dir", str, default="results")),
        noisy_observation=_read(pairs, "observation.noisy", bool, default=False),
        # these are read only once sampling has started, so they are checked here
        sw2_projections=_read(pairs, "sw2.projections", int, _POSITIVE, 128),
        sw2_seed=_read(pairs, "sw2.seed", int, _NON_NEGATIVE, seed),
        cpsnr_peak=_read(pairs, "cpsnr.peak", float, _PEAK, 1.0),
        record_trajectories=record_trajectories,
        oracle_n=oracle_n,
    )
    if projection_bytes(cfg.sw2_projections, d) > sys.maxsize:
        raise _too_large(pairs, "sw2.projections", "its directions and results",
                         projection_bytes(cfg.sw2_projections, d))
    return cfg
