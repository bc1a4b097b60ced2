"""Command-line harness.

Subcommands:

- ``run``: execute every method in a config file against the exact
  posterior, writing one CSV row per method plus ``.dsmp`` sample files
  and, with ``trajectories = on``, one ``.dsmp`` trajectory matrix per
  method, streamed knot by knot as the chains run (times are the grid
  knots from 1 down to 0, not stored).
- ``oracle``: dump the posterior mixture parameters (and optionally
  samples) for a config.
- ``masklift``: lift a pixel mask to a latent grid and report leakage.
- ``metrics``: score two sample files.

Exit codes: 0 success, 2 config error (a ``ConfigError``, argparse usage,
or a ``MemoryError``: sizes the machine cannot hold), 3 I/O error, 4
numeric failure; any other exception is a bug.
A warning (an all-zero mask) is one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import gc
import math
import sys
import time
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import ConfigError, NumericError
from .gmm import Denoiser, GMMDenoiser
from .guidance import SamplerConfig, run_conditional
from .io import (
    DSMP_LIMIT,
    dsmp_header,
    read_dmsk,
    read_pgm_mask,
    read_samples,
    write_dmsk,
    write_pgm_mask,
    write_samples,
)
from .masklift import PixelMask, leakage_report, lift_mask
from .metrics import cpsnr, projection_bytes, sliced_w2, valid_peak
from .oracle import exact_posterior
from .problem import InpaintingProblem, MaskOperator
from .schedule import Schedule


class ResultRow(NamedTuple):
    """One row of ``results.csv``; the field names are its header."""

    method: str
    K: int
    eta: float
    gamma: float
    seed: int
    sw2_to_oracle: float
    cpsnr: float
    runtime_ms: float
    n_chains: int


def _write_trajectories(
    path: Path,
    problem: InpaintingProblem,
    denoiser: Denoiser,
    sched: Schedule,
    scfg: SamplerConfig,
) -> np.ndarray:
    """Run ``run_conditional`` with the trajectory streamed to ``path`` as
    one ``((K+1)*n, 2d)`` sample matrix, step-major: row ``k*n + j`` is
    chain j at the k-th knot from t = 1, its ``x`` then its ``xhat0``.
    Each step's block ``[x | ev.xhat0]`` is stacked and written as the
    chain starts it, and the last, t = 0 block is the returned (n, d)
    samples in both halves, since the estimate of a state at t = 0 is the
    state.  If the run raises, the partly written file is deleted."""
    header = dsmp_header((scfg.grid.num_steps + 1) * scfg.n_chains, 2 * problem.mask.dim)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            # each block is a fresh C-contiguous (n, 2d) array; astype copies
            # it only where float64 is not little-endian
            samples = run_conditional(
                problem, denoiser, sched, scfg,
                on_step=lambda x, ev: fh.write(np.hstack((x, ev.xhat0)).astype("<f8", copy=False)),
            )
            fh.write(np.hstack((samples, samples)).astype("<f8", copy=False))
            return samples
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _observe(cfg: ExperimentConfig, seed: int):
    """The problem observed through stream (seed, 0, 1), and the generator
    (stream (seed, 0, 0)) and size of the oracle draw.  A warning the
    observation raises (an all-zero mask) is printed as one ``warning:``
    line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        problem = cfg.problem(rng=np.random.default_rng(np.random.SeedSequence((seed, 0, 1))))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    oracle_rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
    return problem, oracle_rng, cfg.oracle_n or cfg.n_chains


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run every configured method and score it against the exact posterior.

    Writes ``results.csv`` (flushed row by row so partial results survive
    a failure), ``<method>_<seed>.dsmp`` per method from the (n, d) array
    ``run_conditional`` returns (plus ``<method>_<seed>_trajectories.dsmp``
    with trajectories on, streamed by ``_write_trajectories`` as the chains run,
    so the runtime column includes writing it), and ``oracle_<seed>.dsmp``.
    Deterministic given the master seed except for the runtime column.  A
    method that fails numerically gets no row and no files; the others
    still run, and one ``NumericError`` naming every failed method is
    raised after the last.
    """
    problem, oracle_rng, oracle_n = _observe(cfg, cfg.seed)
    denoiser = GMMDenoiser(cfg.prior, cfg.sched)

    oracle_samples = exact_posterior(problem, cfg.prior).sample(oracle_n, oracle_rng)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_samples(cfg.out_dir / f"oracle_{cfg.seed}.dsmp", oracle_samples)

    rows: list[ResultRow] = []
    failures: list[str] = []
    with open(cfg.out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ResultRow._fields)
        fh.flush()
        for method, scfg in cfg.samplers.items():
            start = time.perf_counter()
            try:
                if cfg.record_trajectories:
                    samples = _write_trajectories(
                        cfg.out_dir / f"{method}_{cfg.seed}_trajectories.dsmp",
                        problem, denoiser, cfg.sched, scfg,
                    )
                else:
                    samples = run_conditional(problem, denoiser, cfg.sched, scfg)
            except NumericError as exc:
                failures.append(str(exc))
                continue
            runtime_ms = (time.perf_counter() - start) * 1000.0
            sw2 = sliced_w2(samples, oracle_samples, cfg.sw2_projections, cfg.sw2_seed)
            with np.errstate(invalid="ignore"):  # chains at +inf and -inf mean to nan
                context = float(
                    np.mean(cpsnr(samples, cfg.x_star, cfg.mask, cfg.cpsnr_peak))
                ) if cfg.mask.observed_count else math.inf
            row = ResultRow(
                method=method,
                K=cfg.grid.num_steps,
                eta=scfg.eta,
                gamma=scfg.gamma,
                seed=cfg.seed,
                sw2_to_oracle=sw2,
                cpsnr=context,
                runtime_ms=runtime_ms,
                n_chains=cfg.n_chains,
            )
            rows.append(row)
            writer.writerow(row)
            fh.flush()
            write_samples(cfg.out_dir / f"{method}_{cfg.seed}.dsmp", samples)
    if failures:
        raise NumericError("; ".join(failures))
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    rows = run_experiment(cfg)
    for row in rows:
        print(f"{row.method}: sw2_to_oracle={row.sw2_to_oracle:.6f} cpsnr={row.cpsnr:.4f}")
    print(f"wrote {cfg.out_dir / 'results.csv'}")
    return 0


def _cmd_oracle(args) -> int:
    if args.n is not None and args.n < 1:
        raise ConfigError(f"--n must be positive, got {args.n}")
    if args.n is not None and args.n >= DSMP_LIMIT:
        raise ConfigError(f"--n must be below 2**32, the rows a .dsmp file holds, got {args.n}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    problem, oracle_rng, oracle_n = _observe(cfg, seed)
    posterior = exact_posterior(problem, cfg.prior)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        d = posterior.dim
        cov_cols = (  # a diagonal posterior writes its d variances, not d*d entries
            [f"var_{i}" for i in range(d)]
            if posterior.is_diagonal
            else [f"cov_{i}_{j}" for i in range(d) for j in range(d)]
        )
        writer.writerow(["weight"] + [f"mean_{i}" for i in range(d)] + cov_cols)
        # csv writes each Python float as its repr
        for w, mean, cov in zip(posterior.weights.tolist(), posterior.means, posterior.covariances):
            writer.writerow([w, *mean.tolist(), *cov.reshape(-1).tolist()])
    if args.samples:
        write_samples(args.samples, posterior.sample(args.n or oracle_n, oracle_rng))
    print(f"wrote {out}")
    return 0


def _read_mask_file(path: str) -> PixelMask:
    if path.endswith(".dmsk"):
        return read_dmsk(path)
    return read_pgm_mask(path)


def _cmd_masklift(args) -> int:
    mask = _read_mask_file(args.infile)
    try:
        factors = [int(f) for f in args.factors.split(",")]
    except ValueError:
        raise ConfigError(f"--factors takes integers, got {args.factors!r}") from None
    if len(factors) == 2:
        factors = [1] + factors
    if len(factors) != 3:
        raise ConfigError("--factors takes f_h,f_w or f_t,f_h,f_w")
    f_t, f_h, f_w = factors
    r = args.dilate if args.dilate is not None else f_h // 2
    write = write_dmsk if args.out.endswith(".dmsk") else write_pgm_mask
    # each ValueError here is the user's: factors that do not divide the mask,
    # a negative radius, or several frames for a PGM
    try:
        latent = lift_mask(mask, (f_t, f_h, f_w), r, args.dilate_t)
        write(args.out, PixelMask(latent.grid))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = leakage_report(mask, latent)
    lines = [
        "edited_pixels_in_observed_cells,observed_pixels_in_edited_cells",
        f"{report.edited_pixels_in_observed_cells},{report.observed_pixels_in_edited_cells}",
    ]
    text = "\n".join(lines) + "\n"
    if args.report:
        Path(args.report).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_metrics(args) -> int:
    a = read_samples(args.a)
    b = read_samples(args.b)
    for flag, x in (("--a", a), ("--b", b)):
        if not x.shape[0]:
            raise ConfigError(f"{flag} holds no sample")
        if not np.all(np.isfinite(x)):
            raise ConfigError(f"{flag} holds a non-finite value")
    if a.shape[1] != b.shape[1]:
        raise ConfigError(f"--a, --b have d = {a.shape[1]}, {b.shape[1]}")
    if args.metric == "sw2":
        if args.projections < 1 or args.seed < 0:
            raise ConfigError("--projections must be at least 1 and --seed at least 0")
        nbytes = projection_bytes(args.projections, a.shape[1])
        if nbytes > sys.maxsize:  # numpy sizes no array past it
            raise ConfigError(f"--projections: its directions and results need {nbytes} bytes, "
                              f"more than could be allocated, got {args.projections}")
        value = sliced_w2(a, b, args.projections, args.seed)
    else:
        if not valid_peak(args.peak):
            raise ConfigError(f"--peak must be strictly positive with a nonzero finite square, "
                              f"got {args.peak}")
        if not args.mask:
            raise ConfigError("cpsnr needs --mask")
        mask = MaskOperator(_read_mask_file(args.mask).grid.reshape(-1))
        if mask.dim != a.shape[1]:
            raise ConfigError(f"--mask has {mask.dim} entries; --a, --b have d = {a.shape[1]}")
        if not mask.observed_count:
            raise ConfigError("--mask observes no coordinate")
        with np.errstate(invalid="ignore"):  # rows at +inf and -inf mean to nan
            value = float(np.mean(cpsnr(a, b[0], mask, args.peak)))
    line = f"{args.metric},{value!r},{a.shape[0]},{args.seed}\n"
    header = "metric,value,n,seed\n"
    if args.out:
        Path(args.out).write_text(header + line)
    else:
        sys.stdout.write(header + line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inpaintlab",
        description="Posterior-sampling laboratory for inpainting with analytic priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured methods and score them")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="dump the exact posterior mixture")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--out", required=True, help="posterior parameter CSV")
    p_oracle.add_argument("--samples", help="also draw posterior samples to this .dsmp")
    p_oracle.add_argument("--n", type=int, help="number of posterior samples")
    p_oracle.add_argument("--seed", type=int, help="override the config seed")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_lift = sub.add_parser("masklift", help="lift a pixel mask to a latent grid")
    p_lift.add_argument("--in", dest="infile", required=True, help="PGM or .dmsk mask")
    p_lift.add_argument("--factors", required=True, help="f_h,f_w or f_t,f_h,f_w")
    p_lift.add_argument("--dilate", type=int, help="spatial radius (default f_h//2)")
    p_lift.add_argument("--dilate-t", type=int, default=0, help="temporal radius")
    p_lift.add_argument("--out", required=True, help=".dmsk, or else a PGM")
    p_lift.add_argument("--report", help="leakage CSV (default: stdout)")
    p_lift.set_defaults(func=_cmd_masklift)

    p_met = sub.add_parser("metrics", help="score two sample files")
    p_met.add_argument("--a", required=True)
    p_met.add_argument("--b", required=True)
    p_met.add_argument("--metric", default="sw2", choices=("sw2", "cpsnr"))
    p_met.add_argument("--projections", type=int, default=128)
    p_met.add_argument("--seed", type=int, default=0)
    p_met.add_argument("--mask", help="mask file for cpsnr")
    p_met.add_argument("--peak", type=float, default=1.0)
    p_met.add_argument("--out", help="write the CSV row here instead of stdout")
    p_met.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size numpy can shape but the machine cannot hold
        print("config error: the configured sizes need more memory than could be allocated"
              + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def program() -> int:
    """The process entry of ``python -m inpaintlab.cli`` and of the
    installed ``inpaintlab`` command: ``main`` on ``sys.argv``, then
    ``gc.freeze()``, so that once every output is closed the exit-time
    collections skip the imported objects.  Returns the exit code for
    ``sys.exit``.  In-process callers use ``main(argv)`` and keep their
    collector."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(program())
