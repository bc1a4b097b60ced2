"""Training-free guided samplers for inpainting.

Five ways of biasing the reverse transitions toward the conditional law
of the clean sample given the observation:

- ``blended``: replay the noised reference on the observed support after
  every unconditional step.
- ``dps``: gradient correction of the denoiser output through the
  denoiser Jacobian, using the likelihood evaluated at the point estimate;
  the correction needs only the vector-Jacobian product J^T g.
- ``ding``: Jacobian-free two-stage step.  A proposal z is drawn from the
  unconditional transition and only its noise prediction e enters the
  likelihood, which becomes Gaussian and linear in the new state; the
  step then samples the product of N(mean, eta_s^2 I) with that
  likelihood exactly, coordinate by coordinate, via Gaussian conjugacy.
- ``ddnm``: hard projection of the denoised estimate onto the data on the
  observed support (null-space component kept from the denoiser).
- ``diffpir``: proximal blend of the denoised estimate with the data,
  weighted by rho_t = lambda * alpha_t^2 / sigma_t^2.

Every method is one ``step_<method>``, all with the same signature and
no second route to its law (noise of zeros returns the transition mean);
each reads its knobs, eta included, from its ``SamplerConfig`` alone.  The
driver evaluates the denoiser once per state and hands that ``Evaluation``
ev, with the estimate ev.xhat0, to the step.  dps (with ``denoiser.vjp``
of ev), ddnm and diffpir correct the estimate and sample the transition
``bridge.transition_params`` builds from it at ``cfg.eta``; blended and
ding build it from ev.xhat0 as is and add a draw after it.  ding also
evaluates its proposal, and reads only that evaluation's estimate: of the
denoiser's two calls, ``evaluate`` and ``vjp``, only dps calls ``vjp``, so
every other method runs on a denoiser whose evaluations hold the estimate
alone.

Every correction the mask confines (blended's replay, dps's residual,
ddnm's projection, diffpir's proximal pull, ding's pseudo-observation and
conjugate update) touches the observed columns ``problem.mask.observed_idx``
alone and is written into a copy of the estimate or into the step's own
fresh draw, never into an input.  Each observed entry is the expression
of the full-width masked form, in the same order, and the other entries
are copied, so the samples keep their bits (an exact zero may change
sign).  The exception is an estimate that is not finite on the support:
ddnm projects it onto y where (1 - m) * inf gave NaN.

Per-step randomness is drawn in a fixed order so that seeds are
comparable across methods: first the proposal noise (the transition
sample, or the z draws for ding), then any method-specific draw (the
blend noise for blended, the conjugate draw for ding).  blended skips its
blend draw when the mask observes nothing, which makes blended, ddnm and
diffpir chains bit-identical to the unconditional chain on an empty mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bridge import (
    ChainStreams,
    RngLike,
    sample_transition,
    standard_normal,
    transition_params,
)
from .errors import ConfigError, NumericError
from .gmm import Denoiser, Evaluation, noise_from_x0
from .problem import InpaintingProblem, valid_gamma
from .schedule import Schedule, TimeGrid, eval_schedule

METHODS = ("blended", "dps", "ding", "ddnm", "diffpir")

# fixed per-method stream offsets: chain j of method m draws from the substream
# of its block, seeded by (master seed, METHOD_CODES[m], j // bridge.BLOCK);
# code 0 belongs to the harness (cli._observe: observation noise and the oracle draw)
METHOD_CODES = {name: code for code, name in enumerate(METHODS, start=1)}


@dataclass(frozen=True)
class SamplerConfig:
    """Method selection plus the knobs the step functions read.

    Fields that a method does not use are ignored by it (ddnm and blended
    read no gamma, only ding reads ding_nz, and so on).
    """

    method: str
    grid: TimeGrid
    eta: float = 1.0
    gamma: float = 0.1
    dps_scale: float = 1.0
    diffpir_lambda: float = 1.0
    ding_nz: int = 1
    final_replacement: bool = True
    seed: int = 0
    n_chains: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError("eta must lie in [0, 1]")
        if self.method == "ding" and self.eta == 0.0:
            # eta_s = 0 leaves no proposal spread: step_ding returns the
            # unconditional mean and the observation never enters
            raise ConfigError("eta must be > 0 for ding: at eta = 0 it applies no guidance")
        if not valid_gamma(self.gamma):
            raise ConfigError("gamma must be strictly positive with a finite square")
        for name in ("dps_scale", "diffpir_lambda"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and strictly positive")
        if self.ding_nz < 1:
            raise ConfigError("ding_nz must be a positive integer")
        if self.n_chains < 1:
            raise ConfigError("n_chains must be a positive integer")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


# ---------------------------------------------------------------------------
# blended
# ---------------------------------------------------------------------------


def step_blended(
    x_t: np.ndarray,
    ev: Evaluation,
    s: float,
    t: float,
    problem: InpaintingProblem,
    sched: Schedule,
    denoiser: Denoiser,
    cfg: SamplerConfig,
    rng: RngLike,
) -> np.ndarray:
    """Unconditional step, then the noised reference replayed on the support."""
    if problem.x_star is None:
        raise ValueError("blended requires the reference x_star on the problem")
    x_s = sample_transition(*transition_params(sched, cfg.eta, x_t, ev.xhat0, s, t), rng)
    if problem.mask.observed_count == 0:
        return x_s
    alpha_s, sigma_s = eval_schedule(sched, s)
    eps = standard_normal(rng, x_s.shape)
    idx = problem.mask.observed_idx
    x_s[..., idx] = alpha_s * problem.x_star[idx] + sigma_s * eps[..., idx]
    return x_s


# ---------------------------------------------------------------------------
# dps
# ---------------------------------------------------------------------------


def step_dps(
    x_t: np.ndarray,
    ev: Evaluation,
    s: float,
    t: float,
    problem: InpaintingProblem,
    sched: Schedule,
    denoiser: Denoiser,
    cfg: SamplerConfig,
    rng: RngLike,
) -> np.ndarray:
    """Transition with the denoiser corrected along the likelihood gradient.

    The correction is x0' = x0_hat + zeta * (sigma_t^2 / alpha_t) * J^T g
    with g the masked residual scaled by 1/gamma^2 (zero off the support),
    formed in the buffer of J^T g, and x0_hat and J^T g
    (``denoiser.vjp``, no d x d Jacobian) both come from the one
    evaluation ev of x_t.  At t = 1 exactly (alpha_t = 0) the scale is
    evaluated one-sidedly at the first interior grid point, i.e. at s of
    that step.  A denoiser without ``vjp`` raises NotImplementedError.
    """
    xhat0 = ev.xhat0
    idx = problem.mask.observed_idx
    resid = np.zeros(np.shape(xhat0))
    resid[..., idx] = problem.y[idx] - xhat0[..., idx]
    grad = denoiser.vjp(ev, resid)
    grad /= cfg.gamma**2
    alpha_t, sigma_t = eval_schedule(sched, t)
    alpha_eval, sigma_eval = (alpha_t, sigma_t) if alpha_t > 0 else eval_schedule(sched, s)
    grad *= cfg.dps_scale * (sigma_eval**2 / alpha_eval)
    corrected = np.add(xhat0, grad, out=grad)
    return sample_transition(*transition_params(sched, cfg.eta, x_t, corrected, s, t), rng)


# ---------------------------------------------------------------------------
# ding
# ---------------------------------------------------------------------------


def ding_posterior(
    mean: np.ndarray,
    eta_s: float,
    e: np.ndarray,
    problem: InpaintingProblem,
    alpha_s: float,
    sigma_s: float,
    gamma: float,
) -> tuple[np.ndarray, float]:
    """Law of the conjugate step on the observed support given the noise
    estimate e.

    Each observed coordinate i sees the pseudo-observation
    u_i = alpha_s * y_i + sigma_s * e_i with variance alpha_s^2 gamma^2,
    conjugated against the prior N(mean_i, eta_s^2); off the support the
    step keeps that prior.  ``mean`` and ``e`` hold every coordinate.
    Returns the posterior mean of the observed columns
    ``problem.mask.observed_idx``, (..., k), and their common posterior std.
    """
    idx = problem.mask.observed_idx
    u = alpha_s * problem.y[idx] + sigma_s * e[..., idx]
    prior_var, obs_var = eta_s**2, (alpha_s * gamma) ** 2
    post_mean = (obs_var * mean[..., idx] + prior_var * u) / (prior_var + obs_var)
    return post_mean, np.sqrt(prior_var * obs_var / (prior_var + obs_var))


def step_ding(
    x_t: np.ndarray,
    ev: Evaluation,
    s: float,
    t: float,
    problem: InpaintingProblem,
    sched: Schedule,
    denoiser: Denoiser,
    cfg: SamplerConfig,
    rng: RngLike,
) -> np.ndarray:
    """Jacobian-free conjugate step.

    Draw z from the unconditional transition, read the noise prediction
    e = x1_hat(z, s) tied to the x0 estimate ``denoiser.evaluate(z, s).xhat0``
    (averaged over ding_nz draws), then sample the new state exactly from
    prior x likelihood with the likelihood linearized through z instead of
    the model: no differentiation anywhere.  Only the ``xhat0`` of ev and of
    the proposal's evaluation is read, never ``denoiser.vjp``.
    """
    mean, std = transition_params(sched, cfg.eta, x_t, ev.xhat0, s, t)
    nz = cfg.ding_nz
    eps = standard_normal(rng, np.shape(x_t)[:-1] + (nz, np.shape(x_t)[-1]))
    if std == 0.0:
        return mean
    eps *= std
    z = np.add(mean[..., None, :], eps, out=eps)
    alpha_s, sigma_s = eval_schedule(sched, s)
    # the mean over the nz draws, as ``np.mean`` forms it: one sum, then one division
    e = np.add.reduce(noise_from_x0(z, denoiser.evaluate(z, s).xhat0, alpha_s, sigma_s), axis=-2)
    e /= nz
    obs_mean, obs_std = ding_posterior(mean, std, e, problem, alpha_s, sigma_s, cfg.gamma)
    # mean + std * draw: eta_s and the prior mean off the support, the
    # conjugate law on its columns
    x_s = standard_normal(rng, np.shape(x_t))
    idx = problem.mask.observed_idx
    obs = x_s[..., idx]
    obs *= obs_std
    x_s *= std
    np.add(mean, x_s, out=x_s)
    x_s[..., idx] = np.add(obs_mean, obs, out=obs)
    return x_s


# ---------------------------------------------------------------------------
# ddnm
# ---------------------------------------------------------------------------


def step_ddnm(
    x_t: np.ndarray,
    ev: Evaluation,
    s: float,
    t: float,
    problem: InpaintingProblem,
    sched: Schedule,
    denoiser: Denoiser,
    cfg: SamplerConfig,
    rng: RngLike,
) -> np.ndarray:
    """Transition with the denoised estimate hard-projected onto the data.

    Mask-specialized range/null-space split: observed coordinates come
    from y, unobserved from the denoiser, so a non-finite estimate on an
    observed coordinate is replaced like any other.  Hyperparameter-free;
    gamma never enters.
    """
    projected = np.array(ev.xhat0, dtype=float)
    idx = problem.mask.observed_idx
    projected[..., idx] = problem.y[idx]
    return sample_transition(*transition_params(sched, cfg.eta, x_t, projected, s, t), rng)


# ---------------------------------------------------------------------------
# diffpir
# ---------------------------------------------------------------------------


def step_diffpir(
    x_t: np.ndarray,
    ev: Evaluation,
    s: float,
    t: float,
    problem: InpaintingProblem,
    sched: Schedule,
    denoiser: Denoiser,
    cfg: SamplerConfig,
    rng: RngLike,
) -> np.ndarray:
    """Transition with a data-proximal denoiser.

    Observed coordinates are pulled toward y with weight 1/gamma^2 against
    rho_t = lambda * alpha_t^2 / sigma_t^2; sigma_t = 0 is the
    rho -> infinity limit where the pull vanishes.  Hyperparameters are
    this laboratory's calibration, not taken from any reference setup.
    """
    xhat0 = ev.xhat0
    alpha_t, sigma_t = eval_schedule(sched, t)
    if sigma_t > 0:
        rho_t = cfg.diffpir_lambda * alpha_t**2 / sigma_t**2
        idx = problem.mask.observed_idx
        xhat0 = np.array(xhat0, dtype=float)
        xhat0[..., idx] = (problem.y[idx] / cfg.gamma**2 + rho_t * xhat0[..., idx]) / (
            1.0 / cfg.gamma**2 + rho_t
        )
    return sample_transition(*transition_params(sched, cfg.eta, x_t, xhat0, s, t), rng)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def chain_rngs(seed: int, method: str, n: int) -> ChainStreams:
    """The substreams of n chains: block b of BLOCK chains draws from the
    generator seeded by (seed, METHOD_CODES[method], b)."""
    return ChainStreams((seed, METHOD_CODES[method]), n)


def run_conditional(
    problem: InpaintingProblem,
    denoiser: Denoiser,
    sched: Schedule,
    cfg: SamplerConfig,
    on_step: Callable[[np.ndarray, Evaluation], object] | None = None,
) -> np.ndarray:
    """Run the selected guided sampler over all chains; return the (n, d)
    terminal states.

    Chains start at x ~ N(0, I), walk the grid backward through
    ``step_<method>``, each step handed ev = ``denoiser.evaluate(x, t)``,
    the one evaluation of its starting state, and (with final_replacement
    on) have their observed coordinates overwritten by y at the end.
    Deterministic given (seed, config); chain j's draws depend only on
    (seed, method, j), so the first rows of a larger run equal a smaller
    one, a one-chain run included.  ``on_step``, when given, is called as
    ``on_step(x, ev)`` once before each step, K times in time order from
    t = 1, with the (n, d) state the step starts from and that step's own
    evaluation of it; the hook must not write into either.  The run
    evaluates and allocates nothing for the hook, and t = 0 is the returned
    samples.  The steps, each with its hook call, run under one numpy error
    state that ignores floating-point warnings, the caller's restored on
    return; a non-finite transition raises NumericError naming the method
    and step.
    """
    # read from the module at each run, so a patched step_<method> is the one called
    step = globals()[f"step_{cfg.method}"]
    knots = cfg.grid.knots
    n, d = cfg.n_chains, problem.mask.dim
    rngs = chain_rngs(cfg.seed, cfg.method, n)
    x = standard_normal(rngs, (n, d))

    with np.errstate(all="ignore"):
        for k in range(cfg.grid.num_steps, 0, -1):
            s, t = knots[k - 1], knots[k]
            try:
                ev = denoiser.evaluate(x, t)
                if on_step is not None:
                    on_step(x, ev)
                x = step(x, ev, s, t, problem, sched, denoiser, cfg, rngs)
                del ev  # freed before the next step evaluates its own posterior
            except NumericError as exc:
                raise NumericError(
                    f"{cfg.method} at step k={k} (t={t:g} -> s={s:g}): {exc}"
                ) from None
    if cfg.final_replacement:
        idx = problem.mask.observed_idx
        x[..., idx] = problem.y[idx]
    return x
