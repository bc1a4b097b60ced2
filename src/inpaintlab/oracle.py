"""Exact posterior quantities for mixture priors under a mask likelihood.

Everything a guided sampler approximates is available in closed form
when the prior is a Gaussian mixture and the observation is a masked
Gaussian:

- ``exact_posterior``: the terminal posterior mixture over clean samples.
- ``exact_intermediate_loglik``: the observation likelihood marginalized
  through the conditional of the clean sample given a noisy state.
- ``exact_guidance_grad``: its gradient with respect to the noisy state.
- ``exact_posterior_denoiser``: the conditional mean of the clean sample
  given both the noisy state and the observation, by conditioning each
  component of the mixture of X0 given the noisy state on the observation.
- ``ding_gap``: the pointwise error of replacing the denoiser Jacobian by
  the scaled identity in a first-order expansion, for one point or a batch
  of chains, with the Jacobian applied to the displacement through the
  denoiser's vector-Jacobian product.

All of them rest on one evidence routine, ``_observed_evidence``, which
works in the log domain on the observed sub-coordinates only, so every
factored S = C[obs, obs] + gamma^2 I stays positive definite even at
small gamma.  Its Cholesky factors L and solved residuals also give the
guidance gradient and, in ``_condition_on_observed``, each conditioned
component in gain form, with no d x d inverse: with G = C[:, obs] S^{-1},
post_mean = m + G (y_obs - m_obs) and post_cov = C - G C[obs, :], whose obs
columns and rows are written as gamma^2 G.  As S - C[obs, obs] = gamma^2 I,
that is exact, and it keeps the digits that C[:, obs] - G C[obs, obs]
cancels at small gamma.  Diagonal and full priors share this one formula.

Per-component arrays are component-major, as in ``gmm``: (K, ..., d) for
the conditional means, which each routine forms once per call with
``ConditionalMixture.component_means``, the component scores and the
solved residuals, (K, ...) for the log evidence and the reweighted
responsibilities.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .gmm import (
    _LOG_2PI,
    GaussianMixture,
    _apply,
    _lift,
    _weighted_sum,
    component_posterior,
    logsumexp,
)
from .problem import InpaintingProblem
from .schedule import Schedule, eval_schedule


def exact_posterior(problem: InpaintingProblem, prior: GaussianMixture) -> GaussianMixture:
    """Posterior mixture over clean samples given the masked observation.

    Component k is conditioned on the observed coordinates by
    ``_condition_on_observed`` and reweighted by its evidence
    N(y_obs; mu_k_obs, Sigma_k_obs + gamma^2 I); a diagonal prior keeps its
    layout, as conditioning leaves exact zeros off the diagonal.  A
    component whose reweighted weight underflows to 0 is dropped: its mass
    is below the smallest double.  An empty mask returns the prior itself.
    A gamma so small that rounding leaves a posterior covariance not
    positive definite raises NumericError.
    """
    if problem.mask.observed_idx.size == 0:
        return prior
    log_ev, post_means, post_cov = _condition_on_observed(
        problem, prior.means, prior.covariance_matrices()
    )
    weights = _reweight(np.log(prior.weights), log_ev)
    keep = weights > 0
    cov = (np.diagonal(post_cov, axis1=-2, axis2=-1) if prior.is_diagonal else post_cov)[keep]
    try:
        return GaussianMixture(weights[keep] / weights.sum(), post_means[keep], cov)
    except ValueError:  # the prior passed these checks, so rounding failed them
        evals = cov if prior.is_diagonal else np.linalg.eigh(cov)[0]  # as GaussianMixture
        bad = np.count_nonzero(np.any(evals <= 0, axis=-1))
        if bad == 0:
            raise
        raise NumericError(f"exact posterior at gamma = {problem.gamma:g}: {bad} of "
                           f"{prior.n_components} components lost variance to rounding") from None


def _chol_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L_k L_k^T)^{-1} b_k for factors ``chol`` (K, o, o) and b of shape (K, ..., o)."""
    cols = np.swapaxes(b.reshape(b.shape[0], -1, b.shape[-1]), -1, -2)  # (K, o, batch)
    half = np.linalg.solve(chol, cols)
    sol = np.linalg.solve(np.swapaxes(chol, -1, -2), half)
    return np.swapaxes(sol, -1, -2).reshape(b.shape)


def _observed_evidence(
    problem: InpaintingProblem,
    cond_means: np.ndarray,
    cond_cov: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log evidence of y_obs under each component N(mean_k_obs, C0_k_obs + gamma^2 I).

    ``cond_means`` is component-major, (K, ..., d).  Returns the (K, ...)
    log values, the (K, o, o) lower Cholesky factors L_k of the
    observed-block matrices S_k, and the (K, ..., o) solved residuals
    S_k^{-1} (y_obs - mean_k_obs), for reuse by the gradient and
    conditioning formulas.
    """
    obs = problem.mask.observed_idx
    gamma2 = problem.gamma**2
    s = cond_cov[:, obs[:, None], obs] + gamma2 * np.eye(obs.size)
    chol = np.linalg.cholesky(s)
    resid = problem.y[obs] - cond_means[..., obs]
    solved = _chol_solve(chol, resid)
    quad = np.sum(resid * solved, axis=-1)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return -0.5 * (quad + _lift(logdet, quad.ndim) + obs.size * _LOG_2PI), chol, solved


def _condition_on_observed(
    problem: InpaintingProblem,
    means: np.ndarray,
    cov: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Condition each component N(means_k, cov_k) on the observed coordinates.

    Returns the (K, ...) log evidence and the conditioned means (K, ..., d)
    and covariances (K, d, d), in the gain form of the module docstring.
    """
    obs = problem.mask.observed_idx
    log_ev, chol, solved = _observed_evidence(problem, means, cov)
    cross = cov[:, :, obs]  # C[:, obs], (K, d, o)
    post_means = means + np.einsum("kdo,k...o->k...d", cross, solved)
    gain = _chol_solve(chol, cross)  # C[:, obs] S^{-1}, S symmetric
    post_cov = cov - gain @ np.swapaxes(cross, -1, -2)
    post_cov[:, :, obs] = problem.gamma**2 * gain  # = C[:, obs] - G C[obs, obs], exactly
    post_cov[:, obs, :] = np.swapaxes(post_cov[:, :, obs], -1, -2)
    return log_ev, post_means, 0.5 * (post_cov + np.swapaxes(post_cov, -1, -2))


def _reweight(log_resp: np.ndarray, log_ev: np.ndarray) -> np.ndarray:
    """Responsibilities proportional to exp(log_resp + log_ev) over the component axis 0."""
    logw = log_resp + log_ev
    return np.exp(logw - logsumexp(logw, axis=0, keepdims=True))


def exact_intermediate_loglik(
    problem: InpaintingProblem,
    prior: GaussianMixture,
    sched: Schedule,
    x_t: np.ndarray,
    t: float,
) -> np.ndarray:
    """Observation log-likelihood marginalized over X0 given X_t = x_t.

    Conditioning on the noisy state leaves a mixture over X0; the masked
    Gaussian integrates against each component in closed form.  The
    additive normalization follows the dropped-constant convention of
    ``log_likelihood``, so the t -> 0 limit recovers it exactly, and an
    empty mask gives identically zero.
    """
    cond = component_posterior(prior, sched, x_t, t)
    obs = problem.mask.observed_idx
    if obs.size == 0:
        return np.zeros(cond.log_resp.shape[1:])
    log_ev, _, _ = _observed_evidence(
        problem, cond.component_means(), cond.covariance_matrices()
    )
    offset = 0.5 * obs.size * (_LOG_2PI + 2.0 * np.log(problem.gamma))
    return logsumexp(cond.log_resp + log_ev, axis=0) + offset


def exact_guidance_grad(
    problem: InpaintingProblem,
    prior: GaussianMixture,
    sched: Schedule,
    x_t: np.ndarray,
    t: float,
) -> np.ndarray:
    """Gradient of ``exact_intermediate_loglik`` with respect to x_t.

    Differentiates through the responsibilities and the per-component
    conditional means, in closed form; the test suite checks it against
    central finite differences of ``exact_intermediate_loglik``.
    """
    x_t = np.asarray(x_t, dtype=float)
    obs = problem.mask.observed_idx
    if obs.size == 0:
        return np.zeros_like(x_t)
    cond = component_posterior(prior, sched, x_t, t)
    means = cond.component_means()
    log_ev, _, solved = _observed_evidence(problem, means, cond.covariance_matrices())

    # gradient of each component's evidence: A_k^T lifted residual, with
    # the symmetric slope A_k read from the first d rows of the mean map
    lifted = np.zeros(means.shape)
    lifted[..., obs] = solved
    ev_grad = _apply(cond.mean_maps[:, :-1], lifted)

    total = cond.centred_scores() + ev_grad
    return _weighted_sum(_reweight(cond.log_resp, log_ev), total)


def exact_posterior_denoiser(
    problem: InpaintingProblem,
    prior: GaussianMixture,
    sched: Schedule,
    x_t: np.ndarray,
    t: float,
) -> np.ndarray:
    """E[X0 | X_t = x_t, observation].

    Each component of the mixture of X0 given x_t is conditioned on the
    observation with ``_condition_on_observed`` and reweighted by its
    evidence, from one ``component_posterior``.  It equals the prior
    denoiser plus (sigma_t^2 / alpha_t) times ``exact_guidance_grad``, which
    the test suite checks.
    """
    if eval_schedule(sched, t)[0] == 0.0:
        raise ValueError("posterior denoiser undefined at t = 1 (alpha = 0)")
    cond = component_posterior(prior, sched, x_t, t)
    if problem.mask.observed_idx.size == 0:
        return cond.xhat0
    log_ev, post_means, _ = _condition_on_observed(
        problem, cond.component_means(), cond.covariance_matrices()
    )
    return _weighted_sum(_reweight(cond.log_resp, log_ev), post_means)


def ding_gap(
    prior: GaussianMixture,
    sched: Schedule,
    x: np.ndarray,
    z: np.ndarray,
    s: float,
) -> float | np.ndarray:
    """Size of the neglected-Jacobian term at displacement x - z.

    ding's step treats the denoiser as affine with slope I / alpha_s around
    z; the true first-order expansion uses the denoiser Jacobian J at z.
    The gap is ||(x - z) / alpha_s - J (x - z)||.  J (x - z) comes from the
    evaluation's ``vjp``: J is symmetric (by second-order Tweedie it is
    (I + sigma_s^2 Hessian of log p_s) / alpha_s), so no d x d matrix is
    formed, and the gap equals (sigma_s^2 / alpha_s) ||Hessian (x - z)||.
    ``x`` and ``z`` are one point (d,), which gives a float, or a batch of
    chains (n, d), which gives the (n,) norms.
    """
    alpha, sigma = eval_schedule(sched, s)
    if alpha <= 0 or sigma <= 0:
        raise ValueError("ding_gap requires 0 < s < 1 (alpha_s > 0 and sigma_s > 0)")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    disp = x - z
    jac0_disp = component_posterior(prior, sched, z, s).vjp(disp)
    v = disp / alpha - jac0_disp
    gap = np.linalg.norm(v, axis=-1)
    return float(gap) if gap.ndim == 0 else gap
