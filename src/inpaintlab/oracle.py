"""Exact posterior quantities for mixture priors under a mask likelihood.

Everything a guided sampler approximates is available in closed form
when the prior is a Gaussian mixture and the observation is a masked
Gaussian:

- ``exact_posterior``: the terminal posterior mixture over clean samples.
- ``posterior_given_state``: the mixture of the clean sample given both a
  noisy state and the observation (a ``PosteriorGivenState``), with the
  observation likelihood given the noisy state.
- ``exact_intermediate_loglik``: the observation likelihood marginalized
  through the conditional of the clean sample given a noisy state, read
  from ``posterior_given_state``.
- ``exact_guidance_grad``: its gradient with respect to the noisy state.
- ``exact_posterior_denoiser``: the conditional mean of the clean sample
  given both the noisy state and the observation, the weighted mean of
  ``posterior_given_state``.
- ``ding_gap``: the pointwise error of replacing the denoiser Jacobian by
  the scaled identity in a first-order expansion, for one point or a batch
  of chains, with the Jacobian applied to the displacement through the
  denoiser's vector-Jacobian product.

One routine, ``_condition``, conditions a mixture on the observation:
``exact_posterior`` calls it on the prior's stored components, and
``posterior_given_state`` on the mixture of X0 given the noisy state from
one ``component_posterior``.  It reweights each component by its
evidence, takes the log-likelihood as their log-sum-exp, and leaves the
mixture as it is under an empty mask.  It and ``exact_guidance_grad``,
which reads the evidence without it, are where the oracle first reads
the problem, so each checks there, through ``_check_dimension`` and ahead
of its empty-mask shortcut, that the problem's dimension is the prior's,
and raises ValueError naming both.  The evidence comes from
``_observed_evidence``, which works in the log domain on the observed
sub-coordinates only, so every factored S = C[obs, obs] + gamma^2 I stays
positive definite even at small gamma.  Its Cholesky factors L and solved
residuals also give the guidance gradient and each conditioned component
in gain form, with no d x d inverse: with G = C[:, obs] S^{-1},
post_mean = m + G (y_obs - m_obs) and post_cov = C - G C[obs, :], whose obs
columns and rows are written as gamma^2 G.  As S - C[obs, obs] = gamma^2 I,
that is exact, and it keeps the digits that C[:, obs] - G C[obs, obs]
cancels at small gamma.  Diagonal and full priors share this one formula.

Per-component arrays are component-major, as in ``gmm``, but points-first:
the oracle works on the (K, ..., d) arrays that ``gmm`` returns, not on
the denoiser's points-last (K, d, M) products.  That is (K, ..., d) for
the conditional means, which each routine forms once per call with
``ConditionalMixture.component_means``, the component scores and the
solved residuals, (K, ...) for the log evidence and the reweighted log
weights, and (K, d, d) for the conditioned covariances, which do not
depend on the noisy state.  Its weighted sums over components are
``einsum``s over that layout (``_mixture_mean``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .gmm import (
    _LOG_2PI,
    GaussianMixture,
    _spectra,
    component_posterior,
    logsumexp,
)
from .problem import InpaintingProblem
from .schedule import Schedule, eval_schedule


@dataclass(frozen=True, eq=False)
class PosteriorGivenState:
    """The mixture of X0 given the noisy state and the observation, component-major.

    For points x_t of shape (..., d), component k has the normalised log
    weight ``log_weights[k]`` (K, ...), the conditioned mean ``means[k]``
    (K, ..., d) and the conditioned covariance ``covariances[k]`` (K, d, d),
    which does not depend on x_t.  ``loglik`` (...) is the observation
    log-likelihood given x_t, with the dropped-constant convention of
    ``log_likelihood``.
    """

    log_weights: np.ndarray
    loglik: np.ndarray
    means: np.ndarray
    covariances: np.ndarray


def exact_posterior(problem: InpaintingProblem, prior: GaussianMixture) -> GaussianMixture:
    """Posterior mixture over clean samples given the masked observation.

    The prior's stored components are conditioned and reweighted by
    ``_condition``; a diagonal prior keeps its layout, as conditioning
    leaves exact zeros off the diagonal.  This is not read as
    ``posterior_given_state`` at t = 1, which would rebuild each full
    covariance from its eigenbasis and move the weights at rounding level.
    A component whose reweighted weight underflows to 0 is dropped: its
    mass is below the smallest double.  The conditioning runs with
    floating-point warnings ignored, as a quadratic form that overflows is
    an evidence of 0; when no component keeps a positive finite weight,
    NumericError is raised.  An empty mask returns the prior itself.  A
    gamma so small that rounding leaves a posterior covariance not positive
    definite, by the rule of ``GaussianMixture``, raises NumericError.
    """
    with np.errstate(all="ignore"):
        post = _condition(problem, prior.log_weights, prior.means, prior.covariance_matrices())
    if problem.mask.observed_idx.size == 0:
        return prior
    weights = np.exp(post.log_weights)
    keep = weights > 0
    if not keep.any():
        raise NumericError(f"exact posterior at gamma = {problem.gamma:g}: no component "
                           "keeps a positive finite weight")
    cov = (post.covariances.diagonal(0, -2, -1) if prior.is_diagonal else post.covariances)[keep]
    try:
        return GaussianMixture(weights[keep] / weights.sum(), post.means[keep], cov)
    except ValueError:  # the prior passed these checks, so rounding failed them
        bad = _spectra(cov)[2]
        if bad == 0:
            raise
        raise NumericError(f"exact posterior at gamma = {problem.gamma:g}: {bad} of "
                           f"{prior.n_components} components lost variance to rounding") from None


def _mixture_mean(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k w[k] v[k]: weights (K, ...) against vectors (K, ..., d)."""
    return np.einsum("k...,k...d->...d", w, v)


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
    logdet = logdet.reshape(logdet.shape + (1,) * (quad.ndim - 1))
    return -0.5 * (quad + logdet + obs.size * _LOG_2PI), chol, solved


def _check_dimension(problem: InpaintingProblem, d: int) -> None:
    """Raise ValueError naming both dimensions unless the problem's is d,
    the prior's."""
    if problem.mask.dim != d:
        raise ValueError(f"problem dimension {problem.mask.dim} differs from the prior's {d}")


def _condition(
    problem: InpaintingProblem,
    log_resp: np.ndarray,
    means: np.ndarray,
    cov: np.ndarray,
) -> PosteriorGivenState:
    """Condition the mixture of components N(means_k, cov_k) with log
    weights ``log_resp`` (K, ...) on the observation.

    Each component is conditioned in the gain form of the module docstring
    and reweighted by its evidence, whose log-sum-exp gives the
    log-likelihood.  An empty mask leaves the mixture as it is, with a
    log-likelihood of exactly 0.  A problem whose dimension differs from
    the mixture's raises ValueError naming both.
    """
    _check_dimension(problem, means.shape[-1])
    obs = problem.mask.observed_idx
    if obs.size == 0:
        return PosteriorGivenState(log_resp, np.zeros(log_resp.shape[1:]), means, cov)
    log_ev, chol, solved = _observed_evidence(problem, means, cov)
    cross = cov[:, :, obs]  # C[:, obs], (K, d, o)
    post_means = means + np.einsum("kdo,k...o->k...d", cross, solved)
    gain = _chol_solve(chol, cross)  # C[:, obs] S^{-1}, S symmetric
    post_cov = cov - gain @ np.swapaxes(cross, -1, -2)
    post_cov[:, :, obs] = problem.gamma**2 * gain  # = C[:, obs] - G C[obs, obs], exactly
    post_cov[:, obs, :] = np.swapaxes(post_cov[:, :, obs], -1, -2)
    logw = log_resp + log_ev
    norm = logsumexp(logw)
    offset = 0.5 * obs.size * (_LOG_2PI + 2.0 * np.log(problem.gamma))
    return PosteriorGivenState(logw - norm, norm[0] + offset, post_means,
                               0.5 * (post_cov + np.swapaxes(post_cov, -1, -2)))


def posterior_given_state(
    problem: InpaintingProblem,
    prior: GaussianMixture,
    sched: Schedule,
    x_t: np.ndarray,
    t: float,
) -> PosteriorGivenState:
    """The mixture of X0 given X_t = x_t and the observation.

    Each component of the mixture of X0 given x_t, from one
    ``component_posterior``, is conditioned on the observation and
    reweighted by ``_condition``.
    """
    cond = component_posterior(prior, sched, x_t, t)
    return _condition(problem, cond.log_resp, cond.component_means(), cond.covariance_matrices())


def exact_intermediate_loglik(
    problem: InpaintingProblem,
    prior: GaussianMixture,
    sched: Schedule,
    x_t: np.ndarray,
    t: float,
) -> np.ndarray:
    """Observation log-likelihood marginalized over X0 given X_t = x_t.

    Conditioning on the noisy state leaves a mixture over X0; the masked
    Gaussian integrates against each component in closed form.  This is
    the ``loglik`` of ``posterior_given_state``.  The additive
    normalization follows the dropped-constant convention of
    ``log_likelihood``, so the t -> 0 limit recovers it exactly, and an
    empty mask gives identically zero.
    """
    return posterior_given_state(problem, prior, sched, x_t, t).loglik


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
    central finite differences of ``exact_intermediate_loglik``, and,
    scaled by sigma_t^2 / alpha_t, against ``exact_posterior_denoiser``
    minus the prior denoiser.  An empty mask gives zeros; a problem whose
    dimension differs from the prior's raises ValueError naming both, the
    empty mask included.
    """
    _check_dimension(problem, prior.dim)
    x_t = np.asarray(x_t, dtype=float)
    obs = problem.mask.observed_idx
    if obs.size == 0:
        return np.zeros_like(x_t)
    cond = component_posterior(prior, sched, x_t, t)
    means = cond.component_means()
    log_ev, _, solved = _observed_evidence(problem, means, cond.covariance_matrices())

    # gradient of each component's evidence: A_k^T lifted residual
    lifted = np.zeros(means.shape)
    lifted[..., obs] = solved
    ev_grad = cond.slope_products(lifted)

    logw = cond.log_resp + log_ev
    resp = np.exp(logw - logsumexp(logw))
    return _mixture_mean(resp, cond.centred_scores() + ev_grad)


def exact_posterior_denoiser(
    problem: InpaintingProblem,
    prior: GaussianMixture,
    sched: Schedule,
    x_t: np.ndarray,
    t: float,
) -> np.ndarray:
    """E[X0 | X_t = x_t, observation]: the weighted mean of
    ``posterior_given_state``, for t in [0, 1].

    For t < 1 it equals the prior denoiser plus (sigma_t^2 / alpha_t) times
    ``exact_guidance_grad``, which the test suite checks; at t = 1 (alpha_t
    = 0) the state carries no information and it is E[X0 | y], the mean of
    ``exact_posterior``; with an empty mask it is the prior denoiser.
    """
    post = posterior_given_state(problem, prior, sched, x_t, t)
    return _mixture_mean(np.exp(post.log_weights), post.means)


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
