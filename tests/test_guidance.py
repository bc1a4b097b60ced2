import inspect
import io
import math
import sys
import tracemalloc

import numpy as np
import pytest

from inpaintlab import (
    METHODS,
    ConfigError,
    Denoiser,
    GaussianMixture,
    GMMDenoiser,
    InpaintingProblem,
    MaskOperator,
    NumericError,
    SamplerConfig,
    Schedule,
    eval_schedule,
    make_grid,
    make_observation,
    run_conditional,
    run_unconditional,
    sample_transition,
    step_blended,
    step_ddnm,
    step_diffpir,
    step_ding,
    step_dps,
    transition_params,
)
from inpaintlab import bridge, gmm, guidance
from inpaintlab.cli import _write_trajectories
from inpaintlab.gmm import Evaluation
from inpaintlab.guidance import chain_rngs, ding_posterior

import reference

LIN = Schedule("linear-flow")


class ZeroNoiseDenoiser(Denoiser):
    """x0_hat = x / alpha_t (0 at t = 1) of ``dim``-dimensional points on the
    linear flow, so the tied noise estimate is 0 everywhere; keeps the base
    vjp, which raises."""

    sched = LIN

    def __init__(self, dim):
        self.dim = dim

    def evaluate(self, x, t):
        alpha_t, _ = eval_schedule(self.sched, t)
        return Evaluation(t, x / alpha_t if alpha_t > 0 else np.zeros_like(x))


@pytest.fixture
def gaussian_denoiser():
    return GMMDenoiser(GaussianMixture([1.0], [[0.0]], [[1.0]]), LIN)


@pytest.fixture
def mixture_setup():
    prior = GaussianMixture([0.5, 0.5], [[2.0, 2.0], [-2.0, -2.0]], [[1.0, 1.0], [1.0, 1.0]])
    den = GMMDenoiser(prior, LIN)
    x_star = np.array([1.7, -0.4])
    problem = make_observation(x_star, MaskOperator([1, 0]), 0.2)
    return prior, den, problem


def _cfg(method, **kw):
    defaults = dict(grid=make_grid(10), eta=0.8, gamma=0.2, seed=0, n_chains=2)
    defaults.update(kw)
    return SamplerConfig(method=method, **defaults)


def _law(step, x_t, ev, s, problem, den, cfg):
    """(mean, std) of a step's transition from the (n, d) batch x_t, read
    from the shipped step: its output at zero noise, and at unit noise less
    that."""
    mean = step(x_t, ev, s, problem, den, cfg, reference.DesignedNoise(len(x_t), 0.0))
    unit = step(x_t, ev, s, problem, den, cfg, reference.DesignedNoise(len(x_t), 1.0))
    return mean, unit - mean


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg("nonsense")
    with pytest.raises(ConfigError):
        _cfg("ding", gamma=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="dps_scale must be strictly positive"):
            _cfg("dps", dps_scale=bad)
    with pytest.raises(ConfigError):
        _cfg("ding", ding_nz=0)
    with pytest.raises(ConfigError):
        _cfg("dps", eta=2.0)
    with pytest.raises(ConfigError, match="ding"):
        _cfg("ding", eta=0.0)


def test_config_gamma_must_have_a_finite_square():
    # the largest double whose square is finite passes, the next one up fails
    root = math.sqrt(sys.float_info.max)
    for method in METHODS:
        assert _cfg(method, gamma=root).gamma == root
        assert _cfg(method, gamma=1e-200).gamma == 1e-200
        with pytest.raises(ConfigError, match="gamma must be strictly positive with a finite"):
            _cfg(method, gamma=math.nextafter(root, math.inf))


# ---------------------------------------------------------------------------
# blended
# ---------------------------------------------------------------------------


def test_blended_observed_exact_at_s_zero(mixture_setup):
    _, den, problem = mixture_setup
    x_t = np.array([0.5, 0.5])
    x_s = step_blended(
        x_t, den.evaluate(x_t, 0.1), 0.0, problem, den, _cfg("blended"),
        np.random.default_rng(0),
    )
    assert x_s[0] == problem.y[0]  # alpha_0 = 1, sigma_0 = 0


def test_blended_empty_mask_is_unconditional_step(mixture_setup):
    _, den, _ = mixture_setup
    prob = InpaintingProblem(MaskOperator([0, 0]), np.zeros(2), 0.2)
    cfg = _cfg("blended")
    x_t = np.array([0.3, -0.2])
    ev = den.evaluate(x_t, 0.5)
    got = step_blended(x_t, ev, 0.2, prob, den, cfg, np.random.default_rng(5))
    want = sample_transition(
        *transition_params(LIN, cfg.eta, x_t, ev.xhat0, 0.2, 0.5), np.random.default_rng(5)
    )
    np.testing.assert_array_equal(got, want)


def test_blended_full_mask_reproduces_reference():
    # blend dominates every step; terminal = x_star exactly on all coordinates
    prior = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    den = GMMDenoiser(prior, LIN)
    x_star = np.array([0.9, -1.3])
    problem = make_observation(x_star, MaskOperator([1, 1]), 0.2)
    cfg = _cfg("blended", grid=make_grid(100), n_chains=3, final_replacement=False)
    samples = run_conditional(problem, den, LIN, cfg)
    np.testing.assert_array_equal(samples, np.tile(x_star, (3, 1)))


def test_blended_replays_the_noisy_observation_not_the_reference():
    # the problem holds y alone: with observation noise the observed
    # coordinates end on y, never on the hidden x_star it was drawn from
    prior = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    den = GMMDenoiser(prior, LIN)
    x_star = np.array([0.9, -1.3])
    problem = make_observation(x_star, MaskOperator([1, 0]), 0.5, np.random.default_rng(0))
    cfg = _cfg("blended", grid=make_grid(20), n_chains=3, final_replacement=False)
    observed = run_conditional(problem, den, LIN, cfg)[:, 0]
    assert observed.tobytes() == np.full(3, problem.y[0]).tobytes()
    assert np.all(observed != x_star[0])


def test_blended_step_law_per_column():
    # one step from one state over n chains: the observed columns are
    # N(alpha_s y, sigma_s^2), the others the transition's N(mean, std^2),
    # and the two are uncorrelated; each bound is five standard errors at n
    prior = GaussianMixture([0.3, 0.7], [[1.0, -1.0, 0.5, 2.0], [-2.0, 0.5, 1.5, -1.0]],
                            [[1.0, 0.5, 2.0, 0.8], [0.6, 1.5, 0.4, 1.2]])
    den = GMMDenoiser(prior, LIN)
    problem = make_observation(np.array([0.8, -1.1, 1.9, 0.3]), MaskOperator([1, 0, 1, 0]), 0.2)
    n, s, t = 20_000, 0.4, 0.5
    cfg = _cfg("blended", n_chains=n)
    x_t = np.tile([0.7, -0.3, 1.2, 0.1], (n, 1))
    ev = den.evaluate(x_t, t)
    x_s = step_blended(x_t, ev, s, problem, den, cfg, chain_rngs(cfg.seed, "blended", n))
    mean, std = transition_params(LIN, cfg.eta, x_t, ev.xhat0, s, t)
    assert std > 0 and np.all(mean == mean[0])
    alpha_s, sigma_s = eval_schedule(LIN, s)
    observed = problem.mask.m == 1
    z = (x_s - np.where(observed, alpha_s * problem.y, mean[0])) / np.where(observed, sigma_s, std)
    assert np.all(np.abs(z.mean(axis=0)) < 5 / math.sqrt(n))
    assert np.all(np.abs(z.var(axis=0) - 1.0) < 5 * math.sqrt(2 / n))
    corr = np.corrcoef(z, rowvar=False)[np.ix_(observed, ~observed)]
    assert np.all(np.abs(corr) < 5 / math.sqrt(n))


# ---------------------------------------------------------------------------
# dps
# ---------------------------------------------------------------------------


def test_dps_flat_likelihood_reduces_to_unconditional(mixture_setup):
    _, den, problem = mixture_setup
    x_t = np.array([[0.4, -1.0]])
    cfg = _cfg("dps", gamma=1e6)
    ev = den.evaluate(x_t, 0.6)
    mean, std = _law(step_dps, x_t, ev, 0.3, problem, den, cfg)
    plain_mean, plain_std = transition_params(LIN, cfg.eta, x_t, ev.xhat0, 0.3, 0.6)
    assert np.max(np.abs(mean - plain_mean)) <= 1e-6 * np.linalg.norm(plain_mean) + 1e-9
    np.testing.assert_allclose(std, plain_std, rtol=1e-12)


def test_dps_zero_residual_leaves_denoiser(gaussian_denoiser):
    # worked 1-d case: x_t=1, t=0.5, y=1: x0_hat=1, residual 0, correction 0
    problem = InpaintingProblem(MaskOperator([1]), np.array([1.0]), 1.0)
    cfg = _cfg("dps", gamma=1.0, dps_scale=1.0)
    x_t = np.array([[1.0]])
    ev = gaussian_denoiser.evaluate(x_t, 0.5)
    mean, _ = _law(step_dps, x_t, ev, 0.25, problem, gaussian_denoiser, cfg)
    plain_mean, plain_std = transition_params(LIN, cfg.eta, x_t, ev.xhat0, 0.25, 0.5)
    np.testing.assert_allclose(mean, plain_mean, atol=1e-14)


def test_dps_correction_matches_closed_form(gaussian_denoiser):
    # J = 1, x0_hat = x/... : check x0' = x0_hat + zeta (sigma^2/alpha) J resid / gamma^2
    problem = InpaintingProblem(MaskOperator([1]), np.array([2.0]), 1.0)
    cfg = _cfg("dps", eta=0.0, gamma=1.0, dps_scale=0.5)
    x_t = np.array([[1.0]])
    s, t = 0.25, 0.5
    mean, std = _law(step_dps, x_t, gaussian_denoiser.evaluate(x_t, t), s, problem,
                     gaussian_denoiser, cfg)
    alpha_t, sigma_t = eval_schedule(LIN, t)
    xhat0 = 1.0  # alpha x/(alpha^2+sigma^2)
    corrected = xhat0 + 0.5 * (sigma_t**2 / alpha_t) * 1.0 * (2.0 - xhat0)
    xhat1 = (x_t[0, 0] - alpha_t * corrected) / sigma_t
    alpha_s, sigma_s = eval_schedule(LIN, s)
    beta_s = sigma_s * math.sqrt(1.0 - cfg.eta**2)
    np.testing.assert_allclose(mean, [[alpha_s * corrected + beta_s * xhat1]])
    np.testing.assert_array_equal(std, 0.0)  # eta = 0: no noise enters


def test_dps_requires_jacobian(mixture_setup):
    _, _, problem = mixture_setup
    den = ZeroNoiseDenoiser(2)
    x_t = np.zeros((1, 2))
    with pytest.raises(NotImplementedError):
        step_dps(x_t, den.evaluate(x_t, 0.5), 0.2, problem, den, _cfg("dps"),
                 reference.DesignedNoise(1))


@pytest.mark.parametrize("prior", [
    GaussianMixture([0.5, 0.5], [[2.0, 2.0], [-2.0, -2.0]], [[1.0, 1.0], [1.0, 0.5]]),
    GaussianMixture([0.5, 0.5], [[2.0, 2.0], [-2.0, -2.0]],
                    [[[1.0, 0.3], [0.3, 1.0]], [[0.5, -0.2], [-0.2, 1.0]]]),
], ids=["diagonal", "full"])
def test_dps_vjp_matches_the_jacobian_einsum(prior):
    # the closed-form J^T g gives the corrected mean of the full-Jacobian form
    den = GMMDenoiser(prior, LIN)
    problem = make_observation(np.array([1.7, -0.4]), MaskOperator([1, 0]), 0.2)
    cfg = _cfg("dps")
    x_t = np.random.default_rng(3).standard_normal((6, 2)) * 2.0
    for s, t in ((0.05, 0.1), (0.3, 0.5), (0.8, 0.9)):
        ev = den.evaluate(x_t, t)
        m = problem.mask.m
        resid = m * (problem.y - m * ev.xhat0)
        grad = np.einsum("...ij,...i->...j", den.jacobian(ev), resid) / cfg.gamma**2
        alpha_t, sigma_t = eval_schedule(LIN, t)
        corrected = ev.xhat0 + cfg.dps_scale * (sigma_t**2 / alpha_t) * grad
        want_mean, want_std = transition_params(LIN, cfg.eta, x_t, corrected, s, t)
        mean, std = _law(step_dps, x_t, ev, s, problem, den, cfg)
        np.testing.assert_allclose(mean, want_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(std, want_std, rtol=1e-12)


def test_dps_t1_uses_interior_scale(mixture_setup):
    # at t = 1 exactly, the sigma^2/alpha factor comes from the first interior knot
    _, den, problem = mixture_setup
    cfg = _cfg("dps")
    x_t = np.array([[0.2, 0.1]])
    mean, _ = _law(step_dps, x_t, den.evaluate(x_t, 1.0), 0.9, problem, den, cfg)
    assert np.all(np.isfinite(mean))


# ---------------------------------------------------------------------------
# ding
# ---------------------------------------------------------------------------


def test_conjugate_update_closed_form():
    # the conjugate update in precision form, on several observed columns of
    # a batch: 1/var = 1/prior_var + 1/obs_var, mean/var = m/prior_var + u/obs_var
    rng = np.random.default_rng(3)
    m = np.array([1, 0, 1, 1, 0])
    problem = InpaintingProblem(MaskOperator(m), m * rng.normal(size=5), 0.5)
    mean, e = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
    eta_s, alpha_s, sigma_s, gamma = 0.3, 0.8, 0.6, 0.2
    post_mean, post_std = ding_posterior(mean, eta_s, e, problem, alpha_s, sigma_s, gamma)
    idx = problem.mask.observed_idx
    u = alpha_s * problem.y[idx] + sigma_s * e[:, idx]
    prior_var, obs_var = eta_s**2, (alpha_s * gamma) ** 2
    post_var = 1.0 / (1.0 / prior_var + 1.0 / obs_var)
    assert post_mean.shape == (2, 3)
    np.testing.assert_allclose(post_std**2, post_var)
    np.testing.assert_allclose(post_mean, post_var * (mean[:, idx] / prior_var + u / obs_var))


def test_ding_posterior_worked_example():
    # u = 0.5 * 1 + 0.5 * 0 = 0.5 against prior var 0.25, obs var
    # (0.5 * 0.5)^2 = 0.0625: mean 0.4, var 0.05
    problem = InpaintingProblem(MaskOperator([1]), np.array([1.0]), 0.5)
    post_mean, post_std = ding_posterior(
        np.array([0.0]), 0.5, np.array([0.0]), problem, alpha_s=0.5, sigma_s=0.5, gamma=0.5
    )
    np.testing.assert_allclose(post_mean, [0.4])
    np.testing.assert_allclose(post_std**2, [0.05])


def test_ding_unobserved_coordinate_keeps_prior(mixture_setup):
    # ding_posterior returns the observed column alone; the step draws the
    # unobserved one from the prior N(mean, eta_s^2), with the draw that
    # follows the proposal's
    _, den, problem = mixture_setup  # mask [1, 0]
    mean, std = ding_posterior(
        np.array([0.3, -0.7]), 0.4, np.zeros(2), problem, 0.5, 0.5, 0.5
    )
    assert mean.shape == (1,) and np.ndim(std) == 0
    cfg = _cfg("ding")
    x_t = np.array([0.4, -0.1])
    ev = den.evaluate(x_t, 0.6)
    got = step_ding(x_t, ev, 0.3, problem, den, cfg, np.random.default_rng(2))
    mean, std = transition_params(LIN, cfg.eta, x_t, ev.xhat0, 0.3, 0.6)
    rng = np.random.default_rng(2)
    rng.standard_normal((1, 2))  # the proposal draw
    assert got[1] == mean[1] + std * rng.standard_normal(2)[1]


def test_ding_flat_likelihood_limit():
    problem = InpaintingProblem(MaskOperator([1]), np.array([1.0]), 1e6)
    mean, std = ding_posterior(np.array([0.2]), 0.5, np.array([0.0]), problem, 0.5, 0.5, 1e6)
    assert abs(mean[0] - 0.2) < 1e-9
    assert abs(std - 0.5) < 1e-9


def test_ding_gamma_monotonicity():
    # observed posterior mean moves monotonically from mu to u as gamma drops
    problem = InpaintingProblem(MaskOperator([1]), np.array([1.0]), 1.0)
    mu, eta_s, e = np.array([0.0]), 0.5, np.array([0.3])
    alpha_s, sigma_s = 0.6, 0.4
    u = alpha_s * 1.0 + sigma_s * 0.3
    gaps = []
    for gamma in (10.0, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01):
        mean, _ = ding_posterior(mu, eta_s, e, problem, alpha_s, sigma_s, gamma)
        gaps.append(abs(mean[0] - u))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_ding_step_conjugacy_monte_carlo():
    # fixed (mu, eta_s, e) = (0, 0.5, 0) via a denoiser whose tied noise is 0:
    # the step's observed-coordinate law must match the closed-form product of
    # prior and pseudo-observation
    problem = InpaintingProblem(MaskOperator([1]), np.array([1.0]), 0.5)
    den = ZeroNoiseDenoiser(1)
    cfg = _cfg("ding", eta=1.0, gamma=0.5, n_chains=1)
    n = 200_000
    x_t = np.ones((n, 1))
    draws = step_ding(x_t, den.evaluate(x_t, 1.0), 0.5, problem, den, cfg,
                      np.random.default_rng(3))
    assert abs(draws.mean() - 0.4) < 4 * np.sqrt(0.05 / n)
    assert abs(draws.var() - 0.05) < 4 * 0.05 * np.sqrt(2.0 / n)


def test_ding_deterministic_when_eta_zero(mixture_setup):
    # a ding config rejects eta = 0, but the last step (s = 0) has
    # eta_s = eta * sigma_0 = 0 at every eta: it returns the transition mean
    _, den, problem = mixture_setup
    cfg = _cfg("ding")
    x_t = np.array([0.4, -0.1])
    ev = den.evaluate(x_t, 0.6)
    got = step_ding(x_t, ev, 0.0, problem, den, cfg, np.random.default_rng(0))
    want, _ = transition_params(LIN, cfg.eta, x_t, ev.xhat0, 0.0, 0.6)
    np.testing.assert_array_equal(got, want)


def test_ding_never_touches_jacobian(mixture_setup):
    _, den, problem = mixture_setup
    cfg = _cfg("ding", grid=make_grid(25), n_chains=4, ding_nz=3)
    run_conditional(problem, den, LIN, cfg)
    assert den.jacobian_calls == 0


def test_ding_nz_averaging_runs(mixture_setup):
    _, den, problem = mixture_setup
    cfg = _cfg("ding", ding_nz=4)
    out = step_ding(np.zeros(2), den.evaluate(np.zeros(2), 0.6), 0.3, problem, den,
                    cfg, np.random.default_rng(1))
    assert out.shape == (2,)
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# ddnm
# ---------------------------------------------------------------------------


def test_ddnm_projects_observed_coordinates(mixture_setup):
    _, den, problem = mixture_setup
    x_t = np.array([[0.7, 0.7]])
    s, t = 0.25, 0.5
    ev = den.evaluate(x_t, t)
    mean, std = _law(step_ddnm, x_t, ev, s, problem, den, _cfg("ddnm", eta=0.0))
    # reconstruct x0_hat' from the transition mean and check the observed entry
    alpha_t, sigma_t = eval_schedule(LIN, t)
    alpha_s, beta_s = eval_schedule(LIN, s)  # beta_s = sigma_s at eta = 0
    projected = problem.mask.m * problem.y + (1 - problem.mask.m) * ev.xhat0
    xhat1 = (x_t - alpha_t * projected) / sigma_t
    np.testing.assert_allclose(mean, alpha_s * projected + beta_s * xhat1)
    np.testing.assert_array_equal(std, 0.0)
    assert projected[0, 0] == problem.y[0]


def test_ddnm_empty_mask_is_unconditional(mixture_setup):
    _, den, _ = mixture_setup
    prob = InpaintingProblem(MaskOperator([0, 0]), np.zeros(2), 0.2)
    cfg = _cfg("ddnm")
    x_t = np.array([[0.3, -0.2]])
    ev = den.evaluate(x_t, 0.5)
    mean, _ = _law(step_ddnm, x_t, ev, 0.2, prob, den, cfg)
    want_mean, _ = transition_params(LIN, cfg.eta, x_t, ev.xhat0, 0.2, 0.5)
    np.testing.assert_array_equal(mean, want_mean)


def test_ddnm_ignores_gamma(mixture_setup):
    _, den, _ = mixture_setup
    x_t = np.array([[0.3, -0.2]])
    ev = den.evaluate(x_t, 0.5)
    outs = []
    for gamma in (0.01, 1.0, 100.0):
        prob = InpaintingProblem(MaskOperator([1, 0]), np.array([1.7, 0.0]), gamma)
        outs.append(_law(step_ddnm, x_t, ev, 0.2, prob, den, _cfg("ddnm"))[0])
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(outs[1], outs[2])


# ---------------------------------------------------------------------------
# diffpir
# ---------------------------------------------------------------------------


def test_diffpir_proximal_worked_example():
    # y=2, x0_hat=0, gamma=1, rho_t=1 (lambda=1, t=0.5): pulled value 1.0
    problem = InpaintingProblem(MaskOperator([1]), np.array([2.0]), 1.0)
    cfg = _cfg("diffpir", eta=1.0, gamma=1.0, diffpir_lambda=1.0)
    ev = Evaluation(0.5, np.array([[0.0]]))
    # the step reads only the schedule of its denoiser, whose estimate ev already holds
    mean, _ = _law(step_diffpir, np.array([[1.0]]), ev, 0.25, problem, ZeroNoiseDenoiser(1), cfg)
    alpha_s, _ = eval_schedule(LIN, 0.25)
    np.testing.assert_allclose(mean, [[alpha_s * 1.0]])


def test_diffpir_infinite_lambda_keeps_denoiser(mixture_setup):
    _, den, problem = mixture_setup
    x_t = np.array([[0.4, -1.0]])
    cfg = _cfg("diffpir", diffpir_lambda=1e12)
    ev = den.evaluate(x_t, 0.6)
    mean, _ = _law(step_diffpir, x_t, ev, 0.3, problem, den, cfg)
    plain_mean, plain_std = transition_params(LIN, cfg.eta, x_t, ev.xhat0, 0.3, 0.6)
    np.testing.assert_allclose(mean, plain_mean, atol=1e-9)


def test_diffpir_small_gamma_pins_observed(mixture_setup):
    _, den, problem = mixture_setup
    x_t = np.array([[0.4, -1.0]])
    s, t = 0.3, 0.6
    cfg = _cfg("diffpir", eta=0.0, gamma=1e-6)
    ev = den.evaluate(x_t, t)
    mean, _ = _law(step_diffpir, x_t, ev, s, problem, den, cfg)
    alpha_t, sigma_t = eval_schedule(LIN, t)
    alpha_s, beta_s = eval_schedule(LIN, s)  # beta_s = sigma_s at eta = 0
    xhat0 = ev.xhat0.copy()
    xhat0[0, 0] = problem.y[0]  # hard data pull on the observed coordinate
    xhat1 = (x_t - alpha_t * xhat0) / sigma_t
    np.testing.assert_allclose(mean, alpha_s * xhat0 + beta_s * xhat1, atol=1e-5)


def test_diffpir_flat_likelihood_reduces_to_unconditional(mixture_setup):
    _, den, problem = mixture_setup
    x_t = np.array([[0.4, -1.0]])
    cfg = _cfg("diffpir", gamma=1e6)
    ev = den.evaluate(x_t, 0.6)
    mean, std = _law(step_diffpir, x_t, ev, 0.3, problem, den, cfg)
    plain_mean, plain_std = transition_params(LIN, cfg.eta, x_t, ev.xhat0, 0.3, 0.6)
    assert np.max(np.abs(mean - plain_mean)) <= 1e-6 * np.linalg.norm(plain_mean) + 1e-9
    np.testing.assert_allclose(std, plain_std, rtol=1e-12)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def test_final_replacement_contract(mixture_setup):
    _, den, problem = mixture_setup
    for method in ("blended", "dps", "ding", "ddnm", "diffpir"):
        cfg = _cfg(method, final_replacement=True, n_chains=3)
        samples = run_conditional(problem, den, LIN, cfg)
        m = problem.mask.m
        np.testing.assert_array_equal(m * samples, np.tile(m * problem.y, (3, 1)))


def test_run_conditional_deterministic(mixture_setup):
    _, den, problem = mixture_setup
    cfg = _cfg("ding", n_chains=4)
    a = run_conditional(problem, den, LIN, cfg)
    b = run_conditional(problem, den, LIN, cfg)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("den_kind, run_kind", [("trig-vp", "linear-flow"),
                                                ("linear-flow", "trig-vp")])
def test_run_conditional_rejects_a_schedule_other_than_its_denoisers(den_kind, run_kind,
                                                                     mixture_setup):
    # the steps read the denoiser's schedule; a second one that differs
    # would be ignored, so it is refused before any chain is drawn
    prior, _, problem = mixture_setup
    den = GMMDenoiser(prior, Schedule(den_kind))
    with pytest.raises(ValueError, match=f"^schedule {run_kind} differs from the "
                                         f"denoiser's {den_kind}$"):
        run_conditional(problem, den, Schedule(run_kind), _cfg("ding"))


def test_run_conditional_rejects_a_problem_of_another_dimension(mixture_setup):
    # a 3-dimensional observation of the 2-dimensional prior: named before
    # any chain is drawn, not a broadcast error from inside a step
    _, den, _ = mixture_setup
    problem = make_observation([1.5, 2.4, 0.3], MaskOperator([1, 0, 1]), 0.1)
    with pytest.raises(ValueError, match="^problem dimension 3 differs from the denoiser's 2$"):
        run_conditional(problem, den, LIN, _cfg("ddnm", n_chains=5))


def test_run_conditional_restores_the_numpy_error_state():
    # the steps run under one error state that ignores everything; the
    # caller's state holds after a normal run and after one that raises
    # NumericError (dps at zeta = 1 diverges on the quickstart problem)
    import dataclasses
    from pathlib import Path

    from inpaintlab.config import load_config

    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "quickstart.cfg")
    problem = cfg.problem(rng=np.random.default_rng(np.random.SeedSequence((0, 0, 1))))
    den = GMMDenoiser(cfg.prior, cfg.sched)
    stable = cfg.samplers["dps"]
    inside = []
    with np.errstate(divide="raise", over="print", under="ignore", invalid="warn"):
        caller = np.geterr()
        run_conditional(problem, den, cfg.sched, stable,
                        on_step=lambda *_: inside.append(np.geterr()))
        assert np.geterr() == caller
        with pytest.raises(NumericError, match="^dps at step k=21 "):
            run_conditional(problem, den, cfg.sched, dataclasses.replace(stable, dps_scale=1.0))
        assert np.geterr() == caller
    ignore = dict.fromkeys(caller, "ignore")
    assert len(inside) == cfg.grid.num_steps and all(state == ignore for state in inside)


@pytest.mark.parametrize("prior", [
    GaussianMixture([0.5, 0.5], [[2.0, 2.0], [-2.0, -2.0]], [[1.0, 1.0], [1.0, 0.5]]),
    GaussianMixture([0.5, 0.5], [[2.0, 2.0], [-2.0, -2.0]],
                    [[[1.0, 0.3], [0.3, 1.0]], [[0.5, -0.2], [-0.2, 1.0]]]),
], ids=["diagonal", "full"])
@pytest.mark.parametrize("method", METHODS)
def test_chain_results_are_a_prefix_of_a_larger_run(method, prior):
    # one chain, within one block of 64 chains, at a block boundary and
    # across several blocks
    den = GMMDenoiser(prior, LIN)
    problem = make_observation(np.array([1.7, -0.4]), MaskOperator([1, 0]), 0.2)
    for n_few, n_many in ((1, 6), (2, 6), (64, 65), (70, 130)):
        few = run_conditional(problem, den, LIN, _cfg(method, n_chains=n_few, ding_nz=2))
        many = run_conditional(problem, den, LIN, _cfg(method, n_chains=n_many, ding_nz=2))
        np.testing.assert_array_equal(few, many[:n_few])


@pytest.mark.parametrize("layout", [(12, 32, "full"), (8, 2, "diagonal")],
                         ids=["d12-k32-full", "d8-k2-diagonal"])
@pytest.mark.parametrize("method", METHODS)
def test_chain_results_are_a_prefix_at_benchmark_sizes(method, layout):
    # the priors of mixture-full and gmm8: at these sizes BLAS blocks the
    # rows and columns of a product, which d = 2 never reaches, so a row of
    # a result could depend on the batch it came in; none may, and one
    # chain, whose products would take gemv without the second column of
    # the denoiser's scratch, may not either
    d, k, kind = layout
    den, problem = _benchmark_setup(d, k, kind, np.random.default_rng(21))
    knobs = dict(gamma=0.1, dps_scale=0.1, ding_nz=2)
    many = run_conditional(problem, den, LIN, _cfg(method, n_chains=200, **knobs))
    for n_few in (1, 7, 65, 130):
        few = run_conditional(problem, den, LIN, _cfg(method, n_chains=n_few, **knobs))
        np.testing.assert_array_equal(few, many[:n_few])


def _benchmark_setup(d, k, kind, rng):
    """A denoiser on a mixture-full-like prior (``kind`` "full") or a
    diagonal one, and an observation of half its coordinates."""
    if kind == "full":
        a = rng.standard_normal((k, d, d))
        cov = 0.3 * a @ np.swapaxes(a, 1, 2) / d + 0.2 * np.eye(d)
    else:
        cov = 0.2 + 0.6 * rng.random((k, d))
    prior = GaussianMixture(rng.dirichlet(np.ones(k)), 2.0 * rng.standard_normal((k, d)), cov)
    problem = make_observation(prior.sample(1, rng)[0], MaskOperator(np.arange(d) % 2), 0.1)
    return GMMDenoiser(prior, LIN), problem


@pytest.mark.parametrize("method", METHODS)
def test_one_denoiser_keeps_prefixes_across_chain_counts(method):
    # the denoiser's scratch is regrown and reused as the point count moves
    # from 64 to 500 (1000 for ding's two proposals) and back; each run stays
    # a prefix of the larger one, bit for bit
    den, problem = _benchmark_setup(12, 32, "full", np.random.default_rng(24))
    knobs = dict(gamma=0.1, dps_scale=0.1, ding_nz=2)
    few = run_conditional(problem, den, LIN, _cfg(method, n_chains=64, **knobs))
    many = run_conditional(problem, den, LIN, _cfg(method, n_chains=500, **knobs))
    again = run_conditional(problem, den, LIN, _cfg(method, n_chains=64, **knobs))
    np.testing.assert_array_equal(few, many[:64])
    np.testing.assert_array_equal(again, many[:64])


@pytest.mark.parametrize("method", ["ding", "dps"])
def test_steps_after_the_first_allocate_no_component_products(method, monkeypatch):
    # ding evaluates the proposal while the evaluation at x_t is alive, and
    # dps takes a vjp of it; once the first step has grown the denoiser's
    # scratch, no later step requests as much as one (K, n, d) array on top
    # of the memory held after that step (tracemalloc counts requests, not
    # what the allocator does with them)
    k, n, d = 32, 500, 12
    den, problem = _benchmark_setup(d, k, "full", np.random.default_rng(25))
    step = getattr(guidance, f"step_{method}")
    held = []

    def first_step_sets_the_level(*args):
        x_s = step(*args)
        if not held:
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return x_s

    monkeypatch.setattr(guidance, f"step_{method}", first_step_sets_the_level)
    cfg = _cfg(method, n_chains=n, gamma=0.1, dps_scale=0.1)
    tracemalloc.start()
    try:
        run_conditional(problem, den, LIN, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held[0] < k * n * d * 8


@pytest.mark.parametrize("method", ["ding", "dps"])
def test_steps_after_the_first_allocate_no_point_blocks(method, monkeypatch):
    # the points-last (d, n) blocks of the denoiser (the columns of v and
    # the responsibility-weighted sums) live in its scratch or in the array
    # it returns: once the first step has grown the scratch, no evaluate or
    # vjp of a later step requests as much as one (d, n) block on top of
    # the memory it started from and the arrays it returns.  With K = 2
    # components every other array such a call makes and frees, (K, n) or
    # (K, d, d+1), is smaller than a (d, n) block, so one more would show
    k, n, d = 2, 500, 12
    den, problem = _benchmark_setup(d, k, "full", np.random.default_rng(25))
    step = getattr(guidance, f"step_{method}")
    after_first, surplus = [], []

    def first_step_arms_the_calls(*args):
        x_s = step(*args)
        after_first.append(True)
        return x_s

    def traced(call):
        def wrapper(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call(*args)
            if after_first:
                current, peak = tracemalloc.get_traced_memory()
                shape = np.shape(getattr(result, "xhat0", result))
                surplus.append((peak - max(start, current), math.prod(shape[:-1])))
            return result
        return wrapper

    monkeypatch.setattr(guidance, f"step_{method}", first_step_arms_the_calls)
    monkeypatch.setattr(den, "evaluate", traced(den.evaluate))
    monkeypatch.setattr(den, "vjp", traced(den.vjp))
    cfg = _cfg(method, n_chains=n, gamma=0.1, dps_scale=0.1, ding_nz=2)
    tracemalloc.start()
    try:
        run_conditional(problem, den, LIN, cfg)
    finally:
        tracemalloc.stop()
    assert len(surplus) >= 9
    assert all(extra < d * points * 8 for extra, points in surplus), surplus


@pytest.mark.parametrize("method", METHODS)
def test_run_conditional_calls_the_module_step(method, mixture_setup, monkeypatch):
    # run_conditional must look the step up on the module at run time, so
    # that a patched guidance.step_<method> (as a tracer installs) is called
    _, den, problem = mixture_setup
    original = getattr(guidance, f"step_{method}")
    calls = []

    def counting(*args):
        calls.append((args[2], args[1].t))
        return original(*args)

    monkeypatch.setattr(guidance, f"step_{method}", counting)
    cfg = _cfg(method, grid=make_grid(7))
    run_conditional(problem, den, LIN, cfg)
    knots = cfg.grid.knots
    assert calls == [(knots[k - 1], knots[k]) for k in range(7, 0, -1)]


def test_step_functions_share_one_signature():
    signatures = {inspect.signature(getattr(guidance, f"step_{m}")) for m in METHODS}
    assert len(signatures) == 1


def test_trajectory_records(mixture_setup):
    _, den, problem = mixture_setup
    cfg = _cfg("ddnm", grid=make_grid(12), n_chains=3)
    blocks = []
    samples = run_conditional(problem, den, LIN, cfg,
                              on_step=lambda x, ev: blocks.append(np.hstack((x, ev.xhat0))))
    rows = np.stack(blocks)
    d = problem.mask.dim
    assert rows.shape == (12, 3, 2 * d)
    # call k is handed the start of the k-th step from t = 1: its x, and the
    # evaluation of it; t = 0 is the returned samples, not a call
    for k, t in enumerate(cfg.grid.knots[:0:-1]):
        np.testing.assert_array_equal(rows[k, :, d:], den.evaluate(rows[k, :, :d], t).xhat0)
    np.testing.assert_array_equal(run_conditional(problem, den, LIN, cfg), samples)


@pytest.mark.parametrize("method", METHODS)
def test_on_step_is_handed_each_steps_own_state_and_evaluation(method, mixture_setup,
                                                               monkeypatch):
    # the hook sees the very x and ev the step is then handed, and a
    # NumericError it raises is named like the step's own
    _, den, problem = mixture_setup
    original = getattr(guidance, f"step_{method}")
    stepped, hooked = [], []

    def step(x, ev, *rest):
        stepped.append((x, ev))
        return original(x, ev, *rest)

    monkeypatch.setattr(guidance, f"step_{method}", step)
    cfg = _cfg(method, grid=make_grid(5), n_chains=3)
    run_conditional(problem, den, LIN, cfg, on_step=lambda x, ev: hooked.append((x, ev)))
    assert len(hooked) == len(stepped) == 5
    assert all(a is c and b is d for (a, b), (c, d) in zip(hooked, stepped))

    def failing(x, ev):
        raise NumericError("hook")

    with pytest.raises(NumericError, match=f"^{method} at step k=5 .*: hook$"):
        run_conditional(problem, den, LIN, cfg, on_step=failing)


def test_a_step_that_leaves_a_chain_non_finite_is_named(mixture_setup, monkeypatch):
    # the state a step returns is checked before the next step evaluates it
    _, den, problem = mixture_setup
    original = guidance.step_ddnm

    def spoiling(x, ev, *rest):
        x_s = original(x, ev, *rest)
        if ev.t == cfg.grid.knots[3]:
            x_s[1, 0] = np.nan
        return x_s

    monkeypatch.setattr(guidance, "step_ddnm", spoiling)
    cfg = _cfg("ddnm", grid=make_grid(5), n_chains=3)
    with pytest.raises(NumericError) as info:
        run_conditional(problem, den, LIN, cfg)
    assert str(info.value) == ("ddnm at step k=3 (t=0.6 -> s=0.4): "
                               "new state must be finite: 1 of 3 chains non-finite")


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", [12, 96])
def test_trajectory_record_holds_one_block(method, k, mixture_setup, tmp_path):
    # the run allocates nothing for a hook, and the trajectory writer holds
    # at most one (n, 2d) block (plus its file's write buffer) whatever K is;
    # a (K, n, 2d) trajectory would cost K of them
    _, den, problem = mixture_setup
    cfg = _cfg(method, grid=make_grid(k), n_chains=2000)
    block = cfg.n_chains * 2 * problem.mask.dim * 8
    path = tmp_path / "t.dsmp"
    _write_trajectories(path, problem, den, cfg)  # warm caches before tracing
    plain = _traced_peak(lambda: run_conditional(problem, den, LIN, cfg))
    hooked = _traced_peak(lambda: run_conditional(problem, den, LIN, cfg,
                                                  on_step=lambda x, ev: None))
    assert abs(hooked - plain) < 1024
    written = _traced_peak(lambda: _write_trajectories(path, problem, den, cfg))
    # open() buffers a file by its block size, or 8 KiB where that is unknown
    assert written - plain < block + max(path.stat().st_blksize, io.DEFAULT_BUFFER_SIZE)
    assert path.stat().st_size == 13 + (k + 1) * block


@pytest.mark.parametrize("method", METHODS)
def test_trajectory_record_reuses_the_step_evaluation(method, mixture_setup, monkeypatch):
    # the hook is handed the evaluation of the step that starts there, so a
    # hooked run evaluates the posterior no more often than a plain one
    _, den, problem = mixture_setup
    original = gmm.component_posterior
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(gmm, "component_posterior", counting)
    cfg = _cfg(method, grid=make_grid(9), n_chains=3)
    counts = []
    for on_step in (None, lambda x, ev: None):
        calls[0] = 0
        run_conditional(problem, den, LIN, cfg, on_step=on_step)
        counts.append(calls[0])
    assert counts[1] == counts[0]


@pytest.mark.parametrize("method, ding_nz, evaluations, vjps", [
    ("ding", 1, 2 * 9 - 1, 0),
    ("ding", 3, 2 * 9 - 1, 0),
    ("dps", 1, 9, 9),
    ("blended", 1, 9, 0),
    ("ddnm", 1, 9, 0),
    ("diffpir", 1, 9, 0),
])
def test_run_pins_each_methods_denoiser_cost(method, ding_nz, evaluations, vjps, mixture_setup,
                                              monkeypatch):
    # a run of K = 9 steps evaluates the posterior once per state; ding adds
    # one batched call for its proposals at each step but the last, whatever
    # ding_nz is, and only dps differentiates, with the step's own evaluation
    _, den, problem = mixture_setup
    calls = {"posterior": 0, "vjp": 0}

    def counting(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    monkeypatch.setattr(gmm, "component_posterior",
                        counting("posterior", gmm.component_posterior))
    monkeypatch.setattr(gmm.GMMDenoiser, "vjp", counting("vjp", gmm.GMMDenoiser.vjp))
    cfg = _cfg(method, grid=make_grid(9), n_chains=3, ding_nz=ding_nz)
    for on_step in (None, lambda x, ev: None):
        calls.update(posterior=0, vjp=0)
        run_conditional(problem, den, LIN, cfg, on_step=on_step)
        assert calls == {"posterior": evaluations, "vjp": vjps}


@pytest.mark.parametrize("method", METHODS)
def test_no_method_forms_a_jacobian_matrix(method, mixture_setup, monkeypatch):
    # dps takes J^T g from the closed-form vjp; nothing builds the (n, d, d) Jacobian
    _, den, problem = mixture_setup

    def refuse(self, ev):
        raise AssertionError("a (..., d, d) Jacobian was formed")

    monkeypatch.setattr(gmm.GMMDenoiser, "jacobian", refuse)
    samples = run_conditional(problem, den, LIN, _cfg(method, n_chains=3),
                              on_step=lambda x, ev: None)
    assert np.all(np.isfinite(samples))


def test_mask_off_chains_bit_identical_to_unconditional(mixture_setup):
    prior, den, _ = mixture_setup
    prob = InpaintingProblem(MaskOperator([0, 0]), np.zeros(2), 0.2)
    grid = make_grid(15)
    for method in ("blended", "ddnm", "diffpir"):
        cfg = _cfg(method, grid=grid, n_chains=4, final_replacement=False)
        samples = run_conditional(prob, den, LIN, cfg)
        rngs = chain_rngs(cfg.seed, method, 4)
        plain = run_unconditional(den, grid, cfg.eta, rngs, 4)
        np.testing.assert_array_equal(samples, plain)


class RecordingStreams:
    """A chain stream that records the shape of every ``take``."""

    def __init__(self, streams):
        self.streams, self.shapes = streams, []

    def __len__(self):
        return len(self.streams)

    def take(self, shape):
        self.shapes.append(tuple(shape))
        return self.streams.take(shape)


@pytest.mark.parametrize("s, t", [(0.4, 0.5), (0.0, 0.1)])
@pytest.mark.parametrize("method", METHODS)
def test_each_step_draws_in_the_stated_order(method, s, t, mixture_setup):
    # one (n, d) draw per step, except ding: its (n, nz, d) proposal noise,
    # then its (n, d) conjugate draw, which s = 0 does not take
    _, den, problem = mixture_setup
    n, d, nz = 5, 2, 3
    cfg = _cfg(method, n_chains=n, ding_nz=nz)
    rng = RecordingStreams(chain_rngs(cfg.seed, method, n))
    x_t = np.random.default_rng(1).standard_normal((n, d))
    getattr(guidance, f"step_{method}")(x_t, den.evaluate(x_t, t), s, problem, den, cfg, rng)
    if method == "ding":
        assert rng.shapes == ([(n, nz, d), (n, d)] if s > 0 else [(n, nz, d)])
    else:
        assert rng.shapes == [(n, d)]


def test_method_streams_do_not_collide():
    a = chain_rngs(0, "ding", 2)
    b = chain_rngs(0, "dps", 2)
    assert a.generators[0].standard_normal() != b.generators[0].standard_normal()


def test_chain_rngs_hold_one_generator_per_block():
    # the stream set costs one generator per 64 chains, not one per chain
    assert len(chain_rngs(0, "ding", 4000).generators) == 63
    assert [len(chain_rngs(0, "ding", n).generators) for n in (1, 64, 65)] == [1, 1, 2]


def test_kernel_change_reaches_every_method(mixture_setup, monkeypatch):
    # all five samplers build their transition through bridge.transition_params,
    # so a changed kernel there moves each method's output
    _, den, problem = mixture_setup
    original = bridge.transition_params

    def narrower(sched, eta, x_t, xhat0, s, t):
        mean, std = original(sched, eta, x_t, xhat0, s, t)
        return mean, 0.5 * std

    cfgs = {method: _cfg(method, n_chains=3, final_replacement=False) for method in METHODS}
    before = {m: run_conditional(problem, den, LIN, cfg) for m, cfg in cfgs.items()}
    for name, module in list(sys.modules.items()):
        if name.startswith("inpaintlab") and vars(module).get("transition_params") is original:
            monkeypatch.setattr(module, "transition_params", narrower)
    for method, cfg in cfgs.items():
        after = run_conditional(problem, den, LIN, cfg)
        assert not np.array_equal(after, before[method]), method


@pytest.mark.parametrize("field, value, message", [
    ("n_chains", 0, "n_chains must be a positive integer"),
    ("seed", -1, "seed must be non-negative"),
])
def test_guidance_input_checks(field, value, message):
    with pytest.raises(ConfigError) as info:
        SamplerConfig("ddnm", make_grid(3), **{field: value})
    assert str(info.value) == message
