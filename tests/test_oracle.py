import numpy as np
import pytest

from inpaintlab import (
    GaussianMixture,
    GMMDenoiser,
    InpaintingProblem,
    MaskOperator,
    Schedule,
    ding_gap,
    eval_schedule,
    exact_guidance_grad,
    exact_intermediate_loglik,
    exact_posterior,
    exact_posterior_denoiser,
    log_likelihood,
)
from inpaintlab import gmm, oracle
from inpaintlab.gmm import component_posterior, logsumexp
from inpaintlab.oracle import _observed_evidence

import reference

LIN = Schedule("linear-flow")


@pytest.fixture
def mixed_prior():
    return GaussianMixture(
        [0.3, 0.45, 0.25],
        [[1.0, -1.0, 0.2], [0.5, 2.0, -0.3], [-1.5, 0.0, 1.0]],
        [
            [[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 0.5]],
            [[0.5, 0.0, 0.0], [0.0, 0.8, 0.2], [0.0, 0.2, 1.5]],
            [[2.0, -0.4, 0.0], [-0.4, 1.0, 0.0], [0.0, 0.0, 0.7]],
        ],
    )


@pytest.fixture
def masked_problem():
    return InpaintingProblem(
        MaskOperator([1, 0, 1]), np.array([0.7, 0.0, -0.2]), 0.5
    )


def test_posterior_single_gaussian_conjugacy():
    # N(0,1) prior, y=1, gamma=1: posterior N(0.5, 0.5)
    prior = GaussianMixture([1.0], [[0.0]], [[1.0]])
    prob = InpaintingProblem(MaskOperator([1]), np.array([1.0]), 1.0)
    post = exact_posterior(prob, prior)
    np.testing.assert_allclose(post.means, [[0.5]])
    np.testing.assert_allclose(post.covariances, [[0.5]])


def _precision_form_posterior(problem, prior):
    """Reference: per-component conditioning in precision form,
    (inv(C_k) + diag(m)/gamma^2)^{-1}, with the evidence weights of the oracle."""
    m, gamma2 = problem.mask.m, problem.gamma**2
    post_cov = np.empty((prior.n_components, prior.dim, prior.dim))
    post_means = np.empty_like(prior.means)
    for k, (mu, cov) in enumerate(zip(prior.means, prior.covariance_matrices())):
        post_cov[k] = np.linalg.inv(np.linalg.inv(cov) + np.diag(m) / gamma2)
        post_cov[k] = 0.5 * (post_cov[k] + post_cov[k].T)
        post_means[k] = post_cov[k] @ (np.linalg.solve(cov, mu) + m * problem.y / gamma2)
    log_ev, _, _ = _observed_evidence(problem, prior.means, prior.covariance_matrices())
    logw = np.log(prior.weights) + log_ev
    weights = np.exp(logw - logsumexp(logw))
    return weights / weights.sum(), post_means, post_cov


def _random_full_prior(rng, k=10, d=7):
    a = rng.standard_normal((k, d, d))
    cov = 0.3 * a @ np.swapaxes(a, 1, 2) / d + 0.2 * np.eye(d)
    return GaussianMixture(rng.dirichlet(np.ones(k)), 2.0 * rng.standard_normal((k, d)), cov)


def test_posterior_empty_mask_is_prior(mixed_prior):
    prob = InpaintingProblem(MaskOperator([0, 0, 0]), np.zeros(3), 0.5)
    post = exact_posterior(prob, mixed_prior)
    np.testing.assert_array_equal(post.weights, mixed_prior.weights)
    np.testing.assert_array_equal(post.means, mixed_prior.means)
    np.testing.assert_array_equal(post.covariances, mixed_prior.covariances)


@pytest.mark.parametrize("which", ["mixed", "random"])
def test_posterior_matches_precision_form_reference(mixed_prior, masked_problem, which):
    if which == "mixed":
        prior, problem = mixed_prior, masked_problem
    else:
        rng = np.random.default_rng(23)
        prior = _random_full_prior(rng)
        mask = MaskOperator([1, 0, 1, 1, 0, 0, 1])
        problem = InpaintingProblem(mask, mask.m * rng.standard_normal(prior.dim), 0.1)
    weights, means, covs = _precision_form_posterior(problem, prior)
    post = exact_posterior(problem, prior)
    np.testing.assert_array_equal(post.weights, weights)
    np.testing.assert_allclose(post.means, means, rtol=0, atol=1e-12)
    np.testing.assert_allclose(post.covariances, covs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_conditioning_route_is_pointwise_reference(t):
    # E[X0 | x_t, y] is the mean of the exact posterior of the mixture of
    # X0 given x_t, which the reference conditions one point at a time
    rng = np.random.default_rng(29)
    prior = _random_full_prior(rng)
    mask = MaskOperator([0, 1, 1, 0, 1, 0, 1])
    problem = InpaintingProblem(mask, mask.m * rng.standard_normal(prior.dim), 0.2)
    x = rng.standard_normal((5, prior.dim))
    got = exact_posterior_denoiser(problem, prior, LIN, x, t)
    for x_i, got_i in zip(x, got):
        cond = component_posterior(prior, LIN, x_i, t)
        given_x = GaussianMixture(
            cond.resp / cond.resp.sum(), cond.component_means(), cond.covariance_matrices()
        )
        weights, means, _ = _precision_form_posterior(problem, given_x)
        np.testing.assert_allclose(got_i, weights @ means, rtol=0, atol=1e-12)


def test_posterior_hard_constraint_limit():
    prior = GaussianMixture([1.0], [[0.0, 1.0]], [[1.0, 1.0]])
    prob = InpaintingProblem(MaskOperator([1, 0]), np.array([2.0, 0.0]), 1e-5)
    post = exact_posterior(prob, prior)
    assert abs(post.means[0, 0] - 2.0) < 1e-6
    assert post.means[0, 1] == 1.0  # unobserved coordinate untouched


@pytest.mark.parametrize("gamma", [1e-2, 1e-5, 1e-8])
def test_posterior_matches_two_by_two_closed_form(gamma):
    # C = [[a, b], [b, c]] with the first coordinate observed: every entry of
    # the conditioned component is a scalar formula, and the observed ones
    # are of order gamma^2, far below the entries of C
    a, b, c = 1.0, 0.3, 2.0
    mu, y0 = np.array([0.5, -1.0]), 1.7
    prior = GaussianMixture([1.0], [mu], [[[a, b], [b, c]]])
    post = exact_posterior(InpaintingProblem(MaskOperator([1, 0]), np.array([y0, 0.0]), gamma),
                           prior)
    g2 = gamma**2
    want_cov = [[g2 * a / (a + g2), g2 * b / (a + g2)], [g2 * b / (a + g2), c - b**2 / (a + g2)]]
    want_mean = mu + np.array([a, b]) * (y0 - mu[0]) / (a + g2)
    np.testing.assert_allclose(post.covariances[0], want_cov, rtol=1e-12, atol=0)
    np.testing.assert_allclose(post.means[0], want_mean, rtol=1e-12, atol=0)


@pytest.mark.parametrize("gamma", [0.1, 1e-4, 1e-8])
def test_diagonal_prior_conditions_as_its_full_matrices(gamma):
    rng = np.random.default_rng(31)
    k, d = 4, 6
    diag = rng.random((k, d)) + 0.2
    weights, means = rng.dirichlet(np.ones(k)), 2.0 * rng.standard_normal((k, d))
    mask = MaskOperator([1, 0, 1, 1, 0, 1])
    problem = InpaintingProblem(mask, mask.m * rng.standard_normal(d), gamma)
    as_diag = exact_posterior(problem, GaussianMixture(weights, means, diag))
    as_full = exact_posterior(problem, GaussianMixture(weights, means,
                                                       [np.diag(v) for v in diag]))
    np.testing.assert_array_equal(as_diag.weights, as_full.weights)
    np.testing.assert_array_equal(as_diag.means, as_full.means)
    np.testing.assert_array_equal(as_diag.covariance_matrices(), as_full.covariances)


def test_posterior_weights_and_spd(mixed_prior, masked_problem):
    post = exact_posterior(masked_problem, mixed_prior)
    assert abs(post.weights.sum() - 1.0) < 1e-12
    for cov in post.covariances:
        assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_posterior_drops_components_whose_weight_underflows():
    # component 1's evidence at y = 0 is about exp(-4950), below the smallest double
    prior = GaussianMixture([0.5, 0.5], [[0.0, 0.0], [100.0, 100.0]], [[1.0, 1.0], [1.0, 1.0]])
    problem = InpaintingProblem(MaskOperator([1, 0]), np.zeros(2), 0.1)
    post = exact_posterior(problem, prior)
    assert post.n_components == 1 and post.weights.tolist() == [1.0]
    np.testing.assert_array_equal(post.means, [[0.0, 0.0]])
    np.testing.assert_allclose(post.covariances, [[0.01 / 1.01, 1.0]], rtol=1e-15)


def test_posterior_matches_dense_grid_oracle():
    # brute-force check in 1-d: posterior density on a grid vs conjugate formula
    prior = GaussianMixture([0.4, 0.6], [[1.5], [-1.0]], [[0.5], [1.2]])
    prob = InpaintingProblem(MaskOperator([1]), np.array([0.4]), 0.6)
    post = exact_posterior(prob, prior)
    grid = np.linspace(-6, 6, 4001)[:, None]
    unnorm = np.exp(prior.log_density(grid) + log_likelihood(prob, grid))
    unnorm /= np.trapezoid(unnorm, grid[:, 0])
    closed = np.exp(post.log_density(grid))
    assert np.max(np.abs(unnorm - closed)) < 1e-6


def test_intermediate_loglik_t0_limit(mixed_prior, masked_problem):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(3)
    val = exact_intermediate_loglik(masked_problem, mixed_prior, LIN, x, 1e-8)
    assert abs(val - log_likelihood(masked_problem, x)) < 1e-6


def test_intermediate_loglik_empty_mask(mixed_prior):
    prob = InpaintingProblem(MaskOperator([0, 0, 0]), np.zeros(3), 0.5)
    assert exact_intermediate_loglik(prob, mixed_prior, LIN, np.ones(3), 0.5) == 0.0


def test_intermediate_loglik_monte_carlo(mixed_prior, masked_problem):
    # MC oracle: average exp(log_likelihood) over draws of X0 | X_t = x
    x = np.array([0.3, -0.5, 0.8])
    t = 0.5
    cond = component_posterior(mixed_prior, LIN, x, t)
    rng = np.random.default_rng(2)
    n = 400_000
    comp = rng.choice(3, size=n, p=cond.resp)
    evals, evecs = cond.cov_evals, cond.cov_evecs
    eps = rng.standard_normal((n, 3))
    scaled = np.sqrt(evals[comp]) * eps
    draws = cond.component_means()[comp, :] + np.einsum("nde,ne->nd", evecs[comp], scaled)
    lik = np.exp(log_likelihood(masked_problem, draws))
    mc_mean, mc_se = lik.mean(), lik.std(ddof=1) / np.sqrt(n)
    exact = np.exp(exact_intermediate_loglik(masked_problem, mixed_prior, LIN, x, t))
    assert abs(exact - mc_mean) < 3 * mc_se


@pytest.mark.parametrize("t", [0.2, 0.55, 0.9])
def test_guidance_grad_matches_finite_differences(mixed_prior, masked_problem, t):
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = rng.standard_normal(3)
        analytic = exact_guidance_grad(masked_problem, mixed_prior, LIN, x, t)
        fd = reference.fd_guidance_grad(masked_problem, mixed_prior, LIN, x, t, step=1e-5)
        assert np.max(np.abs(analytic - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))


def test_guidance_grad_flat_and_empty(mixed_prior):
    x = np.array([0.1, 0.2, -0.3])
    flat = InpaintingProblem(MaskOperator([1, 0, 1]), np.array([0.7, 0.0, -0.2]), 1e8)
    np.testing.assert_allclose(exact_guidance_grad(flat, mixed_prior, LIN, x, 0.5), 0.0, atol=1e-10)
    empty = InpaintingProblem(MaskOperator([0, 0, 0]), np.zeros(3), 0.5)
    np.testing.assert_array_equal(exact_guidance_grad(empty, mixed_prior, LIN, x, 0.5), 0.0)


@pytest.mark.parametrize("t", [0.15, 0.5, 0.85])
def test_posterior_denoiser_routes_agree(mixed_prior, masked_problem, t):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 3))
    # the prior denoiser plus the scaled guidance gradient, against conditioning
    alpha, sigma = eval_schedule(LIN, t)
    via_grad = GMMDenoiser(mixed_prior, LIN).denoise(x, t) + (sigma**2 / alpha) * exact_guidance_grad(
        masked_problem, mixed_prior, LIN, x, t)
    via_cond = exact_posterior_denoiser(masked_problem, mixed_prior, LIN, x, t)
    assert np.max(np.abs(via_grad - via_cond)) <= 1e-8


def test_posterior_denoiser_runs_one_component_posterior(mixed_prior, masked_problem, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return component_posterior(*args, **kwargs)

    # both modules, so a call that goes through GMMDenoiser is counted too
    monkeypatch.setattr(gmm, "component_posterior", counting)
    monkeypatch.setattr(oracle, "component_posterior", counting)
    x = np.random.default_rng(6).standard_normal((5, 3))
    exact_posterior_denoiser(masked_problem, mixed_prior, LIN, x, 0.5)
    assert len(calls) == 1


def test_posterior_denoiser_empty_mask_is_denoiser(mixed_prior):
    prob = InpaintingProblem(MaskOperator([0, 0, 0]), np.zeros(3), 0.5)
    x = np.array([0.4, -0.6, 0.0])
    got = exact_posterior_denoiser(prob, mixed_prior, LIN, x, 0.4)
    np.testing.assert_allclose(got, GMMDenoiser(mixed_prior, LIN).denoise(x, 0.4), atol=1e-12)


def test_posterior_denoiser_collapses_to_reference():
    prior = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    x_star = np.array([0.8, -0.3])
    prob = InpaintingProblem(MaskOperator([1, 1]), x_star.copy(), 1e-6, x_star=x_star)
    out = exact_posterior_denoiser(prob, prior, LIN, np.array([0.2, 0.2]), 0.5)
    np.testing.assert_allclose(out, x_star, atol=1e-4)


def test_posterior_denoiser_rejects_t1(mixed_prior, masked_problem):
    with pytest.raises(ValueError):
        exact_posterior_denoiser(masked_problem, mixed_prior, LIN, np.zeros(3), 1.0)


def test_posterior_denoiser_rejects_t1_under_trig_vp(mixed_prior, masked_problem):
    with pytest.raises(ValueError, match="alpha = 0"):
        exact_posterior_denoiser(masked_problem, mixed_prior, Schedule("trig-vp"), np.zeros(3), 1.0)


def test_ding_gap_zero_displacement(mixed_prior):
    z = np.array([0.3, 0.1, -0.2])
    assert ding_gap(mixed_prior, LIN, z, z, 0.4) == 0.0


def test_ding_gap_affine_closed_form():
    # single Gaussian: gap = (sigma/alpha) |c| ||x - z|| with c the constant
    # noise-predictor slope (1 - alpha a)/sigma, a = alpha/(alpha^2 + sigma^2)
    prior = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    s = 0.4
    alpha, sigma = 0.6, 0.4
    a = alpha / (alpha**2 + sigma**2)
    c = (1 - alpha * a) / sigma
    x = np.array([1.0, -0.5])
    z = np.array([0.2, 0.3])
    expected = (sigma / alpha) * abs(c) * np.linalg.norm(x - z)
    assert ding_gap(prior, LIN, x, z, s) == pytest.approx(expected, rel=1e-12)


def test_ding_gap_batches_over_chains(mixed_prior):
    # a batch of chains gives one norm per chain, each the single-point value
    rng = np.random.default_rng(31)
    x, z = rng.standard_normal((9, 3)), rng.standard_normal((9, 3))
    for s in (0.25, 0.6):
        batch = ding_gap(mixed_prior, LIN, x, z, s)
        assert batch.shape == (9,)
        single = [ding_gap(mixed_prior, LIN, x_i, z_i, s) for x_i, z_i in zip(x, z)]
        assert all(type(g) is float for g in single)
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)


def test_ding_gap_needs_interior_time(mixed_prior):
    x, z = np.zeros(3), np.ones(3)
    for s in (0.0, 1.0):
        with pytest.raises(ValueError):
            ding_gap(mixed_prior, LIN, x, z, s)


def test_posterior_weights_match_scipy_cholesky_evidence():
    # numpy's Cholesky solves round differently from scipy's LAPACK route,
    # which moves the posterior weights in the last bits only
    linalg = pytest.importorskip("scipy.linalg")
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(17)
    d, k = 6, 12
    a = rng.standard_normal((k, d, d))
    full = 0.3 * a @ np.swapaxes(a, 1, 2) / d + 0.2 * np.eye(d)
    weights = rng.dirichlet(np.ones(k))
    means = rng.standard_normal((k, d)) * 2.0
    mask = MaskOperator([1, 0, 1, 1, 0, 1])
    problem = InpaintingProblem(mask, mask.m * rng.standard_normal(d), 0.1)
    obs = problem.mask.observed_idx
    for cov in (full, rng.random((k, d)) + 0.2):
        prior = GaussianMixture(weights, means, cov)
        log_ev = []
        for c, mu in zip(prior.covariance_matrices(), means):
            factor = linalg.cho_factor(c[np.ix_(obs, obs)] + 0.01 * np.eye(obs.size), lower=True)
            resid = problem.y[obs] - mu[obs]
            logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
            log_ev.append(-0.5 * (resid @ linalg.cho_solve(factor, resid) + logdet
                                  + obs.size * np.log(2.0 * np.pi)))
        logw = np.log(weights) + np.array(log_ev)
        want = np.exp(logw - special.logsumexp(logw))
        want = want / want.sum()
        np.testing.assert_allclose(exact_posterior(problem, prior).weights, want, rtol=1e-12, atol=0)
