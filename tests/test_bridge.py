import math

import numpy as np
import pytest

from inpaintlab import (
    METHODS,
    GaussianMixture,
    GMMDenoiser,
    InpaintingProblem,
    MaskOperator,
    SamplerConfig,
    Schedule,
    eval_schedule,
    exact_posterior,
    gmm_marginal,
    make_grid,
    make_observation,
    moment_diff,
    posterior_given_state,
    run_conditional,
    run_unconditional,
    sample_transition,
    transition_params,
)
from inpaintlab import guidance
from inpaintlab.bridge import BLOCK, ChainStreams, standard_normal
from inpaintlab.guidance import METHOD_CODES

LIN = Schedule("linear-flow")


def test_kernel_eta_range():
    for eta in (1.5, -0.1):
        with pytest.raises(ValueError, match="eta"):
            transition_params(LIN, eta, np.array([1.0]), np.array([0.5]), 0.5, 1.0)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
def test_kernel_coefficient_identity(eta):
    # eta_s^2 + beta_s^2 = sigma_s^2 at every s < 1: from t = 1 (x1_hat = x_t)
    # with x0_hat = 0 and x_t = 1 the mean is beta_s and the std eta_s
    for s in np.linspace(0, 1, 101)[:-1]:
        (beta_s,), eta_s = transition_params(LIN, eta, np.array([1.0]), np.array([0.0]), s, 1.0)
        _, sigma_s = eval_schedule(LIN, s)
        assert abs(eta_s**2 + beta_s**2 - sigma_s**2) < 1e-12


def test_transition_example_deterministic():
    # eta=0, single N(0,1), x_t=1 at t=1: x0_hat=0, x1_hat=1, mean=0.5*0+0.5*1
    den = GMMDenoiser(GaussianMixture([1.0], [[0.0]], [[1.0]]), LIN)
    x_t = np.array([1.0])
    mean, std = transition_params(LIN, 0.0, x_t, den.evaluate(x_t, 1.0).xhat0, 0.5, 1.0)
    np.testing.assert_allclose(mean, [0.5])
    assert std == 0.0


def test_transition_eta_one_discards_noise_estimate():
    den = GMMDenoiser(GaussianMixture([1.0], [[0.0]], [[1.0]]), LIN)
    x_t = np.array([1.0])
    mean, std = transition_params(LIN, 1.0, x_t, den.evaluate(x_t, 1.0).xhat0, 0.5, 1.0)
    alpha_s, sigma_s = eval_schedule(LIN, 0.5)
    np.testing.assert_allclose(mean, alpha_s * den.evaluate(x_t, 1.0).xhat0)
    assert std == pytest.approx(sigma_s)


def test_transition_at_s_zero_is_denoiser():
    den = GMMDenoiser(GaussianMixture([1.0], [[0.3]], [[1.0]]), LIN)
    x_t = np.array([0.8])
    mean, std = transition_params(LIN, 0.9, x_t, den.evaluate(x_t, 0.6).xhat0, 0.0, 0.6)
    np.testing.assert_allclose(mean, den.evaluate(x_t, 0.6).xhat0)
    assert std == 0.0


def test_transition_ordering_enforced():
    with pytest.raises(ValueError):
        transition_params(LIN, 0.5, np.array([1.0]), np.array([0.5]), 0.6, 0.5)


def test_sample_transition_degenerate():
    mean, std = np.array([1.0, -2.0]), 0.0
    out = sample_transition(mean, std, np.random.default_rng(0))
    np.testing.assert_array_equal(out, mean)


def test_sample_transition_reproducible():
    mean, std = np.zeros(3), 1.0
    a = sample_transition(mean, std, np.random.default_rng(42))
    b = sample_transition(mean, std, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_sample_transition_variance():
    # std=2: sample variance of 1e5 draws within 5% of 4
    mean, std = np.zeros(100_000), 2.0
    draws = sample_transition(mean, std, np.random.default_rng(1))
    assert abs(draws.var() - 4.0) < 0.2


def test_marginal_preservation_kernel_form():
    # alpha_s x0 + beta_s x1 + eta_s eps has the law of the marginal at s
    prior = GaussianMixture([0.4, 0.6], [[1.0, -1.0], [-0.5, 2.0]], [[1.0, 0.6], [0.5, 1.2]])
    rng = np.random.default_rng(2)
    n, s = 100_000, 0.35
    marg = gmm_marginal(prior, LIN, s)
    for eta in (0.0, 0.5, 1.0):
        alpha_s, sigma_s = eval_schedule(LIN, s)
        beta_s, eta_s = sigma_s * np.sqrt(1.0 - eta**2), eta * sigma_s
        draw = (
            alpha_s * prior.sample(n, rng)
            + beta_s * rng.standard_normal((n, 2))
            + eta_s * rng.standard_normal((n, 2))
        )
        assert np.linalg.norm(draw.mean(axis=0) - marg.mean()) < 0.02
        assert np.linalg.norm(np.cov(draw.T) - marg.covariance()) < 0.05



def _centred_products(x, mean):
    """(x_i - mean_i)(x_j - mean_j) for each draw, (n, d, d)."""
    c = x - mean
    return c[:, :, None] * c[:, None, :]


def _worst_moment_z(x, law):
    """Largest error, in standard errors of n draws, of the sample mean's
    coordinates and the sample covariance's entries against a mixture's
    moments.  The mean's come from the law's variances, the covariance's
    from the spread of the centred products over the draws."""
    n = x.shape[0]
    mean, cov = law.mean(), law.covariance()
    z_mean = np.abs(x.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / n)
    z_cov = np.abs(np.cov(x.T) - cov) / (_centred_products(x, mean).std(axis=0) / np.sqrt(n))
    return max(z_mean.max(), z_cov.max())


@pytest.mark.parametrize("eta", [0.0, 0.8, 1.0])
def test_exact_posterior_draws_reproduce_path_marginals(eta):
    # The kernel's claim for exact pairs: draw x0 from p(x0 | x_t, y) and
    # step with the shipped transition, and the chain's law at every knot s
    # is p(x_s | y), the exact posterior pushed through the interpolation.
    # X1 is independent of X0 and y, and alpha_1 = 0, so the chain starts
    # from N(0, I) = p(x_1 | y).  A wrong kernel coefficient, a missing
    # covariance draw or a missing reweighting each moves an interior
    # moment by 8 or more standard errors.
    n, num_steps, d = 4000, 20, 4
    prior = GaussianMixture(
        [0.5, 0.3, 0.2],
        [[1.0, -0.5, 0.3, 0.8], [-1.2, 0.7, -0.4, -0.6], [0.2, 1.5, 1.0, -1.0]],
        [
            [[0.30, 0.08, 0.05, 0.02], [0.08, 0.25, 0.04, 0.06],
             [0.05, 0.04, 0.20, 0.03], [0.02, 0.06, 0.03, 0.35]],
            [[0.20, -0.05, 0.04, 0.00], [-0.05, 0.30, 0.02, -0.07],
             [0.04, 0.02, 0.25, 0.05], [0.00, -0.07, 0.05, 0.15]],
            [[0.40, 0.10, -0.06, 0.05], [0.10, 0.20, 0.00, 0.04],
             [-0.06, 0.00, 0.30, -0.08], [0.05, 0.04, -0.08, 0.25]],
        ],
    )
    problem = InpaintingProblem(MaskOperator([1, 0, 1, 0]), np.array([0.6, 0.0, 0.1, 0.0]), 0.2)
    target = exact_posterior(problem, prior)
    rng = np.random.default_rng(43)
    knots = make_grid(num_steps).knots
    x = rng.standard_normal((n, d))
    worst = 0.0
    for k in range(num_steps, 0, -1):
        s, t = knots[k - 1], knots[k]
        post = posterior_given_state(problem, prior, LIN, x, t)
        # each chain's component by inverse CDF, then its Gaussian draw; the
        # covariances do not depend on x_t, so one factor per component
        cdf = np.cumsum(np.exp(post.log_weights), axis=0)
        comp = np.minimum(np.sum(cdf < rng.random(n), axis=0), prior.n_components - 1)
        z = rng.standard_normal((n, d))
        x0 = np.empty_like(x)
        for c, factor in enumerate(np.linalg.cholesky(post.covariances)):
            rows = comp == c
            x0[rows] = post.means[c, rows] + z[rows] @ factor.T
        x = sample_transition(*transition_params(LIN, eta, x, x0, s, t), rng)
        if k > 1:
            worst = max(worst, _worst_moment_z(x, gmm_marginal(target, LIN, s)))
    assert worst <= 5.0, f"interior moment off by {worst:.2f} standard errors"
    mean_err, cov_err = moment_diff(x, target)
    mean_tol = 4 * math.sqrt(np.trace(target.covariance()) / n)
    cov_tol = 4 * math.sqrt(np.sum(_centred_products(x, target.mean()).var(axis=0)) / n)
    assert mean_err <= mean_tol, f"terminal mean err {mean_err:.4f} (tol {mean_tol:.4f})"
    assert cov_err <= cov_tol, f"terminal cov err {cov_err:.4f} (tol {cov_tol:.4f})"

def test_unconditional_single_gaussian_mean():
    mu = np.array([0.7, -0.3])
    den = GMMDenoiser(GaussianMixture([1.0], [mu], [[1.0, 1.0]]), LIN)
    term = run_unconditional(den, make_grid(100), 1.0, np.random.default_rng(3), 2000)
    assert np.linalg.norm(term.mean(axis=0) - mu) < 4 * np.sqrt(2 / 2000)


def test_unconditional_one_step_is_denoiser_output():
    den = GMMDenoiser(GaussianMixture([1.0], [[0.5]], [[1.0]]), LIN)
    grid = make_grid(1)
    rng1 = np.random.default_rng(7)
    term = run_unconditional(den, grid, 0.8, rng1, 5)
    rng2 = np.random.default_rng(7)
    x1 = rng2.standard_normal((5, 1))
    np.testing.assert_allclose(term, den.evaluate(x1, 1.0).xhat0)


def test_unconditional_needs_positive_chains():
    den = GMMDenoiser(GaussianMixture([1.0], [[0.0]], [[1.0]]), LIN)
    with pytest.raises(ValueError):
        run_unconditional(den, make_grid(10), 0.5, np.random.default_rng(0), 0)


def test_eta_zero_chain_deterministic_given_start():
    den = GMMDenoiser(GaussianMixture([0.5, 0.5], [[2.0], [-2.0]], [[1.0], [1.0]]), LIN)
    grid = make_grid(50)
    a = run_unconditional(den, grid, 0.0, np.random.default_rng(9), 8)
    b = run_unconditional(den, grid, 0.0, np.random.default_rng(9), 8)
    np.testing.assert_array_equal(a, b)


class BlockReference:
    """The block contract written out: every request is drawn afresh from
    each block's generator, whole blocks of 64 rows, and cut to n rows."""

    def __init__(self, seed, code, n):
        self.n = n
        self.gens = [
            np.random.default_rng(np.random.SeedSequence((seed, code, b)))
            for b in range((n + 63) // 64)
        ]

    def __len__(self):
        return self.n

    def take(self, shape):
        return np.concatenate([g.standard_normal((64, *shape[1:])) for g in self.gens])[: shape[0]]


def _streams(n, seed=321):
    return ChainStreams((seed, 0), n)


def test_per_chain_substreams_match_shared_order():
    # block substreams give the per-block reference's rows, and the first
    # rows of a two-block run equal a one-block run
    den = GMMDenoiser(GaussianMixture([1.0], [[0.0]], [[1.0]]), LIN)
    grid = make_grid(20)
    full = run_unconditional(den, grid, 0.7, _streams(70, 123), 70)
    want = run_unconditional(den, grid, 0.7, BlockReference(123, 0, 70), 70)
    np.testing.assert_array_equal(full, want)
    for n in (1, 6, 64):
        solo = run_unconditional(den, grid, 0.7, _streams(n, 123), n)
        np.testing.assert_array_equal(full[:n], solo)


def test_chain_streams_match_per_call_draws():
    # mixed shapes, on one partly used block and on three blocks
    for n in (5, 130):
        shapes = [(n, 3), (n, 4, 3), (n,), (n, 30), (n, 200), (n, 2, 7), (n, 40), (n, 3)]
        streams = _streams(n)
        ref = BlockReference(321, 0, n)
        for shape in shapes:
            draw = standard_normal(streams, shape)
            assert draw.shape == shape
            np.testing.assert_array_equal(draw, ref.take(shape))


def test_chain_streams_draws_do_not_alias_the_block():
    streams = _streams(70)
    first = streams.take((70, 2))
    kept = first.copy()
    for _ in range(8):
        streams.take((70, 2))
    np.testing.assert_array_equal(first, kept)


def test_chain_streams_check_rows_and_index_generators():
    streams = _streams(70)
    assert len(streams) == 70
    assert len(streams.generators) == 2 == -(-70 // BLOCK)
    with pytest.raises(ValueError):
        standard_normal(streams, (69, 2))


@pytest.mark.parametrize("method", METHODS)
def test_run_conditional_equals_per_call_reference(method, monkeypatch):
    # the same run with every request drawn afresh per block, across a block boundary
    prior = GaussianMixture([0.5, 0.5], [[2.0, 2.0, 0.0], [-2.0, -2.0, 1.0]], [[1.0, 0.5, 1.0]] * 2)
    den = GMMDenoiser(prior, LIN)
    problem = make_observation(np.array([1.7, -0.4, 0.3]), MaskOperator([1, 0, 1]), 0.2)
    cfg = SamplerConfig(method=method, grid=make_grid(30), eta=0.8, gamma=0.2, ding_nz=3,
                        seed=4, n_chains=70, final_replacement=False)
    got = run_conditional(problem, den, LIN, cfg)

    def reference(seed, method, n):
        return BlockReference(seed, METHOD_CODES[method], n)

    monkeypatch.setattr(guidance, "chain_rngs", reference)
    want = run_conditional(problem, den, LIN, cfg)
    np.testing.assert_array_equal(got, want)
