import numpy as np
import pytest

from inpaintlab import (
    METHODS,
    BridgeKernel,
    GaussianMixture,
    GMMDenoiser,
    MaskOperator,
    SamplerConfig,
    Schedule,
    TransitionParams,
    gmm_marginal,
    make_grid,
    make_observation,
    run_conditional,
    run_unconditional,
    sample_transition,
    transition_params,
)
from inpaintlab import guidance
from inpaintlab.bridge import READ_AHEAD, ChainStreams, standard_normal
from inpaintlab.guidance import METHOD_CODES

LIN = Schedule("linear-flow")


def test_kernel_eta_range():
    with pytest.raises(ValueError):
        BridgeKernel(1.5)
    with pytest.raises(ValueError):
        BridgeKernel(-0.1)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
def test_kernel_coefficient_identity(eta):
    # eta_s^2 + beta_s^2 = sigma_s^2 at every s
    kern = BridgeKernel(eta)
    for s in np.linspace(0, 1, 101):
        _, beta_s, eta_s = kern.coefficients(LIN, s)
        _, sigma_s = LIN.alpha_sigma(s)
        assert abs(eta_s**2 + beta_s**2 - sigma_s**2) < 1e-12


def test_transition_example_deterministic():
    # eta=0, single N(0,1), x_t=1 at t=1: x0_hat=0, x1_hat=1, mean=0.5*0+0.5*1
    den = GMMDenoiser(GaussianMixture([1.0], [[0.0]], [[1.0]]), LIN)
    params = transition_params(BridgeKernel(0.0), LIN, den, np.array([1.0]), 0.5, 1.0)
    np.testing.assert_allclose(params.mean, [0.5])
    assert params.std == 0.0


def test_transition_eta_one_discards_noise_estimate():
    den = GMMDenoiser(GaussianMixture([1.0], [[0.0]], [[1.0]]), LIN)
    x_t = np.array([1.0])
    params = transition_params(BridgeKernel(1.0), LIN, den, x_t, 0.5, 1.0)
    alpha_s, sigma_s = LIN.alpha_sigma(0.5)
    np.testing.assert_allclose(params.mean, alpha_s * den.denoise(x_t, 1.0))
    assert params.std == pytest.approx(sigma_s)


def test_transition_at_s_zero_is_denoiser():
    den = GMMDenoiser(GaussianMixture([1.0], [[0.3]], [[1.0]]), LIN)
    x_t = np.array([0.8])
    params = transition_params(BridgeKernel(0.9), LIN, den, x_t, 0.0, 0.6)
    np.testing.assert_allclose(params.mean, den.denoise(x_t, 0.6))
    assert params.std == 0.0


def test_transition_ordering_enforced():
    den = GMMDenoiser(GaussianMixture([1.0], [[0.0]], [[1.0]]), LIN)
    with pytest.raises(ValueError):
        transition_params(BridgeKernel(0.5), LIN, den, np.array([1.0]), 0.6, 0.5)


def test_sample_transition_degenerate():
    params = TransitionParams(np.array([1.0, -2.0]), 0.0)
    out = sample_transition(params, np.random.default_rng(0))
    np.testing.assert_array_equal(out, params.mean)


def test_sample_transition_reproducible():
    params = TransitionParams(np.zeros(3), 1.0)
    a = sample_transition(params, np.random.default_rng(42))
    b = sample_transition(params, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_sample_transition_variance():
    # std=2: sample variance of 1e5 draws within 5% of 4
    params = TransitionParams(np.zeros(100_000), 2.0)
    draws = sample_transition(params, np.random.default_rng(1))
    assert abs(draws.var() - 4.0) < 0.2


def test_marginal_preservation_kernel_form():
    # alpha_s x0 + beta_s x1 + eta_s eps has the law of the marginal at s
    prior = GaussianMixture([0.4, 0.6], [[1.0, -1.0], [-0.5, 2.0]], [[1.0, 0.6], [0.5, 1.2]])
    rng = np.random.default_rng(2)
    n, s = 100_000, 0.35
    marg = gmm_marginal(prior, LIN, s)
    for eta in (0.0, 0.5, 1.0):
        _, beta_s, eta_s = BridgeKernel(eta).coefficients(LIN, s)
        alpha_s, _ = LIN.alpha_sigma(s)
        draw = (
            alpha_s * prior.sample(n, rng)
            + beta_s * rng.standard_normal((n, 2))
            + eta_s * rng.standard_normal((n, 2))
        )
        assert np.linalg.norm(draw.mean(axis=0) - marg.mean()) < 0.02
        assert np.linalg.norm(np.cov(draw.T) - marg.covariance()) < 0.05


def test_unconditional_single_gaussian_mean():
    mu = np.array([0.7, -0.3])
    den = GMMDenoiser(GaussianMixture([1.0], [mu], [[1.0, 1.0]]), LIN)
    term = run_unconditional(den, LIN, make_grid(100), BridgeKernel(1.0), np.random.default_rng(3), 2000)
    assert np.linalg.norm(term.samples.mean(axis=0) - mu) < 4 * np.sqrt(2 / 2000)


def test_unconditional_one_step_is_denoiser_output():
    den = GMMDenoiser(GaussianMixture([1.0], [[0.5]], [[1.0]]), LIN)
    grid = make_grid(1)
    rng1 = np.random.default_rng(7)
    term = run_unconditional(den, LIN, grid, BridgeKernel(0.8), rng1, 5)
    rng2 = np.random.default_rng(7)
    x1 = rng2.standard_normal((5, 1))
    np.testing.assert_allclose(term.samples, den.denoise(x1, 1.0))


def test_unconditional_needs_positive_chains():
    den = GMMDenoiser(GaussianMixture([1.0], [[0.0]], [[1.0]]), LIN)
    with pytest.raises(ValueError):
        run_unconditional(den, LIN, make_grid(10), BridgeKernel(0.5), np.random.default_rng(0), 0)


def test_eta_zero_chain_deterministic_given_start():
    den = GMMDenoiser(GaussianMixture([0.5, 0.5], [[2.0], [-2.0]], [[1.0], [1.0]]), LIN)
    grid = make_grid(50)
    a = run_unconditional(den, LIN, grid, BridgeKernel(0.0), np.random.default_rng(9), 8)
    b = run_unconditional(den, LIN, grid, BridgeKernel(0.0), np.random.default_rng(9), 8)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_per_chain_substreams_match_shared_order():
    # a sequence of per-chain generators gives each row its own stream
    den = GMMDenoiser(GaussianMixture([1.0], [[0.0]], [[1.0]]), LIN)
    grid = make_grid(20)
    seeds = [np.random.SeedSequence((123, k)) for k in range(6)]
    rngs = [np.random.default_rng(s) for s in seeds]
    full = run_unconditional(den, LIN, grid, BridgeKernel(0.7), rngs, 6).samples
    for k in (0, 3, 5):
        solo = run_unconditional(
            den, LIN, grid, BridgeKernel(0.7),
            [np.random.default_rng(np.random.SeedSequence((123, k)))], 1,
        )
        np.testing.assert_array_equal(full[k], solo.samples[0])


def _fresh(n, seed=321):
    return [np.random.default_rng(np.random.SeedSequence((seed, j))) for j in range(n)]


def test_chain_streams_match_per_call_draws():
    # mixed shapes, requests that cross a refill and one wider than the read-ahead
    n = 5
    shapes = [(n, 3), (n, 4, 3), (n,), (n, 30), (n, 3 * READ_AHEAD), (n, 2, 7), (n, 40), (n, 3)]
    streams = ChainStreams(_fresh(n))
    plain = _fresh(n)
    got = [standard_normal(streams, shape) for shape in shapes]
    for shape, draw in zip(shapes, got):
        want = np.stack([g.standard_normal(shape[1:]) for g in plain])
        assert draw.shape == shape
        np.testing.assert_array_equal(draw, want)


def test_chain_streams_draws_do_not_alias_the_block():
    streams = ChainStreams(_fresh(3))
    first = streams.take((3, 2))
    kept = first.copy()
    for _ in range(2 * READ_AHEAD):
        streams.take((3, 1))
    np.testing.assert_array_equal(first, kept)


def test_chain_streams_check_rows_and_index_generators():
    gens = _fresh(4)
    streams = ChainStreams(gens)
    assert len(streams) == 4 and streams[2] is gens[2]
    with pytest.raises(ValueError):
        standard_normal(streams, (3, 2))


@pytest.mark.parametrize("method", METHODS)
def test_run_conditional_equals_per_call_reference(method, monkeypatch):
    # the same run with every draw made chain by chain from plain generator lists
    prior = GaussianMixture([0.5, 0.5], [[2.0, 2.0, 0.0], [-2.0, -2.0, 1.0]], [[1.0, 0.5, 1.0]] * 2)
    den = GMMDenoiser(prior, LIN)
    problem = make_observation(np.array([1.7, -0.4, 0.3]), MaskOperator([1, 0, 1]), 0.2)
    cfg = SamplerConfig(method=method, grid=make_grid(30), eta=0.8, gamma=0.2, ding_nz=3,
                        seed=4, n_chains=7, final_replacement=False)
    got, _ = run_conditional(problem, den, LIN, cfg)

    def plain_rngs(seed, method, chains):
        return [
            np.random.default_rng(np.random.SeedSequence((seed, METHOD_CODES[method], int(j))))
            for j in chains
        ]

    monkeypatch.setattr(guidance, "chain_rngs", plain_rngs)
    want, _ = run_conditional(problem, den, LIN, cfg)
    np.testing.assert_array_equal(got.samples, want.samples)
