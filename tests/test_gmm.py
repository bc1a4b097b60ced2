import numpy as np
import pytest

from inpaintlab import (
    Denoiser,
    GaussianMixture,
    GMMDenoiser,
    NumericError,
    Schedule,
    eval_schedule,
    gmm_marginal,
    transition_params,
)
from inpaintlab.gmm import ConditionalMixture, Evaluation, component_posterior, noise_from_x0

import reference

LIN = Schedule("linear-flow")


def _noise(prior, sched, x, t):
    """E[X1 | X_t = x]: the noise tied to the denoiser's x0 estimate."""
    xhat0 = GMMDenoiser(prior, sched).evaluate(x, t).xhat0
    return noise_from_x0(x, xhat0, *eval_schedule(sched, t))


@pytest.fixture
def two_comp_full():
    return GaussianMixture(
        [0.3, 0.7],
        [[1.0, -1.0], [0.5, 2.0]],
        [[[1.0, 0.3], [0.3, 2.0]], [[0.5, 0.0], [0.0, 0.8]]],
    )


@pytest.fixture
def three_comp_diag():
    return GaussianMixture(
        [0.2, 0.5, 0.3],
        [[1.0, -1.0, 0.0, 2.0], [0.0, 0.5, -0.5, 0.0], [-2.0, 1.0, 1.0, -1.0]],
        [[1.0, 0.5, 2.0, 1.0], [0.3, 1.0, 0.7, 2.0], [1.5, 1.5, 0.4, 0.9]],
    )


def test_weight_validation():
    with pytest.raises(ValueError):
        GaussianMixture([0.5, 0.6], [[0.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        GaussianMixture([1.5, -0.5], [[0.0], [1.0]], [[1.0], [1.0]])


def test_covariance_validation():
    with pytest.raises(ValueError):
        GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.2, 1.0]]])  # asymmetric
    with pytest.raises(ValueError):
        GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 2.0], [2.0, 1.0]]])  # indefinite
    with pytest.raises(ValueError):
        GaussianMixture([1.0], [[0.0]], [[0.0]])  # degenerate diagonal
    # symmetry is judged against each component's scale: off-diagonals 200%
    # apart are rejected at scale 1e-14, and 1e-13 of the scale is accepted at 1e8
    with pytest.raises(ValueError, match="symmetric"):
        GaussianMixture([1.0], [[0.0, 0.0]], [[[1e-14, 1e-15], [3e-15, 1e-14]]])
    with pytest.raises(ValueError, match="symmetric"):
        GaussianMixture([0.5, 0.5], [[0.0, 0.0]] * 2,
                        [[[1e8, 0.0], [0.0, 1e8]], [[1e-14, 1e-15], [3e-15, 1e-14]]])
    wide = GaussianMixture([1.0], [[0.0, 0.0]], [[[1e8, 3e7 + 1e-5], [3e7, 1e8]]])
    assert wide.covariances[0, 0, 1] == 3e7 + 1e-5
    # non-finite inputs are rejected before any arithmetic on them
    nan, inf = np.nan, np.inf
    for weights, means, covs, name in [
        ([1.0], [[0.0]], [[nan]], "covariances"),
        ([1.0], [[0.0]], [[[nan]]], "covariances"),
        ([1.0], [[0.0]], [[[inf]]], "covariances"),
        ([1.0], [[nan]], [[1.0]], "means"),
        ([1.0], [[inf]], [[1.0]], "means"),
        ([nan, 1.0], [[0.0], [1.0]], [[1.0], [1.0]], "weights"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GaussianMixture(weights, means, covs)


def test_marginal_endpoints():
    g = GaussianMixture([1.0], [[0.3, -0.7]], [[1.2, 0.5]])
    m0 = gmm_marginal(g, LIN, 0.0)
    np.testing.assert_allclose(m0.means, g.means)
    np.testing.assert_allclose(m0.covariances, g.covariances)
    m1 = gmm_marginal(g, LIN, 1.0)
    np.testing.assert_allclose(m1.means, 0.0)
    np.testing.assert_allclose(m1.covariances, 1.0)


def test_marginal_halfway_variance():
    # 0.25 * 1 + 0.25 = 0.5
    g = GaussianMixture([1.0], [[0.0]], [[1.0]])
    m = gmm_marginal(g, LIN, 0.5)
    np.testing.assert_allclose(m.covariances, [[0.5]])


def test_denoise_single_gaussian_closed_form():
    # alpha * x / (alpha^2 + sigma^2) = 0.5 / 0.5 = 1.0
    g = GaussianMixture([1.0], [[0.0]], [[1.0]])
    cond = component_posterior(g, LIN, np.array([1.0]), 0.5)
    np.testing.assert_allclose(cond.xhat0, [1.0], atol=1e-14)
    np.testing.assert_allclose(np.exp(cond.log_resp), [1.0])


def test_denoise_symmetry():
    g = GaussianMixture([0.5, 0.5], [[1.5], [-1.5]], [[0.7], [0.7]])
    xhat0 = GMMDenoiser(g, LIN).evaluate(np.array([0.0]), 0.4).xhat0
    np.testing.assert_allclose(xhat0, [0.0], atol=1e-14)


def test_denoise_identity_at_t0(three_comp_diag):
    x = np.array([0.3, -0.2, 1.1, 0.0])
    xhat0 = GMMDenoiser(three_comp_diag, LIN).evaluate(x, 0.0).xhat0
    np.testing.assert_allclose(xhat0, x, atol=1e-12)


def test_denoise_rejects_nonfinite(three_comp_diag):
    with pytest.raises(NumericError):
        GMMDenoiser(three_comp_diag, LIN).evaluate(np.array([np.nan, 0, 0, 0]), 0.5).xhat0


def test_noise_predict_examples():
    g = GaussianMixture([1.0], [[0.0]], [[1.0]])
    # (1 - 0.5 * 1.0) / 0.5 = 1.0
    np.testing.assert_allclose(_noise(g, LIN, np.array([1.0]), 0.5), [1.0])
    # independence at t = 0
    np.testing.assert_allclose(_noise(g, LIN, np.array([3.0]), 0.0), [0.0])


def test_noise_predict_reconstructs_at_t1(three_comp_diag):
    x = np.array([0.4, -1.0, 0.8, 0.1])
    xhat0 = GMMDenoiser(three_comp_diag, LIN).evaluate(x, 1.0).xhat0
    xhat1 = _noise(three_comp_diag, LIN, x, 1.0)
    np.testing.assert_allclose(1.0 * xhat1 + 0.0 * xhat0, x)


@pytest.mark.parametrize("sched", [LIN, Schedule("trig-vp")])
def test_tweedie_duality(three_comp_diag, sched):
    rng = np.random.default_rng(0)
    for t in rng.uniform(0.01, 1.0, size=25):
        x = rng.standard_normal((7, 4)) * 2.0
        xhat1 = _noise(three_comp_diag, sched, x, t)
        want = [reference.noise_mean(three_comp_diag, sched, x_i, t) for x_i in x]
        np.testing.assert_allclose(xhat1, want, atol=1e-10)


def test_score_consistency(two_comp_full):
    # x1_hat must equal -sigma_t * score of the marginal, computed independently
    rng = np.random.default_rng(1)
    for t in (0.05, 0.3, 0.6, 0.95):
        x = rng.standard_normal((10, 2)) * 2.0
        marg = gmm_marginal(two_comp_full, LIN, t)
        _, sigma = eval_schedule(LIN, t)
        xhat1 = _noise(two_comp_full, LIN, x, t)
        np.testing.assert_allclose(xhat1, -sigma * marg.score(x), atol=1e-8)


def test_responsibilities_sum_to_one(three_comp_diag):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 4)) * 3.0
    resp = np.exp(component_posterior(three_comp_diag, LIN, x, 0.37).log_resp)
    np.testing.assert_allclose(resp.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(resp >= 0)


def _jacobian(prior, x, t):
    """The dense Jacobian that ``GMMDenoiser.jacobian`` stacks from ``vjp`` rows."""
    den = GMMDenoiser(prior, LIN)
    return den.jacobian(den.evaluate(x, t))


def test_jacobian_affine_case():
    # single component: alpha / (alpha^2 + sigma^2) = 1.0, independent of x
    g = GaussianMixture([1.0], [[0.0]], [[1.0]])
    for x in (np.array([0.0]), np.array([2.0]), np.array([-5.0])):
        np.testing.assert_allclose(_jacobian(g, x, 0.5), [[1.0]])


def test_jacobian_single_component_constant(two_comp_full):
    g = GaussianMixture([1.0], [[0.5, -1.0]], [[[1.0, 0.4], [0.4, 2.0]]])
    j1 = _jacobian(g, np.array([0.0, 0.0]), 0.3)
    j2 = _jacobian(g, np.array([4.0, -2.0]), 0.3)
    np.testing.assert_allclose(j1, j2, atol=1e-12)


def _fd_jacobian(prior, sched, x, t, h=1e-4):
    d = x.size
    den = GMMDenoiser(prior, sched)
    jac = np.zeros((d, d))
    for j in range(d):
        dx = np.zeros(d)
        dx[j] = h
        hi = den.evaluate(x + dx, t).xhat0
        lo = den.evaluate(x - dx, t).xhat0
        jac[:, j] = (hi - lo) / (2 * h)
    return jac


@pytest.mark.parametrize("t", [0.15, 0.5, 0.85])
def test_jacobian_matches_finite_differences(two_comp_full, t):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(2) * 2.0
        jac = _jacobian(two_comp_full, x, t)
        np.testing.assert_allclose(jac, _fd_jacobian(two_comp_full, LIN, x, t), atol=1e-6)


def test_jacobian_second_order_identity(three_comp_diag):
    # J0 = (I + sigma^2 Hessian of log p_t) / alpha, the Hessian taken
    # independently from the marginal components (tests/reference.py)
    rng = np.random.default_rng(4)
    for t in (0.2, 0.5, 0.8):
        x = rng.standard_normal(4)
        j0 = _jacobian(three_comp_diag, x, t)
        resid = j0 - reference.denoiser_jacobian(three_comp_diag, LIN, x, t)
        assert np.max(np.abs(resid)) <= 1e-8


def test_jacobian_t0_needs_flag(three_comp_diag):
    with pytest.raises(ValueError):
        _jacobian(three_comp_diag, np.zeros(4), 0.0)


def test_mixture_moments_match_sampling(two_comp_full):
    rng = np.random.default_rng(5)
    xs = two_comp_full.sample(200_000, rng)
    np.testing.assert_allclose(xs.mean(axis=0), two_comp_full.mean(), atol=0.02)
    np.testing.assert_allclose(np.cov(xs.T), two_comp_full.covariance(), atol=0.05)


def test_denoiser_contract_is_evaluate_and_vjp(three_comp_diag):
    # evaluate is the one abstract call; the mixture denoiser's evaluation is
    # its ConditionalMixture itself, the object its vjp differentiates
    from dataclasses import fields

    assert Denoiser.__abstractmethods__ == frozenset({"evaluate"})
    assert not hasattr(Denoiser, "denoise")
    den = GMMDenoiser(three_comp_diag, LIN)
    x = np.random.default_rng(4).standard_normal((5, 4))
    ev = den.evaluate(x, 0.5)
    assert type(ev) is ConditionalMixture and isinstance(ev, Evaluation)
    names = [f.name for f in fields(ev)]
    assert names[:2] == [f.name for f in fields(Evaluation)] == ["t", "xhat0"]
    assert ev.t == 0.5 and ev.x is x
    want = component_posterior(three_comp_diag, LIN, x, 0.5)
    assert ev.xhat0.tobytes() == want.xhat0.tobytes()
    v = np.ones_like(x)
    assert den.vjp(ev, v).tobytes() == ev.vjp(v).tobytes()


def test_denoiser_interface_counts_jacobian_calls(three_comp_diag):
    den = GMMDenoiser(three_comp_diag, LIN)
    x = np.zeros(4)
    den.evaluate(x, 0.5)
    assert den.jacobian_calls == 0
    den.jacobian(den.evaluate(x, 0.5))
    den.jacobian(den.evaluate(x, 0.3))
    assert den.jacobian_calls == 2


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
def test_denoiser_jacobian_is_symmetric(fixture, request):
    # by Tweedie J = (I + sigma^2 Hessian of log p_t) / alpha, so J^T v = J v
    prior = request.getfixturevalue(fixture)
    x = np.random.default_rng(9).standard_normal((25, prior.dim)) * 2.0
    for t in (0.02, 0.1, 0.5, 0.9):
        jac = _jacobian(prior, x, t)
        np.testing.assert_allclose(jac, np.swapaxes(jac, -1, -2), rtol=0, atol=1e-12)


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
@pytest.mark.parametrize("batch", [(), (17,)])
def test_vjp_equals_jacobian_transpose_product(fixture, batch, request):
    prior = request.getfixturevalue(fixture)
    den = GMMDenoiser(prior, LIN)
    rng = np.random.default_rng(10)
    x = rng.standard_normal(batch + (prior.dim,)) * 2.0
    v = rng.standard_normal(batch + (prior.dim,))
    for t in (0.02, 0.1, 0.5, 0.9):
        ev = den.evaluate(x, t)
        # J^T v with J the independent (I + sigma^2 H) / alpha, one point at a time
        want = np.reshape([reference.denoiser_jacobian(prior, LIN, x_i, t).T @ v_i
                           for x_i, v_i in zip(x.reshape(-1, prior.dim), v.reshape(-1, prior.dim))],
                          x.shape)
        scale = np.linalg.norm(want, axis=-1, keepdims=True)
        calls = den.jacobian_calls
        for got in (ev.vjp(v), den.vjp(ev, v)):
            assert got.shape == x.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert den.jacobian_calls == calls + 1  # den.vjp


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
def test_denoiser_scratch_is_never_returned(fixture, request):
    # one denoiser evaluates an (n, d) batch, an (n, 2, d) batch and a single
    # point, with two vjps after each, so its scratch is reused and regrown;
    # the first evaluation and its vjp, right after it and after the others
    # and another (n, d) evaluation, keep the bytes of a fresh denoiser's,
    # and no array of an evaluation is a view of the scratch
    from dataclasses import fields

    prior = request.getfixturevalue(fixture)
    d = prior.dim
    rng = np.random.default_rng(23)
    den = GMMDenoiser(prior, LIN)
    evs, vjps, scratch = [], [], []
    for shape, t in (((9, d), 0.4), ((9, 2, d), 0.6), ((d,), 0.3)):
        evs.append(den.evaluate(rng.standard_normal(shape) * 2.0, t))
        v = rng.standard_normal(shape)
        vjps.append((v, den.vjp(evs[-1], v)))
        assert den.vjp(evs[-1], v).tobytes() == vjps[-1][1].tobytes()
        scratch += [den._prods, den._rows]

    fresh = GMMDenoiser(prior, LIN)
    first, (v, jtv) = evs[0], vjps[0]
    want = fresh.evaluate(first.x, first.t)
    want_jtv = fresh.vjp(want, v).tobytes()
    assert first.xhat0.tobytes() == want.xhat0.tobytes()
    assert first.log_resp.tobytes() == want.log_resp.tobytes()
    assert jtv.tobytes() == want_jtv
    assert den.vjp(first, v).tobytes() == want_jtv
    evs.append(den.evaluate(rng.standard_normal((9, d)), 0.7))
    assert den.vjp(first, v).tobytes() == want_jtv
    assert first.vjp(v).tobytes() == want_jtv
    held = [jtv for _, jtv in vjps]
    for ev in evs:
        held += [ev.xhat0] + [getattr(ev, f.name) for f in fields(ev)]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert not any(np.shares_memory(a, s) for a in arrays for s in scratch)


def test_vjp_at_t0_raises(three_comp_diag):
    den = GMMDenoiser(three_comp_diag, LIN)
    x = np.zeros(4)
    with pytest.raises(ValueError):
        den.vjp(den.evaluate(x, 0.0), np.ones(4))


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_transition_mean_equals_denoise_and_noise_predict(two_comp_full, three_comp_diag, t):
    # the transition mean is bit-identical to the same arithmetic on the
    # denoiser's estimate and its tied noise
    rng = np.random.default_rng(8)
    eta, s = 0.8, 0.5 * t
    alpha_s, sigma_s = eval_schedule(LIN, s)
    beta_s = sigma_s * np.sqrt(1.0 - eta**2)
    for prior in (two_comp_full, three_comp_diag):
        den = GMMDenoiser(prior, LIN)
        for x in (rng.standard_normal(prior.dim), rng.standard_normal((5, prior.dim))):
            mean, _ = transition_params(LIN, eta, x, den.evaluate(x, t).xhat0, s, t)
            want = alpha_s * den.evaluate(x, t).xhat0 + beta_s * _noise(prior, LIN, x, t)
            np.testing.assert_array_equal(mean, want)


def _logsumexp_inputs():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((12, 7)) * 30.0
    a[1] = a[1, 0]  # every entry tied
    a[2, [1, 4]] = a[2].max() + 1.0  # two tied maxima
    a[3, [0, 5]] = -np.inf
    a[4] = -np.inf  # all -inf: the direct fallback gives -inf
    a[5] = [700.0, 710.0, -710.0, 1e300, -1e300, 1e300, 0.0]
    a[6] = [-1e308, -1e308, -745.0, -746.0, -800.0, -1e5, -1e300]
    a[7, 3] = np.inf
    a[8] = [-0.0, 0.0, -0.0, 1e-300, -1e-300, 5e-324, 0.0]
    return a


def test_logsumexp_equals_scipy_bit_for_bit(recwarn):
    special = pytest.importorskip("scipy.special")
    from inpaintlab.gmm import logsumexp

    a = _logsumexp_inputs()
    # each row is reduced alone and as a column of the transpose, so its
    # ties, infinities and NaN stay under reduction
    cases = [a, a.T, *a]
    # the (K, n) log-responsibilities of the benchmark workloads, reduced
    # over K, first with one maximum per column and then with ties in some
    # columns; and no points at all
    rng = np.random.default_rng(22)
    for shape in [(32, 500), (2, 4000), (2, 1000)]:
        lr = rng.standard_normal(shape) * 20.0
        cases.append(lr)
        tied = lr.copy()
        cols = rng.choice(shape[1], size=shape[1] // 10, replace=False)
        tied[1, cols] = tied[0, cols] = tied[:, cols].max(axis=0)
        tied[-1, cols[:3]] = -np.inf
        cases.append(tied)
    cases.append(np.zeros((3, 0)))
    # as many maxima in all as there are columns, from a NaN column with
    # none and a tied column with two: only the finite-max test tells it
    # from one maximum per column
    cases.append(np.array([[np.nan, 3.0], [0.0, 3.0]]))
    # tie-free columns beside a +inf-max column and an all -inf column
    mixed = rng.standard_normal((32, 50)) * 20.0
    mixed[5, 7] = np.inf
    mixed[:, 11] = -np.inf
    cases.append(mixed)
    for x in cases:
        got = logsumexp(x)
        want = special.logsumexp(x, axis=0, keepdims=True)
        assert type(got) is type(want)
        assert got.shape == want.shape == (1, *x.shape[1:])
        assert got.tobytes() == want.tobytes(), x
    assert len(recwarn) == 0


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
def test_zero_points_give_empty_results(fixture, request):
    prior = request.getfixturevalue(fixture)
    x = np.zeros((0, prior.dim))
    assert prior.log_density(x).shape == (0,)
    assert prior.score(x).shape == x.shape
    cond = component_posterior(prior, LIN, x, 0.5)
    assert cond.xhat0.shape == cond.vjp(x).shape == x.shape


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
def test_component_posterior_log_resp_equals_component_logpdf(fixture, request):
    # the responsibilities come from the rotation shared with the means, and
    # equal the ones built from the reference's own rotation bit for bit
    from inpaintlab.gmm import logsumexp

    prior = request.getfixturevalue(fixture)
    x = np.random.default_rng(5).standard_normal((33, prior.dim)) * 2.0
    for t in (0.05, 0.4, 0.95):
        alpha, sigma = eval_schedule(LIN, t)
        c = alpha**2 * prior._evals + sigma**2
        lr = reference.component_logpdf(x, alpha * prior.means, c, prior._evecs)
        lr += np.log(prior.weights)[:, None]
        want = lr - logsumexp(lr)
        got = component_posterior(prior, LIN, x, t).log_resp
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
def test_component_posterior_keeps_its_rounding_order(fixture, request):
    # component_posterior rounds exactly like the out-of-place expressions
    # below, in the points-last layout: one GEMM per component on the
    # columns [x, 1]^T for the whitened offsets, the means and the scores,
    # the Mahalanobis term summed over coordinates and the denoiser output
    # over components in index order, so the samples of every method stay
    # put; a diagonal prior carries the identity basis
    from inpaintlab.gmm import logsumexp

    prior = request.getfixturevalue(fixture)
    d = prior.dim
    basis = prior._evecs

    def matrices(evals):  # V_k diag(evals_k) V_k^T, one batched GEMM
        return (basis * evals[:, None, :]) @ np.swapaxes(basis, -1, -2)

    def maps(mats, centers):  # (K, d, d+1): mats_k^T beside the bias column
        bias = -(centers @ mats)
        return np.concatenate([np.swapaxes(mats, 1, 2), np.swapaxes(bias, 1, 2)], axis=2)

    x = np.random.default_rng(7).standard_normal((33, d)) * 2.0
    xa = np.concatenate([x, np.ones((33, 1))], axis=1).T
    for t in (0.05, 0.4, 0.95):
        alpha, sigma = eval_schedule(LIN, t)
        c = alpha**2 * prior._evals + sigma**2
        slope = alpha * prior._evals / c
        centers = (alpha * prior.means)[:, None, :]
        u = maps(basis / np.sqrt(c)[:, None, :], centers) @ xa
        quad = _index_order([u[:, i] * u[:, i] for i in range(d)])
        lr = -0.5 * (quad + np.sum(np.log(c), axis=-1)[:, None] + d * np.log(2.0 * np.pi))
        lr = lr + np.log(prior.weights)[:, None]
        log_resp = lr - logsumexp(lr)
        mean_maps = maps(matrices(slope), centers)
        mean_maps[:, :, -1] += prior.means
        means = mean_maps @ xa
        scores = maps(matrices(-1.0 / c), centers) @ xa
        resp = np.exp(log_resp)
        xhat0 = _index_order([resp[k] * means[k] for k in range(len(means))])
        cond = component_posterior(prior, LIN, x, t)
        assert cond.log_resp.tobytes() == log_resp.tobytes()
        assert cond.component_means().tobytes() == np.swapaxes(means, 1, 2).tobytes()
        assert cond.xhat0.tobytes() == xhat0.T.tobytes()
        assert cond.scores().tobytes() == np.swapaxes(scores, 1, 2).tobytes()


def _index_order(terms):
    """terms[0] + terms[1] + ..., added left to right."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


@pytest.mark.parametrize("k", [1, 2, 32])
@pytest.mark.parametrize("n", [2, 3, 64, 500])
def test_column_sums_add_in_index_order(k, n):
    # in the points-last layout the Mahalanobis term adds the squares of a
    # column's coordinates, and a responsibility-weighted sum its
    # components, in index order, with or without a scratch block to write
    # the sum into
    from inpaintlab.gmm import _weighted_sum, _whitened_logpdf

    d = 12
    rng = np.random.default_rng(27)
    u = rng.standard_normal((k, d, n)) * 3.0
    w = rng.random((k, n))
    evals = 0.5 + rng.random((k, d))
    quad = _index_order([u[:, i] * u[:, i] for i in range(d)])
    want = -0.5 * (quad + np.sum(np.log(evals), axis=-1)[:, None] + d * np.log(2.0 * np.pi))
    assert _whitened_logpdf(u, evals).tobytes() == want.tobytes()
    want = _index_order([w[j] * u[j] for j in range(k)])
    assert _weighted_sum(w, u).tobytes() == want.tobytes()
    assert _weighted_sum(w, u, np.empty((d, n))).tobytes() == want.tobytes()


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
def test_vjp_keeps_its_rounding_order(fixture, request):
    # ConditionalMixture.vjp rounds exactly like the points-last expressions
    # below: GEMMs per component on the columns, the dots m_k.v over
    # coordinates and the weighted sums over components in index order
    prior = request.getfixturevalue(fixture)
    d = prior.dim
    rng = np.random.default_rng(28)
    x = rng.standard_normal((33, d)) * 2.0
    v = rng.standard_normal((33, d))
    xa = np.concatenate([x, np.ones((33, 1))], axis=1).T
    for t in (0.05, 0.4, 0.95):
        cond = component_posterior(prior, LIN, x, t)
        resp = np.exp(cond.log_resp)
        means = cond.mean_maps @ xa
        coef = _index_order([means[:, i] * v.T[i] for i in range(d)])
        coef -= np.sum(resp * coef, axis=0)
        slopes = cond.mean_maps[:, :, :-1] @ v.T
        scores = np.swapaxes(cond.scores(), 1, 2)
        jtv = _index_order([resp[j] * slopes[j] for j in range(len(resp))])
        jtv += _index_order([resp[j] * coef[j] * scores[j] for j in range(len(resp))])
        assert cond.vjp(v).tobytes() == jtv.T.tobytes()


@pytest.mark.parametrize("kind", ["diagonal", "full"])
@pytest.mark.parametrize("d", [2, 8, 12])
def test_rows_do_not_depend_on_the_batch_shape(d, kind):
    # row j of evaluate and vjp depends on point j alone, bit for bit: one
    # point (d,), a one-row batch, an (n, d) batch and ding's (n, nz, d)
    # proposals give the same rows, from one denoiser whose scratch is
    # regrown and reused, and from fresh ones
    rng = np.random.default_rng(29)
    k, n, nz = 32, 6, 3
    if kind == "full":
        a = rng.standard_normal((k, d, d))
        cov = 0.3 * a @ np.swapaxes(a, 1, 2) / d + 0.2 * np.eye(d)
    else:
        cov = 0.2 + 0.6 * rng.random((k, d))
    prior = GaussianMixture(rng.dirichlet(np.ones(k)), 2.0 * rng.standard_normal((k, d)), cov)
    x = rng.standard_normal((n * nz, d)) * 2.0
    v = rng.standard_normal((n * nz, d))
    den = GMMDenoiser(prior, LIN)
    for t in (0.1, 0.5, 0.9):
        ev = den.evaluate(x, t)
        want_x, want_v = ev.xhat0.tobytes(), den.vjp(ev, v).tobytes()
        ev = den.evaluate(x.reshape(n, nz, d), t)
        assert ev.xhat0.shape == (n, nz, d)
        assert ev.xhat0.tobytes() == want_x
        assert den.vjp(ev, v.reshape(n, nz, d)).tobytes() == want_v
        for i in range(n * nz):
            for shape, one in (((d,), den), ((1, d), den), ((d,), GMMDenoiser(prior, LIN))):
                ev = one.evaluate(x[i].reshape(shape), t)
                assert ev.xhat0.shape == shape
                assert ev.xhat0.tobytes() == want_x[i * d * 8:(i + 1) * d * 8]
                got = one.vjp(ev, v[i].reshape(shape)).tobytes()
                assert got == want_v[i * d * 8:(i + 1) * d * 8]


def test_diagonal_prior_carries_a_read_only_identity_basis(three_comp_diag):
    # the identity stack is a broadcast view of one d x d identity, not a
    # (K, d, d) copy, and the conditional passes the same view on
    prior = three_comp_diag
    k, d = prior.means.shape
    cond = component_posterior(prior, LIN, np.zeros(d), 0.5)
    for evecs in (prior._evecs, cond.cov_evecs):
        assert evecs.shape == (k, d, d)
        np.testing.assert_array_equal(evecs, np.broadcast_to(np.eye(d), (k, d, d)))
        assert not evecs.flags.writeable
        assert evecs.strides[0] == 0
        assert evecs.base.size == d * d


def test_diagonal_prior_matches_its_full_matrix_form_bit_for_bit(three_comp_diag):
    # the same prior written as full diagonal matrices takes eigh's basis,
    # which for ascending distinct variances is the identity itself, so the
    # two layouts run the same GEMMs on the same numbers
    diag = GaussianMixture(
        three_comp_diag.weights,
        three_comp_diag.means,
        np.sort(three_comp_diag.covariances, axis=-1) + [0.0, 1e-3, 2e-3, 3e-3],
    )
    full = GaussianMixture(diag.weights, diag.means, [np.diag(c) for c in diag.covariances])
    k, d = diag.means.shape
    assert full._evecs.tobytes() == np.tile(np.eye(d), (k, 1, 1)).tobytes()
    assert full._evals.tobytes() == diag._evals.tobytes()
    rng = np.random.default_rng(21)
    x = rng.standard_normal((40, d)) * 2.0
    v = rng.standard_normal((40, d))
    for t in (0.2, 0.5, 0.9):
        evs = [GMMDenoiser(prior, LIN).evaluate(x, t) for prior in (diag, full)]
        assert evs[0].xhat0.tobytes() == evs[1].xhat0.tobytes()
        assert evs[0].vjp(v).tobytes() == evs[1].vjp(v).tobytes()


def test_batched_matrices_round_like_the_einsum_to_a_few_ulp(monkeypatch):
    # _matrices forms V diag(e) V^T as one batched GEMM, which rounds in
    # another order than the three-operand einsum "kde,ke,kfe->kdf".  At
    # mixture-full sizes (K = 32 full covariances in R^12, 500 points) the
    # matrices and one denoiser evaluation built from them stay within a few
    # ulp of the einsum's; the samplers' steps amplify only that
    from inpaintlab import gmm

    def einsum_matrices(evals, evecs):
        return np.einsum("kde,ke,kfe->kdf", evecs, evals, evecs)

    rng = np.random.default_rng(18)
    k, d, n = 32, 12, 500
    a = rng.standard_normal((k, d, d))
    cov = 0.3 * a @ np.swapaxes(a, 1, 2) / d + 0.2 * np.eye(d)
    prior = GaussianMixture(rng.dirichlet(np.ones(k)), 2.0 * rng.standard_normal((k, d)), cov)
    eps = np.finfo(float).eps
    batched = gmm._matrices
    for t in (0.05, 0.3, 0.6, 0.9, 0.99):
        alpha, sigma = eval_schedule(LIN, t)
        c = alpha**2 * prior._evals + sigma**2
        slope = alpha * prior._evals / c
        want = einsum_matrices(slope, prior._evecs)
        scale = einsum_matrices(np.abs(slope), np.abs(prior._evecs))
        assert np.all(np.abs(batched(slope, prior._evecs) - want) <= 4 * eps * scale)
        x = alpha * prior.sample(n, rng) + sigma * rng.standard_normal((n, d))
        got = gmm.component_posterior(prior, LIN, x, t).xhat0
        monkeypatch.setattr(gmm, "_matrices", einsum_matrices)
        want = gmm.component_posterior(prior, LIN, x, t).xhat0
        monkeypatch.setattr(gmm, "_matrices", batched)
        assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want))


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
@pytest.mark.parametrize("batch", [(), (17,)])
def test_centred_scores_average_to_the_marginal_score(fixture, batch, request):
    # the responsibility average of the component scores is the score of
    # the marginal p_t, and the centred scores average to zero
    prior = request.getfixturevalue(fixture)
    x = np.random.default_rng(6).standard_normal(batch + (prior.dim,)) * 1.5
    for t in (0.1, 0.5, 0.9):
        cond = component_posterior(prior, LIN, x, t)
        g = cond.scores()
        g_bar = np.einsum("k...,k...d->...d", np.exp(cond.log_resp), g)
        score = gmm_marginal(prior, LIN, t).score(x)
        assert g_bar.shape == score.shape == x.shape
        np.testing.assert_allclose(g_bar, score, rtol=0, atol=1e-10)
        centred = cond.centred_scores()
        np.testing.assert_array_equal(centred, g - g_bar)
        np.testing.assert_allclose(
            np.einsum("k...,k...d->...d", np.exp(cond.log_resp), centred), 0.0, rtol=0, atol=1e-10
        )


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
@pytest.mark.parametrize("batch", [(), (9,), (0,)])
def test_centred_scores_form_the_score_product_once(fixture, batch, request, monkeypatch):
    # the scores and their weighted sum come from one product, with the bits
    # of the two members that form it each
    from inpaintlab.gmm import ConditionalMixture

    prior = request.getfixturevalue(fixture)
    x = np.random.default_rng(4).standard_normal(batch + (prior.dim,)) * 1.5
    original = ConditionalMixture._score_maps
    calls = [0]

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(ConditionalMixture, "_score_maps", counting)
    for t in (0.05, 0.5, 1.0):
        cond = component_posterior(prior, LIN, x, t)
        want = cond.scores() - cond.marginal_score()
        calls[0] = 0
        got = cond.centred_scores()
        assert calls[0] == 1
        assert got.shape == want.shape == (prior.n_components,) + x.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
@pytest.mark.parametrize("batch", [(), (9,), (0,)])
def test_conditional_reads_the_marginal_density_and_score(fixture, batch, request):
    # the normaliser and the score maps that component_posterior holds give
    # log p_t(x) and grad log p_t(x): they match the marginal mixture, whose
    # covariances gmm_marginal forms (and for a full prior eigendecomposes) anew,
    # and a dense per-component sum of the Gaussian log-likelihoods
    prior = request.getfixturevalue(fixture)
    x = np.random.default_rng(8).standard_normal(batch + (prior.dim,)) * 1.5
    for t in (0.05, 0.5, 0.95, 1.0):
        cond = component_posterior(prior, LIN, x, t)
        marg = gmm_marginal(prior, LIN, t)
        log_p, score = cond.log_marginal, cond.marginal_score()
        assert np.shape(log_p) == batch and score.shape == x.shape
        np.testing.assert_allclose(log_p, marg.log_density(x), rtol=1e-10, atol=0)
        np.testing.assert_allclose(score, marg.score(x), rtol=1e-10, atol=0)
        off = x[..., None, :] - marg.means  # (..., K, d)
        cov = marg.covariance_matrices()
        quad = np.einsum("...kd,...kd->...k", off, np.linalg.solve(cov, off[..., None])[..., 0])
        log_n = -0.5 * (quad + np.linalg.slogdet(cov)[1] + prior.dim * np.log(2 * np.pi))
        dense = np.log(np.exp(log_n) @ prior.weights)
        np.testing.assert_allclose(log_p, dense, rtol=1e-10, atol=0)
    if batch == ():
        assert type(log_p) is np.float64
        assert type(prior.log_density(x)) is np.float64


@pytest.mark.parametrize("fixture", ["two_comp_full", "three_comp_diag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_and_score_reject_nonfinite_points(fixture, bad, request):
    prior = request.getfixturevalue(fixture)
    x = np.zeros((3, prior.dim))
    x[1, 0] = bad
    for point in (x, x[1]):
        with pytest.raises(NumericError, match="non-finite"):
            prior.log_density(point)
        with pytest.raises(NumericError, match="non-finite"):
            prior.score(point)


def _reference_posterior(prior, x, t):
    """Per-component loop on C_k = alpha^2 Sigma_k + sigma^2 I for one point:
    log responsibilities, means m_k, slopes A_k and scores g_k."""
    alpha, sigma = eval_schedule(LIN, t)
    log_w, means, slopes, scores = [], [], [], []
    for w, mu, cov in zip(prior.weights, prior.means, prior.covariance_matrices()):
        c = alpha**2 * cov + sigma**2 * np.eye(prior.dim)
        off = x - alpha * mu
        solved = np.linalg.solve(c, off)
        _, logdet = np.linalg.slogdet(c)
        log_w.append(np.log(w) - 0.5 * (off @ solved + logdet + prior.dim * np.log(2 * np.pi)))
        means.append(mu + alpha * cov @ solved)
        slopes.append(alpha * cov @ np.linalg.inv(c))
        scores.append(-solved)
    log_w = np.array(log_w)
    top = log_w.max()
    log_resp = log_w - (top + np.log(np.sum(np.exp(log_w - top))))
    return log_resp, np.array(means), np.array(slopes), np.array(scores)


def _reference_guidance_grad(problem, prior, x, t):
    """Gradient of log sum_k r_k N(y_obs; m_k[obs], C0_k[obs, obs] + gamma^2 I)."""
    alpha, sigma = eval_schedule(LIN, t)
    log_resp, means, slopes, scores = _reference_posterior(prior, x, t)
    obs = problem.mask.observed_idx
    g_bar = np.exp(log_resp) @ scores
    log_terms, grads = [], []
    for lr, m, a, g, cov in zip(log_resp, means, slopes, scores, prior.covariance_matrices()):
        c0 = sigma**2 * cov @ np.linalg.inv(alpha**2 * cov + sigma**2 * np.eye(prior.dim))
        s = c0[np.ix_(obs, obs)] + problem.gamma**2 * np.eye(obs.size)
        resid = problem.y[obs] - m[obs]
        solved = np.linalg.solve(s, resid)
        _, logdet = np.linalg.slogdet(s)
        log_terms.append(lr - 0.5 * (resid @ solved + logdet))
        lifted = np.zeros(prior.dim)
        lifted[obs] = solved
        grads.append(g - g_bar + a.T @ lifted)
    log_terms = np.array(log_terms)
    rho = np.exp(log_terms - log_terms.max())
    return (rho / rho.sum()) @ np.array(grads)


@pytest.mark.parametrize("layout", ["full", "diagonal"])
def test_component_major_kernels_match_per_component_reference(layout):
    # mixture-full sizes: K = 32 components in R^12, 64 points, half observed
    from inpaintlab import InpaintingProblem, MaskOperator, exact_guidance_grad

    rng = np.random.default_rng(12)
    k, d, n = 32, 12, 64
    if layout == "full":
        a = rng.standard_normal((k, d, d))
        cov = 0.3 * a @ np.swapaxes(a, 1, 2) / d + 0.2 * np.eye(d)
    else:
        cov = 0.2 + 0.6 * rng.random((k, d))
    prior = GaussianMixture(rng.dirichlet(np.ones(k)), 2.0 * rng.standard_normal((k, d)), cov)
    mask = MaskOperator(np.arange(d) % 2)
    problem = InpaintingProblem(mask, mask.m * prior.sample(1, rng)[0], 0.5)
    for t in (0.1, 0.4, 0.7, 0.95):
        alpha, sigma = eval_schedule(LIN, t)
        x = alpha * prior.sample(n, rng) + sigma * rng.standard_normal((n, d))
        for points in (x, x[0]):
            cond = component_posterior(prior, LIN, points, t)
            xhat0 = GMMDenoiser(prior, LIN).evaluate(points, t).xhat0
            jac = _jacobian(prior, points, t)
            grad = exact_guidance_grad(problem, prior, LIN, points, t)
            assert cond.log_resp.shape == (k,) + points.shape[:-1]
            cond_means = cond.component_means()
            assert cond_means.shape == (k,) + points.shape
            for i, x_i in enumerate(np.atleast_2d(points)):
                at = (slice(None), i) if points.ndim == 2 else (slice(None),)
                log_resp, means, slopes, scores = _reference_posterior(prior, x_i, t)
                r = np.exp(log_resp)
                want_jac = np.einsum("k,kde->de", r, slopes) + np.einsum(
                    "k,kd,ke->de", r, means, scores - r @ scores
                )
                np.testing.assert_allclose(cond.log_resp[at], log_resp, rtol=0, atol=1e-10)
                np.testing.assert_allclose(cond_means[at], means, rtol=0, atol=1e-10)
                np.testing.assert_allclose(np.atleast_2d(xhat0)[i], r @ means, rtol=0, atol=1e-10)
                np.testing.assert_allclose(np.reshape(jac, (-1, d, d))[i], want_jac,
                                           rtol=0, atol=1e-10)
                np.testing.assert_allclose(np.atleast_2d(grad)[i],
                                           _reference_guidance_grad(problem, prior, x_i, t),
                                           rtol=0, atol=1e-10)


def _sample(n):
    GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]]).sample(n, np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    (lambda: GaussianMixture([], np.zeros((0, 2)), np.zeros((0, 2))),
     "weights must be a non-empty 1-D array"),
    (lambda: GaussianMixture([[1.0]], [[0.0, 0.0]], [[1.0, 1.0]]),
     "weights must be a non-empty 1-D array"),
    (lambda: GaussianMixture([0.5, 0.5], [[0.0, 0.0]], [[1.0, 1.0]] * 2),
     "means must have shape (n_components, d)"),
    (lambda: GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0, 1.0]]),
     "covariances shape (1, 3) incompatible with 1 components in R^2"),
    (lambda: _sample(0), "n must be positive"),
    (lambda: _sample(-3), "n must be positive"),
], ids=["empty", "2-d-weights", "means-rows", "cov-shape", "sample-0", "sample-negative"])
def test_gmm_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
