"""Independent numpy references for the Tweedie checks.

Each one works on the full marginal components of x_t = alpha * x0 +
sigma * x1: component k is N(alpha * mu_k, C_k) with
C_k = alpha^2 Sigma_k + sigma^2 I, built here as dense matrices and
handled with ``np.linalg`` only, so no reference shares code with the
eigenbasis kernels of ``inpaintlab.gmm`` that it checks.  Points are single
vectors (d,).

With r_k the responsibilities of x and g_k = -C_k^{-1} (x - alpha mu_k) the
component scores:

- E[X1 | x] = sum_k r_k sigma C_k^{-1} (x - alpha mu_k), from the joint
  Gaussian law of (X1, X_t) in each component;
- the Hessian of log p_t is H = sum_k r_k (-C_k^{-1} + g_k g_k^T) - g_bar g_bar^T;
- second-order Tweedie gives the denoiser Jacobian (I + sigma^2 H) / alpha;
- ding's neglected term at displacement x - z is then
  (sigma^2 / alpha) ||H(z) (x - z)||.

``component_logpdf`` is the log-likelihood of each mixture component,
written out of place in the rounding order that ``component_posterior``
must reproduce bit for bit: one GEMM per component on the columns
[x, 1]^T of the points.

``sliced_w2_projected`` is the sliced W2 of ``inpaintlab.metrics`` in the
column layout it had before its rows were made contiguous: (n,
n_projections) projections, each column sorted and averaged.

``transition``, ``sample`` and the ``step_<method>`` functions are the
guided steps of ``inpaintlab.guidance`` written out of place, over all d
coordinates against the (d,) mask with ``np.where``: the form the
observed-column, in-place steps must reproduce byte for byte.  They take
the arguments of the library's steps and draw in the same order.
``transition`` returns the pair ``(mean, std)`` that
``bridge.transition_params`` returns and checks the mean's finiteness
itself, raising the library's NumericError text for a non-finite mean.
"""

import math

import numpy as np

from inpaintlab import NumericError, eval_schedule, exact_intermediate_loglik
from inpaintlab.bridge import standard_normal


def _components(prior, sched, x, t):
    """(alpha, sigma, responsibilities (K,), component scores g (K, d), C^{-1} (K, d, d))."""
    alpha, sigma = eval_schedule(sched, t)
    cov = np.asarray(prior.covariances, dtype=float)
    if cov.ndim == 2:
        cov = np.stack([np.diag(c) for c in cov])
    d = cov.shape[-1]
    c = alpha**2 * cov + sigma**2 * np.eye(d)
    prec = np.linalg.inv(c)
    offset = np.asarray(x, dtype=float) - alpha * np.asarray(prior.means, dtype=float)
    g = -np.einsum("kde,ke->kd", prec, offset)
    _, logdet = np.linalg.slogdet(c)
    logw = np.log(prior.weights) - 0.5 * (np.einsum("kd,kd->k", offset, -g) + logdet)
    r = np.exp(logw - logw.max())
    return alpha, sigma, r / r.sum(), g, prec


def noise_mean(prior, sched, x, t):
    """E[X1 | X_t = x] = -sigma sum_k r_k g_k."""
    _, sigma, r, g, _ = _components(prior, sched, x, t)
    return -sigma * (r @ g)


def log_density_hessian(prior, sched, x, t):
    """Hessian of log p_t at x, (d, d)."""
    _, _, r, g, prec = _components(prior, sched, x, t)
    g_bar = r @ g
    second = np.einsum("k,kd,ke->de", r, g, g) - np.einsum("k,kde->de", r, prec)
    return second - np.outer(g_bar, g_bar)


def denoiser_jacobian(prior, sched, x, t):
    """(I + sigma^2 H) / alpha, the second-order Tweedie Jacobian of E[X0 | X_t = x]."""
    alpha, sigma = eval_schedule(sched, t)
    hess = log_density_hessian(prior, sched, x, t)
    return (np.eye(hess.shape[0]) + sigma**2 * hess) / alpha


def ding_gap(prior, sched, x, z, s):
    """(sigma_s^2 / alpha_s) ||H(z) (x - z)||."""
    alpha, sigma = eval_schedule(sched, s)
    hess = log_density_hessian(prior, sched, z, s)
    return float((sigma**2 / alpha) * np.linalg.norm(hess @ (np.asarray(x) - np.asarray(z))))


def fd_guidance_grad(problem, prior, sched, x_t, t, step=1e-5):
    """Central finite differences of ``exact_intermediate_loglik`` in x_t."""
    x_t = np.asarray(x_t, dtype=float)
    grad = np.zeros_like(x_t)
    for i in range(x_t.size):
        dx = np.zeros_like(x_t)
        dx[i] = step
        hi = exact_intermediate_loglik(problem, prior, sched, x_t + dx, t)
        lo = exact_intermediate_loglik(problem, prior, sched, x_t - dx, t)
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def component_logpdf(x, centers, evals, evecs):
    """log N(x; centers_k, V_k diag(evals_k) V_k^T) for each component k and
    points x of shape (..., d), (K, ...): the whitened offsets are the map
    [diag(evals_k^{-1/2}) V_k^T, its product with -centers_k] applied to the
    (d+1, max(N, 2)) columns [x, 1]^T, and their squares are added over the
    coordinates in index order."""
    d = x.shape[-1]
    n = x.size // d
    cols = np.zeros((d + 1, max(n, 2)))
    cols[:d, :n] = x.reshape(n, d).T
    cols[d] = 1.0
    white = evecs / np.sqrt(evals)[:, None, :]
    bias = -(centers[:, None, :] @ white)
    u = np.concatenate([np.swapaxes(white, -1, -2), np.swapaxes(bias, -1, -2)], axis=-1) @ cols
    quad = np.einsum("kdm,kdm->km", u, u)
    lp = -0.5 * (quad + np.log(evals).sum(axis=-1)[:, None] + d * np.log(2.0 * np.pi))
    return lp[:, :n].reshape(lp.shape[:1] + x.shape[:-1])


def sliced_w2_projected(xa, xb, dirs):
    """Sliced W2 of (n, d) samples xa and xb along the unit rows of dirs,
    out of place."""
    pa = np.sort(np.einsum("nd,pd->np", xa, dirs), axis=0)
    pb = np.sort(np.einsum("nd,pd->np", xb, dirs), axis=0)
    if pa.shape[0] == pb.shape[0]:
        w2sq = np.mean((pa - pb) ** 2, axis=0)
    else:
        m = max(pa.shape[0], pb.shape[0])
        qs = (np.arange(m) + 0.5) / m
        w2sq = np.array([
            np.mean((np.interp(qs, (np.arange(pa.shape[0]) + 0.5) / pa.shape[0], pa[:, j])
                     - np.interp(qs, (np.arange(pb.shape[0]) + 0.5) / pb.shape[0], pb[:, j])) ** 2)
            for j in range(dirs.shape[0])
        ])
    return float(np.sqrt(np.mean(w2sq)))


class DesignedNoise:
    """A noise stream for ``n`` chains that serves ``value`` in every draw.

    It stands in for a ``ChainStreams`` (``__len__`` is the chain count, so
    the steps need (n, d) batches), and ``take`` returns a fresh array on
    every call because the steps scale their draws in place.  At value 0
    a step that samples one transition (dps, ddnm, diffpir) returns its
    mean exactly; value 1 less value 0 gives its std.
    """

    def __init__(self, n, value=0.0):
        self.n, self.value = n, value

    def __len__(self):
        return self.n

    def take(self, shape):
        return np.full(shape, self.value)


def _noise(x, xhat0, alpha, sigma):
    """x1_hat = (x - alpha x0_hat) / sigma, 0 at sigma = 0."""
    if sigma == 0.0:
        return np.zeros_like(x)
    return (x - alpha * xhat0) / sigma


def transition(sched, eta, x_t, xhat0, s, t):
    """(mean, std) of the reverse transition from t to s around xhat0; a
    non-finite mean raises the NumericError of ``transition_params``, with
    its count of non-finite chains (rows)."""
    xhat1 = _noise(x_t, xhat0, *eval_schedule(sched, t))
    alpha_s, sigma_s = eval_schedule(sched, s)
    beta_s = sigma_s * math.sqrt(1.0 - eta**2)
    mean = alpha_s * xhat0 + beta_s * xhat1
    finite = np.isfinite(mean).all(axis=-1)
    if not finite.all():
        bad = finite.size - np.count_nonzero(finite)
        raise NumericError(
            f"transition mean must be finite: {bad} of {finite.size} chains non-finite"
        )
    return mean, eta * sigma_s


def sample(mean, std, rng):
    eps = standard_normal(rng, mean.shape)
    return mean + std * eps


def step_blended(x_t, ev, s, problem, sched, denoiser, cfg, rng):
    x_s = sample(*transition(sched, cfg.eta, x_t, ev.xhat0, s, ev.t), rng)
    if problem.mask.observed_count == 0:
        return x_s
    alpha_s, sigma_s = eval_schedule(sched, s)
    eps = standard_normal(rng, x_s.shape)
    replay = alpha_s * problem.y + sigma_s * eps
    return np.where(problem.mask.m == 1, replay, x_s)


def step_dps(x_t, ev, s, problem, sched, denoiser, cfg, rng):
    xhat0 = ev.xhat0
    m = problem.mask.m
    resid = m * (problem.y - m * xhat0)
    grad = denoiser.vjp(ev, resid) / cfg.gamma**2
    alpha_t, sigma_t = eval_schedule(sched, ev.t)
    alpha_eval, sigma_eval = (alpha_t, sigma_t) if alpha_t > 0 else eval_schedule(sched, s)
    corrected = xhat0 + cfg.dps_scale * (sigma_eval**2 / alpha_eval) * grad
    return sample(*transition(sched, cfg.eta, x_t, corrected, s, ev.t), rng)


def step_ding(x_t, ev, s, problem, sched, denoiser, cfg, rng):
    mean, eta_s = transition(sched, cfg.eta, x_t, ev.xhat0, s, ev.t)
    nz = cfg.ding_nz
    eps = standard_normal(rng, np.shape(x_t)[:-1] + (nz, np.shape(x_t)[-1]))
    if eta_s == 0.0:
        return mean
    z = mean[..., None, :] + eta_s * eps
    alpha_s, sigma_s = eval_schedule(sched, s)
    e = _noise(z, denoiser.evaluate(z, s).xhat0, alpha_s, sigma_s).mean(axis=-2)
    m = problem.mask.m
    u = alpha_s * problem.y + sigma_s * e
    prior_var, obs_var = eta_s**2, (alpha_s * cfg.gamma) ** 2
    post_var = prior_var * obs_var / (prior_var + obs_var)
    post_mean = (obs_var * mean + prior_var * u) / (prior_var + obs_var)
    out_mean = np.where(m == 1, post_mean, mean)
    out_std = np.broadcast_to(np.where(m == 1, np.sqrt(post_var), eta_s), np.shape(mean))
    return out_mean + out_std * standard_normal(rng, np.shape(x_t))


def step_ddnm(x_t, ev, s, problem, sched, denoiser, cfg, rng):
    m = problem.mask.m
    projected = m * problem.y + (1.0 - m) * ev.xhat0
    return sample(*transition(sched, cfg.eta, x_t, projected, s, ev.t), rng)


def step_diffpir(x_t, ev, s, problem, sched, denoiser, cfg, rng):
    xhat0 = ev.xhat0
    alpha_t, sigma_t = eval_schedule(sched, ev.t)
    if sigma_t > 0:
        rho_t = cfg.diffpir_lambda * alpha_t**2 / sigma_t**2
        pulled = (problem.y / cfg.gamma**2 + rho_t * xhat0) / (1.0 / cfg.gamma**2 + rho_t)
        xhat0 = np.where(problem.mask.m == 1, pulled, xhat0)
    return sample(*transition(sched, cfg.eta, x_t, xhat0, s, ev.t), rng)
