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

``sliced_w2_projected`` is the sliced W2 of ``inpaintlab.metrics`` in the
column layout it had before its rows were made contiguous: (n,
n_projections) projections, each column sorted and averaged.
"""

import numpy as np

from inpaintlab import eval_schedule, exact_intermediate_loglik


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
