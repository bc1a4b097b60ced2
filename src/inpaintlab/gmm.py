"""Gaussian-mixture priors with closed-form denoising.

A mixture prior corrupted by the interpolation x_t = alpha_t * x0 +
sigma_t * x1 stays a mixture at every t, so the quantities a sampler
normally asks a neural network for are available exactly:

- the marginal p_t (``gmm_marginal``),
- the conditional mean E[X0 | X_t = x] (``gmm_denoise``),
- the noise prediction E[X1 | X_t = x] (``gmm_noise_predict``), tied to
  the denoiser by x1_hat = (x - alpha_t * x0_hat) / sigma_t
  (``noise_from_x0``),
- the Jacobian of the denoiser (``gmm_denoiser_jacobian``).

The samplers see the prior through the ``Denoiser`` contract only:
``denoise`` plus the optional ``jacobian`` (``GMMDenoiser``).  They derive
every noise estimate from ``denoise`` through ``noise_from_x0``.

Component k of the corrupted mixture is N(alpha*mu_k, C_k) with
C_k = alpha^2 * Sigma_k + sigma^2 * I.  Conditioning on X_t = x gives,
per component,

    m_k(x) = mu_k + alpha * Sigma_k C_k^{-1} (x - alpha * mu_k)
    C0_k   = sigma^2 * Sigma_k C_k^{-1}              (x-independent)
    r_k(x) \\propto w_k N(x; alpha * mu_k, C_k)       (responsibilities)

and the denoiser is the responsibility-weighted average of the m_k.
All component matrices share the eigenbasis of Sigma_k, which is cached
at construction; everything is evaluated in that basis.  Responsibilities
are computed in the log domain (component likelihoods underflow at small
sigma_t).

Points may be passed as a single vector ``(d,)`` or as a batch ``(n, d)``;
outputs follow the input shape.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .schedule import Schedule, eval_schedule

_LOG_2PI = float(np.log(2.0 * np.pi))


def logsumexp(a, axis=None, keepdims: bool = False):
    """log(sum(exp(a))) over ``axis``, stable for large magnitudes.

    The entries equal to the max are split out of the sum; the rest are
    summed shifted by the max, and that sum is divided by the count of
    maxima, so the result is log1p(s) + log(count) + max.  Where that is
    not finite, the direct log(sum(exp(a))) is used.  This is the order of
    operations of the reference implementation that the test suite
    compares with bit for bit.  No numpy warning is raised.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, axis=axis, keepdims=True, dtype=a.dtype)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianMixture:
    """Finite Gaussian mixture with diagonal or full covariances.

    ``covariances`` is either ``(K, d)`` (the diagonals) or ``(K, d, d)``
    (full symmetric positive-definite matrices).  The eigendecomposition
    of each full covariance is cached once here; the diagonal layout keeps
    an identity eigenbasis and is the fast path.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covariances, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(w <= 0):
            raise ValueError("all mixture weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")
        if mu.ndim != 2 or mu.shape[0] != w.size:
            raise ValueError("means must have shape (n_components, d)")

        k, d = mu.shape
        if cov.shape == (k, d):
            if np.any(cov <= 0):
                raise ValueError("diagonal covariances must be strictly positive")
            evals, evecs = cov, None
        elif cov.shape == (k, d, d):
            if np.max(np.abs(cov - np.swapaxes(cov, -1, -2))) > 1e-12:
                raise ValueError("covariances must be symmetric within 1e-12")
            evals, evecs = np.linalg.eigh(cov)
            if np.any(evals <= 0):
                raise ValueError("covariances must be positive definite")
        else:
            raise ValueError(
                f"covariances shape {cov.shape} incompatible with {k} components in R^{d}"
            )
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def is_diagonal(self) -> bool:
        return self._evecs is None

    def covariance_matrices(self) -> np.ndarray:
        """Component covariances as full (K, d, d) matrices."""
        if self.is_diagonal:
            return _matrices(self.covariances, None)
        return self.covariances

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def covariance(self) -> np.ndarray:
        """Exact covariance of the mixture (law of total covariance)."""
        m = self.mean()
        second = np.einsum("k,kde->de", self.weights, self.covariance_matrices())
        second += np.einsum("k,kd,ke->de", self.weights, self.means, self.means)
        return second - np.outer(m, m)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        lp = _component_logpdf(np.asarray(x, dtype=float), self.means, self._evals, self._evecs)
        return logsumexp(lp + np.log(self.weights), axis=-1)

    def score(self, x: np.ndarray) -> np.ndarray:
        """Gradient of log density at x."""
        z = _rotate_in(self._evecs, np.asarray(x, dtype=float)[..., None, :] - self.means)
        lr = _rotated_logpdf(z, self._evals) + np.log(self.weights)
        resp = np.exp(lr - logsumexp(lr, axis=-1, keepdims=True))
        return np.einsum("...k,...kd->...d", resp, _scores(z, self._evals, self._evecs))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n points: component index first, then the Gaussian draw."""
        if n < 1:
            raise ValueError("n must be positive")
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        scaled = np.sqrt(self._evals[idx]) * eps
        if self.is_diagonal:
            return self.means[idx] + scaled
        return self.means[idx] + np.einsum("nde,ne->nd", self._evecs[idx], scaled)


# ---------------------------------------------------------------------------
# eigenbasis helpers: evecs is None for the diagonal layout (identity basis)
# ---------------------------------------------------------------------------


def _rotate_in(evecs: np.ndarray | None, v: np.ndarray) -> np.ndarray:
    """V_k^T v for per-component vectors v of shape (..., K, d)."""
    if evecs is None:
        return v
    return np.einsum("kde,...kd->...ke", evecs, v)


def _rotate_out(evecs: np.ndarray | None, z: np.ndarray) -> np.ndarray:
    """V_k z for per-component vectors z of shape (..., K, d)."""
    if evecs is None:
        return z
    return np.einsum("kde,...ke->...kd", evecs, z)


def _matrices(evals: np.ndarray, evecs: np.ndarray | None) -> np.ndarray:
    """V_k diag(evals_k) V_k^T for each component k, as (K, d, d) matrices."""
    if evecs is None:
        return np.einsum("kd,de->kde", evals, np.eye(evals.shape[-1]))
    return np.einsum("kde,ke,kfe->kdf", evecs, evals, evecs)


def _scores(z: np.ndarray, evals: np.ndarray, evecs: np.ndarray | None) -> np.ndarray:
    """Gradient of log N(x; center_k, V_k diag(evals_k) V_k^T) at x for each
    component k, from the rotated offsets z = V_k^T (x - center_k)."""
    return -_rotate_out(evecs, z / evals)


def _component_logpdf(
    x: np.ndarray,
    centers: np.ndarray,
    evals: np.ndarray,
    evecs: np.ndarray | None,
) -> np.ndarray:
    """log N(x; centers_k, V_k diag(evals_k) V_k^T) for each component k."""
    return _rotated_logpdf(_rotate_in(evecs, x[..., None, :] - centers), evals)


def _rotated_logpdf(z: np.ndarray, evals: np.ndarray) -> np.ndarray:
    """``_component_logpdf`` from the rotated offsets z = V_k^T (x - center_k)."""
    d = z.shape[-1]
    quad = np.sum(z * z / evals, axis=-1)
    logdet = np.sum(np.log(evals), axis=-1)
    return -0.5 * (quad + logdet + d * _LOG_2PI)


@dataclass(frozen=True)
class ConditionalMixture:
    """Mixture representation of X0 given X_t = x.

    Component k carries responsibility ``exp(log_resp[..., k])``, mean
    ``means[..., k, :]`` and covariance V_k diag(cov_evals[k]) V_k^T.
    The covariances depend on t only, not on x.

    ``z[..., k, :]`` = V_k^T (x - alpha * mu_k) and ``c[k]``, the
    eigenvalues of C_k, are the inputs of the conditioning, kept for the
    Jacobian and the guidance gradient.
    """

    log_resp: np.ndarray
    means: np.ndarray
    cov_evals: np.ndarray
    cov_evecs: np.ndarray | None
    z: np.ndarray
    c: np.ndarray

    @property
    def resp(self) -> np.ndarray:
        return np.exp(self.log_resp)

    def covariance_matrices(self) -> np.ndarray:
        return _matrices(self.cov_evals, self.cov_evecs)

    def centred_scores(self) -> np.ndarray:
        """g_k - sum_j r_j g_j, with g_k = -C_k^{-1} (x - alpha * mu_k) the
        gradient of component k's log-likelihood of x."""
        g = _scores(self.z, self.c, self.cov_evecs)
        return g - np.einsum("...k,...kd->...d", self.resp, g)[..., None, :]


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NumericError("input point contains non-finite values")
    return x


def component_posterior(
    prior: GaussianMixture, sched: Schedule, x: np.ndarray, t: float
) -> ConditionalMixture:
    """Exact per-component posterior of X0 given the corrupted state x at time t."""
    x = _check_finite(x)
    alpha, sigma = eval_schedule(sched, t)
    lam, evecs = prior._evals, prior._evecs
    c = alpha**2 * lam + sigma**2  # eigenvalues of C_k, positive for every t

    # one rotation serves both the responsibilities and the means
    z = _rotate_in(evecs, x[..., None, :] - alpha * prior.means)
    lr = _rotated_logpdf(z, c) + np.log(prior.weights)
    log_resp = lr - logsumexp(lr, axis=-1, keepdims=True)

    means = prior.means + _rotate_out(evecs, alpha * lam / c * z)
    cov_evals = sigma**2 * lam / c
    return ConditionalMixture(log_resp, means, cov_evals, evecs, z, c)


def gmm_marginal(prior: GaussianMixture, sched: Schedule, t: float) -> GaussianMixture:
    """Marginal of x_t: component k becomes N(alpha*mu_k, alpha^2*Sigma_k + sigma^2*I)."""
    alpha, sigma = eval_schedule(sched, t)
    if prior.is_diagonal:
        cov = alpha**2 * prior.covariances + sigma**2
    else:
        cov = alpha**2 * prior.covariances + sigma**2 * np.eye(prior.dim)
    return GaussianMixture(prior.weights, alpha * prior.means, cov)


def gmm_denoise(
    prior: GaussianMixture, sched: Schedule, x: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean of X0 given X_t = x, with component responsibilities.

    At t = 0 the conditional collapses onto x itself; the closed form
    realizes this limit exactly (every component mean equals x there).
    """
    cond = component_posterior(prior, sched, x, t)
    resp = cond.resp
    xhat0 = np.einsum("...k,...kd->...d", resp, cond.means)
    return xhat0, resp


def noise_from_x0(x: np.ndarray, xhat0: np.ndarray, alpha: float, sigma: float) -> np.ndarray:
    """x1_hat = (x - alpha_t * x0_hat) / sigma_t at x_t = x; at t = 0 the
    interpolant carries no noise information and the exact limit is 0."""
    if sigma == 0.0:
        return np.zeros_like(x)
    return (x - alpha * xhat0) / sigma


def gmm_noise_predict(
    prior: GaussianMixture, sched: Schedule, x: np.ndarray, t: float
) -> np.ndarray:
    """Conditional mean of X1 given X_t = x (``noise_from_x0`` of the denoiser)."""
    x = _check_finite(x)
    xhat0, _ = gmm_denoise(prior, sched, x, t)
    return noise_from_x0(x, xhat0, *eval_schedule(sched, t))


def gmm_denoiser_jacobian(
    prior: GaussianMixture,
    sched: Schedule,
    x: np.ndarray,
    t: float,
    identity_at_zero: bool = False,
) -> np.ndarray:
    """Jacobian of the denoiser with respect to x.

    Differentiating the mixture form gives

        J = sum_k r_k [ A_k + m_k (g_k - g_bar)^T ]

    with A_k = alpha * Sigma_k C_k^{-1} the per-component affine slope and
    g_k the gradient of the component log-likelihood of x (g_bar its
    responsibility average).  At t = 0 the denoiser is the identity but
    the quotient form is degenerate; the identity matrix is returned only
    on explicit request.
    """
    x = _check_finite(x)
    alpha, sigma = eval_schedule(sched, t)
    if sigma == 0.0:
        if not identity_at_zero:
            raise ValueError(
                "denoiser Jacobian at t=0 is an exact-limit identity; "
                "pass identity_at_zero=True to request it"
            )
        eye = np.eye(x.shape[-1])
        return np.broadcast_to(eye, x.shape + (x.shape[-1],)).copy()

    cond = component_posterior(prior, sched, x, t)
    resp = cond.resp
    affine = _matrices(alpha * prior._evals / cond.c, cond.cov_evecs)
    jac = np.einsum("...k,kde->...de", resp, affine)
    jac += np.einsum("...k,...kd,...ke->...de", resp, cond.means, cond.centred_scores())
    return jac


# ---------------------------------------------------------------------------
# denoiser interface consumed by the samplers
# ---------------------------------------------------------------------------


class Denoiser(ABC):
    """Behavioral contract every sampler consumes.

    ``denoise`` models E[X0 | X_t = x].  It is the only estimate a sampler
    asks for: every noise estimate is the one tied to it,
    x1_hat = ``noise_from_x0``(x, x0_hat, alpha_t, sigma_t), which for the
    mixture prior is E[X1 | X_t = x] exactly.  ``jacobian`` is an optional
    capability advertised through ``has_jacobian``.
    """

    @abstractmethod
    def denoise(self, x: np.ndarray, t: float) -> np.ndarray: ...

    @property
    def has_jacobian(self) -> bool:
        return False

    def jacobian(self, x: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError("this denoiser does not expose a Jacobian")


class GMMDenoiser(Denoiser):
    """Exact denoiser backed by a Gaussian-mixture prior.

    ``jacobian_calls`` counts Jacobian evaluations; methods that advertise
    themselves as Jacobian-free can be audited against it.
    """

    def __init__(self, prior: GaussianMixture, sched: Schedule):
        self.prior = prior
        self.sched = sched
        self.jacobian_calls = 0

    @property
    def dim(self) -> int:
        return self.prior.dim

    def denoise(self, x: np.ndarray, t: float) -> np.ndarray:
        xhat0, _ = gmm_denoise(self.prior, self.sched, x, t)
        return xhat0

    @property
    def has_jacobian(self) -> bool:
        return True

    def jacobian(self, x: np.ndarray, t: float) -> np.ndarray:
        self.jacobian_calls += 1
        return gmm_denoiser_jacobian(self.prior, self.sched, x, t)

    def reset_jacobian_counter(self) -> None:
        self.jacobian_calls = 0
