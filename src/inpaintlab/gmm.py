"""Gaussian-mixture priors with closed-form denoising.

A mixture prior corrupted by the interpolation x_t = alpha_t * x0 +
sigma_t * x1 stays a mixture at every t, so the quantities a sampler
normally asks a neural network for are available exactly:

- the marginal p_t (``gmm_marginal``),
- the per-component posterior of X0 given X_t = x and its mean
  E[X0 | X_t = x] (``component_posterior``, served to the samplers by
  ``GMMDenoiser``),
- the noise prediction E[X1 | X_t = x], which is the x0 estimate's tied
  noise x1_hat = (x - alpha_t * x0_hat) / sigma_t (``noise_from_x0``),
- the product of the denoiser's Jacobian with a vector
  (``ConditionalMixture.vjp``), its one derivative.

The samplers see the prior through the ``Denoiser`` contract only:
``denoise``, ``evaluate`` (the estimate plus what differentiating it
needs) and ``vjp`` of an evaluation (``GMMDenoiser``, whose ``jacobian``
stacks d of those products).  They derive every noise estimate from the
x0 estimate through ``noise_from_x0``.

Component k of the corrupted mixture is N(alpha*mu_k, C_k) with
C_k = alpha^2 * Sigma_k + sigma^2 * I.  Conditioning on X_t = x gives,
per component,

    m_k(x) = mu_k + A_k (x - alpha * mu_k),   A_k = alpha * Sigma_k C_k^{-1}
    C0_k   = sigma^2 * Sigma_k C_k^{-1}              (x-independent)
    r_k(x) \\propto w_k N(x; alpha * mu_k, C_k)       (responsibilities)

and the denoiser is the responsibility-weighted average of the m_k.
All component matrices of component k share the eigenbasis V_k of
Sigma_k, cached at construction, so A_k, C0_k and C_k^{-1} are diagonal in
it, with eigenvalues alpha * lam_k / c_k, cov_evals_k and 1 / c_k, where
lam_k are the eigenvalues of Sigma_k.

Per-component arrays are component-major.  For points x of shape
(..., d), the whitened offsets, conditional means and scores are
(K, ..., d) and the responsibilities (K, ...); per-component constants are
(K, d) and the bases (K, d, d).  Every responsibility-weighted sum
contracts the leading axis in ``einsum``, with no (..., K, d, d) array.

Each per-component vector is an affine map of the augmented points
xa = [x, 1] and costs one GEMM per component, (N, d+1) @ (K, d+1, d) for
N points.  The maps are built per call in O(K d^3); each stack of
V_k diag(.) V_k^T in them is one batched GEMM (``_matrices``):

    u_k = c_k^{-1/2} V_k^T (x - alpha * mu_k)    (whitened offsets)
    m_k = A_k x + (mu_k - alpha * A_k mu_k)     (means)
    g_k = -C_k^{-1} (x - alpha * mu_k)          (scores)

The linear part sits in the first d rows of a map and the bias in its
last row: V_k diag(c_k^{-1/2}) under -(alpha * mu_k)^T V_k diag(c_k^{-1/2}),
A_k under mu_k^T - alpha * mu_k^T A_k, and -C_k^{-1} under
alpha * mu_k^T C_k^{-1} (A_k and C_k^{-1} are symmetric).  The squared
norm of u_k is the Mahalanobis term of r_k.  ``component_posterior``
writes u, then the means over it, and keeps neither: it forms the
denoiser output from them, and the conditional keeps the mean maps, so
the means (``ConditionalMixture.component_means``) and the scores are
formed again when the product with a vector or the oracle asks.  A
``GMMDenoiser`` passes the one scratch it owns for these (K, ..., d)
products and the rows [x, 1], so its steps allocate neither once the
scratch has grown to the point count.  A diagonal prior carries the
identity as its basis V_k and runs the same GEMMs, which are exact
against it for finite points.  The sums over K stay in ``einsum`` rather
than one long-inner BLAS product, whose rows would depend on the batch
size: row j of every result depends on row j of x alone, so a smaller
batch is a prefix of a larger one.  Responsibilities are computed in the
log domain (component likelihoods underflow at small sigma_t).

Points may be passed as a single vector ``(d,)`` or as a batch ``(..., d)``;
outputs follow the input shape.
"""

from __future__ import annotations

import math
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

    exp(a - max) is taken once, in place, and the maxima are zeroed by
    subtracting the mask (exp(0) is exactly 1).  Where the max is not
    finite the result is not finite either, and the direct form replaces
    it.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        is_max = a == a_max
        e = np.subtract(a, a_max)
        np.exp(e, out=e)
        np.subtract(e, is_max, out=e)
        s = np.sum(e, axis=axis, keepdims=True)
        m = np.count_nonzero(is_max, axis=axis, keepdims=True).astype(float)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m)
        out += a_max
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
    of each full covariance is cached once here; the diagonal layout
    carries a read-only identity eigenbasis, a broadcast view with no copy.
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
        if cov.shape not in ((k, d), (k, d, d)):
            raise ValueError(
                f"covariances shape {cov.shape} incompatible with {k} components in R^{d}"
            )
        if cov.ndim == 3:
            asym = np.max(np.abs(cov - np.swapaxes(cov, -1, -2)), axis=(-2, -1))
            if np.any(asym > 1e-12 * np.max(np.abs(cov), axis=(-2, -1))):
                raise ValueError("covariances must be symmetric within 1e-12 of their scale")
        evals, evecs, bad = _spectra(cov)
        if bad:
            raise ValueError("diagonal covariances must be strictly positive" if cov.ndim == 2
                             else "covariances must be positive definite")
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
        return self.covariances.ndim == 2

    def covariance_matrices(self) -> np.ndarray:
        """Component covariances as full (K, d, d) matrices."""
        if self.is_diagonal:
            return _matrices(self._evals, self._evecs)
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
        return logsumexp(lp + _lift(np.log(self.weights), lp.ndim), axis=0)

    def score(self, x: np.ndarray) -> np.ndarray:
        """Gradient of log density at x."""
        x = np.asarray(x, dtype=float)
        lr = _component_logpdf(x, self.means, self._evals, self._evecs)
        lr += _lift(np.log(self.weights), x.ndim)
        resp = np.exp(lr - logsumexp(lr, axis=0, keepdims=True))
        scores = _apply(_score_maps(self.means, self._evals, self._evecs), _augmented(x))
        return _weighted_sum(resp, scores)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n points: component index first, then the Gaussian draw."""
        if n < 1:
            raise ValueError("n must be positive")
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        scaled = np.sqrt(self._evals[idx]) * eps
        if self.is_diagonal:  # through the basis would gather an (n, d, d) array
            return self.means[idx] + scaled
        return self.means[idx] + np.einsum("nde,ne->nd", self._evecs[idx], scaled)


# ---------------------------------------------------------------------------
# component-major helpers: evecs is the (K, d, d) basis, the identity for a diagonal prior
# ---------------------------------------------------------------------------


def _spectra(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenvalues (K, d) and bases (K, d, d) of covariances given as
    diagonals (K, d) or full matrices (K, d, d), and the number of
    components that are not positive definite: those with an eigenvalue
    at or below 0.  ``GaussianMixture`` rejects a prior with any."""
    if cov.ndim == 2:
        evals, evecs = cov, np.broadcast_to(np.eye(cov.shape[1]), cov.shape + cov.shape[1:])
    else:
        evals, evecs = np.linalg.eigh(cov)
    return evals, evecs, int(np.count_nonzero(np.any(evals <= 0, axis=-1)))


def _lift(a: np.ndarray, ndim: int) -> np.ndarray:
    """Per-component values of shape (K,) or (K, d) reshaped to broadcast
    against component-major arrays of ``ndim`` axes, (K, ...) or (K, ..., d)."""
    return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])


def _weighted_sum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k w[k] v[k]: weights (K, ...) against vectors (K, ..., d)."""
    return np.einsum("k...,k...d->...d", w, v)


def _apply(mats: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v_k @ mats_k for component-major rows v of shape (K, ..., m) and
    matrices (K, m, d): one GEMM per component.  A leading axis of 1 sends
    the same rows through every component's matrix, giving (K, ..., d),
    written into ``out`` when given (a C-contiguous array of that shape,
    so that its reshape is a view)."""
    rows = v.reshape(v.shape[0], -1, v.shape[-1])
    if out is None:
        out = rows @ mats
        return out.reshape(out.shape[:1] + v.shape[1:-1] + mats.shape[-1:])
    np.matmul(rows, mats, out=out.reshape(mats.shape[0], -1, mats.shape[-1]))
    return out


def _matrices(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """V_k diag(evals_k) V_k^T for each component k, as (K, d, d) matrices:
    one batched GEMM."""
    return (evecs * evals[:, None, :]) @ np.swapaxes(evecs, -1, -2)


def _augmented(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[x, 1] for points x of shape (..., d), as (1, ..., d+1): the rows that
    ``_apply`` sends through every component's map, written into ``out``
    when given."""
    if out is None:
        out = np.empty((1,) + x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = x
    out[..., -1] = 1.0
    return out


def _affine_maps(mats: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(K, d+1, d') maps that send [x, 1] to (x - centers_k) @ mats_k."""
    return np.concatenate([mats, -(centers[:, None, :] @ mats)], axis=1)


def _whitening(centers: np.ndarray, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Maps of [x, 1] to the whitened offsets evals_k^{-1/2} V_k^T (x - centers_k)."""
    return _affine_maps(evecs / np.sqrt(evals)[:, None, :], centers)


def _score_maps(centers: np.ndarray, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Maps of [x, 1] to the gradient -Sigma_k^{-1} (x - centers_k) of
    log N(x; centers_k, Sigma_k), Sigma_k = V_k diag(evals_k) V_k^T."""
    return _affine_maps(_matrices(-1.0 / evals, evecs), centers)


def _component_logpdf(
    x: np.ndarray,
    centers: np.ndarray,
    evals: np.ndarray,
    evecs: np.ndarray,
) -> np.ndarray:
    """log N(x; centers_k, V_k diag(evals_k) V_k^T) for each component k, (K, ...)."""
    return _whitened_logpdf(_apply(_whitening(centers, evals, evecs), _augmented(x)), evals)


def _whitened_logpdf(u: np.ndarray, evals: np.ndarray) -> np.ndarray:
    """``_component_logpdf`` from the whitened offsets u, (K, ..., d)."""
    quad = np.einsum("k...d,k...d->k...", u, u)
    logdet = np.sum(np.log(evals), axis=-1)
    return -0.5 * (quad + _lift(logdet, quad.ndim) + u.shape[-1] * _LOG_2PI)


@dataclass(frozen=True)
class ConditionalMixture:
    """Mixture representation of X0 given X_t = x, component-major.

    For x of shape (..., d), component k carries responsibility
    ``exp(log_resp[k])`` with ``log_resp`` of shape (K, ...), mean m_k(x)
    and covariance V_k diag(cov_evals[k]) V_k^T; ``xhat0`` = sum_k r_k m_k
    is the denoiser output, shaped like x.  ``cov_evals`` is (K, d) and
    depends on t only, not on x; ``cov_evecs`` is the (K, d, d) basis V,
    the identity for a diagonal prior.

    No (K, ..., d) array is kept.  ``component_means`` forms the m_k from
    the points ``x`` and the (K, d+1, d) maps ``mean_maps`` of [x, 1],
    whose first d rows are the slopes A_k = alpha * Sigma_k C_k^{-1} of m_k
    in x.  ``vjp`` and the scores also need ``centers[k]`` = alpha * mu_k
    and ``c[k]``, the eigenvalues of C_k, both (K, d).  ``x`` is the
    caller's array, not a copy: it must stay unchanged while the conditional
    is in use.  The ``scratch`` that ``vjp`` and ``component_posterior``
    take is a pair of buffers that they overwrite, (K, ..., d) for the
    products and (1, ..., d+1) for [x, 1]; (None, None) allocates both.
    """

    log_resp: np.ndarray
    xhat0: np.ndarray
    x: np.ndarray
    mean_maps: np.ndarray
    cov_evals: np.ndarray
    cov_evecs: np.ndarray
    centers: np.ndarray
    c: np.ndarray

    @property
    def resp(self) -> np.ndarray:
        return np.exp(self.log_resp)

    def covariance_matrices(self) -> np.ndarray:
        return _matrices(self.cov_evals, self.cov_evecs)

    def component_means(self) -> np.ndarray:
        """m_k = A_k x + (mu_k - alpha * A_k mu_k), (K, ..., d): one GEMM per
        component from [x, 1]."""
        return _apply(self.mean_maps, _augmented(self.x))

    def scores(self) -> np.ndarray:
        """g_k = -C_k^{-1} (x - alpha * mu_k), the gradient of component k's
        log-likelihood of x, (K, ..., d): one GEMM per component from [x, 1]."""
        return _apply(_score_maps(self.centers, self.c, self.cov_evecs), _augmented(self.x))

    def centred_scores(self) -> np.ndarray:
        """g_k - sum_j r_j g_j, (K, ..., d)."""
        g = self.scores()
        return g - _weighted_sum(self.resp, g)

    def vjp(self, v: np.ndarray, scratch: tuple = (None, None)) -> np.ndarray:
        """J^T v for the Jacobian J of ``xhat0`` and v shaped like x.

        J^T v = sum_k r_k A_k v + sum_k r_k (m_k.v - sum_j r_j m_j.v) g_k,
        since A_k is symmetric, read from the first d rows of ``mean_maps``.
        The means, the slope products and the scores are one GEMM per
        component each, formed one after the other in one (K, ..., d)
        buffer from one copy of [x, 1] (the ``scratch`` pair when given),
        and no (..., d, d) array is made.
        """
        prods, rows = scratch
        xa = _augmented(self.x, rows)
        resp = self.resp
        means = _apply(self.mean_maps, xa, prods)
        coef = np.einsum("k...d,...d->k...", means, v)
        coef -= np.sum(resp * coef, axis=0)
        prod = _apply(self.mean_maps[:, :-1], v[None], out=means)
        jtv = _weighted_sum(resp, prod)
        scores = _apply(_score_maps(self.centers, self.c, self.cov_evecs), xa, out=prod)
        jtv += _weighted_sum(resp * coef, scores)
        return jtv


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NumericError("input point contains non-finite values")
    return x


def component_posterior(
    prior: GaussianMixture,
    sched: Schedule,
    x: np.ndarray,
    t: float,
    scratch: tuple = (None, None),
) -> ConditionalMixture:
    """Exact per-component posterior of X0 given the corrupted state x at time t.

    The whitened offsets and the means are formed in one (K, ..., d)
    buffer from one copy of [x, 1], written into the ``scratch`` pair
    described under ``ConditionalMixture`` when it is given; nothing
    returned is a view of the scratch.  At t = 0 the conditional collapses
    onto x itself (every component mean equals x, exactly for a diagonal
    prior and to rounding for full covariances).
    """
    x = _check_finite(x)
    alpha, sigma = eval_schedule(sched, t)
    lam, evecs = prior._evals, prior._evecs
    c = alpha**2 * lam + sigma**2  # eigenvalues of C_k, positive for every t
    slope = alpha * lam / c
    centers = alpha * prior.means

    prods, rows = scratch
    xa = _augmented(x, rows)
    u = _apply(_whitening(centers, c, evecs), xa, prods)
    log_resp = _whitened_logpdf(u, c)
    log_resp += _lift(np.log(prior.weights), x.ndim)
    log_resp -= logsumexp(log_resp, axis=0, keepdims=True)

    # m_k = A_k x + (mu_k - alpha A_k mu_k), written over the whitened offsets u
    maps = _affine_maps(_matrices(slope, evecs), centers)
    maps[:, -1] += prior.means
    xhat0 = _weighted_sum(np.exp(log_resp), _apply(maps, xa, out=u))
    cov_evals = sigma**2 * lam / c
    return ConditionalMixture(log_resp, xhat0, x, maps, cov_evals, evecs, centers, c)


def gmm_marginal(prior: GaussianMixture, sched: Schedule, t: float) -> GaussianMixture:
    """Marginal of x_t: component k becomes N(alpha*mu_k, alpha^2*Sigma_k + sigma^2*I)."""
    alpha, sigma = eval_schedule(sched, t)
    if prior.is_diagonal:
        cov = alpha**2 * prior.covariances + sigma**2
    else:
        cov = alpha**2 * prior.covariances + sigma**2 * np.eye(prior.dim)
    return GaussianMixture(prior.weights, alpha * prior.means, cov)


def noise_from_x0(x: np.ndarray, xhat0: np.ndarray, alpha: float, sigma: float) -> np.ndarray:
    """x1_hat = (x - alpha_t * x0_hat) / sigma_t at x_t = x, formed in one
    fresh buffer shaped like x0_hat (x must broadcast to it); at t = 0 the
    interpolant carries no noise information and the exact limit is 0."""
    if sigma == 0.0:
        return np.zeros_like(x)
    out = np.multiply(alpha, xhat0)
    np.subtract(x, out, out=out)
    out /= sigma
    return out


# ---------------------------------------------------------------------------
# denoiser interface consumed by the samplers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Evaluation:
    """One denoiser evaluation at time t: the estimate ``xhat0`` of
    E[X0 | X_t = x], plus ``state``, what the denoiser keeps of the
    evaluation so that ``Denoiser.vjp`` can differentiate it without
    evaluating again (the ``ConditionalMixture`` for ``GMMDenoiser``)."""

    t: float
    xhat0: np.ndarray
    state: object = None


class Denoiser(ABC):
    """Behavioral contract every sampler consumes.

    ``denoise`` models E[X0 | X_t = x].  It is the only estimate a sampler
    asks for: every noise estimate is the one tied to it,
    x1_hat = ``noise_from_x0``(x, x0_hat, alpha_t, sigma_t), which for the
    mixture prior is E[X1 | X_t = x] exactly.  ``evaluate`` returns the
    same estimate as an ``Evaluation``, and ``vjp`` applies the transpose
    of the estimate's Jacobian at that evaluation to one vector per point;
    only dps calls it, and a denoiser that cannot form it keeps the base
    ``vjp``, which raises NotImplementedError.
    """

    @abstractmethod
    def denoise(self, x: np.ndarray, t: float) -> np.ndarray: ...

    def evaluate(self, x: np.ndarray, t: float) -> Evaluation:
        return Evaluation(t, self.denoise(x, t))

    def vjp(self, ev: Evaluation, v: np.ndarray) -> np.ndarray:
        """J^T v for J = d xhat0 / dx at the point and time of the
        evaluation, and v shaped like the point, in a fresh array that the
        caller may overwrite.  An evaluation stays valid after later ones,
        but it may read the point it was evaluated at, so the caller must
        not overwrite that point while it holds the evaluation."""
        raise NotImplementedError(f"{type(self).__name__} has no vector-Jacobian product")


class GMMDenoiser(Denoiser):
    """Exact denoiser backed by a Gaussian-mixture prior.

    ``evaluate`` keeps the ``ConditionalMixture`` behind its estimate, and
    ``vjp`` differentiates it with no second posterior evaluation and no
    (..., d, d) array: it is the closed form ``ConditionalMixture.vjp``.
    ``jacobian`` stacks d of those products into the dense matrix.
    ``jacobian_calls`` counts one per ``vjp`` or ``jacobian`` call; methods
    that advertise themselves as Jacobian-free can be audited against it.

    The denoiser owns the scratch of its evaluations and products: one
    (K, N, d) buffer for the per-component products and one (N, d+1)
    buffer for the rows [x, 1], grown to the largest point count N seen
    and reused by every ``evaluate``, ``vjp`` and ``jacobian``.  No array
    these calls return is a view of the scratch, so an evaluation stays
    valid after the next one, but one denoiser must not evaluate in two
    threads at once.
    """

    def __init__(self, prior: GaussianMixture, sched: Schedule):
        self.prior = prior
        self.sched = sched
        self.jacobian_calls = 0
        self._prods = self._rows = np.empty(0)

    @property
    def dim(self) -> int:
        return self.prior.dim

    def denoise(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.evaluate(x, t).xhat0

    def evaluate(self, x: np.ndarray, t: float) -> Evaluation:
        x = np.asarray(x, dtype=float)
        cond = component_posterior(self.prior, self.sched, x, t, self._scratch(x.shape))
        return Evaluation(t, cond.xhat0, cond)

    def jacobian(self, ev: Evaluation) -> np.ndarray:
        """d xhat0 / dx at the point and time of the evaluation, (..., d, d):
        row i is J^T e_i, the ``vjp`` of the i-th unit vector."""
        self._count_jacobian(ev)
        shape = ev.xhat0.shape
        scratch = self._scratch(shape)
        rows = [ev.state.vjp(np.broadcast_to(e, shape), scratch) for e in np.eye(self.dim)]
        return np.stack(rows, axis=-2)

    def vjp(self, ev: Evaluation, v: np.ndarray) -> np.ndarray:
        self._count_jacobian(ev)
        scratch = self._scratch(ev.xhat0.shape)
        return ev.state.vjp(np.asarray(v, dtype=float), scratch)

    def _scratch(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The (K, ..., d) products and (1, ..., d+1) rows of points shaped
        (..., d), as views of the leading part of the denoiser's buffers,
        about to be overwritten."""
        k, d = self.prior.n_components, self.dim
        n = math.prod(shape[:-1])
        if self._rows.size < n * (d + 1):
            self._prods, self._rows = np.empty(k * n * d), np.empty(n * (d + 1))
        prods = self._prods[: k * n * d].reshape((k,) + shape[:-1] + (d,))
        return prods, self._rows[: n * (d + 1)].reshape((1,) + shape[:-1] + (d + 1,))

    def _count_jacobian(self, ev: Evaluation) -> None:
        self.jacobian_calls += 1
        if eval_schedule(self.sched, ev.t)[1] == 0.0:
            raise ValueError("denoiser Jacobian is not defined at t=0 (sigma_t = 0); "
                             "evaluate at t > 0")

    def reset_jacobian_counter(self) -> None:
        self.jacobian_calls = 0
