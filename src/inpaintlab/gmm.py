"""Gaussian-mixture priors with closed-form denoising.

A mixture prior corrupted by the interpolation x_t = alpha_t * x0 +
sigma_t * x1 stays a mixture at every t, so the quantities a sampler
normally asks a neural network for are available exactly:

- the marginal p_t (``gmm_marginal``),
- the per-component posterior of X0 given X_t = x and its mean
  E[X0 | X_t = x] (``component_posterior``, served to the samplers by
  ``GMMDenoiser``),
- log p_t(x) and its gradient at the points of that posterior
  (``ConditionalMixture.log_marginal`` and ``marginal_score``), which
  ``GaussianMixture.log_density`` and ``score`` read at t = 0,
- the noise prediction E[X1 | X_t = x], which is the x0 estimate's tied
  noise x1_hat = (x - alpha_t * x0_hat) / sigma_t (``noise_from_x0``),
- the product of the denoiser's Jacobian with a vector
  (``ConditionalMixture.vjp``), its one derivative.

The samplers see the prior through the ``Denoiser`` contract only:
``evaluate``, whose ``Evaluation`` carries the estimate, and ``vjp`` of an
evaluation (``GMMDenoiser``, whose evaluation is the ``ConditionalMixture``
itself and whose ``jacobian`` stacks d of those products).  They derive
every noise estimate from the x0 estimate through ``noise_from_x0``.

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

Per-component arrays are component-major, and the products are
points-last: the N points of a call, x of shape (..., d), are the columns
of the (d+1, M) rows [x, 1]^T, so the whitened offsets, conditional means
and scores are formed as (K, d, M) and the log responsibilities as
(K, M), with the chains along the contiguous axis.  M = max(N, 2): a
single point gets the zero point as a second column, since numpy sends a
one-column product to gemv and a one-column ``einsum`` to its dot loop,
which round otherwise.  Every public result keeps the caller's layout:
the denoiser output and ``vjp`` are shaped like x, and the means and
scores that ``ConditionalMixture`` returns are (K, ..., d), each
transposed back once into the fresh array returned.  Per-component
constants are (K, d) and the bases (K, d, d).  No (..., K, d, d) array
is made.

Each per-component vector is an affine map of the columns [x, 1]^T and
costs one GEMM per component, (K, d, d+1) @ (d+1, M).  The maps are built
per call in O(K d^3); each stack of V_k diag(.) V_k^T in them is one
batched GEMM (``_matrices``):

    u_k = c_k^{-1/2} V_k^T (x - alpha * mu_k)    (whitened offsets)
    m_k = A_k x + (mu_k - alpha * A_k mu_k)     (means)
    g_k = -C_k^{-1} (x - alpha * mu_k)          (scores)

The linear part sits in the first d columns of a map and the bias in its
last column: diag(c_k^{-1/2}) V_k^T beside -diag(c_k^{-1/2}) V_k^T alpha
mu_k, A_k beside mu_k - alpha * A_k mu_k, and -C_k^{-1} beside alpha *
C_k^{-1} mu_k (A_k and C_k^{-1} are symmetric).  The squared norm of u_k
is the Mahalanobis term of r_k, added over the coordinates of a column in
index order.  ``component_posterior`` writes u, then the means over it,
and keeps neither: it forms the denoiser output from them, and the
conditional keeps the mean maps, so the means
(``ConditionalMixture.component_means``) and the scores are formed again
when the product with a vector, the marginal score or the oracle asks.  A
``GMMDenoiser`` passes the one scratch it owns for these (K, d, M)
products and the rows [x, 1]^T, and each (d, M) sum over K is written over
spent rows or into the array returned, so its steps allocate none of these
once the scratch has grown to the point count.  A diagonal prior carries
the identity as its basis V_k and runs the same GEMMs, which are exact
against it for finite points.  The sums over K stay in ``einsum``, in
index order, rather than one long-inner BLAS product, whose rows would
depend on the batch size: row j of every result depends on point j alone,
so a smaller batch, one point included, is a prefix of a larger one.
Responsibilities are computed in the log domain (component likelihoods
underflow at small sigma_t).

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

    When every reduced slice has a finite max that occurs exactly once,
    which is the rule for continuous inputs, the result is log1p(s) + max
    with no count, division or fallback, and its bits are the same: every
    slice has at least one entry equal to its finite max, so a total count
    of maxima equal to the number of slices means exactly one each; then
    s / 1 is s, log(1) adds an exact 0 to log1p(s) >= +0, and the sum with
    a finite max is finite.  Ties, NaN and infinite maxima take the
    general path.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axis, keepdims=True)
        is_max = a == a_max
        e = np.subtract(a, a_max)
        np.exp(e, out=e)
        np.subtract(e, is_max, out=e)
        s = e.sum(axis=axis, keepdims=True)
        if np.count_nonzero(is_max) == s.size and np.isfinite(a_max).all():
            out = np.log1p(s, out=s)
            out += a_max
        else:
            m = np.count_nonzero(is_max, axis=axis, keepdims=True).astype(float)
            out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m)
            out += a_max
            finite = np.isfinite(out)
            if not finite.all():
                direct = np.log(np.exp(a).sum(axis=axis, keepdims=True))
                out = np.where(finite, out, direct)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Finite Gaussian mixture with diagonal or full covariances.

    ``covariances`` is either ``(K, d)`` (the diagonals) or ``(K, d, d)``
    (full symmetric positive-definite matrices).  The eigendecomposition
    of each full covariance is cached once here; the diagonal layout
    carries a read-only identity eigenbasis, a broadcast view with no copy.
    ``log_weights`` is the read-only np.log of ``weights``, taken once here
    for every likelihood that the mixture weights.
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

        for name, a in (("weights", w), ("means", mu), ("covariances", cov)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
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
        log_weights = np.log(w)
        log_weights.setflags(write=False)
        object.__setattr__(self, "log_weights", log_weights)

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
        """log p(x), read from ``component_posterior`` at t = 0, where every
        schedule leaves the mixture as it is; a non-finite x raises NumericError."""
        return component_posterior(self, Schedule(), x, 0.0).log_marginal

    def score(self, x: np.ndarray) -> np.ndarray:
        """Gradient of log density at x."""
        return component_posterior(self, Schedule(), x, 0.0).marginal_score()

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
# component-major, points-last helpers: evecs is the (K, d, d) basis, the identity for a
# diagonal prior, and points are the columns of (..., d, M) arrays
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


def _columns(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Points v of shape (..., d) written as the first columns of ``out``,
    (d, M) for M at least the point count, with the zero point in every
    column past them."""
    d = v.shape[-1]
    n = v.size // d
    out[:, :n] = v.reshape(n, d).T
    out[:, n:] = 0.0
    return out


def _rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[x, 1]^T for N points x of shape (..., d), as the (d+1, M) columns
    that every component's map multiplies, M = max(N, 2), written into
    ``out`` when given.  Every product and sum over columns spans at least
    2 of them: numpy sends a one-column product to gemv and a one-column
    ``einsum`` to its dot loop, which round otherwise."""
    if out is None:
        out = np.empty((x.shape[-1] + 1, max(x.size // x.shape[-1], 2)))
    _columns(x, out[:-1])
    out[-1] = 1.0
    return out


def _points(cols: np.ndarray, batch: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """Columns (..., d, M) back as points: the first prod(batch) columns as
    a (..., *batch, d) array, written into the leading part of the flat
    array ``out`` when given and into a fresh one otherwise."""
    pts = np.swapaxes(cols[..., : math.prod(batch)], -1, -2)
    out = np.empty(pts.shape) if out is None else out[: pts.size].reshape(pts.shape)
    out[...] = pts
    return out.reshape(cols.shape[:-2] + batch + cols.shape[-2:-1])


def _weighted_sum(w: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_k w[k] v[k] over the columns: weights (K, M) against vectors
    (K, d, M), (d, M), written into ``out`` when given."""
    return np.einsum("km,kdm->dm", w, v, out=out)


def _matrices(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """V_k diag(evals_k) V_k^T for each component k, as (K, d, d) matrices:
    one batched GEMM."""
    return (evecs * evals[:, None, :]) @ np.swapaxes(evecs, -1, -2)


def _affine_maps(mats: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(K, d', d+1) maps that send [x, 1]^T to mats_k^T (x - centers_k)."""
    bias = -(centers[:, None, :] @ mats)
    return np.concatenate([np.swapaxes(mats, -1, -2), np.swapaxes(bias, -1, -2)], axis=-1)


def _whitening(centers: np.ndarray, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Maps of [x, 1]^T to the whitened offsets evals_k^{-1/2} V_k^T (x - centers_k)."""
    return _affine_maps(evecs / np.sqrt(evals)[:, None, :], centers)


def _score_maps(centers: np.ndarray, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Maps of [x, 1]^T to the gradient -Sigma_k^{-1} (x - centers_k) of
    log N(x; centers_k, Sigma_k), Sigma_k = V_k diag(evals_k) V_k^T."""
    return _affine_maps(_matrices(-1.0 / evals, evecs), centers)


def _whitened_logpdf(u: np.ndarray, evals: np.ndarray) -> np.ndarray:
    """log N of each column from its whitened offsets u, (K, d, M) -> (K, M).
    The Mahalanobis term adds the d squares of a column in index order; the
    constants are added to it and the result scaled in its own buffer, in
    the order of -0.5 * (quad + logdet + d log 2 pi)."""
    quad = np.einsum("kdm,kdm->km", u, u)
    quad += np.log(evals).sum(axis=-1)[:, None]
    quad += u.shape[1] * _LOG_2PI
    quad *= -0.5
    return quad


def _per_point(a: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """Per-component values over columns (K, M) as (K, *batch), a view."""
    return a[:, : math.prod(batch)].reshape(a.shape[:1] + batch)


@dataclass(frozen=True, eq=False)
class Evaluation:
    """One denoiser evaluation at time t: the estimate ``xhat0`` of
    E[X0 | X_t = x], shaped like x.  A denoiser that can differentiate its
    estimate returns a subclass that keeps what ``Denoiser.vjp`` needs, so
    that it never evaluates again (``ConditionalMixture`` for
    ``GMMDenoiser``)."""

    t: float
    xhat0: np.ndarray


@dataclass(frozen=True, eq=False)
class ConditionalMixture(Evaluation):
    """Mixture representation of X0 given X_t = x, component-major.

    It is the ``Evaluation`` at time ``t`` that ``GMMDenoiser`` returns:
    for x of shape (..., d), component k carries responsibility
    ``exp(log_resp[k])`` with ``log_resp`` of shape (K, ...), mean m_k(x)
    and covariance V_k diag(cov_evals[k]) V_k^T; ``xhat0`` = sum_k r_k m_k
    is the denoiser output, shaped like x.  ``cov_evals`` is (K, d) and
    depends on t only, not on x; ``cov_evecs`` is the (K, d, d) basis V,
    the identity for a diagonal prior.

    The log responsibilities are kept over the M columns of the products,
    ``log_resp_cols`` (K, M), whose first N are the N points (the module
    docstring has the layout); ``log_resp`` is their view in the shape of x.
    Their normaliser, log p_t(x), is kept as ``log_marginal_cols`` (1, M),
    which ``log_marginal`` reads in the shape of the points.  No (K, ..., d)
    array is kept.  ``component_means`` forms the m_k from the points ``x``
    and the (K, d, d+1) maps ``mean_maps`` of [x, 1]^T, whose first d
    columns are the slopes A_k = alpha * Sigma_k C_k^{-1} of m_k in x.
    ``vjp`` and the scores also need ``centers[k]`` = alpha * mu_k and
    ``c[k]``, the eigenvalues of C_k, both (K, d).  ``x`` is the caller's
    array, not a copy: it must stay unchanged while the conditional is in
    use.  The ``scratch`` that ``vjp`` and ``component_posterior`` take is a
    pair of buffers that they overwrite, (K, d, M) for the products and
    (d+1, M) for [x, 1]^T; (None, None) allocates both.
    """

    log_resp_cols: np.ndarray
    log_marginal_cols: np.ndarray
    x: np.ndarray
    mean_maps: np.ndarray
    cov_evals: np.ndarray
    cov_evecs: np.ndarray
    centers: np.ndarray
    c: np.ndarray

    @property
    def log_resp(self) -> np.ndarray:
        return _per_point(self.log_resp_cols, self.x.shape[:-1])

    @property
    def resp(self) -> np.ndarray:
        return np.exp(self.log_resp)

    @property
    def log_marginal(self) -> np.ndarray:
        """log p_t(x), shaped like the points: (...), a numpy scalar for one point."""
        return _per_point(self.log_marginal_cols, self.x.shape[:-1])[0]

    def covariance_matrices(self) -> np.ndarray:
        return _matrices(self.cov_evals, self.cov_evecs)

    def component_means(self) -> np.ndarray:
        """m_k = A_k x + (mu_k - alpha * A_k mu_k), (K, ..., d): one GEMM per
        component from [x, 1]^T."""
        return _points(self.mean_maps @ _rows(self.x), self.x.shape[:-1])

    def scores(self) -> np.ndarray:
        """g_k = -C_k^{-1} (x - alpha * mu_k), the gradient of component k's
        log-likelihood of x, (K, ..., d): one GEMM per component from [x, 1]^T."""
        return _points(self._score_maps() @ _rows(self.x), self.x.shape[:-1])

    def slope_products(self, w: np.ndarray) -> np.ndarray:
        """A_k^T w_k for one vector per component, w of shape (K, ..., d):
        (K, ..., d), one GEMM per component with the slopes read from the
        first d columns of ``mean_maps``."""
        rows = w.reshape(w.shape[0], -1, w.shape[-1])
        return (rows @ np.swapaxes(self.mean_maps[:, :, :-1], -1, -2)).reshape(w.shape)

    def marginal_score(self) -> np.ndarray:
        """sum_k r_k g_k, the score grad log p_t(x) of the marginal, shaped like x."""
        g = self._score_maps() @ _rows(self.x)
        return _points(_weighted_sum(np.exp(self.log_resp_cols), g), self.x.shape[:-1])

    def centred_scores(self) -> np.ndarray:
        """g_k - sum_j r_j g_j, (K, ..., d): the scores and their weighted sum
        from one GEMM per component."""
        g = self._score_maps() @ _rows(self.x)
        batch = self.x.shape[:-1]
        return _points(g, batch) - _points(_weighted_sum(np.exp(self.log_resp_cols), g), batch)

    def vjp(self, v: np.ndarray, scratch: tuple = (None, None)) -> np.ndarray:
        """J^T v for the Jacobian J of ``xhat0`` and v shaped like x.

        J^T v = sum_k r_k A_k v + sum_k r_k (m_k.v - sum_j r_j m_j.v) g_k,
        since A_k is symmetric, read from the first d columns of
        ``mean_maps``.  The means, the slope products and the scores are
        one GEMM per component each, formed one after the other in one
        (K, d, M) buffer from one copy of [x, 1]^T (the ``scratch`` pair
        when given), and no (..., d, d) array is made.  The (d, M) columns
        of v, and then the first sum, are held in the fresh array that is
        returned; the second sum and the total are written over the rows
        once the scores are formed, and transposed into it last.
        """
        prods, rows = scratch
        xa = _rows(self.x, rows)
        jtv = np.empty(xa[:-1].size)
        v_cols = _columns(v, jtv.reshape(xa[:-1].shape))
        resp = np.exp(self.log_resp_cols)
        means = np.matmul(self.mean_maps, xa, out=prods)
        coef = np.einsum("kdm,dm->km", means, v_cols)
        coef -= (resp * coef).sum(axis=0)
        prod = np.matmul(self.mean_maps[:, :, :-1], v_cols, out=means)
        first = _weighted_sum(resp, prod, out=v_cols)
        scores = np.matmul(self._score_maps(), xa, out=prod)
        total = _weighted_sum(resp * coef, scores, out=xa[:-1])
        total += first
        return _points(total, self.x.shape[:-1], out=jtv)

    def _score_maps(self) -> np.ndarray:
        return _score_maps(self.centers, self.c, self.cov_evecs)


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
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

    The whitened offsets and the means are formed in one (K, d, M) buffer
    from one copy of [x, 1]^T, and their weighted sum over the x rows of
    that copy, all written into the ``scratch`` described under
    ``ConditionalMixture`` when it is given; nothing returned is a view of
    the scratch.  At t = 0 the conditional collapses onto x itself (every
    component mean equals x, exactly for a diagonal prior and to rounding
    for full covariances).
    """
    x = _check_finite(x)
    alpha, sigma = eval_schedule(sched, t)
    lam, evecs = prior._evals, prior._evecs
    c = alpha**2 * lam + sigma**2  # eigenvalues of C_k, positive for every t
    slope = alpha * lam / c
    centers = alpha * prior.means

    prods, rows = scratch
    xa = _rows(x, rows)
    u = np.matmul(_whitening(centers, c, evecs), xa, out=prods)
    log_resp = _whitened_logpdf(u, c)
    log_resp += prior.log_weights[:, None]
    log_marginal = logsumexp(log_resp, axis=0, keepdims=True)
    log_resp -= log_marginal

    # m_k = A_k x + (mu_k - alpha A_k mu_k), written over the whitened offsets u
    maps = _affine_maps(_matrices(slope, evecs), centers)
    maps[:, :, -1] += prior.means
    means = np.matmul(maps, xa, out=u)
    xhat0 = _weighted_sum(np.exp(log_resp), means, out=xa[:-1])
    cov_evals = sigma**2 * lam / c
    return ConditionalMixture(t, _points(xhat0, x.shape[:-1]), log_resp, log_marginal, x, maps,
                              cov_evals, evecs, centers, c)


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


class Denoiser(ABC):
    """Behavioral contract every sampler consumes: two calls.

    ``evaluate`` returns an ``Evaluation`` whose ``xhat0`` models
    E[X0 | X_t = x].  It is the only estimate a sampler asks for: every
    noise estimate is the one tied to it,
    x1_hat = ``noise_from_x0``(x, x0_hat, alpha_t, sigma_t), which for the
    mixture prior is E[X1 | X_t = x] exactly.  ``vjp`` applies the
    transpose of the estimate's Jacobian at an evaluation to one vector per
    point; only dps calls it, and a denoiser that cannot form it keeps the
    base ``vjp``, which raises NotImplementedError.  ``run_unconditional``
    also reads the point dimension ``dim``.
    """

    @abstractmethod
    def evaluate(self, x: np.ndarray, t: float) -> Evaluation: ...

    def vjp(self, ev: Evaluation, v: np.ndarray) -> np.ndarray:
        """J^T v for J = d xhat0 / dx at the point and time of the
        evaluation, and v shaped like the point, in a fresh array that the
        caller may overwrite.  An evaluation stays valid after later ones,
        but it may read the point it was evaluated at, so the caller must
        not overwrite that point while it holds the evaluation."""
        raise NotImplementedError(f"{type(self).__name__} has no vector-Jacobian product")


class GMMDenoiser(Denoiser):
    """Exact denoiser backed by a Gaussian-mixture prior.

    ``evaluate`` returns the ``ConditionalMixture`` of X0 given X_t = x
    itself as its evaluation, and ``vjp`` differentiates it with no second
    posterior evaluation and no (..., d, d) array: it is the closed form
    ``ConditionalMixture.vjp``.
    ``jacobian`` stacks d of those products into the dense matrix.
    ``jacobian_calls`` counts one per ``vjp`` or ``jacobian`` call; methods
    that advertise themselves as Jacobian-free can be audited against it.

    The denoiser owns the scratch of its evaluations and products, laid
    out points-last as in the module docstring: one (K, d, M) buffer for
    the per-component products and one (d+1, M) buffer for the rows
    [x, 1]^T, with M = max(N, 2) columns for N points.  They are grown to the
    largest point count seen and reused by every ``evaluate``, ``vjp`` and
    ``jacobian``.  No array these calls return is a view of the scratch,
    so an evaluation stays valid after the next one, but one denoiser must
    not evaluate in two threads at once.
    """

    def __init__(self, prior: GaussianMixture, sched: Schedule):
        self.prior = prior
        self.sched = sched
        self.jacobian_calls = 0
        self._prods = self._rows = np.empty(0)

    @property
    def dim(self) -> int:
        return self.prior.dim

    def evaluate(self, x: np.ndarray, t: float) -> ConditionalMixture:
        x = np.asarray(x, dtype=float)
        return component_posterior(self.prior, self.sched, x, t, self._scratch(x.shape))

    def jacobian(self, ev: ConditionalMixture) -> np.ndarray:
        """d xhat0 / dx at the point and time of the evaluation, (..., d, d):
        row i is J^T e_i, the ``vjp`` of the i-th unit vector."""
        self._count_jacobian(ev)
        shape = ev.xhat0.shape
        scratch = self._scratch(shape)
        rows = [ev.vjp(np.broadcast_to(e, shape), scratch) for e in np.eye(self.dim)]
        return np.stack(rows, axis=-2)

    def vjp(self, ev: ConditionalMixture, v: np.ndarray) -> np.ndarray:
        self._count_jacobian(ev)
        scratch = self._scratch(ev.xhat0.shape)
        return ev.vjp(np.asarray(v, dtype=float), scratch)

    def _scratch(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The (K, d, M) products and (d+1, M) rows of points shaped
        (..., d), as views of the leading part of the denoiser's buffers,
        about to be overwritten."""
        k, d = self.prior.n_components, self.dim
        m = max(math.prod(shape[:-1]), 2)
        if self._rows.size < m * (d + 1):
            self._prods, self._rows = np.empty(k * d * m), np.empty((d + 1) * m)
        prods = self._prods[: k * d * m].reshape(k, d, m)
        return prods, self._rows[: (d + 1) * m].reshape(d + 1, m)

    def _count_jacobian(self, ev: Evaluation) -> None:
        self.jacobian_calls += 1
        if eval_schedule(self.sched, ev.t)[1] == 0.0:
            raise ValueError("denoiser Jacobian is not defined at t=0 (sigma_t = 0); "
                             "evaluate at t > 0")
