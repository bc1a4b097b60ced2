"""Desk-scale evaluation: context PSNR, sliced Wasserstein-2, moment gaps."""

from __future__ import annotations

import math

import numpy as np

from .gmm import GaussianMixture
from .problem import MaskOperator

# bytes of one projection buffer in sliced W2; the metric holds two
BLOCK_BYTES = 1 << 18


def cpsnr(x: np.ndarray, x_ref: np.ndarray, mask: MaskOperator, peak: float) -> float | np.ndarray:
    """PSNR over the observed coordinates only; +inf on an exact match.

    A point ``(d,)`` gives one float; a batch ``(n, d)`` gives one PSNR per
    row, each over that row's observed coordinates.  The infinity sentinel
    is deliberate: capping would silently corrupt aggregate tables.
    """
    if not 0 < peak < math.inf:
        raise ValueError("peak must be finite and strictly positive")
    obs = mask.observed_idx
    if obs.size == 0:
        raise ValueError("cpsnr needs at least one observed coordinate")
    x = np.asarray(x, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    # np.take keeps rows contiguous, so each row sums in its own 1-D order
    mse = np.mean((np.take(x, obs, axis=-1) - np.take(x_ref, obs, axis=-1)) ** 2, axis=-1)
    # math.log10 per row: numpy's vectorized log10 may differ in the last bit
    psnr = [
        math.inf if m == 0.0 else 10.0 * math.log10(peak**2 / m)
        for m in np.atleast_1d(mse).tolist()
    ]
    return psnr[0] if mse.ndim == 0 else np.array(psnr)


def _quantiles(sorted_vals: np.ndarray, qs: np.ndarray) -> np.ndarray:
    n = sorted_vals.size
    return np.interp(qs, (np.arange(n) + 0.5) / n, sorted_vals)


def sliced_w2(a: np.ndarray, b: np.ndarray, n_projections: int = 128, seed: int = 0) -> float:
    """Sliced Wasserstein-2 distance between two (n, d) sample matrices.

    Root mean, over random unit directions, of the squared 1-D W2 between
    the projected samples.  Equal sizes pair sorted projections directly;
    unequal sizes compare linearly interpolated quantile functions on a
    common midpoint grid.  Deterministic given the seed.  On top of its
    inputs it holds at most 512 KiB of projections, or one row pair when
    a matrix has more than 32,768 samples, and the directions and their
    per-direction results, (d + 1) * 8 bytes per projection.
    """
    xa, xb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for name, x in (("a", xa), ("b", xb)):
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"{name} must be an (n, d) matrix with n >= 1, got shape {x.shape}")
    if xa.shape[1] != xb.shape[1]:
        raise ValueError(f"dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}")
    if n_projections < 1:
        raise ValueError("need at least one projection")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_projections, xa.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return _sliced_w2_projected(xa, xb, dirs)


def _sliced_w2_projected(xa: np.ndarray, xb: np.ndarray, dirs: np.ndarray) -> float:
    # the directions go through in blocks: one contiguous row per projection
    # in a pair of (rows, n) buffers allocated once per call, so the metric
    # holds at most 2 * BLOCK_BYTES (512 KiB) of projections (one row pair
    # when a row alone is larger, above 32,768 samples) on top of its
    # inputs.  einsum keeps each projection independent of row order, so
    # equal multisets score exactly zero (BLAS matmul varies in the last
    # ulp); each row is sorted in place and takes the same operations in
    # the same order whatever block it falls in.
    na, nb = xa.shape[0], xb.shape[0]
    n_proj = dirs.shape[0]
    rows = min(n_proj, max(1, BLOCK_BYTES // (8 * max(na, nb))))
    buf_a, buf_b = np.empty((rows, na)), np.empty((rows, nb))
    w2sq = np.empty(n_proj)
    if na != nb:
        m = max(na, nb)
        qs = (np.arange(m) + 0.5) / m
    for lo in range(0, n_proj, rows):
        block = dirs[lo : lo + rows]
        pa = np.einsum("pd,nd->pn", block, xa, out=buf_a[: len(block)])
        pa.sort()
        pb = np.einsum("pd,nd->pn", block, xb, out=buf_b[: len(block)])
        pb.sort()
        if na == nb:
            # the running sum adds each row in order, as a mean over the
            # columns of an (n, n_projections) array does, so every value
            # is the same to the bit
            pa -= pb
            pa *= pa
            np.add.accumulate(pa, axis=1, out=pa)
            w2sq[lo : lo + len(block)] = pa[:, -1] / na
        else:
            for j in range(len(block)):
                qa = _quantiles(pa[j], qs)
                qb = _quantiles(pb[j], qs)
                w2sq[lo + j] = np.mean((qa - qb) ** 2)
    return float(np.sqrt(np.mean(w2sq)))


def moment_diff(a: np.ndarray, ref: GaussianMixture) -> tuple[float, float]:
    """(Euclidean mean gap, Frobenius covariance gap) against a mixture."""
    x = np.asarray(a, dtype=float)
    if x.shape[1] != ref.dim:
        raise ValueError(f"dimension mismatch: samples {x.shape[1]}, mixture {ref.dim}")
    if x.shape[0] < 2:
        raise ValueError("covariance needs at least two samples")
    mean_err = float(np.linalg.norm(x.mean(axis=0) - ref.mean()))
    cov_err = float(np.linalg.norm(np.cov(x.T, ddof=1) - ref.covariance()))
    return mean_err, cov_err
