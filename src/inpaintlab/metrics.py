"""Desk-scale evaluation: context PSNR, sliced Wasserstein-2, moment gaps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gmm import GaussianMixture
from .problem import MaskOperator


@dataclass(frozen=True)
class SampleSet:
    """Terminal states of a sampler run, one row per chain."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] < 1:
            raise ValueError("samples must be a non-empty (n, d) matrix")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", s)


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, SampleSet):
        return a.samples
    return np.asarray(a, dtype=float)


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


def sliced_w2(a, b, n_projections: int = 128, seed: int = 0) -> float:
    """Sliced Wasserstein-2 distance between two empirical sample sets.

    Root mean, over random unit directions, of the squared 1-D W2 between
    the projected samples.  Equal sizes pair sorted projections directly;
    unequal sizes compare linearly interpolated quantile functions on a
    common midpoint grid.  Deterministic given the seed.
    """
    xa, xb = _as_matrix(a), _as_matrix(b)
    if xa.shape[1] != xb.shape[1]:
        raise ValueError(f"dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}")
    if n_projections < 1:
        raise ValueError("need at least one projection")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_projections, xa.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return _sliced_w2_projected(xa, xb, dirs)


def _sliced_w2_projected(xa: np.ndarray, xb: np.ndarray, dirs: np.ndarray) -> float:
    # einsum keeps each row's projection independent of row order, so equal
    # multisets score exactly zero (BLAS matmul varies in the last ulp)
    pa = np.einsum("nd,pd->np", xa, dirs)
    pa.sort(axis=0)
    pb = np.einsum("nd,pd->np", xb, dirs)
    pb.sort(axis=0)
    if pa.shape[0] == pb.shape[0]:
        # in place: these (n, n_projections) arrays set the peak memory of a run
        pa -= pb
        pa *= pa
        w2sq = np.mean(pa, axis=0)
    else:
        m = max(pa.shape[0], pb.shape[0])
        qs = (np.arange(m) + 0.5) / m
        w2sq = np.empty(dirs.shape[0])
        for j in range(dirs.shape[0]):
            qa = _quantiles(pa[:, j], qs)
            qb = _quantiles(pb[:, j], qs)
            w2sq[j] = np.mean((qa - qb) ** 2)
    return float(np.sqrt(np.mean(w2sq)))


def moment_diff(a, ref: GaussianMixture) -> tuple[float, float]:
    """(Euclidean mean gap, Frobenius covariance gap) against a mixture."""
    x = _as_matrix(a)
    if x.shape[1] != ref.dim:
        raise ValueError(f"dimension mismatch: samples {x.shape[1]}, mixture {ref.dim}")
    if x.shape[0] < 2:
        raise ValueError("covariance needs at least two samples")
    mean_err = float(np.linalg.norm(x.mean(axis=0) - ref.mean()))
    cov_err = float(np.linalg.norm(np.cov(x.T, ddof=1) - ref.covariance()))
    return mean_err, cov_err
