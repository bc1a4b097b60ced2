"""Inpainting problem: mask operator, observation, Gaussian consistency term.

The observation is y = m * x_star on the coordinates the binary mask
keeps (1 = observed / preserved), plus gamma-scaled noise there when
``make_observation`` is given a generator to draw it from.
``make_observation`` is the one reader of the reference x_star; the
problem it returns holds y alone, so no sampler can read the hidden
answer.  The observation induces

    log l(y | x0) = -||y - m * x0||^2 / (2 gamma^2)

up to an additive constant that is dropped throughout.  gamma acts as a
consistency temperature: smaller values bind reconstructions more tightly
to the observed coordinates.  The likelihood never looks at masked
coordinates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bridge import standard_normal


def valid_gamma(gamma: float) -> bool:
    """Whether gamma is strictly positive with ``gamma * gamma`` finite, so
    that no gamma**2 the package forms overflows; NaN is not."""
    with np.errstate(over="ignore"):  # a numpy scalar's square warns as it overflows
        return gamma > 0 and gamma * gamma < np.inf


@dataclass(frozen=True, eq=False)
class MaskOperator:
    """Binary coordinate mask; 1 marks an observed (preserved) entry.

    ``observed_idx``, the read-only flat indices of the observed entries,
    and ``observed_count``, their number, are computed once here.
    """

    m: np.ndarray
    observed_idx: np.ndarray = field(init=False, repr=False)
    observed_count: int = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.m)
        if not np.all(np.isin(m, (0, 1))):
            raise ValueError("mask entries must be 0 or 1")
        m = m.astype(float)
        idx = np.flatnonzero(m)
        idx.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "observed_idx", idx)
        object.__setattr__(self, "observed_count", idx.size)

    @property
    def dim(self) -> int:
        return self.m.size


@dataclass(frozen=True, eq=False)
class InpaintingProblem:
    """The observation ``y`` through ``mask`` at consistency temperature
    ``gamma``, zero off the observed coordinates."""

    mask: MaskOperator
    y: np.ndarray
    gamma: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if not valid_gamma(self.gamma):
            raise ValueError(f"gamma must be strictly positive with a finite square, "
                             f"got {self.gamma!r}")
        if y.shape != self.mask.m.shape:
            raise ValueError("observation and mask dimensions differ")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        if np.any(y[self.mask.m == 0] != 0):
            raise ValueError("y must be zero on unobserved coordinates")


def make_observation(
    x_star: np.ndarray,
    mask: MaskOperator,
    gamma: float,
    rng: np.random.Generator | None = None,
) -> InpaintingProblem:
    """Observe x_star through the mask.

    Noiseless without ``rng`` (gamma is a consistency temperature, not a
    measured noise level); given ``rng``, gamma-scaled Gaussian noise drawn
    from it is added on the observed coordinates only.
    """
    if not valid_gamma(gamma):  # before the noise draw: inf * 0 warns
        raise ValueError(f"gamma must be strictly positive with a finite square, got {gamma!r}")
    x_star = np.asarray(x_star, dtype=float)
    if not np.all(np.isfinite(x_star)):  # before m * x_star: 0 * inf warns
        raise ValueError("x_star must be finite")
    if mask.observed_count == 0:
        warnings.warn("all-zero mask: posterior equals the prior", stacklevel=2)
    y = mask.m * x_star
    if rng is not None:
        y = y + gamma * mask.m * standard_normal(rng, x_star.shape)
    return InpaintingProblem(mask=mask, y=y, gamma=gamma)


def log_likelihood(problem: InpaintingProblem, x0: np.ndarray) -> np.ndarray:
    """-||y - m * x0||^2 / (2 gamma^2), constant dropped.

    Exactly invariant to any change of x0 off the observed support.
    Accepts (d,) points or (n, d) batches.
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    resid = problem.y - problem.mask.m * x0
    return -0.5 * np.sum(resid**2, axis=-1) / problem.gamma**2
