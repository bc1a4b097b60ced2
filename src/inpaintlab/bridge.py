"""Marginal-preserving reverse transitions.

The reverse chain moves from time t to an earlier time s through the
kernel family

    x_s = alpha_s * x0_hat(x_t, t) + beta_s * x1_hat(x_t, t) + eta_s * eps

with eta_s = eta * sigma_s and beta_s = sigma_s * sqrt(1 - eta^2), so that
eta_s^2 + beta_s^2 = sigma_s^2 for every s.  For exact (x0, x1) pairs the
corresponding two-sided kernel reproduces the path marginals at every
stochasticity level eta in [0, 1]; the sampler plugs in the conditional
expectations instead.  eta = 0 gives the deterministic update, eta = 1
discards the noise estimate entirely.

``transition_params`` takes eta (a sampler's ``SamplerConfig.eta``) and
the x0 estimate from its caller (the denoiser's, or a guided correction
of it) and ties the noise estimate to it, x1_hat = (x_t - alpha_t *
x0_hat) / sigma_t, so one denoiser evaluation per state serves the whole
transition.

``rng`` arguments accept a single ``numpy.random.Generator`` or a
``ChainStreams``, the noise of one batched run: one generator per block
of ``BLOCK`` = 64 chains.  Every request draws each block in full, so row
j of every draw depends only on row j's block and the sequence of
requests, and the first rows of a larger run equal a smaller run.
``guidance.run_conditional`` draws through a ``ChainStreams``.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import NumericError
from .gmm import Denoiser, noise_from_x0
from .schedule import Schedule, TimeGrid, eval_schedule

# chains per substream of a ChainStreams
BLOCK = 64


class ChainStreams:
    """The noise of one batched run of ``n_chains`` chains: one generator
    per block of BLOCK chains, block b's seeded by ``SeedSequence((*key, b))``.

    ``take((n, ...))`` fills a ``(n_blocks * BLOCK, ...)`` array, each
    block's contiguous slab from one ``standard_normal`` call of its
    generator, and returns the first n rows.  The last block is drawn in
    full even when only partly used, so chain j's draws depend only on
    (key, j // BLOCK) and the shapes requested, never on ``n_chains``.
    ``len`` is the number of chains.
    """

    def __init__(self, key: tuple[int, ...], n_chains: int):
        self.n_chains = n_chains
        self.generators = [
            np.random.default_rng(np.random.SeedSequence((*key, b)))
            for b in range(-(-n_chains // BLOCK))
        ]

    def __len__(self) -> int:
        return self.n_chains

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        out = np.empty((len(self.generators) * BLOCK, *shape[1:]))
        for g, slab in zip(self.generators, out.reshape(-1, BLOCK, *shape[1:])):
            g.standard_normal(out=slab)
        return out[: shape[0]]


RngLike = Union[np.random.Generator, ChainStreams]


def standard_normal(rng: RngLike, shape: tuple[int, ...]) -> np.ndarray:
    """Draw standard normals from one generator, or from a ChainStreams
    with one chain per row."""
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal(shape)
    if len(rng) != shape[0]:
        raise ValueError(f"got {len(rng)} chains for {shape[0]} rows")
    return rng.take(shape)


def transition_params(
    sched: Schedule,
    eta: float,
    x_t: np.ndarray,
    xhat0: np.ndarray,
    s: float,
    t: float,
) -> tuple[np.ndarray, float]:
    """Reverse transition from x_t at time t to time s < t around the x0
    estimate xhat0, with the noise estimate xhat1 tied to it
    (``noise_from_x0``): the isotropic Gaussian N(mean, std^2 I), returned
    as the pair ``(mean, std)``, with mean = alpha_s * xhat0 + beta_s * xhat1
    and std = eta_s, the coefficients of the module docstring.  eta outside
    [0, 1] raises ValueError; a non-finite mean raises NumericError naming
    the number of chains (rows) affected.

    Every sampler builds its transition here, so a change to the kernel
    reaches all of them.

    Limitation: with the plug-in conditional mean the chain is
    under-dispersed at every eta > 0, because eta_s does not shrink with
    the step size, and more steps do not remove the gap.  For a prior
    N(mu, I) on the linear flow and a uniform grid, the terminal variance
    per unit prior variance at K = 100 is 0.975 at eta = 0, 0.776 at
    eta = 0.8 (the eta of the shipped configs) and 0.482 at eta = 1 (0.494 at
    K = 400); only the eta = 0 chain approaches the prior as K grows.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if not 0.0 <= s < t <= 1.0:
        raise ValueError(f"need 0 <= s < t <= 1, got s={s}, t={t}")
    alpha_s, sigma_s = eval_schedule(sched, s)
    beta_s = sigma_s * math.sqrt(1.0 - eta**2)
    # alpha_s * xhat0 + beta_s * xhat1, in the buffers of the two terms
    mean = np.multiply(alpha_s, xhat0)
    xhat1 = noise_from_x0(x_t, xhat0, *eval_schedule(sched, t))
    xhat1 *= beta_s
    np.add(mean, xhat1, out=mean)
    check_chains_finite(mean, "transition mean")
    return mean, eta * sigma_s


def check_chains_finite(a: np.ndarray, what: str) -> None:
    """Raise NumericError, naming ``what`` and how many of the chains (rows)
    of ``a`` hold a non-finite value, unless every entry is finite."""
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=-1)  # one entry per chain
        bad = finite.size - np.count_nonzero(finite)
        raise NumericError(f"{what} must be finite: {bad} of {finite.size} chains non-finite")


def sample_transition(mean: np.ndarray, std: float, rng: RngLike) -> np.ndarray:
    """mean + std * eps for the pair ``transition_params`` returns, in the
    buffer of the fresh normal draw eps, scaled and shifted in place.  It is
    drawn even for std = 0 so that every step consumes the stream
    identically regardless of eta."""
    eps = standard_normal(rng, mean.shape)
    eps *= std
    return np.add(mean, eps, out=eps)


def run_unconditional(
    denoiser: Denoiser,
    sched: Schedule,
    grid: TimeGrid,
    eta: float,
    rng: RngLike,
    n_chains: int,
) -> np.ndarray:
    """Run the reverse chain at stochasticity eta from x ~ N(0, I) at t = 1
    down the grid.

    Returns the (n_chains, d) array of terminal states at t = 0, with d
    read from ``denoiser.dim``.  Chains are advanced as one batch, with
    per-chain substreams when ``rng`` is a ``ChainStreams``.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be positive")
    x = standard_normal(rng, (n_chains, denoiser.dim))
    knots = grid.knots
    for k in range(grid.num_steps, 0, -1):
        s, t = knots[k - 1], knots[k]
        xhat0 = denoiser.evaluate(x, t).xhat0
        x = sample_transition(*transition_params(sched, eta, x, xhat0, s, t), rng)
    return x

