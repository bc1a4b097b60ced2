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

``rng`` arguments accept a single ``numpy.random.Generator``, a
``ChainStreams`` or a plain sequence of per-row generators (one per chain
of a batched state).  The last two keep each chain on its own
reproducible substream: row j of every draw holds the next values of
generator j, in order.  A plain sequence is drawn from chain by chain on
every call; ``ChainStreams`` reads each generator ahead in blocks of
``READ_AHEAD`` draws and serves the calls from that block, which gives the
same values without a Python loop over chains per call.  The samplers
(``run_unconditional`` and ``guidance.run_conditional``) draw through a
``ChainStreams``.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import NumericError
from .gmm import Denoiser
from .schedule import Schedule, TimeGrid, eval_schedule

# draws per chain held by a ChainStreams block: n_chains * 64 * 8 bytes
READ_AHEAD = 64


class ChainStreams:
    """The per-chain generators of one batched run, read ahead in blocks.

    ``take((n, ...))`` returns the next prod(shape[1:]) draws of each
    chain's generator, row j from generator j, equal to the per-call draws
    ``g.standard_normal(shape[1:])`` (a generator's standard normals are
    one stream however the calls split it).  The block holds READ_AHEAD
    draws per chain, or one request if that is wider.  Indexing and
    ``len`` reach the generators themselves; drawing from one of them
    directly skips the values already read into the block.
    """

    def __init__(self, generators: Sequence[np.random.Generator]):
        self.generators = list(generators)
        self._block = np.empty((len(self.generators), 0))
        self._pos = 0

    def __len__(self) -> int:
        return len(self.generators)

    def __getitem__(self, j: int) -> np.random.Generator:
        return self.generators[j]

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        width = math.prod(shape[1:])
        if self._pos + width > self._block.shape[1]:
            self._refill(width)
        out = self._block[:, self._pos : self._pos + width].reshape(shape).copy()
        self._pos += width
        return out

    def _refill(self, width: int) -> None:
        """Keep the unread tail at the front and fill the rest of each row."""
        tail = self._block[:, self._pos :].copy()
        size = max(READ_AHEAD, width)
        if self._block.shape[1] < size:
            # An anonymous map goes back to the system when the block is
            # dropped; a freed heap block stays resident under the arrays
            # allocated after it (+1.3 MiB peak RSS at 4000 chains).
            self._block = None
            buf = mmap.mmap(-1, 8 * len(self.generators) * size)
            self._block = np.frombuffer(buf).reshape(len(self.generators), size)
        left = tail.shape[1]
        self._block[:, :left] = tail
        for g, row in zip(self.generators, self._block):
            g.standard_normal(out=row[left:])
        self._pos = 0


RngLike = Union[np.random.Generator, ChainStreams, Sequence[np.random.Generator]]


@dataclass(frozen=True)
class BridgeKernel:
    """Stochasticity level of the reverse transition family.

    eta_s = eta * sigma_s and beta_s = sigma_s * sqrt(1 - eta^2).

    Limitation: with the plug-in conditional mean the chain is
    under-dispersed at every eta > 0, because eta_s does not shrink with
    the step size, and more steps do not remove the gap.  For a prior
    N(mu, I) on the linear flow and a uniform grid, the terminal variance
    per unit prior variance at K = 100 is 0.975 at eta = 0, 0.776 at
    eta = 0.8 (the eta of the shipped configs) and 0.482 at eta = 1 (0.494 at
    K = 400); only the eta = 0 chain approaches the prior as K grows.
    """

    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")

    def coefficients(self, sched: Schedule, s: float) -> tuple[float, float, float]:
        """(alpha_s, beta_s, eta_s) of the transition mean/noise at time s."""
        alpha_s, sigma_s = eval_schedule(sched, s)
        beta_s = sigma_s * math.sqrt(max(0.0, 1.0 - self.eta**2))
        return alpha_s, beta_s, self.eta * sigma_s


@dataclass(frozen=True)
class TransitionParams:
    """Isotropic Gaussian transition: N(mean, std^2 I)."""

    mean: np.ndarray
    std: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", float(self.std))
        if self.std < 0:
            raise ValueError("transition std must be non-negative")
        if not np.all(np.isfinite(mean)):
            finite = np.all(np.isfinite(np.atleast_1d(mean)), axis=-1)  # one entry per chain
            bad = finite.size - np.count_nonzero(finite)
            raise NumericError(
                f"transition mean must be finite: {bad} of {finite.size} chains non-finite"
            )


def standard_normal(rng: RngLike, shape: tuple[int, ...]) -> np.ndarray:
    """Draw standard normals from one generator or one generator per row."""
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal(shape)
    if len(rng) != shape[0]:
        raise ValueError(f"got {len(rng)} generators for {shape[0]} rows")
    if isinstance(rng, ChainStreams):
        return rng.take(shape)
    return np.stack([g.standard_normal(shape[1:]) for g in rng])


def pair_transition(
    kernel: BridgeKernel, sched: Schedule, s: float, xhat0: np.ndarray, xhat1: np.ndarray
) -> TransitionParams:
    """Transition to time s built from an (x0, x1) estimate pair.

    Every sampler builds its transition here, so a change to the kernel
    reaches all of them.
    """
    alpha_s, beta_s, eta_s = kernel.coefficients(sched, s)
    return TransitionParams(alpha_s * xhat0 + beta_s * xhat1, eta_s)


def check_step_times(s: float, t: float) -> None:
    """Reject a reverse step unless 0 <= s < t <= 1."""
    if not 0.0 <= s < t <= 1.0:
        raise ValueError(f"need 0 <= s < t <= 1, got s={s}, t={t}")


def transition_params(
    kernel: BridgeKernel,
    sched: Schedule,
    denoiser: Denoiser,
    x_t: np.ndarray,
    s: float,
    t: float,
) -> TransitionParams:
    """Parameters of the reverse transition from x_t at time t to time s < t."""
    check_step_times(s, t)
    xhat0, xhat1 = denoiser.predict(x_t, t)
    return pair_transition(kernel, sched, s, xhat0, xhat1)


def sample_transition(params: TransitionParams, rng: RngLike) -> np.ndarray:
    """mean + std * eps.  A fresh normal is drawn even for std = 0 so that
    every step consumes the stream identically regardless of eta."""
    eps = standard_normal(rng, params.mean.shape)
    return params.mean + params.std * eps


def run_unconditional(
    denoiser: Denoiser,
    sched: Schedule,
    grid: TimeGrid,
    kernel: BridgeKernel,
    rng: RngLike,
    n_chains: int,
):
    """Run the reverse chain from x ~ N(0, I) at t = 1 down the grid.

    Returns a SampleSet of the (n_chains, d) terminal states at t = 0, with
    d read from ``denoiser.dim``.  Chains are advanced as one batch, with
    per-chain substreams when ``rng`` is a sequence of generators.
    """
    from .metrics import SampleSet

    if n_chains < 1:
        raise ValueError("n_chains must be positive")
    if not isinstance(rng, (np.random.Generator, ChainStreams)):
        rng = ChainStreams(rng)
    x = standard_normal(rng, (n_chains, denoiser.dim))
    knots = grid.knots
    for k in range(grid.num_steps, 0, -1):
        params = transition_params(kernel, sched, denoiser, x, knots[k - 1], knots[k])
        x = sample_transition(params, rng)
    return SampleSet(samples=x, provenance=("unconditional", "", 0))

