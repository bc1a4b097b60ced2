"""Interpolation schedules and time discretizations.

The forward corruption is the linear interpolation x_t = alpha_t * x0 +
sigma_t * x1 with x1 standard Gaussian and t running over [0, 1].  Two
coefficient families are provided:

- ``linear-flow``: alpha_t = 1 - t, sigma_t = t (straight-line interpolant)
- ``trig-vp``:     alpha_t = cos(pi t / 2), sigma_t = sin(pi t / 2)
  (variance preserving, alpha^2 + sigma^2 = 1)

Both satisfy alpha_0 = 1, sigma_0 = 0, alpha_1 = 0, sigma_1 = 1 exactly
(``eval_schedule`` returns the ``trig-vp`` endpoint as (0, 1), where the
cosine would round to 6.1e-17), with alpha non-increasing and sigma
non-decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCHEDULE_KINDS = ("linear-flow", "trig-vp")
GRID_SPACINGS = ("uniform", "quadratic")


@dataclass(frozen=True)
class Schedule:
    """A named (alpha_t, sigma_t) coefficient family."""

    kind: str = "linear-flow"

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(
                f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}"
            )


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing knots t_0 = 0 < t_1 < ... < t_K = 1."""

    knots: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("grid needs at least two knots")
        if knots[0] != 0.0 or knots[-1] != 1.0:
            raise ValueError("grid endpoints must be exactly 0 and 1")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("grid knots must be strictly increasing")

    @property
    def num_steps(self) -> int:
        return self.knots.size - 1


def make_grid(num_steps: int, spacing: str = "uniform") -> TimeGrid:
    """Build a K-step time grid on [0, 1].

    ``uniform`` places t_k = k/K; ``quadratic`` places t_k = (k/K)^2,
    which concentrates steps near t = 0 where late-time refinement
    dominates reconstruction accuracy.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be a positive integer")
    if spacing not in GRID_SPACINGS:
        raise ValueError(f"unknown spacing {spacing!r}; expected one of {GRID_SPACINGS}")
    u = np.arange(num_steps + 1, dtype=float) / num_steps
    knots = u if spacing == "uniform" else u**2
    # guard against rounding drift at the endpoints
    knots[0], knots[-1] = 0.0, 1.0
    return TimeGrid(knots)


def eval_schedule(sched: Schedule, t: float) -> tuple[float, float]:
    """Evaluate (alpha_t, sigma_t) at a scalar time t in [0, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    if sched.kind == "linear-flow":
        return 1.0 - t, t
    if t == 1.0:  # cos(pi / 2) rounds to 6.1e-17, not 0
        return 0.0, 1.0
    return math.cos(0.5 * math.pi * t), math.sin(0.5 * math.pi * t)
