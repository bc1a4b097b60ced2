"""Posterior-sampling laboratory for inpainting with analytic diffusion priors.

Gaussian-mixture priors make every quantity a guided sampler needs, and
every quantity one would like to check it against, available in closed
form: the denoiser and its vector-Jacobian product, the intermediate
observation likelihood and its gradient, and the terminal posterior
itself.  The package implements a Jacobian-free conjugate guidance step
alongside four standard baselines, plus mask lifting and desk-scale
metrics.
"""

from .bridge import TransitionParams, run_unconditional, sample_transition, transition_params
from .errors import ConfigError, NumericError
from .gmm import Denoiser, GaussianMixture, GMMDenoiser, gmm_marginal
from .guidance import (
    METHODS,
    SamplerConfig,
    run_conditional,
    step_blended,
    step_ddnm,
    step_diffpir,
    step_ding,
    step_dps,
)
from .masklift import LatentMask, PixelMask, dilate_mask, downsample_mask, leakage_report, lift_mask
from .metrics import cpsnr, moment_diff, sliced_w2
from .oracle import (
    ding_gap,
    exact_guidance_grad,
    exact_intermediate_loglik,
    exact_posterior,
    exact_posterior_denoiser,
    posterior_given_state,
)
from .problem import InpaintingProblem, MaskOperator, log_likelihood, make_observation
from .schedule import Schedule, TimeGrid, eval_schedule, make_grid

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Denoiser",
    "GMMDenoiser",
    "GaussianMixture",
    "InpaintingProblem",
    "LatentMask",
    "METHODS",
    "MaskOperator",
    "NumericError",
    "PixelMask",
    "SamplerConfig",
    "Schedule",
    "TimeGrid",
    "TransitionParams",
    "cpsnr",
    "dilate_mask",
    "ding_gap",
    "downsample_mask",
    "eval_schedule",
    "exact_guidance_grad",
    "exact_intermediate_loglik",
    "exact_posterior",
    "exact_posterior_denoiser",
    "gmm_marginal",
    "leakage_report",
    "lift_mask",
    "log_likelihood",
    "make_grid",
    "make_observation",
    "moment_diff",
    "posterior_given_state",
    "run_conditional",
    "run_unconditional",
    "sample_transition",
    "sliced_w2",
    "step_blended",
    "step_ddnm",
    "step_diffpir",
    "step_ding",
    "step_dps",
    "transition_params",
]
