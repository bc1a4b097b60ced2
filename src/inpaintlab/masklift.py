"""Pixel-to-latent mask lifting.

Latent-space inpainting needs the pixel mask on the latent grid.  Naive
block downsampling can under-cover thin edited regions, letting observed
content bleed into edited cells (context leakage).  The pipeline here is
conservative instead:

1. ``dilate_mask`` grows the edited region by a Chebyshev radius
   (spatially per frame, with a separate radius along time), trading a
   thin band of observed context for safety near boundaries.
2. ``downsample_mask`` marks a latent cell observed only when every pixel
   in its block is observed; a single edited pixel forces the whole cell
   edited.  This all-rule is the unique blockwise rule with zero leakage.
3. ``leakage_report`` counts, after upsampling the latent mask back,
   edited pixels landing in observed cells (leakage risk) and observed
   pixels landing in edited cells (context sacrificed).

Masks are (T, H, W) binary arrays with 1 = observed, 0 = edited; images
use T = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True, eq=False)
class PixelMask:
    grid: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid)
        if g.ndim == 2:
            g = g[None]
        if g.ndim != 3 or min(g.shape) < 1:
            raise ValueError("pixel mask must be (T, H, W) with positive dimensions")
        if not np.all(np.isin(g, (0, 1))):
            raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "grid", g.astype(np.uint8))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.grid.shape


@dataclass(frozen=True, eq=False)
class LatentMask:
    grid: np.ndarray
    factors: tuple[int, int, int]

    def __post_init__(self):
        g = np.asarray(self.grid)
        if g.ndim != 3 or not np.all(np.isin(g, (0, 1))):
            raise ValueError("latent mask must be a binary (t, h, w) array")
        if any(f < 1 for f in self.factors):
            raise ValueError("downsampling factors must be positive integers")
        object.__setattr__(self, "grid", g.astype(np.uint8))
        object.__setattr__(self, "factors", tuple(int(f) for f in self.factors))


class LeakageReport(NamedTuple):
    edited_pixels_in_observed_cells: int
    observed_pixels_in_edited_cells: int


def dilate_mask(mask: PixelMask, r: int, r_t: int = 0) -> PixelMask:
    """Grow the edited region by Chebyshev radius r per frame and r_t in time."""
    if r < 0 or r_t < 0:
        raise ValueError("dilation radii must be non-negative")
    if r == 0 and r_t == 0:
        return mask
    grown = mask.grid == 0
    # a box is separable: dilate one axis at a time, outside the grid is observed;
    # a radius of size - 1 already reaches across the axis from every cell
    for axis, radius in enumerate((r_t, r, r)):
        radius = min(radius, grown.shape[axis] - 1)
        if radius > 0:
            pad = [(0, 0)] * 3
            pad[axis] = (radius, radius)
            windows = sliding_window_view(np.pad(grown, pad), 2 * radius + 1, axis)
            grown = windows.any(axis=-1)
    return PixelMask((~grown).astype(np.uint8))


def downsample_mask(mask: PixelMask, f_t: int, f_h: int, f_w: int) -> LatentMask:
    """Blockwise all-rule downsampling; dimensions must divide exactly."""
    t, h, w = mask.shape
    for size, f, name in ((t, f_t, "T"), (h, f_h, "H"), (w, f_w, "W")):
        if f < 1:
            raise ValueError("downsampling factors must be positive")
        if size % f != 0:
            raise ValueError(f"{name}={size} not divisible by factor {f}")
    blocks = mask.grid.reshape(t // f_t, f_t, h // f_h, f_h, w // f_w, f_w)
    cells = blocks.min(axis=(1, 3, 5))
    return LatentMask(cells, (f_t, f_h, f_w))


def lift_mask(
    mask: PixelMask, factors: tuple[int, int, int], r: int, r_t: int = 0
) -> LatentMask:
    """Dilate, then conservatively downsample."""
    f_t, f_h, f_w = factors
    return downsample_mask(dilate_mask(mask, r, r_t), f_t, f_h, f_w)


def upsample_mask(latent: LatentMask) -> PixelMask:
    """Blockwise constant upsampling back to pixel resolution."""
    f_t, f_h, f_w = latent.factors
    g = latent.grid.repeat(f_t, axis=0).repeat(f_h, axis=1).repeat(f_w, axis=2)
    return PixelMask(g)


def leakage_report(pixel_mask: PixelMask, latent_mask: LatentMask) -> LeakageReport:
    """Compare a latent mask against the pixel mask it was lifted from."""
    up = upsample_mask(latent_mask)
    if up.shape != pixel_mask.shape:
        raise ValueError(
            f"latent mask upsamples to {up.shape}, pixel mask is {pixel_mask.shape}"
        )
    pix = pixel_mask.grid
    cells = up.grid
    edited_in_observed = int(np.sum((pix == 0) & (cells == 1)))
    observed_in_edited = int(np.sum((pix == 1) & (cells == 0)))
    return LeakageReport(edited_in_observed, observed_in_edited)
