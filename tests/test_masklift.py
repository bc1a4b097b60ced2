import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inpaintlab import (
    PixelMask,
    dilate_mask,
    downsample_mask,
    leakage_report,
    lift_mask,
)
from inpaintlab.masklift import LatentMask, upsample_mask


def _mask_2d(rows):
    return PixelMask(np.array(rows, dtype=np.uint8))


def test_pixel_mask_accepts_2d():
    m = _mask_2d([[1, 0], [1, 1]])
    assert m.shape == (1, 2, 2)


def test_pixel_mask_rejects_nonbinary():
    with pytest.raises(ValueError):
        PixelMask(np.array([[0, 2]]))


def test_dilate_identity_at_zero():
    m = _mask_2d(np.ones((5, 5), dtype=int))
    out = dilate_mask(m, 0)
    np.testing.assert_array_equal(out.grid, m.grid)


def test_dilate_single_pixel_chebyshev_ball():
    grid = np.ones((5, 5), dtype=np.uint8)
    grid[2, 2] = 0
    out = dilate_mask(_mask_2d(grid), 1)
    expected = np.ones((5, 5), dtype=np.uint8)
    expected[1:4, 1:4] = 0
    np.testing.assert_array_equal(out.grid[0], expected)


def test_dilate_saturated():
    m = _mask_2d(np.zeros((4, 4), dtype=int))
    out = dilate_mask(m, 3)
    np.testing.assert_array_equal(out.grid, 0)


def test_dilate_radius_past_the_grid_costs_no_more():
    # radii beyond size - 1 reach no further, so they must not pad or loop further
    grid = np.ones((8, 8), dtype=np.uint8)
    grid[2, 5] = grid[6, 0] = 0
    want = dilate_mask(_mask_2d(grid), 7)
    tracemalloc.start()
    try:
        got = dilate_mask(_mask_2d(grid), 10**5, r_t=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got.grid, want.grid)
    assert peak < 16 * 1024, peak


def test_dilate_temporal_radius():
    grid = np.ones((3, 3, 3), dtype=np.uint8)
    grid[1, 1, 1] = 0
    out = dilate_mask(PixelMask(grid), 0, r_t=1)
    assert out.grid[0, 1, 1] == 0 and out.grid[2, 1, 1] == 0
    assert out.grid[0, 0, 0] == 1  # spatial neighbours untouched at r=0


def test_downsample_all_ones():
    m = _mask_2d(np.ones((8, 8), dtype=int))
    latent = downsample_mask(m, 1, 4, 4)
    np.testing.assert_array_equal(latent.grid, np.ones((1, 2, 2)))


def test_downsample_all_rule():
    grid = np.ones((8, 8), dtype=np.uint8)
    grid[0, 0] = 0
    latent = downsample_mask(_mask_2d(grid), 1, 4, 4)
    expected = np.ones((1, 2, 2), dtype=np.uint8)
    expected[0, 0, 0] = 0
    np.testing.assert_array_equal(latent.grid, expected)


def test_downsample_divisibility_enforced():
    m = _mask_2d(np.ones((8, 9), dtype=int))
    with pytest.raises(ValueError):
        downsample_mask(m, 1, 4, 4)


def test_lift_without_dilation_equals_downsample():
    rng = np.random.default_rng(0)
    grid = (rng.random((16, 16)) > 0.3).astype(np.uint8)
    m = _mask_2d(grid)
    a = lift_mask(m, (1, 4, 4), 0)
    b = downsample_mask(m, 1, 4, 4)
    np.testing.assert_array_equal(a.grid, b.grid)


def test_lift_thin_stripe():
    # 1-pixel edited stripe, f=8, r=4: every block the dilated stripe touches is edited
    grid = np.ones((16, 16), dtype=np.uint8)
    grid[:, 7] = 0
    latent = lift_mask(_mask_2d(grid), (1, 8, 8), 4)
    # dilation spreads the stripe to columns 3..11, touching both column blocks
    np.testing.assert_array_equal(latent.grid, 0)


def test_lift_all_observed():
    latent = lift_mask(_mask_2d(np.ones((16, 16), dtype=int)), (1, 8, 8), 4)
    np.testing.assert_array_equal(latent.grid, 1)


def test_leakage_counts():
    grid = np.ones((8, 8), dtype=np.uint8)
    grid[0, 0] = 0
    m = _mask_2d(grid)
    latent = lift_mask(m, (1, 4, 4), 0)
    rep = leakage_report(m, latent)
    assert rep.edited_pixels_in_observed_cells == 0
    assert rep.observed_pixels_in_edited_cells == 15  # rest of the 4x4 block


def test_leakage_any_rule_leaks():
    # an any-rule (cell observed if any pixel observed) must show leakage on mixed blocks
    grid = np.ones((8, 8), dtype=np.uint8)
    grid[0, 0] = 0
    m = _mask_2d(grid)
    blocks = m.grid.reshape(1, 1, 2, 4, 2, 4)
    any_rule = LatentMask(blocks.max(axis=(1, 3, 5)), (1, 4, 4))
    rep = leakage_report(m, any_rule)
    assert rep.edited_pixels_in_observed_cells > 0


def test_leakage_all_observed_is_zero_zero():
    m = _mask_2d(np.ones((8, 8), dtype=int))
    rep = leakage_report(m, lift_mask(m, (1, 4, 4), 2))
    assert rep == (0, 0)


def test_leakage_shape_mismatch():
    m = _mask_2d(np.ones((8, 8), dtype=int))
    latent = lift_mask(_mask_2d(np.ones((16, 16), dtype=int)), (1, 4, 4), 0)
    with pytest.raises(ValueError):
        leakage_report(m, latent)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**48 - 1), st.sampled_from([4, 8]), st.sampled_from([0, 2, 5]))
def test_zero_leakage_property(seed, factor, r):
    rng = np.random.default_rng(seed)
    h = factor * rng.integers(1, 5)
    w = factor * rng.integers(1, 5)
    grid = (rng.random((h, w)) > rng.random()).astype(np.uint8)
    m = PixelMask(grid)
    latent = lift_mask(m, (1, factor, factor), r)
    assert leakage_report(m, latent).edited_pixels_in_observed_cells == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**48 - 1))
def test_dilation_monotone_and_one_sided(seed):
    rng = np.random.default_rng(seed)
    grid = (rng.random((16, 16)) > 0.4).astype(np.uint8)
    m = PixelMask(grid)
    prev_edited = None
    for r in (0, 1, 3):
        latent = lift_mask(m, (1, 4, 4), r)
        edited = latent.grid == 0
        if prev_edited is not None:
            # growing r never turns an edited latent cell back to observed
            assert np.all(edited[prev_edited])
        prev_edited = edited
        # upsampled edited region covers the dilated pixel edited region
        up = upsample_mask(latent)
        dil = dilate_mask(m, r)
        assert np.all((up.grid == 0) | (dil.grid == 1))


def test_dilate_equals_scipy_binary_dilation():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(8)
    for _ in range(300):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        grid = (rng.random(shape) > rng.random() * 0.3).astype(np.uint8)
        if rng.random() < 0.3:  # edited pixels on the corners and edges only
            grid = np.ones(shape, dtype=np.uint8)
            grid[rng.integers(0, shape[0]), [0, -1], rng.integers(0, shape[2])] = 0
            grid[:, rng.integers(0, shape[1]), -1] = 0
        r, r_t = int(rng.integers(0, 4)), int(rng.integers(0, 3))
        structure = np.ones((2 * r_t + 1, 2 * r + 1, 2 * r + 1), dtype=bool)
        want = ~ndimage.binary_dilation(grid == 0, structure=structure)
        got = dilate_mask(PixelMask(grid), r, r_t).grid
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want.astype(np.uint8), err_msg=f"{shape} r={r} r_t={r_t}")


@pytest.mark.parametrize("build, message", [
    (lambda: PixelMask(np.ones((1, 1, 2, 2))),
     "pixel mask must be (T, H, W) with positive dimensions"),
    (lambda: PixelMask(np.ones((1, 0, 2))),
     "pixel mask must be (T, H, W) with positive dimensions"),
    (lambda: LatentMask(np.ones((2, 2)), (1, 1, 1)), "latent mask must be a binary (t, h, w) array"),
    (lambda: LatentMask(np.full((1, 2, 2), 2), (1, 1, 1)),
     "latent mask must be a binary (t, h, w) array"),
    (lambda: LatentMask(np.ones((1, 2, 2)), (1, 0, 2)),
     "downsampling factors must be positive integers"),
    (lambda: dilate_mask(PixelMask(np.ones((2, 2))), -1), "dilation radii must be non-negative"),
    (lambda: dilate_mask(PixelMask(np.ones((2, 2))), 1, r_t=-1),
     "dilation radii must be non-negative"),
], ids=["pixel-4-d", "pixel-empty", "latent-2-d", "latent-non-binary", "latent-factor-0",
        "radius", "time-radius"])
def test_masklift_input_checks(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
