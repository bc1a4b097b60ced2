import math
import sys
import tracemalloc

import numpy as np
import pytest

from inpaintlab import (
    GaussianMixture,
    MaskOperator,
    cpsnr,
    moment_diff,
    sliced_w2,
)
from inpaintlab.metrics import _sliced_w2_projected

import reference


def test_cpsnr_exact_match_is_infinite():
    x = np.array([1.0, 2.0, 3.0])
    assert cpsnr(x, x, MaskOperator([1, 1, 0]), 1.0) == math.inf


def test_cpsnr_constant_difference():
    # 20 log10(255) = 48.1308 dB
    x = np.zeros(4)
    ref = np.ones(4)
    val = cpsnr(x, ref, MaskOperator([1, 1, 1, 1]), 255.0)
    assert val == pytest.approx(48.13080361, abs=1e-6)


def test_cpsnr_ignores_unobserved():
    mask = MaskOperator([1, 0])
    a = cpsnr(np.array([0.5, 0.0]), np.array([1.0, 0.0]), mask, 1.0)
    b = cpsnr(np.array([0.5, 99.0]), np.array([1.0, -7.0]), mask, 1.0)
    assert a == b


def test_cpsnr_decreases_with_error():
    mask = MaskOperator([1, 1])
    ref = np.zeros(2)
    vals = [cpsnr(np.full(2, e), ref, mask, 1.0) for e in (0.1, 0.2, 0.4)]
    assert vals[0] > vals[1] > vals[2]


# the largest double whose square is finite, and the smallest whose square is not 0
ROOT_MAX = math.sqrt(sys.float_info.max)
ROOT_MIN = 1.5717277847026288e-162


def test_cpsnr_peak_square_must_be_positive_and_finite():
    assert ROOT_MIN * ROOT_MIN > 0 == math.nextafter(ROOT_MIN, 0) ** 2
    x, mask = np.zeros(2), MaskOperator([1, 1])
    for peak in (1e200, math.nextafter(ROOT_MAX, math.inf), math.nextafter(ROOT_MIN, 0), 1e-300,
                 np.float64(1e200), np.float64(1e-300), 0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="nonzero finite square"):
            cpsnr(x, np.ones(2), mask, peak)
    for peak in (ROOT_MAX, ROOT_MIN):
        assert math.isfinite(cpsnr(x, np.ones(2), mask, peak))


def test_cpsnr_is_minus_infinity_where_peak2_over_mse_is_0():
    # the mirror of the +inf sentinel: an mse that overflows, or a finite
    # one that peak^2 / mse underflows against, reads -inf, with no warning
    mask = MaskOperator([1, 0])
    huge = np.array([[1e200, 0.0], [1.0, 7.0], [-1e200, 0.0]])
    got = cpsnr(huge, np.zeros(2), mask, 1.0)
    assert list(got) == [-math.inf, 0.0, -math.inf]
    assert cpsnr(np.array([1e50, 0.0]), np.zeros(2), mask, 1e-150) == -math.inf
    assert cpsnr(np.zeros(2), np.zeros(2), mask, 1e-150) == math.inf


def test_cpsnr_finite_batch_keeps_its_bits():
    # every finite value is 10 log10(peak^2 / mse) per row, as before the sentinels
    rng = np.random.default_rng(11)
    ref = rng.standard_normal(9)
    x = ref + 10.0 ** rng.uniform(-8, 8, (40, 1)) * rng.standard_normal((40, 9))
    mask = MaskOperator([1, 1, 0, 1, 0, 0, 1, 1, 1])
    obs = mask.observed_idx
    for peak in (1.0, 2.5, 1e-3, 255.0):
        mse = np.mean((x[:, obs] - ref[obs]) ** 2, axis=-1)
        want = [10.0 * math.log10(peak**2 / m) for m in mse.tolist()]
        assert cpsnr(x, ref, mask, peak).tolist() == want
        assert [cpsnr(row, ref, mask, peak) for row in x] == want


def test_cpsnr_needs_observed_coordinates():
    with pytest.raises(ValueError):
        cpsnr(np.zeros(2), np.zeros(2), MaskOperator([0, 0]), 1.0)


def test_sliced_w2_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 3))
    assert sliced_w2(x, x, 64, 1) == 0.0
    assert sliced_w2(x, x[::-1], 64, 1) == 0.0  # multiset equality


def test_sliced_w2_point_masses():
    a = np.array([[0.0]])
    b = np.array([[1.0]])
    for n_proj in (1, 16, 128):
        assert sliced_w2(a, b, n_proj, 7) == pytest.approx(1.0)


def test_sliced_w2_symmetric():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 4))
    b = rng.standard_normal((60, 4)) + 0.5
    assert sliced_w2(a, b, 64, 3) == sliced_w2(b, a, 64, 3)


def test_sliced_w2_deterministic_given_seed():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 2))
    b = rng.standard_normal((30, 2))
    assert sliced_w2(a, b, 32, 5) == sliced_w2(a, b, 32, 5)
    assert sliced_w2(a, b, 32, 5) != sliced_w2(a, b, 32, 6)


def test_sliced_w2_dimension_mismatch():
    with pytest.raises(ValueError):
        sliced_w2(np.zeros((5, 2)), np.zeros((5, 3)))


def test_sliced_w2_rotation_with_fixed_projections():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((64, 3))
    b = rng.standard_normal((48, 3)) + 1.0
    dirs = rng.standard_normal((32, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    theta = 0.7
    rot = np.array(
        [[np.cos(theta), -np.sin(theta), 0.0], [np.sin(theta), np.cos(theta), 0.0], [0.0, 0.0, 1.0]]
    )
    plain = _sliced_w2_projected(a, b, dirs)
    rotated = _sliced_w2_projected(a @ rot.T, b @ rot.T, dirs @ rot.T)
    assert abs(plain - rotated) < 1e-10


def test_sliced_w2_matches_gaussian_shift_oracle():
    # two Gaussians differing by a mean shift: W2 along any direction u is
    # |delta . u|; the sliced value tends to ||delta|| / sqrt(d) in 2-d
    rng = np.random.default_rng(6)
    n = 20000
    delta = np.array([1.0, 0.0])
    a = rng.standard_normal((n, 2))
    b = rng.standard_normal((n, 2)) + delta
    got = sliced_w2(a, b, 256, 7)
    assert got == pytest.approx(np.linalg.norm(delta) / np.sqrt(2), abs=0.05)


def test_moment_diff_exact_reference():
    ref = GaussianMixture([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]])
    xs = ref.sample(200_000, np.random.default_rng(8))
    mean_err, cov_err = moment_diff(xs, ref)
    assert mean_err < 0.02
    assert cov_err < 0.05


def test_moment_diff_degenerate_samples():
    ref = GaussianMixture([1.0], [[0.5, -0.5]], [[2.0, 1.0]])
    xs = np.tile(ref.mean(), (10, 1))
    mean_err, cov_err = moment_diff(xs, ref)
    assert mean_err == 0.0
    assert cov_err == pytest.approx(np.linalg.norm(ref.covariance()))


def test_moment_diff_errors():
    ref = GaussianMixture([1.0], [[0.0]], [[1.0]])
    with pytest.raises(ValueError):
        moment_diff(np.zeros((5, 2)), ref)
    with pytest.raises(ValueError):
        moment_diff(np.zeros((1, 1)), ref)


def test_cpsnr_batch_equals_per_row(recwarn):
    # one value per row, equal with == to the row-by-row calls, +inf rows kept
    rng = np.random.default_rng(4)
    ref = rng.standard_normal(24)
    x = rng.standard_normal((50, 24))
    mask = MaskOperator(rng.permutation([1] * 13 + [0] * 11))
    x[[3, 17]] = ref
    x[9, mask.observed_idx] = ref[mask.observed_idx]  # exact on the observed support only
    got = cpsnr(x, ref, mask, 2.0)
    assert got.shape == (50,)
    assert list(got) == [cpsnr(row, ref, mask, 2.0) for row in x]
    assert np.isinf(got[[3, 9, 17]]).all() and np.isfinite(np.delete(got, [3, 9, 17])).all()
    assert len(recwarn) == 0


@pytest.mark.parametrize("n_a, n_b, n_proj, dims", [
    pytest.param(400, 400, 64, (2, 5, 12) * 4, id="400"),
    pytest.param(400, 257, 64, (2, 5, 12) * 4, id="257"),
    # 8 rows a block at n = 4000: twelve full blocks and a partial thirteenth
    pytest.param(4000, 4000, 100, (2, 8), id="blocks"),
    pytest.param(4000, 2500, 100, (2, 8), id="blocks-unequal"),
    pytest.param(2500, 4000, 100, (2, 8), id="blocks-unequal-wider-b"),
    # a row of more than BLOCK_BYTES (above 32,768 samples): one row a block
    pytest.param(40_000, 40_000, 3, (2,), id="one-row"),
    pytest.param(40_000, 32_769, 3, (2,), id="one-row-unequal"),
])
def test_sliced_w2_equals_out_of_place_reference(n_a, n_b, n_proj, dims):
    # the blocked in-place row layout sorts and adds exactly like the
    # out-of-place column layout of the reference, so every value is the
    # same to the bit, and the inputs are kept; a pairwise mean over each
    # row would differ in the last bit in about a third of these draws
    rng = np.random.default_rng(12)
    for d in dims:
        xa = rng.standard_normal((n_a, d))
        xb = rng.standard_normal((n_b, d)) * 1.3 + 0.2
        saved = xa.copy(), xb.copy()
        dirs = rng.standard_normal((n_proj, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert _sliced_w2_projected(xa, xb, dirs) == reference.sliced_w2_projected(xa, xb, dirs)
        np.testing.assert_array_equal(xa, saved[0])
        np.testing.assert_array_equal(xb, saved[1])


def test_sliced_w2_holds_one_block_of_projections():
    # gmm8's size: two whole (128, 4000) projection arrays would trace 7.8 MiB,
    # two 256 KiB blocks trace about 0.5 MiB
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((4000, 8)), rng.standard_normal((4000, 8))
    tracemalloc.start()
    try:
        sliced_w2(a, b, 128, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("a, b, name", [
    (np.zeros(3), np.zeros((4, 3)), "a"),
    (np.zeros((4, 3)), np.zeros((2, 4, 3)), "b"),
    (np.zeros((0, 3)), np.zeros((4, 3)), "a"),
    (np.zeros((4, 3)), np.zeros((0, 3)), "b"),
    (np.zeros((0, 3)), np.zeros((0, 3)), "a"),
])
def test_sliced_w2_rejects_non_matrix_or_empty_input(a, b, name, recwarn):
    with pytest.raises(ValueError, match=rf"^{name} must be an \(n, d\) matrix"):
        sliced_w2(a, b)
    assert len(recwarn) == 0


@pytest.mark.parametrize("n_projections", [0, -1])
def test_metrics_input_checks(n_projections):
    a = np.zeros((3, 2))
    with pytest.raises(ValueError, match="^need at least one projection$"):
        sliced_w2(a, a, n_projections=n_projections)
