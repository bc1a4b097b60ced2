import numpy as np
import pytest

from inpaintlab import ConfigError, PixelMask
from inpaintlab.io import (
    dsmp_header,
    read_dmsk,
    read_pgm_mask,
    read_samples,
    write_dmsk,
    write_pgm_mask,
    write_samples,
)


def test_dsmp_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((17, 5))
    path = tmp_path / "x.dsmp"
    write_samples(path, mat)
    back = read_samples(path)
    np.testing.assert_array_equal(back, mat)
    # a fresh array of its own, not a view of the file's bytes
    assert back.dtype == np.float64 and back.flags.writeable and back.base is None


def test_dsmp_layout(tmp_path):
    path = tmp_path / "x.dsmp"
    write_samples(path, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    raw = path.read_bytes()
    assert raw[:5] == b"DING1"
    assert int.from_bytes(raw[5:9], "little") == 2  # d first
    assert int.from_bytes(raw[9:13], "little") == 3  # then n
    assert np.frombuffer(raw[13:21], "<f8")[0] == 1.0


@pytest.mark.parametrize("shape", [(2**32, 0), (0, 2**32)])
def test_dsmp_header_limit_is_a_value_error(tmp_path, shape):
    # n and d are stored as uint32; a zero-size matrix allocates nothing
    path = tmp_path / "x.dsmp"
    with pytest.raises(ValueError, match=r"below 2\*\*32"):
        write_samples(path, np.empty(shape))
    assert not path.exists()
    header = dsmp_header(2**32 - 1, 2**32 - 1)
    assert header == b"DING1" + b"\xff" * 8


_BASE = np.arange(42, dtype=float).reshape(6, 7) / 3.0


@pytest.mark.parametrize("mat", [
    pytest.param(np.asfortranarray(_BASE), id="fortran"),
    pytest.param(_BASE[::2, 1::3], id="strided"),
    pytest.param(_BASE.astype(np.float32), id="float32"),
    pytest.param(_BASE.astype(">f8"), id="big-endian"),
])
def test_dsmp_bytes_of_any_layout(tmp_path, mat):
    # the payload is written from the array buffer: row-major little-endian float64
    path = tmp_path / "x.dsmp"
    write_samples(path, mat)
    n, d = mat.shape
    header = b"DING1" + d.to_bytes(4, "little") + n.to_bytes(4, "little")
    assert path.read_bytes() == header + np.ascontiguousarray(mat, "<f8").tobytes()


def test_dsmp_bad_magic(tmp_path):
    path = tmp_path / "bad.dsmp"
    path.write_bytes(b"NOPE!" + b"\0" * 16)
    with pytest.raises(ValueError):
        read_samples(path)


def test_dsmp_truncated(tmp_path):
    path = tmp_path / "short.dsmp"
    write_samples(path, np.ones((4, 2)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_samples(path)


def test_pgm_round_trip(tmp_path):
    grid = (np.arange(48).reshape(6, 8) % 3 == 0).astype(np.uint8)
    path = tmp_path / "m.pgm"
    write_pgm_mask(path, PixelMask(grid))
    back = read_pgm_mask(path)
    np.testing.assert_array_equal(back.grid[0], grid)


def test_pgm_threshold_at_128(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 127, 128, 255]))
    mask = read_pgm_mask(path)
    np.testing.assert_array_equal(mask.grid[0, 0], [0, 0, 1, 1])


def test_pgm_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([255, 0, 0, 255]))
    mask = read_pgm_mask(path)
    np.testing.assert_array_equal(mask.grid[0], [[1, 0], [0, 1]])


def test_pgm_rejects_other_formats(tmp_path):
    path = tmp_path / "p2.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        read_pgm_mask(path)


@pytest.mark.parametrize("raw, match", [
    (b"P5\n2 two\n255\n" + bytes(4), "malformed PGM header"),
    (b"P5\n2 -2\n255\n" + bytes(4), "malformed PGM header"),
    (b"P5\n4 4\n255\n" + bytes(3), "3 bytes for 4 x 4 pixels"),
    (b"P5\n0 4\n255\n", "0 bytes for 0 x 4 pixels"),
    (b"P5\n2 2\n65535\n" + bytes(8), "16-bit"),
], ids=["non-integer", "negative", "short", "empty", "16-bit"])
def test_malformed_pgm_is_a_config_error(tmp_path, raw, match):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match=match):
        read_pgm_mask(path)


def test_truncated_header_is_a_config_error(tmp_path):
    for name, read, raw in (("s.dsmp", read_samples, b"DING1abc"), ("m.dmsk", read_dmsk, b"DMSKabc")):
        (tmp_path / name).write_bytes(raw)
        with pytest.raises(ConfigError, match="short header"):
            read(tmp_path / name)
    # a well-formed header with a zero dimension holds no mask
    zero = tmp_path / "zero.dmsk"
    zero.write_bytes(b"DMSK" + (0).to_bytes(4, "little") + (4).to_bytes(4, "little") * 2)
    with pytest.raises(ConfigError, match="zero.dmsk: mask dimensions 0 x 4 x 4"):
        read_dmsk(zero)
    # and a sample file of d = 0 holds no sample, whatever its n
    zero = tmp_path / "zero.dsmp"
    write_samples(zero, np.zeros((5, 0)))
    with pytest.raises(ConfigError, match="zero.dsmp: sample dimension d = 0 must be positive"):
        read_samples(zero)


def test_dmsk_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    grid = (rng.random((3, 4, 5)) > 0.5).astype(np.uint8)
    path = tmp_path / "m.dmsk"
    write_dmsk(path, PixelMask(grid))
    back = read_dmsk(path)
    np.testing.assert_array_equal(back.grid, grid)


def test_dmsk_layout(tmp_path):
    path = tmp_path / "m.dmsk"
    write_dmsk(path, PixelMask(np.ones((2, 3, 4), dtype=np.uint8)))
    raw = path.read_bytes()
    assert raw[:4] == b"DMSK"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 3
    assert int.from_bytes(raw[12:16], "little") == 4
    assert len(raw) == 16 + 24


def test_pgm_multi_frame_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_pgm_mask(tmp_path / "m.pgm", PixelMask(np.ones((2, 2, 2), dtype=np.uint8)))
