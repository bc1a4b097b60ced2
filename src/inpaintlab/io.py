"""File formats: sample matrices (.dsmp), PGM masks, raw multi-frame masks.

All binary layouts are fixed so files can be parsed from any language:

- ``.dsmp``: magic ``DING1``, then d and n as 32-bit little-endian
  unsigned integers, then the n x d matrix as row-major little-endian
  float64.  ``dsmp_header`` is the one writer of the header, and n and d
  must be below 2**32.
- PGM: binary P5, single frame; reading thresholds at 128 (value >= 128
  means observed), writing emits 255/0.
- ``.dmsk``: magic ``DMSK``, then T, H, W as 32-bit little-endian
  unsigned integers, then row-major bytes (nonzero = observed).

A file that breaks its layout raises ``ConfigError`` naming the path.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .masklift import PixelMask

DSMP_MAGIC = b"DING1"
DMSK_MAGIC = b"DMSK"
# a .dsmp header stores n and d as uint32: each must be below this
DSMP_LIMIT = 2**32
# P5, width, height and maxval, with whitespace and '#' comments up to the end
# of a line around them, then the one whitespace byte before the raster
_PGM_HEADER = re.compile(rb"(?:\s|#.*\n)*P5" + rb"(?:\s|#.*\n)+(\d+)" * 3 + rb"\s")


def dsmp_header(n: int, d: int) -> bytes:
    """The header of an (n, d) ``.dsmp`` matrix; n * d row-major little-endian
    float64 values follow it.  Raises ValueError when n or d does not fit."""
    if not (0 <= n < DSMP_LIMIT and 0 <= d < DSMP_LIMIT):
        raise ValueError(f"a .dsmp file holds n and d below 2**32, got n = {n}, d = {d}")
    return DSMP_MAGIC + struct.pack("<II", d, n)


def write_samples(path: str | Path, samples: np.ndarray) -> None:
    samples = np.ascontiguousarray(np.asarray(samples, dtype="<f8"))
    if samples.ndim != 2:
        raise ValueError("samples must be an (n, d) matrix")
    header = dsmp_header(*samples.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples)  # the buffer as is: it must be the row-major <f8 array above


def read_samples(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[: len(DSMP_MAGIC)] != DSMP_MAGIC or len(raw) < len(DSMP_MAGIC) + 8:
        raise ConfigError(f"{path}: not a sample file (bad magic or short header)")
    d, n = struct.unpack_from("<II", raw, len(DSMP_MAGIC))
    if d < 1:
        raise ConfigError(f"{path}: sample dimension d = {d} must be positive")
    offset = len(DSMP_MAGIC) + 8
    expected = n * d * 8
    if len(raw) - offset != expected:
        raise ConfigError(f"{path}: expected {expected} payload bytes, found {len(raw) - offset}")
    # a read-only view of the payload, copied once into a fresh array
    return np.frombuffer(raw, "<f8", count=n * d, offset=offset).reshape(n, d).astype(float)


def read_pgm_mask(path: str | Path) -> PixelMask:
    """Binary P5 PGM, thresholded at 128 (>= 128 observed)."""
    raw = Path(path).read_bytes()
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ConfigError(f"{path}: malformed PGM header; expected P5, width, height, maxval")
    try:
        width, height, maxval = (int(f) for f in header.groups())
    except ValueError:  # a field past int()'s digit limit, even one of leading zeros
        raise ConfigError(f"{path}: malformed PGM header; a number has too many digits") from None
    pos = header.end()
    if not 0 < maxval < 65536:
        raise ConfigError(f"{path}: invalid maxval {maxval}")
    if maxval > 255:
        raise ConfigError(f"{path}: 16-bit PGM not supported")
    if min(width, height) < 1 or len(raw) - pos < width * height:
        raise ConfigError(f"{path}: {len(raw) - pos} bytes for {width} x {height} pixels")
    data = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=pos)
    grid = (data >= 128).astype(np.uint8).reshape(1, height, width)
    return PixelMask(grid)


def write_pgm_mask(path: str | Path, mask: PixelMask) -> None:
    if mask.shape[0] != 1:
        raise ValueError("PGM stores a single frame; name the output .dmsk instead")
    _, h, w = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write((mask.grid[0] * 255).astype(np.uint8).tobytes())


def read_dmsk(path: str | Path) -> PixelMask:
    raw = Path(path).read_bytes()
    if raw[: len(DMSK_MAGIC)] != DMSK_MAGIC or len(raw) < len(DMSK_MAGIC) + 12:
        raise ConfigError(f"{path}: not a mask file (bad magic or short header)")
    t, h, w = struct.unpack_from("<III", raw, len(DMSK_MAGIC))
    if min(t, h, w) < 1:
        raise ConfigError(f"{path}: mask dimensions {t} x {h} x {w} must be positive")
    body = raw[len(DMSK_MAGIC) + 12 :]
    if len(body) != t * h * w:
        raise ConfigError(f"{path}: expected {t * h * w} mask bytes, found {len(body)}")
    grid = (np.frombuffer(body, dtype=np.uint8) != 0).astype(np.uint8).reshape(t, h, w)
    return PixelMask(grid)


def write_dmsk(path: str | Path, mask: PixelMask) -> None:
    t, h, w = mask.shape
    with open(path, "wb") as fh:
        fh.write(DMSK_MAGIC)
        fh.write(struct.pack("<III", t, h, w))
        fh.write(mask.grid.astype(np.uint8).tobytes())
