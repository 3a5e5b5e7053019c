"""Binary netpbm (P5 grayscale / P6 RGB) reading and writing.

Header grammar follows the netpbm convention: magic number, then three
whitespace-separated tokens (width, height, maxval) with `#` comments
allowed between tokens, then a single whitespace byte before the raster.
Only maxval 255 is supported.
"""

from __future__ import annotations

import os

import numpy as np

from .core import ValidationError


def _next_token(handle, path) -> bytes:
    byte = handle.read(1)
    while byte and (byte.isspace() or byte == b"#"):
        if byte == b"#":
            while byte and byte != b"\n":
                byte = handle.read(1)
        byte = handle.read(1)
    if not byte:
        raise ValidationError(f"{path}: truncated netpbm header")
    token = bytearray()
    while byte and not byte.isspace():
        token += byte
        byte = handle.read(1)
    return bytes(token)


def _header_int(handle, path, what: str) -> int:
    token = _next_token(handle, path)
    try:
        value = int(token)
    except ValueError:
        raise ValidationError(f"{path}: bad {what} token {token!r}") from None
    if value <= 0:
        raise ValidationError(f"{path}: {what} must be positive, got {value}")
    return value


def read_pnm(path) -> np.ndarray:
    """Read a binary netpbm file.

    Returns an (H, W) uint8 array for P5 or an (H, W, 3) array for P6.
    """
    with open(path, "rb") as handle:
        magic = _next_token(handle, path)
        if magic not in (b"P5", b"P6"):
            raise ValidationError(
                f"{path}: unsupported magic number {magic!r} (want P5 or P6)"
            )
        width = _header_int(handle, path, "width")
        height = _header_int(handle, path, "height")
        maxval = _header_int(handle, path, "maxval")
        if maxval != 255:
            raise ValidationError(f"{path}: unsupported maxval {maxval} (want 255)")
        channels = 1 if magic == b"P5" else 3
        expected = width * height * channels
        # Bounded by the file size: a huge declared raster is truncated, not allocated.
        available = os.fstat(handle.fileno()).st_size - handle.tell()
        raster = handle.read(max(0, min(expected, available)))
        if len(raster) < expected:
            raise ValidationError(
                f"{path}: truncated raster ({len(raster)} of {expected} bytes)"
            )
    data = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return data.reshape(height, width)
    return data.reshape(height, width, 3)


def write_pnm(path, pixels: np.ndarray) -> None:
    """Write an (H, W) array as P5 or an (H, W, 3) array as P6, maxval 255."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        raise ValidationError("netpbm raster must be uint8")
    if pixels.ndim == 2:
        magic = b"P5"
        height, width = pixels.shape
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        magic = b"P6"
        height, width = pixels.shape[:2]
    else:
        raise ValidationError(f"cannot encode array of shape {pixels.shape}")
    with open(path, "wb") as handle:
        handle.write(magic + b"\n%d %d\n255\n" % (width, height))
        handle.write(pixels.tobytes())
