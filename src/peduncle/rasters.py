"""Binary PPM / PGM raster files.

RGB images are 8-bit P6 PPM; depth maps are 16-bit P5 PGM (maxval 65535,
most significant byte first per the Netpbm convention) with the meters-per-
unit scale kept in the run configuration. Label images are 8-bit P5
holding each pixel's cloud.LABEL_* value, with the largest label as maxval,
so a viewer stretches them to visible greys.
"""

from __future__ import annotations

import os

import numpy as np

from .cloud import LABEL_NAMES
from .errors import FormatError

_LABEL_MAX = max(LABEL_NAMES)


def _read_header(fh, magic: bytes):
    """Parse `Pn <w> <h> <maxval>` allowing comments and any whitespace."""
    if fh.read(2) != magic:
        raise FormatError(f"expected {magic!r} raster")
    fields = []
    while len(fields) < 3:
        ch = fh.read(1)
        if not ch:
            raise FormatError("truncated raster header")
        if ch == b"#":
            while fh.read(1) not in (b"\n", b""):
                pass
            continue
        if ch.isspace():
            continue
        tok = ch
        while True:
            ch = fh.read(1)
            if not ch or ch.isspace():
                break
            tok += ch
        if not tok.isdigit():
            raise FormatError(f"raster header field {tok!r} is not a non-negative integer")
        fields.append(int(tok))
    return fields  # w, h, maxval


def _read_pixels(fh, path, nbytes: int) -> bytes:
    """Exactly nbytes of pixel data, which must end the file. The size
    comes from the header, so it is checked against the file before a read
    allocates it."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < nbytes:
        raise FormatError(f"{path}: truncated pixel data")
    if left > nbytes:
        raise FormatError(f"{path}: trailing bytes after the pixel data")
    return fh.read(nbytes)


def write_ppm(path, rgb: np.ndarray) -> None:
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6 {w} {h} 255\n".encode())
        fh.write(rgb.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        w, h, maxval = _read_header(fh, b"P6")
        if maxval != 255:
            raise FormatError(f"{path}: only 8-bit PPM supported")
        data = _read_pixels(fh, path, w * h * 3)
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3).copy()


def write_pgm16(path, depth: np.ndarray) -> None:
    depth = np.ascontiguousarray(depth, dtype=np.uint16)
    h, w = depth.shape
    with open(path, "wb") as fh:
        fh.write(f"P5 {w} {h} 65535\n".encode())
        fh.write(depth.astype(">u2").tobytes())


def read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as fh:
        w, h, maxval = _read_header(fh, b"P5")
        if maxval != 65535:
            raise FormatError(f"{path}: expected 16-bit PGM")
        data = _read_pixels(fh, path, w * h * 2)
    return np.frombuffer(data, dtype=">u2").reshape(h, w).astype(np.uint16)


def write_labels(path, labels: np.ndarray) -> None:
    h, w = labels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5 {w} {h} {_LABEL_MAX}\n".encode())
        fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def read_labels(path) -> np.ndarray:
    """Per-pixel cloud.LABEL_* values; FormatError on a pixel above the
    largest label."""
    with open(path, "rb") as fh:
        w, h, maxval = _read_header(fh, b"P5")
        if maxval != _LABEL_MAX:
            raise FormatError(f"{path}: expected 8-bit PGM with maxval {_LABEL_MAX}")
        data = _read_pixels(fh, path, w * h)
    labels = np.frombuffer(data, dtype=np.uint8).reshape(h, w)
    if (labels > _LABEL_MAX).any():
        raise FormatError(f"{path}: label above {_LABEL_MAX}")
    return labels.copy()
