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
from .errors import FormatError, InvalidInput

_LABEL_MAX = max(LABEL_NAMES)

# (magic, maxval, pixel dtype in the file, channels) of each raster kind
_RGB = ("P6", 255, np.dtype(np.uint8), 3)
_DEPTH = ("P5", 65535, np.dtype(">u2"), 1)
_LABELS = ("P5", _LABEL_MAX, np.dtype(np.uint8), 1)


def _read_header(fh, path, magic: str):
    """Parse `Pn <w> <h> <maxval>` allowing comments and any whitespace."""
    if fh.read(2) != magic.encode():
        raise FormatError(f"{path}: not a {magic} raster")
    fields = []
    while len(fields) < 3:
        ch = fh.read(1)
        if not ch:
            raise FormatError(f"{path}: truncated raster header")
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
            raise FormatError(f"{path}: raster header field {tok!r} is not a non-negative integer")
        fields.append(int(tok))
    return fields  # w, h, maxval


def _read(path, kind) -> np.ndarray:
    """The (h, w) or (h, w, channels) pixels of a raster of the given kind,
    in native byte order. FormatError, naming the path, on another magic
    or maxval, a malformed header, or pixel data not exactly filling the
    rest of the file. The size comes from the header, so it is checked
    against the file before a read allocates it."""
    magic, maxval, dtype, channels = kind
    with open(path, "rb") as fh:
        w, h, found = _read_header(fh, path, magic)
        if found != maxval:
            raise FormatError(f"{path}: expected a {magic} raster with maxval {maxval}, got {found}")
        nbytes = w * h * channels * dtype.itemsize
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != nbytes:
            fault = "truncated pixel data" if left < nbytes else "trailing bytes after the pixel data"
            raise FormatError(f"{path}: {fault}")
        data = fh.read(nbytes)
    shape = (h, w) if channels == 1 else (h, w, channels)
    return np.frombuffer(data, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))


def _write(path, kind, pixels) -> None:
    """`<magic> <w> <h> <maxval>` and the pixels, in the kind's dtype."""
    magic, maxval, dtype, channels = kind
    pixels = np.asarray(pixels)
    h, w = pixels.shape[:2]
    if pixels.shape != ((h, w) if channels == 1 else (h, w, channels)):
        raise InvalidInput(f"{path}: {magic} pixels of shape {pixels.shape}")
    with open(path, "wb") as fh:
        fh.write(f"{magic} {w} {h} {maxval}\n".encode())
        fh.write(pixels.astype(dtype).tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    _write(path, _RGB, rgb)


def read_ppm(path) -> np.ndarray:
    return _read(path, _RGB)


def write_pgm16(path, depth: np.ndarray) -> None:
    _write(path, _DEPTH, depth)


def read_pgm16(path) -> np.ndarray:
    return _read(path, _DEPTH)


def write_labels(path, labels: np.ndarray) -> None:
    _write(path, _LABELS, labels)


def read_labels(path) -> np.ndarray:
    """Per-pixel cloud.LABEL_* values; FormatError on a pixel above the
    largest label."""
    labels = _read(path, _LABELS)
    if (labels > _LABEL_MAX).any():
        raise FormatError(f"{path}: label above {_LABEL_MAX}")
    return labels
