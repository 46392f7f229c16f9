"""Text-file plumbing shared by the package's ASCII readers and writers.

`open_text` opens a text file for reading and turns bytes that are not
UTF-8 into FormatError. `write_rows` / `read_rows` are the one column-wise
writer and reader behind the row-per-line formats (scores, features, the
support vectors of an svm model, and the write-only cloud): a header, then
one line per row holding the float columns as `repr` and the int columns
as decimals, one space apart. Each format keeps its own header line and
header checks.
"""

from __future__ import annotations

import contextlib
import itertools
import os

import numpy as np

from .errors import FormatError, InvalidInput


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; a decoding error anywhere inside
    the `with` block becomes FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from exc


# Rows are formatted and parsed this many at a time, so the Python objects
# alive at once (floats, row strings, line strings) stay few and small
# however long the file is.
_BLOCK = 4096


def write_rows(path, head: str, floats: np.ndarray, ints: np.ndarray) -> None:
    """Write `head`, then one `repr(float) ... int ...` line per row.

    floats is (N, F) and ints (N, I); the text equals joining
    `repr(float(v))` and `int(v)` field by field. Raises InvalidInput when
    the two arrays have different row counts, before the file is opened.
    """
    floats, ints = np.asarray(floats), np.asarray(ints)
    if len(floats) != len(ints):
        raise InvalidInput(f"{len(floats)} float rows but {len(ints)} int rows")
    row = " ".join(["%r"] * floats.shape[1] + ["%d"] * ints.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + "\n")
        for start in range(0, len(floats), _BLOCK):
            cols = floats[start : start + _BLOCK].T.tolist() + ints[start : start + _BLOCK].T.tolist()
            values = tuple(itertools.chain.from_iterable(zip(*cols)))
            fh.write(row * (len(values) // len(cols)) % values)


def read_rows(fh, path, count: int, n_float: int, n_int: int, noun: str):
    """The `count` lines left in `fh` as ((count, n_float) float64,
    (count, n_int) int64) arrays.

    Raises FormatError on a count that is negative or larger than the file
    can hold (checked before anything is allocated), a missing, blank or
    malformed line, a field that does not parse (an int field takes only
    an optional sign and decimal digits that fit int64), or anything but
    whitespace after the last row. Non-finite floats parse; callers check
    their ranges.
    """
    if count < 0:
        raise FormatError(f"{path}: negative {noun} count")
    # every field takes at least one character and a space or the newline
    if count * 2 * (n_float + n_int) > os.fstat(fh.fileno()).st_size:
        raise FormatError(f"{path}: {noun} count larger than the file")
    rows = np.empty(count, np.dtype([("f", "f8", (n_float,)), ("i", "i8", (n_int,))]))
    for start in range(0, count, _BLOCK):
        want = min(_BLOCK, count - start)
        lines = list(itertools.islice(fh, want))
        if len(lines) < want:
            raise FormatError(f"{path}: file ends after {noun} line {start + len(lines)} of {count}")
        # loadtxt would skip a blank line; the row count is checked again below
        if not all(map(str.strip, lines)):
            raise FormatError(f"{path}: blank {noun} line after line {start}")
        try:
            block = np.loadtxt(lines, dtype=rows.dtype, comments=None, ndmin=1)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed {noun} line: {exc}") from exc
        if len(block) != len(lines):
            raise FormatError(f"{path}: blank {noun} line after line {start}")
        rows[start : start + len(block)] = block
    if fh.read().strip():
        raise FormatError(f"{path}: data after the last {noun}")
    return np.ascontiguousarray(rows["f"]), np.ascontiguousarray(rows["i"])
