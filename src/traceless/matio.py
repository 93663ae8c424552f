"""Text serialization for complex matrices and point sets.

Format: a header line ``m n``, then m data lines of n entries.  Each entry
is ``re,im`` printed with 17 significant digits (``%.17g``), so reading the
file back reproduces the exact float64 values.  Point sets use the same
format with n = 1.

The reader accepts exactly this grammar:

* lines that are empty or all whitespace are skipped, wherever they are;
* the header is two integers m, n >= 1, and exactly m data lines follow;
* a data line has n entries separated by any run of whitespace (spaces,
  tabs, the CR of a CRLF line end);
* an entry has exactly one comma and a non-empty part on each side, and
  each part is anything ``float()`` accepts (``1e5``, ``-0``, ``1_0``);
* non-finite values (``inf``, ``nan``, or an overflow such as ``1e400``)
  are rejected.

Writing formats the floats in chunks of ``CHUNK`` with the numpy integer
kernel of ``_dtoa`` and produces the bytes of ``%.17g`` exactly.  A fixed
17-digit rounding needs no bignum for ordinary magnitudes: with
|x| = M * 2**E (M a 53-bit integer), X = floor(log10|x|) and k = 16 - X,
the digits are D = round-half-even(M * 5**k * 2**(E + k)).  5**k is held
exactly as a 7-bit head and four 31-bit fraction limbs, so the floor of the
product, its half bit and whether anything lies below it (a power-of-two
test on M) are all exact.  The text -- fixed or exponent form, trailing
zeros stripped, sign, ``0`` and ``-0`` -- is laid out in fixed 32-byte
slots from lookup tables and compacted once per chunk.  This covers
1e-40 <= |x| < 1e17 and zero; any other entry (1e-150, 1e300) gets
``"%.17g" % x`` written into the same chunk.  Reading parses one row at a
time into a preallocated array, so neither side holds a Python object for
every entry of the file.
"""

from __future__ import annotations

import os

import numpy as np

from .linalg import as_matrix

__all__ = ["format_matrix", "write_matrix", "read_matrix", "write_points"]

# every byte except space and comma: deleting these reduces a well-formed
# row to ", , ... ," (one comma per entry)
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b" ,")


class MatrixFormatError(ValueError):
    """Raised when a matrix file cannot be parsed."""


CHUNK = 2048  # floats formatted per numpy pass; the work arrays stay a few hundred KB


def _writable(a) -> np.ndarray:
    a = np.ascontiguousarray(as_matrix(a))
    if 0 in a.shape:  # read_matrix requires m, n >= 1
        raise ValueError(f"cannot write a {a.shape[0]}x{a.shape[1]} matrix: both dimensions must be at least 1")
    return a


def _chunks(a: np.ndarray):
    """The file's bytes: the header, then the text of CHUNK floats at a time."""
    from . import _dtoa  # here: where no bytecode is cached, compiling it costs every import ~2 ms

    rows, cols = a.shape
    yield f"{rows} {cols}\n".encode()
    floats = a.view(float).ravel()
    for start in range(0, len(floats), CHUNK):
        yield _dtoa.chunk_text(floats[start:start + CHUNK], start, cols)


def format_matrix(a) -> str:
    return b"".join(_chunks(_writable(a))).decode("ascii")


def write_matrix(path: str | os.PathLike, a) -> None:
    a = _writable(a)
    with open(path, "wb") as fh:
        fh.writelines(_chunks(a))


def _parse_row(fields: list[str], out: np.ndarray) -> bool:
    """Parse n ``re,im`` fields into ``out`` (length 2n) with one numpy call.

    Returns False, leaving the entry-by-entry parse to name the culprit,
    unless every field has exactly one comma with a non-empty part on each
    side and every part is a float literal.
    """
    joined = " ".join(fields)
    tokens = joined.replace(",", " ").split()
    if len(tokens) != len(out):
        return False
    if joined.encode().translate(None, _NOT_SEPARATOR) != b", " * (len(fields) - 1) + b",":
        return False
    try:
        out[:] = np.array(tokens, dtype=float)
    except ValueError:
        return False
    return True


def _parse_entries(i: int, fields: list[str]) -> list[float]:
    """Entry-by-entry parse of row i, naming the first entry that is not ``re,im``."""
    values = []
    for j, field in enumerate(fields):
        try:
            re_part, im_part = field.split(",")
            values += [float(re_part), float(im_part)]
        except ValueError as exc:
            raise MatrixFormatError(f"row {i}, col {j}: bad entry {field!r}") from exc
    return values


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = [ln for ln in text.split("\n") if ln.strip()]
    del text
    if not lines:
        raise MatrixFormatError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError(f"bad header line: {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatrixFormatError(f"bad header line: {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"bad dimensions {rows}x{cols}")
    if len(lines) != rows + 1:
        raise MatrixFormatError(f"expected {rows} data lines, found {len(lines) - 1}")
    out = np.empty((rows, 2 * cols))
    for i, ln in enumerate(lines[1:]):
        fields = ln.split()
        if len(fields) != cols:
            raise MatrixFormatError(f"row {i}: expected {cols} entries, found {len(fields)}")
        if not _parse_row(fields, out[i]):
            out[i] = _parse_entries(i, fields)
    if not np.all(np.isfinite(out)):
        raise MatrixFormatError("matrix has non-finite entries")
    return out.view(complex)


def write_points(path: str | os.PathLike, points) -> None:
    pts = np.asarray(points, dtype=complex).reshape(-1, 1)
    write_matrix(path, pts)
