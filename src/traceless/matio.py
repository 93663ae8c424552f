"""Text serialization for complex matrices and point sets.

Format: a header line ``m n``, then m data lines of n entries.  Each entry
is ``re,im`` printed with 17 significant digits (``%.17g``), so reading the
file back reproduces the exact float64 values.  Point sets use the same
format with n = 1.

The reader accepts exactly this grammar:

* lines that are empty or all whitespace are skipped, wherever they are;
* the header is two integers m, n >= 1, and exactly m data lines follow;
* a line ends at LF, CRLF or a lone CR, so ``"2 2\r1,2 3,4\r5,6 7,8\r"``
  is a 2x2 matrix;
* a data line has n entries separated by any run of whitespace (spaces,
  tabs);
* an entry has exactly one comma and a non-empty part on each side, and
  each part is anything ``float()`` accepts (``1e5``, ``-0``, ``1_0``);
* non-finite values (``inf``, ``nan``, or an overflow such as ``1e400``)
  are rejected, and so is a file that is not UTF-8 text.

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
``"%.17g" % x`` written into the same chunk.

Reading takes the file's bytes to the numpy kernel of ``_atod`` first.  It
accepts only the writer's layout: the header ``m n``, then the entries with
exactly the separators ``,`` `` `` ... ``,`` ``\n`` in turn, the file
ending in ``\n``, every byte one of ``0-9 . - + e`` or a separator, and
every token ``-?d*(.d*)?(e[+-]?d+)?`` (d a digit) with at least one
mantissa digit, so ``.5`` and ``5.`` but not ``+1`` or ``1E5``.  It works
on chunks of whole lines of about ``_atod.CHUNK`` bytes.  The grammar is
checked on the positions of the non-digit bytes alone: which classes may
follow each other in a token, and which must touch or have digits between.
One ``np.fromstring(..., dtype=int64)`` then reads every mantissa D (the
points deleted) and exponent, and with f the digits after the point,
x = D * 10**q, q = e - f; the sign comes from the token's first byte, so
``-0`` keeps it.

For D < 10**18 and |q| <= 275 (``_atod.Q_MAX``) the kernel rounds x
exactly.  D = dh + dl exactly (dh = double(D), |dl| <= u dh, u = 2**-53),
and 10**q = th + tl from a table built with Python ints, with
|10**q - th - tl| <= u**2 10**q (th and tl each rounded once; exact for
0 <= q <= 45, as 5**45 has 105 bits).  Dekker's product gives
p + pe = dh * th exactly; the cross terms dh * tl + dl * th (each below
1.01 u x) add at most 4.1 u**2 x of rounding, the dropped dl * tl and the
table at most 2.1 u**2 x, and pl = pe + (cross terms) rounds by at most
3.1 u**2 x.  Those bounds need every term normal and finite, and that is
what bounds |q|.  With 1 <= D < 10**18 and |q| <= 275, x >= 10**-275 >
2**-914, so u**2 x > 2**-1020 and 2**-100 s > 2**-1015 are normal, and
each product of halves in Dekker's product, whose lowest bit is at least
ulp(dh) ulp(th) >= 2**-1018, is exact; and x < 10**293, like the split
th (2**27 + 1) < 10**284, is below 2**1023.  So the exact x lies within
10 u**2 x < 2**-102 s of s + r, where s = p + pl rounded and r its exact
remainder (Fast2Sum).  x rounds to s when |r| + 2**-102 s is below half
the gap to s's neighbour on r's side: ulp(s) / 2, or ulp(s) / 4 below a
power of two (on the other side x is within 2**-102 s of s, inside either
half-gap).  The kernel tests ``|r| + 2**-100 s < that half-gap``; the
float addition in the test loses less than u ulp(s), far inside the
slack.  Every other token goes to ``float()`` on its own bytes: a tie or
near-tie the test cannot decide, D >= 10**18 (``np.fromstring`` saturates
there), |q| > 275 (subnormals, 1e300 and infinities among them).
When any check fails, ``_atod`` declines the whole file, and the reader
below decodes it as UTF-8 with text mode's newlines and parses it one row
at a time, each part of each entry by ``float()``: every file outside the
writer's layout reads as it did before the kernel, with the same values
and the same errors.  Neither reader
holds a Python object for every entry of the file.
"""

from __future__ import annotations

import os

import numpy as np

from .linalg import as_matrix

__all__ = ["format_matrix", "write_matrix", "read_matrix", "write_points"]

class MatrixFormatError(ValueError):
    """Raised when a matrix file cannot be parsed."""


CHUNK = 8192  # floats formatted per numpy pass; the work arrays peak near 70 bytes a float, 0.6 MB


def _writable(a) -> np.ndarray:
    a = np.ascontiguousarray(as_matrix(a))
    if 0 in a.shape:  # read_matrix requires m, n >= 1
        raise ValueError(f"cannot write a {a.shape[0]}x{a.shape[1]} matrix: both dimensions must be at least 1")
    return a


def _emit(a: np.ndarray, write) -> None:
    """Pass the file's bytes to ``write``: the header, then the text of CHUNK floats at a time.

    Each chunk's text is dropped once written, before the next is formatted.
    """
    from . import _dtoa  # here: where no bytecode is cached, compiling it costs every import ~2 ms

    rows, cols = a.shape
    write(f"{rows} {cols}\n".encode())
    floats = a.view(float).ravel()
    for start in range(0, len(floats), CHUNK):
        write(_dtoa.chunk_text(floats[start:start + CHUNK], start, cols))


def format_matrix(a) -> str:
    parts: list[bytes] = []
    _emit(_writable(a), parts.append)
    return b"".join(parts).decode("ascii")


def write_matrix(path: str | os.PathLike, a) -> None:
    a = _writable(a)
    with open(path, "wb") as fh:
        _emit(a, fh.write)


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


def _parse_text(data: bytes) -> np.ndarray:
    """The (m, 2n) floats of a file's UTF-8 text, one row at a time, naming the first fault."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    # text mode's newlines: CRLF and a lone CR end a line too
    lines = [ln for ln in text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if ln.strip()]
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
        out[i] = _parse_entries(i, fields)
    return out


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    from . import _atod  # here, like _dtoa: importing the package does not compile it

    with open(path, "rb") as fh:
        data = fh.read()
    out = _atod.parse_matrix(data)
    if out is None:
        out = _parse_text(data)
    if not np.all(np.isfinite(out)):
        raise MatrixFormatError("matrix has non-finite entries")
    return out.view(complex)


def write_points(path: str | os.PathLike, points) -> None:
    pts = np.asarray(points, dtype=complex).reshape(-1, 1)
    write_matrix(path, pts)
