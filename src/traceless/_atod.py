"""The exact vectorized reading of matrix text in the writer's own layout (a numpy atod).

``parse_matrix`` returns the float view of the matrix in a file's bytes, or
None when the file is not in the layout ``format_matrix`` writes; the
grammar it accepts, the exactness argument and the cases it declines are
in ``matio``'s docstring.  ``matio`` imports this module on its first read,
so that importing the package does not compile it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

CHUNK = 1 << 18  # bytes of whole lines parsed per numpy pass
Q_MAX = 275  # 10**q is a double-double table entry for |q| <= Q_MAX; matio's proof needs every term normal
D_MAX = 10**18  # mantissas below this are exact int64 parses, and exact as a double-double

_ALPHABET = b"0123456789.-+e, \n"
_TO_INTS = bytes.maketrans(b",\ne", b"   ")  # with the points deleted: the mantissas and exponents
_SEP, _MINUS, _POINT, _E, _SIGN = range(5)  # non-digit classes; _SIGN is '+', or '-' right after 'e'
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: splits a double into two 26-bit halves


class _Tables(NamedTuple):
    klass: np.ndarray  # [byte]: the class of a non-digit byte of the alphabet
    allowed: np.ndarray  # [(prev * 5 + next) * 2 + adjacent]: may these non-digits follow each other in a token
    hi: np.ndarray  # [q + Q_MAX]: 10**q rounded to a double
    lo: np.ndarray  # [q + Q_MAX]: 10**q - hi rounded to a double (zero error for 0 <= q <= 45)


def _split(x):
    c = x * _SPLIT
    high = c - (c - x)
    return high, x - high


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built on first use."""
    klass = np.zeros(256, np.int8)
    for byte, cls in ((b",", _SEP), (b" ", _SEP), (b"\n", _SEP), (b"-", _MINUS), (b".", _POINT),
                      (b"e", _E), (b"+", _SIGN)):
        klass[byte[0]] = cls
    # a token is SEP [MINUS] [POINT] [E [SIGN]] SEP with digits between; which
    # neighbours must touch (1), must have digits between (0), or may do either
    pairs = {(_SEP, _SEP): (0,), (_SEP, _MINUS): (1,), (_SEP, _POINT): (0, 1), (_SEP, _E): (0,),
             (_MINUS, _POINT): (0, 1), (_MINUS, _E): (0,), (_MINUS, _SEP): (0,),
             (_POINT, _E): (0, 1), (_POINT, _SEP): (0, 1),
             (_E, _SIGN): (1,), (_E, _SEP): (0,), (_SIGN, _SEP): (0,)}
    allowed = np.zeros(50, bool)
    for (prev, nxt), adjacent in pairs.items():
        allowed[[(prev * 5 + nxt) * 2 + a for a in adjacent]] = True
    hi, lo = [], []
    for q in range(-Q_MAX, Q_MAX + 1):
        if q >= 0:
            h = float(10**q)  # int -> float rounds correctly, and so does the rest
            rest = float(10**q - int(h))
        else:
            h = 1 / 10**-q  # int / int rounds correctly, and so does the rest
            num, den = h.as_integer_ratio()
            rest = (den - num * 10**-q) / (den * 10**-q)
        hi.append(h)
        lo.append(rest)
    tables = _Tables(klass, allowed, np.array(hi), np.array(lo))
    for table in tables:
        table.flags.writeable = False
    return tables


def _scale(d: np.ndarray, q: np.ndarray, tab: _Tables):
    """The double s nearest d * 10**q for 0 <= d < D_MAX, |q| <= Q_MAX, and where that is proven."""
    dh = d.astype(float)
    dl = (d - dh.astype(np.int64)).astype(float)  # d = dh + dl exactly
    i = q + Q_MAX
    th = tab.hi.take(i)
    dh1, dh2 = _split(dh)
    th1, th2 = _split(th)
    p = dh * th
    pl = dh1 * th1 - p  # with the next three terms, p + pl = dh * th exactly (Dekker)
    pl += dh1 * th2
    pl += dh2 * th1
    pl += dh2 * th2
    del dh1, dh2, th1, th2
    pl += dh * tab.lo.take(i) + dl * th  # the cross terms; dl * tl is left out
    s = p + pl
    r = p - s
    r += pl  # s + r = p + pl exactly (Fast2Sum: |pl| < |p|)
    half = np.spacing(s)
    half *= np.where(((s.view(np.int64) & (2**52 - 1)) == 0) & (r < 0), 0.25, 0.5)  # a power of two's lower gap
    decided = np.abs(r) + 2.0**-100 * s < half
    decided |= d == 0
    return s, decided


def _decimals(text: bytes, pattern: np.ndarray, tab: _Tables):
    """Each token of whole lines as (start, end, negative, d, q) with value (-1)**negative * |d| * 10**q, or None."""
    if text.translate(None, _ALPHABET):
        return None
    a = np.frombuffer(text, np.uint8)
    nd = np.flatnonzero((a ^ np.uint8(48)) > 9)  # every byte that is not a digit
    pos = np.empty(len(nd) + 1, np.int64)
    pos[0] = -1  # the line end before the chunk
    pos[1:] = nd
    cls = np.empty(len(pos), np.int8)
    cls[0] = _SEP
    tab.klass.take(a.take(nd), out=cls[1:])
    del nd
    prev, nxt = cls[:-1], cls[1:]
    nxt[(nxt == _MINUS) & (prev == _E)] = _SIGN
    gap = np.diff(pos)
    if not tab.allowed.take((prev * 5 + nxt) * 2 + (gap == 1)).all():
        return None
    points = np.flatnonzero(cls == _POINT)  # each needs a digit on one side
    if not ((gap.take(points - 1) > 1) | (gap.take(points) > 1)).all():
        return None
    del gap
    is_sep = cls == _SEP
    seps = pos[is_sep]
    count = len(seps) - 1
    if count % len(pattern) or not (a.take(seps[1:]).reshape(-1, len(pattern)) == pattern).all():
        return None
    try:  # the grammar leaves only [+-]digits; numpy 1.x would warn and stop short where 2.x raises
        ints = np.fromstring(text.translate(_TO_INTS, b"."), dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    exps = np.flatnonzero(cls == _E)
    if len(ints) != count + len(exps):
        return None
    token = np.cumsum(is_sep) - 1  # the token of each non-digit
    starts, ends = seps[:-1] + 1, seps[1:]
    exp_token = token.take(exps)
    mantissa_end = ends.copy()
    mantissa_end[exp_token] = pos.take(exps)
    point = mantissa_end - 1  # no point: no digits after it
    point[token.take(points)] = pos.take(points)
    del pos, cls, token, is_sep
    q = point + 1 - mantissa_end  # minus the digits after the point
    width = np.ones(count, np.int64)
    width[exp_token] = 2
    first = np.cumsum(width) - width  # the mantissa's index in ints
    q[exp_token] += ints.take(first.take(exp_token) + 1)
    return starts, ends, a.take(starts) == ord("-"), ints.take(first), q


def _chunk(text: bytes, pattern: np.ndarray, out: np.ndarray, tab: _Tables) -> int | None:
    """Parse whole lines into the head of out; the count of floats, or None to decline."""
    tokens = _decimals(text, pattern, tab)
    if tokens is None or len(tokens[0]) > len(out):
        return None
    starts, ends, negative, d, q = tokens
    rare = (d >= D_MAX) | (d <= -D_MAX) | (q > Q_MAX) | (q < -Q_MAX)  # saturated parses included
    d[rare] = 0
    q[rare] = 0
    s, decided = _scale(np.abs(d), q, tab)
    np.negative(s, out=s, where=negative)  # "-0" parses as 0
    rare = np.flatnonzero(rare | ~decided)
    if len(rare):
        s[rare] = [float(text[i:j]) for i, j in zip(starts.take(rare).tolist(), ends.take(rare).tolist())]
    out[:len(s)] = s
    return len(s)


def parse_matrix(data: bytes) -> np.ndarray | None:
    """The (m, 2n) floats of a file in ``format_matrix``'s layout, or None for any other file."""
    head = data.find(b"\n")
    if head < 0 or not data.endswith(b"\n"):
        return None
    header = data[:head].split(b" ")
    if len(header) != 2 or not all(field.isdigit() for field in header):
        return None
    rows, cols = int(header[0]), int(header[1])
    if rows < 1 or cols < 1 or len(data) - head - 1 < 4 * rows * cols:  # also bounds the allocation
        return None
    tab = _tables()
    out = np.empty((rows, 2 * cols))
    flat = out.reshape(-1)
    pattern = np.frombuffer(b", " * (cols - 1) + b",\n", np.uint8)
    start, done = head + 1, 0
    while start < len(data):
        end = data.rfind(b"\n", start, start + CHUNK) + 1 or data.find(b"\n", start + CHUNK) + 1
        count = _chunk(data[start:end], pattern, flat[done:], tab)
        if count is None:
            return None
        start, done = end, done + count
    return out if done == len(flat) else None
