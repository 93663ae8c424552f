"""The exact vectorized ``%.17g`` text of a chunk of a matrix's floats (a numpy dtoa).

``chunk_text`` returns the bytes of ``"%.17g" % x`` for every float x,
each followed by its separator in ``matio``'s file format; the exactness
argument is in ``matio``'s docstring.  ``matio`` imports this module on its
first write, so that importing the package does not compile it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

X_MIN = -40  # the kernel is exact for 10**X_MIN <= |x| < 10**17, and for zero

_LIMB = 31  # limb bits: lo * limb + hi * limb + carry, with hi < 2**22, stays below 2**63
_LIMBS = 4  # fraction limbs of 5**k, enough for k = 16 - X_MIN
_SLOT = 32  # bytes per float before the NUL bytes are dropped
_U = np.uint64

# A float's 32-byte slot (NUL where unused): the sign at byte 0, the "0.000"
# prefix of fixed form at 1-5, digits d0..d16 at 7-23 ("a"), or one byte
# later when they follow the point ("b"), the point at 8 + p when it follows
# digit p, the exponent "e-05" at 25-28 and the separator at 30.
_SEP = 30


class _Tables(NamedTuple):
    floor10: np.ndarray  # [X - X_MIN + 1] for X in X_MIN-1..18: the smallest double >= 10**X
    shift: np.ndarray  # [k]: s_k = bit_length(5**k) - 7, so 5**k / 2**s_k lies in [64, 128)
    head: np.ndarray  # [k]: floor(5**k / 2**s_k)
    limbs: np.ndarray  # [j, k]: limb j of the fraction 5**k / 2**s_k - head, most significant first
    quads: np.ndarray  # [g]: the ASCII digits of f"{g:04d}" as a little-endian word
    mask_a: np.ndarray  # [layout]: the slot's bytes taken from "a", as four words
    mask_b: np.ndarray  # [layout]: the slot's bytes taken from "b"
    chars: np.ndarray  # [layout]: the slot's fixed characters (prefix, point, exponent)


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built on first use."""
    floor10 = []
    for x in range(X_MIN - 1, 19):
        f = float(f"1e{x}")  # correctly rounded: step up where it fell below 10**x
        num, den = f.as_integer_ratio()
        floor10.append(f if x >= 0 or num * 10**-x >= den else math.nextafter(f, math.inf))
    ks = range(16 - X_MIN + 1)
    shift = [(5**k).bit_length() - 7 for k in ks]
    head = [5**k >> s if s > 0 else 5**k << -s for k, s in zip(ks, shift)]
    fraction = [(5**k << (_LIMB * _LIMBS - s)) % 2 ** (_LIMB * _LIMBS) if s > 0 else 0 for k, s in zip(ks, shift)]
    limbs = [[f >> (_LIMB * (_LIMBS - 1 - j)) & (2**_LIMB - 1) for f in fraction] for j in range(_LIMBS)]
    pairs = np.frombuffer("".join(f"{g:02d}" for g in range(100)).encode(), np.uint16)
    quads = (pairs.astype(np.uint32)[:, None] | pairs.astype(np.uint32) << 16).ravel()

    # layout = (X - X_MIN) * 17 + last, where last is the index of the last nonzero digit
    dec = np.arange(X_MIN, 18)[:, None, None]
    last = np.arange(17)[:, None]
    byte = np.arange(_SLOT)
    expo = (dec < -4) | (dec >= 17)
    point = np.where(expo, 0, np.where(dec >= 0, dec, 17))  # the digit the point follows; 17: none
    keep = np.maximum(np.where(point < 17, point, 0), last)  # the last digit written
    mask_a = (byte >= 7) & (byte <= 7 + np.minimum(point, keep))
    mask_b = (byte > 8 + point) & (byte <= 8 + keep)
    chars = np.zeros(mask_a.shape, np.uint8)
    chars[(byte == 8 + point) & (last > point)] = ord(".")
    for i, (x, exponent_form) in enumerate(zip(dec.ravel(), expo.ravel())):
        if exponent_form:
            chars[i, :, 25:29] = np.frombuffer(b"e%+03d" % x, np.uint8)
        elif x < 0:
            chars[i, :, 1:2 - x] = np.frombuffer(b"0.000"[:1 - x], np.uint8)

    def words(slots):  # one row of four uint64 words per layout
        return slots.reshape(-1, _SLOT).view(_U)

    tables = _Tables(np.array(floor10), np.array(shift), np.array(head, dtype=_U), np.array(limbs, dtype=_U),
                     quads.astype(_U), words(mask_a * np.uint8(255)), words(mask_b * np.uint8(255)), words(chars))
    for table in tables:
        table.flags.writeable = False
    return tables


def _decimal(ax: np.ndarray, t: _Tables):
    """The 17 digits D and the exponent X that ``"%.17g" % x`` shows as D * 10**(X - 16), for ax = |x|.

    Exact for 10**X_MIN <= ax < 10**17 and for ax = 0.  The other entries come
    back flagged ``outside``, with the digits of 1.0.
    """
    frac, exp = np.frexp(ax)  # ax = mant * 2**(exp - 53)
    dec = ((exp - 1) * 78913) >> 18  # floor(log10(2**(exp - 1))) for |exp| < 1100 (as in Ryu)
    np.minimum(np.maximum(dec, X_MIN - 1, out=dec), 17, out=dec)
    dec += ax >= t.floor10.take(dec - X_MIN + 2)  # now floor(log10(ax)), exactly
    outside = (dec < X_MIN) | (dec > 16)
    dec[ax == 0] = 0
    if outside.any():  # computed as 1.0, then formatted by "%.17g"
        frac[outside], exp[outside], dec[outside] = 0.5, 1, 0
    k = 16 - dec
    mant = np.ldexp(frac, 53).astype(_U)
    lo = mant & _U(2**_LIMB - 1)
    hi = mant >> _U(_LIMB)
    # floor(mant * 5**k / 2**s_k): the limb products summed from the least
    # significant up, each carry the exact floor of everything below it
    carry = below = _U(0)
    for j in reversed(range(_LIMBS)):
        limb = t.limbs[j].take(k)
        carry = (lo * limb + hi * below + carry) >> _U(_LIMB)
        below = limb
    scaled = mant * t.head.take(k) + hi * below + carry
    # 2 * ax * 10**k = mant * 5**k / 2**half, and 1 <= half - s_k <= 5
    half = 52 - exp - k
    twice = scaled >> (half - t.shift.take(k)).astype(_U)
    digits = twice >> _U(1)
    # the half bit is set and nothing lies below it iff the lowest set bit of
    # mant * 5**k, which is that of mant, is bit `half`: then round to even
    tie = (mant & (~mant + _U(1))).astype(float) == np.ldexp(1.0, half)
    digits += twice & (digits | ~tie) & _U(1)
    over = digits == _U(10**17)
    if over.any():
        digits[over] = 10**16
        dec[over] += 1
    return digits, dec, outside


def chunk_text(x: np.ndarray, start: int, cols: int) -> bytes:
    """The ASCII text of x, the floats start.. (start even) of the matrix's float view, each with its separator."""
    t = _tables()
    digits, dec, outside = _decimal(np.abs(x), t)
    lead, rest = np.divmod(digits.view(np.int64), 10**16)
    # d1..d16 as two words of eight ASCII digits; the last nonzero digit is
    # the highest byte of the words XOR "0" that is not zero
    d1, d9 = (t.quads.take(q) | t.quads.take(r) << 32
              for q, r in (np.divmod(part, 10**4) for part in np.divmod(rest, 10**8)))
    zeros = int.from_bytes(b"0" * 8, "little")
    last = ((np.frexp(np.ldexp((d9 ^ zeros).astype(float), 64) + (d1 ^ zeros))[1] - 1) >> 3) + 1
    a = np.zeros((len(x), _SLOT // 8), dtype=_U)
    a[:, 0] = (lead + 48) << 56
    a[:, 1] = d1
    a[:, 2] = d9
    layout = (dec - X_MIN) * 17 + last
    out = t.mask_a.take(layout, axis=0)
    out &= a
    b = np.zeros_like(a)  # a moved one byte up, for the digits after the point
    b.view(np.uint8).ravel()[1:] = a.view(np.uint8).ravel()[:-1]
    b &= t.mask_b.take(layout, axis=0)
    out |= b
    out |= t.chars.take(layout, axis=0)
    del a, b
    text = out.view(np.uint8)
    text[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    text[0::2, _SEP] = ord(",")
    text[1::2, _SEP] = ord(" ")
    period = 2 * cols
    text[(period - 1 - start) % period::period, _SEP] = ord("\n")
    if outside.any():  # NUL-padded like the rest of the slot
        strings = np.array([b"%.17g" % v for v in x[outside].tolist()], dtype=f"S{_SEP}")
        text[outside, :_SEP] = strings.view(np.uint8).reshape(-1, _SEP)
    return text.tobytes().translate(None, b"\0")
