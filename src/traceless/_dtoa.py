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


def _decimal(x: np.ndarray, t: _Tables):
    """The 17 digits D and the exponent X that ``"%.17g" % x`` shows as D * 10**(X - 16), for each |x|.

    Exact for 10**X_MIN <= |x| < 10**17 and for x = 0.  The other entries come
    back flagged ``outside``, with the digits of 1.0.  The work arrays are
    updated in place, so at most about nine arrays of len(x) are live at once.
    Each ``take`` into a work array uses mode="clip", which numpy does not
    buffer; every index is in range.
    """
    ax = np.abs(x)
    frac, exp = np.frexp(ax)  # ax = mant * 2**(exp - 53)
    dec = ((exp - 1) * 78913) >> 18  # floor(log10(2**(exp - 1))) for |exp| < 1100 (as in Ryu)
    np.minimum(np.maximum(dec, X_MIN - 1, out=dec), 17, out=dec)
    dec += ax >= t.floor10.take(dec - X_MIN + 2)  # now floor(log10(ax)), exactly
    outside = (dec < X_MIN) | (dec > 16)
    dec[ax == 0] = 0
    del ax
    if outside.any():  # computed as 1.0, then formatted by "%.17g"
        frac[outside], exp[outside], dec[outside] = 0.5, 1, 0
    k = np.subtract(16, dec, dtype=np.intp)
    mant = np.ldexp(frac, 53, out=frac).astype(_U)
    del frac
    # 2 * ax * 10**k = mant * 5**k / 2**half, and 1 <= half - s_k <= 5
    half = 52 - exp - k
    del exp
    # the half bit is set and nothing lies below it iff the lowest set bit of
    # mant * 5**k, which is that of mant, is bit `half`: then round to even
    low = np.invert(mant)
    low += _U(1)
    low &= mant
    tie = low.astype(float) == np.ldexp(1.0, half)
    del low
    half -= t.shift.take(k)
    # floor(mant * 5**k / 2**s_k): the limb products summed from the least
    # significant up, each carry the exact floor of everything below it
    hi = mant >> _U(_LIMB)
    acc, limb = np.empty_like(mant), np.empty_like(mant)
    carry, below = np.zeros_like(mant), np.zeros_like(mant)
    for j in reversed(range(_LIMBS)):
        t.limbs[j].take(k, out=limb, mode="clip")
        np.bitwise_and(mant, _U(2**_LIMB - 1), out=acc)
        acc *= limb
        below *= hi
        acc += below
        acc += carry
        np.right_shift(acc, _U(_LIMB), out=carry)
        limb, below = below, limb
    t.head.take(k, out=acc, mode="clip")
    del k, limb
    acc *= mant
    below *= hi
    acc += below
    acc += carry  # mant * 5**k / 2**s_k, floored
    del mant, hi, below, carry
    acc >>= half.astype(_U)  # twice the digits, floored
    digits = acc >> _U(1)
    acc &= digits | ~tie
    acc &= _U(1)
    digits += acc
    over = digits == _U(10**17)
    if over.any():
        digits[over] = 10**16
        dec[over] += 1
    return digits, dec, outside


def _place(word, moved, layout, t: _Tables, j: int, tmp) -> None:
    """Word j of every slot, in place of ``word``, which holds word j of the digits a.

    The slot keeps a where mask_a allows, ``moved`` (b, a moved one byte
    up) where mask_b does, and the fixed characters; ``moved`` and ``tmp``
    are overwritten.
    """
    t.mask_b[:, j].take(layout, out=tmp, mode="clip")
    tmp &= moved
    t.mask_a[:, j].take(layout, out=moved, mode="clip")
    word &= moved
    word |= tmp
    t.chars[:, j].take(layout, out=tmp, mode="clip")
    word |= tmp


def chunk_text(x: np.ndarray, start: int, cols: int) -> bytes:
    """The ASCII text of x, the floats start.. (start even) of the matrix's float view, each with its separator.

    The slots are filled one 8-byte word at a time, from the last word down,
    each from the words still holding the digits, and every work array is
    updated in place: with ``_decimal``, a chunk peaks near 70 bytes a float.
    """
    t = _tables()
    digits, dec, outside = _decimal(x, t)
    slots = np.empty((len(x), _SLOT // 8), dtype=_U)
    lead, d1, d9 = slots[:, 0], slots[:, 1], slots[:, 2]
    np.divmod(digits, _U(10**16), out=(lead, digits))
    np.divmod(digits, _U(10**8), out=(d1, d9))
    del digits
    # d1..d16 as two words of eight ASCII digits
    for part in (d1, d9):
        q, r = np.divmod(part, _U(10**4))
        t.quads.take(r, out=part, mode="clip")
        part <<= _U(32)
        t.quads.take(q, out=r, mode="clip")
        part |= r
    del part, q, r
    # the last nonzero digit is the highest byte of the words XOR "0" that is not zero
    zeros = _U(int.from_bytes(b"0" * 8, "little"))
    word = d9 ^ zeros
    high = np.ldexp(word.astype(float), 64)
    np.bitwise_xor(d1, zeros, out=word)
    high += word
    last = np.frexp(high)[1]
    del high
    last -= 1
    last >>= 3
    last += 1
    layout = np.multiply(dec - X_MIN, 17, dtype=np.intp)
    layout += last
    del dec, last
    lead += _U(48)
    tmp = word
    del word
    # the digits a are the words lead << 56, d1, d9, 0, and b, a moved one byte
    # up, is 0, d1 << 8 | lead, d9 << 8 | d1 >> 56, d9 >> 56: word j of b reads
    # words j and j - 1 of a, so the words are placed from the last down
    slots[:, 3] = 0
    moved = np.right_shift(d9, _U(56))
    _place(slots[:, 3], moved, layout, t, 3, tmp)
    np.left_shift(d9, _U(8), out=moved)
    moved |= d1 >> _U(56)
    _place(d9, moved, layout, t, 2, tmp)
    np.left_shift(d1, _U(8), out=moved)
    moved |= lead
    _place(d1, moved, layout, t, 1, tmp)
    lead <<= _U(56)
    moved[:] = 0
    _place(lead, moved, layout, t, 0, tmp)
    del tmp, moved, layout
    text = slots.view(np.uint8)
    text[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    text[0::2, _SEP] = ord(",")
    text[1::2, _SEP] = ord(" ")
    period = 2 * cols
    text[(period - 1 - start) % period::period, _SEP] = ord("\n")
    if outside.any():  # NUL-padded like the rest of the slot
        strings = np.array([b"%.17g" % v for v in x[outside].tolist()], dtype=f"S{_SEP}")
        text[outside, :_SEP] = strings.view(np.uint8).reshape(-1, _SEP)
    raw = text.tobytes()
    del text, slots, lead, d1, d9
    return raw.translate(None, b"\0")
