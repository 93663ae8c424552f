"""The reader: the exact kernel of ``_atod`` on the writer's layout, and the row-by-row path for every other file."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import traceless
from traceless import _atod
from traceless.matio import MatrixFormatError, read_matrix, write_matrix

from test_matio import _kernel_families


def _canonical(tokens: list[str], cols: int = 50) -> bytes:
    """tokens as the re,im parts of a matrix in the writer's layout, padded with zeros to whole rows."""
    tokens = tokens + ["0"] * (-len(tokens) % (2 * cols))
    rows = [" ".join(f"{tokens[k]},{tokens[k + 1]}" for k in range(r, r + 2 * cols, 2))
            for r in range(0, len(tokens), 2 * cols)]
    body = "\n".join(rows)
    return f"{len(rows)} {cols}\n{body}\n".encode()


def _assert_bits(got: np.ndarray, tokens: list[str]):
    want = np.array([float(t) for t in tokens])
    got = got.view(float).ravel()[:len(want)]
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert not len(bad), f"first mismatches (token, read, float()): {[(tokens[k], got[k], want[k]) for k in bad[:5]]}"


def test_writer_output_reads_back_on_a_million_floats(tmp_path):
    families = _kernel_families(np.random.default_rng(20150))
    floats = np.concatenate(list(families.values()))
    floats = np.concatenate([floats, np.zeros(-len(floats) % 200)])
    assert len(floats) > 900_000
    a = floats.view(complex).reshape(-1, 100)
    path = tmp_path / "a.txt"
    write_matrix(path, a)
    assert _atod.parse_matrix(path.read_bytes()) is not None  # the kernel, not the text-mode path
    back = read_matrix(path)
    if back.tobytes() != a.tobytes():
        bad = np.flatnonzero(back.view(np.int64).ravel() != a.view(np.int64).ravel())
        pytest.fail(f"first mismatches (written, read): {[(floats[k], back.view(float).ravel()[k]) for k in bad[:5]]}")


def _near_ties(rng, n: int) -> list[str]:
    """Decimals D * 10**q, D < 10**18, closer than 2**-100 (relative) to a midpoint between two doubles, but off it.

    For q >= 19: odd * 2**g = D * 5**q + c, so x = odd * 2**(g + q) - c * 2**q; for
    q <= -22: D * 2**h = odd * 5**-q + c, so x = odd * 2**(q - h) + c / (2**h * 10**-q).
    odd has 54 bits, so odd * 2**e is a midpoint, and c is small and nonzero.
    """
    out = []
    while len(out) < n:
        q, c = int(rng.integers(-27, 28)), int(rng.choice([-3, -1, 1, 3]))
        if q >= 19:
            g, mod = int(rng.integers(50, 58)), 5**q
            odd = c * pow(2**g, -1, mod) % mod
            odd += -(-(2**53 - odd) // mod) * mod  # the least one >= 2**53
            odd += mod * (odd % 2 == 0)
            d, rest = divmod(odd * 2**g - c, mod)
        elif q <= -22:
            h = int(rng.integers(40, 60))
            odd = -c * pow(5**-q, -1, 2**h) % 2**h
            odd += -(-(2**53 - odd) // 2**h) * 2**h
            d, rest = divmod(odd * 5**-q + c, 2**h)
        else:
            continue
        assert rest == 0
        if odd < 2**54 and 0 < d < 10**18:
            out.append(f"{d}e{q}")
    return out


def _decimal_families(rng) -> dict[str, list[str]]:
    """Decimal tokens that come from no double: ties, long mantissas, and the edges of the kernel's range."""
    n = 20_000
    odd = 2 * rng.integers(2**52, 2**53, size=n, dtype=np.int64) + 1  # 54 bits: a tie between two doubles
    shift = rng.integers(0, 4, size=n)
    ties = [int(m) << int(k) for m, k in zip(odd, shift)]
    j = rng.integers(1, 3, size=n)
    long = rng.integers(10**17, 10**18, size=n)
    edges = [f"{sign}{d}e{q}" for sign in ("", "-") for d in (1, 7, 123456789012345678, 999999999999999999)
             for q in (-_atod.Q_MAX - 1, -_atod.Q_MAX, _atod.Q_MAX, _atod.Q_MAX + 1)]
    return {
        "integer ties": [str(t) for t in ties],
        "integer ties + 1": [str(t + 1) for t in ties],
        "integer ties - 1": [str(t - 1) for t in ties],
        "fractional ties": [f"{int(m) * 5 ** int(k)}e-{int(k)}" for m, k in zip(odd, j)],
        "near ties": _near_ties(rng, 2000),
        "halves": [f"{int(m) * 5}.{'0' * int(k)}e-1" for m, k in zip(odd, shift)],
        "18 digits": [f"{d}e{q}" for d, q in zip(long, rng.integers(-30, 31, size=n))],
        "18 digits over the kernel's range": [f"{d}e{q}" for d, q in zip(
            long, rng.integers(-_atod.Q_MAX - 20, _atod.Q_MAX + 16, size=n))],  # finite: below 1e308
        "18 digits with a point": [f"{str(d)[:p]}.{str(d)[p:]}" for d, p in zip(long, rng.integers(1, 18, size=n))],
        "19 and 20 digits": [f"{d}{e}e{q}" for d, e, q in zip(long, rng.integers(0, 100, size=n),
                                                                     rng.integers(-20, 21, size=n))],
        "saturating": ["99999999999999999999", "-99999999999999999999", "9223372036854775807",
                       "9223372036854775808", "-9223372036854775809", "123456789012345678901234567890e-20",
                       "1e99999999999999999999999", "1e-99999999999999999999", "0.00000000000000000000000001"],
        "q at the edges": edges,
        "subnormal and huge": ["4.9406564584124654e-324", "5e-324", "2.2250738585072011e-308",
                               "2.2250738585072014e-308", "1.7976931348623157e308", "1e308", "-9.99e307",
                               "1e-320", "123456789e-330"],
        "zeros": ["0", "-0", "0.0", "-0.0", "0e5", "-0e-5", "-00.000", "0.0e+0", "000"],
        "short": [f"{a}.{b}" for a, b in zip(rng.integers(0, 1000, size=n), rng.integers(0, 1000, size=n))],
    }


@pytest.mark.parametrize("family", list(_decimal_families(np.random.default_rng(0))))
def test_decimal_tokens_match_float(tmp_path, family):
    tokens = _decimal_families(np.random.default_rng(0))[family]
    path = tmp_path / "d.txt"
    path.write_bytes(_canonical(tokens))
    got = _atod.parse_matrix(path.read_bytes())
    assert got is not None  # every family is in the kernel's grammar
    _assert_bits(got, tokens)
    if family == "saturating":  # 1e999... reads as inf
        with pytest.raises(MatrixFormatError, match="non-finite"):
            read_matrix(path)
    else:
        _assert_bits(read_matrix(path), tokens)


GRAMMAR = ["1e", "-", "--1", "1-2", "1e+-2", ".", "-.", "1.2.3", "1e5e5", "1e5.3", "+1", ".5", "5.", "00.5",
           "1E5", "99999999999999999999", "1e+5", "-.5e-3", "e5", "-e5", ".e5", "1e-", "1e5-", "1+2", "1.e5"]


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("token", GRAMMAR)
def test_grammar_matches_float(tmp_path, monkeypatch, token, part):
    entry = f"{token},7" if part == "re" else f"7,{token}"
    path = tmp_path / "g.txt"
    path.write_bytes(f"2 2\n1,2 3,4\n5,6 {entry}\n".encode())
    int_parses = []
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *args, **kw: int_parses.append(1) or fromstring(*args, **kw))
    try:
        value = float(token)
    except ValueError:
        assert _atod.parse_matrix(path.read_bytes()) is None
        assert not int_parses  # the grammar declines the file, not the integer parse
        with pytest.raises(MatrixFormatError, match="^" + re.escape(f"row 1, col 1: bad entry {entry!r}") + "$"):
            read_matrix(path)
        return
    want = np.array([[1 + 2j, 3 + 4j], [5 + 6j, complex(value, 7) if part == "re" else complex(7, value)]])
    assert read_matrix(path).tobytes() == want.tobytes()


def test_lone_cr_ends_a_line(tmp_path):
    path = tmp_path / "cr.txt"
    path.write_bytes(b"2 2\r1,2 3,4\r5,6 7,8\r")
    assert np.array_equal(read_matrix(path), [[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
    path.write_bytes(b"2 2\r\n1,2 3,4\r5,6 7,8\n")
    assert np.array_equal(read_matrix(path), [[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])


def test_undecodable_bytes_are_a_format_error(tmp_path):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"1 1\n\xff,0\n")
    with pytest.raises(MatrixFormatError, match=r"^not UTF-8 text: invalid start byte at byte 4$"):
        read_matrix(path)


def test_kernel_declines_other_layouts():
    canonical = b"2 2\n1,2 3,4\n5,6 7,8\n"
    assert _atod.parse_matrix(canonical).tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]
    for other in (b"2 2\n1,2 3,4\n5,6 7,8", b"2 2\n1,2 3,4\n\n5,6 7,8\n", b"2 2\n1,2  3,4\n5,6 7,8\n",
                  b"2 2\n1,2 3,4 \n5,6 7,8\n", b"2 2\n1,2\t3,4\n5,6 7,8\n", b"2 2\r\n1,2 3,4\r\n5,6 7,8\r\n",
                  b" 2 2\n1,2 3,4\n5,6 7,8\n", b"2 2\n1,2 3,4\n", b"1 2\n1,2 3,4\n5,6 7,8\n",
                  b"2 1\n1,2 3,4\n5,6 7,8\n", b"2 2\n1,2,3 4\n5,6 7,8\n", b"0 2\n\n", b"2 2\n1 2,3,4\n5,6 7,8\n"):
        assert _atod.parse_matrix(other) is None, other


def test_long_lines_span_chunks(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 300)) + 1j * rng.standard_normal((7, 300))
    path = tmp_path / "wide.txt"
    write_matrix(path, a)
    for chunk in (1, 5000, 20_000, 1 << 18):  # smaller and larger than a line
        monkeypatch.setattr(_atod, "CHUNK", chunk)
        assert read_matrix(path).tobytes() == a.tobytes()


def test_import_leaves_the_kernel_out():
    src = os.path.dirname(os.path.dirname(traceless.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, traceless; print('traceless._atod' in sys.modules, 'traceless._dtoa' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "False"]
