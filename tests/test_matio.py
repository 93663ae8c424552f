import tracemalloc

import numpy as np
import pytest

from traceless._dtoa import X_MIN
from traceless.matio import (
    CHUNK,
    MatrixFormatError,
    format_matrix,
    read_matrix,
    write_matrix,
    write_points,
)

from conftest import random_complex


def test_roundtrip_exact(tmp_path, rng):
    a = random_complex(rng, 5)
    a[0, 0] = 1.0 / 3.0 + 1j * np.pi
    a[1, 2] = 1e-300 - 1j * 2.0**-52
    path = tmp_path / "a.txt"
    write_matrix(path, a)
    back = read_matrix(path)
    assert back.shape == a.shape
    assert np.array_equal(back, a)  # bit-exact round trip


def test_rectangular(tmp_path, rng):
    a = rng.standard_normal((3, 5)) + 0j
    path = tmp_path / "r.txt"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_header_format():
    text = format_matrix(np.eye(2))
    lines = text.strip().split("\n")
    assert lines[0] == "2 2"
    assert lines[1].split()[0] == "1,0"


def test_parse_errors(tmp_path):
    cases = {
        "empty.txt": "",
        "badhead.txt": "2\n1,0 0,0\n0,0 1,0\n",
        "shortrow.txt": "2 2\n1,0\n0,0 1,0\n",
        "badentry.txt": "1 1\n1+2j\n",
        "extra_rows.txt": "1 1\n1,0\n2,0\n",
        "nonfinite.txt": "1 1\ninf,0\n",
        "zerodim.txt": "0 0\n",
    }
    for name, payload in cases.items():
        path = tmp_path / name
        path.write_text(payload)
        with pytest.raises(MatrixFormatError):
            read_matrix(path)


def test_points_roundtrip(tmp_path, rng):
    pts = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    path = tmp_path / "pts.txt"
    write_points(path, pts)
    assert path.read_text().splitlines()[0] == "7 1"
    assert np.array_equal(read_matrix(path)[:, 0], pts)


def reference_format(a) -> str:
    """The format entry by entry, one ``f"{x:.17g}"`` per float."""
    a = np.asarray(a, dtype=complex)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


EXTREMES = [5e-324, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308]
HOSTILE = EXTREMES + [0.0, 1.0 / 3.0, -1e22, 2.0**-52, 123456789012345678.0, 1e-300]


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 6), (4, 11)])
def test_format_matches_reference(rng, shape):
    plain = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    hostile = rng.choice(HOSTILE, size=shape) + 1j * rng.choice(HOSTILE, size=shape)
    for a in (plain, hostile, plain.real, np.asfortranarray(plain), plain.T.T[:, ::-1]):
        assert format_matrix(a) == reference_format(a)


def test_rows_straddle_chunk_boundaries(tmp_path, rng):
    # a row of 2 * cols floats neither divides CHUNK nor is a multiple of it, so
    # chunks start mid-row, and the last chunk is a partial one
    rows, cols = 7, 1500
    per_row = 2 * cols
    assert CHUNK % per_row and per_row % CHUNK and (rows * per_row) % CHUNK
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    a.real[:, ::97] = rng.choice(HOSTILE, size=a[:, ::97].shape)  # some entries outside the kernel's range
    path = tmp_path / "wide.txt"
    write_matrix(path, a)
    assert path.read_bytes() == reference_format(a).encode()


def test_extremes_roundtrip_bit_exact(tmp_path):
    a = np.array([[complex(x, y) for y in EXTREMES] for x in EXTREMES])
    path = tmp_path / "x.txt"
    write_matrix(path, a)
    back = read_matrix(path)
    assert back.tobytes() == a.tobytes()  # also keeps the sign of -0.0
    assert path.read_text() == reference_format(a)


@pytest.mark.parametrize(
    "row, col, entry",
    [("1,2,3 4", 0, "1,2,3"), (",5 6,7", 0, ",5"), ("1,,2 3,4", 0, "1,,2"), ("1, 2", 0, "1,"),
     ("1,2 3,", 1, "3,"), ("1,2 ,3", 1, ",3"), ("1,2 x,4", 1, "x,4"), ("1,2 0x1p3,0", 1, "0x1p3,0"),
     ("1,2 3;4", 1, "3;4")],
)
def test_malformed_entry_names_row_and_column(tmp_path, row, col, entry):
    path = tmp_path / "bad.txt"
    path.write_text(f"2 2\n0,0 0,0\n{row}\n")
    with pytest.raises(MatrixFormatError, match=rf"^row 1, col {col}: bad entry {entry!r}$"):
        read_matrix(path)


@pytest.mark.parametrize(
    "payload",
    [
        "2 2\n1,2 3,4\n5,6 7,8\n",
        "2 2\n1,2\t3,4\n5,6 \t 7,8\n",
        "2   2\n  1,2    3,4  \n5,6 7,8",
        "2 2\r\n1,2 3,4\r\n5,6 7,8\r\n",
        "\n \n2 2\n\n1,2 3,4\n\t\n5,6 7,8\n\n\n",
    ],
)
def test_whitespace_and_blank_lines(tmp_path, payload):
    path = tmp_path / "ws.txt"
    path.write_bytes(payload.encode())
    assert np.array_equal(read_matrix(path), [[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])


@pytest.mark.parametrize(
    "entry, value",
    [("1_0,-0", complex(10.0, -0.0)), ("１２,1e5", complex(12.0, 1e5)), (".5,5.", complex(0.5, 5.0))],
)
def test_entries_follow_float_syntax(tmp_path, entry, value):
    path = tmp_path / "e.txt"
    path.write_text(f"1 1\n{entry}\n", encoding="utf-8")
    back = read_matrix(path)
    assert back.tobytes() == np.array([[value]]).tobytes()


@pytest.mark.parametrize("entry", ["1e400,0", "0,nan", "-inf,1"])
def test_non_finite_rejected(tmp_path, entry):
    path = tmp_path / "nf.txt"
    path.write_text(f"1 1\n{entry}\n")
    with pytest.raises(MatrixFormatError, match="non-finite"):
        read_matrix(path)


def test_memory_stays_row_sized(tmp_path, rng):
    # a whole-file token list or a whole-file string would exceed these
    a = random_complex(rng, 256)
    path = tmp_path / "big.txt"
    write_matrix(path, a)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        write_matrix(path, a)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_matrix(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, a)
    assert write_peak <= 0.25 * size
    assert read_peak <= 3.0 * size


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_zero_dimension_refused(tmp_path, shape):
    path = tmp_path / "z.txt"
    with pytest.raises(ValueError, match="at least 1"):
        format_matrix(np.zeros(shape))
    with pytest.raises(ValueError, match="at least 1"):
        write_matrix(path, np.zeros(shape))
    assert not path.exists()


def _kernel_families(rng) -> dict[str, np.ndarray]:
    """Hostile float families for the chunked %.17g writer, about 1e6 floats in all.

    Most entries lie inside the kernel's exact range, since "%.17g" itself is
    slow on huge exponents; every family outside it is still sampled.
    """
    n = 50_000
    sign = rng.choice([-1.0, 1.0], size=n)
    bits = np.frombuffer(rng.bytes(8 * n), dtype=float)
    tens = np.array([float(f"1e{j}") for j in range(-40, 41)])
    near = [tens]
    for direction in (np.inf, -np.inf):
        x = tens
        for _ in range(3):
            x = np.nextafter(x, direction)
            near.append(x)
    near_ties = [float(f"{d}5e{e}") for d, e in zip(rng.integers(10**16, 10**17, size=n),
                                                      rng.integers(-60, 3, size=n))]
    # exact 17-digit ties: m odd with m * 2**(X - 17) in [10**X, 10**(X + 1)), so that
    # x * 10**(16 - X) = m * 5**(16 - X) / 2 is an odd number of halves
    exact_ties = []
    for dec in range(-6, 15):
        low = 2**17 * 5**dec if dec >= 0 else -(-2**17 // 5**-dec)
        m = 2 * rng.integers(low // 2, (10 * low) // 2, size=20_000) + 1
        exact_ties.append(np.ldexp(m.astype(float), dec - 17))
    subnormal = np.frombuffer(rng.integers(1, 2**52, size=n // 2, dtype=np.uint64).tobytes(), dtype=float)
    inside = rng.choice([-1.0, 1.0], size=6 * n) * 10.0 ** rng.uniform(X_MIN, 17, size=6 * n)
    edges = []
    for edge in (float(f"1e{X_MIN}"), 1e17):
        for direction in (np.inf, -np.inf):
            x = edge
            for _ in range(6):
                edges += [x, -x]
                x = np.nextafter(x, direction)
    return {
        "random bit patterns": bits[np.isfinite(bits)],
        "log-uniform magnitudes": sign * np.exp2(rng.uniform(-1074.0, 1023.99, size=n)),
        "log-uniform inside the exact range": inside,
        "powers of ten and 1-3 ulps": np.concatenate(near + [-x for x in near]),
        "near 17-digit ties": np.array(near_ties),
        "exact 17-digit ties": np.concatenate(exact_ties),
        "subnormals and zeros": np.concatenate([subnormal, [0.0, -0.0, 5e-324, -5e-324]]),
        "edges of the exact range": np.array(edges),
        "1e150-scaled": 1e150 * rng.standard_normal(n // 4),
        "1e-150-scaled": 1e-150 * rng.standard_normal(n // 4),
    }


def test_chunked_writer_matches_reference_on_a_million_floats():
    families = _kernel_families(np.random.default_rng(20150))
    floats = np.concatenate(list(families.values()))
    floats = np.concatenate([floats, np.zeros(-len(floats) % 200)])
    assert len(floats) > 900_000
    a = floats.view(complex).reshape(-1, 100)
    got, want = format_matrix(a), reference_format(a)
    if got != want:
        bad = [(g, w) for row_g, row_w in zip(got.split("\n"), want.split("\n"))
               for g, w in zip(row_g.split(), row_w.split()) if g != w]
        pytest.fail(f"first mismatches (written, %.17g): {bad[:5]}")
