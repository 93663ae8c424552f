"""Fixed reference kernels that measure how fast the machine is right now.

The hosts this benchmark runs on are shared.  On a 2-vCPU VM (Intel Xeon,
2.1 GHz) one core's speed was measured to flip between two states every few
seconds to minutes: a fixed ``lower_bound_report`` call at m=128 took
0.11 s in one half-minute and 0.20 s in the next, with CPU time equal to
wall time and no steal time.  Raw wall times of runs taken minutes apart
therefore spread far more than any regression worth catching.

So every step of the benchmark is bracketed by a reference kernel, and the
end-to-end times are reported in units of the kernel's time measured just
before and just after the step: ``step time / mean(kernel before, kernel
after)``.  The kernels never touch ``traceless``, so no change to the
package can change them.

A slow spell does not slow all code alike: interpreter-bound code slowed by
about 1.6x, the dense products of the m=512 filtration by about 1.25x.  So
there are two kernels, and each step is divided by the one that matches
the work it is dominated by:

* ``interp``: interpreter loops, small numpy calls on 2x2 blocks and 2x3
  SVDs, and float text formatting and parsing -- what the CLI, the text
  I/O and the 2x2 rotation sweeps of the reduction spend their time on;
* ``dense``: a 160x160 complex SVD, a 400x400 complex product, and row and
  column rotations of a 512x512 complex matrix -- what the filtration and
  the certificates spend their time on at m=512.

Over six-minute traces, the spread (IQR/median) of 45-s medians fell from
0.17-0.42 in seconds to 0.02-0.07 in units of the matching kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# bound at import, before the tracer wraps numpy.linalg.svd to count calls
from numpy.linalg import svd as _svd

PIECES = 3  # a probe runs a kernel PIECES times and reports PIECES times the median

_RNG = np.random.default_rng(20240601)
_SMALL = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))
_VALUES = _RNG.standard_normal(2400).tolist()
_SVD_IN = _RNG.standard_normal((160, 160)) + 1j * _RNG.standard_normal((160, 160))
_GEMM_IN = _RNG.standard_normal((400, 400)) + 1j * _RNG.standard_normal((400, 400))
_WIDE = _RNG.standard_normal((512, 512)) + 1j * _RNG.standard_normal((512, 512))
_ROT = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)


def _interpreter() -> int:
    acc, table = 0, {}
    for i in range(65000):
        acc += (i * i) % 7
        table[i & 255] = acc
    return acc + len(table)


def _small_numpy() -> float:
    w = _SMALL.copy()
    total = 0.0
    for k in range(192):
        i, j = k % 32, 63 - k % 32
        block = np.array([[w[i, i], w[i, j]], [w[j, i], w[j, j]]])
        _, s, _ = _svd(np.array([[block[0, 0].real, block[0, 1].real, block[1, 0].real],
                                 [block[0, 0].imag, block[0, 1].imag, block[1, 1].imag]]))
        idx = [i, j]
        w[idx, :] = block.conj().T @ w[idx, :]
        total += float(s[0])
    return total


def _text() -> float:
    line = " ".join("%.17g,%.17g" % (x, -x) for x in _VALUES)
    return sum(float(tok.split(",")[0]) for tok in line.split())


def _svd_160() -> float:
    return float(_svd(_SVD_IN, compute_uv=False)[0])


def _gemm_400() -> float:
    return float(abs((_GEMM_IN @ _GEMM_IN)[0, 0]))


def _rotations_512() -> None:
    w = _WIDE.copy()
    for k in range(120):
        idx = [k, 511 - k]
        w[idx, :] = _ROT.conj().T @ w[idx, :]
        w[:, idx] = w[:, idx] @ _ROT


KERNELS = {
    "interp": (_interpreter, _small_numpy, _text),
    "dense": (_svd_160, _gemm_400, _rotations_512),
}


def probe(kinds) -> dict[str, float]:
    """Seconds each named kernel takes now (about 75 ms each on the VM above)."""
    out = {}
    for kind in sorted(set(kinds)):
        times = []
        for _ in range(PIECES):
            t0 = time.perf_counter()
            for part in KERNELS[kind]:
                part()
            times.append(time.perf_counter() - t0)
        out[kind] = PIECES * statistics.median(times)
    return out
