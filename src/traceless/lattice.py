"""Gaussian-integer point sets and inverse-square pair energies.

The canonical set of m lattice points with smallest moduli lives in the
disc of radius 1 + sqrt(m/pi); its normalized pair energy grows like
pi*log(m)/m, which is what makes it a good source of well-separated
eigenvalues for the commutator construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["EnergyReport", "gaussian_points", "radius_bound", "pair_energy", "pair_expectation"]


@dataclass
class EnergyReport:
    pair_energy: float      # sum over ordered pairs of 1/|z_i - z_j|^2
    expectation: float      # pair_energy / (m (m-1))
    # pi log m / m: the measured m*expectation - pi log m lies in [-4.2, -1.5] for 4 <= m <= 16384
    bound_value: float


def radius_bound(m: int) -> float:
    """1 + sqrt(m/pi): the disc of this radius holds at least m Gaussian integers."""
    return 1.0 + math.sqrt(m / math.pi)


def gaussian_points(m: int) -> np.ndarray:
    """The m Gaussian integers with smallest absolute values, in canonical order.

    Ties in modulus are broken by (real, imaginary) lexicographic order, so
    the set and its ordering are reproducible.  Every modulus is at most
    ``radius_bound(m)``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    r = int(math.ceil(radius_bound(m)))
    span = np.arange(-r, r + 1)
    re, im = np.meshgrid(span, span, indexing="ij")
    re, im = re.ravel(), im.ravel()
    norm2 = re * re + im * im
    order = np.lexsort((im, re, norm2))[:m]
    return re[order].astype(float) + 1j * im[order].astype(float)


def pair_energy(points) -> float:
    """Sum of 1/|z_i - z_j|^2 over ordered pairs i != j."""
    pts = np.asarray(points, dtype=complex).ravel()
    n = len(pts)
    total = 0.0
    block = 2048  # keeps the pairwise table under ~0.5 GB for m ~ 16384
    for lo in range(0, n, block):
        chunk = pts[lo:lo + block, None] - pts[None, :]
        d2 = chunk.real**2 + chunk.imag**2
        np.fill_diagonal(d2[:, lo:], np.inf)
        if np.any(d2 == 0.0):
            raise ValueError("coincident points have infinite pair energy")
        total += float(np.sum(1.0 / d2))
    return total


def pair_expectation(points) -> EnergyReport:
    """Exact pair energy of ``points`` and its expectation over a random distinct pair."""
    m = len(points)
    if m < 2:
        raise ValueError(f"pair expectation needs m >= 2, got {m}")
    energy = pair_energy(points)
    return EnergyReport(
        pair_energy=energy,
        expectation=energy / (m * (m - 1)),
        bound_value=math.pi * math.log(m) / m,
    )
