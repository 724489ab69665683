"""Boundary-parametrization energy (double integral over the circle).

For a closed curve sampled at m uniform angles theta_i = 2*pi*i/m the energy
is the rectangle-rule value of

    A(f) = integral integral sum_j |f_j(theta) - f_j(phi)|^2 / sin^2((theta-phi)/2)

on [0, 2*pi)^2 (for periodic integrands the composite trapezoid and rectangle
rules coincide).  The diagonal is replaced by its analytic limit 4*|f'(theta)|^2
(the numerator is |f'|^2 * delta^2 + O(delta^3) while sin^2(delta/2) is
delta^2/4), with f' taken by centered differences.
"""

from __future__ import annotations

import math

import numpy as np

from .core import MAX_AMBIENT_DIM

#: the energy holds m x m x n pairwise differences: 2,048 samples of a circle
#: peak at 255 MiB of resident memory in R^3 and 351 MiB in R^6 (n <= 6)
MAX_SAMPLES = 2048


def douglas_energy(samples) -> float:
    """Energy of a uniformly sampled closed curve (m even, 8 <= m <= MAX_SAMPLES).

    ``samples``: (m, n) array of curve points at angles 2*pi*i/m, n at most
    MAX_AMBIENT_DIM, all finite.  Raises on consecutive duplicate samples (the
    parametrization must be injective on neighbors for the difference
    quotients to mean anything).
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim != 2:
        raise ValueError("samples must be an (m, n) array")
    m = f.shape[0]
    if m < 8 or m % 2 != 0:
        raise ValueError("need an even number m >= 8 of samples")
    if m > MAX_SAMPLES:
        raise ValueError(f"{m} samples exceed the limit of {MAX_SAMPLES}")
    if f.shape[1] > MAX_AMBIENT_DIM:
        raise ValueError(f"{f.shape[1]} columns exceed the limit of {MAX_AMBIENT_DIM}")
    if not np.all(np.isfinite(f)):
        raise ValueError("samples must be finite")
    steps = np.linalg.norm(np.roll(f, -1, axis=0) - f, axis=1)
    scale = float(np.max(np.linalg.norm(f - f.mean(axis=0), axis=1)))
    if np.any(steps <= 1e-15 * max(scale, 1.0)) and scale > 0.0:
        raise ValueError("consecutive duplicate samples")

    theta = 2.0 * math.pi * np.arange(m) / m
    diff = f[:, None, :] - f[None, :, :]
    num = np.einsum("ijk,ijk->ij", diff, diff)
    half = 0.5 * (theta[:, None] - theta[None, :])
    den = np.sin(half) ** 2
    np.fill_diagonal(den, 1.0)
    integrand = num / den

    # analytic diagonal: 4 |f'|^2, centered differences
    fp = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) * (m / (4.0 * math.pi))
    np.fill_diagonal(integrand, 4.0 * np.einsum("ij,ij->i", fp, fp))

    delta = 2.0 * math.pi / m
    return float(delta * delta * integrand.sum())


def circle_samples(m: int, radius: float = 1.0) -> np.ndarray:
    """Uniform samples of a round circle in the plane, (m, 2)."""
    theta = 2.0 * math.pi * np.arange(m) / m
    return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
