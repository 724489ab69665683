"""Local density diagnostics: ratios, profiles, projections, classification.

Everything here works on balls around a chosen point.  Densities use the
exact circular clipping, so catalog cones evaluate to their exact constants;
the classifier matches a ball of content against the cone catalog by density
window plus a seeded rotation search refined with a pattern-search descent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import cones
from .geometry.clipping import clip_to_ball, clipped_measure, sphere_slice_measure
from .geometry.core import Ball, EmbeddedMesh, Gauge, LineBoundary, as_point, ordered_sum
from .geometry.distance import sample_mesh, sup_distance

#: relative density spread below which a profile counts as flat
FLAT_TOL = 0.05

#: candidate cones must match the measured density within this window
DENSITY_WINDOW = 0.1

#: a classification is accepted below this normalized shape residual
RESIDUAL_OK = 0.05

#: default size of the seeded rotation net
ROTATION_NET = 512

#: largest rotation net: each fit draws a (count, 4) array and builds count
#: 3x3 matrices, then ranks every one of them
MAX_ROTATIONS = 1 << 12


def density(mesh: EmbeddedMesh, center, radius: float) -> float:
    """H^d(mesh cap B(center, radius)) / radius^d, evaluated exactly."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return clipped_measure(mesh, Ball(center, radius)) / radius ** mesh.dimension


def _gauge_adjustment(gauge: Optional[Gauge], radius: float) -> float:
    """exp of the integrated doubling gauge, closed form for h(t) = c t^a."""
    if gauge is None:
        return 1.0
    if radius > gauge.cutoff:
        return math.inf
    a = gauge.exponent
    return math.exp(gauge.scale * (2.0 ** a) * radius ** a / a)


def _radii(radii: Sequence[float]) -> list:
    rs = sorted(float(r) for r in radii)
    if not rs or rs[0] <= 0.0:
        raise ValueError("radii must be positive")
    return rs


def _trend(values: list, adjusted: list) -> dict:
    """Flatness (relative spread) of ``values``, monotonicity of ``adjusted``."""
    mean = ordered_sum(values) / len(values)
    spread = (max(values) - min(values)) / mean if mean > 0 else math.inf
    tol = 1e-9 * max(1.0, max(adjusted) if all(map(math.isfinite, adjusted)) else 1.0)
    return {"flat": spread <= FLAT_TOL, "spread": spread,
            "monotone_adjusted": all(b >= a - tol for a, b in zip(adjusted, adjusted[1:]))}


def density_profile(mesh: EmbeddedMesh, center, radii: Sequence[float],
                    gauge: Optional[Gauge] = None) -> dict:
    """Density per radius plus trend diagnostics.

    The adjusted column multiplies the density by the integrated gauge
    factor; for (almost) minimizing content it should be nondecreasing in r,
    which is reported, never asserted.  ``low_density`` flags densities below
    the smallest catalog constant for the dimension (minus the flat window),
    a sign that the ball has strayed off the set.
    """
    rs = _radii(radii)
    dens = [density(mesh, center, r) for r in rs]
    adj = [th * _gauge_adjustment(gauge, r) for th, r in zip(dens, rs)]
    floor = 2.0 if mesh.dimension == 1 else math.pi
    return {
        "radii": rs,
        "densities": dens,
        "adjusted": adj,
        **_trend(dens, adj),
        "drift": adj[-1] - adj[0] if all(map(math.isfinite, adj)) else math.inf,
        "low_density": min(dens) < floor - FLAT_TOL,
    }


@dataclass(frozen=True)
class SlidingContext:
    """A sliding boundary line plus the inward shade direction.

    ``shade`` spans, together with the line direction, the half-plane region
    behind the boundary that sliding competitors may occupy; profiles add its
    ball measure so that half-plane and open-book configurations compare
    against the unconstrained plane and triple-junction constants.
    """

    line: LineBoundary
    shade: np.ndarray

    def __post_init__(self):
        s = as_point(self.shade)
        n = float(np.linalg.norm(s))
        if n <= 0:
            raise ValueError("shade direction must be nonzero")
        s = s / n
        if abs(float(s @ self.line.direction)) > 1e-9:
            raise ValueError("shade direction must be orthogonal to the boundary line")
        s.flags.writeable = False
        object.__setattr__(self, "shade", s)

    def shade_mesh(self, center, extent: float) -> EmbeddedMesh:
        """The shade half-plane behind the line, truncated beyond the ball."""
        foot = self.line.foot(center)
        u = self.line.direction
        w = self.shade
        R = 2.0 * extent
        p0 = foot - R * u
        p1 = foot + R * u
        return EmbeddedMesh.from_simplex_list(2, [
            [p0, p1, p1 - R * w],
            [p0, p1 - R * w, p0 - R * w],
        ])


def sliding_profile(profile: dict, center, context: SlidingContext,
                    gauge: Optional[Gauge] = None) -> dict:
    """A ``density_profile`` with the boundary shade added to every ball."""
    rs, dens = profile["radii"], profile["densities"]
    shade = context.shade_mesh(center, rs[-1])
    shaded = [th + density(shade, center, r) for th, r in zip(dens, rs)]
    adj = [ts * _gauge_adjustment(gauge, r) for ts, r in zip(shaded, rs)]
    return {"radii": rs, "densities": dens, "shaded_densities": shaded,
            "adjusted": adj, **_trend(shaded, adj)}


def cone_slice_check(mesh: EmbeddedMesh, center, radius: float,
                     tol: float = 1e-9) -> dict:
    """Exact cone compatibility at one radius.

    A cone with apex at the center satisfies H^d(E cap B_r) = (r/d) *
    H^(d-1)(E cap sphere_r) exactly; the relative residual of that identity
    is the conicity defect of the ball.
    """
    ball = Ball(center, radius)
    lhs = clipped_measure(mesh, ball)
    slice_md = sphere_slice_measure(mesh, ball)
    rhs = (radius / mesh.dimension) * slice_md
    scale = max(lhs, rhs, 1e-300)
    residual = abs(lhs - rhs) / scale
    return {"ball_measure": lhs, "slice_measure": slice_md,
            "cone_value": rhs, "residual": residual, "ok": residual <= tol}


def blowup(mesh: EmbeddedMesh, center, radius: float, clip: bool = True) -> EmbeddedMesh:
    """(E - center)/radius, optionally clipped to the unit ball."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    c = as_point(center)
    scaled = mesh.transformed(scale=1.0 / radius, translation=-c / radius)
    if not clip:
        return scaled
    return clip_to_ball(scaled, Ball(np.zeros(mesh.ambient_dim), 1.0))


def big_projection_check(mesh: EmbeddedMesh, center, radius: float,
                         tau: float = 0.25) -> dict:
    """Does the shadow of E cap B(x, r) cover a coaxial disk of radius (1-tau) r?

    The content is sampled inside the ball, projected along the smallest
    principal direction of the samples (reported as ``axis``), and binned on
    a raster of pitch tau*r/8.  Every raster cell whose center lies within
    (1-tau) r must catch a sample; uncovered cells are reported with their
    world positions, localizing any hole to raster resolution.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must be in (0, 1)")
    c = as_point(center)
    d = mesh.dimension
    r = float(radius)
    pitch = tau * r / 8.0
    pts = sample_mesh(mesh, pitch / 2.0, Ball(c, r))
    if pts.shape[0] == 0:
        return {"ok": False, "reason": "no content inside the ball",
                "covered_fraction": 0.0, "holes": []}
    rel = pts - c[None, :]
    _, _, vt = np.linalg.svd(rel - rel.mean(axis=0), full_matrices=False)
    basis = vt[:d].T              # leading principal directions
    coords = rel @ basis          # (M, d) shadow coordinates
    m = int(math.ceil(2.0 * r / pitch))
    idx = np.floor((coords + r) / pitch).astype(int)
    idx = np.clip(idx, 0, m - 1)
    covered = np.zeros((m,) * d, dtype=bool)
    covered[tuple(idx.T)] = True
    centers_1d = -r + (np.arange(m) + 0.5) * pitch
    if d == 1:
        cell_centers = centers_1d[:, None]
    else:
        gx, gy = np.meshgrid(centers_1d, centers_1d, indexing="ij")
        cell_centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    within = np.linalg.norm(cell_centers, axis=1) <= (1.0 - tau) * r
    flat_cov = covered.ravel()
    required = int(within.sum())
    missing = np.nonzero(within & ~flat_cov)[0]
    holes = []
    for i in missing[:64]:
        world = c + basis @ cell_centers[i]
        holes.append([float(x) for x in world])
    frac = 1.0 - len(missing) / required if required else 0.0
    return {"ok": len(missing) == 0 and required > 0,
            "covered_fraction": frac,
            "required_cells": required, "missing_cells": int(len(missing)),
            "pitch": pitch, "holes": holes,
            "axis": [float(x) for x in vt[-1]]}


# ---------------------------------------------------------------------------
# rotation search machinery
# ---------------------------------------------------------------------------

def _complete_basis(axis: np.ndarray) -> np.ndarray:
    """Orthonormal frame whose last column is the given unit axis."""
    n = axis.size
    M = np.eye(n)
    k = int(np.argmax(np.abs(axis)))
    M[:, [k, n - 1]] = M[:, [n - 1, k]]
    M[:, n - 1] = axis
    q, _ = np.linalg.qr(M)
    # force the last column to the exact axis and fix orientation
    q[:, n - 1] = axis
    for j in range(n - 1):
        q[:, j] -= (q[:, j] @ axis) * axis
        q[:, j] /= np.linalg.norm(q[:, j])
    return q


def _rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _axis_angle(w: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(w))
    if theta < 1e-300:
        return np.eye(3)
    k = w / theta
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)


def _planar_rotation(w) -> np.ndarray:
    ca, sa = math.cos(w[0]), math.sin(w[0])
    return np.array([[ca, -sa], [sa, ca]])


def _rotation_net(seed: int, count: int, n: int) -> list:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    out = [np.eye(n)]
    if n == 2:
        for a in rng.uniform(0.0, 2.0 * math.pi, size=count):
            out.append(_planar_rotation([a]))
    else:
        qs = rng.normal(size=(count, 4))
        for q in qs:
            out.append(_rotation_from_quaternion(q))
    return out


def _one_sided(samples: np.ndarray, center: np.ndarray, rot: np.ndarray,
               cone: EmbeddedMesh, radius: float, bound: float = math.inf) -> float:
    """sup dist(E-samples -> posed cone) / r, measured in the cone frame;
    exact below ``bound``, and at least ``bound`` otherwise."""
    if samples.shape[0] == 0:
        return math.inf
    local = (samples - center) @ rot
    return sup_distance(local, cone.simplex_corners(), bound, radius) / radius


def _sample_cone(cone: EmbeddedMesh, radius: float) -> np.ndarray:
    """Samples of the cone inside B(0, r) at pitch r/24, in the cone frame."""
    return sample_mesh(cone, radius / 24.0, Ball(np.zeros(cone.ambient_dim), radius))


def _two_sided(mesh: EmbeddedMesh, samples: np.ndarray, center: np.ndarray,
               rot: np.ndarray, cone: EmbeddedMesh, cone_samples: np.ndarray,
               radius: float, bound: float = math.inf) -> float:
    """Two-sided normalized sup distance between E cap B and the posed cone;
    exact below ``bound``, and at least ``bound`` otherwise."""
    a = _one_sided(samples, center, rot, cone, radius, bound)
    if cone_samples.shape[0] == 0 or a >= bound:
        return a
    world = cone_samples @ rot.T + center
    return max(a, sup_distance(world, mesh.simplex_corners(), bound, radius) / radius)


def _pattern_descent(fun, x0: np.ndarray, f0: float, step: float, depth: float):
    """Coordinate pattern search: probe +-step per axis, shrink on failure.

    ``fun(y, bound)`` need only be exact below ``bound``: a probe is kept
    only when it lands below ``fx - 1e-15``, which is the bound it gets.
    """
    x, fx = np.array(x0, dtype=float), f0
    # enough probes to halve the step from its start down to the depth
    max_iter = 24 * max(4, int(math.log2(max(step / max(depth, 1e-12), 2.0))) + 2)
    it = 0
    while step > depth and it < max_iter:
        improved = False
        for j in range(x.size):
            for sgn in (1.0, -1.0):
                y = x.copy()
                y[j] += sgn * step
                target = fx - 1e-15
                fy = fun(y, target)
                it += 1
                if fy < target:
                    x, fx = y, fy
                    improved = True
                    break
            if improved:
                break
        if not improved:
            step *= 0.5
    return x, fx


def _two_best(items: list, residual) -> list:
    """``sorted(range(len(items)), key=...)[:2]`` by ``residual(item, bound)``,
    which need only be exact below ``bound``.

    In index order a tie sorts after both incumbents, so the bound is the
    running second best, and a value at or above it is cut.
    """
    top = []
    for i, item in enumerate(items):
        bound = top[1][0] if len(top) == 2 else math.inf
        v = residual(item, bound)
        if len(top) < 2 or v < bound:
            top.insert(sum(t <= v for t, _ in top), (v, i))
            del top[2:]
    return [i for _, i in top]


@dataclass
class ConeFit:
    name: str
    residual: float
    rotation: np.ndarray
    params: dict


def _fit_interior(mesh: EmbeddedMesh, samples: np.ndarray, coarse: np.ndarray,
                  center: np.ndarray, radius: float, name: str, seed: int,
                  rotations: int, depth: float) -> ConeFit:
    n = mesh.ambient_dim
    cone = cones.build_cone(name, extent=1.02 * radius, ambient=n)
    cone_samples = _sample_cone(cone, radius)
    pose = _planar_rotation if n == 2 else _axis_angle
    net = _rotation_net(seed, rotations, n)
    best_rot, best_val = None, math.inf
    for i in _two_best(net, lambda rot, bound: _one_sided(coarse, center, rot, cone,
                                                          radius, bound)):
        base = net[i]
        fun = lambda w, bound: _two_sided(mesh, samples, center, base @ pose(w), cone,
                                          cone_samples, radius, bound)
        f0 = _two_sided(mesh, samples, center, base, cone, cone_samples, radius)
        w, val = _pattern_descent(fun, np.zeros(n * (n - 1) // 2), f0, 0.2, depth)
        if val < best_val:
            best_rot, best_val = base @ pose(w), val
    return ConeFit(name, best_val, best_rot, {})


def _fit_boundary(mesh: EmbeddedMesh, samples: np.ndarray, center: np.ndarray,
                  radius: float, name: str, context: SlidingContext,
                  depth: float) -> ConeFit:
    frame = _complete_basis(context.line.direction)

    def residual(phis, bound):
        if name == "halfplane":
            cone = cones.halfplane_azimuth_cone(phis[0], extent=1.02 * radius)
        else:
            cone = cones.v_cone_azimuths(phis[0], phis[1], extent=1.02 * radius)
        return _two_sided(mesh, samples, center, frame, cone, _sample_cone(cone, radius),
                          radius, bound)

    k = 1 if name == "halfplane" else 2
    grid = np.linspace(0.0, 2.0 * math.pi, 25 if k == 2 else 64, endpoint=False)
    # combinations visit the pairs in nested-loop order, so the strict < keeps
    # the first of tied candidates, and a candidate at the running best is cut
    best_p, best_val = None, math.inf
    for phis in itertools.combinations(grid, k):
        v = residual(phis, best_val)
        if v < best_val:
            best_p, best_val = np.array(phis), v
    best_p, best_val = _pattern_descent(residual, best_p, best_val, 0.2, depth)
    params = {"azimuths": [float(x) for x in best_p]}
    if k == 2:
        delta = abs(best_p[1] - best_p[0]) % (2.0 * math.pi)
        params["dihedral"] = min(delta, 2.0 * math.pi - delta)
    return ConeFit(name, best_val, frame, params)


def classify_point(mesh: EmbeddedMesh, center, radius: float, *,
                   context: Optional[SlidingContext] = None, seed: int = 0,
                   rotations: int = ROTATION_NET, depth: float = 1e-4) -> dict:
    """Match the ball around a point against the cone catalog.

    Steps: measure the density, prescreen the profile for scale-invariance,
    shortlist catalog cones within the density window, then fit each
    candidate by seeded rotation net plus pattern descent (interior points)
    or by azimuth search around the boundary line (sliding points).  E cap B
    is sampled once, at pitch r/64, and every fit measures against those
    samples.  The report carries every stage; ``ok`` requires a flat profile
    and a candidate residual at most ``RESIDUAL_OK``.
    """
    if not 0 <= rotations <= MAX_ROTATIONS:
        raise ValueError(f"rotations must be in 0..{MAX_ROTATIONS}, got {rotations}")
    c = as_point(center)
    r = float(radius)
    d = mesh.dimension
    profile = density_profile(mesh, c, [0.25 * r, 0.5 * r, 0.75 * r, r])
    theta = profile["densities"][-1]
    report = {"density": theta, "profile": profile, "context": context is not None}
    if not profile["flat"]:
        report.update(best=None, candidates=[], ok=False,
                      reason="density is not scale-invariant across the probe radii")
        return report
    names = cones.catalog(d, boundary=context is not None)
    cands = [nm for nm in names if abs(cones.CONE_DENSITY[nm] - theta) <= DENSITY_WINDOW]
    if context is not None:
        # an on-boundary point cannot be an unconstrained interior shape of
        # the same density: prefer the sliding candidates when both match
        sliding = [nm for nm in cands if nm in cones.BOUNDARY_CONES]
        if sliding:
            cands = sliding
    report["candidates"] = cands
    if not cands:
        report.update(best=None, ok=False,
                      reason="density matches no catalog constant within the window")
        return report
    samples = sample_mesh(mesh, r / 64.0, Ball(c, r))
    # the rotation net is ranked on every fourth sample
    coarse = samples[::4] if samples.shape[0] > 256 else samples
    fits = []
    for nm in cands:
        if context is not None and nm in cones.BOUNDARY_CONES:
            fits.append(_fit_boundary(mesh, samples, c, r, nm, context, depth))
        else:
            fits.append(_fit_interior(mesh, samples, coarse, c, r, nm, seed, rotations, depth))
    fits.sort(key=lambda f: f.residual)
    best = fits[0]
    report["fits"] = [{"name": f.name, "residual": f.residual, **f.params} for f in fits]
    report["best"] = {"name": best.name, "residual": best.residual,
                      "rotation": best.rotation.tolist(), **best.params}
    report["ok"] = best.residual <= RESIDUAL_OK
    return report
