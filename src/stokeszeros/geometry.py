"""Small planar-geometry helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "wrap_angle",
    "polyline_arrays",
    "distance_to_polyline",
    "nearest_on_polyline",
    "polyline_cumlen",
    "segments_intersect",
]


def wrap_angle(angle: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    a = math.fmod(angle + math.pi, 2 * math.pi)
    if a <= 0:
        a += 2 * math.pi
    return a - math.pi


def polyline_arrays(samples) -> np.ndarray:
    return np.asarray(samples, dtype=complex)


def distance_to_polyline(z: complex, samples) -> float:
    """Distance from z to a polyline (vectorized over segments)."""
    pts = polyline_arrays(samples)
    if pts.size == 1:
        return abs(z - pts[0])
    a = pts[:-1]
    b = pts[1:]
    ab = b - a
    denom = (ab * ab.conjugate()).real
    t = ((z - a) * ab.conjugate()).real / np.where(denom == 0, 1.0, denom)
    t = np.clip(t, 0.0, 1.0)
    feet = a + t * ab
    return float(np.min(np.abs(z - feet)))


def nearest_on_polyline(z: complex, samples) -> tuple:
    """(distance, arclength position, foot point) of the closest point."""
    pts = polyline_arrays(samples)
    if pts.size == 1:
        return abs(z - pts[0]), 0.0, complex(pts[0])
    a = pts[:-1]
    b = pts[1:]
    ab = b - a
    seglen = np.abs(ab)
    denom = (ab * ab.conjugate()).real
    t = ((z - a) * ab.conjugate()).real / np.where(denom == 0, 1.0, denom)
    t = np.clip(t, 0.0, 1.0)
    feet = a + t * ab
    dists = np.abs(z - feet)
    k = int(np.argmin(dists))
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    return float(dists[k]), float(cum[k] + t[k] * seglen[k]), complex(feet[k])


def polyline_cumlen(samples) -> np.ndarray:
    pts = polyline_arrays(samples)
    if pts.size == 1:
        return np.zeros(1)
    return np.concatenate([[0.0], np.cumsum(np.abs(np.diff(pts)))])


def _orient(a: complex, b: complex, c: complex) -> float:
    return (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)


def segments_intersect(a: complex, b: complex, c: complex, d: complex) -> bool:
    """True if the closed segments [a,b] and [c,d] intersect."""
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on_seg(p, q, r):
        return (
            min(p.real, q.real) - 1e-15 <= r.real <= max(p.real, q.real) + 1e-15
            and min(p.imag, q.imag) - 1e-15 <= r.imag <= max(p.imag, q.imag) + 1e-15
        )

    if d1 == 0 and on_seg(c, d, a):
        return True
    if d2 == 0 and on_seg(c, d, b):
        return True
    if d3 == 0 and on_seg(a, b, c):
        return True
    if d4 == 0 and on_seg(a, b, d):
        return True
    return False


def crossings_count(a: complex, b: complex, p: np.ndarray, q: np.ndarray) -> int:
    """Number of segments (p[i], q[i]) that the open segment (a, b) crosses.

    Strict crossings only (orientation products negative on both sides);
    touching endpoints do not count.
    """

    def orient(u, v, w):
        return (v.real - u.real) * (w.imag - u.imag) - (v.imag - u.imag) * (
            w.real - u.real
        )

    d1 = orient(p, q, a)
    d2 = orient(p, q, b)
    d3 = (b.real - a.real) * (p.imag - a.imag) - (b.imag - a.imag) * (p.real - a.real)
    d4 = (b.real - a.real) * (q.imag - a.imag) - (b.imag - a.imag) * (q.real - a.real)
    return int(np.count_nonzero((d1 * d2 < 0) & (d3 * d4 < 0)))


def crossing_fractions(a: complex, b: complex, p: np.ndarray, q: np.ndarray) -> list:
    """Parameters t in (0,1) where segment a + t(b-a) strictly crosses (p[i], q[i])."""

    def orient(u, v, w):
        return (v.real - u.real) * (w.imag - u.imag) - (v.imag - u.imag) * (
            w.real - u.real
        )

    d1 = orient(p, q, a)
    d2 = orient(p, q, b)
    d3 = (b.real - a.real) * (p.imag - a.imag) - (b.imag - a.imag) * (p.real - a.real)
    d4 = (b.real - a.real) * (q.imag - a.imag) - (b.imag - a.imag) * (q.real - a.real)
    mask = (d1 * d2 < 0) & (d3 * d4 < 0)
    if not np.any(mask):
        return []
    denom = d1[mask] - d2[mask]
    ts = d1[mask] / np.where(denom == 0, 1.0, denom)
    return sorted(float(t) for t in ts if 0.0 < t < 1.0)
