"""Small planar-geometry and branch-continuation helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "wrap_angle",
    "nearest_sign",
    "distance_to_polyline",
    "nearest_on_polyline",
    "polyline_cumlen",
    "mid_arclength_index",
    "SegmentSet",
]


def wrap_angle(angle: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    a = math.fmod(angle + math.pi, 2 * math.pi)
    if a <= 0:
        a += 2 * math.pi
    return a - math.pi


def nearest_sign(w: complex, ref: complex) -> complex:
    """Whichever of w and -w lies nearer ref: one step of branch continuation."""
    return -w if abs(w - ref) > abs(w + ref) else w


def _project(z: complex, pts: np.ndarray) -> tuple:
    """Per segment of the polyline: the clamped parameter t and the foot of z."""
    a = pts[:-1]
    ab = pts[1:] - a
    denom = (ab * ab.conjugate()).real
    t = ((z - a) * ab.conjugate()).real / np.where(denom == 0, 1.0, denom)
    t = np.clip(t, 0.0, 1.0)
    return t, a + t * ab


def distance_to_polyline(z: complex, samples) -> float:
    """Distance from z to a polyline (vectorized over segments)."""
    pts = np.asarray(samples, dtype=complex)
    if pts.size == 1:
        return abs(z - pts[0])
    _, feet = _project(z, pts)
    return float(np.min(np.abs(z - feet)))


def nearest_on_polyline(z: complex, samples) -> tuple:
    """(distance, arclength position, foot point) of the closest point."""
    pts = np.asarray(samples, dtype=complex)
    if pts.size == 1:
        return abs(z - pts[0]), 0.0, complex(pts[0])
    t, feet = _project(z, pts)
    dists = np.abs(z - feet)
    k = int(np.argmin(dists))
    seglen = np.abs(np.diff(pts))
    cum = polyline_cumlen(pts)
    return float(dists[k]), float(cum[k] + t[k] * seglen[k]), complex(feet[k])


def polyline_cumlen(samples) -> np.ndarray:
    pts = np.asarray(samples, dtype=complex)
    if pts.size == 1:
        return np.zeros(1)
    return np.concatenate([[0.0], np.cumsum(np.abs(np.diff(pts)))])


def mid_arclength_index(samples) -> int:
    """Index of the sample nearest half the polyline's arclength."""
    cum = polyline_cumlen(samples)
    return int(np.argmin(np.abs(cum - 0.5 * cum[-1])))


class SegmentSet:
    """Fixed segments (p_i, q_i) in flat float arrays, tested many at a time.

    One numpy broadcast tests the lines of a chunk of query segments
    against every segment of the set; only the segments a line separates
    are tested further.  The orientation products are those of the scalar
    test, term for term in float64, so an answer never depends on how the
    queries are batched.  Crossings are strict: touching endpoints and
    collinear overlaps do not count.
    """

    CHUNK = 8  # query segments per broadcast: bounds the (chunk, n) temporaries

    def __init__(self, px, py, qx, qy):
        self.px, self.py, self.qx, self.qy = px, py, qx, qy

    @classmethod
    def from_polylines(cls, polylines) -> "SegmentSet":
        arrs = [np.asarray(pl, dtype=complex) for pl in polylines]
        p = np.concatenate([a[:-1] for a in arrs] + [np.zeros(0, complex)])
        q = np.concatenate([a[1:] for a in arrs] + [np.zeros(0, complex)])
        return cls(p.real.copy(), p.imag.copy(), q.real.copy(), q.imag.copy())

    def band(self, y0: float, y1: float) -> "SegmentSet":
        """The segments whose y-range meets [y0, y1], widened by 1e-9.

        A segment outside the band cannot be crossed by a query inside it,
        and the margin is far above the rounding of the orientation tests,
        so for such queries the band answers exactly as the whole set does.
        """
        m = 1e-9 * max(1.0, abs(y0), abs(y1))
        keep = (np.maximum(self.py, self.qy) >= y0 - m) & (np.minimum(self.py, self.qy) <= y1 + m)
        return SegmentSet(self.px[keep], self.py[keep], self.qx[keep], self.qy[keep])

    def _crossings(self, ax, ay, bx, by):
        """(query k, d1, d2) for every strict crossing, one chunk at a time.

        d1 and d2 are the orientations of a_k and b_k against the crossed
        segment.  The query's own line is tested against every segment
        first; only the segments it separates are tested the other way.
        """
        for lo in range(0, len(ax), self.CHUNK):
            sl = slice(lo, lo + self.CHUNK)
            ux, uy = (bx[sl] - ax[sl])[:, None], (by[sl] - ay[sl])[:, None]
            d3 = ux * (self.py - ay[sl, None]) - uy * (self.px - ax[sl, None])
            d4 = ux * (self.qy - ay[sl, None]) - uy * (self.qx - ax[sl, None])
            k, i = np.nonzero(d3 * d4 < 0)
            k += lo
            px, py = self.px[i], self.py[i]
            ex, ey = self.qx[i] - px, self.qy[i] - py
            d1 = ex * (ay[k] - py) - ey * (ax[k] - px)
            d2 = ex * (by[k] - py) - ey * (bx[k] - px)
            hit = d1 * d2 < 0
            yield k[hit], d1[hit], d2[hit]

    def crosses(self, ax, ay, bx, by) -> np.ndarray:
        """Whether each open query segment a_k -> b_k crosses a segment."""
        out = np.zeros(len(ax), dtype=bool)
        for k, _, _ in self._crossings(ax, ay, bx, by):
            out[k] = True
        return out

    def fractions(self, ax, ay, bx, by) -> list:
        """Per query, the sorted t in (0, 1) where a_k + t (b_k - a_k) crosses."""
        out = [[] for _ in range(len(ax))]
        for ks, d1, d2 in self._crossings(ax, ay, bx, by):
            for k, t in zip(ks.tolist(), (d1 / (d1 - d2)).tolist()):
                if 0.0 < t < 1.0:
                    out[k].append(t)
        for ts in out:
            ts.sort()
        return out
