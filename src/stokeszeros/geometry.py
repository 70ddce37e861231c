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


_BROADCAST = 4096  # (point, segment) pairs per broadcast: 64 KB complex temporaries


def distance_to_polyline(zs, samples):
    """Distance from each point of zs to a polyline, vectorized over points
    and segments: a float for one point, an array for an array of points."""
    pts = np.asarray(samples, dtype=complex)
    z = np.asarray(zs, dtype=complex)
    if pts.size == 1:
        dists = np.abs(z - pts[0])
    else:
        flat = z.reshape(-1, 1)
        dists = np.empty(len(flat))
        step = max(1, _BROADCAST // len(pts))
        for lo in range(0, len(flat), step):
            part = flat[lo : lo + step]
            dists[lo : lo + step] = np.min(np.abs(part - _project(part, pts)[1]), axis=1)
        dists = dists.reshape(z.shape)
    return float(dists) if dists.ndim == 0 else dists


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
    """Fixed segments (p_i, q_i) in float arrays, tested many at a time.

    The segments are kept in blocks of ``BLOCK`` consecutive ones, each
    block with its min/max box widened by 1e-9 of its largest coordinate
    (and by at least 1e-9).  A query is tested only against the segments of
    the blocks whose box meets its own.  The margin is far above the
    rounding of the orientation tests, so the boxes drop only segments that
    the full test would not count, unless rounding alone makes it count a
    nearly collinear, disjoint pair.  Queries go ``CHUNK`` at a time and
    their (query, block) pairs ``PAIRS`` at a time, so no temporary grows
    with the number of queries or segments.  The orientation products are
    those of the scalar test, term for term in float64, so an answer never
    depends on how the queries are batched.  Crossings are strict: touching
    endpoints and collinear overlaps do not count.
    """

    BLOCK = 16  # consecutive segments per box
    CHUNK = 64  # query segments per box test
    PAIRS = 512  # (query, block) pairs per orientation test: 64 KB arrays

    def __init__(self, px, py, qx, qy):
        # the last block is padded with the last end point twice, a
        # segment with d3 = d4 that is never crossed and widens no box
        pad = -len(px) % self.BLOCK
        ex, ey = (qx[-1], qy[-1]) if pad else (0.0, 0.0)
        self.px, self.py, self.qx, self.qy = (
            np.concatenate([a, np.full(pad, e)]).reshape(-1, self.BLOCK)
            for a, e in ((px, ex), (py, ey), (qx, ex), (qy, ey))
        )
        xs = np.concatenate([self.px, self.qx], axis=1)
        ys = np.concatenate([self.py, self.qy], axis=1)
        m = 1e-9 * np.maximum(1.0, np.maximum(np.abs(xs), np.abs(ys)).max(axis=1))
        self.x0, self.x1 = xs.min(axis=1) - m, xs.max(axis=1) + m
        self.y0, self.y1 = ys.min(axis=1) - m, ys.max(axis=1) + m

    @classmethod
    def from_polylines(cls, polylines) -> "SegmentSet":
        arrs = [np.asarray(pl, dtype=complex) for pl in polylines]
        p = np.concatenate([a[:-1] for a in arrs] + [np.zeros(0, complex)])
        q = np.concatenate([a[1:] for a in arrs] + [np.zeros(0, complex)])
        return cls(p.real, p.imag, q.real, q.imag)

    def _crossings(self, ax, ay, bx, by):
        """(query k, d1, d2) for every strict crossing, one chunk at a time.

        d1 and d2 are the orientations of a_k and b_k against the crossed
        segment.  The query's own line is tested against every segment of
        the blocks its box meets; only the segments it separates are tested
        the other way.
        """
        for lo in range(0, len(ax), self.CHUNK):
            sl = slice(lo, lo + self.CHUNK)
            x0, x1 = np.minimum(ax[sl], bx[sl])[:, None], np.maximum(ax[sl], bx[sl])[:, None]
            y0, y1 = np.minimum(ay[sl], by[sl])[:, None], np.maximum(ay[sl], by[sl])[:, None]
            ks, blks = np.nonzero((x0 <= self.x1) & (x1 >= self.x0) & (y0 <= self.y1) & (y1 >= self.y0))
            for at in range(0, len(ks), self.PAIRS):
                k, blk = ks[at : at + self.PAIRS] + lo, blks[at : at + self.PAIRS]
                kax, kay = ax[k, None], ay[k, None]
                ux, uy = bx[k, None] - kax, by[k, None] - kay
                d3 = ux * (self.py[blk] - kay) - uy * (self.px[blk] - kax)
                d4 = ux * (self.qy[blk] - kay) - uy * (self.qx[blk] - kax)
                r, c = np.nonzero(d3 * d4 < 0)
                k, blk = k[r], blk[r]
                px, py = self.px[blk, c], self.py[blk, c]
                ex, ey = self.qx[blk, c] - px, self.qy[blk, c] - py
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
