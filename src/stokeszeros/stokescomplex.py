"""Stokes complexes: traced line sets, region census, exceptional set.

The complex is assembled by tracing the three Stokes lines out of every
(simple) turning point.  Regions are recovered combinatorially: each
unbounded line is cut at a census circle enclosing all turning points, the
resulting planar graph (turning points + circle crossings, line edges +
circle arcs) is given its geometric rotation system, and the faces are the
Stokes regions.  A face bounded by exactly one circle arc is of half-plane
type, by two arcs of strip type.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, StructuralError
from .geometry import distance_to_polyline, wrap_angle
from .polynomials import ComplexPolynomial, roots
from .quaddiff import (
    QuadDiff,
    TraceCaps,
    build_quad_diff,
    launch_directions,
    stokes_directions,
    trace_trajectory,
    turning_points,
)

__all__ = [
    "Region",
    "StokesComplex",
    "stokes_complex",
    "AdmissibilityResult",
    "is_admissible",
]

HALF_PLANE = "half-plane"
STRIP = "strip"


@dataclass
class Region:
    """One Stokes region (a face of the traced complex)."""

    index: int
    kind: str
    line_indices: tuple
    tp_indices: tuple
    anchor: complex
    label: str  # "omega+", "omega-" (the boundary regions), "D+" or "D-"


@dataclass
class StokesComplex:
    """The traced complex of one family, its exceptional set marked."""

    quaddiff: QuadDiff
    turning_points: list
    lines: list
    regions: list
    census_radius: float
    mirror_deviation: float
    v_plus: int  # turning point of the omega+ region
    v_minus: int  # turning point of the omega- region
    e0_index: int  # the short exceptional line joining v_plus and v_minus
    boundary_rays: tuple  # (theta_minus, theta_plus)
    # deterministic tracer work: traces run (a short line is traced from both
    # ends and one copy dropped), their accepted steps and refused attempts
    counts: dict = field(default_factory=dict)

    @property
    def half_plane_count(self) -> int:
        return sum(1 for r in self.regions if r.kind == HALF_PLANE)

    @property
    def strip_count(self) -> int:
        return sum(1 for r in self.regions if r.kind == STRIP)

    @property
    def exceptional_lines(self) -> list:
        return [i for i, ln in enumerate(self.lines) if ln.is_exceptional]

    def exceptional_arcs(self) -> list:
        """Sample polylines of the exceptional lines (E without the points)."""
        return [self.lines[i].samples for i in self.exceptional_lines]

    def distance_to_exceptional(self, z: complex) -> float:
        """Distance from z to E (exceptional lines and turning points)."""
        best = min(abs(z - v) for v in self.turning_points)
        for i in self.exceptional_lines:
            best = min(best, distance_to_polyline(z, self.lines[i].samples))
        return best

    def to_dict(self) -> dict:
        def thin(samples):
            k = max(1, len(samples) // 400)
            pts = samples[::k]
            if pts[-1] != samples[-1]:
                pts.append(samples[-1])
            return [[p.real, p.imag] for p in pts]

        return {
            "d": self.quaddiff.d,
            "ell": self.quaddiff.ell,
            "turning_points": [[v.real, v.imag] for v in self.turning_points],
            "census_radius": self.census_radius,
            "mirror_deviation": self.mirror_deviation,
            "boundary_rays": list(self.boundary_rays),
            "lines": [
                {
                    "origin": ln.origin,
                    "terminal": ln.terminal,
                    "terminal_angle": ln.terminal_angle,
                    "is_short": ln.is_short,
                    "is_exceptional": ln.is_exceptional,
                    "re_zeta_drift": ln.re_zeta_drift,
                    "samples": thin(ln.samples),
                }
                for ln in self.lines
            ],
            "regions": [
                {
                    "index": r.index,
                    "kind": r.kind,
                    "label": r.label,
                    "lines": list(r.line_indices),
                    "turning_points": list(r.tp_indices),
                    "anchor": [r.anchor.real, r.anchor.imag],
                }
                for r in self.regions
            ],
            "census": {
                "half_plane_regions": self.half_plane_count,
                "strip_regions": self.strip_count,
            },
            "counts": dict(self.counts),
        }


def _ccw(frm: float, to: float) -> float:
    """Counterclockwise angle from azimuth frm to azimuth to, in (0, 2 pi]."""
    gap = to - frm
    while gap <= 0:
        gap += 2 * math.pi
    return gap


def _circle_crossing(samples, radius):
    for k in range(len(samples) - 1, 0, -1):
        a, b = samples[k - 1], samples[k]
        if abs(a) < radius <= abs(b):
            d = b - a
            aa = (d * d.conjugate()).real
            bb = 2 * (a * d.conjugate()).real
            cc = (a * a.conjugate()).real - radius * radius
            disc = max(bb * bb - 4 * aa * cc, 0.0)
            t = (-bb + math.sqrt(disc)) / (2 * aa)
            t = min(max(t, 0.0), 1.0)
            cross = a + t * d
            inward = cmath.phase(a - cross) if a != cross else cmath.phase(-d)
            return cross, inward
    raise StructuralError("unbounded line does not reach the census circle")


def _entry_angle(q, line, tp, caps):
    """Tangent direction of a short line at its terminal turning point.

    Measured from the samples, then snapped to the nearest exact local
    Stokes-line direction at that turning point.
    """
    v = tp
    rough = None
    for s in reversed(line.samples):
        if abs(s - v) >= 20 * caps.capture_radius:
            rough = cmath.phase(s - v)
            break
    if rough is None:
        rough = cmath.phase(line.samples[0] - v)
    cands = launch_directions(q, v)
    return min(cands, key=lambda a: abs(wrap_angle(a - rough)))


def stokes_complex(d: int, ell: int) -> StokesComplex:
    """Trace, assemble, check and mark the complex of ((-1)^ell (iz)^d - 1) dz^2.

    Raises
    ------
    DomainError
        If (d, ell) names no family.
    StructuralError
        If a turning point is not simple, the line count per turning point
        is not three, the half-plane region count is not d+2, the mirror
        symmetry check fails, or the exceptional set cannot be marked.
    """
    q = build_quad_diff(d, ell)
    caps = TraceCaps.for_diff(q)
    tps = turning_points(q)
    dq = q.polynomial.derivative()
    for v in tps:
        if abs(dq(v)) < 1e-8 * max(1.0, q.polynomial.scaled_magnitude(v)):
            raise StructuralError(f"turning point {v:.6g} is not simple")

    lines: list = []
    short_seen = set()
    counts = dict.fromkeys(("traces", "steps", "rejected"), 0)
    for v in tps:
        for phi in launch_directions(q, v):
            ln = trace_trajectory(q, v, phi)
            counts["traces"] += 1
            counts["steps"] += ln.steps
            counts["rejected"] += ln.rejected
            if ln.is_short:
                key = frozenset((ln.origin, ln.terminal))
                if key in short_seen:
                    continue
                short_seen.add(key)
            lines.append(ln)

    ends = defaultdict(int)
    for ln in lines:
        ends[ln.origin] += 1
        if ln.is_short:
            ends[ln.terminal] += 1
    if any(ends[i] != 3 for i in range(len(tps))):
        raise StructuralError(f"line-end census per turning point: {dict(ends)}")

    boundary_rays = stokes_directions(d, ell).boundary_rays
    radius, regions = _assemble(q, tps, lines, caps, boundary_rays)
    mirror_deviation = _check_mirror_symmetry(tps, lines, radius)
    half_planes = sum(1 for r in regions if r.kind == HALF_PLANE)
    if half_planes != d + 2:
        raise StructuralError(f"half-plane region count {half_planes}, expected {d + 2}")
    v_plus, v_minus, e0_index = _mark_exceptional(tps, lines, regions, boundary_rays)
    return StokesComplex(
        quaddiff=q,
        turning_points=tps,
        lines=lines,
        regions=regions,
        census_radius=radius,
        mirror_deviation=mirror_deviation,
        v_plus=v_plus,
        v_minus=v_minus,
        e0_index=e0_index,
        boundary_rays=boundary_rays,
        counts=counts,
    )


def _assemble(q, tps, lines, caps, boundary_rays) -> tuple:
    """(census radius, regions): the faces of the traced graph, each labelled.

    A half-plane region is omega+ or omega- when the boundary ray
    theta_plus or theta_minus runs through it; every other region is D+ or
    D- by the side of the boundary rays its first census arc lies on.
    """
    radius = 0.45 * caps.escape_radius
    ntp = len(tps)
    theta_minus, theta_plus = boundary_rays

    half_edges = []  # dicts

    def add_pair(n1, n2, a1, a2, kind, ref):
        i = len(half_edges)
        half_edges.append(
            {"origin": n1, "angle": a1, "twin": i + 1, "kind": kind, "ref": ref}
        )
        half_edges.append(
            {"origin": n2, "angle": a2, "twin": i, "kind": kind, "ref": ref}
        )
        return i

    circle_nodes = []  # (node_id, azimuth)
    node_count = ntp

    for li, ln in enumerate(lines):
        if ln.is_short:
            a_start = ln.launch_angle
            a_end = _entry_angle(q, ln, tps[ln.terminal], caps)
            add_pair(ln.origin, ln.terminal, a_start, a_end, "line", li)
        else:
            cross, inward = _circle_crossing(ln.samples, radius)
            node = node_count
            node_count += 1
            az = cmath.phase(cross)
            circle_nodes.append((node, az))
            add_pair(ln.origin, node, ln.launch_angle, inward, "line", li)

    circle_nodes.sort(key=lambda t: t[1])
    m = len(circle_nodes)
    arc_spans = {}
    for j in range(m):
        n1, az1 = circle_nodes[j]
        n2, az2 = circle_nodes[(j + 1) % m]
        # ccw half-edge n1 -> n2 keeps the outside on its left
        i = add_pair(n1, n2, wrap_angle(az1 + math.pi / 2), wrap_angle(az2 - math.pi / 2), "arc", j)
        arc_spans[j] = (az1, az2)
        half_edges[i]["arc_ccw"] = True

    # rotation system: outgoing half-edges per node, ccw by angle
    outgoing = defaultdict(list)
    for idx, he in enumerate(half_edges):
        outgoing[he["origin"]].append(idx)
    for idxs in outgoing.values():
        idxs.sort(key=lambda i: half_edges[i]["angle"])
        for pos, i in enumerate(idxs):
            half_edges[i]["rot_pos"] = pos

    def sigma(i):
        node = half_edges[i]["origin"]
        idxs = outgoing[node]
        return idxs[(half_edges[i]["rot_pos"] + 1) % len(idxs)]

    def next_in_face(i):
        return sigma(half_edges[i]["twin"])

    face_of = [-1] * len(half_edges)
    faces = []
    for start in range(len(half_edges)):
        if face_of[start] != -1:
            continue
        fid = len(faces)
        orbit = []
        i = start
        while face_of[i] == -1:
            face_of[i] = fid
            orbit.append(i)
            i = next_in_face(i)
        if i != start:
            raise StructuralError("face traversal did not close")
        faces.append(orbit)

    # the outer face is the one whose arcs run counterclockwise
    outer = None
    for fid, orbit in enumerate(faces):
        arcs_ccw = [i for i in orbit if half_edges[i]["kind"] == "arc" and half_edges[i].get("arc_ccw")]
        if arcs_ccw:
            if all(half_edges[i]["kind"] == "arc" for i in orbit):
                outer = fid
                break
    if outer is None:
        raise StructuralError("could not identify the outer face")

    regions = []
    for fid, orbit in enumerate(faces):
        if fid == outer:
            continue
        line_idx = sorted({half_edges[i]["ref"] for i in orbit if half_edges[i]["kind"] == "line"})
        tp_idx = sorted(
            {
                half_edges[i]["origin"]
                for i in orbit
                if half_edges[i]["origin"] < ntp
            }
        )
        spans = [arc_spans[half_edges[i]["ref"]] for i in orbit if half_edges[i]["kind"] == "arc"]
        if len(spans) == 0:
            raise StructuralError("bounded Stokes region found")
        if len(spans) > 2:
            raise StructuralError(f"region with {len(spans)} unbounded ends")
        kind = HALF_PLANE if len(spans) == 1 else STRIP
        az1, az2 = spans[0]
        mid = wrap_angle(az1 + _ccw(az1, az2) / 2)
        r_anchor = 0.85 if kind == HALF_PLANE else 0.96
        anchor = r_anchor * radius * cmath.exp(1j * mid)
        if kind == HALF_PLANE and _ccw(az1, theta_plus) < _ccw(az1, az2):
            label = "omega+"
        elif kind == HALF_PLANE and _ccw(az1, theta_minus) < _ccw(az1, az2):
            label = "omega-"
        else:
            label = "D+" if _ccw(theta_plus, mid) < _ccw(theta_plus, theta_minus) else "D-"
        regions.append(
            Region(
                index=len(regions),
                kind=kind,
                line_indices=tuple(line_idx),
                tp_indices=tuple(tp_idx),
                anchor=anchor,
                label=label,
            )
        )
    return radius, regions


def _reflect_index(tps, v):
    target = -v.conjugate()
    for j, w in enumerate(tps):
        if abs(w - target) <= 1e-8 * max(1.0, abs(w)):
            return j
    return None


def _check_mirror_symmetry(tps, lines, census_radius) -> float:
    """Largest deviation of the line set from its -conj reflection."""
    worst = 0.0
    for ln in lines:
        ro = _reflect_index(tps, tps[ln.origin])
        if ro is None:
            raise StructuralError("turning points not mirror symmetric")
        if ln.is_short:
            ends = {ro, _reflect_index(tps, tps[ln.terminal])}
            cands = [o for o in lines if o.is_short and {o.origin, o.terminal} == ends]
        else:
            cands = [
                o
                for o in lines
                if not o.is_short
                and o.origin == ro
                and abs(wrap_angle(math.pi - ln.terminal_angle - o.terminal_angle)) < 1e-6
            ]
        if not cands:
            raise StructuralError("a Stokes line has no mirror partner")
        # unbounded traces overshoot the escape radius by one step each, so
        # only compare the geometry inside the census circle
        reflected = -np.conj(np.array(ln.samples[::9], dtype=complex))
        clipped = reflected[np.abs(reflected) <= census_radius]
        if not clipped.size:
            clipped = reflected[:1]
        dev = min(float(np.max(distance_to_polyline(clipped, o.samples))) for o in cands)
        worst = max(worst, dev)
    scale = max(1.0, max(abs(v) for v in tps))
    if worst > 2e-4 * scale:
        raise StructuralError(f"mirror symmetry deviation {worst:.3g}")
    return worst


def _mark_exceptional(tps, lines, regions, boundary_rays) -> tuple:
    """Flag the exceptional Stokes lines; return (v_plus, v_minus, e0_index).

    The short line joining the two boundary-region turning points is always
    exceptional; a turning point on the imaginary axis contributes its axis
    ray; every other turning point contributes the unbounded line lying
    angularly between its sibling and the near imaginary semi-axis.
    """
    boundary_tps = []
    for label, theta in (("omega+", boundary_rays[1]), ("omega-", boundary_rays[0])):
        hits = [r for r in regions if r.label == label]
        if len(hits) != 1:
            raise StructuralError(
                f"boundary ray at {theta:.4f} interior to {len(hits)} half-plane regions"
            )
        if len(hits[0].tp_indices) != 1:
            raise StructuralError("boundary region does not have a unique turning point")
        boundary_tps.append(hits[0].tp_indices[0])
    vp, vm = boundary_tps

    e0 = None
    for i, ln in enumerate(lines):
        if ln.is_short and {ln.origin, ln.terminal} == {vp, vm}:
            e0 = i
            break
    if e0 is None:
        raise StructuralError("no short line joining the boundary turning points")
    lines[e0].is_exceptional = True

    scale = max(1.0, max(abs(v) for v in tps))
    arg_vp = cmath.phase(tps[vp])

    def in_upper_arc(angle):
        # strictly between arg(v+) and arg(v-) = pi - arg(v+) running counterclockwise
        return _ccw(arg_vp, angle) < _ccw(arg_vp, math.pi - arg_vp)

    lines_by_origin = defaultdict(list)
    for i, ln in enumerate(lines):
        lines_by_origin[ln.origin].append(i)
        if ln.is_short:
            lines_by_origin[ln.terminal].append(i)

    for k, v in enumerate(tps):
        if k in (vp, vm):
            continue
        on_axis = abs(v.real) <= 1e-8 * scale
        unbounded = [i for i in lines_by_origin[k] if not lines[i].is_short]
        if on_axis:
            # flag the ray running along the imaginary axis
            target = math.pi / 2 if v.imag > 0 else -math.pi / 2
            ray = min(
                unbounded, key=lambda i: abs(wrap_angle(lines[i].terminal_angle - target))
            )
            if abs(wrap_angle(lines[ray].terminal_angle - target)) > 1e-6:
                raise StructuralError("axis turning point has no axis ray")
            lines[ray].is_exceptional = True
            continue
        if len(unbounded) != 2:
            raise StructuralError("off-axis turning point without two unbounded lines")
        target = math.pi / 2 if in_upper_arc(cmath.phase(v)) else -math.pi / 2
        pick = min(
            unbounded, key=lambda i: abs(wrap_angle(lines[i].terminal_angle - target))
        )
        lines[pick].is_exceptional = True

    flagged = sum(ln.is_exceptional for ln in lines)
    if flagged != len(tps) - 1:
        raise StructuralError(
            f"{flagged} exceptional lines for {len(tps)} turning points"
        )
    return vp, vm, e0


@dataclass
class AdmissibilityResult:
    admissible: bool
    first_violation: Optional[tuple]  # (sample index, kind, measured value)

    def __bool__(self) -> bool:
        return self.admissible


def _tps_of(p: ComplexPolynomial) -> list:
    """The zeros of a coefficient field; none for a constant."""
    return roots(p, 1e-12) if p.degree >= 1 else []


def is_admissible(curve, p: ComplexPolynomial, s: float) -> AdmissibilityResult:
    """Check the two quantitative admissibility conditions along a polyline.

    Every checked point must keep distance >= s from the turning points and
    the curve tangent must make an angle >= s (radians, measured between
    lines) with the local vertical-trajectory direction of the field p.
    """
    if s <= 0:
        raise DomainError("admissibility margin must be positive")
    pts = [complex(z) for z in curve]
    if len(pts) < 2:
        raise DomainError("curve needs at least two points")
    tps = _tps_of(p)

    first = None
    for k in range(len(pts) - 1):
        a, b = pts[k], pts[k + 1]
        if a == b:
            continue
        tangent = (b - a) / abs(b - a)
        for z in (a, 0.5 * (a + b), b):
            dist = min((abs(z - v) for v in tps), default=math.inf)
            if dist < s:
                first = (k, "turning-point-distance", dist)
                break
            w = cmath.sqrt(p(z))
            vert = 1j * w.conjugate() / abs(w)
            rel = abs(wrap_angle(cmath.phase(tangent / vert)))
            angle = min(rel, math.pi - rel)
            if angle < s:
                first = (k, "foliation-angle", angle)
                break
        if first:
            break

    return AdmissibilityResult(first is None, first)

