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

from .errors import DomainError, StructuralError
from .geometry import distance_to_polyline, polyline_cumlen, wrap_angle
from .quaddiff import (
    QuadDiff,
    TraceCaps,
    launch_directions,
    stokes_directions,
    trace_trajectory,
    turning_points,
)

__all__ = [
    "Region",
    "StokesComplex",
    "build_stokes_complex",
    "mark_exceptional",
    "stokes_complex",
    "AdmissibilityResult",
    "is_admissible",
    "canonical_pair",
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
    arc_spans: tuple  # ccw azimuth intervals on the census circle
    anchor: complex
    label: str = "none"


@dataclass
class StokesComplex:
    quaddiff: QuadDiff
    turning_points: list
    lines: list
    regions: list
    caps: TraceCaps
    census_radius: float
    mirror_deviation: float = 0.0
    omega_plus: Optional[int] = None
    omega_minus: Optional[int] = None
    v_plus: Optional[int] = None
    v_minus: Optional[int] = None
    e0_index: Optional[int] = None
    boundary_rays: Optional[tuple] = None
    exceptional_marked: bool = False
    _line_faces: dict = field(default_factory=dict, repr=False)

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

    def to_dict(self, max_samples_per_line: int = 400) -> dict:
        def thin(samples):
            k = max(1, len(samples) // max_samples_per_line)
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
            "boundary_rays": list(self.boundary_rays) if self.boundary_rays else None,
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
        }


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
            return cross, inward, k - 1
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


def build_stokes_complex(q: QuadDiff, caps: Optional[TraceCaps] = None) -> StokesComplex:
    """Trace all Stokes lines of Q dz^2 and compute the region census.

    Raises
    ------
    StructuralError
        If a turning point is not simple, the line count per turning point
        is not three, the half-plane region count is not d+2, or the mirror
        symmetry check fails.
    """
    caps = caps or TraceCaps.for_diff(q)
    tps = turning_points(q)
    dq = q.polynomial.derivative()
    for v in tps:
        if abs(dq(v)) < 1e-8 * max(1.0, q.polynomial.scaled_magnitude(v)):
            raise StructuralError(f"turning point {v:.6g} is not simple")

    lines: list = []
    short_seen = set()
    for i, v in enumerate(tps):
        for phi in launch_directions(q, v):
            ln = trace_trajectory(q, v, phi, caps, origin_index=i)
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

    sc = _assemble(q, tps, lines, caps)
    sc.mirror_deviation = _check_mirror_symmetry(sc)
    expected = q.d + 2
    if sc.half_plane_count != expected:
        raise StructuralError(
            f"half-plane region count {sc.half_plane_count}, expected {expected}"
        )
    return sc


def _assemble(q, tps, lines, caps) -> StokesComplex:
    radius = 0.45 * caps.escape_radius
    ntp = len(tps)

    crossings = []  # (azimuth, node payload)
    half_edges = []  # dicts

    def add_pair(n1, n2, a1, a2, kind, ref):
        i = len(half_edges)
        half_edges.append(
            {"origin": n1, "head": n2, "angle": a1, "twin": i + 1, "kind": kind, "ref": ref}
        )
        half_edges.append(
            {"origin": n2, "head": n1, "angle": a2, "twin": i, "kind": kind, "ref": ref}
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
            cross, inward, _ = _circle_crossing(ln.samples, radius)
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
        half_edges[i + 1]["arc_ccw"] = False

    # rotation system: outgoing half-edges per node, ccw by angle
    outgoing = defaultdict(list)
    for idx, he in enumerate(half_edges):
        outgoing[he["origin"]].append(idx)
    for node, idxs in outgoing.items():
        idxs.sort(key=lambda i: half_edges[i]["angle"])
        for pos, i in enumerate(idxs):
            half_edges[i]["rot_pos"] = pos
            half_edges[i]["rot_node"] = node

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
    line_faces = defaultdict(set)
    for fid, orbit in enumerate(faces):
        for i in orbit:
            if half_edges[i]["kind"] == "line":
                line_faces[half_edges[i]["ref"]].add(fid)
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
        gap = az2 - az1
        if gap <= 0:
            gap += 2 * math.pi
        mid = wrap_angle(az1 + gap / 2)
        r_anchor = 0.85 if kind == HALF_PLANE else 0.96
        anchor = r_anchor * radius * cmath.exp(1j * mid)
        regions.append(
            Region(
                index=len(regions),
                kind=kind,
                line_indices=tuple(line_idx),
                tp_indices=tuple(tp_idx),
                arc_spans=tuple(spans),
                anchor=anchor,
            )
        )

    sc = StokesComplex(
        quaddiff=q,
        turning_points=tps,
        lines=lines,
        regions=regions,
        caps=caps,
        census_radius=radius,
    )
    # region indices were renumbered when skipping the outer face; remap
    remap = {}
    pos = 0
    for fid in range(len(faces)):
        if fid == outer:
            continue
        remap[fid] = pos
        pos += 1
    sc._line_faces = {
        li: tuple(sorted(remap[f] for f in fs)) for li, fs in line_faces.items() if li is not None
    }
    return sc


def _reflect_index(tps, v, tol=1e-8):
    target = -v.conjugate()
    for j, w in enumerate(tps):
        if abs(w - target) <= tol * max(1.0, abs(w)):
            return j
    return None


def _check_mirror_symmetry(sc: StokesComplex) -> float:
    """Largest deviation of the line set from its -conj reflection."""
    tps = sc.turning_points
    worst = 0.0
    for ln in sc.lines:
        ro = _reflect_index(tps, tps[ln.origin])
        if ro is None:
            raise StructuralError("turning points not mirror symmetric")
        reflected = [(-s.conjugate()) for s in ln.samples]
        cands = []
        for other in sc.lines:
            if ln.is_short:
                if other.is_short and {other.origin, other.terminal} == {
                    ro,
                    _reflect_index(tps, tps[ln.terminal]),
                }:
                    cands.append(other)
            else:
                if (
                    not other.is_short
                    and other.origin == ro
                    and abs(wrap_angle(math.pi - ln.terminal_angle - other.terminal_angle))
                    < 1e-6
                ):
                    cands.append(other)
        if not cands:
            raise StructuralError("a Stokes line has no mirror partner")
        # unbounded traces overshoot the escape radius by one step each, so
        # only compare the geometry inside the census circle
        clipped = [p for p in reflected[::9] if abs(p) <= sc.census_radius]
        clipped = clipped or reflected[:1]
        dev = min(
            max(distance_to_polyline(p, other.samples) for p in clipped)
            for other in cands
        )
        worst = max(worst, dev)
    scale = max(1.0, max(abs(v) for v in tps))
    if worst > 2e-4 * scale:
        raise StructuralError(f"mirror symmetry deviation {worst:.3g}")
    return worst


def mark_exceptional(sc: StokesComplex) -> StokesComplex:
    """Flag the exceptional Stokes lines and label the regions.

    The short line joining the two boundary-region turning points is always
    exceptional; a turning point on the imaginary axis contributes its axis
    ray; every other turning point contributes the unbounded line lying
    angularly between its sibling and the near imaginary semi-axis.
    """
    q = sc.quaddiff
    sd = stokes_directions(q.d, q.ell)
    theta_minus, theta_plus = sd.boundary_rays
    sc.boundary_rays = (theta_minus, theta_plus)

    def face_containing(azimuth):
        hits = []
        for r in sc.regions:
            if r.kind != HALF_PLANE:
                continue
            az1, az2 = r.arc_spans[0]
            gap = az2 - az1
            if gap <= 0:
                gap += 2 * math.pi
            rel = azimuth - az1
            while rel <= 0:
                rel += 2 * math.pi
            if rel < gap:
                hits.append(r.index)
        if len(hits) != 1:
            raise StructuralError(
                f"boundary ray at {azimuth:.4f} interior to {len(hits)} half-plane regions"
            )
        return hits[0]

    io_plus = face_containing(theta_plus)
    io_minus = face_containing(theta_minus)
    sc.omega_plus, sc.omega_minus = io_plus, io_minus
    for r in sc.regions:
        r.label = "none"
    sc.regions[io_plus].label = "omega+"
    sc.regions[io_minus].label = "omega-"

    tp_plus = sc.regions[io_plus].tp_indices
    tp_minus = sc.regions[io_minus].tp_indices
    if len(tp_plus) != 1 or len(tp_minus) != 1:
        raise StructuralError("boundary region does not have a unique turning point")
    vp, vm = tp_plus[0], tp_minus[0]
    sc.v_plus, sc.v_minus = vp, vm

    for ln in sc.lines:
        ln.is_exceptional = False
        ln.axis_ray = False

    e0 = None
    for i, ln in enumerate(sc.lines):
        if ln.is_short and {ln.origin, ln.terminal} == {vp, vm}:
            e0 = i
            break
    if e0 is None:
        raise StructuralError("no short line joining the boundary turning points")
    sc.e0_index = e0
    sc.lines[e0].is_exceptional = True

    tps = sc.turning_points
    scale = max(1.0, max(abs(v) for v in tps))
    arg_vp = cmath.phase(tps[vp])

    def in_upper_arc(angle):
        # strictly between arg(v+) and arg(v-) running counterclockwise
        rel = angle - arg_vp
        while rel <= 0:
            rel += 2 * math.pi
        span = (math.pi - arg_vp) - arg_vp  # arg(v-) = pi - arg(v+)
        while span <= 0:
            span += 2 * math.pi
        return rel < span

    lines_by_origin = defaultdict(list)
    for i, ln in enumerate(sc.lines):
        lines_by_origin[ln.origin].append(i)
        if ln.is_short:
            lines_by_origin[ln.terminal].append(i)

    for k, v in enumerate(tps):
        if k in (vp, vm):
            continue
        on_axis = abs(v.real) <= 1e-8 * scale
        unbounded = [i for i in lines_by_origin[k] if not sc.lines[i].is_short]
        if on_axis:
            # flag the ray running along the imaginary axis
            target = math.pi / 2 if v.imag > 0 else -math.pi / 2
            ray = min(
                unbounded, key=lambda i: abs(wrap_angle(sc.lines[i].terminal_angle - target))
            )
            if abs(wrap_angle(sc.lines[ray].terminal_angle - target)) > 1e-6:
                raise StructuralError("axis turning point has no axis ray")
            sc.lines[ray].is_exceptional = True
            sc.lines[ray].axis_ray = True
            continue
        if len(unbounded) != 2:
            raise StructuralError("off-axis turning point without two unbounded lines")
        target = math.pi / 2 if in_upper_arc(cmath.phase(v)) else -math.pi / 2
        pick = min(
            unbounded, key=lambda i: abs(wrap_angle(sc.lines[i].terminal_angle - target))
        )
        sc.lines[pick].is_exceptional = True

    flagged = len(sc.exceptional_lines)
    if flagged != len(tps) - 1:
        raise StructuralError(
            f"{flagged} exceptional lines for {len(tps)} turning points"
        )

    # D+/D- labels for the remaining regions, by census-arc azimuth
    for r in sc.regions:
        if r.label != "none":
            continue
        az1, az2 = r.arc_spans[0]
        gap = az2 - az1
        if gap <= 0:
            gap += 2 * math.pi
        mid = wrap_angle(az1 + gap / 2)
        rel = mid - theta_plus
        while rel <= 0:
            rel += 2 * math.pi
        span_plus = theta_minus - theta_plus
        while span_plus <= 0:
            span_plus += 2 * math.pi
        r.label = "D+" if rel < span_plus else "D-"

    sc.exceptional_marked = True
    return sc


def stokes_complex(d: int, ell: int, caps: Optional[TraceCaps] = None) -> StokesComplex:
    """Build the canonical complex for (d, ell) with the exceptional set marked."""
    from .quaddiff import build_quad_diff

    sc = build_stokes_complex(build_quad_diff(d, ell), caps)
    return mark_exceptional(sc)


@dataclass
class AdmissibilityResult:
    admissible: bool
    first_violation: Optional[tuple]  # (sample index, kind, measured value)
    endpoints_escaped: tuple

    def __bool__(self) -> bool:
        return self.admissible


def is_admissible(curve, q, s: float, caps: Optional[TraceCaps] = None) -> AdmissibilityResult:
    """Check the two quantitative admissibility conditions along a polyline.

    Every checked point must keep distance >= s from the turning points and
    the curve tangent must make an angle >= s (radians, measured between
    lines) with the local vertical-trajectory direction.  Endpoint escape
    beyond the trace escape radius is reported but does not veto finite
    sub-curves.

    ``q`` may be a QuadDiff or any ComplexPolynomial coefficient field.
    """
    if s <= 0:
        raise DomainError("admissibility margin must be positive")
    pts = [complex(z) for z in curve]
    if len(pts) < 2:
        raise DomainError("curve needs at least two points")
    if isinstance(q, QuadDiff):
        caps = caps or TraceCaps.for_diff(q)
        tps = turning_points(q)
        escape = caps.escape_radius
    else:
        from .polynomials import roots as _proots

        tps = [r for r, _ in _proots(q, 1e-12)] if q.degree >= 1 else []
        escape = 10.0 * max([abs(v) for v in tps] or [0.0]) + 10.0

    first = None
    for k in range(len(pts) - 1):
        a, b = pts[k], pts[k + 1]
        if a == b:
            continue
        tangent = (b - a) / abs(b - a)
        for frac, z in ((0.0, a), (0.5, 0.5 * (a + b)), (1.0, b)):
            dist = min((abs(z - v) for v in tps), default=math.inf)
            if dist < s:
                first = (k, "turning-point-distance", dist)
                break
            w = cmath.sqrt(q(z))
            vert = 1j * w.conjugate() / abs(w)
            rel = abs(wrap_angle(cmath.phase(tangent / vert)))
            angle = min(rel, math.pi - rel)
            if angle < s:
                first = (k, "foliation-angle", angle)
                break
        if first:
            break

    escaped = (abs(pts[0]) >= escape, abs(pts[-1]) >= escape)
    return AdmissibilityResult(first is None, first, escaped)


def _skeleton_components(sc: StokesComplex) -> list:
    n = len(sc.turning_points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ln in sc.lines:
        if ln.is_short:
            parent[find(ln.origin)] = find(ln.terminal)
    return [find(i) for i in range(n)]


def canonical_pair(sc: StokesComplex, region_a, region_b):
    """A curve joining two half-plane regions that crosses each connected
    component of the complex's 1-skeleton at most once, or None.

    Two half-plane regions lie in a common canonical region exactly when
    such a transversal exists; the search runs over the region adjacency
    graph with one crossing allowed per skeleton component.
    """
    ia = region_a.index if isinstance(region_a, Region) else int(region_a)
    ib = region_b.index if isinstance(region_b, Region) else int(region_b)
    for idx in (ia, ib):
        if sc.regions[idx].kind != HALF_PLANE:
            raise DomainError("canonical pairing is defined for half-plane regions")
    if ia == ib:
        return [sc.regions[ia].anchor]

    comp = _skeleton_components(sc)
    line_comp = {li: comp[sc.lines[li].origin] for li in range(len(sc.lines))}

    adjacency = defaultdict(list)  # region -> (neighbor, line index)
    for li, fpair in sc._line_faces.items():
        if len(fpair) == 2:
            f1, f2 = fpair
            adjacency[f1].append((f2, li))
            adjacency[f2].append((f1, li))

    from collections import deque

    start = (ia, frozenset())
    prev = {start: None}
    queue = deque([start])
    goal = None
    while queue:
        state = queue.popleft()
        region, used = state
        if region == ib:
            goal = state
            break
        for nb, li in adjacency[region]:
            c = line_comp[li]
            if c in used:
                continue
            nxt = (nb, used | {c})
            if nxt not in prev:
                prev[nxt] = (state, li)
                queue.append(nxt)
    if goal is None:
        return None

    hops = []
    cur = goal
    while prev[cur] is not None:
        state, li = prev[cur]
        hops.append((state[0], li, cur[0]))
        cur = state
    hops.reverse()

    waypoints = [sc.regions[ia].anchor]
    for _, li, nxt in hops:
        samples = sc.lines[li].samples
        cum = polyline_cumlen(samples)
        half = 0.5 * cum[-1]
        k = int(min(range(len(cum)), key=lambda i: abs(cum[i] - half)))
        waypoints.append(samples[k])
        waypoints.append(sc.regions[nxt].anchor)
    return waypoints
