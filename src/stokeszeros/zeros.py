"""Zero location by the argument principle and empirical zero measures.

Winding numbers over rectangle boundaries drive a quadtree subdivision
until every cell isolates one zero (its converged Newton limit) or several
at the resolution (then reported with their count).  The function is
reached through one contract, one point or one edge: ``state(z)`` gives
the transport state (y, y', log scale) at a point, ``edge_states(zs)`` the
same for the ordered base samples of one boundary segment, and
``edge_budget(a, b)`` the base sample count of a segment.  Polynomials
serve it through :class:`PolynomialStates` (24 samples per segment),
rescaled eigenfunctions directly (a budget from the local wavenumber; each
edge sample hopped from the one before).  All the cells of one run share
one store of samples, kept per grid line, so each segment is sampled once
and a split samples only its cross.  Each sample must be accurate on its own
(an eigenfunction state loses no more than one anchored hop's budget,
chained or not), so the wrapped phase increments telescope and per-sample
errors cancel, and refinement fires on large phase or modulus jumps, which
rules out silently aliased turns; an aliased turn that a later sample
reveals breaks the agreement of a side with its halves, which raises.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GeometryError, IntegrationError
from .geometry import nearest_on_polyline, wrap_angle
from .transport import TransportState
from .wkb import arc_mass_profile

__all__ = [
    "ZeroSet",
    "EmpiricalMeasure",
    "PolynomialStates",
    "count_zeros_rect",
    "locate_zeros",
    "empirical_measure",
    "ComparisonReport",
    "compare_to_limit",
]

_NUDGE_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1))


@dataclass(frozen=True)
class ZeroSet:
    """Zeros inside a window, one entry per reporting cell: a converged
    Newton limit with multiplicity 1, or a floor cell's centre with its
    count (see :func:`locate_zeros`); nothing is merged."""

    zeros: tuple  # ((position, multiplicity), ...), lexicographic order
    window: tuple  # (x0, x1, y0, y1); may differ from the request by nudges
    # work done: cells counted, edge samples, samples reused, refinement
    # midpoints, window and cross nudges, Newton polishes that found no limit
    counts: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def total_count(self) -> int:
        return sum(m for _, m in self.zeros)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Zero counting measure scaled by 1/n."""

    zeroset: ZeroSet
    n: int

    def atoms(self) -> list:
        return [(z, m / self.n) for z, m in self.zeroset.zeros]


class PolynomialStates:
    """A polynomial p under the evaluation contract of :func:`locate_zeros`.

    States are (p(z), p'(z), log scale 0) by Horner, at edge samples as
    anywhere else, and every edge gets 24 base samples.
    """

    def __init__(self, p):
        self.p = p
        self.dp = p.derivative()

    def state(self, z) -> TransportState:
        return TransportState(z, self.p(z), self.dp(z), 0.0)

    def edge_states(self, zs) -> list:
        return [self.state(z) for z in zs]

    def edge_budget(self, a: complex, b: complex) -> int:
        return 24


# ---------------------------------------------------------------------------
# winding numbers from one store of boundary samples


def _value(st) -> tuple:
    """(log|y|, arg y) of one state; its log-scale keeps the modulus in range."""
    if st.y == 0:
        raise GeometryError(f"zero exactly on the counting boundary at z={st.z:.6g}")
    return math.log(abs(st.y)) + st.log_scale, cmath.phase(st.y)


class _Line:
    """The samples of f on one grid line, in increasing coordinate order,
    and the spans of the line sampled at base density so far."""

    __slots__ = ("vertical", "c", "ts", "vals", "spans")

    def __init__(self, vertical: bool, c: float):
        self.vertical = vertical  # the line x = c, else y = c
        self.c = c
        self.ts = []
        self.vals = []  # (log|y|, arg y) at each coordinate of ts
        self.spans = []  # sorted, disjoint (lo, hi)

    def point(self, t: float) -> complex:
        return complex(self.c, t) if self.vertical else complex(t, self.c)

    def find(self, t: float):
        """The stored sample at t, or None."""
        i = bisect_left(self.ts, t)
        return self.vals[i] if i < len(self.ts) and self.ts[i] == t else None

    def gaps(self, a: float, b: float) -> list:
        """The parts of [a, b] that no sampled span covers."""
        out = []
        for lo, hi in self.spans:
            if hi <= a:
                continue
            if lo >= b:
                break
            if lo > a:
                out.append((a, lo))
            a = hi
        if a < b:
            out.append((a, b))
        return out

    def add(self, ts, vals):
        for t, v in zip(ts, vals):
            i = bisect_left(self.ts, t)
            if i == len(self.ts) or self.ts[i] != t:
                self.ts.insert(i, t)
                self.vals.insert(i, v)

    def cover(self, a: float, b: float):
        merged = []
        for lo, hi in sorted(self.spans + [(a, b)]):
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self.spans = merged


class _Boundary:
    """One store of boundary samples for all the cells of one run.

    Samples are kept per grid line, ``(False, y)`` horizontal and ``(True,
    x)`` vertical, so every side on a line reads what any earlier side
    sampled there.  A side on an unsampled span is sampled once, in
    increasing coordinate order, by one ``f.edge_states`` call at the
    density ``f.edge_budget`` asks for; a side on a sampled span adds only
    its missing endpoints, from the crossing line where that stored them,
    else through ``f.state``.  Refinement midpoints go into the store too.
    ``counts`` holds the deterministic work done.
    """

    def __init__(self, f):
        self.f = f
        self.lines = {}
        self._evaluated = 0  # points asked of f, to tell reused samples
        self.counts = dict.fromkeys(
            ("cells", "edge_samples", "reused", "midpoints", "window_nudges", "cross_nudges", "newton_failures"), 0
        )

    def _line(self, vertical: bool, c: float) -> _Line:
        line = self.lines.get((vertical, c))
        if line is None:
            line = self.lines[(vertical, c)] = _Line(vertical, c)
        return line

    def _known(self, line: _Line, t: float):
        """The sample at t on the line, stored there or by the crossing
        line through that point, or None."""
        value = line.find(t)
        if value is None:
            crossing = self.lines.get((not line.vertical, t))
            if crossing is not None:
                value = crossing.find(line.c)
        return value

    def _sample(self, line: _Line, a: float, b: float):
        """Base samples of [a, b] on the line, one chain from a to b; an end
        already stored is not asked for again."""
        n = max(8, int(self.f.edge_budget(line.point(a), line.point(b))))
        ts = [a + (b - a) * (k / n) for k in range(n)] + [b]
        vals = [self._known(line, a)] + [None] * (n - 1) + [self._known(line, b)]
        ask = [k for k, v in enumerate(vals) if v is None]
        for k, st in zip(ask, self.f.edge_states([line.point(ts[k]) for k in ask])):
            vals[k] = _value(st)
        line.add(ts, vals)
        line.cover(a, b)
        self.counts["edge_samples"] += len(ask)
        self._evaluated += len(ask)

    def _increment(self, line: _Line, a: float, b: float) -> float:
        """Arg change of f along the line from a to b.

        Large phase or modulus jumps between neighbouring samples are
        bisected, and a sharp modulus dip against both neighbours marks a
        zero hugging the side.
        """
        f, ts, vals = self.f, line.ts, line.vals
        for t in (a, b):
            if line.find(t) is None:
                value = self._known(line, t)
                if value is None:
                    value = _value(f.state(line.point(t)))
                    self._evaluated += 1
                line.add([t], [value])
        k = start = bisect_left(ts, a)
        end = bisect_left(ts, b)
        depth = 0
        while k < end:
            (la, aa), (lb, ab) = vals[k], vals[k + 1]
            if abs(wrap_angle(ab - aa)) > 0.55 * math.pi or abs(lb - la) > 3.0:
                if ts[k + 1] - ts[k] < 1e-12 * (b - a):
                    raise GeometryError(
                        f"zero on or vanishingly near the boundary at {line.point(ts[k]):.6f}"
                    )
                if depth > 20000:
                    raise GeometryError(
                        f"boundary refinement exploded near {line.point(ts[k]):.6f}"
                    )
                tm = 0.5 * (ts[k] + ts[k + 1])
                value = _value(f.state(line.point(tm)))
                ts.insert(k + 1, tm)
                vals.insert(k + 1, value)
                end += 1
                depth += 1
                self.counts["midpoints"] += 1
                self._evaluated += 1
                continue
            k += 1
        for j in range(start + 1, end):
            if vals[j][0] - max(vals[j - 1][0], vals[j + 1][0]) < -23.0:
                raise GeometryError(
                    f"boundary passes too close to a zero near z={line.point(ts[j]):.6g}"
                )
        return sum(wrap_angle(vals[j + 1][1] - vals[j][1]) for j in range(start, end))

    def count(self, rect) -> tuple:
        """Zeros of f inside the rectangle (x0, x1, y0, y1), and the arg
        change along each of its sides (bottom, right, top, left), taken in
        increasing coordinate.

        The new sides are sampled first, so the corners they end on are
        already stored when the reused sides ask for them.
        """
        x0, x1, y0, y1 = rect
        sides = [
            (self._line(False, y0), x0, x1),
            (self._line(True, x1), y0, y1),
            (self._line(False, y1), x0, x1),
            (self._line(True, x0), y0, y1),
        ]
        self.counts["cells"] += 1
        evaluated = self._evaluated
        for line, a, b in sides:
            for lo, hi in line.gaps(a, b):
                self._sample(line, lo, hi)
        incs = tuple(self._increment(line, a, b) for line, a, b in sides)
        read = sum(bisect_right(line.ts, b) - bisect_left(line.ts, a) for line, a, b in sides)
        self.counts["reused"] += read - (self._evaluated - evaluated)
        raw = (incs[0] + incs[1] - incs[2] - incs[3]) / (2 * math.pi)
        if abs(raw - round(raw)) > 1e-9:
            raise GeometryError(f"winding {raw!r} over rectangle {rect} is not an integer")
        n = int(round(raw))
        if n < 0:
            raise GeometryError(f"negative winding {n} over rectangle {rect}; boundary data inconsistent")
        return n, incs

    def count_with_nudges(self, rect, resolution) -> tuple:
        """``count`` of the rectangle, shifted when a zero sits on its
        boundary; returns (count, side increments, rectangle counted)."""
        x0, x1, y0, y1 = rect
        last = None
        for sx, sy in ((0, 0),) + _NUDGE_STEPS:
            dx = 0.37 * resolution * sx
            dy = 0.37 * resolution * sy
            cand = (x0 + dx, x1 + dx, y0 + dy, y1 + dy)
            try:
                return self.count(cand) + (cand,)
            except GeometryError as exc:
                last = exc
                self.counts["window_nudges"] += 1
        raise GeometryError(f"persistent boundary zero after nudges: {last}")


def _checked(rect, name: str) -> tuple:
    """The rectangle (x0, x1, y0, y1) as a tuple; one that is not finite with
    x0 < x1 and y0 < y1 raises :class:`GeometryError` naming it."""
    rect = tuple(rect)
    x0, x1, y0, y1 = rect
    if not (all(map(math.isfinite, rect)) and x0 < x1 and y0 < y1):
        raise GeometryError(f"{name} must be finite with x0 < x1 and y0 < y1, got {rect!r}")
    return rect


def count_zeros_rect(f, rect) -> int:
    """Number of zeros of f inside the rectangle (x0, x1, y0, y1), counted
    with a fresh store of boundary samples.

    The side increments close over corner samples that are bit-equal on
    both sides, so the raw winding must be an integer to 1e-9 turns; it
    raises :class:`GeometryError` otherwise, when a zero sits on the
    boundary, or when the rectangle is not finite with x0 < x1 and y0 < y1.
    """
    return _Boundary(f).count(_checked(rect, "rectangle"))[0]


def _newton_polish(f, z0, rect):
    """Newton's limit from z0: the first iterate whose step is at most
    1e-10·(1 + |z|), if it lies in the closed cell (outside it lies a
    neighbour's zero); else, or if 40 steps do not converge, None."""
    x0, x1, y0, y1 = rect
    z = complex(z0)
    pad = 0.75 * max(x1 - x0, y1 - y0)
    for _ in range(40):
        try:
            st = f.state(z)
            step = st.y / st.dy
        except (ZeroDivisionError, IntegrationError):
            return None
        if not (abs(step) < pad):
            return None
        z -= step
        if abs(step) <= 1e-10 * (1.0 + abs(z)):
            return z if x0 <= z.real <= x1 and y0 <= z.imag <= y1 else None
    return None


_SIDES = ("bottom", "right", "top", "left")
_HALVES = ((0, 1), (1, 3), (2, 3), (0, 2))  # the children on each side of a cell


def _check_halves(rect, incs, child_incs):
    """Each side's arg change, recorded when the cell was counted, must
    equal the sum over its two halves as the children counted them."""
    for s, (c0, c1) in enumerate(_HALVES):
        halves = child_incs[c0][s] + child_incs[c1][s]
        if abs(incs[s] - halves) > 1e-9:
            raise GeometryError(
                f"{_SIDES[s]} side of cell {rect}: arg change {incs[s]!r} when the cell "
                f"was counted, {halves!r} over its halves"
            )


def locate_zeros(f, window, resolution: float) -> ZeroSet:
    """All zeros of f in the window, quadtree-isolated and Newton-polished.

    Each cell reports its own zeros, and nothing is merged.  A
    multiplicity-1 entry is the converged Newton limit inside the cell
    that counted it; a one-zero cell where Newton finds none splits on.
    The resolution floors only cells of two or more zeros, each reported
    at its centre with its count.  All
    cells share one store of boundary samples, kept per grid line, so a
    split samples only its cross: the halves of the parent's sides reuse
    the parent's samples.  The four children share their cross increments
    exactly, so their counts sum to the parent's by telescoping; what that
    no longer checks, each side's increment against the sum over its two
    halves as the children counted them, must agree to 1e-9 rad, or the
    run raises :class:`GeometryError`.  ``f`` is reached only through
    three methods, one point or one edge: ``f.state(z)``, the
    :class:`TransportState` (y, y', log scale) at one point, which the
    winding reads as log|y| + log scale and arg y and Newton as y / y';
    ``f.edge_states(zs)``, the same for the samples of one unsampled span
    of a grid line, in increasing coordinate order, which may reach each
    sample from the one before; and ``f.edge_budget(a, b)``, the base
    sample count of the segment from a to b.  Wrap a polynomial as
    :class:`PolynomialStates`; a rescaled eigenfunction
    (:func:`spectral.rescale`) is one already.  A resolution that is not
    positive and finite, or a window that is not finite with x0 < x1 and
    y0 < y1, raises :class:`GeometryError`.
    """
    if not 0 < resolution < math.inf:
        raise GeometryError(f"resolution must be positive and finite, got {resolution!r}")
    window = _checked(window, "window")
    store = _Boundary(f)
    count, incs, eff_window = store.count_with_nudges(window, resolution)
    found = []

    def subdivide(rect, n, incs, depth):
        if n == 0:
            return
        x0, x1, y0, y1 = rect
        if n == 1:
            z = _newton_polish(f, complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), rect)
            if z is not None:
                found.append((z, 1))
                return
            store.counts["newton_failures"] += 1
        elif max(x1 - x0, y1 - y0) <= resolution:
            found.append((complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), n))
            return
        if depth > 60:
            raise GeometryError(f"quadtree depth budget of 60 exceeded in cell {rect} (n={n})")

        # split slightly off-center (symmetric zero patterns love to sit on
        # cell midlines), nudging the cross further when a zero is hit
        cx = x0 + 0.503791 * (x1 - x0)
        cy = y0 + 0.503791 * (y1 - y0)
        for attempt, (sx, sy) in enumerate(((0, 0),) + _NUDGE_STEPS):
            mx = cx + 0.37 * resolution * sx * max(1, attempt)
            my = cy + 0.37 * resolution * sy * max(1, attempt)
            if not (x0 < mx < x1 and y0 < my < y1):
                continue
            quads = [
                (x0, mx, y0, my),
                (mx, x1, y0, my),
                (x0, mx, my, y1),
                (mx, x1, my, y1),
            ]
            try:
                counted = [store.count(qd) for qd in quads]
            except GeometryError:
                store.counts["cross_nudges"] += 1
                continue
            _check_halves(rect, incs, [c[1] for c in counted])
            if sum(c[0] for c in counted) != n:
                raise GeometryError(f"child counts {[c[0] for c in counted]} of cell {rect} do not sum to n={n}")
            for qd, (c, child_incs) in zip(quads, counted):
                subdivide(qd, c, child_incs, depth + 1)
            return
        raise GeometryError(f"no cross of cell {rect} (n={n}) avoids the zeros after nudges")

    subdivide(eff_window, count, incs, 0)
    found.sort(key=lambda zm: (zm[0].real, zm[0].imag))
    return ZeroSet(zeros=tuple(found), window=eff_window, counts=dict(store.counts))


def empirical_measure(zs: ZeroSet, n: int) -> EmpiricalMeasure:
    """Counting measure of the zeros scaled by 1/n."""
    if n < 1:
        raise GeometryError("normalization index must be >= 1")
    return EmpiricalMeasure(zeroset=zs, n=n)


@dataclass(frozen=True)
class ArcComparison:
    arc_index: int
    ks_distance: Optional[float]
    empirical_mass: float
    limit_mass: float
    zero_count: int


@dataclass(frozen=True)
class ComparisonReport:
    """Empirical zero measure against the limit measure on E."""

    arcs: tuple
    near_fraction: float


def compare_to_limit(em: EmpiricalMeasure, sc, delta: float = 0.1) -> ComparisonReport:
    """Project zeros to the exceptional arcs and compare with the limit law.

    ``sc`` is the (rescaled) Stokes complex carrying the exceptional set.
    Returns per-arc Kolmogorov-Smirnov distances of the projected zeros
    against the limit arclength law, per-arc masses, and the fraction of
    zero mass within ``delta`` of E.
    """
    q = sc.quaddiff
    x0, x1, y0, y1 = em.zeroset.window
    arcs = []
    for arc_id, line_idx in enumerate(sc.exceptional_lines):
        samples = [complex(s) for s in sc.lines[line_idx].samples]
        clipped = [
            z
            for z in samples
            if x0 - 1e-9 <= z.real <= x1 + 1e-9 and y0 - 1e-9 <= z.imag <= y1 + 1e-9
        ]
        if len(clipped) >= 2:
            arcs.append((arc_id, clipped))

    assignments = {aid: [] for aid, _ in arcs}
    near_mass = 0.0
    total_mass = 0.0
    for z, m in em.atoms():
        total_mass += m
        best = None
        for aid, pts in arcs:
            dist, s_pos, _ = nearest_on_polyline(z, pts)
            if best is None or dist < best[0]:
                best = (dist, aid, s_pos)
        tp_dist = min(abs(z - v) for v in sc.turning_points)
        if best is not None and min(best[0], tp_dist) <= delta:
            near_mass += m
        if best is not None and best[0] <= delta:
            assignments[best[1]].append((best[2], m))

    out = []
    for aid, pts in arcs:
        s_grid, cum = arc_mass_profile(q, pts)
        limit_mass = float(cum[-1])
        atoms = sorted(assignments[aid])
        emp_mass = sum(m for _, m in atoms)
        ks = None
        if atoms and limit_mass > 0:
            wsum = emp_mass
            ks = 0.0
            acc = 0.0
            for s_pos, m in atoms:
                flim = float(np.interp(s_pos, s_grid, cum)) / limit_mass
                ks = max(ks, abs(flim - acc / wsum), abs(flim - (acc + m) / wsum))
                acc += m
        out.append(
            ArcComparison(
                arc_index=aid,
                ks_distance=ks,
                empirical_mass=emp_mass,
                limit_mass=limit_mass,
                zero_count=round(emp_mass * em.n),
            )
        )
    return ComparisonReport(
        arcs=tuple(out),
        near_fraction=(near_mass / total_mass) if total_mass else 1.0,
    )

