"""Zero location by the argument principle and empirical zero measures.

Winding numbers over rectangle boundaries drive a quadtree subdivision
until every cell isolates one zero (then Newton-polished) or bottoms out at
the resolution (then reported with its multiplicity).  The function is
reached through one contract: ``states(zs)`` gives a transport state
(y, y', log scale) per point, ``edge_states(zs)`` the same for the ordered
base samples of one edge, and ``edge_budget(a, b)`` the base sample count
of an edge.  Polynomials serve it through :class:`PolynomialStates` (24
samples per edge), rescaled eigenfunctions directly (a budget from the
local wavenumber; each edge sample hopped from the one before).  Each
sample must be accurate on its own (an eigenfunction state loses no more
than one anchored hop's budget, chained or not), so the wrapped phase
increments telescope and per-sample errors cancel, and refinement fires
on large phase or modulus jumps, which rules out silently aliased turns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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
    """Zeros with multiplicities inside a window, one entry per reporting
    cell (see :func:`locate_zeros`); nothing is merged."""

    zeros: tuple  # ((position, multiplicity), ...), lexicographic order
    window: tuple  # (x0, x1, y0, y1); may differ from the request by nudges

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

    def states(self, zs) -> list:
        return [TransportState(z, self.p(z), self.dp(z), 0.0) for z in zs]

    edge_states = states

    def edge_budget(self, a: complex, b: complex) -> int:
        return 24


# ---------------------------------------------------------------------------
# winding-number drivers


def _rect_loop(rect) -> list:
    x0, x1, y0, y1 = rect
    return [
        complex(x0, y0),
        complex(x1, y0),
        complex(x1, y1),
        complex(x0, y1),
        complex(x0, y0),
    ]


def _samples(states) -> list:
    """``[(log|y|, arg y) for each state]``; the log-scale of each state
    keeps the modulus in range."""
    out = []
    for st in states:
        if st.y == 0:
            raise GeometryError(f"zero exactly on the counting boundary at z={st.z:.6g}")
        out.append((math.log(abs(st.y)) + st.log_scale, cmath.phase(st.y)))
    return out


def _winding(f, rect, boost: int = 1) -> float:
    """Total arg change / 2pi along the rectangle boundary.

    Each edge's base samples come in order from one ``f.edge_states``
    call, refinement midpoints and the closing corner from ``f.states``.
    Every sample is accurate on its own, however it was reached, so the
    wrapped phase increments telescope and individual sample errors cancel.
    The base density, ``boost`` times the edge budget, keeps the true arg
    change per interval well under pi away from zeros; refinement of large
    phase or modulus jumps and the modulus-dip guard handle the
    neighbourhoods of zeros.
    """
    loop = _rect_loop(rect)
    args = []
    for a, b in zip(loop[:-1], loop[1:]):
        n = max(8, int(f.edge_budget(a, b) * boost))
        params = [k / n for k in range(n + 1)]
        values = _samples(f.edge_states([a + (b - a) * t for t in params]))
        k = 0
        depth = 0
        while k < len(params) - 1:
            (la, aa), (lb, ab) = values[k], values[k + 1]
            d = wrap_angle(ab - aa)
            if abs(d) > 0.55 * math.pi or abs(lb - la) > 3.0:
                if params[k + 1] - params[k] < 1e-12:
                    raise GeometryError(
                        f"zero on or vanishingly near the boundary at "
                        f"{a + (b - a) * params[k]:.6f}"
                    )
                if depth > 20000:
                    raise GeometryError(
                        f"boundary refinement exploded near {a + (b - a) * params[k]:.6f}"
                    )
                tm = 0.5 * (params[k] + params[k + 1])
                params.insert(k + 1, tm)
                values.insert(k + 1, _samples(f.states([a + (b - a) * tm]))[0])
                depth += 1
                continue
            k += 1
        # a sharp dip against its neighbours marks a zero hugging the edge
        for j in range(1, len(values) - 1):
            nb = max(values[j - 1][0], values[j + 1][0])
            if values[j][0] - nb < -23.0:
                raise GeometryError(
                    f"boundary passes too close to a zero near z={a + (b - a) * params[j]:.6g}"
                )
        args += [av for _, av in values[:-1]]
    args.append(_samples(f.states([loop[0]]))[0][1])
    return sum(wrap_angle(y - x) for x, y in zip(args, args[1:])) / (2 * math.pi)


def count_zeros_rect(f, rect) -> int:
    """Number of zeros of f inside the rectangle (x0, x1, y0, y1).

    The raw boundary quadrature must land within 0.25 of an integer; if it
    does not, the base sampling is doubled, up to three times, before
    giving up.
    """
    raw = _winding(f, rect)
    for attempt in range(1, 4):
        if abs(raw - round(raw)) <= 0.25:
            break
        raw = _winding(f, rect, boost=2**attempt)
    if abs(raw - round(raw)) > 0.25:
        raise GeometryError(
            f"winding {raw:.3f} over rectangle {rect} is not close to an integer "
            f"after 3 doublings of the base sampling"
        )
    n = int(round(raw))
    if n < 0:
        raise GeometryError(f"negative winding {n} over rectangle {rect}; boundary data inconsistent")
    return n


def _count_with_nudges(f, rect, resolution):
    """Count zeros, shifting the rectangle when a zero sits on the boundary."""
    x0, x1, y0, y1 = rect
    last = None
    for sx, sy in ((0, 0),) + _NUDGE_STEPS:
        dx = 0.37 * resolution * sx
        dy = 0.37 * resolution * sy
        cand = (x0 + dx, x1 + dx, y0 + dy, y1 + dy)
        try:
            return count_zeros_rect(f, cand), cand
        except GeometryError as exc:
            last = exc
    raise GeometryError(f"persistent boundary zero after nudges: {last}")


def _newton_polish(f, z0, rect):
    """Newton's limit from z0 if it lies in the closed cell (outside it
    lies a neighbour's zero), else None."""
    x0, x1, y0, y1 = rect
    z = complex(z0)
    pad = 0.75 * max(x1 - x0, y1 - y0)
    for _ in range(40):
        try:
            st = f.states([z])[0]
            step = st.y / st.dy
        except (ZeroDivisionError, IntegrationError):
            return None
        if not (abs(step) < pad):
            return None
        z -= step
        if abs(step) <= 1e-13 * (1.0 + abs(z)):
            break
    if not (x0 <= z.real <= x1 and y0 <= z.imag <= y1):
        return None
    return z


def locate_zeros(f, window, resolution: float) -> ZeroSet:
    """All zeros of f in the window, quadtree-isolated and Newton-polished.

    Each cell reports its own zeros, and nothing is merged.  A
    multiplicity-1 entry is the Newton limit inside the cell that counted
    it, or the centre of a resolution-floor cell where Newton failed; a
    multiplicity above 1 is a floor cell's centre with its count.  Counts
    are conserved at every subdivision level by construction.  ``f`` is
    reached only through three methods: ``f.states(zs)``, one
    :class:`TransportState` (y, y', log scale) per point, which the winding
    reads as log|y| + log scale and arg y and Newton as y / y';
    ``f.edge_states(zs)``, the same for the ordered base samples of one
    boundary edge, which may reach each sample from the one before; and
    ``f.edge_budget(a, b)``, the base sample count of the boundary edge
    from a to b.  Wrap a polynomial as :class:`PolynomialStates`; a
    rescaled eigenfunction (:func:`spectral.rescale`) is one already.
    """
    if resolution <= 0:
        raise GeometryError("resolution must be positive")
    count, eff_window = _count_with_nudges(f, tuple(window), resolution)
    found = []

    def subdivide(rect, n, depth):
        if n == 0:
            return
        x0, x1, y0, y1 = rect
        size = max(x1 - x0, y1 - y0)
        if n == 1:
            z = _newton_polish(f, complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), rect)
            if z is not None:
                found.append((z, 1))
                return
            if size <= resolution:
                found.append((complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), 1))
                return
        elif size <= resolution:
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
                counts = [count_zeros_rect(f, qd) for qd in quads]
            except GeometryError:
                continue
            if sum(counts) == n:
                for qd, c in zip(quads, counts):
                    subdivide(qd, c, depth + 1)
                return
        raise GeometryError(
            f"child counts inconsistent after nudges in cell {rect} (n={n})"
        )

    subdivide(eff_window, count, 0)
    found.sort(key=lambda zm: (zm[0].real, zm[0].imag))
    return ZeroSet(zeros=tuple(found), window=eff_window)


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

