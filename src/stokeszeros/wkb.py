"""Phase integrals, growth asymptotics, and WKB error certificates.

The central object is the subharmonic envelope

    u(z) = Re int_0^z sqrt(Q(t)) dt,

with the branch of sqrt(Q) normalized so that u tends to -infinity along
the two boundary anti-Stokes rays.  All loop periods of the integral are
purely imaginary, so u is a single-valued continuous function; quadrature
paths are routed around the turning points and never across the exceptional
set, which keeps the branch bookkeeping trivial.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificateError, DomainError, QuadratureError
from .geometry import (
    crossing_fractions,
    crossings_count,
    polyline_cumlen,
    wrap_angle,
)
from .polynomials import gamma
from .quaddiff import QuadDiff, turning_points
from .stokescomplex import StokesComplex, is_admissible

__all__ = [
    "growth_constant",
    "eigenvalue_estimate",
    "index_estimate",
    "PhaseIntegral",
    "limit_density",
    "arc_mass",
    "arc_mass_profile",
    "liouville_g",
    "h0_bound",
    "WKBParameters",
    "WKBValue",
    "wkb_approximant",
    "successive_epsilon",
    "growth_bound",
]


def growth_constant(d: int, ell: int) -> float:
    """The constant sqrt(pi) Gamma(3/2 + 1/d) / (sin(ell pi/d) Gamma(1 + 1/d)).

    Relates the eigenvalue index to the phase scale; symmetric under
    ell -> d - ell.
    """
    if d < 2 or not 1 <= ell <= d - 1:
        raise DomainError(f"invalid (d, ell) = ({d}, {ell})")
    return (
        math.sqrt(math.pi)
        * gamma(1.5 + 1.0 / d)
        / (math.sin(ell * math.pi / d) * gamma(1.0 + 1.0 / d))
    )


def eigenvalue_estimate(d: int, ell: int, n: float, offset: float = 0.0) -> float:
    """Leading-order eigenvalue growth (c_{d,ell} (n + offset))^{2d/(d+2)}.

    The plain law uses offset = 0; a half-integer offset gives much better
    seeds for the shooting solver at moderate n.
    """
    if n + offset <= 0:
        raise DomainError("index must be positive")
    c = growth_constant(d, ell)
    return (c * (n + offset)) ** (2.0 * d / (d + 2.0))


def index_estimate(d: int, ell: int, lam: float) -> float:
    """Inverse of :func:`eigenvalue_estimate` (offset 0)."""
    c = growth_constant(d, ell)
    return lam ** ((d + 2.0) / (2.0 * d)) / c


# ---------------------------------------------------------------------------
# quadrature along routed paths


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _sqrt_continued(q: QuadDiff, pts: np.ndarray, w_ref: complex) -> np.ndarray:
    """Branch-continued sqrt(Q) at an ordered dense sequence of points."""
    vals = np.empty(len(pts), dtype=complex)
    ref = w_ref
    for i, z in enumerate(pts):
        w = cmath.sqrt(q(complex(z)))
        if abs(w - ref) > abs(w + ref):
            w = -w
        vals[i] = w
        ref = w
    return vals


def _panel_integral(q: QuadDiff, a: complex, b: complex, w_ref: complex):
    """(integral of sqrt(Q) over [a,b], branch at b) on one GL panel."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid + half * _GL_NODES
    vals = _sqrt_continued(q, pts, w_ref)
    integral = half * np.sum(_GL_WEIGHTS * vals)
    w_end = cmath.sqrt(q(b))
    if abs(w_end - vals[-1]) > abs(w_end + vals[-1]):
        w_end = -w_end
    return integral, w_end


def _integrate_segment(q: QuadDiff, a: complex, b: complex, w_ref: complex, tol: float, tps):
    """Adaptive branch-continued integral of sqrt(Q) along [a, b]."""
    length = abs(b - a)
    if length == 0:
        return 0j, w_ref
    # panel length limited by the distance to the turning points so the
    # node-to-node continuation is unambiguous
    total = 0j
    w = w_ref
    stack = [(a, b)]
    out = []
    while stack:
        x, y = stack.pop()
        dist = min((abs(0.5 * (x + y) - v) for v in tps), default=1e18)
        if abs(y - x) > max(0.5 * dist, 1e-9):
            m = 0.5 * (x + y)
            stack.append((m, y))
            stack.append((x, m))
        else:
            out.append((x, y))
    out.sort(key=lambda seg: abs(seg[0] - a))
    for x, y in out:
        coarse, _ = _panel_integral(q, x, y, w)
        m = 0.5 * (x + y)
        f1, _ = _panel_integral(q, x, m, w)
        f2, w_end = _panel_integral(q, m, y, w)
        fine = f1 + f2
        if abs(fine - coarse) > tol * (1.0 + abs(fine)):
            # one more halving level is always enough at GL-16 for the
            # square-root singularities kept at panel-length distance
            g1, _ = _panel_integral(q, x, 0.5 * (x + m), w)
            g2, _ = _panel_integral(q, 0.5 * (x + m), m, w)
            g3, _ = _panel_integral(q, m, 0.5 * (m + y), w)
            g4, w_end = _panel_integral(q, 0.5 * (m + y), y, w)
            fine = g1 + g2 + g3 + g4
        total += fine
        w = w_end
    return total, w


class PhaseIntegral:
    """Branch-tracked zeta(z) = int_0^z sqrt(Q) and its envelope u = Re zeta.

    Construction fixes the branch sign at the basepoint 0 so that u is
    negative far out along the omega+ boundary ray.  Evaluation routes a
    polygonal path from 0 to z that keeps clear of turning points and never
    crosses the exceptional set.
    """

    def __init__(self, sc: StokesComplex, tol: float = 1e-11):
        if not sc.exceptional_marked:
            raise DomainError("phase integral needs a complex with marked exceptional set")
        self.sc = sc
        self.q = sc.quaddiff
        self.tol = tol
        self.tps = turning_points(self.q)
        self.scale = max(1.0, max(abs(v) for v in self.tps))
        if len(self.tps) > 1:
            self.minsep = min(
                abs(a - b) for i, a in enumerate(self.tps) for b in self.tps[i + 1 :]
            )
        else:
            self.minsep = self.scale
        self._exc_segments = []
        for arc in sc.exceptional_arcs():
            pts = np.asarray(arc, dtype=complex)
            self._exc_segments.append((pts[:-1], pts[1:]))
        self._build_waypoints()
        self._cache = {}
        # the basepoint 0 may sit on the cut (the short exceptional line of a
        # self-adjoint family passes through it); anchor all routes at a point
        # nudged into the cut complement so the branch side is unambiguous
        delta = 1e-6 * self.scale
        self._base = 1j * delta if sc.distance_to_exceptional(0j) < 10 * delta else 0j
        # basepoint branch: u must decay along the omega+ boundary ray
        self._sigma = 1.0
        theta_plus = sc.boundary_rays[1]
        probe = 2.2 * self.scale * cmath.exp(1j * theta_plus)
        if self._u_raw(probe) > 0:
            self._sigma = -1.0
            self._cache.clear()

    # -- routing ------------------------------------------------------------

    def _build_waypoints(self):
        ring = max(0.22 * self.minsep, 0.1)
        self._clearance = 0.45 * ring
        pts = []
        for v in self.tps:
            for k in range(8):
                pts.append(v + ring * cmath.exp(1j * (2 * math.pi * k / 8 + 0.17)))
        for radius in (1.7 * self.scale, 2.6 * self.scale):
            for k in range(12):
                pts.append(radius * cmath.exp(1j * (2 * math.pi * k / 12 + 0.09)))
        self._waypoints = pts
        n = len(pts)
        self._adj = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if self._edge_ok(pts[i], pts[j]):
                    d = abs(pts[i] - pts[j])
                    self._adj[i].append((j, d))
                    self._adj[j].append((i, d))

    def _edge_ok(self, a: complex, b: complex, shrink: float = 1e-7, end_at_tp: bool = False) -> bool:
        u = b - a
        aa, bb = a + shrink * u, b - shrink * u
        # a query point may sit on (or be) a turning point: clear the last
        # stretch of the approach from the distance test, the quadrature
        # handles the integrable endpoint singularity itself
        cb = bb
        if end_at_tp and abs(u) > 0:
            cb = b - min(self._clearance, 0.8 * abs(u)) * (u / abs(u))
        seg = cb - aa
        denom = (seg * seg.conjugate()).real
        for v in self.tps:
            if denom == 0:
                dist = abs(aa - v)
            else:
                t = ((v - aa) * seg.conjugate()).real / denom
                t = min(max(t, 0.0), 1.0)
                dist = abs(aa + t * seg - v)
            if dist < self._clearance:
                return False
        for p, qarr in self._exc_segments:
            if crossings_count(aa, bb, p, qarr):
                return False
        return True

    def _route(self, start: complex, end: complex) -> list:
        end_at_tp = min(abs(end - v) for v in self.tps) < self._clearance
        if self._edge_ok(start, end, end_at_tp=end_at_tp):
            return [start, end]
        pts = self._waypoints
        n = len(pts)
        S, T = n, n + 1
        adj = {i: list(self._adj[i]) for i in range(n)}
        adj[S] = []
        adj[T] = []
        for i, p in enumerate(pts):
            if self._edge_ok(start, p):
                adj[S].append((i, abs(start - p)))
            if self._edge_ok(p, end, end_at_tp=end_at_tp):
                adj[i].append((T, abs(p - end)))
        dist = {S: 0.0}
        prev = {}
        heap = [(0.0, S)]
        seen = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in seen:
                continue
            seen.add(node)
            if node == T:
                break
            for nb, w in adj.get(node, []):
                nd = d + w
                if nd < dist.get(nb, math.inf):
                    dist[nb] = nd
                    prev[nb] = node
                    heapq.heappush(heap, (nd, nb))
        if T not in seen:
            raise QuadratureError(
                f"no quadrature path from {start:.4g} to {end:.4g} clear of the "
                "turning points and the exceptional set"
            )
        chain = [T]
        while chain[-1] != S:
            chain.append(prev[chain[-1]])
        chain.reverse()
        return [start] + [pts[i] for i in chain[1:-1]] + [end]

    # -- evaluation ----------------------------------------------------------

    def _zeta_w(self, z: complex) -> tuple:
        # every path leaves 0 through the fixed off-cut anchor, so all
        # evaluations share one single-valued branch on the cut complement;
        # an immediate a -> b -> a reversal is dropped rather than integrated
        # out and back, so u(0) = 0 exactly and not up to roundoff
        route = self._route(self._base, complex(z))
        path = [0j]
        for p in route if self._base != 0 else route[1:]:
            if len(path) > 1 and p == path[-2]:
                path.pop()
            else:
                path.append(p)
        w = self._sigma * cmath.sqrt(self.q(0j))
        total = 0j
        for a, b in zip(path[:-1], path[1:]):
            part, w = _integrate_segment(self.q, a, b, w, self.tol, self.tps)
            total += part
        return total, w

    def _zeta_raw(self, z: complex) -> complex:
        return self._zeta_w(z)[0]

    def _u_raw(self, z: complex) -> float:
        return self._zeta_raw(z).real

    def u(self, z: complex) -> float:
        """The envelope u(z); path independent, u(0) = 0, continuous on E."""
        z = complex(z)
        key = (round(z.real, 13), round(z.imag, 13))
        if key not in self._cache:
            self._cache[key] = float(self._u_raw(z))
        return self._cache[key]

    def e0_period(self) -> complex:
        """Loop integral of sqrt(Q) around the short exceptional line."""
        sc = self.sc
        e0 = sc.lines[sc.e0_index].samples
        eta = 0.35 * self.minsep
        step = max(1, len(e0) // 120)
        pts = list(e0[::step])
        if pts[-1] != e0[-1]:
            pts.append(e0[-1])
        upper, lower = [], []
        for i, z in enumerate(pts):
            a = pts[max(i - 1, 0)]
            b = pts[min(i + 1, len(pts) - 1)]
            t = b - a
            nrm = 1j * t / abs(t) if t != 0 else 1j
            upper.append(z + eta * nrm)
            lower.append(z - eta * nrm)

        def cap(center, frm, to, outward):
            a1 = cmath.phase(frm - center)
            a2 = cmath.phase(to - center)
            target = cmath.phase(outward)
            # sweep from a1 to a2 passing through the outward direction
            best = None
            for sweep in (wrap_angle(a2 - a1), wrap_angle(a2 - a1) - 2 * math.pi
                          if wrap_angle(a2 - a1) > 0 else wrap_angle(a2 - a1) + 2 * math.pi):
                mid = wrap_angle(a1 + sweep / 2)
                score = abs(wrap_angle(mid - target))
                if best is None or score < best[0]:
                    best = (score, sweep)
            sweep = best[1]
            return [
                center + eta * cmath.exp(1j * (a1 + sweep * k / 8.0))
                for k in range(1, 8)
            ]

        v_far = min(self.tps, key=lambda v: abs(v - pts[-1]))
        v_near = min(self.tps, key=lambda v: abs(v - pts[0]))
        out_far = pts[-1] - pts[-2]
        out_near = pts[0] - pts[1]
        loop = (
            upper
            + cap(v_far, upper[-1], lower[-1], out_far)
            + lower[::-1]
            + cap(v_near, lower[0], upper[0], out_near)
            + [upper[0]]
        )
        w = cmath.sqrt(self.q(loop[0]))
        total = 0j
        for a, b in zip(loop[:-1], loop[1:]):
            part, w = _integrate_segment(self.q, a, b, w, self.tol, self.tps)
            total += part
        return total

    def u_grid(self, corner: complex, nx: int, ny: int, dx: float, dy: float):
        """March u over a rectangular grid (cheap, for routing heuristics).

        Branch signs are flipped across exceptional-set crossings so the
        grid reproduces the creases of u; accuracy is grid-limited.  The
        grid is jittered off axis-aligned positions so that no node lands
        exactly on an exceptional line, which would defeat the
        crossing-parity bookkeeping; the returned coordinates include the
        jitter.
        """
        corner = complex(corner) + (3.7e-4 * dx + 2.3e-4j * dy)
        zs = np.array(
            [
                [corner + ix * dx + 1j * iy * dy for ix in range(nx)]
                for iy in range(ny)
            ],
            dtype=complex,
        )
        u = np.zeros((ny, nx))
        wgrid = np.zeros((ny, nx), dtype=complex)
        z00 = complex(zs[0, 0])
        zeta0, w00 = self._zeta_w(z00)
        u[0, 0] = zeta0.real
        wgrid[0, 0] = w00

        def advance(z_from, z_to, u_from, w_from):
            delta = z_to - z_from
            ts = []
            for p, qarr in self._exc_segments:
                ts.extend(crossing_fractions(z_from, z_to, p, qarr))
            ts = sorted(ts)
            # integrate piecewise, flipping the branch sign at every crease
            breaks = [0.0] + ts + [1.0]
            sign = 1.0
            du = 0.0
            w_prev = w_from
            for t0, t1 in zip(breaks[:-1], breaks[1:]):
                z1 = z_from + t1 * delta
                w_new = cmath.sqrt(self.q(z1))
                if abs(w_new - w_prev) > abs(w_new + w_prev):
                    w_new = -w_new
                du += (sign * 0.5 * (w_prev + w_new) * (t1 - t0) * delta).real
                w_prev = w_new
                if t1 < 1.0:
                    sign = -sign
            return u_from + du, sign * w_prev

        near = 0.25 * self.minsep

        def fill(iy, ix, z_from, u_from, w_from):
            z_to = complex(zs[iy, ix])
            if min(abs(z_to - v) for v in self.tps) < near:
                # trapezoid marching is unreliable next to a turning point
                zeta, w = self._zeta_w(z_to)
                u[iy, ix], wgrid[iy, ix] = zeta.real, w
            else:
                u[iy, ix], wgrid[iy, ix] = advance(z_from, z_to, u_from, w_from)

        for ix in range(1, nx):
            fill(0, ix, complex(zs[0, ix - 1]), u[0, ix - 1], wgrid[0, ix - 1])
        for iy in range(1, ny):
            for ix in range(nx):
                fill(iy, ix, complex(zs[iy - 1, ix]), u[iy - 1, ix], wgrid[iy - 1, ix])
        return zs, u


def limit_density(sc: StokesComplex, z: complex, tol: float = 1e-5) -> float:
    """Linear density (c/pi) sqrt(|Q(z)|) of the limit zero measure on E."""
    z = complex(z)
    if sc.distance_to_exceptional(z) > tol * max(1.0, abs(z)):
        raise DomainError(f"{z} is not on the exceptional set")
    q = sc.quaddiff
    c = growth_constant(q.d, q.ell)
    return c / math.pi * math.sqrt(abs(q(z)))


_GL4_NODES, _GL4_WEIGHTS = np.polynomial.legendre.leggauss(4)


def arc_mass_profile(q: QuadDiff, samples) -> tuple:
    """(arclength grid, cumulative limit mass) along one exceptional arc.

    Per-segment Gauss quadrature keeps the error chord-limited even though
    the density has square-root zeros at the turning-point endpoints.
    """
    pts = np.asarray(samples, dtype=complex)
    c = growth_constant(q.d, q.ell)
    s = polyline_cumlen(pts)
    masses = [0.0]
    for a, b in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid + half * _GL4_NODES
        vals = [c / math.pi * math.sqrt(abs(q(complex(t)))) for t in nodes]
        masses.append(abs(half) * float(np.dot(_GL4_WEIGHTS, vals)))
    cum = np.cumsum(masses)
    return s, cum


def arc_mass(q: QuadDiff, samples, s0: Optional[float] = None, s1: Optional[float] = None) -> float:
    """Limit-measure mass of a sub-arc [s0, s1] (full arc by default)."""
    s, cum = arc_mass_profile(q, samples)
    lo = 0.0 if s0 is None else float(np.interp(s0, s, cum))
    hi = cum[-1] if s1 is None else float(np.interp(s1, s, cum))
    return hi - lo


def _poly_of(q):
    return q.polynomial if isinstance(q, QuadDiff) else q


def _tps_of(q) -> list:
    if isinstance(q, QuadDiff):
        return turning_points(q)
    if q.degree < 1:
        return []
    from .polynomials import roots as _proots

    return [r for r, _ in _proots(q, 1e-12)]


def liouville_g(q, z: complex) -> complex:
    """The Liouville-transform perturbation -(5/16) Q'^2/Q^3 + Q''/(4 Q^2)."""
    z = complex(z)
    p = _poly_of(q)
    qz = p(z)
    if abs(qz) < 1e-12 * max(1.0, p.scaled_magnitude(z)):
        raise DomainError("liouville_g is singular at a turning point")
    dq = p.derivative()(z)
    ddq = p.derivative(2)(z)
    return -(5.0 / 16.0) * dq * dq / qz**3 + ddq / (4.0 * qz * qz)


def h0_bound(q, curves, s: float, tol: float = 1e-9) -> tuple:
    """Numerical sup over the curve family of int |g| |d zeta|.

    Each curve must be s-admissible; the returned pair is (value, estimated
    quadrature error).
    """
    poly = _poly_of(q)
    worst = 0.0
    err = 0.0
    for curve in curves:
        res = is_admissible(curve, q, s)
        if not res:
            raise DomainError(f"curve violates {res.first_violation}")
        pts = [complex(z) for z in curve]

        def integrand(z):
            return abs(liouville_g(poly, z)) * math.sqrt(abs(poly(z)))

        total = 0.0
        total_err = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            # GL-16 with one refinement level as the error estimate
            def gl(x, y):
                mid = 0.5 * (x + y)
                half = 0.5 * (y - x)
                nodes = mid + half * _GL_NODES
                return abs(half) * float(np.sum(_GL_WEIGHTS * [integrand(complex(t)) for t in nodes]))

            coarse = gl(a, b)
            m = 0.5 * (a + b)
            fine = gl(a, m) + gl(m, b)
            total += fine
            total_err += abs(fine - coarse)
        if total > worst:
            worst, err = total, total_err
    return worst, err


@dataclass(frozen=True)
class WKBParameters:
    """Phase scale h, error constant h0, admissibility margin s."""

    h: float
    h0: float
    s: float

    def certificate(self) -> float:
        """The bound h0/(h - h0) on the relative error of the approximant."""
        if self.h <= self.h0:
            raise CertificateError(
                f"certificate unavailable: h={self.h} not above h0={self.h0}"
            )
        return self.h0 / (self.h - self.h0)


@dataclass(frozen=True)
class WKBValue:
    """A WKB approximant value in log form with its error certificate."""

    log_modulus: float
    phase: float
    certificate: float

    @property
    def value(self) -> complex:
        return cmath.exp(complex(self.log_modulus, self.phase))


def wkb_approximant(q, params: WKBParameters, curve, z: complex) -> WKBValue:
    """The solution form Q^{-1/4} exp(h Phi) at a point of an admissible curve.

    Phi is the branch of the phase integral that decreases along the curve
    (mapping the enclosing decay region to a left half-plane), normalized
    to 0 at the first curve vertex; the returned certificate bounds
    |epsilon| in the representation  y = Q^{-1/4} e^{h Phi} (1 + epsilon).

    ``q`` may be a QuadDiff or a bare polynomial coefficient field; the
    phase branch is continued along the curve itself.
    """
    bound = params.certificate()
    res = is_admissible(curve, q, params.s)
    if not res:
        raise DomainError(f"curve violates admissibility: {res.first_violation}")
    poly = _poly_of(q)
    tps = _tps_of(q)
    pts = [complex(p) for p in curve]

    w0 = cmath.sqrt(poly(pts[0]))
    direction = (pts[1] - pts[0]) / abs(pts[1] - pts[0])
    if (w0 * direction).real > 0:
        w0 = -w0
    zetas = [0j]
    ws = [w0]
    w = w0
    acc = 0j
    for a, b in zip(pts[:-1], pts[1:]):
        part, w = _integrate_segment(poly, a, b, w, 1e-11, tps)
        acc += part
        zetas.append(acc)
        ws.append(w)
    if zetas[-1].real > zetas[0].real:
        raise DomainError("curve does not run into the decay region")

    z = complex(z)
    k = min(range(len(pts)), key=lambda i: abs(pts[i] - z))
    chain = list(ws[1 : k + 1])
    if abs(pts[k] - z) > 1e-9 * max(1.0, abs(z)):
        part, w_here = _integrate_segment(poly, pts[k], z, ws[k], 1e-11, tps)
        zeta = zetas[k] + part
        chain.append(w_here)
    else:
        zeta = zetas[k]

    # Q^{1/4} continued along the curve: sqrt of the tracked branch
    q4 = cmath.sqrt(ws[0])
    for wv in chain:
        cand = cmath.sqrt(wv)
        if abs(cand - q4) > abs(cand + q4):
            cand = -cand
        q4 = cand

    log_mod = params.h * zeta.real - math.log(abs(q4))
    ph = params.h * zeta.imag - cmath.phase(q4)
    return WKBValue(log_modulus=log_mod, phase=wrap_angle(ph), certificate=bound)


def successive_epsilon(q, params: WKBParameters, curve, tol: float = 1e-12, max_iter: int = 50):
    """Tighten the approximant error empirically by iterating the fixed
    point W -> 1 + F(W) of the Liouville-transformed integral equation.

    Returns (per-vertex epsilon = W - 1, iterations used).  Convergence is
    geometric once h exceeds the h0 of the curve family.
    """
    params.certificate()  # validates h > h0
    poly = _poly_of(q)
    tps = _tps_of(q)
    pts = [complex(p) for p in curve]
    res = is_admissible(curve, q, params.s)
    if not res:
        raise DomainError(f"curve violates admissibility: {res.first_violation}")

    # phase parameters along the curve, decay branch (Re zeta decreasing)
    w0 = cmath.sqrt(poly(pts[0]))
    direction = (pts[1] - pts[0]) / abs(pts[1] - pts[0])
    if (w0 * direction).real > 0:
        w0 = -w0
    zetas = [0j]
    w = w0
    for a, b in zip(pts[:-1], pts[1:]):
        part, w = _integrate_segment(poly, a, b, w, 1e-11, tps)
        zetas.append(zetas[-1] + part)
    gs = [liouville_g(poly, z) for z in pts]
    # the equation integrates from the decaying end (Re zeta -> -inf)
    order = sorted(range(len(pts)), key=lambda i: zetas[i].real)
    h = params.h

    big_w = [1.0 + 0j] * len(pts)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_w = [1.0 + 0j] * len(pts)
        # cumulative trapezoid along increasing Re zeta
        for pos in range(1, len(order)):
            target = zetas[order[pos]]
            acc = 0j
            for a_i, b_i in zip(order[:pos], order[1:pos + 1]):
                za, zb = zetas[a_i], zetas[b_i]
                fa = (1.0 - cmath.exp(2 * h * (za - target))) * gs[a_i] * big_w[a_i]
                fb = (1.0 - cmath.exp(2 * h * (zb - target))) * gs[b_i] * big_w[b_i]
                acc += 0.5 * (fa + fb) * (zb - za)
            new_w[order[pos]] = 1.0 + acc / (2.0 * h)
        inc = max(abs(a - b) for a, b in zip(new_w, big_w))
        big_w = new_w
        if inc <= tol:
            break
    return [wv - 1.0 for wv in big_w], iterations


def growth_bound(y0: complex, y1: complex, h: float, M: float, R: float) -> float:
    """Gronwall envelope max(|y0|, |y1|) exp(h M R) for |y| on |z| <= R."""
    if h < 0 or M < 0 or R < 0:
        raise DomainError("growth bound needs nonnegative h, M, R")
    return max(abs(y0), abs(y1)) * math.exp(h * M * R)
