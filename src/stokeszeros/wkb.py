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

import numpy as np

from .errors import CertificateError, DomainError, QuadratureError
from .geometry import SegmentSet, nearest_sign, polyline_cumlen, wrap_angle
from .polynomials import ComplexPolynomial
from .quaddiff import QuadDiff, check_family, min_separation
from .stokescomplex import StokesComplex, _tps_of, is_admissible

__all__ = [
    "growth_constant",
    "eigenvalue_estimate",
    "PhaseIntegral",
    "arc_mass_profile",
    "liouville_g",
    "h0_bound",
    "seed_error_bound",
    "WKBParameters",
    "WKBValue",
    "wkb_approximant",
]


def growth_constant(d: int, ell: int) -> float:
    """The constant sqrt(pi) Gamma(3/2 + 1/d) / (sin(ell pi/d) Gamma(1 + 1/d)).

    Relates the eigenvalue index to the phase scale; symmetric under
    ell -> d - ell.
    """
    check_family(d, ell)
    return (
        math.sqrt(math.pi)
        * math.gamma(1.5 + 1.0 / d)
        / (math.sin(ell * math.pi / d) * math.gamma(1.0 + 1.0 / d))
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


# ---------------------------------------------------------------------------
# quadrature along routed paths


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_QUAD_TOL = 1e-11  # panel-refinement tolerance of every phase quadrature


def horner_parts(p, x, y) -> tuple:
    """Real and imaginary parts of the polynomial p at the points x + iy.

    The Horner pass is spelled out in float64 real arithmetic, exactly as
    Python multiplies and adds complex scalars; numpy's own complex
    multiply rounds differently, and the envelope and the hop estimates must
    match the scalar evaluation ``p(z)`` bit for bit.
    """
    re, im = np.zeros_like(x), np.zeros_like(y)
    for c in reversed(p.coefficients):
        re, im = re * x - im * y + c.real, re * y + im * x + c.imag
    return re, im


def _sqrt_q(p: ComplexPolynomial, z: np.ndarray) -> np.ndarray:
    """sqrt(p) at an array of points, principal branch, as one array."""
    qz = np.empty(z.shape, dtype=complex)
    qz.real, qz.imag = horner_parts(p, z.real, z.imag)
    return np.sqrt(qz)


def _panel_roots(p: ComplexPolynomial, panels) -> np.ndarray:
    """sqrt(p) at the 16 GL nodes of each panel (a, b), one row per panel."""
    mid = np.array([0.5 * (a + b) for a, b in panels], dtype=complex)
    half = np.array([0.5 * (b - a) for a, b in panels], dtype=complex)
    return _sqrt_q(p, mid[:, None] + half[:, None] * _GL_NODES)


def _continued(roots: np.ndarray, w_ref: complex) -> list:
    """The roots, each sign chosen nearest the one before, starting at w_ref."""
    vals = roots.tolist()
    ref = w_ref
    for i, w in enumerate(vals):
        vals[i] = ref = nearest_sign(w, ref)
    return vals


def _pieces(panels, roots, w_ref: complex, end_root: complex):
    """GL-16 integral over consecutive panels, each continued from w_ref.

    Returns the summed integral and the branch at the last panel's end,
    continued from that panel's last node.
    """
    vals = [_continued(r, w_ref) for r in roots[:-1]]
    vals.append(_continued(np.append(roots[-1], end_root), w_ref))
    w_end = vals[-1].pop()
    parts = [
        0.5 * (b - a) * np.sum(_GL_WEIGHTS * np.array(v, dtype=complex))
        for (a, b), v in zip(panels, vals)
    ]
    return sum(parts[1:], parts[0]), w_end


def _integrate_segment(p: ComplexPolynomial, a: complex, b: complex, w_ref: complex, tol: float, tps):
    """Adaptive branch-continued integral of sqrt(p) along [a, b].

    Each panel is integrated whole and as two halves; p at the nodes of
    every panel and half is evaluated as one array up front, and only the
    branch continuation runs node by node, into every half from the
    branch at the panel's start.
    """
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
    trios = [[(x, y), (x, 0.5 * (x + y)), (0.5 * (x + y), y)] for x, y in out]
    roots = _panel_roots(p, [pan for trio in trios for pan in trio]).reshape(len(out), 3, -1)
    ends = _sqrt_q(p, np.array([y for _, y in out], dtype=complex))
    for (whole, left, right), r, end in zip(trios, roots, ends):
        coarse, _ = _pieces([whole], r[:1], w, end)
        fine, w_end = _pieces([left, right], r[1:], w, end)
        if abs(fine - coarse) > tol * (1.0 + abs(fine)):
            # one more halving level is always enough at GL-16 for the
            # square-root singularities kept at panel-length distance
            (x, m), (_, y) = left, right
            quarters = [(x, 0.5 * (x + m)), (0.5 * (x + m), m), (m, 0.5 * (m + y)), (0.5 * (m + y), y)]
            fine, w_end = _pieces(quarters, _panel_roots(p, quarters), w, end)
        total += fine
        w = w_end
    return total, w


_SERIES_TERMS = 40  # the near disc reaches a quarter of the radius of convergence


def _local_phase(p: ComplexPolynomial, t: complex, x: np.ndarray) -> tuple:
    """F(t + x) = int_t^{t+x} sqrt(p) and F'(t + x), near a simple zero t.

    With p(t + x) = q1 x (1 + a(x)), sqrt(p) = sqrt(q1) x^{1/2} g(x) for
    g = sqrt(1 + a) from the power-series square-root recurrence, and
    F = sqrt(q1) x^{3/2} sum_k g_k x^k / (k + 3/2).  The series converges
    out to the next zero of p; x^{1/2} is principal, so F and F' both
    change sign across the cut t + (-inf, 0].
    """
    q = p.taylor_coefficients(t)
    a = [c / q[1] for c in q[2:]]
    g = [1 + 0j]
    for n in range(1, _SERIES_TERMS):
        an = a[n - 1] if n <= len(a) else 0j
        g.append(0.5 * (an - sum(g[k] * g[n - k] for k in range(1, n))))
    c = [gk / (k + 1.5) for k, gk in enumerate(g)]
    root = cmath.sqrt(q[1]) * np.sqrt(x)
    return root * x * np.polyval(c[::-1], x), root * np.polyval(g[::-1], x)


class PhaseIntegral:
    """Branch-tracked zeta(z) = int_0^z sqrt(Q) and its envelope u = Re zeta.

    Construction fixes the branch sign at the basepoint 0 so that u is
    negative far out along the omega+ boundary ray.  Evaluation routes a
    polygonal path from 0 to z that keeps clear of turning points and never
    crosses the exceptional set.
    """

    def __init__(self, sc: StokesComplex):
        self.sc = sc
        self.q = sc.quaddiff
        self.tps = sc.turning_points
        self.scale = max(1.0, max(abs(v) for v in self.tps))
        self.minsep = min_separation(self.tps)
        self._exc = SegmentSet.from_polylines(sc.exceptional_arcs())
        self._build_waypoints()
        # the basepoint 0 may sit on the cut (the short exceptional line of a
        # self-adjoint family passes through it); anchor all routes at a point
        # nudged into the cut complement so the branch side is unambiguous
        delta = 1e-6 * self.scale
        self._base = 1j * delta if sc.distance_to_exceptional(0j) < 10 * delta else 0j
        # every route leaves from the anchor, so its clear edges are fixed
        fan = self._edges_ok(self._base, self._waypoints)
        self._base_fan = [
            (i, abs(self._base - p)) for i, p in enumerate(self._waypoints) if fan[i]
        ]
        # basepoint branch: u must decay along the omega+ boundary ray
        self._sigma = 1.0
        theta_plus = sc.boundary_rays[1]
        probe = 2.2 * self.scale * cmath.exp(1j * theta_plus)
        if self._zeta_w(probe)[0].real > 0:
            self._sigma = -1.0

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
        self._adj = [[] for _ in pts]
        # every pair (i, j), i < j, in one test, filled in row-major order
        iu, ju = np.triu_indices(len(pts), 1)
        arr = np.array(pts, dtype=complex)
        ok = self._edges_ok(arr[iu], arr[ju])
        for i, j in zip(iu[ok].tolist(), ju[ok].tolist()):
            d = abs(pts[i] - pts[j])
            self._adj[i].append((j, d))
            self._adj[j].append((i, d))

    def _edges_ok(self, a, b, end_at_tp: bool = False) -> np.ndarray:
        """Whether each edge a_k -> b_k is clear for quadrature.

        An edge is clear when it keeps ``_clearance`` away from every
        turning point and, shrunk by 1e-7 of its length at both ends,
        crosses no exceptional segment.  ``a`` and ``b`` broadcast against
        each other.  The arithmetic is Python's complex arithmetic spelled
        out in float64, so every answer equals a scalar test of that edge.
        """
        a, b = np.broadcast_arrays(
            np.atleast_1d(np.asarray(a, dtype=complex)), np.asarray(b, dtype=complex)
        )
        ax, ay, bx, by = a.real, a.imag, b.real, b.imag
        ux, uy = bx - ax, by - ay
        sx, sy = 1e-7 * ux - 0.0 * uy, 1e-7 * uy + 0.0 * ux
        aax, aay = ax + sx, ay + sy
        bbx, bby = bx - sx, by - sy
        cx, cy = bbx, bby
        if end_at_tp:
            # a query point may sit on (or be) a turning point: clear the last
            # stretch of the approach from the distance test, the quadrature
            # handles the integrable endpoint singularity itself
            r = np.hypot(ux, uy)
            live = r > 0
            rr = np.where(live, r, 1.0)
            nx, ny = (ux + uy * 0.0) / rr, (uy - ux * 0.0) / rr
            m = np.where(0.8 * r < self._clearance, 0.8 * r, self._clearance)
            cx = np.where(live, bx - (m * nx - 0.0 * ny), bbx)
            cy = np.where(live, by - (m * ny + 0.0 * nx), bby)
        gx, gy = cx - aax, cy - aay
        denom = gx * gx - gy * -gy
        flat = denom == 0
        denom = np.where(flat, 1.0, denom)
        ok = np.ones(ax.shape, dtype=bool)
        for v in self.tps:
            vx, vy = v.real, v.imag
            t = ((vx - aax) * gx - (vy - aay) * -gy) / denom
            t = np.where(0.0 > t, 0.0, t)
            t = np.where(1.0 < t, 1.0, t)
            fx = aax + (t * gx - 0.0 * gy) - vx
            fy = aay + (t * gy + 0.0 * gx) - vy
            dist = np.where(flat, np.hypot(aax - vx, aay - vy), np.hypot(fx, fy))
            ok &= ~(dist < self._clearance)
        ok[ok] = ~self._exc.crosses(aax[ok], aay[ok], bbx[ok], bby[ok])
        return ok

    def _route(self, end: complex) -> list:
        """Shortest clear waypoint path from the anchor ``_base`` to ``end``."""
        start = self._base
        end_at_tp = min(abs(end - v) for v in self.tps) < self._clearance
        if self._edges_ok(start, end, end_at_tp)[0]:
            return [start, end]
        pts = self._waypoints
        n = len(pts)
        S, T = n, n + 1
        adj = {i: list(self._adj[i]) for i in range(n)}
        adj[S] = self._base_fan
        adj[T] = []
        for i in np.flatnonzero(self._edges_ok(pts, end, end_at_tp)).tolist():
            adj[i].append((T, abs(pts[i] - end)))
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
        route = self._route(complex(z))
        path = [0j]
        for p in route if self._base != 0 else route[1:]:
            if len(path) > 1 and p == path[-2]:
                path.pop()
            else:
                path.append(p)
        w = self._sigma * cmath.sqrt(self.q(0j))
        total = 0j
        for a, b in zip(path[:-1], path[1:]):
            part, w = _integrate_segment(self.q.polynomial, a, b, w, _QUAD_TOL, self.tps)
            total += part
        return total, w

    def u(self, z: complex) -> float:
        """The envelope u(z); path independent, u(0) = 0, continuous on E."""
        return float(self._zeta_w(complex(z))[0].real)

    def _near_values(self, zs: np.ndarray) -> tuple:
        """u and the branch w = zeta' at the nodes near a turning point.

        A node is near when it lies within 0.25 minsep of a turning point
        t.  There zeta = zeta(t) + s F with F the local series of
        :func:`_local_phase`.  One node per turning point, the near node
        farthest from t, is routed; it fixes Re zeta(t) and s there.  Every
        other near node flips s once per crossing of the chord from that
        node, inside the disc, with the exceptional set (where the routed
        branch changes sign) and with the series' cut.  Returns the mask
        of near nodes and u and w arrays filled under it.
        """
        dist = np.abs(zs[..., None] - np.array(self.tps))
        owner = dist.argmin(axis=-1)
        radius = 0.25 * self.minsep
        near = dist.min(axis=-1) < radius
        u = np.zeros(zs.shape)
        w = np.zeros(zs.shape, dtype=complex)
        for k, t in enumerate(self.tps):
            idx = np.flatnonzero(near & (owner == k))
            if not idx.size:
                continue
            z = zs.flat[idx]
            F, dF = _local_phase(self.q.polynomial, t, z - t)
            # away from t, where F' = 0 would leave the sign undecided
            r = int(np.argmax(np.abs(z - t)))
            zeta_r, w_r = self._zeta_w(complex(z[r]))
            s_r = 1.0 if abs(w_r - dF[r]) <= abs(w_r + dF[r]) else -1.0
            chords = (np.full(z.shape, z[r].real), np.full(z.shape, z[r].imag), z.real, z.imag)
            cut = SegmentSet.from_polylines([[t, t - 2 * radius]])
            flips = [len(e) + len(c) for e, c in zip(self._exc.fractions(*chords), cut.fractions(*chords))]
            s = np.where(np.array(flips) % 2, -s_r, s_r)
            u.flat[idx] = zeta_r.real - s_r * F[r].real + s * F.real
            w.flat[idx] = s * dF
        return near, u, w

    def u_grid(self, corner: complex, nx: int, ny: int, dx: float, dy: float):
        """March u over a rectangular grid, one row at a time.

        The bottom row is marched left to right and every later row steps
        up from the row below it.  Each step is a trapezoid rule whose
        branch sign flips where the step crosses the exceptional set, so the
        grid reproduces the creases of u; accuracy is grid-limited.  The
        crossings of a whole row of steps are found in one call.  Nodes
        within 0.25 minsep of a turning point are not marched: they take the
        turning point's local series, with one routed node per turning point
        (:meth:`_near_values`), and the march continues from their branch; a
        step from a node on a turning point itself, where w = 0, routes its
        end instead.  The grid is jittered off axis-aligned positions so
        that no node lands exactly on an exceptional line, which would defeat
        the crossing-parity bookkeeping; the returned coordinates include the
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
        near, u, wgrid = self._near_values(zs)
        if not near[0, 0]:
            zeta0, wgrid[0, 0] = self._zeta_w(complex(zs[0, 0]))
            u[0, 0] = zeta0.real

        def advance(z_from, z_to, u_from, w_from, ts):
            if w_from == 0:
                # from a turning point, w = 0 names no branch and a trapezoid
                # over the x^{1/2} singularity is a quarter off: route the end
                zeta, w = self._zeta_w(z_to)
                return zeta.real, w
            delta = z_to - z_from
            # integrate piecewise, flipping the branch sign at every crease
            breaks = [0.0] + ts + [1.0]
            sign = 1.0
            du = 0.0
            w_prev = w_from
            for t0, t1 in zip(breaks[:-1], breaks[1:]):
                z1 = z_from + t1 * delta
                w_new = nearest_sign(cmath.sqrt(self.q(z1)), w_prev)
                du += (sign * 0.5 * (w_prev + w_new) * (t1 - t0) * delta).real
                w_prev = w_new
                if t1 < 1.0:
                    sign = -sign
            return u_from + du, sign * w_prev

        def march(iy, ixs, jy, jxs):
            # the steps (jy, jx) -> (iy, ix), taken in order; trapezoid
            # marching is unreliable next to a turning point
            keep = ~near[iy, ixs]
            ixs, jxs = ixs[keep], jxs[keep]
            a, b = zs[jy, jxs], zs[iy, ixs]
            crossings = self._exc.fractions(a.real, a.imag, b.real, b.imag)
            for ix, jx, ts in zip(ixs.tolist(), jxs.tolist(), crossings):
                u[iy, ix], wgrid[iy, ix] = advance(
                    complex(zs[jy, jx]), complex(zs[iy, ix]), u[jy, jx], wgrid[jy, jx], ts
                )

        march(0, np.arange(1, nx), 0, np.arange(nx - 1))
        for iy in range(1, ny):
            march(iy, np.arange(nx), iy - 1, np.arange(nx))
        return zs, u


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


def liouville_g(p: ComplexPolynomial, z: complex) -> complex:
    """The Liouville-transform perturbation -(5/16) Q'^2/Q^3 + Q''/(4 Q^2)."""
    z = complex(z)
    qz = p(z)
    if abs(qz) < 1e-12 * max(1.0, p.scaled_magnitude(z)):
        raise DomainError("liouville_g is singular at a turning point")
    dp = p.derivative()
    return _liouville_g(qz, dp(z), dp.derivative()(z))


def _liouville_g(q, dq, ddq):
    """g from Q, Q' and Q'' at the same points, scalars or arrays."""
    return -(5.0 / 16.0) * dq * dq / q**3 + ddq / (4.0 * q * q)


def h0_bound(p: ComplexPolynomial, curve, s: float) -> tuple:
    """Numerical value of int |g| |d zeta| along one curve.

    The curve must be s-admissible; the returned pair is (value, estimated
    quadrature error).
    """
    res = is_admissible(curve, p, s)
    if not res:
        raise DomainError(f"curve violates {res.first_violation}")
    pts = [complex(z) for z in curve]

    def integrand(z):
        return abs(liouville_g(p, z)) * math.sqrt(abs(p(z)))

    def gl(x, y):
        mid = 0.5 * (x + y)
        half = 0.5 * (y - x)
        nodes = mid + half * _GL_NODES
        return abs(half) * float(np.sum(_GL_WEIGHTS * [integrand(complex(t)) for t in nodes]))

    total = 0.0
    total_err = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        # GL-16 with one refinement level as the error estimate
        coarse = gl(a, b)
        m = 0.5 * (a + b)
        fine = gl(a, m) + gl(m, b)
        total += fine
        total_err += abs(fine - coarse)
    return total, total_err


_V_PANELS = 8  # [R, 2R], [2R, 4R], ..., then [2^8 R, infinity)


def seed_error_bound(p: ComplexPolynomial, path) -> float:
    """V(R) e^{-2 Phi(R)}: how far a WKB seed at path[0] moves the path's end.

    The recessive solution of y'' = p y along the ray through path[0] =
    R e^{i theta} is seeded there with its WKB form, which errs by about
    Olver's error-control variation V(R) = int_R^inf |g| |sqrt p| |dz| along
    the ray (g as in :func:`liouville_g`).  Transported along ``path``, the
    part of that error along the dominant solution decays by e^{-2 Phi},
    Phi = Re int sqrt(p) dz from the path's end out to path[0] on the branch
    that decays outward; the part along the recessive solution only
    rescales the solution.  V is GL-16 on geometric panels in 1/t, Phi
    GL-16 on every path segment, with the branch of sqrt(p) continued node
    to node by a cumulative sign flip.
    """
    z0 = complex(path[0])
    ray = z0 / abs(z0)
    edges = 0.5 ** np.arange(_V_PANELS + 1) / abs(z0)
    lo = np.append(edges[1:], 0.0)
    s = 0.5 * (edges + lo)[:, None] + 0.5 * (edges - lo)[:, None] * _GL_NODES
    dp = p.derivative()
    z = ray / s
    q = p(z)
    g = _liouville_g(q, dp(z), dp.derivative()(z))
    variation = np.sum(0.5 * (edges - lo)[:, None] * _GL_WEIGHTS * np.abs(g) * np.sqrt(np.abs(q)) / s**2)
    pts = np.asarray(path, dtype=complex)
    half = 0.5 * (pts[1:] - pts[:-1])[:, None]
    w = _sqrt_q(p, (0.5 * (pts[1:] + pts[:-1])[:, None] + half * _GL_NODES).ravel())
    w[1:] *= np.where(np.cumsum((w[1:] * w[:-1].conj()).real < 0) % 2, -1.0, 1.0)
    if (w[0] * ray).real < 0:
        w = -w
    phi = -np.sum(half * _GL_WEIGHTS * w.reshape(half.shape[0], -1)).real
    # a path along which the solution grows outward gets a huge bound, not an overflow
    return float(variation * math.exp(min(-2.0 * phi, 700.0)))


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


def wkb_approximant(p: ComplexPolynomial, params: WKBParameters, curve, zs) -> list:
    """The solution form Q^{-1/4} exp(h Phi) at points of an admissible curve.

    Phi is the branch of the phase integral that decreases along the curve
    (mapping the enclosing decay region to a left half-plane), normalized
    to 0 at the first curve vertex; each returned :class:`WKBValue`, one per
    point of ``zs`` in order, carries the certificate bounding |epsilon| in
    the representation  y = Q^{-1/4} e^{h Phi} (1 + epsilon), Q the
    coefficient field p.  The phase branch is continued along the curve
    itself, which is checked and integrated once for all the points.
    """
    bound = params.certificate()
    res = is_admissible(curve, p, params.s)
    if not res:
        raise DomainError(f"curve violates admissibility: {res.first_violation}")
    tps = _tps_of(p)
    pts = [complex(v) for v in curve]
    # zeta runs from the first vertex on the branch of sqrt(Q) whose real
    # part decreases along the first segment, continued vertex to vertex
    w = cmath.sqrt(p(pts[0]))
    direction = (pts[1] - pts[0]) / abs(pts[1] - pts[0])
    if (w * direction).real > 0:
        w = -w
    zetas = [0j]
    ws = [w]
    for a, b in zip(pts[:-1], pts[1:]):
        part, w = _integrate_segment(p, a, b, w, _QUAD_TOL, tps)
        zetas.append(zetas[-1] + part)
        ws.append(w)
    if zetas[-1].real > zetas[0].real:
        raise DomainError("curve does not run into the decay region")

    out = []
    for z in zs:
        z = complex(z)
        k = min(range(len(pts)), key=lambda i: abs(pts[i] - z))
        chain = list(ws[1 : k + 1])
        if abs(pts[k] - z) > 1e-9 * max(1.0, abs(z)):
            part, w_here = _integrate_segment(p, pts[k], z, ws[k], _QUAD_TOL, tps)
            zeta = zetas[k] + part
            chain.append(w_here)
        else:
            zeta = zetas[k]

        # Q^{1/4} continued along the curve: sqrt of the tracked branch
        q4 = cmath.sqrt(ws[0])
        for wv in chain:
            q4 = nearest_sign(cmath.sqrt(wv), q4)

        log_mod = params.h * zeta.real - math.log(abs(q4))
        ph = params.h * zeta.imag - cmath.phase(q4)
        out.append(WKBValue(log_modulus=log_mod, phase=wrap_angle(ph), certificate=bound))
    return out
