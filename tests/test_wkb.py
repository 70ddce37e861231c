import cmath
import heapq
import math
import tracemalloc

import numpy as np
import pytest

from stokeszeros.errors import CertificateError, DomainError
from stokeszeros.polynomials import ComplexPolynomial
from stokeszeros.quaddiff import build_quad_diff
from stokeszeros.stokescomplex import stokes_complex
from stokeszeros.wkb import (
    _QUAD_TOL,
    PhaseIntegral,
    WKBParameters,
    arc_mass_profile,
    eigenvalue_estimate,
    growth_constant,
    h0_bound,
    horner_parts,
    liouville_g,
    seed_error_bound,
    wkb_approximant,
)

U2_CLOSED_FORM = -(math.sqrt(3.0) - 0.5 * math.log(2.0 + math.sqrt(3.0)))


@pytest.fixture(scope="module")
def sc21():
    return stokes_complex(2, 1)


@pytest.fixture(scope="module")
def phase21(sc21):
    return PhaseIntegral(sc21)


@pytest.fixture(scope="module")
def sc42():
    return stokes_complex(4, 2)


def test_growth_constant_harmonic():
    # sqrt(pi) Gamma(2) / Gamma(3/2) = 2
    assert abs(growth_constant(2, 1) - 2.0) < 1e-12


def test_growth_constant_quartic():
    assert abs(growth_constant(4, 2) - 1.7972103) < 1e-6


def test_growth_constant_symmetry():
    for d, ell in [(4, 1), (6, 1), (6, 2), (5, 2)]:
        assert abs(growth_constant(d, ell) - growth_constant(d, d - ell)) < 1e-12


def test_eigenvalue_estimate_harmonic_linear():
    # exponent 2d/(d+2) = 1 for d = 2
    for n in (3, 10, 25):
        assert abs(eigenvalue_estimate(2, 1, n) - 2 * n) < 1e-10


def test_eigenvalue_estimate_quartic_value():
    assert abs(eigenvalue_estimate(4, 2, 10) - 47.08) < 0.01


def test_u_basepoint_and_segment(phase21):
    assert phase21.u(0.0) == 0.0
    for x in (-0.9, -0.3, 0.4, 0.99):
        assert abs(phase21.u(x)) < 1e-9


def test_u_closed_form_at_two(phase21):
    assert abs(phase21.u(2.0) - U2_CLOSED_FORM) < 1e-9
    assert abs(phase21.u(-2.0) - U2_CLOSED_FORM) < 1e-9


def test_u_mirror_symmetry(phase21):
    for z in (1.4 + 0.7j, 0.2 + 1.9j, 2.5 - 0.4j):
        assert abs(phase21.u(z) - phase21.u(-z.conjugate())) < 1e-8


def test_u_decays_on_boundary_rays(phase21):
    # u decreases toward -infinity along both boundary anti-Stokes rays
    assert phase21.u(1.5) < 0 > phase21.u(-1.5)
    assert phase21.u(3.0) < phase21.u(2.0) < phase21.u(1.2) < 0


def test_u_imaginary_axis_oracle(phase21):
    # closed form int_0^y sqrt(1+s^2) ds
    y = 2.0
    expected = 0.5 * (y * math.sqrt(1 + y * y) + math.asinh(y))
    assert abs(phase21.u(2j) - expected) < 1e-9


def test_u_continuous_across_exceptional_ray(sc42):
    pi42 = PhaseIntegral(sc42)
    for y in (1.3, 1.8, 2.6):
        left = pi42.u(-1e-9 + y * 1j)
        right = pi42.u(1e-9 + y * 1j)
        assert abs(left - right) <= 1e-7


def test_u_constant_along_crease(sc42):
    pi42 = PhaseIntegral(sc42)
    base = pi42.u(1j)
    s = np.linspace(0, 1, 20001)
    oracle = np.trapezoid(np.sqrt(1 - s**4), s)
    assert abs(base - oracle) < 1e-6
    for y in (1.4, 2.2, 3.5):
        assert abs(pi42.u(1e-9 + y * 1j) - base) < 1e-7


def test_u_subharmonic_mean_inequality(phase21):
    rng = np.random.default_rng(5)
    for _ in range(4):
        zc = complex(rng.uniform(-1.3, 1.3), rng.uniform(-0.5, 0.5))
        r = 0.15
        avg = np.mean(
            [phase21.u(zc + r * cmath.exp(2j * math.pi * k / 48)) for k in range(48)]
        )
        assert phase21.u(zc) <= avg + 1e-7


def test_e0_unit_mass_self_adjoint(sc21, sc42):
    # total limit mass of the short line is one zero per unit index
    for sc in (sc21, sc42):
        e0 = sc.lines[sc.e0_index].samples
        assert abs(arc_mass_profile(sc.quaddiff, e0)[1][-1] - 1.0) < 2e-3


def test_e0_mass_beta_identity():
    # int_-1^1 sqrt(1-x^4) dx = (2/4) B(3/2, 1/4), semicircle analogue
    x = np.linspace(-1, 1, 200001)
    direct = np.trapezoid(np.sqrt(np.clip(1 - x**4, 0, None)), x)
    assert abs(direct - 0.5 * math.gamma(1.5) * math.gamma(0.25) / math.gamma(1.75)) < 1e-6


def test_liouville_g_constant_is_zero():
    assert liouville_g(ComplexPolynomial([4.0]), 1.3) == 0


def test_liouville_g_value_and_finite_difference_oracle():
    q = build_quad_diff(2, 1)
    got = liouville_g(q.polynomial, 2.0)
    assert abs(got - (-7.0 / 54.0)) < 1e-12
    # finite-difference oracle for Q' and Q''
    h = 1e-5
    f = q.polynomial
    d1 = (f(2 + h) - f(2 - h)) / (2 * h)
    d2 = (f(2 + h) - 2 * f(2.0) + f(2 - h)) / (h * h)
    oracle = -(5.0 / 16.0) * d1 * d1 / f(2.0) ** 3 + d2 / (4 * f(2.0) ** 2)
    assert abs(got - oracle) < 1e-6


def test_liouville_g_pt_symmetry():
    q = build_quad_diff(3, 1).polynomial
    for z in (1.7 + 0.4j, 2.5 - 1.0j):
        assert abs(liouville_g(q, -z.conjugate()) - liouville_g(q, z).conjugate()) < 1e-12


def test_liouville_g_singular_at_turning_point():
    with pytest.raises(DomainError):
        liouville_g(build_quad_diff(2, 1).polynomial, 1.0)


@pytest.mark.parametrize("R", [1.5, 3.0, 6.0])
def test_seed_error_bound_harmonic_closed_form(R):
    # Q = z^2 - 1 along [R, 1, 0]: |g| |sqrt Q| = (3x^2/4 + 1/2)(x^2 - 1)^{-5/2}
    # integrates to V(R) = (R/2 - R^3/12)(R^2 - 1)^{-3/2} + 1/12, and
    # Re int_1^R sqrt(x^2 - 1) dx = (R sqrt(R^2 - 1) - acosh R)/2 is Phi(R);
    # the square-root zero at the turning point limits GL-16 to 1e-3
    variation = (R / 2 - R**3 / 12) / (R * R - 1) ** 1.5 + 1 / 12
    phi = (R * math.sqrt(R * R - 1) - math.acosh(R)) / 2
    got = seed_error_bound(ComplexPolynomial([-1.0, 0.0, 1.0]), [R, 1.0, 0.0])
    assert got == pytest.approx(variation * math.exp(-2.0 * phi), rel=1e-3)


def test_h0_constant_field_zero():
    h0, err = h0_bound(ComplexPolynomial([2.0]), [1.0, 5.0, 9.0], s=0.5)
    assert h0 == 0.0


def test_h0_tail_stability():
    q = build_quad_diff(2, 1).polynomial
    curve_a = [2.0 + 0.1 * k for k in range(481)]  # [2, 50]
    curve_b = [2.0 + 0.1 * k for k in range(981)]  # [2, 100]
    a, _ = h0_bound(q, curve_a, s=0.5)
    b, _ = h0_bound(q, curve_b, s=0.5)
    assert abs(b - a) / a < 0.01


def test_h0_quadratic_scaling():
    # replacing Q by 4Q: g scales by 1/4 per Q^2 in the denominator against
    # Q'^2/Q^3 etc; |d zeta| doubles, so the integrand halves pointwise
    q = build_quad_diff(2, 1).polynomial
    q4 = ComplexPolynomial([4 * c for c in q.coefficients])
    z = 2.3
    val = abs(liouville_g(q, z)) * math.sqrt(abs(q(z)))
    val4 = abs(liouville_g(q4, z)) * math.sqrt(abs(q4(z)))
    assert abs(val4 - 0.5 * val) < 1e-12


def test_wkb_approximant_exact_for_constant_field():
    params = WKBParameters(h=3.0, h0=0.0, s=0.3)
    curve = [0.0, -1.0, -2.0]
    # a vertex and a point inside a segment, through one call
    at_vertex, inside = wkb_approximant(ComplexPolynomial([1.0]), params, curve, [-1.0, -1.5])
    assert abs(at_vertex.value - math.exp(-3.0)) < 1e-12
    assert abs(inside.value - math.exp(-4.5)) < 1e-12
    assert at_vertex.certificate == inside.certificate == 0.0


def test_wkb_certificate_monotone_in_h():
    p20 = WKBParameters(h=20.0, h0=0.3, s=0.5)
    p40 = WKBParameters(h=40.0, h0=0.3, s=0.5)
    assert p40.certificate() <= p20.certificate()


def test_wkb_certificate_unavailable():
    with pytest.raises(CertificateError):
        WKBParameters(h=1.0, h0=2.0, s=0.5).certificate()


# -- bit identity with the scalar phase integral --------------------------------
# In-test copies of the scalar code that the array kernels replaced: one
# crossing test per exceptional arc, one edge test per edge, and one Q
# evaluation per quadrature node.  The envelope grid ranks every hop, so the
# kernels must reproduce it bit for bit, not just closely.


def _ref_orient(u, v, w):
    return (v.real - u.real) * (w.imag - u.imag) - (v.imag - u.imag) * (w.real - u.real)


def _ref_orientations(a, b, p, q):
    d1 = _ref_orient(p, q, a)
    d2 = _ref_orient(p, q, b)
    d3 = (b.real - a.real) * (p.imag - a.imag) - (b.imag - a.imag) * (p.real - a.real)
    d4 = (b.real - a.real) * (q.imag - a.imag) - (b.imag - a.imag) * (q.real - a.real)
    return d1, d2, (d1 * d2 < 0) & (d3 * d4 < 0)


def _ref_crossings_count(a, b, p, q):
    return int(np.count_nonzero(_ref_orientations(a, b, p, q)[2]))


def _ref_crossing_fractions(a, b, p, q):
    d1, d2, mask = _ref_orientations(a, b, p, q)
    if not np.any(mask):
        return []
    denom = d1[mask] - d2[mask]
    ts = d1[mask] / np.where(denom == 0, 1.0, denom)
    return sorted(float(t) for t in ts if 0.0 < t < 1.0)


def _ref_sqrt_continued(q, pts, w_ref):
    vals = np.empty(len(pts), dtype=complex)
    ref = w_ref
    for i, z in enumerate(pts):
        w = cmath.sqrt(q(complex(z)))
        if abs(w - ref) > abs(w + ref):
            w = -w
        vals[i] = w
        ref = w
    return vals


def _ref_panel_integral(q, a, b, w_ref):
    nodes, weights = np.polynomial.legendre.leggauss(16)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = _ref_sqrt_continued(q, mid + half * nodes, w_ref)
    integral = half * np.sum(weights * vals)
    w_end = cmath.sqrt(q(b))
    if abs(w_end - vals[-1]) > abs(w_end + vals[-1]):
        w_end = -w_end
    return integral, w_end


def _ref_integrate_segment(q, a, b, w_ref, tol, tps):
    if abs(b - a) == 0:
        return 0j, w_ref
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
        coarse, _ = _ref_panel_integral(q, x, y, w)
        m = 0.5 * (x + y)
        f1, _ = _ref_panel_integral(q, x, m, w)
        f2, w_end = _ref_panel_integral(q, m, y, w)
        fine = f1 + f2
        if abs(fine - coarse) > tol * (1.0 + abs(fine)):
            g1, _ = _ref_panel_integral(q, x, 0.5 * (x + m), w)
            g2, _ = _ref_panel_integral(q, 0.5 * (x + m), m, w)
            g3, _ = _ref_panel_integral(q, m, 0.5 * (m + y), w)
            g4, w_end = _ref_panel_integral(q, 0.5 * (m + y), y, w)
            fine = g1 + g2 + g3 + g4
        total += fine
        w = w_end
    return total, w


class _ScalarPhase:
    """The scalar routing, quadrature and grid march over a PhaseIntegral's
    turning points, waypoints, anchor and branch sign."""

    def __init__(self, phase):
        self.phase = phase
        self.refused_by_crossing = 0
        self.arcs = []
        for arc in phase.sc.exceptional_arcs():
            pts = np.asarray(arc, dtype=complex)
            self.arcs.append((pts[:-1], pts[1:]))
        pts = phase._waypoints
        self.adj = [[] for _ in pts]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if self.edge_ok(pts[i], pts[j]):
                    d = abs(pts[i] - pts[j])
                    self.adj[i].append((j, d))
                    self.adj[j].append((i, d))

    def edge_ok(self, a, b, shrink=1e-7, end_at_tp=False):
        clearance = self.phase._clearance
        u = b - a
        aa, bb = a + shrink * u, b - shrink * u
        cb = bb
        if end_at_tp and abs(u) > 0:
            cb = b - min(clearance, 0.8 * abs(u)) * (u / abs(u))
        seg = cb - aa
        denom = (seg * seg.conjugate()).real
        for v in self.phase.tps:
            if denom == 0:
                dist = abs(aa - v)
            else:
                t = ((v - aa) * seg.conjugate()).real / denom
                t = min(max(t, 0.0), 1.0)
                dist = abs(aa + t * seg - v)
            if dist < clearance:
                return False
        if any(_ref_crossings_count(aa, bb, p, q) for p, q in self.arcs):
            self.refused_by_crossing += 1
            return False
        return True

    def route(self, start, end):
        phase = self.phase
        end_at_tp = min(abs(end - v) for v in phase.tps) < phase._clearance
        if self.edge_ok(start, end, end_at_tp=end_at_tp):
            return [start, end]
        pts = phase._waypoints
        n = len(pts)
        S, T = n, n + 1
        adj = {i: list(self.adj[i]) for i in range(n)}
        adj[S], adj[T] = [], []
        for i, p in enumerate(pts):
            if self.edge_ok(start, p):
                adj[S].append((i, abs(start - p)))
            if self.edge_ok(p, end, end_at_tp=end_at_tp):
                adj[i].append((T, abs(p - end)))
        dist, prev, heap, seen = {S: 0.0}, {}, [(0.0, S)], set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in seen:
                continue
            seen.add(node)
            if node == T:
                break
            for nb, w in adj.get(node, []):
                if d + w < dist.get(nb, math.inf):
                    dist[nb] = d + w
                    prev[nb] = node
                    heapq.heappush(heap, (d + w, nb))
        chain = [T]
        while chain[-1] != S:
            chain.append(prev[chain[-1]])
        chain.reverse()
        return [start] + [pts[i] for i in chain[1:-1]] + [end]

    def zeta_w(self, z):
        phase = self.phase
        route = self.route(phase._base, complex(z))
        path = [0j]
        for p in route if phase._base != 0 else route[1:]:
            if len(path) > 1 and p == path[-2]:
                path.pop()
            else:
                path.append(p)
        w = phase._sigma * cmath.sqrt(phase.q(0j))
        total = 0j
        for a, b in zip(path[:-1], path[1:]):
            part, w = _ref_integrate_segment(phase.q, a, b, w, _QUAD_TOL, phase.tps)
            total += part
        return total, w

    def u_grid(self, corner, nx, ny, dx, dy):
        phase = self.phase
        corner = complex(corner) + (3.7e-4 * dx + 2.3e-4j * dy)
        zs = np.array(
            [[corner + ix * dx + 1j * iy * dy for ix in range(nx)] for iy in range(ny)],
            dtype=complex,
        )
        # the nodes next to a turning point come from the program's local
        # series; the march from them is checked here, the series separately
        near, u, wgrid = phase._near_values(zs)
        if not near[0, 0]:
            zeta0, wgrid[0, 0] = self.zeta_w(complex(zs[0, 0]))
            u[0, 0] = zeta0.real
        self.crossing_steps = 0
        self.near_nodes = int(near.sum())

        def advance(z_from, z_to, u_from, w_from):
            delta = z_to - z_from
            ts = []
            for p, qarr in self.arcs:
                ts.extend(_ref_crossing_fractions(z_from, z_to, p, qarr))
            ts = sorted(ts)
            self.crossing_steps += bool(ts)
            breaks = [0.0] + ts + [1.0]
            sign, du, w_prev = 1.0, 0.0, w_from
            for t0, t1 in zip(breaks[:-1], breaks[1:]):
                w_new = cmath.sqrt(phase.q(z_from + t1 * delta))
                if abs(w_new - w_prev) > abs(w_new + w_prev):
                    w_new = -w_new
                du += (sign * 0.5 * (w_prev + w_new) * (t1 - t0) * delta).real
                w_prev = w_new
                if t1 < 1.0:
                    sign = -sign
            return u_from + du, sign * w_prev

        def fill(iy, ix, z_from, u_from, w_from):
            if not near[iy, ix]:
                u[iy, ix], wgrid[iy, ix] = advance(z_from, complex(zs[iy, ix]), u_from, w_from)

        for ix in range(1, nx):
            fill(0, ix, complex(zs[0, ix - 1]), u[0, ix - 1], wgrid[0, ix - 1])
        for iy in range(1, ny):
            for ix in range(nx):
                fill(iy, ix, complex(zs[iy - 1, ix]), u[iy - 1, ix], wgrid[iy - 1, ix])
        return zs, u


@pytest.mark.parametrize("d, ell", [(2, 1), (4, 1), (6, 3)])
def test_u_grid_bits_match_scalar_march(d, ell):
    phase = PhaseIntegral(stokes_complex(d, ell))
    ref = _ScalarPhase(phase)
    assert repr(phase._adj) == repr(ref.adj)
    grid = (-1.4 - 1.4j, 15, 15, 0.2, 0.2)
    zs, u = phase.u_grid(*grid)
    zs_ref, u_ref = ref.u_grid(*grid)
    # the grid holds turning points and its steps cross exceptional lines
    assert ref.near_nodes > 0 and ref.crossing_steps > 0
    assert zs.tobytes() == zs_ref.tobytes()
    assert u.tobytes() == u_ref.tobytes()
    rng = np.random.default_rng(d + ell)
    for _ in range(6):
        z = complex(rng.uniform(-2.4, 2.4), rng.uniform(-2.4, 2.4))
        assert repr(phase.u(z)) == repr(float(ref.zeta_w(z)[0].real))


NINE_FAMILIES = [(2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (6, 3), (6, 4)]


def _assert_near_nodes_are_routed_values(phase, grid):
    """The grid's nodes next to a turning point against routed quadrature."""
    zs, u = phase.u_grid(*grid)
    near, u_near, w_near = phase._near_values(zs)
    assert u[near].tobytes() == u_near[near].tobytes()
    for z, un, wn in zip(zs[near], u_near[near], w_near[near]):
        zeta, w = phase._zeta_w(complex(z))
        assert abs(un - zeta.real) <= 1e-12, z
        # the branch the march continues from; at t itself w = 0 has no sign
        if min(abs(z - v) for v in phase.tps) > 1e-9:
            assert abs(wn - w) < abs(wn + w), z
    return int(near.sum())


@pytest.mark.parametrize("d, ell", NINE_FAMILIES)
def test_u_grid_near_nodes_match_routes(d, ell):
    phase = PhaseIntegral(stokes_complex(d, ell))
    # the envelope grid of hop ranking, then coarse `stokes --u-grid` grids
    # over +-2.5 whose march neighbours lie far outside the near disc
    assert _assert_near_nodes_are_routed_values(phase, (-2.7 - 2.7j, 55, 55, 0.1, 0.1)) > 0
    for n in (3, 7):
        _assert_near_nodes_are_routed_values(phase, (-2.5 - 2.5j, n, n, 5 / (n - 1), 5 / (n - 1)))


def test_u_grid_node_on_a_turning_point(phase21):
    # after the jitter, node [2, 2] is the turning point 1 itself: the only
    # near node of its turning point, where F' = 0
    grid = (complex(-1.85e-4, -1.000115), 5, 5, 0.5, 0.5)
    zs, _ = phase21.u_grid(*grid)
    assert complex(zs[2, 2]) in phase21.tps
    assert _assert_near_nodes_are_routed_values(phase21, grid) == 1


def test_u_grid_marches_off_a_turning_point(phase21):
    # the steps up from node [2, 2] = 1, where w = 0, must keep the branch
    zs, u = phase21.u_grid(complex(-1.85e-4, -1.000115), 5, 5, 0.5, 0.5)
    for z, uz in zip(zs.flat, u.flat):
        assert abs(uz - phase21.u(complex(z))) < 0.05, z


@pytest.mark.parametrize("tol", [1e-11, 0.0])
def test_segment_quadrature_bits_match_scalar(tol):
    # tol = 0 refines every panel, a branch the envelope grid rarely takes
    from stokeszeros.wkb import _integrate_segment

    rng = np.random.default_rng(7)
    for d, ell in [(2, 1), (4, 1), (6, 3)]:
        q = build_quad_diff(d, ell)
        tps = PhaseIntegral(stokes_complex(d, ell)).tps
        for _ in range(4):
            a, b = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
            w = cmath.sqrt(q(a))
            got = _integrate_segment(q.polynomial, a, b, w, tol, tps)
            assert repr(got) == repr(_ref_integrate_segment(q, a, b, w, tol, tps))


@pytest.mark.parametrize("d, ell", [(4, 1), (6, 3)])
def test_batched_edge_test_matches_scalar(d, ell):
    phase = PhaseIntegral(stokes_complex(d, ell))
    ref = _ScalarPhase(phase)
    rng = np.random.default_rng(11)

    def points(k):
        return rng.uniform(-2.5, 2.5, k) + 1j * rng.uniform(-2.5, 2.5, k)

    a, b = points(300), points(300)
    # ends on and next to a turning point, approached from all sides
    tps = np.array(phase.tps)
    ends = tps[rng.integers(len(tps), size=200)]
    ends[100:] += phase._clearance * rng.uniform(0, 0.9, 100) * np.exp(2j * np.pi * rng.uniform(size=100))
    starts = ends + rng.uniform(0.05, 2.0, 200) * np.exp(2j * np.pi * rng.uniform(size=200))
    got = phase._edges_ok(a, b)
    want = [ref.edge_ok(complex(x), complex(y)) for x, y in zip(a, b)]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)
    # some edges are refused by the exceptional set alone
    assert ref.refused_by_crossing > 0
    got = phase._edges_ok(starts, ends, end_at_tp=True)
    want = [ref.edge_ok(complex(x), complex(y), end_at_tp=True) for x, y in zip(starts, ends)]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)
    # the same edges without the end exemption
    got = phase._edges_ok(starts, ends)
    assert got.tolist() == [ref.edge_ok(complex(x), complex(y)) for x, y in zip(starts, ends)]


def test_array_q_and_sqrt_match_scalar_bits():
    # platform guard: the quadrature, the grid and the edge tests take Q,
    # sqrt(Q) and moduli as arrays; a numpy that rounds them differently
    # from the scalar path must fail here, not shift the envelope silently
    rng = np.random.default_rng(3)
    z = rng.uniform(-3, 3, 4000) + 1j * rng.uniform(-3, 3, 4000)
    z[:400] = z[:400].real  # zero imaginary parts, where the branch is decided
    z[400:800] = 1j * z[400:800].imag
    polys = [stokes_complex(d, ell).quaddiff.polynomial for d, ell in [(2, 1), (3, 1), (4, 1), (6, 3)]]
    polys.append(ComplexPolynomial(rng.normal(size=7) + 1j * rng.normal(size=7)))
    for p in polys:
        qz = np.empty(z.shape, dtype=complex)
        qz.real, qz.imag = horner_parts(p, z.real, z.imag)
        want = [p(complex(x)) for x in z]
        assert qz.tobytes() == np.array(want, dtype=complex).tobytes()
        roots = np.sqrt(qz)
        assert roots.tobytes() == np.array([cmath.sqrt(w) for w in want], dtype=complex).tobytes()
        mods = np.hypot(qz.real, qz.imag)
        assert mods.tobytes() == np.array([abs(w) for w in want]).tobytes()


def test_envelope_grid_memory_is_bounded():
    # the crossing kernel broadcasts a few query segments at a time
    sc = stokes_complex(6, 3)
    tracemalloc.start()
    try:
        PhaseIntegral(sc).u_grid(-2.7 - 2.7j, 55, 55, 0.1, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
