import cmath
import gc
import itertools
import math
import re

import numpy as np
import pytest

from stokeszeros import spectral
from stokeszeros.errors import DomainError, IntegrationError
from stokeszeros.geometry import wrap_angle
from stokeszeros.polynomials import ComplexPolynomial
from stokeszeros.spectral import (
    EigenfunctionEvaluator,
    ProblemSpec,
    ShootingFrame,
    envelope_deviation,
    miss_function,
    miss_surrogate,
    ordering_violations,
    rescale,
    solve_eigenpair,
    wkb_seed,
)
from stokeszeros.stokescomplex import stokes_complex
from stokeszeros.transport import TransportState, transport, transport_states
from stokeszeros.wkb import PhaseIntegral
from stokeszeros.zeros import locate_zeros

HARMONIC = ProblemSpec(2, 1)
QUARTIC = ProblemSpec(4, 2)
PT_CUBIC = ProblemSpec(3, 1)


def test_problem_spec_flags():
    assert HARMONIC.is_self_adjoint and HARMONIC.is_pt_symmetric
    assert QUARTIC.is_self_adjoint
    assert PT_CUBIC.is_pt_symmetric and not PT_CUBIC.is_self_adjoint
    mixed = ProblemSpec(4, 2, a=(0.3, 0.0, 0.0))
    assert mixed.is_self_adjoint  # real potential on the real axis
    assert not mixed.is_pt_symmetric  # odd coefficients must be imaginary
    pt = ProblemSpec(4, 2, a=(0.3j, 0.1, 0.0))
    assert pt.is_pt_symmetric


def test_potential_leading_term():
    assert PT_CUBIC.potential.coefficients[-1] == 1j  # (-1)(iz)^3 = i z^3
    assert QUARTIC.potential.coefficients[-1] == 1


# the ODE y'' = Q y integrated along a path by transport_states

def test_integrate_ode_cosh():
    states = transport_states(ComplexPolynomial([1.0]), [0.0, 1.0], 1.0, 0.0)
    end = states[-1]
    assert abs(end.value() - math.cosh(1.0)) < 1e-12


def test_integrate_ode_airy_series_oracle():
    # y'' = z y with y(0)=1, y'(0)=0; series c_{k+3} = c_k/((k+2)(k+3))
    coeffs = {0: 1.0}
    k = 0
    while k + 3 < 60:
        coeffs[k + 3] = coeffs[k] / ((k + 2) * (k + 3))
        k += 3
    oracle = sum(coeffs.values())
    states = transport_states(ComplexPolynomial([0.0, 1.0]), [0.0, 1.0], 1.0, 0.0)
    assert abs(states[-1].value() - oracle) < 1e-12
    assert abs(oracle - 1.1723000) < 1e-6


def test_integrate_ode_harmonic_gaussian():
    # y'' = (z^2 - 1) y transported from the normalized ground data
    states = transport_states(ComplexPolynomial([-1.0, 0.0, 1.0]), [0.0, 3.0], 1.0, 0.0)
    assert abs(states[-1].value() - math.exp(-4.5)) < 1e-11


def test_wkb_seed_includes_derivative_correction():
    y, dy = wkb_seed(HARMONIC, 1.0, 0.0, 8.0)
    w = 8.0**2 - 1.0
    assert abs(y - w**-0.25) < 1e-12
    expected_dy = w**-0.25 * (-math.sqrt(w) - 2 * 8.0 / (4 * w))
    assert abs(dy - expected_dy) < 1e-12


def test_miss_function_at_eigenvalue_and_midpoint():
    # a generous seed radius pushes the WKB seed truncation to roundoff
    frame = ShootingFrame.for_scale(HARMONIC, 1.0, R=12.0)
    assert abs(miss_function(HARMONIC, 1.0, frame)) < 1e-10
    assert abs(miss_function(HARMONIC, 2.0, frame)) > 0.1


def test_miss_surrogate_sign_change():
    a = miss_surrogate(HARMONIC, 0.8, ShootingFrame.for_scale(HARMONIC, 0.8, R=8.0))
    b = miss_surrogate(HARMONIC, 1.2, ShootingFrame.for_scale(HARMONIC, 1.2, R=8.0))
    assert a * b < 0


def test_miss_function_analytic_in_lambda():
    # Cauchy-Riemann residual of finite differences at non-eigenvalue points
    frame = ShootingFrame.for_scale(HARMONIC, 6.0, R=8.0)
    rng = np.random.default_rng(2)
    for _ in range(3):
        lam = complex(rng.uniform(4.0, 8.0), rng.uniform(-0.5, 0.5))
        d = 1e-5 * (1 + abs(lam))
        fx = (miss_function(HARMONIC, lam + d, frame) - miss_function(HARMONIC, lam - d, frame)) / (2 * d)
        fy = (miss_function(HARMONIC, lam + 1j * d, frame) - miss_function(HARMONIC, lam - 1j * d, frame)) / (2j * d)
        assert abs(fx - fy) < 1e-5 * (1 + abs(fx))


def test_harmonic_spectrum_exact():
    pairs = [solve_eigenpair(HARMONIC, n) for n in range(12)]
    assert ordering_violations(pairs) == []
    for n, p in enumerate(pairs):
        assert p.lam.imag == 0.0
        assert abs(p.lam - (2 * n + 1)) < 1e-13 * (2 * n + 1)
        assert abs(abs(p.y0) + abs(p.dy0) - 1.0) < 1e-12


def test_harmonic_normalization_parity():
    even = solve_eigenpair(HARMONIC, 2)
    odd = solve_eigenpair(HARMONIC, 3)
    assert abs(even.dy0) < 1e-9  # even state: y'(0) = 0, y(0) = 1
    assert abs(odd.y0) < 1e-9  # odd state: y(0) = 0, |y'(0)| = 1


def test_quartic_ground_state_vs_diagonalization_oracle():
    # independent oracle: harmonic-oscillator basis diagonalization of
    # p^2 + x^4 with frequency omega
    omega = 2.5
    n_basis = 120
    k = np.arange(n_basis)
    a = np.diag(np.sqrt(k[1:]), 1)  # lowering operator
    x = (a + a.T) / math.sqrt(2 * omega)
    p2 = omega * (np.diag(k + 0.5) - (a @ a + a.T @ a.T) / 2)
    h = p2 + np.linalg.matrix_power(x, 4)
    oracle = np.linalg.eigvalsh(h)[0]
    got = solve_eigenpair(QUARTIC, 0)
    assert abs(got.lam.real - oracle) < 1e-7
    assert abs(got.lam.real - 1.0603621) < 1e-6


def test_pt_cubic_ground_state():
    got = solve_eigenpair(PT_CUBIC, 0)
    assert abs(got.lam.real - 1.1562670) < 1e-6
    assert abs(got.lam.imag) < 1e-7


def test_pt_cubic_oracle_diagonalization():
    # oscillator-basis diagonalization of p^2 + i x^3
    omega = 2.0
    n_basis = 140
    k = np.arange(n_basis)
    a = np.diag(np.sqrt(k[1:]), 1)
    x = (a + a.T) / math.sqrt(2 * omega)
    p2 = omega * (np.diag(k + 0.5) - (a @ a + a.T @ a.T) / 2)
    h = p2 + 1j * np.linalg.matrix_power(x, 3)
    vals = np.linalg.eigvals(h)
    vals = vals[np.abs(vals.imag) < 1e-6]
    oracle = sorted(vals.real)[0]
    got = solve_eigenpair(PT_CUBIC, 0)
    assert abs(got.lam.real - oracle) < 1e-6


def test_wronskian_constant_along_connection():
    # transporting both ray solutions to two different points gives the
    # same Wronskian (the equation has no first-order term)
    from stokeszeros.spectral import _ray_state

    lam = 4.0 + 0.3j
    frame = ShootingFrame.for_scale(HARMONIC, abs(lam), R=8.0)
    left, right = HARMONIC.boundary_rays
    field = HARMONIC.shifted_field(lam)
    from stokeszeros.transport import transport, transport_states

    sl = _ray_state(HARMONIC, lam, left, frame.left_path)
    sr = _ray_state(HARMONIC, lam, right, frame.right_path)
    w_at_match = sl.y * sr.dy - sl.dy * sr.y
    scale_match = sl.log_scale + sr.log_scale
    sl2 = transport(field, [sl.z, 0.7], sl.y, sl.dy, sl.log_scale)
    sr2 = transport(field, [sr.z, 0.7], sr.y, sr.dy, sr.log_scale)
    w_other = sl2.y * sr2.dy - sl2.dy * sr2.y
    scale_other = sl2.log_scale + sr2.log_scale
    ratio = (w_other / w_at_match) * math.exp(scale_other - scale_match)
    assert abs(ratio - 1.0) < 1e-9


def test_eigenfunction_gaussian_everywhere():
    pair = solve_eigenpair(HARMONIC, 0)
    ev = EigenfunctionEvaluator(pair)
    for z in (0.5, 1.5, 3.0, 2j, 1 + 1j):
        got = ev.eval(z)
        expected = cmath.exp(-complex(z) ** 2 / 2)
        assert abs(got.value() - expected) < 1e-9 * abs(expected)


def test_eigenfunction_residual():
    # relative defect |y'' - (P - lambda) y| by a three-point stencil
    pair = solve_eigenpair(QUARTIC, 3)
    ev = EigenfunctionEvaluator(pair)
    rng = np.random.default_rng(4)
    step = 1e-4
    for _ in range(4):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
        sts = [ev.eval(z + dz) for dz in (-step, 0.0, step)]
        vals = [st.y * cmath.exp(st.log_scale - sts[1].log_scale) for st in sts]
        ypp = (vals[0] - 2 * vals[1] + vals[2]) / step**2
        rhs = ev.pot(z) * vals[1]
        assert abs(ypp - rhs) / (1.0 + abs(vals[1]) * abs(ev.pot(z))) < 1e-6


def _bilinear_envelope(ev, z):
    """h times the bilinear interpolation of the envelope grid at z / f."""
    zs, ug = ev._ugrid
    w = complex(z) / ev.f
    x0, y0 = zs[0, 0].real, zs[0, 0].imag
    dx, dy = zs[0, 1].real - x0, zs[1, 0].imag - y0
    ix = min(max((w.real - x0) / dx, 0.0), ug.shape[1] - 1 - 1e-9)
    iy = min(max((w.imag - y0) / dy, 0.0), ug.shape[0] - 1 - 1e-9)
    i, j = int(iy), int(ix)
    ty, tx = iy - i, ix - j
    return ev.h * float(
        ug[i, j] * (1 - tx) * (1 - ty)
        + ug[i, j + 1] * tx * (1 - ty)
        + ug[i + 1, j] * (1 - tx) * ty
        + ug[i + 1, j + 1] * tx * ty
    )


def test_envelope_lookup_matches_bilinear_reference():
    ev = EigenfunctionEvaluator(solve_eigenpair(PT_CUBIC, 2))
    ev.log_envelope(0j)
    zs, _ = ev._ugrid
    rng = np.random.default_rng(11)
    nodes = [complex(zs[i, j]) for i, j in rng.integers(0, 55, size=(20, 2))]
    interior = [complex(x, y) for x, y in rng.uniform(-2.6, 2.6, size=(40, 2))]
    outside = [4 + 0.3j, -3.5 - 4j, 0.2 + 6j, -9.0, 3 - 3j, -2.6 + 2.8j]
    points = [w * ev.f for w in nodes + interior + outside]
    looked_up = ev._u_hat(np.array(points))
    for z, u in zip(points, looked_up):
        expected = _bilinear_envelope(ev, z)
        assert ev.log_envelope(z) == expected
        assert ev.h * u == expected


def _piecewise_hop(ev, st, z, budget):
    """The hop rule with one transport per piece: the reference for one transport."""
    total = abs(z - st.z)
    if total == 0:
        return st
    direction = (z - st.z) / total
    pieces = min(max(6, int(total * ev.h / (2.0 * abs(ev.f)))), 200)
    divergence = 0.0
    cur = st
    for k in range(1, pieces + 1):
        # the last piece ends at z itself: st.z + (z - st.z) may round off it
        target = z if k == pieces else st.z + (z - st.z) * (k / pieces)
        mid = 0.5 * (cur.z + target)
        rate = abs((cmath.sqrt(ev.pot(mid)) * direction).real)
        prev_log = cur.log_abs_y()
        cur = transport(ev.pot, [cur.z, target], cur.y, cur.dy, cur.log_scale)
        if k < pieces:
            divergence += max(0.0, rate * (total / pieces) - (cur.log_abs_y() - prev_log))
        if divergence > budget:
            return None
    return cur


def _hop_pairs():
    """(anchor, target) pairs of the PT quartic n = 1: near and far hops."""
    ev = EigenfunctionEvaluator(solve_eigenpair(ProblemSpec(4, 1), 1))
    ev.eval(0j)  # builds the anchor skeleton
    far = ev._anchors[int(np.argmin(np.abs(ev._anchor_z - (0.75 + 0.7j) * ev.f)))]
    pairs = []
    # rescaled targets away from the zeros, where log|y| is well conditioned
    for w in (0.3 + 0.2j, -0.7 + 0.4j, 1.1 - 0.6j, -1.2 - 1.2j, 0.2 - 1.4j, 1.3 + 1.3j):
        z = w * ev.f
        near = np.argsort(np.abs(ev._anchor_z - z))[:3]
        pairs += [(ev._anchors[i], z) for i in near] + [(far, z)]
    return ev, pairs


def test_one_transport_hop_matches_piecewise_rule():
    ev, pairs = _hop_pairs()
    outcomes = set()  # rejected or not, at the evaluator's own budget
    # tighter budgets put some decisions near the threshold, where a
    # misread piece end would flip them
    for (st, z), budget in itertools.product(pairs, (0.02, 0.1, 0.5, ev._HOP_BUDGET)):
        hop = ev._monitored_hop(st, z, budget)
        ref = _piecewise_hop(ev, st, z, budget)
        assert (hop is None) == (ref is None), (st.z, z, budget)
        if budget == ev._HOP_BUDGET:
            outcomes.add(hop is None)
        if hop is not None:
            got = hop[0]
            assert got.z == ref.z
            assert abs(got.log_abs_y() - ref.log_abs_y()) <= 1e-12
            assert abs(cmath.phase(got.y / ref.y)) <= 1e-12
    assert outcomes == {True, False}


def test_monitored_hop_is_one_transport(monkeypatch):
    ev, pairs = _hop_pairs()
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("watcher"))  # by keyword, where tracers read it
        return transport(*args, **kwargs)

    monkeypatch.setattr(spectral, "transport", counted)
    outcomes = set()
    for st, z in pairs:
        calls.clear()
        outcomes.add(ev._monitored_hop(st, z, ev._HOP_BUDGET) is None)
        assert len(calls) == 1 and calls[0] is not None
    assert outcomes == {True, False}


def test_rescale_hermite_zero_positions():
    # H2 zeros at +/- 1/sqrt(2); lambda_2 = 5
    pair = solve_eigenpair(HARMONIC, 2)
    resc = rescale(EigenfunctionEvaluator(pair))
    target = 1 / math.sqrt(10)
    st, origin = resc.state(target), resc.state(0.0)
    assert abs(st.y) * math.exp(st.log_scale) < 1e-7
    assert abs(origin.value() - pair.y0) < 1e-12


def test_rescaled_bracket_harmonic():
    pair = solve_eigenpair(HARMONIC, 6)
    resc = rescale(EigenfunctionEvaluator(pair))
    lo, hi = resc.real_bracket()
    assert abs(lo + 1) < 1e-9 and abs(hi - 1) < 1e-9


def test_pt_symmetry_of_rescaled_modulus():
    pair = solve_eigenpair(PT_CUBIC, 4)
    resc = rescale(EigenfunctionEvaluator(pair))
    for w in (0.4 + 0.3j, 1.1 - 0.2j, 0.8j):
        a, b = (resc.state(v).log_abs_y() for v in (w, -complex(w).conjugate()))
        assert abs(a - b) < 1e-6 * max(1, abs(a))


def test_pt_eigenvalue_args_decrease():
    args = []
    for n in (5, 12, 24):
        p = solve_eigenpair(PT_CUBIC, n)
        args.append(abs(cmath.phase(p.lam)))
    assert args[2] <= args[0] + 1e-12


def test_log_modulus_converges_to_envelope():
    sc = stokes_complex(2, 1)
    phase = PhaseIntegral(sc)
    pts = [2.0, 1.5j, -2.0]
    devs = []
    for n in (10, 40):
        resc = rescale(EigenfunctionEvaluator(solve_eigenpair(HARMONIC, n)))
        devs.append(envelope_deviation(resc, phase, pts))
    assert devs[1] < devs[0]
    assert devs[1] <= 0.05


def test_index_certification_rejects_bad_index():
    # sanity: requesting a valid index works and counts its real zeros
    pair = solve_eigenpair(QUARTIC, 7)
    assert pair.n == 7


def test_pt_quartic_lambda_40_is_real():
    # README: lambda_40 = 482.4251... (real to 1e-13)
    lam = solve_eigenpair(ProblemSpec(4, 1), 40).lam
    assert abs(lam.imag) <= 1e-13
    assert 482.4251 <= lam.real < 482.4252


@pytest.mark.parametrize("spec", [PT_CUBIC, QUARTIC], ids=["(3,1)", "(4,2)"])
def test_flat_miss_function_raises_naming_spec_and_n(monkeypatch, spec):
    # a miss function that carries no root information in the one frame
    # must not hand back a lambda, on the complex search and on the real
    # axis alike; the error says which problem and which index
    monkeypatch.setattr(spectral, "miss_function", lambda s, lam, frame: 1 + 0j)
    solve_eigenpair.cache_clear()
    try:
        with pytest.raises(
            IntegrationError,
            match=rf"did not converge for {re.escape(repr(spec))} n=2: lambda=.*last step",
        ):
            solve_eigenpair(spec, 2)
    finally:
        solve_eigenpair.cache_clear()


def test_self_adjoint_solve_miss_budget(monkeypatch):
    # the secant on the real axis closes the one-frame search in 5 miss
    # evaluations, and the eigenpair records them
    real_miss = spectral.miss_function
    calls = []

    def counted(spec, lam, frame=None):
        calls.append(lam)
        return real_miss(spec, lam, frame)

    monkeypatch.setattr(spectral, "miss_function", counted)
    solve_eigenpair.cache_clear()
    try:
        pair = solve_eigenpair(QUARTIC, 10)
    finally:
        solve_eigenpair.cache_clear()
    assert pair.n == 10
    assert pair.shots == len(calls) <= 5


@pytest.mark.parametrize("spec", [QUARTIC, PT_CUBIC], ids=["(4,2)", "(3,1)"])
def test_solve_shoots_each_ray_once_per_lambda(monkeypatch, spec):
    # the solve reads the ray states at its eigenvalue from the search that
    # found it; a transport repeated with the same field and path is one
    # the solve already made
    real_transport = spectral.transport
    shots = {}

    def counted(field, path, *args, **kwargs):
        key = (field.coefficients, tuple(complex(z) for z in path))
        shots[key] = shots.get(key, 0) + 1
        return real_transport(field, path, *args, **kwargs)

    monkeypatch.setattr(spectral, "transport", counted)
    solve_eigenpair.cache_clear()
    try:
        assert solve_eigenpair(spec, 3).n == 3
    finally:
        solve_eigenpair.cache_clear()
    assert shots and max(shots.values()) == 1


def _alternating_bound():
    # met where a frame is chosen, failed at each lambda a search returns
    calls = itertools.count()
    return lambda frame, spec, lam: float(next(calls) % 2)


@pytest.mark.parametrize(
    "bound", [lambda: lambda frame, spec, lam: 1.0, _alternating_bound], ids=["never", "after-search"]
)
@pytest.mark.parametrize("spec", [QUARTIC, PT_CUBIC], ids=["(4,2)", "(3,1)"])
def test_unmet_seed_bound_raises(monkeypatch, spec, bound):
    # a bound that no radius meets, and one that fails at every lambda the
    # search returns: the solve must raise, not return the last lambda
    monkeypatch.setattr(ShootingFrame, "seed_bound", bound())
    solve_eigenpair.cache_clear()
    try:
        with pytest.raises(
            IntegrationError,
            match=rf"bound not met for {re.escape(repr(spec))} n=3: at lambda=\S+ and R=\S+ it is 1, above 1e-15",
        ):
            solve_eigenpair(spec, 3)
    finally:
        solve_eigenpair.cache_clear()


STABILITY_CASES = [
    (ProblemSpec(d, ell), n)
    for d, ell in ((2, 1), (4, 2), (3, 1), (4, 1), (6, 3))
    for n in (0, 1, 2, 5, 10)
]
STABILITY_IDS = [f"({s.d},{s.ell})-{n}" for s, n in STABILITY_CASES]
EPS = np.finfo(float).eps


def _frame_lambda(spec, n, R):
    seed = spectral.eigenvalue_estimate(spec.d, spec.ell, n, offset=0.5)
    frame = ShootingFrame.for_scale(spec, seed, R)
    return frame, spectral._search(spec, n, frame, seed)[0]


def _start_radius(spec, lam):
    # one growth step beyond the outermost turning point of P - lambda
    return spectral._GROWTH * max(abs(t) for t in spectral.roots(spec.shifted_field(lam), tol=1e-11))


@pytest.mark.parametrize("spec, n", STABILITY_CASES, ids=STABILITY_IDS)
def test_seed_bound_covers_the_shift_at_the_dominance_radius(spec, n):
    # the model behind the one frame: with no growth, lambda moves against
    # a frame of twice the radius by no more than V(R) e^{-2 Phi(R)} there.
    # R is the smallest radius of the seed ladder at which the search
    # converges, where the bound is largest; at the ladder's start (2,1)
    # and (4,2) n = 0 do not converge, their bound there being about 0.1
    seed = spectral.eigenvalue_estimate(spec.d, spec.ell, n, offset=0.5)
    R0 = _start_radius(spec, seed)
    for _ in range(10):
        try:
            frame, lam = _frame_lambda(spec, n, R0)
            break
        except IntegrationError:
            R0 *= spectral._GROWTH
    else:
        pytest.fail("no search converged within 10 growths of the ladder's start")
    _, lam2 = _frame_lambda(spec, n, 2.0 * R0)
    assert abs(lam - lam2) <= frame.seed_bound(spec, lam) * abs(lam) + 8 * EPS * (1 + abs(lam))


def _translate(d, ell, c):
    """The lower-order terms of L (z + c)^d - L c^d, L the leading coefficient."""
    lead = ProblemSpec(d, ell).potential.coefficients[-1]
    return tuple(lead * math.comb(d, k) * c ** (d - k) for k in range(1, d))


RULE_SPECS = [ProblemSpec(d, ell) for d, ell in ((2, 1), (4, 2), (3, 1), (4, 1), (6, 3))]
RULE_SPECS += [ProblemSpec(4, 1, (0, 3)), ProblemSpec(4, 2, _translate(4, 2, 1.0))]


@pytest.mark.parametrize("spec", RULE_SPECS, ids=repr)
def test_seed_frame_radius_is_the_first_that_meets_the_bound(spec):
    # the one radius rule: the frame chosen at the seed starts one growth
    # step beyond the outermost turning point, and grows only while the
    # seed bound fails, also where the lower-order terms are large
    for n in (0, 1, 2, 5, 10, 20, 40):
        seed = spectral.eigenvalue_estimate(spec.d, spec.ell, n, offset=0.5)
        frame = spectral._bounded_frame(spec, n, seed, complex(seed), 0.0)
        assert frame.seed_bound(spec, seed) <= spectral._SEED_BOUND
        start = _start_radius(spec, seed)
        if frame.R != start:
            below = ShootingFrame.for_scale(spec, seed, frame.R / spectral._GROWTH)
            assert below.seed_bound(spec, seed) > spectral._SEED_BOUND, n


@pytest.mark.parametrize(
    "d, ell, c", [(4, 1, 0.5), (4, 1, 0.5j), (3, 1, 0.5), (3, 1, -0.5j), (4, 2, 0.5), (4, 2, 0.7j)]
)
def test_translate_spectrum_is_the_shifted_spectrum(d, ell, c):
    # P(z + c) = P(z) + L c^d term for term beyond the constant, so the
    # translate's lambda_n + L c^d is the unperturbed lambda_n for every c;
    # |c| >= 1 is left out, where the growth-law seed lands on another index
    spec = ProblemSpec(d, ell, _translate(d, ell, c))
    lead = spec.potential.coefficients[-1]
    for n in range(6):
        ref = solve_eigenpair(ProblemSpec(d, ell), n).lam
        lam = solve_eigenpair(spec, n).lam
        assert abs(lam + lead * c**d - ref) <= 1e-10 * abs(ref), n


@pytest.mark.parametrize("spec, n", STABILITY_CASES, ids=STABILITY_IDS)
def test_solved_lambda_stable_under_frame_doubling(spec, n):
    # the solve's one frame is stable to its recorded bound: a frame of
    # twice its radius moves lambda by no more than seed_bound, relative,
    # beyond rounding; rounding is allowed 8 eps on the search's own
    # 1 + |lambda| scale, since the longer frame's rays alone moved (3,1)
    # n = 0 by 12 eps and (6,3) n = 0 by 10 eps relative
    pair = solve_eigenpair(spec, n)
    assert pair.seed_bound <= 1e-15
    _, lam2 = _frame_lambda(spec, n, 2.0 * pair.seed_radius)
    assert abs(pair.lam - lam2) <= pair.seed_bound * abs(pair.lam) + 8 * EPS * (1 + abs(pair.lam))


def test_failed_shot_names_the_solve():
    # z^3 carries 1e6: the frame starts beyond the turning point near 1e6,
    # and the first shot's transport from there underflows its step
    spec = ProblemSpec(4, 1, (0, 0, 1e6j))
    with pytest.raises(
        IntegrationError,
        match=rf"shot failed for {re.escape(repr(spec))} n=0 at lambda=\S+ and R=1\.18e\+06: step underflow at z=",
    ):
        solve_eigenpair(spec, 0)


@pytest.mark.parametrize("y0", [1e-15, -1e-15, 0.0, 5e-13, -5e-13])
def test_origin_zero_counted_once(y0):
    # the odd harmonic state at lambda = 3 has one zero, at the origin: a
    # roundoff residue in y0 must not make one sweep count it again
    assert spectral._count_real_zeros(HARMONIC, 3.0, y0, 1.0, 2.5) == 1


def test_invalid_spec_rejected():
    with pytest.raises(DomainError):
        ProblemSpec(4, 0)
    with pytest.raises(DomainError):
        ProblemSpec(1, 1)
    with pytest.raises(DomainError):
        solve_eigenpair(HARMONIC, -1)


def test_unreachable_point_raises_naming_the_budget():
    pair = solve_eigenpair(ProblemSpec(4, 1), 1)
    ev = EigenfunctionEvaluator(pair)
    ev.eval(0j)  # builds the anchor skeleton
    ev._HOP_BUDGET = -1.0  # no hop of nonzero length is admitted
    z = complex(0.3, -0.7) * ev.f
    assert z not in ev._anchor_z
    with pytest.raises(IntegrationError, match=r"z=.*hop budget -1 \(n=1, lambda="):
        ev.eval(z)


def _arc_reference(pair, z, theta):
    """log y(z) of the recessive solution of the boundary ray theta, seeded
    by ``wkb_seed`` at twice the skeleton's ray radius 2R and transported
    along that circle to arg z, then straight in to z; for z on the ray,
    straight down it."""
    R2 = 4.0 * pair.seed_radius
    y, dy = wkb_seed(pair.spec, pair.lam, theta, R2)
    phi = theta + wrap_angle(cmath.phase(z) - theta)
    arc = [R2 * cmath.exp(1j * (theta + (phi - theta) * k / 64)) for k in range(65)]
    st = transport(pair.spec.shifted_field(pair.lam), arc + [z], y, dy)
    return cmath.log(st.y) + st.log_scale


def _assert_states_match_the_arc_construction(ev, ws):
    """The evaluator's log y at f*w relative to a point of the nearer ray
    matches the ray-recessive solution carried in along a far arc."""
    pair, f = ev.pair, ev.f
    rays = pair.spec.boundary_rays
    for w in ws:
        z = f * w
        theta = min(rays, key=lambda t: abs(wrap_angle(cmath.phase(z) - t)))
        a = 1.5 * abs(f) * cmath.exp(1j * theta)
        got_z, got_a = (cmath.log(st.y) + st.log_scale for st in (ev.eval(z), ev.eval(a)))
        diff = (got_z - got_a) - (_arc_reference(pair, z, theta) - _arc_reference(pair, a, theta))
        diff = complex(diff.real, wrap_angle(diff.imag))
        assert abs(diff) < 1e-9, (w, abs(diff))


@pytest.mark.parametrize("n", [1, 2])
def test_decay_sector_states_match_the_arc_construction(n):
    # an independent route to the exact state in the lower decay sector of (4,1)
    ev = EigenfunctionEvaluator(solve_eigenpair(ProblemSpec(4, 1), n))
    ws = [complex(s * x, -1.6) for x in (1.35, 1.45, 1.55) for s in (1, -1)]
    ws += [complex(1.6, -0.4), complex(-1.6, -0.4)]
    _assert_states_match_the_arc_construction(ev, ws)


def test_cubic_states_past_the_ranked_anchors_match_the_arc_construction():
    # on a 41x41 grid over criterion 7's window these six points of (3,1)
    # n = 2 in its lower decay sector are the only ones where ranking the
    # nearest anchors by their chord's envelope ridge put five refusals first
    ev = EigenfunctionEvaluator(solve_eigenpair(ProblemSpec(3, 1), 2))
    ws = [complex(s * 1.6, -y) for y in (1.04, 1.12, 1.20) for s in (1, -1)]
    _assert_states_match_the_arc_construction(ev, ws)


class _OneAnchorEstimate(EigenfunctionEvaluator):
    """The hop estimate written out one anchor at a time, as the reference
    for ``_estimate``: each anchor's chord in 1-D arrays of its nine points
    and eight pieces.  ``_order_one`` is the reference for ``_hop_order``,
    with Python's stable ``sorted`` in place of numpy's sorts."""

    def _estimate_one(self, z, i):
        za = self._anchor_z[i]
        pts = za + (z - za) * (np.arange(9) / 8)
        env = self.h * self._u_hat(pts)
        wr, wi = spectral._divide(0.5 * (pts[1:] + pts[:-1]), self.f)
        qr, qi = spectral.horner_parts(self._limit_complex().quaddiff.polynomial, wr, wi)
        phase = np.sqrt(qr + 1j * qi) * ((z - za) / (8.0 * self.f))
        loss = np.maximum(0.0, self.h * np.abs(phase.real) - np.diff(env)).sum()
        return loss, np.abs(phase).sum()

    def _nearest_one(self, z):
        # numpy's array abs may round a distance unlike its scalar abs
        dist = np.abs(self._anchor_z - z).tolist()
        return sorted(range(len(dist)), key=dist.__getitem__)[:24]

    def _order_one(self, z):
        budget = self._HOP_BUDGET
        est = {i: self._estimate_one(z, i) for i in self._nearest_one(z)}
        first = sorted((i for i in est if est[i][0] <= budget), key=lambda i: est[i][1])
        yield from first
        rest = [i for i in range(len(self._anchor_z)) if i not in first]
        est = {i: self._estimate_one(z, i) for i in rest}
        yield from sorted(rest, key=lambda i: (est[i][0] > budget, est[i][1]))


def _hop_targets(ev, seed):
    """200 targets: criterion 7's window widened into the decay sectors, and
    the imaginary axis, where mirror anchors tie in distance."""
    rng = np.random.default_rng(seed)
    ws = [complex(x, y) for x, y in rng.uniform(-2.2, 2.2, size=(170, 2))]
    ws += [1j * y for y in np.linspace(-1.6, 1.6, 30)]
    return [w * ev.f for w in ws]


@pytest.mark.parametrize("spec, n", [(ProblemSpec(4, 1), 1), (QUARTIC, 3)])
def test_estimate_matches_one_anchor_reference(spec, n):
    pair = solve_eigenpair(spec, n)
    ev, ref = EigenfunctionEvaluator(pair), _OneAnchorEstimate(pair)
    ev.eval(0j), ref.eval(0j)  # build both skeletons
    # every sweep is seeded by a hop: equal skeletons mean equal seed hops
    assert repr(ev._anchors) == repr(ref._anchors)
    zs = _hop_targets(ev, 10 * spec.ell + n)
    ties = 0
    for z in zs[170:]:
        dist = np.sort(np.abs(ev._anchor_z - z))[:25]
        ties += bool(np.any(dist[1:] == dist[:-1]))
    assert ties > 0  # the tie-breaking of the distance sort is exercised
    within = set()
    for z in zs:
        near = ref._nearest_one(z)
        loss, length = ev._estimate(z, np.array(near))
        assert list(zip(loss, length)) == [ref._estimate_one(z, i) for i in near], z
        # the first tier: the anchors of the 24 nearest estimated within budget
        k = int(np.sum(loss <= ev._HOP_BUDGET))
        within.add(k)
        got = itertools.islice(ev._hop_order(z), k)
        assert list(got) == list(itertools.islice(ref._order_one(z), k)), z
    assert len(within) > 2


@pytest.mark.parametrize("spec, n", [(ProblemSpec(4, 1), 1), (QUARTIC, 3), (PT_CUBIC, 2)])
def test_every_target_is_an_admitted_hop_without_refusals(spec, n):
    # the first anchor tried is admitted everywhere, the decay sectors
    # included, where ranking by the chord's envelope ridge refused 15, 15
    # and 30 hops
    ev = EigenfunctionEvaluator(solve_eigenpair(spec, n))
    ev.eval(0j)  # builds the anchor skeleton
    built = dict(ev.counts)
    zs = _hop_targets(ev, 10 * spec.ell + n)
    assert [ev.eval(z).z for z in zs] == zs
    assert ev.counts["hops"] - built["hops"] == len(zs)
    assert ev.counts["hops_refused"] == built["hops_refused"] == 0


def test_every_anchor_tier_reaches_the_arc_construction():
    # points of (3,1) n = 10 near the real axis in its two decay sectors,
    # where each of the 24 nearest anchors estimates its hop over budget:
    # every anchor is estimated, tried in the reference's order, and the
    # state agrees with the ray-recessive solution carried in along a far arc
    ev = EigenfunctionEvaluator(solve_eigenpair(PT_CUBIC, 10))
    ref = _OneAnchorEstimate(ev.pair)
    ev.eval(0j), ref.eval(0j)  # build both skeletons
    ws = [complex(2.3, 0.2), complex(-2.3, 0.2)]
    for w in ws:
        z = w * ev.f
        near = np.argsort(np.abs(ev._anchor_z - z), kind="stable")[:24]
        assert np.all(ev._estimate(z, near)[0] > ev._HOP_BUDGET), w
        assert list(ev._hop_order(z)) == list(ref._order_one(z)), w
    estimated = []
    estimate = ev._estimate
    ev._estimate = lambda z, idx: estimated.append(len(idx)) or estimate(z, idx)
    _assert_states_match_the_arc_construction(ev, ws)
    # per point: its 24 nearest, then every anchor (and one first tier for
    # each of the ray points the construction compares against)
    assert estimated.count(len(ev._anchors)) == len(ws)


def test_refused_hops_stay_rare_in_criterion_7s_window():
    # (4,1) n = 10 in criterion 7's window: 1 refused hop of 558 admitted
    # (ranking by the chord's envelope ridge refused 64 of 555)
    ev = EigenfunctionEvaluator(solve_eigenpair(ProblemSpec(4, 1), 10))
    assert locate_zeros(rescale(ev), (-1.6, 1.6, -1.6, 1.6), resolution=0.015).total_count == 40
    assert ev.counts["hops_refused"] <= 0.01 * ev.counts["hops"]


def test_non_finite_point_raises():
    ev = EigenfunctionEvaluator(solve_eigenpair(ProblemSpec(4, 1), 1))
    for z in (complex(math.nan, 0.0), complex(0.3, math.inf)):
        message = re.escape(f"waypoint z={z!r} is not finite")
        with pytest.raises(DomainError, match=message):
            ev.eval(z)
        with pytest.raises(DomainError, match=message):
            ev.eval_edge([0.1 + 0.2j, z])


@pytest.mark.parametrize("spec, n", [(ProblemSpec(4, 1), 1), (QUARTIC, 3)])
def test_point_states_do_not_depend_on_order(spec, n):
    pair = solve_eigenpair(spec, n)
    ahead, behind = EigenfunctionEvaluator(pair), EigenfunctionEvaluator(pair)
    zs = _hop_targets(ahead, n)[::3]  # 67 points
    asked = zs + zs[::5] + [zs[0], zs[3]]  # with repeats
    got = [ahead.eval(z) for z in asked]
    assert repr(got) == repr([behind.eval(z) for z in reversed(asked)][::-1])
    # nothing is kept per point: every point asked for is evaluated, repeats too
    assert ahead.counts["points"] == behind.counts["points"] == len(asked)
    # a chain's first sample is an anchored hop
    resc, edge = rescale(ahead), rescale(EigenfunctionEvaluator(pair))
    for z in zs[:12]:
        w = z / resc.f
        assert repr(edge.edge_states([w])[0]) == repr(resc.state(w)), w


def _record_hops(ev):
    """Record every hop of ``ev`` from now on, in order, as (the state it
    starts from, whether that is a skeleton anchor, target, budget, state
    reached or None, measured loss)."""
    ev._build_skeleton()
    anchor_ids = {id(a) for a in ev._anchors}
    hop = ev._monitored_hop
    log = []

    def recording(st, z, budget):
        got = hop(st, z, budget)
        state, loss = (None, None) if got is None else got
        log.append((st, id(st) in anchor_ids, z, budget, state, loss))
        return got

    ev._monitored_hop = recording
    return log


def _assert_chains_share_one_hop_budget(ev, log):
    """Each hop from a skeleton anchor gets the whole hop budget and each
    link what its chain has left, so no chain's summed measured divergence
    exceeds one hop's budget.  Returns the admitted links as (z, state)."""
    spent = {}  # id of each state reached -> summed loss of its chain
    links = []
    for st, from_anchor, z, budget, got, loss in log:
        before = 0.0 if from_anchor else spent[id(st)]
        assert budget == pytest.approx(ev._HOP_BUDGET - before, abs=1e-12)
        if got is not None:
            spent[id(got)] = before + loss
            assert spent[id(got)] <= ev._HOP_BUDGET
            if not from_anchor:
                links.append((z, got))
    return links


def _assert_links_match_anchored_evaluation(pair, links):
    fresh = EigenfunctionEvaluator(pair)
    for z, got in links:
        want = fresh.eval(z)
        assert got.z == want.z
        assert abs(got.log_abs_y() - want.log_abs_y()) <= 1e-9, z
        assert abs(wrap_angle(cmath.phase(got.y) - cmath.phase(want.y))) <= 1e-9, z


@pytest.mark.parametrize("spec, n, zeros", [(ProblemSpec(4, 1), 10, 40), (QUARTIC, 10, 10)])
def test_chained_edge_states_match_anchored_evaluation(spec, n, zeros):
    # every chained boundary state of the zero sets: the PT quartic in
    # criterion 7's window, and real strips of (4,2) as criterion 10 takes
    # them; with each boundary segment sampled once, one strip makes fewer
    # than 1,000 links, so a second, taller strip is added
    pair = solve_eigenpair(spec, n)
    ev = EigenfunctionEvaluator(pair)
    log = _record_hops(ev)
    resc = rescale(ev)
    if spec.ell == 1:
        windows, resolution = [(-1.6, 1.6, -1.6, 1.6)], 0.015
    else:
        lo, hi = resc.real_bracket()
        windows, resolution = [(lo - 0.1, hi + 0.1, -h, h) for h in (0.08, 0.16)], 0.01
    for window in windows:
        assert locate_zeros(resc, window, resolution).total_count == zeros
    links = _assert_chains_share_one_hop_budget(ev, log)
    assert ev.counts["links"] == len(links)
    links = links[:: max(1, len(links) // 1200)]
    assert len(links) >= 1000
    _assert_links_match_anchored_evaluation(pair, links)


def test_edge_chain_reanchors_when_a_link_is_refused():
    # an edge from near the origin into the lower decay sector of the PT
    # quartic: the eigenfunction decays along it at the dominant rate, so
    # links spend the chain's budget and are refused
    pair = solve_eigenpair(ProblemSpec(4, 1), 10)
    ev = EigenfunctionEvaluator(pair)
    log = _record_hops(ev)
    built = dict(ev.counts)  # the skeleton's own seed hops
    a, b = (0.1 - 0.05j) * ev.f, (1.6 - 1.6j) * ev.f
    zs = [a + (b - a) * k / 200 for k in range(201)]
    sts = ev.eval_edge(zs)
    assert [st.z for st in sts] == zs
    assert ev.counts["reanchors"] > 0
    refused = [e for e in log if not e[1] and e[4] is None]
    assert len(refused) == ev.counts["reanchors"]
    links = _assert_chains_share_one_hop_budget(ev, log)
    assert len(links) == ev.counts["links"] > 100
    _assert_links_match_anchored_evaluation(pair, links)
    # nothing is kept per point: a second pass evaluates the edge again,
    # doubling the edge's work, and reproduces every state exactly
    before = dict(ev.counts)
    assert repr(ev.eval_edge(zs)) == repr(sts)
    assert ev.counts == {k: 2 * v - built[k] for k, v in before.items()}


@pytest.mark.parametrize(
    "spec, n", [(ProblemSpec(4, 1), 10), (PT_CUBIC, 10), (ProblemSpec(6, 1), 4)], ids=["(4,1)", "(3,1)", "(6,1)"]
)
def test_sweeps_start_from_the_hop_that_loses_least(spec, n):
    # every anchor of a Stokes-line sweep carries the error its seed hop let
    # grow, and a hop from one of them may let it grow by a whole budget
    # again; seeded by the shortest admitted hop, the first sweep of each of
    # these lost 5.67, 2.08 and 2.74, and a chain from one of (4,1)'s sweep
    # anchors missed the anchored state by 1.2e-9
    ev = EigenfunctionEvaluator(solve_eigenpair(spec, n))
    hop = ev._monitored_hop
    losses = []

    def recording(st, z, budget):
        got = hop(st, z, budget)
        if got is not None:
            losses.append(got[1])
        return got

    ev._monitored_hop = recording
    ev._build_skeleton()
    assert len(losses) == ev.counts["hops"] and ev.counts["hops_refused"] == 0
    assert max(losses) <= 0.1


def test_evaluator_keeps_no_state_per_point():
    # after a zero set in criterion 7's window the only live transport
    # states are the evaluator's anchors (324 of them), not the ~8,000
    # points the winding and the Newton polish asked for
    ev = EigenfunctionEvaluator(solve_eigenpair(ProblemSpec(4, 1), 10))
    zs = locate_zeros(rescale(ev), (-1.6, 1.6, -1.6, 1.6), resolution=0.015)
    assert zs.total_count == 40 and ev.counts["points"] > 5000
    del zs
    gc.collect()
    live = sum(isinstance(o, TransportState) for o in gc.get_objects())
    assert live <= len(ev._anchors) + 10
