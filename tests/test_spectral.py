import cmath
import math

import numpy as np
import pytest

from stokeszeros.errors import DomainError
from stokeszeros.polynomials import ComplexPolynomial
from stokeszeros.spectral import (
    EigenfunctionEvaluator,
    ProblemSpec,
    ShootingFrame,
    envelope_deviation,
    find_eigenvalues,
    integrate_ode,
    miss_function,
    miss_surrogate,
    rescale,
    solve_eigenpair,
    wkb_seed,
)
from stokeszeros.stokescomplex import stokes_complex
from stokeszeros.wkb import PhaseIntegral

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


def test_integrate_ode_cosh():
    states = integrate_ode(ComplexPolynomial([1.0]), 1.0, [0.0, 1.0], (1.0, 0.0))
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
    states = integrate_ode(ComplexPolynomial([0.0, 1.0]), 1.0, [0.0, 1.0], (1.0, 0.0))
    assert abs(states[-1].value() - oracle) < 1e-12
    assert abs(oracle - 1.1723000) < 1e-6


def test_integrate_ode_harmonic_gaussian():
    # y'' = (z^2 - 1) y transported from the normalized ground data
    states = integrate_ode(
        ComplexPolynomial([-1.0, 0.0, 1.0]), 1.0, [0.0, 3.0], (1.0, 0.0)
    )
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
    a = miss_surrogate(HARMONIC, 0.8)
    b = miss_surrogate(HARMONIC, 1.2)
    assert a * b < 0


def test_miss_function_analytic_in_lambda():
    # Cauchy-Riemann residual of finite differences at non-eigenvalue points
    frame = ShootingFrame.for_scale(HARMONIC, 6.0)
    rng = np.random.default_rng(2)
    for _ in range(3):
        lam = complex(rng.uniform(4.0, 8.0), rng.uniform(-0.5, 0.5))
        d = 1e-5 * (1 + abs(lam))
        fx = (miss_function(HARMONIC, lam + d, frame) - miss_function(HARMONIC, lam - d, frame)) / (2 * d)
        fy = (miss_function(HARMONIC, lam + 1j * d, frame) - miss_function(HARMONIC, lam - 1j * d, frame)) / (2j * d)
        assert abs(fx - fy) < 1e-5 * (1 + abs(fx))


def test_harmonic_spectrum_exact():
    pairs = find_eigenvalues(HARMONIC, range(5))
    for n, p in enumerate(pairs):
        assert abs(p.lam - (2 * n + 1)) < 1e-8 * (2 * n + 1)
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
    frame = ShootingFrame.for_scale(HARMONIC, abs(lam))
    left, right = HARMONIC.boundary_rays
    field = HARMONIC.shifted_field(lam).coefficients
    from stokeszeros.transport import transport

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
    pair = solve_eigenpair(QUARTIC, 3)
    ev = EigenfunctionEvaluator(pair)
    rng = np.random.default_rng(4)
    for _ in range(4):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
        assert ev.residual(z) < 1e-6


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


def test_rescale_hermite_zero_positions():
    # H2 zeros at +/- 1/sqrt(2); lambda_2 = 5
    pair = solve_eigenpair(HARMONIC, 2)
    resc = rescale(EigenfunctionEvaluator(pair))
    target = 1 / math.sqrt(10)
    st = resc.eval(target)
    assert abs(st.y) * math.exp(st.log_scale) < 1e-7
    assert abs(resc.eval(0.0).value() - pair.y0) < 1e-12


def test_rescaled_bracket_harmonic():
    pair = solve_eigenpair(HARMONIC, 6)
    resc = rescale(EigenfunctionEvaluator(pair))
    lo, hi = resc.real_bracket()
    assert abs(lo + 1) < 1e-9 and abs(hi - 1) < 1e-9


def test_pt_symmetry_of_rescaled_modulus():
    pair = solve_eigenpair(PT_CUBIC, 4)
    resc = rescale(EigenfunctionEvaluator(pair))
    for w in (0.4 + 0.3j, 1.1 - 0.2j, 0.8j):
        a = resc.eval(w).log_abs_y()
        b = resc.eval(-complex(w).conjugate()).log_abs_y()
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


def test_invalid_spec_rejected():
    with pytest.raises(DomainError):
        ProblemSpec(4, 0)
    with pytest.raises(DomainError):
        ProblemSpec(1, 1)
    with pytest.raises(DomainError):
        solve_eigenpair(HARMONIC, -1)
