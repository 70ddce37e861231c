import cmath
import math

import numpy as np
import pytest

from stokeszeros import polynomials
from stokeszeros.errors import DomainError, RootFindingError
from stokeszeros.polynomials import ComplexPolynomial, roots


def test_evaluate_simple():
    p = ComplexPolynomial([-1, 0, 1])  # z^2 - 1
    assert p(2) == 3
    assert p(1 + 1j) == -1 + 2j


def test_evaluate_cubic_at_i():
    p = ComplexPolynomial([-1, 0, 0, 1j])  # i z^3 - 1
    assert abs(p(1j)) < 1e-15


def test_roots_quadratic():
    got = roots(ComplexPolynomial([-1, 0, 1]))
    assert got == [1 + 0j, -1 + 0j]


def test_roots_cubic_roots_of_minus_i():
    got = roots(ComplexPolynomial([-1, 0, 0, 1j]))
    expected = [cmath.exp(-5j * math.pi / 6), cmath.exp(-1j * math.pi / 6), 1j]
    assert len(got) == 3
    for r, e in zip(got, expected):
        assert abs(r - e) < 1e-12


def test_roots_double():
    got = roots(ComplexPolynomial([4, -4, 1]))
    assert len(got) == 2
    for r in got:
        assert abs(r - 2) < 1e-7


def test_roots_residual_guard_checks_every_root(monkeypatch):
    # one iterate knocked 1e-3 off its root must not pass as a root
    real_aberth = polynomials._aberth

    def moved(p, tol):
        zs = real_aberth(p, tol)
        zs[1] += 1e-3
        return zs

    monkeypatch.setattr(polynomials, "_aberth", moved)
    with pytest.raises(RootFindingError) as info:
        roots(ComplexPolynomial([-1, 0, 0, 1j]))
    assert info.value.residual > 1e-4


def test_roots_constant_rejected():
    with pytest.raises(DomainError):
        roots(ComplexPolynomial([3.0]))


def test_roots_recover_random_factors():
    # expand random linear factors, re-find the factor multiset
    rng = np.random.default_rng(7)
    for _ in range(25):
        deg = int(rng.integers(2, 9))
        pts = []
        while len(pts) < deg:
            cand = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(cand - q) > 1e-2 for q in pts):
                pts.append(cand)
        lead = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        p = ComplexPolynomial(lead * np.poly(pts)[::-1])
        found = roots(p, tol=1e-10)
        assert len(found) == deg
        for target in pts:
            assert min(abs(target - f) for f in found) < 1e-8


def test_roots_against_numpy_cross_check():
    rng = np.random.default_rng(11)
    for _ in range(10):
        coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        p = ComplexPolynomial(list(coeffs))
        mine = sorted(roots(p), key=lambda z: (z.real, z.imag))
        ref = sorted(np.roots(coeffs[::-1]), key=lambda z: (z.real, z.imag))
        for a, b in zip(mine, ref):
            assert abs(a - b) < 1e-7


def test_taylor_shift():
    p = ComplexPolynomial([-1, 0, 1])
    assert p.taylor_coefficients(3) == [8 + 0j, 6 + 0j, 1 + 0j]
    q = ComplexPolynomial([1j, 2, 0, -1])
    z0 = 0.3 - 0.7j
    shifted = q.taylor_coefficients(z0)
    for t in (0.1, -0.2 + 0.4j):
        direct = q(z0 + t)
        via = sum(c * t**k for k, c in enumerate(shifted))
        assert abs(direct - via) < 1e-13 * (1 + abs(direct))

