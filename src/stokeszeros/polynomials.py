"""Complex polynomials, simultaneous root finding, and Euler Gamma.

The polynomial type is deliberately minimal: evaluation, differentiation,
Taylor coefficients and root finding are all the rest of the package
needs.  Roots are found with an Aberth-Ehrlich simultaneous iteration from a
deterministic circular initial placement, so repeated runs give identical
output.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, RootFindingError

__all__ = [
    "ComplexPolynomial",
    "roots",
    "gamma",
]


@dataclass(frozen=True)
class ComplexPolynomial:
    """Polynomial with complex coefficients in ascending-degree order.

    Trailing zero coefficients are stripped on construction, so ``degree``
    always refers to the true degree (0 for the zero polynomial).
    """

    coefficients: tuple

    def __init__(self, coefficients: Sequence[complex]):
        coeffs = [complex(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0j]
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: complex) -> complex:
        """Evaluate by a single Horner pass."""
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def derivative(self, order: int = 1) -> "ComplexPolynomial":
        coeffs = list(self.coefficients)
        for _ in range(order):
            coeffs = [k * c for k, c in enumerate(coeffs)][1:] or [0j]
        return ComplexPolynomial(coeffs)

    def taylor_coefficients(self, z0: complex) -> list:
        """Coefficients of p(z0 + t) in t, by repeated synthetic division."""
        work = list(self.coefficients)
        out = []
        while True:
            if len(work) == 1:
                out.append(work[0])
                break
            acc = work[-1]
            quot = [0j] * (len(work) - 1)
            for i in range(len(work) - 2, -1, -1):
                quot[i] = acc
                acc = work[i] + z0 * acc
            out.append(acc)
            work = quot
        return out

    def scaled_magnitude(self, z: complex) -> float:
        """Sum of |c_i||z|^i, a roundoff scale for residual tests."""
        r = abs(z)
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * r + abs(c)
        return acc


def _arg_key(z: complex) -> tuple:
    """Sort key (argument, modulus) with snapping of tiny imaginary parts.

    Keeps the reported ordering stable when a real root picks up a
    last-bit imaginary perturbation of either sign.
    """
    re, im = z.real, z.imag
    if abs(im) <= 1e-12 * max(1.0, abs(re)):
        ang = 0.0 if re >= 0 else math.pi
    else:
        ang = math.atan2(im, re)
    return (ang, abs(z))


def roots(p: ComplexPolynomial, tol: float = 1e-12) -> list:
    """All roots of ``p`` with multiplicities, by Aberth-Ehrlich iteration.

    Parameters
    ----------
    p : ComplexPolynomial
        Polynomial of degree >= 1.
    tol : float
        Residual tolerance relative to the local coefficient scale.

    Returns
    -------
    list of (root, multiplicity)
        Sorted by argument in (-pi, pi], ties by modulus.  Multiplicities
        sum to the degree.

    Raises
    ------
    DomainError
        If the polynomial is constant.
    RootFindingError
        If the iteration stalls; carries the best iterate.
    """
    if p.degree < 1:
        raise DomainError("root finding requires degree >= 1")

    coeffs = list(p.coefficients)
    # deflate exact zero roots
    zero_mult = 0
    while coeffs[0] == 0 and len(coeffs) > 1:
        coeffs.pop(0)
        zero_mult += 1
    work = ComplexPolynomial(coeffs)
    n = work.degree

    found: list = []
    if n >= 1:
        found = _aberth(work, tol)
    clustered = _cluster(work, found, tol)
    if zero_mult:
        clustered.append((0j, zero_mult))
    clustered.sort(key=lambda rm: _arg_key(rm[0]))
    return clustered


def _aberth(p: ComplexPolynomial, tol: float) -> list:
    n = p.degree
    cd = p.coefficients[-1]
    c0 = p.coefficients[0]
    # deterministic circle of initial guesses; slight angular offset avoids
    # symmetric stalls for real-coefficient inputs
    radius = max(abs(c0 / cd) ** (1.0 / n), 1e-3)
    radius = min(radius, 1.0 + max(abs(c / cd) for c in p.coefficients[:-1]))
    zs = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    dp = p.derivative()

    for _ in range(400):
        max_step = 0.0
        for k in range(n):
            zk = zs[k]
            pv = p(zk)
            if pv == 0:
                continue
            dv = dp(zk)
            if dv == 0:
                zs[k] = zk * (1 + 1e-8) + 1e-8
                max_step = math.inf
                continue
            newton = pv / dv
            s = 0j
            for j in range(n):
                if j != k:
                    diff = zk - zs[j]
                    if diff == 0:
                        diff = 1e-40
                    s += 1.0 / diff
            denom = 1.0 - newton * s
            if denom == 0:
                step = newton
            else:
                step = newton / denom
            zs[k] = zk - step
            max_step = max(max_step, abs(step) / (1.0 + abs(zs[k])))
        if max_step <= 1e-15:
            break
    else:
        resid = max(abs(p(z)) for z in zs)
        if resid > tol * max(p.scaled_magnitude(z) for z in zs):
            raise RootFindingError(
                "Aberth iteration did not converge", best_roots=list(zs), residual=resid
            )

    # final Newton polish (helps simple roots reach machine residuals)
    for k in range(n):
        for _ in range(3):
            pv = p(zs[k])
            dv = dp(zs[k])
            if dv == 0 or pv == 0:
                break
            step = pv / dv
            if abs(step) > 1e-2 * (1 + abs(zs[k])):
                break
            zs[k] = zs[k] - step
    return zs


def _cluster(p: ComplexPolynomial, zs: list, tol: float) -> list:
    """Group near-coincident iterates into multiple roots.

    Tight clusters (1e-8 of the root scale) merge unconditionally; looser
    ones (1e-5) only when low-order derivatives at the centroid are
    consistent with a genuine multiple root.
    """
    n = len(zs)
    if n == 0:
        return []
    scale = max(1.0, max(abs(z) for z in zs))
    tight = 1e-8 * scale
    loose = 1e-5 * scale

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for i in range(n):
        for j in range(i + 1, n):
            d = abs(zs[i] - zs[j])
            if d <= tight:
                union(i, j)

    # candidate loose merges, verified by derivative magnitudes
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    reps = list(groups)
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            ia, ib = groups[reps[a]][0], groups[reps[b]][0]
            if abs(zs[ia] - zs[ib]) <= loose:
                m = len(groups[reps[a]]) + len(groups[reps[b]])
                centroid = sum(zs[i] for i in groups[reps[a]] + groups[reps[b]]) / m
                if _multiplicity_consistent(p, centroid, m, loose):
                    union(ia, ib)
                    groups = {}
                    for i in range(n):
                        groups.setdefault(find(i), []).append(i)
                    reps = list(groups)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    out = []
    for members in groups.values():
        m = len(members)
        centroid = sum(zs[i] for i in members) / m
        if m > 1:
            centroid = _polish_multiple(p, centroid, m)
        resid = abs(p(centroid))
        bound = max(tol * p.scaled_magnitude(centroid), 1e-300)
        if m == 1 and resid > 100 * bound:
            raise RootFindingError(
                "root residual above tolerance", best_roots=[centroid], residual=resid
            )
        out.append((centroid, m))
    return out


def _multiplicity_consistent(p: ComplexPolynomial, c: complex, m: int, radius: float) -> bool:
    dk = p
    fact = 1.0
    lead = p
    for _ in range(m):
        lead = lead.derivative()
    lead_mag = abs(lead(c)) / math.factorial(m)
    if lead_mag == 0:
        return False
    for k in range(m):
        val = abs(dk(c)) / fact
        if val > 10 * lead_mag * math.comb(m, k) * radius ** (m - k):
            return False
        dk = dk.derivative()
        fact *= k + 1
    return True


def _polish_multiple(p: ComplexPolynomial, z: complex, m: int) -> complex:
    """Newton on p^(m-1), where the multiple root is simple."""
    q = p
    for _ in range(m - 1):
        q = q.derivative()
    dq = q.derivative()
    for _ in range(30):
        qv = q(z)
        dv = dq(z)
        if dv == 0:
            break
        step = qv / dv
        z = z - step
        if abs(step) <= 1e-15 * (1 + abs(z)):
            break
    return z


# Lanczos approximation, g = 7, 9 terms; accurate to ~1e-13 relative on the
# positive half line, which covers the handful of rational arguments the
# eigenvalue asymptotics need with margin.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Euler Gamma for positive real argument."""
    if x <= 0:
        raise DomainError("gamma requires a positive argument")
    if x < 0.5:
        # reflection keeps the rational fit on its accurate range
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc
