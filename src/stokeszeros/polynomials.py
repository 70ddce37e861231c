"""Complex polynomials and simultaneous root finding.

The polynomial type is deliberately minimal: evaluation, differentiation,
Taylor coefficients and root finding are all the rest of the package
needs.  Roots are found with an Aberth-Ehrlich simultaneous iteration from a
deterministic circular initial placement, so repeated runs give identical
output; a multiple root is returned as that many nearby iterates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import DomainError, RootFindingError

__all__ = [
    "ComplexPolynomial",
    "roots",
]


def _compile(lines: list, *names: str, **env):
    """The functions ``names`` defined by the generated source ``lines``,
    whose globals are ``env``."""
    namespace = dict(env)
    exec("\n".join(lines), namespace)
    return tuple(namespace[name] for name in names)


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

    def derivative(self) -> "ComplexPolynomial":
        coeffs = [k * c for k, c in enumerate(self.coefficients)][1:] or [0j]
        return ComplexPolynomial(coeffs)

    def taylor_coefficients(self, z0: complex) -> list:
        """Coefficients of p(z0 + t) in t, by repeated synthetic division."""
        return _taylor_shift(self.degree)(self.coefficients, z0)

    def scaled_magnitude(self, z: complex) -> float:
        """Sum of |c_i||z|^i, a roundoff scale for residual tests."""
        r = abs(z)
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * r + abs(c)
        return acc


def _shift_lines(m: int) -> tuple:
    """Repeated synthetic division for degree m, as function-body source.

    The lines unpack the tuple ``p`` into p0..pm and divide by (z - z0)
    again and again, each remainder being the next coefficient of
    p(z0 + t); each pass forms ``acc = p_i + z0 * acc`` from the top
    coefficient down, as the plain loop does.  Returns the lines and the
    names of the coefficients of p(z0 + t), constant term first.
    """
    work = [f"p{i}" for i in range(m + 1)]
    lines = ["    " + "".join(f"{w}, " for w in work) + "= p"]
    out = []
    while len(work) > 1:
        # one pass: acc runs down from the top, and the quotient keeps its values
        acc = [work[-1]]
        for i in range(len(work) - 2, -1, -1):
            acc.append(f"a{len(out)}_{i}")
            lines.append(f"    {acc[-1]} = {work[i]} + z0 * {acc[-2]}")
        out.append(acc.pop())
        work = acc[::-1]
    out.append(work[0])
    return lines, out


@lru_cache(maxsize=None)
def _taylor_shift(m: int):
    """``shift(p, z0)``: the coefficients of p(z0 + t) for degree m, as
    straight-line code (:func:`_shift_lines`).  Built once per degree, on
    first use."""
    body, out = _shift_lines(m)
    lines = ["def shift(p, z0):", *body, f"    return [{', '.join(out)}]"]
    return _compile(lines, "shift")[0]


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
    """All roots of ``p``, by Aberth-Ehrlich iteration and a Newton polish.

    Parameters
    ----------
    p : ComplexPolynomial
        Polynomial of degree >= 1.
    tol : float
        Residual tolerance relative to the local coefficient scale.

    Returns
    -------
    list of complex
        ``p.degree`` roots, sorted by argument in (-pi, pi], ties by
        modulus.  A root of multiplicity m appears m times, as m nearby
        iterates.

    Raises
    ------
    DomainError
        If the polynomial is constant.
    RootFindingError
        If the iteration stalls or a root's residual exceeds 100 times the
        tolerance; carries the best iterates and the residual.
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

    found = _aberth(work, tol) if work.degree >= 1 else []
    for r in found:
        resid = abs(work(r))
        if resid > 100 * max(tol * work.scaled_magnitude(r), 1e-300):
            raise RootFindingError(
                "root residual above tolerance", best_roots=[r], residual=resid
            )
    found += [0j] * zero_mult
    found.sort(key=_arg_key)
    return found


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

