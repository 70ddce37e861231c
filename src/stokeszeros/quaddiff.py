"""The quadratic differentials ((-1)^l (iz)^d - 1) dz^2 and their trajectories.

A vertical trajectory is a curve along which Q(z) dz^2 < 0; under any branch
of zeta = int sqrt(Q) dz it maps to a vertical line.  The tracer follows the
unit-speed direction field i * conj(w)/|w| with w a continuously tracked
branch of sqrt(Q), so Re(zeta) is conserved up to integration error and
Im(zeta) grows strictly monotonically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import DomainError, TraceError
from .geometry import wrap_angle
from .polynomials import ComplexPolynomial, roots

__all__ = [
    "QuadDiff",
    "check_family",
    "build_quad_diff",
    "turning_points",
    "min_separation",
    "StokesDirections",
    "stokes_directions",
    "TraceCaps",
    "StokesLine",
    "trace_trajectory",
    "launch_directions",
]


@dataclass(frozen=True)
class QuadDiff:
    """Coefficient polynomial of a quadratic differential Q(z) dz^2."""

    d: int
    ell: int
    polynomial: ComplexPolynomial

    def __call__(self, z: complex) -> complex:
        return self.polynomial(z)


def check_family(d: int, ell: int) -> None:
    """Raise DomainError unless d >= 2 and 1 <= ell <= d - 1."""
    if d < 2 or not 1 <= ell <= d - 1:
        raise DomainError(
            f"invalid (d, ell) = ({d}, {ell}): need d >= 2 and 1 <= ell <= d - 1"
        )


def _leading_coefficient(d: int, ell: int) -> complex:
    """(-1)^ell i^d, the leading coefficient of (-1)^ell (iz)^d."""
    # i^d cycles over {1, i, -1, -i}; keep it exact
    return (1 + 0j, 1j, -1 + 0j, -1j)[d % 4] * (-1) ** ell


def build_quad_diff(d: int, ell: int) -> QuadDiff:
    """The differential ((-1)^ell (iz)^d - 1) dz^2, d >= 2, 1 <= ell <= d - 1."""
    check_family(d, ell)
    coeffs = [0j] * (d + 1)
    coeffs[0] = -1 + 0j
    coeffs[d] = _leading_coefficient(d, ell)
    return QuadDiff(d, ell, ComplexPolynomial(coeffs))


@lru_cache(maxsize=64)
def _turning_points_cached(coeffs: tuple) -> tuple:
    return tuple(roots(ComplexPolynomial(list(coeffs)), tol=1e-13))


def turning_points(q: QuadDiff) -> list:
    """Zeros of Q, sorted by argument (ties by modulus)."""
    return list(_turning_points_cached(q.polynomial.coefficients))


def min_separation(tps) -> float:
    """Smallest distance between two turning points; max(1, max |v|) for one."""
    if len(tps) > 1:
        return min(abs(a - b) for i, a in enumerate(tps) for b in tps[i + 1 :])
    return max(1.0, max(abs(v) for v in tps))


@dataclass(frozen=True)
class StokesDirections:
    """Asymptotic directions of the Stokes geometry at infinity."""

    stokes: tuple
    boundary_rays: tuple  # (left ray toward omega-, right ray toward omega+)


def stokes_directions(d: int, ell: int) -> StokesDirections:
    """Stokes directions and the two boundary rays.

    The d+2 Stokes directions are theta_k = -pi/2 + pi (ell + 2k)/(d+2).
    The boundary rays -pi/2 +/- (ell+1) pi/(d+2) are the anti-Stokes
    directions (bisecting adjacent Stokes directions) along which solutions
    are required to decay.
    """
    check_family(d, ell)
    n = d + 2
    stokes = tuple(wrap_angle(-math.pi / 2 + math.pi * (ell + 2 * k) / n) for k in range(n))
    right = wrap_angle(-math.pi / 2 + (ell + 1) * math.pi / n)
    left = wrap_angle(-math.pi / 2 - (ell + 1) * math.pi / n)
    return StokesDirections(stokes, (left, right))


def launch_directions(q: QuadDiff, v: complex) -> list:
    """Tangent angles of the three Stokes lines at a simple turning point.

    Near v the local expansion Q ~ Q'(v)(z - v) puts the line tangents at
    the solutions of arg Q'(v) + 3 phi = pi (mod 2 pi).
    """
    dq = q.polynomial.derivative()(v)
    if dq == 0:
        raise DomainError("turning point is not simple")
    base = (math.pi - cmath.phase(dq)) / 3.0
    return [wrap_angle(base + 2 * math.pi * k / 3.0) for k in range(3)]


@dataclass(frozen=True)
class TraceCaps:
    """Scale-aware limits for a trajectory trace."""

    escape_radius: float
    capture_radius: float
    launch_offset: float
    max_arclength: float

    @staticmethod
    def for_diff(q: QuadDiff) -> "TraceCaps":
        tps = turning_points(q)
        rmax = max(abs(v) for v in tps)
        escape = 10.0 * rmax + 10.0
        return TraceCaps(
            escape_radius=escape,
            capture_radius=1e-3 * min_separation(tps),
            launch_offset=1e-6 * max(1.0, rmax),
            max_arclength=6.0 * escape + 20.0,
        )


@dataclass
class StokesLine:
    """A traced Stokes line (trajectory with an end at a turning point).

    ``steps`` counts the tracer's accepted steps and ``rejected`` the
    attempts it refused and retried with a shorter step.
    """

    origin: int
    samples: list
    terminal: Optional[int]  # turning-point index, or None for infinity
    terminal_angle: Optional[float]  # asymptotic Stokes direction if unbounded
    launch_angle: float
    is_short: bool
    is_exceptional: bool = False
    re_zeta_drift: float = 0.0
    steps: int = 0
    rejected: int = 0


_STEP_TOL = 1e-10  # local error per unit step of the trajectory tracer

# Dormand-Prince 5(4) tableau; the direction field is autonomous, so no c
# nodes.  The zero entries a72, b2 and b7 have no terms below.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
# the seventh stage sits at the fifth-order solution: a7j = b5j
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40


def trace_trajectory(q: QuadDiff, start: complex, initial_direction: float) -> StokesLine:
    """Trace one vertical trajectory until capture or escape.

    The integrator is Dormand-Prince 5(4) on the unit direction field
    i conj(w)/|w|, w the branch of sqrt(Q) continued stage to stage.  Its
    seventh stage sits at the new point, so it is the next step's first
    stage (first same as last), and its w is the branch the step ends on:
    an accepted step evaluates sqrt(Q) 7 times, six stages and the midpoint
    of the Simpson rule that integrates Re(zeta) along the chord.  A stage
    that lands exactly on a turning point (w = 0) refuses the attempt.

    Parameters
    ----------
    q : QuadDiff
    start : complex
        A turning point (a launch offset is applied internally) or a
        regular point on the trajectory.
    initial_direction : float
        Tangent angle at the start; for a turning point this should be one
        of :func:`launch_directions`.

    Returns
    -------
    StokesLine
        With ``terminal`` the index of the captured turning point, or None
        plus the matched asymptotic Stokes direction when unbounded.  The
        escape/capture/step limits are :meth:`TraceCaps.for_diff` of q.
    """
    caps = TraceCaps.for_diff(q)
    tps = turning_points(q)
    dirs = stokes_directions(q.d, q.ell).stokes
    top_down = q.polynomial.coefficients[::-1]
    sqrt = cmath.sqrt

    def root(z, ref):
        # Horner as ComplexPolynomial.__call__, then the sign nearest ref
        acc = 0j
        for c in top_down:
            acc = acc * z + c
        w = sqrt(acc)
        return -w if abs(w - ref) > abs(w + ref) else w

    # launch: offset away from a turning point along the requested tangent
    start = complex(start)
    tangent = cmath.exp(1j * initial_direction)
    origin = None
    z = start
    for idx, v in enumerate(tps):
        if abs(start - v) <= 1e-9 * max(1.0, abs(v)):
            z = v + caps.launch_offset * tangent
            origin = idx
            break

    w_cur = sqrt(q(z))
    if (1j * w_cur.conjugate() / abs(w_cur) / tangent).real < 0:
        w_cur = -w_cur
    k1 = 1j * w_cur.conjugate() / abs(w_cur)

    samples = [z]
    zeta_re_drift = 0.0
    arclength = 0.0
    h = max(caps.launch_offset, 1e-6)
    terminal = None
    terminal_angle = None
    steps = rejected = 0
    # the launch point sits inside its own capture disc; arm it after leaving
    origin_armed = origin is None

    def nearest_tp(pt):
        best, best_d = -1, math.inf
        for i, v in enumerate(tps):
            dist = abs(pt - v)
            if dist < best_d:
                best, best_d = i, dist
        return best, best_d

    _, dist = nearest_tp(z)

    max_steps = 400_000
    for _ in range(max_steps):
        h = min(h, 0.25 * dist, 0.35)
        if h < 1e-15 * (1 + abs(z)):
            raise TraceError("step underflow near a singular point", partial=samples)

        # one adaptive DP5(4) attempt; |w| = 0 divides by zero and refuses it
        while True:
            try:
                w = root(z + h * _A21 * k1, w_cur)
                k2 = 1j * w.conjugate() / abs(w)
                w = root(z + h * _A31 * k1 + h * _A32 * k2, w)
                k3 = 1j * w.conjugate() / abs(w)
                w = root(z + h * _A41 * k1 + h * _A42 * k2 + h * _A43 * k3, w)
                k4 = 1j * w.conjugate() / abs(w)
                w = root(z + h * _A51 * k1 + h * _A52 * k2 + h * _A53 * k3 + h * _A54 * k4, w)
                k5 = 1j * w.conjugate() / abs(w)
                w = root(
                    z + h * _A61 * k1 + h * _A62 * k2 + h * _A63 * k3 + h * _A64 * k4 + h * _A65 * k5,
                    w,
                )
                k6 = 1j * w.conjugate() / abs(w)
                z5 = z + h * _B1 * k1 + h * _B3 * k3 + h * _B4 * k4 + h * _B5 * k5 + h * _B6 * k6
                w7 = root(z5, w)
                k7 = 1j * w7.conjugate() / abs(w7)
            except ZeroDivisionError:
                rejected += 1
                h *= 0.3
                continue
            z4 = z + h * _E1 * k1 + h * _E3 * k3 + h * _E4 * k4 + h * _E5 * k5 + h * _E6 * k6 + h * _E7 * k7
            err = abs(z5 - z4)
            tol = _STEP_TOL * max(h, 1e-3)
            if err <= tol or h <= 1e-13 * (1 + abs(z)):
                break
            rejected += 1
            h *= max(0.2, min(0.9 * (tol / max(err, 1e-300)) ** 0.2, 0.8))

        # accepted: w7 is the branch at z5; a Simpson phase check on the chord
        w_mid = root(0.5 * (z + z5), w_cur)
        dzeta = (w_cur + 4 * w_mid + w7) / 6.0 * (z5 - z)
        zeta_re_drift += dzeta.real
        z, w_cur, k1 = z5, w7, k7
        arclength += h
        steps += 1
        samples.append(z)

        grow = 0.9 * (tol / max(err, 1e-300)) ** 0.2
        h = h * max(0.3, min(grow, 4.0))

        idx, dist = nearest_tp(z)
        if not origin_armed and (idx != origin or dist > 5 * caps.capture_radius):
            origin_armed = True
        if dist <= caps.capture_radius and (origin_armed or idx != origin):
            terminal = idx
            samples.append(tps[idx])
            break
        if abs(z) >= caps.escape_radius:
            ang = cmath.phase(z)
            best = min(dirs, key=lambda t: abs(wrap_angle(ang - t)))
            if abs(wrap_angle(ang - best)) > math.radians(5.0):
                raise TraceError(
                    f"escape angle {ang:.4f} matches no Stokes direction",
                    partial=samples,
                )
            terminal_angle = best
            break
        if arclength > caps.max_arclength:
            raise TraceError("trace exceeded arclength cap", partial=samples)
    else:
        raise TraceError("trace exceeded step budget", partial=samples)

    return StokesLine(
        origin=origin if origin is not None else -1,
        samples=samples,
        terminal=terminal,
        terminal_angle=terminal_angle,
        launch_angle=initial_direction,
        is_short=terminal is not None,
        re_zeta_drift=zeta_re_drift,
        steps=steps,
        rejected=rejected,
    )
