"""Scale-safe transport of solutions of y'' = W(z) y along complex paths.

W is a polynomial, so each integration step can use an exact local Taylor
recurrence instead of a Runge-Kutta tableau: with W(z0 + t) = sum b_j t^j the
solution coefficients obey

    c_{k+2} = ( sum_{j<=min(k,m)} b_j c_{k-j} ) / ((k+1)(k+2)).

High order (~40 terms) lets a step cover several local wavelengths at
~1e-14 truncation, and the series doubles as dense output: watchers read
the solution anywhere inside a step, to count zeros along a path or to
monitor a hop's modulus between its ends.  Solutions reach magnitudes far
beyond floating-point range, so a state carries (mantissa y, mantissa y',
accumulated log scale); the true solution is  y * exp(log_scale).

A step runs generated straight-line code: the recurrence unrolled for the
field's degree m, and the Horner sums of y and y' unrolled for the order.
Each kernel is built once, on the first step that needs it, and performs
the plain loops' floating-point operations in their order, so its results
are bit-identical to theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import IntegrationError
from .polynomials import ComplexPolynomial, _compile

__all__ = ["TransportState", "TaylorStep", "transport", "transport_states"]

_ORDER = 40  # Taylor terms per step
_TOL = 1e-14  # truncation tolerance relative to the local solution scale
_MAX_STEPS = 2_000_000
_PHASE_CAP = 4.0  # max local phase advance per step, keeps |series|/|y| modest


@dataclass
class TransportState:
    """Solution data at a point: true values are (y, dy) * exp(log_scale)."""

    z: complex
    y: complex
    dy: complex
    log_scale: float = 0.0

    def log_abs_y(self) -> float:
        if self.y == 0:
            return -math.inf
        return math.log(abs(self.y)) + self.log_scale

    def value(self) -> complex:
        """True y; overflows for |log_scale| beyond float range."""
        return self.y * math.exp(self.log_scale)


class TaylorStep:
    """One accepted step, exposed to watchers for dense output.

    ``coeffs`` are the local solution series in the complex displacement
    from ``z0``; values share the mantissa scale ``log_scale`` that was in
    effect at the start of the step.
    """

    __slots__ = ("z0", "dz", "coeffs", "log_scale")

    def __init__(self, z0: complex, dz: complex, coeffs: list, log_scale: float):
        self.z0 = z0
        self.dz = dz
        self.coeffs = coeffs
        self.log_scale = log_scale

    def value_at(self, frac: float) -> complex:
        return _sum_kernel(len(self.coeffs) - 1)[0](self.coeffs, self.dz * frac)


@lru_cache(maxsize=None)
def _series_kernel(m: int, order: int):
    """``series(b, y, dy)``: the recurrence for field degree m, unrolled.

    Each coefficient is one expression that starts its sum at ``0j`` and
    divides by the integer (k+1)(k+2), as the plain loop does.
    """
    bs = "".join(f"b{j}, " for j in range(m + 1))
    lines = ["def series(b, c0, c1):", f"    {bs}= b"]
    for k in range(order - 1):
        terms = "".join(f" + b{j} * c{k - j}" for j in range(min(k, m) + 1))
        lines.append(f"    c{k + 2} = (0j{terms}) / {(k + 1) * (k + 2)}")
    lines.append(f"    return [{', '.join(f'c{k}' for k in range(order + 1))}]")
    return _compile(lines, "series")[0]


@lru_cache(maxsize=None)
def _sum_kernel(order: int) -> tuple:
    """``(value, advance)``: Horner sums of a series of the given order, unrolled.

    ``value(c, t)`` is the series at t; ``advance(c, t)`` is the series and
    its derivative there.  Both sums start at ``0j`` and the derivative's
    terms are ``k * c_k``, as in the plain loops.
    """
    cs = "".join(f"c{k}, " for k in range(order + 1))
    y = dy = "0j"
    for k in range(order, 0, -1):
        y = f"({y}) * t + c{k}"
        dy = f"({dy}) * t + {k} * c{k}"
    y = f"({y}) * t + c0"
    lines = [
        "def value(c, t):", f"    {cs}= c", f"    return {y}",
        "def advance(c, t):", f"    {cs}= c", f"    return {y}, {dy}",
    ]
    return _compile(lines, "value", "advance")


def _series(bcoeffs: list, y: complex, dy: complex, order: int) -> list:
    return _series_kernel(len(bcoeffs) - 1, order)(bcoeffs, y, dy)


def transport(
    field: ComplexPolynomial,
    path,
    y: complex,
    dy: complex,
    log_scale: float = 0.0,
    watcher=None,
) -> TransportState:
    """Transport (y, y') along a polyline under y'' = W(z) y.

    Parameters
    ----------
    field : ComplexPolynomial
        The coefficient field W.
    path : sequence of complex
        Waypoints; integration follows the straight segments between them.
    y, dy : complex
        Initial data at ``path[0]``.
    log_scale : float
        Initial accumulated log-magnitude (the true solution is
        ``y * exp(log_scale)``).
    watcher : callable, optional
        Called with each accepted :class:`TaylorStep` before the state
        advances over it.  A watcher may raise to abort the transport: the
        exception propagates to the caller and no state is returned.

    Returns
    -------
    TransportState at the final waypoint.
    """
    state = TransportState(complex(path[0]), complex(y), complex(dy), float(log_scale))
    series = _series_kernel(field.degree, _ORDER)
    advance = _sum_kernel(_ORDER)[1]
    steps = 0
    for target in path[1:]:
        target = complex(target)
        seg = target - state.z
        length = abs(seg)
        if length <= 2e-14 * (1.0 + abs(state.z)):
            state.z = target
            continue
        direction = seg / length
        travelled = 0.0
        while travelled < length:
            remaining = length - travelled
            bc = field.taylor_coefficients(state.z)
            kappa = 0.0
            for j, b in enumerate(bc):
                mag = abs(b)
                if mag > 0:
                    kappa = max(kappa, mag ** (1.0 / (j + 2)))
            cap = _PHASE_CAP / kappa if kappa > 0 else remaining
            coeffs = series(bc, state.y, state.dy)

            h = min(remaining, cap)
            scale_ref = abs(coeffs[0]) + abs(coeffs[1]) * h + 1e-300
            for k in range(_ORDER, _ORDER - 3, -1):
                mk = abs(coeffs[k])
                if mk > 0:
                    r = (_TOL * scale_ref / mk) ** (1.0 / k)
                    h = min(h, 0.9 * r)
            if h <= 1e-14 * (1.0 + abs(state.z)):
                raise IntegrationError(
                    f"step underflow at z={state.z:.6g} (h={h:.3g})"
                )
            h = min(h, remaining)

            dz = direction * h
            if watcher is not None:
                watcher(TaylorStep(state.z, dz, coeffs, state.log_scale))

            acc, dacc = advance(coeffs, dz)

            travelled += h
            state.z = state.z + dz if travelled < length else target
            state.y = acc
            state.dy = dacc
            mag = max(abs(acc), abs(dacc))
            if mag > 0 and (mag > 1e8 or mag < 1e-8):
                state.y /= mag
                state.dy /= mag
                state.log_scale += math.log(mag)

            steps += 1
            if steps > _MAX_STEPS:
                raise IntegrationError(
                    f"transport exceeded its budget of {_MAX_STEPS} steps at z={state.z:.6g}"
                )
    return state


def transport_states(field: ComplexPolynomial, path, y, dy) -> list:
    """Like :func:`transport` but records the state at every waypoint."""
    out = [TransportState(complex(path[0]), complex(y), complex(dy))]
    state = out[0]
    for target in path[1:]:
        state = transport(field, [state.z, target], state.y, state.dy, state.log_scale)
        out.append(TransportState(state.z, state.y, state.dy, state.log_scale))
    return out
