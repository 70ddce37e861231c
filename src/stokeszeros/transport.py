"""Scale-safe transport of solutions of y'' = W(z) y along complex paths.

W is a polynomial, so each integration step can use an exact local Taylor
recurrence instead of a Runge-Kutta tableau: with W(z0 + t) = sum b_j t^j the
solution coefficients obey

    c_{k+2} = ( sum_{j<=min(k,m)} b_j c_{k-j} ) / ((k+1)(k+2)).

High order (~40 terms) lets a step cover several local wavelengths at
~1e-14 truncation, and the series doubles as dense output for phase
tracking.  Solutions reach magnitudes far beyond floating-point range, so a
state carries (mantissa y, mantissa y', accumulated log scale); the true
solution is  y * exp(log_scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IntegrationError

__all__ = ["TransportState", "TaylorStep", "transport", "transport_states"]

_DEFAULT_ORDER = 40
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
        t = self.dz * frac
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def _series(bcoeffs: list, y: complex, dy: complex, order: int) -> list:
    c = [0j] * (order + 1)
    c[0] = y
    c[1] = dy
    m = len(bcoeffs) - 1
    for k in range(order - 1):
        acc = 0j
        for j in range(min(k, m) + 1):
            acc += bcoeffs[j] * c[k - j]
        c[k + 2] = acc / ((k + 1) * (k + 2))
    return c


def _shift(field: list, z0: complex) -> list:
    """Taylor coefficients of the field polynomial about z0."""
    work = list(field)
    out = []
    while True:
        if len(work) == 1:
            out.append(work[0])
            return out
        acc = work[-1]
        quot = [0j] * (len(work) - 1)
        for i in range(len(work) - 2, -1, -1):
            quot[i] = acc
            acc = work[i] + z0 * acc
        out.append(acc)
        work = quot


def transport(
    field,
    path,
    y: complex,
    dy: complex,
    log_scale: float = 0.0,
    tol: float = 1e-14,
    order: int = _DEFAULT_ORDER,
    watcher=None,
    max_steps: int = 2_000_000,
) -> TransportState:
    """Transport (y, y') along a polyline under y'' = W(z) y.

    Parameters
    ----------
    field : sequence of complex
        Ascending coefficients of W.
    path : sequence of complex
        Waypoints; integration follows the straight segments between them.
    y, dy : complex
        Initial data at ``path[0]``.
    log_scale : float
        Initial accumulated log-magnitude (the true solution is
        ``y * exp(log_scale)``).
    watcher : callable, optional
        Called with each accepted :class:`TaylorStep`.

    Returns
    -------
    TransportState at the final waypoint.
    """
    field = [complex(c) for c in field]
    state = TransportState(complex(path[0]), complex(y), complex(dy), float(log_scale))
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
            bc = _shift(field, state.z)
            kappa = 0.0
            for j, b in enumerate(bc):
                mag = abs(b)
                if mag > 0:
                    kappa = max(kappa, mag ** (1.0 / (j + 2)))
            cap = _PHASE_CAP / kappa if kappa > 0 else remaining
            coeffs = _series(bc, state.y, state.dy, order)

            h = min(remaining, cap)
            scale_ref = abs(coeffs[0]) + abs(coeffs[1]) * min(h, cap) + 1e-300
            for k in range(order, order - 3, -1):
                mk = abs(coeffs[k])
                if mk > 0:
                    r = (tol * scale_ref / mk) ** (1.0 / k)
                    h = min(h, 0.9 * r)
            if h <= 1e-14 * (1.0 + abs(state.z)):
                raise IntegrationError(
                    f"step underflow at z={state.z:.6g} (h={h:.3g})"
                )
            h = min(h, remaining)

            dz = direction * h
            if watcher is not None:
                watcher(TaylorStep(state.z, dz, coeffs, state.log_scale))

            acc = 0j
            dacc = 0j
            for k in range(order, 0, -1):
                acc = acc * dz + coeffs[k]
                dacc = dacc * dz + k * coeffs[k]
            acc = acc * dz + coeffs[0]

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
            if steps > max_steps:
                raise IntegrationError("transport exceeded step budget")
    return state


def transport_states(field, path, y, dy, log_scale: float = 0.0, **kwargs) -> list:
    """Like :func:`transport` but records the state at every waypoint."""
    out = [TransportState(complex(path[0]), complex(y), complex(dy), float(log_scale))]
    state = out[0]
    for target in path[1:]:
        state = transport(
            field, [state.z, target], state.y, state.dy, state.log_scale, **kwargs
        )
        out.append(TransportState(state.z, state.y, state.dy, state.log_scale))
    return out
