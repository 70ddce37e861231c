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

Each step is one generated kernel per field degree m (``_step_kernel``):
straight-line code, every coefficient a local, that shifts the field to the
step's start, bounds the step, runs the recurrence unrolled for m and the
order, hands a watcher the step, and advances y and y' by unrolled Horner
sums.  A kernel is built once, on the first step that needs it, and
performs the plain loops' floating-point operations in their order, so its
results are bit-identical to theirs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, IntegrationError
from .polynomials import ComplexPolynomial, _compile, _shift_lines

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
        return _value_kernel(len(self.coeffs) - 1)(self.coeffs, self.dz * frac)


def _horner(order: int, t: str) -> tuple:
    """Horner sums of the series c0..c_order at t, as two expressions: the
    series and its derivative.  Both start at ``0j`` and the derivative's
    terms are ``k * c_k``, as in the plain loops."""
    y = dy = "0j"
    for k in range(order, 0, -1):
        y = f"({y}) * {t} + c{k}"
        dy = f"({dy}) * {t} + {k} * c{k}"
    return f"({y}) * {t} + c0", dy


@lru_cache(maxsize=None)
def _value_kernel(order: int):
    """``value(c, t)``: a series of the given order at t, Horner's sum unrolled."""
    cs = "".join(f"c{k}, " for k in range(order + 1))
    lines = ["def value(c, t):", f"    {cs}= c", f"    return {_horner(order, 't')[0]}"]
    return _compile(lines, "value")[0]


@lru_cache(maxsize=None)
def _step_kernel(m: int, order: int):
    """``step(p, z0, c0, c1, log_scale, direction, remaining, watcher)``: one
    Taylor step under a field of degree m with coefficients ``p``.

    Straight-line code with every coefficient a local: the Taylor shift of
    the field to z0 (:func:`polynomials._shift_lines`), the phase scale
    kappa, the recurrence of the given order (each sum starts at ``0j`` and
    is divided by the integer (k+1)(k+2)), the step length along
    ``direction`` (at most ``remaining``), the watcher's
    :class:`TaylorStep`, and the Horner advance to the step's end, where a
    mantissa outside [1e-8, 1e8] is folded into the log scale.  Returns
    ``(h, dz, y, dy, log_scale)``.  Each ``min``/``max`` of the plain loop
    is a comparison that, like the builtin, keeps its first operand unless
    the second is strictly beyond it, so every result is bit-identical.
    """
    shift, bs = _shift_lines(m)
    lines = ["def step(p, z0, c0, c1, log_scale, direction, remaining, watcher):", *shift]
    lines.append("    kappa = 0.0")
    # |b_j| = 0 (or NaN) gives a power that never exceeds kappa, so the
    # plain loop's skip of those terms needs no test of its own
    for j, b in enumerate(bs):
        lines += [f"    r = abs({b}) ** {1.0 / (j + 2)!r}", "    if r > kappa:", "        kappa = r"]
    lines.append(f"    cap = {_PHASE_CAP!r} / kappa if kappa > 0 else remaining")
    for k in range(order - 1):
        terms = "".join(f" + {bs[j]} * c{k - j}" for j in range(min(k, m) + 1))
        lines.append(f"    c{k + 2} = (0j{terms}) / {(k + 1) * (k + 2)}")
    lines += [
        "    h = cap if cap < remaining else remaining",
        "    scale_ref = abs(c0) + abs(c1) * h + 1e-300",
    ]
    for k in range(order, order - 3, -1):
        lines += [
            f"    mk = abs(c{k})",
            "    if mk > 0:",
            f"        r = 0.9 * ({_TOL!r} * scale_ref / mk) ** {1.0 / k!r}",
            "        if r < h:",
            "            h = r",
        ]
    y, dy = _horner(order, "dz")
    cs = ", ".join(f"c{k}" for k in range(order + 1))
    lines += [
        "    if h <= 1e-14 * (1.0 + abs(z0)):",
        '        raise IntegrationError(f"step underflow at z={z0:.6g} (h={h:.3g})")',
        "    if remaining < h:",
        "        h = remaining",
        "    dz = direction * h",
        "    if watcher is not None:",
        f"        watcher(TaylorStep(z0, dz, [{cs}], log_scale))",
        f"    y = {y}",
        f"    dy = {dy}",
        "    mag = abs(y)",
        "    mdy = abs(dy)",
        "    if mdy > mag:",
        "        mag = mdy",
        "    if mag > 0 and (mag > 1e8 or mag < 1e-8):",
        "        y /= mag",
        "        dy /= mag",
        "        log_scale += log(mag)",
        "    return h, dz, y, dy, log_scale",
    ]
    return _compile(
        lines, "step", IntegrationError=IntegrationError, TaylorStep=TaylorStep, log=math.log
    )[0]


def _waypoint(z) -> complex:
    """z as a complex waypoint; a non-finite one raises :class:`DomainError`."""
    if not cmath.isfinite(z):
        raise DomainError(f"waypoint z={complex(z)!r} is not finite")
    return complex(z)


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
        A non-finite waypoint raises :class:`DomainError`.
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
    step = _step_kernel(field.degree, _ORDER)
    p = field.coefficients
    z, y, dy, log_scale = _waypoint(path[0]), complex(y), complex(dy), float(log_scale)
    steps = 0
    for target in path[1:]:
        target = _waypoint(target)
        seg = target - z
        length = abs(seg)
        if length <= 2e-14 * (1.0 + abs(z)):
            z = target
            continue
        direction = seg / length
        travelled = 0.0
        while travelled < length:
            h, dz, y, dy, log_scale = step(
                p, z, y, dy, log_scale, direction, length - travelled, watcher
            )
            travelled += h
            z = z + dz if travelled < length else target
            steps += 1
            if steps > _MAX_STEPS:
                raise IntegrationError(
                    f"transport exceeded its budget of {_MAX_STEPS} steps at z={z:.6g}"
                )
    return TransportState(z, y, dy, log_scale)


def transport_states(field: ComplexPolynomial, path, y, dy) -> list:
    """Like :func:`transport` but records the state at every waypoint."""
    out = [TransportState(_waypoint(path[0]), complex(y), complex(dy))]
    for target in path[1:]:
        st = out[-1]
        out.append(transport(field, [st.z, target], st.y, st.dy, st.log_scale))
    return out
