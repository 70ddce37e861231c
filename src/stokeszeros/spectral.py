"""Complex shooting spectra for -y'' + P(z) y = lambda y on boundary rays.

The recessive solution along each boundary ray is seeded far out with its
WKB form and transported inward to a matching point in the middle of the
short exceptional line, where both solutions are oscillatory; an
eigenvalue is a zero of the normalized Wronskian of the two.  All
transports carry log-scale factors, so eigenfunctions remain evaluable
where their modulus is far beyond floating-point range.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError, IntegrationError
from .polynomials import ComplexPolynomial, roots
from .quaddiff import build_quad_diff, stokes_directions
from .stokescomplex import stokes_complex
from .transport import TransportState, transport, transport_states
from .wkb import PhaseIntegral, eigenvalue_estimate

__all__ = [
    "ProblemSpec",
    "Eigenpair",
    "ShootingFrame",
    "integrate_ode",
    "wkb_seed",
    "miss_function",
    "miss_surrogate",
    "find_eigenvalues",
    "solve_eigenpair",
    "EigenfunctionEvaluator",
    "RescaledEigenfunction",
    "rescale",
    "log_modulus_field",
    "envelope_deviation",
]

# fixed mixing functional for the Wronskian normalization; keeping it
# holomorphic (no magnitudes) preserves analyticity of the miss function,
# and the imaginary part avoids zero denominators at real spectra
_BETA = 0.61 + 0.23j


@dataclass(frozen=True)
class ProblemSpec:
    """One eigenvalue problem: potential (-1)^ell (iz)^d + sum a_k z^k."""

    d: int
    ell: int
    a: tuple = ()

    def __post_init__(self):
        if self.d < 2 or not 1 <= self.ell <= self.d - 1:
            raise DomainError(f"invalid (d, ell) = ({self.d}, {self.ell})")
        if len(self.a) > self.d - 1:
            raise DomainError("lower-order coefficients exceed degree - 1")
        object.__setattr__(self, "a", tuple(complex(c) for c in self.a))

    @property
    def potential(self) -> ComplexPolynomial:
        lead = (1 + 0j, 1j, -1 + 0j, -1j)[self.d % 4] * (-1) ** self.ell
        coeffs = [0j] * (self.d + 1)
        coeffs[self.d] = lead
        for k, c in enumerate(self.a, start=1):
            coeffs[k] += c
        return ComplexPolynomial(coeffs)

    @property
    def is_self_adjoint(self) -> bool:
        return (
            self.d % 2 == 0
            and self.ell == self.d // 2
            and all(abs(c.imag) == 0 for c in self.a)
        )

    @property
    def is_pt_symmetric(self) -> bool:
        # a_k (-z*)^k = conj(a_k z^k): even k real, odd k imaginary
        return all(
            (c.imag == 0 if k % 2 == 0 else c.real == 0)
            for k, c in enumerate(self.a, start=1)
        )

    @property
    def boundary_rays(self) -> tuple:
        return stokes_directions(self.d, self.ell).boundary_rays

    def shifted_field(self, lam: complex) -> ComplexPolynomial:
        """The coefficient field P(z) - lambda of the transported equation."""
        coeffs = list(self.potential.coefficients)
        coeffs[0] -= complex(lam)
        return ComplexPolynomial(coeffs)


def integrate_ode(coeff_field, h: float, path, initial, tol: float = 1e-14) -> list:
    """Transport (y, y') for y'' = h^2 Q(z) y along a polyline.

    Parameters
    ----------
    coeff_field : ComplexPolynomial or coefficient sequence
        Q in ascending-degree order.
    h : float
        Scale parameter multiplying the field as h^2.
    path : sequence of complex waypoints
    initial : (y, y') at path[0]

    Returns
    -------
    list of TransportState, one per waypoint; the last entry carries the
    endpoint values and accumulated log-scale.
    """
    coeffs = (
        coeff_field.coefficients
        if isinstance(coeff_field, ComplexPolynomial)
        else list(coeff_field)
    )
    w = [h * h * complex(c) for c in coeffs]
    y0, dy0 = initial
    return transport_states(w, path, y0, dy0, tol=tol)


def wkb_seed(spec: ProblemSpec, lam: complex, ray_angle: float, R: float) -> tuple:
    """Initial data of the recessive solution at z = R e^{i theta}.

    Built from the leading WKB form W^{-1/4} exp(-int sqrt(W)) including the
    derivative's -W'/(4 W^{5/4}) term; the branch of sqrt(W) has positive
    real part against the outgoing ray direction so the solution decays.
    """
    z0 = R * cmath.exp(1j * ray_angle)
    w_field = spec.shifted_field(lam)
    wz = w_field(z0)
    if wz == 0:
        raise DomainError("seed point is a turning point of the shifted field")
    s = cmath.sqrt(wz)
    if (s * cmath.exp(1j * ray_angle)).real < 0:
        s = -s
    q4 = cmath.exp(-0.25 * cmath.log(wz))
    dwz = w_field.derivative()(z0)
    y = q4
    dy = q4 * (-s - dwz / (4.0 * wz))
    return y, dy


def _dominance_radius(spec: ProblemSpec, lam: complex) -> float:
    """Smallest ray radius where the shifted field tracks its leading term."""
    pot = spec.potential
    lead = abs(pot.coefficients[-1])
    R = max(1.0, (3.0 * max(abs(lam), 1.0) / lead) ** (1.0 / spec.d))
    for _ in range(60):
        zmag = R**spec.d * lead
        rest = abs(lam) + sum(
            abs(c) * R**k for k, c in enumerate(pot.coefficients[:-1])
        )
        if rest <= 0.12 * zmag:
            break
        R *= 1.18
    return R


def _cumlen(samples):
    out = [0.0]
    for a, b in zip(samples[:-1], samples[1:]):
        out.append(out[-1] + abs(b - a))
    return out


@dataclass(frozen=True)
class ShootingFrame:
    """Fixed shooting geometry for one eigenvalue search.

    Each ray solution is seeded at radius R and transported to a common
    matching point in the middle of the short exceptional line, where the
    two solutions are oscillatory and their Wronskian keeps full relative
    accuracy.  (Evaluating it where both ride the same dominant exponential
    would cancel catastrophically; for self-adjoint problems the matching
    point is simply the origin.)  The transport runs down the boundary ray
    to the nearby turning point and then along the short line itself, so
    the modulus envelope never descends along the way.
    """

    R: float
    right_path: tuple
    left_path: tuple

    @property
    def z_match(self) -> complex:
        return self.right_path[-1]

    @staticmethod
    def for_scale(spec: "ProblemSpec", lam_scale: float, R: Optional[float] = None) -> "ShootingFrame":
        if R is None:
            R = _dominance_radius(spec, lam_scale)
        f = max(lam_scale, 1.0) ** (1.0 / spec.d)
        sc = _limit_complex_cached(spec.d, spec.ell)
        e0 = sc.lines[sc.e0_index]
        samples = [complex(s) for s in e0.samples]
        # decimate to ~0.1 spacing; chords hug the oscillatory crease
        dec = [samples[0]]
        for z in samples[1:]:
            if abs(z - dec[-1]) >= 0.1:
                dec.append(z)
        if dec[-1] != samples[-1]:
            dec.append(samples[-1])
        cum = _cumlen(dec)
        half = 0.5 * cum[-1]
        k_mid = min(range(len(cum)), key=lambda i: abs(cum[i] - half))
        # split the short line at its midpoint into v+ -> mid and v- -> mid
        if e0.origin == sc.v_plus:
            from_plus = dec[: k_mid + 1]
            from_minus = dec[k_mid:][::-1]
        else:
            from_plus = dec[k_mid:][::-1]
            from_minus = dec[: k_mid + 1]
        left, right = spec.boundary_rays
        right_path = (R * cmath.exp(1j * right),) + tuple(f * z for z in from_plus)
        left_path = (R * cmath.exp(1j * left),) + tuple(f * z for z in from_minus)
        return ShootingFrame(R=R, right_path=right_path, left_path=left_path)

    def doubled(self, spec: "ProblemSpec") -> "ShootingFrame":
        left, right = spec.boundary_rays
        R2 = 2.0 * self.R
        return ShootingFrame(
            R=R2,
            right_path=(R2 * cmath.exp(1j * right),) + self.right_path[1:],
            left_path=(R2 * cmath.exp(1j * left),) + self.left_path[1:],
        )


def _ray_state(spec: ProblemSpec, lam: complex, ray_angle: float, path) -> TransportState:
    R = abs(path[0])
    y, dy = wkb_seed(spec, lam, ray_angle, R)
    field = spec.shifted_field(lam).coefficients
    return transport(field, list(path), y, dy)


def _miss_parts(spec: ProblemSpec, lam: complex, frame: Optional[ShootingFrame] = None):
    if frame is None:
        frame = ShootingFrame.for_scale(spec, abs(lam))
    left, right = spec.boundary_rays
    sl = _ray_state(spec, lam, left, frame.left_path)
    sr = _ray_state(spec, lam, right, frame.right_path)
    wr = sl.y * sr.dy - sl.dy * sr.y
    return sl, sr, wr


def miss_function(spec: ProblemSpec, lam: complex, frame: Optional[ShootingFrame] = None) -> complex:
    """Normalized Wronskian of the two ray-recessive solutions.

    Vanishes exactly at eigenvalues.  The normalization divides by the
    fixed linear functionals y + beta y' of each ray solution, which
    cancels the transport scale factors while keeping the function
    holomorphic in lambda (a modulus-based normalization would not be).
    Pass a fixed :class:`ShootingFrame` when probing analyticity; by
    default a frame is derived from |lambda|.
    """
    sl, sr, wr = _miss_parts(spec, lam, frame)
    nl = sl.y + _BETA * sl.dy
    nr = sr.y + _BETA * sr.dy
    if nl == 0 or nr == 0:
        raise IntegrationError("normalization functional vanished; perturb lambda")
    return wr / (nl * nr)


def miss_surrogate(spec: ProblemSpec, lam: float, frame: Optional[ShootingFrame] = None) -> float:
    """Real, modulus-normalized miss for bracketing real spectra.

    Sign changes happen exactly at eigenvalues (the denominator is
    positive), which makes this the right function for bisection.
    """
    sl, sr, wr = _miss_parts(spec, complex(lam), frame)
    denom = (abs(sl.y) + abs(sl.dy)) * (abs(sr.y) + abs(sr.dy))
    return (wr / denom).real


@dataclass(frozen=True)
class Eigenpair:
    """A converged eigenvalue with normalized initial data at the origin."""

    spec: ProblemSpec
    n: int
    lam: complex
    y0: complex
    dy0: complex
    residual: float
    seed_radius: float

    @property
    def h(self) -> float:
        """|lambda|^{(d+2)/(2d)}, the phase scale of the rescaled equation."""
        d = self.spec.d
        return abs(self.lam) ** ((d + 2.0) / (2.0 * d))

    @property
    def scale_factor(self) -> complex:
        """lambda^{1/d} on the branch positive along the positive ray."""
        return cmath.exp(cmath.log(self.lam) / self.spec.d)


def _real_brent(f, a, b, fa, fb, xtol):
    """Bracketed root search (bisection/secant hybrid)."""
    for _ in range(200):
        if abs(b - a) <= xtol:
            break
        mid = 0.5 * (a + b)
        if fb != fa:
            cand = b - fb * (b - a) / (fb - fa)
            lo, hi = (a, b) if a < b else (b, a)
            if not (lo + 0.1 * (hi - lo) < cand < hi - 0.1 * (hi - lo)):
                cand = mid
        else:
            cand = mid
        fc = f(cand)
        if fc == 0:
            return cand
        if (fc > 0) == (fa > 0):
            a, fa = cand, fc
        else:
            b, fb = cand, fc
    return 0.5 * (a + b)


def _solve_real(spec: ProblemSpec, n: int, frame: ShootingFrame) -> complex:
    seed = eigenvalue_estimate(spec.d, spec.ell, n, offset=0.5)
    gap = seed * (2.0 * spec.d / (spec.d + 2.0)) / (n + 0.5)
    half = 0.42 * gap
    f = lambda lam: miss_surrogate(spec, lam, frame)
    a, b = seed - half, seed + half
    fa, fb = f(a), f(b)
    grow = 0
    while (fa > 0) == (fb > 0):
        grow += 1
        if grow > 9:
            raise IntegrationError(f"no sign change around seed {seed:.6g} (n={n})")
        half *= 1.6
        a, b = seed - half, seed + half
        fa, fb = f(a), f(b)
    lam = _real_brent(f, a, b, fa, fb, xtol=1e-12 * (1.0 + abs(seed)))
    return complex(lam)


def _solve_complex(spec: ProblemSpec, n: int, frame: ShootingFrame) -> complex:
    seed = eigenvalue_estimate(spec.d, spec.ell, n, offset=0.5)
    l0 = complex(seed)
    l1 = complex(seed) * (1.0 + 1e-3) + 1e-6
    f0 = miss_function(spec, l0, frame)
    f1 = miss_function(spec, l1, frame)
    for _ in range(60):
        if f1 == f0:
            l1 += 1e-8 * (1.0 + abs(l1))
            f1 = miss_function(spec, l1, frame)
            continue
        l2 = l1 - f1 * (l1 - l0) / (f1 - f0)
        # keep secant steps from tunnelling to a neighbouring eigenvalue
        max_step = 0.2 * abs(seed) + 1.0
        if abs(l2 - l1) > max_step:
            l2 = l1 + max_step * (l2 - l1) / abs(l2 - l1)
        l0, f0 = l1, f1
        l1 = l2
        f1 = miss_function(spec, l1, frame)
        if abs(l1 - l0) <= 1e-11 * (1.0 + abs(l1)):
            break
    else:
        raise IntegrationError(f"secant search did not converge for n={n}")
    return l1


def _count_real_zeros(spec: ProblemSpec, lam: complex, y0, dy0, x_max: float) -> int:
    """Sign changes of the (real) eigenfunction on [-x_max, x_max]."""
    field = spec.shifted_field(lam).coefficients
    count = 0
    for direction in (+1.0, -1.0):
        last_sign = [1 if y0.real > 0 else (-1 if y0.real < 0 else 0)]
        changes = [0]

        def watcher(step):
            m = 12
            for j in range(1, m + 1):
                v = step.value_at(j / m).real
                s = 1 if v > 0 else (-1 if v < 0 else 0)
                if s != 0 and last_sign[0] != 0 and s != last_sign[0]:
                    changes[0] += 1
                if s != 0:
                    last_sign[0] = s
            return None

        transport(field, [0j, direction * x_max], y0, dy0, watcher=watcher)
        count += changes[0]
    # a zero at the origin itself is shared by both sweeps
    if y0 == 0 or abs(y0) < 1e-13 * abs(dy0):
        count += 1
    return count


def _real_bracket(spec: ProblemSpec, lam: complex) -> tuple:
    rts = roots(spec.shifted_field(lam), tol=1e-11)
    reals = [r.real for r, _ in rts if abs(r.imag) <= 1e-6 * (1 + abs(r))]
    if not reals:
        raise DomainError("shifted potential has no real roots to bracket zeros")
    return min(reals), max(reals)


@lru_cache(maxsize=4096)
def solve_eigenpair(spec: ProblemSpec, n: int) -> Eigenpair:
    """Locate eigenvalue n and package normalized initial data.

    The search is seeded by the asymptotic growth law and polished by
    bracketing (self-adjoint) or a damped secant iteration (general case).
    The seed radius doubles until the eigenvalue is stable to 1e-9
    relative, which makes the WKB truncation error measurable.
    """
    if n < 0:
        raise DomainError("eigenvalue index must be nonnegative")
    seed = eigenvalue_estimate(spec.d, spec.ell, n, offset=0.5)
    frame = ShootingFrame.for_scale(spec, seed)
    solver = _solve_real if spec.is_self_adjoint else _solve_complex
    lam = solver(spec, n, frame)
    for _ in range(3):
        frame2 = frame.doubled(spec)
        lam2 = _polish(spec, lam, frame2)
        if abs(lam2 - lam) <= 1e-9 * (1.0 + abs(lam2)):
            lam = lam2
            frame = frame2
            break
        lam, frame = lam2, frame2

    sl, sr, wr = _miss_parts(spec, lam, frame)
    # normalized initial data lives at the origin: climb there from the
    # matching point (the eigenfunction is dominant along that stretch)
    field = spec.shifted_field(lam).coefficients
    at0 = transport(field, [frame.z_match, 0j], sr.y, sr.dy, sr.log_scale)
    norm = abs(at0.y) + abs(at0.dy)
    y0, dy0 = at0.y / norm, at0.dy / norm
    ph = cmath.phase(y0) if abs(y0) >= 1e-12 else cmath.phase(dy0)
    rot = cmath.exp(-1j * ph)
    y0, dy0 = y0 * rot, dy0 * rot
    if abs(y0.imag) < 1e-14:
        y0 = complex(y0.real, 0.0)
    denom = (abs(sl.y) + abs(sl.dy)) * (abs(sr.y) + abs(sr.dy))
    residual = abs(wr) / denom

    pair = Eigenpair(
        spec=spec, n=n, lam=lam, y0=y0, dy0=dy0, residual=residual, seed_radius=frame.R
    )
    if spec.is_self_adjoint:
        lo, hi = _real_bracket(spec, lam)
        got = _count_real_zeros(spec, lam, y0, dy0, 1.12 * max(abs(lo), abs(hi)))
        if got != n:
            raise IntegrationError(
                f"index check failed: wanted n={n}, counted {got} real zeros"
            )
    return pair


def _polish(spec: ProblemSpec, lam: complex, frame: ShootingFrame) -> complex:
    if spec.is_self_adjoint:
        f = lambda x: miss_surrogate(spec, x, frame)
        x = lam.real
        step = 1e-6 * (1.0 + abs(x))
        fa, fb = f(x - step), f(x + step)
        a, b = x - step, x + step
        grow = 0
        while (fa > 0) == (fb > 0):
            grow += 1
            if grow > 40:
                raise IntegrationError("lost the eigenvalue while polishing")
            step *= 2.2
            a, b = x - step, x + step
            fa, fb = f(a), f(b)
        return complex(_real_brent(f, a, b, fa, fb, xtol=1e-12 * (1.0 + abs(x))))
    l0, l1 = lam * (1.0 + 1e-7), lam
    f0 = miss_function(spec, l0, frame)
    f1 = miss_function(spec, l1, frame)
    for _ in range(40):
        if f1 == f0:
            break
        l2 = l1 - f1 * (l1 - l0) / (f1 - f0)
        l0, f0 = l1, f1
        l1, f1 = l2, miss_function(spec, l2, frame)
        if abs(l1 - l0) <= 1e-12 * (1.0 + abs(l1)):
            break
    return l1


def find_eigenvalues(spec: ProblemSpec, n_range, on_error: str = "raise") -> list:
    """Eigenpairs for the requested indices (each seeded independently).

    With ``on_error="skip"`` a non-converged index is dropped and the rest
    are still returned.  For non-self-adjoint specs a monotonicity check
    across the returned set guards against index skips; self-adjoint
    indices are certified by their real-zero count inside
    :func:`solve_eigenpair`.
    """
    ns = sorted(set(int(n) for n in n_range))
    pairs = []
    for n in ns:
        try:
            pairs.append(solve_eigenpair(spec, n))
        except (IntegrationError, DomainError):
            if on_error != "skip":
                raise
    if not spec.is_self_adjoint:
        for pa, pb in zip(pairs, pairs[1:]):
            if pb.lam.real <= pa.lam.real:
                raise IntegrationError(
                    f"eigenvalue ordering violated between n={pa.n} and n={pb.n}"
                )
    return pairs


# ---------------------------------------------------------------------------
# eigenfunction evaluation


class EigenfunctionEvaluator:
    """Scale-safe evaluation of one eigenfunction anywhere in the plane.

    Direct transport from the origin loses all accuracy wherever the
    eigenfunction is recessive, so evaluation hops from a skeleton of
    anchor states (the two ray solutions plus sweeps along every Stokes
    line of the limiting differential).  Hops self-monitor the divergence
    between the dominant local growth rate and their measured modulus
    slope; points too deep for any anchor fall back to the recessive WKB
    form calibrated at the ray seeds.
    """

    def __init__(self, pair: Eigenpair):
        self.pair = pair
        self.spec = pair.spec
        self.pot = self.spec.shifted_field(pair.lam)
        self.field = self.pot.coefficients
        self.f = pair.scale_factor
        self.h = pair.h
        self._anchors = None
        self._anchor_z = None
        self._anchor_env = None
        self._ugrid = None
        self._ray_seeds = []
        self._point_cache = {}

    # anchor spacing along skeleton sweeps, in rescaled units
    _SPACING = 0.07

    def _limit_complex(self):
        return _limit_complex_cached(self.spec.d, self.spec.ell)

    def _build_skeleton(self):
        # envelope grid for routing penalties (rescaled coordinates)
        self._ugrid = _limit_ugrid_cached(self.spec.d, self.spec.ell)
        f = self.f
        pair = self.pair
        spacing = self._SPACING * abs(f)
        anchors = []

        # ray solutions, seeded like the eigen-solve; each ray is rescaled
        # by its own endpoint so all anchors describe the one normalized
        # eigenfunction (the rays agree only up to the converged residual)
        left, right = self.spec.boundary_rays
        R = pair.seed_radius
        self._ray_seeds = []
        for theta in (right, left):
            y, dy = wkb_seed(self.spec, pair.lam, theta, R)
            z0 = R * cmath.exp(1j * theta)
            pts = _segment_points(z0, 0j, spacing)
            states = transport_states(self.field, pts, y, dy)
            end = states[-1]
            if abs(end.y) >= abs(end.dy):
                factor = complex(pair.y0) / end.y
            else:
                factor = complex(pair.dy0) / end.dy
            shift = -end.log_scale
            normalized = [
                TransportState(st.z, st.y * factor, st.dy * factor, st.log_scale + shift)
                for st in states
            ]
            anchors.extend(normalized)
            self._ray_seeds.append((theta, normalized[0]))
        self._anchors = anchors

        # sweeps along every Stokes line of the limiting differential,
        # rescaled: the lines are constant-envelope contours, so transports
        # along them stay conditioned, and together with the rays they put
        # an anchor within a short climb of any point the windings visit.
        # Seeding from already-normalized anchors keeps all sweeps on the
        # same global normalization of the eigenfunction.
        sc = self._limit_complex()
        for line in sc.lines:
            samples = [complex(s) * f for s in line.samples]
            samples = [z for z in samples if abs(z) <= 2.6 * abs(f)]
            if len(samples) < 2:
                continue
            cur = self._hop_from(anchors, samples[0])
            seg_anchors = [cur]
            acc = 0.0
            prev = samples[0]
            for z in samples[1:]:
                acc += abs(z - prev)
                prev = z
                if acc >= spacing:
                    cur = transport(self.field, [cur.z, z], cur.y, cur.dy, cur.log_scale)
                    seg_anchors.append(cur)
                    acc = 0.0
            anchors.extend(seg_anchors)
        self._anchors = anchors
        self._anchor_z = np.array([st.z for st in anchors], dtype=complex)
        self._anchor_env = self.h * self._u_hat(self._anchor_z)

    def log_envelope(self, z: complex) -> float:
        """Estimated log |y(z)| from the limiting envelope h * u(z/f)."""
        return float(self.h * self._u_hat(np.array([z], dtype=complex))[0])

    def _u_hat(self, z: np.ndarray) -> np.ndarray:
        """Bilinear envelope estimates at an array of unscaled points."""
        if self._ugrid is None:
            self._ugrid = _limit_ugrid_cached(self.spec.d, self.spec.ell)
        zs, ug = self._ugrid
        wr, wi = _divide(np.asarray(z, dtype=complex), self.f)
        x0 = zs[0, 0].real
        y0 = zs[0, 0].imag
        dx = zs[0, 1].real - x0
        dy = zs[1, 0].imag - y0
        ix = np.clip((wr - x0) / dx, 0.0, ug.shape[1] - 1 - 1e-9)
        iy = np.clip((wi - y0) / dy, 0.0, ug.shape[0] - 1 - 1e-9)
        i0, j0 = iy.astype(np.intp), ix.astype(np.intp)
        ty, tx = iy - i0, ix - j0
        return (
            ug[i0, j0] * (1 - tx) * (1 - ty)
            + ug[i0, j0 + 1] * tx * (1 - ty)
            + ug[i0 + 1, j0] * (1 - tx) * ty
            + ug[i0 + 1, j0 + 1] * tx * ty
        )

    # measured divergence beyond which a hop is rejected: anchors are only
    # accurate to several logs themselves, so a hop that descends much below
    # its anchor reads the anchor's error tail no matter how carefully it is
    # monitored; deeper points belong to the recessive WKB form, whose
    # neglected reflected component is ~e^{-2 depth} and negligible exactly
    # where hops cannot reach
    _HOP_BUDGET = 8.0

    def _monitored_hop(self, st: TransportState, z: complex, budget: float):
        """Transport a hop while integrating its possible divergence.

        Roundoff enters each stretch at ~1e-14 of the local solution and
        then grows at the dominant local rate |Re(sqrt(W) t)|; comparing
        that bound with the actual modulus slope measures exactly how much
        relative accuracy the hop has lost.  Returns None once the loss
        exceeds the budget.
        """
        pot = self.pot
        total = abs(z - st.z)
        if total == 0:
            return st
        direction = (z - st.z) / total
        pieces = max(6, int(total * self.h / (2.0 * abs(self.f))))
        pieces = min(pieces, 200)
        divergence = 0.0
        cur = st
        for k in range(1, pieces + 1):
            target = st.z + (z - st.z) * (k / pieces)
            mid = 0.5 * (cur.z + target)
            rate = abs((cmath.sqrt(pot(mid)) * direction).real)
            prev_log = cur.log_abs_y()
            cur = transport(self.field, [cur.z, target], cur.y, cur.dy, cur.log_scale)
            if k < pieces:
                # the final stretch may legitimately dive into a zero of y;
                # its own amplification is bounded by one piece's phase
                divergence += max(
                    0.0, rate * (total / pieces) - (cur.log_abs_y() - prev_log)
                )
            if divergence > budget:
                return None
        return cur

    def _hop_from(self, anchors, z: complex) -> TransportState:
        """Evaluate by transporting from an admissible anchor.

        Candidates are ranked by an envelope-grid estimate (chord ridge
        against the target envelope, then phase distance), but admission is
        decided by the hop's own measured divergence; if no nearby anchor
        survives, the point is deep in a decay sector and the calibrated
        WKB form takes over.
        """
        env_z = self.h * self._u_hat(np.array([z]))[0]
        if anchors is self._anchors and self._anchor_z is not None:
            # anchors far deeper than the target cannot be reached, anchors
            # far above it cannot descend; pre-screen vectorized with slack
            # for the envelope-grid error
            mask = self._anchor_env <= env_z + self._HOP_BUDGET + 10.0
            if not mask.any():
                mask[:] = True
            dists = np.abs(self._anchor_z - z)
            dists[~mask] = np.inf
            ranked = np.argsort(dists)[:24]
            ranked = ranked[np.isfinite(dists[ranked])]
            za = self._anchor_z[ranked]
        else:
            ranked = sorted(range(len(anchors)), key=lambda i: abs(anchors[i].z - z))[:24]
            za = np.array([anchors[i].z for i in ranked], dtype=complex)
        # chord ridge: highest envelope among 9 samples of each straight hop
        chords = za[:, None] + (z - za)[:, None] * (np.arange(9) / 8)
        ridge = self.h * self._u_hat(chords).max(axis=1)
        # phase distance: limit speed sqrt|Q| at the chord midpoint
        wr, wi = _divide(0.5 * (za + z), self.f)
        qr, qi = np.zeros_like(wr), np.zeros_like(wi)
        for c in reversed(_limit_poly_cached(self.spec.d, self.spec.ell).coefficients):
            qr, qi = qr * wr - qi * wi + c.real, qr * wi + qi * wr + c.imag
        speed = np.sqrt(np.hypot(qr, qi))
        cost = speed * np.hypot(z.real - za.real, z.imag - za.imag) / abs(self.f)
        admissible = ridge <= env_z + self._HOP_BUDGET + 4.0
        for i in np.lexsort((cost, ~admissible))[:5]:
            got = self._monitored_hop(anchors[ranked[i]], z, self._HOP_BUDGET)
            if got is not None:
                return got
        if self._ray_seeds:
            return self._wkb_state(z)
        raise IntegrationError(f"no stable evaluation path to {z:.6g}")

    def _wkb_state(self, z: complex) -> TransportState:
        """Recessive WKB form deep inside a decay sector.

        The transported anchors cannot descend this far without drowning in
        amplified roundoff; the WKB form is accurate there to O(h0/h) and is
        calibrated against the normalized state at the matching ray's seed.
        """
        from .geometry import wrap_angle

        theta, seed = min(
            self._ray_seeds,
            key=lambda ts: abs(wrap_angle(cmath.phase(z) - ts[0])),
        )
        z0 = seed.z
        pot = self.pot
        # branch-continued sqrt(W) and W^{1/4} along the straight hop
        n_pts = 48
        w_prev = cmath.sqrt(pot(z0))
        if (w_prev * cmath.exp(1j * theta)).real < 0:
            w_prev = -w_prev
        q4_prev = cmath.sqrt(w_prev)
        action = 0j
        prev = z0
        for k in range(1, n_pts + 1):
            cur = z0 + (z - z0) * k / n_pts
            w_cur = cmath.sqrt(pot(cur))
            if abs(w_cur - w_prev) > abs(w_cur + w_prev):
                w_cur = -w_cur
            q4_cur = cmath.sqrt(w_cur)
            if abs(q4_cur - q4_prev) > abs(q4_cur + q4_prev):
                q4_cur = -q4_cur
            action += 0.5 * (w_prev + w_cur) * (cur - prev)
            prev, w_prev, q4_prev = cur, w_cur, q4_cur
        w0 = cmath.sqrt(pot(z0))
        if (w0 * cmath.exp(1j * theta)).real < 0:
            w0 = -w0
        q4_0 = cmath.sqrt(w0)
        # y(z) = y(z0) (W0/W)^{1/4} exp(-action); log-form to stay in range
        log_ratio = cmath.log(q4_0 / q4_prev) - action
        base = cmath.log(seed.y) + seed.log_scale if seed.y != 0 else complex(-1e30)
        val_log = base + log_ratio
        y_m = cmath.exp(1j * val_log.imag)
        dy_m = y_m * (-w_prev - pot.derivative()(z) / (4.0 * pot(z)))
        mag = max(abs(y_m), abs(dy_m))
        return TransportState(
            complex(z), y_m / mag, dy_m / mag, val_log.real + math.log(mag)
        )

    def eval(self, z: complex) -> TransportState:
        """Transport state (y, y', log scale) of the eigenfunction at z."""
        if self._anchors is None:
            self._build_skeleton()
        z = complex(z)
        key = (z.real, z.imag)
        if key not in self._point_cache:
            self._point_cache[key] = self._hop_from(self._anchors, z)
        return self._point_cache[key]

    def values(self, points) -> list:
        """Transport states at the requested points (anchored hops)."""
        return [self.eval(z) for z in points]

    def residual(self, z: complex, step: float = 1e-4) -> float:
        """Relative defect |y'' - (P - lambda) y| via a five-point stencil."""
        pot = self.pot
        sts = [self.eval(z + dz) for dz in (-step, 0.0, step)]
        base = sts[1].log_scale
        vals = [st.y * cmath.exp(st.log_scale - base) for st in sts]
        ypp = (vals[0] - 2 * vals[1] + vals[2]) / step**2
        rhs = pot(z) * vals[1]
        denom = 1.0 + abs(vals[1]) * abs(pot(z))
        return abs(ypp - rhs) / denom


def _divide(z: np.ndarray, f: complex) -> tuple:
    """Real and imaginary parts of z / f, rounded as Python divides complex.

    numpy divides complex arrays through a reciprocal, which rounds
    differently; spelling Smith's quotient out keeps every envelope value,
    and so every hop ranking, bit-identical to scalar ``complex(z) / f``.
    """
    zr, zi = z.real, z.imag
    if abs(f.real) >= abs(f.imag):
        ratio = f.imag / f.real
        denom = f.real + f.imag * ratio
        return (zr + zi * ratio) / denom, (zi - zr * ratio) / denom
    ratio = f.real / f.imag
    denom = f.real * ratio + f.imag
    return (zr * ratio + zi) / denom, (zi * ratio - zr) / denom


def _segment_points(a: complex, b: complex, spacing: float) -> list:
    n = max(1, int(abs(b - a) / max(spacing, 1e-12)))
    return [a + (b - a) * k / n for k in range(n + 1)]


@lru_cache(maxsize=32)
def _limit_complex_cached(d: int, ell: int):
    return stokes_complex(d, ell)


@lru_cache(maxsize=32)
def _limit_phase_cached(d: int, ell: int):
    return PhaseIntegral(_limit_complex_cached(d, ell))


@lru_cache(maxsize=32)
def _limit_ugrid_cached(d: int, ell: int):
    pi = _limit_phase_cached(d, ell)
    return pi.u_grid(-2.7 - 2.7j, 55, 55, 0.1, 0.1)


@lru_cache(maxsize=32)
def _limit_poly_cached(d: int, ell: int):
    return build_quad_diff(d, ell).polynomial


class RescaledEigenfunction:
    """Evaluator of Y(w) = y(lambda^{1/d} w) with its real-zero bracket."""

    def __init__(self, ev: EigenfunctionEvaluator):
        self.ev = ev
        self.pair = ev.pair
        self.f = ev.f
        self.h = ev.h

    def eval(self, w: complex) -> TransportState:
        st = self.ev.eval(self.f * complex(w))
        # derivative in the rescaled variable
        return TransportState(complex(w), st.y, st.dy * self.f, st.log_scale)

    def anchored_state(self, w: complex) -> TransportState:
        """Independently anchored transport state at a rescaled point."""
        return self.ev.eval(self.f * complex(w))

    def phase_rate(self, w: complex) -> float:
        """Upper bound on |d arg Y / ds| per rescaled arclength, away from
        zeros: the local wavenumber |sqrt(P - lambda)| in rescaled units."""
        return abs(cmath.sqrt(self.ev.pot(self.f * complex(w)))) * abs(self.f)

    def log_envelope(self, w: complex) -> float:
        return self.ev.log_envelope(self.f * complex(w))

    def newton_step(self, w: complex) -> tuple:
        st = self.eval(w)
        if st.dy == 0:
            raise IntegrationError("derivative vanished during polish")
        return st, st.y / st.dy

    def log_modulus(self, w: complex) -> float:
        """(1/h) log |Y(w)|, the quantity converging to the envelope u."""
        st = self.eval(w)
        return st.log_abs_y() / self.h

    def real_bracket(self) -> tuple:
        lo, hi = _real_bracket(self.pair.spec, self.pair.lam)
        return lo / abs(self.f), hi / abs(self.f)


def rescale(ev: EigenfunctionEvaluator) -> RescaledEigenfunction:
    return RescaledEigenfunction(ev)


def log_modulus_field(resc: RescaledEigenfunction, points) -> np.ndarray:
    """(1/h) log |Y| sampled at the given rescaled points."""
    return np.array([resc.log_modulus(w) for w in points])


def envelope_deviation(resc: RescaledEigenfunction, phase: PhaseIntegral, points) -> float:
    """Sup over the points of |(1/h) log |Y| - u|."""
    vals = log_modulus_field(resc, points)
    return float(max(abs(v - phase.u(complex(w))) for v, w in zip(vals, points)))
