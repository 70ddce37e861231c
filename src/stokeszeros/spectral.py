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
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError, IntegrationError
from .geometry import mid_arclength_index
from .polynomials import ComplexPolynomial, roots
from .quaddiff import _leading_coefficient, check_family, stokes_directions
from .stokescomplex import stokes_complex
from .transport import TransportState, _waypoint, transport, transport_states
from .wkb import PhaseIntegral, eigenvalue_estimate, horner_parts, seed_error_bound

__all__ = [
    "ProblemSpec",
    "Eigenpair",
    "ShootingFrame",
    "wkb_seed",
    "miss_function",
    "miss_surrogate",
    "ordering_violations",
    "solve_eigenpair",
    "EigenfunctionEvaluator",
    "RescaledEigenfunction",
    "rescale",
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
        check_family(self.d, self.ell)
        if len(self.a) > self.d - 1:
            raise DomainError("lower-order coefficients exceed degree - 1")
        object.__setattr__(self, "a", tuple(complex(c) for c in self.a))

    @property
    def potential(self) -> ComplexPolynomial:
        coeffs = [0j] * (self.d + 1)
        coeffs[self.d] = _leading_coefficient(self.d, self.ell)
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


_GROWTH = 1.18  # one step of every seed-radius search
_SEED_BOUND = 1e-15  # the largest seed error bound an eigenvalue is returned with


def _dominance_radius(spec: ProblemSpec, lam: complex) -> float:
    """Smallest ray radius where the shifted field tracks its leading term.

    The radius grows by 18% at a time; a field still not dominated after 60
    growths raises :class:`IntegrationError`.
    """
    pot = spec.potential
    lead = abs(pot.coefficients[-1])
    R = max(1.0, (3.0 * max(abs(lam), 1.0) / lead) ** (1.0 / spec.d))
    for growths in range(61):
        if growths:
            R *= _GROWTH
        zmag = R**spec.d * lead
        rest = abs(lam) + sum(
            abs(c) * R**k for k, c in enumerate(pot.coefficients[:-1])
        )
        if rest <= 0.12 * zmag:
            return R
    raise IntegrationError(
        f"no seed radius for {spec} at lambda={lam:.6g}: after 60 growths, at "
        f"R={R:.6g}, the lower-order terms are {rest / zmag:.3g} times the leading term"
    )


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
    the modulus envelope never descends along the way.  An eigen-solve
    shoots every lambda in one frame, whose R makes the WKB seed's error
    bound (:meth:`seed_bound`) negligible.
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
        k_mid = mid_arclength_index(dec)
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

    def seed_bound(self, spec: "ProblemSpec", lam: complex) -> float:
        """The larger ray's V(R) e^{-2 Phi(R)} (:func:`seed_error_bound`) at
        lambda: about how far, relative, the WKB seeds move the eigenvalue."""
        field = spec.shifted_field(lam)
        return max(seed_error_bound(field, self.right_path), seed_error_bound(field, self.left_path))


def _ray_state(spec: ProblemSpec, lam: complex, ray_angle: float, path) -> TransportState:
    R = abs(path[0])
    y, dy = wkb_seed(spec, lam, ray_angle, R)
    return transport(spec.shifted_field(lam), list(path), y, dy)


def _miss_parts(spec: ProblemSpec, lam: complex, frame: ShootingFrame):
    left, right = spec.boundary_rays
    sl = _ray_state(spec, lam, left, frame.left_path)
    sr = _ray_state(spec, lam, right, frame.right_path)
    return sl, sr, sl.y * sr.dy - sl.dy * sr.y


def miss_function(spec: ProblemSpec, lam: complex, frame: ShootingFrame) -> complex:
    """Normalized Wronskian of the two ray-recessive solutions.

    Vanishes exactly at eigenvalues.  The normalization divides by the
    fixed linear functionals y + beta y' of each ray solution, which
    cancels the transport scale factors while keeping the function
    holomorphic in lambda (a modulus-based normalization would not be).
    Hold the :class:`ShootingFrame` fixed when probing analyticity.
    """
    sl, sr, wr = _miss_parts(spec, lam, frame)
    nl = sl.y + _BETA * sl.dy
    nr = sr.y + _BETA * sr.dy
    if nl == 0 or nr == 0:
        raise IntegrationError(
            f"normalization functional vanished at lambda={lam:.17g}; perturb lambda"
        )
    return wr / (nl * nr)


def miss_surrogate(spec: ProblemSpec, lam: float, frame: ShootingFrame) -> float:
    """Real, modulus-normalized miss on the real axis.

    Sign changes happen exactly at eigenvalues (the denominator is
    positive).  The eigenvalue search does not call it; it solves
    :func:`miss_function` for every spec.
    """
    sl, sr, wr = _miss_parts(spec, complex(lam), frame)
    denom = (abs(sl.y) + abs(sl.dy)) * (abs(sr.y) + abs(sr.dy))
    return (wr / denom).real


@dataclass(frozen=True)
class Eigenpair:
    """A converged eigenvalue with normalized initial data at the origin.

    ``seed_radius`` is the R of the one frame the solve shot in,
    ``seed_bound`` that frame's WKB seed bound at ``lam``, and ``shots``
    the miss evaluations of the solve's searches.
    """

    spec: ProblemSpec
    n: int
    lam: complex
    y0: complex
    dy0: complex
    residual: float
    seed_radius: float
    seed_bound: float
    shots: int

    @property
    def h(self) -> float:
        """|lambda|^{(d+2)/(2d)}, the phase scale of the rescaled equation."""
        d = self.spec.d
        return abs(self.lam) ** ((d + 2.0) / (2.0 * d))

    @property
    def scale_factor(self) -> complex:
        """lambda^{1/d} on the branch positive along the positive ray."""
        return cmath.exp(cmath.log(self.lam) / self.spec.d)


def _search(spec: ProblemSpec, n: int, frame: ShootingFrame, start: complex) -> tuple:
    """Eigenvalue n in one fixed frame, searched from ``start``.

    One damped secant iteration on the holomorphic miss function serves
    every spec.  Self-adjoint spectra are real: each iterate is projected
    onto the real axis, so every miss evaluation and the returned lambda
    are exactly real.  The search shoots ``start`` and a lambda 1e-3
    relative beside it, then steps on secant chords.  Convergence is tested
    on each new iterate before it is shot, so the returned lambda is never
    shot here.  Returns ``(lambda, shots)``, shots being the miss
    evaluations made; a search that does not converge raises
    :class:`IntegrationError`, naming the spec, n and the last lambda.
    """
    seed = eigenvalue_estimate(spec.d, spec.ell, n, offset=0.5)
    shot = []
    f = lambda z: shot.append(z) or miss_function(spec, z, frame)
    l0 = complex(start)
    l1 = l0 * (1.0 + 1e-3) + 1e-6
    f0, f1 = f(l0), f(l1)
    dl, df = l1 - l0, f1 - f0
    # keep secant steps from tunnelling to a neighbouring eigenvalue
    max_step = 0.2 * abs(seed) + 1.0
    for _ in range(60):
        if df == 0:
            l2 = l1 + 1e-8 * (1.0 + abs(l1))
            f2 = f(l2)
            l1, f1, dl, df = l2, f2, l2 - l1, f2 - f1
            continue
        l2 = l1 - f1 * dl / df
        if abs(l2 - l1) > max_step:
            l2 = l1 + max_step * (l2 - l1) / abs(l2 - l1)
        if spec.is_self_adjoint:
            l2 = complex(l2.real, 0.0)
        if abs(l2 - l1) <= 1e-11 * (1.0 + abs(l2)):
            return l2, len(shot)
        f2 = f(l2)
        l1, f1, dl, df = l2, f2, l2 - l1, f2 - f1
    raise IntegrationError(
        f"secant search did not converge for {spec} n={n}: lambda={l1:.12g}, "
        f"last step {abs(dl):.3g}"
    )


def _bound_error(spec: ProblemSpec, n: int, lam: complex, R: float, bound: float) -> IntegrationError:
    return IntegrationError(
        f"WKB seed bound not met for {spec} n={n}: at lambda={lam:.12g} and "
        f"R={R:.6g} it is {bound:.3g}, above {_SEED_BOUND:g}"
    )


def _bounded_frame(spec: ProblemSpec, n: int, seed: float, lam: complex, R: float) -> ShootingFrame:
    """The frame from radius R, grown by 18% at a time until its seed bound
    at lambda is at most 1e-15; 40 growths that do not get there raise
    :class:`IntegrationError`."""
    for growths in range(41):
        if growths:
            R *= _GROWTH
        frame = ShootingFrame.for_scale(spec, seed, R)
        bound = frame.seed_bound(spec, lam)
        if bound <= _SEED_BOUND:
            return frame
    raise _bound_error(spec, n, lam, R, bound)


def _count_real_zeros(spec: ProblemSpec, lam: complex, y0, dy0, x_max: float) -> int:
    """Sign changes of the (real) eigenfunction on [-x_max, x_max]."""
    field = spec.shifted_field(lam)
    # a zero at the origin itself is shared by both sweeps: both start
    # without a sign there, and it is counted once
    at_origin = y0 == 0 or abs(y0) < 1e-13 * abs(dy0)
    start = 0 if at_origin else (1 if y0.real > 0 else (-1 if y0.real < 0 else 0))
    count = 1 if at_origin else 0
    for direction in (+1.0, -1.0):
        last_sign = [start]
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
    return count


def _real_bracket(spec: ProblemSpec, lam: complex) -> tuple:
    rts = roots(spec.shifted_field(lam), tol=1e-11)
    reals = [r.real for r in rts if abs(r.imag) <= 1e-6 * (1 + abs(r))]
    if not reals:
        raise DomainError("shifted potential has no real roots to bracket zeros")
    return min(reals), max(reals)


@lru_cache(maxsize=4096)
def solve_eigenpair(spec: ProblemSpec, n: int) -> Eigenpair:
    """Locate eigenvalue n and package normalized initial data.

    Every lambda is shot in one frame.  Its radius R grows from the
    dominance radius until the WKB seed's error bound V(R) e^{-2 Phi(R)}
    (:meth:`ShootingFrame.seed_bound`) at the growth-law seed is at most
    1e-15, and one search (:func:`_search`, a damped secant iteration,
    kept on the real axis for self-adjoint problems) starts from that seed.
    The bound is checked again at the lambda found.  If it fails there, R
    grows until the bound holds at that lambda and the search runs once
    more, from it; a bound that fails again raises
    :class:`IntegrationError`.  No search shoots the lambda it returns:
    the residual and the initial data come from one shot at it.  For
    self-adjoint problems the eigenfunction's real zeros are counted and
    must number n.
    """
    if n < 0:
        raise DomainError("eigenvalue index must be nonnegative")
    seed = eigenvalue_estimate(spec.d, spec.ell, n, offset=0.5)
    lam, R, shots = complex(seed), _dominance_radius(spec, seed), 0
    for _ in range(2):
        frame = _bounded_frame(spec, n, seed, lam, R)
        lam, more = _search(spec, n, frame, lam)
        shots += more
        bound = frame.seed_bound(spec, lam)
        if bound <= _SEED_BOUND:
            break
        R = _GROWTH * frame.R
    else:
        raise _bound_error(spec, n, lam, frame.R, bound)

    # the one shot at the returned lambda
    sl, sr, wr = _miss_parts(spec, lam, frame)
    # normalized initial data lives at the origin: climb there from the
    # matching point (the eigenfunction is dominant along that stretch)
    at0 = transport(spec.shifted_field(lam), [frame.z_match, 0j], sr.y, sr.dy, sr.log_scale)
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
        spec=spec, n=n, lam=lam, y0=y0, dy0=dy0, residual=residual,
        seed_radius=frame.R, seed_bound=bound, shots=shots,
    )
    if spec.is_self_adjoint:
        lo, hi = _real_bracket(spec, lam)
        got = _count_real_zeros(spec, lam, y0, dy0, 1.12 * max(abs(lo), abs(hi)))
        if got != n:
            raise IntegrationError(
                f"index check failed: wanted n={n}, counted {got} real zeros"
            )
    return pair


def ordering_violations(pairs) -> list:
    """Messages for consecutive eigenpairs whose lambda repeat or whose
    Re lambda does not increase.

    Solved indices are seeded independently, so for non-self-adjoint specs
    this check across a sorted set is what guards against index skips;
    self-adjoint indices are also certified by their real-zero count inside
    :func:`solve_eigenpair`.  Two lambda within 1e-9 relative of each other
    are one eigenvalue solved twice: a solve is accurate to its seed bound
    (at most 1e-15) and rounding, far inside that, and distinct
    eigenvalues lie far outside it.
    """
    out = []
    for pa, pb in zip(pairs, pairs[1:]):
        if abs(pb.lam - pa.lam) <= 1e-9 * (1.0 + abs(pb.lam)):
            out.append(f"eigenvalue repeated: n={pa.n} and n={pb.n} agree to 1e-9 relative")
        elif pb.lam.real <= pa.lam.real:
            out.append(f"eigenvalue ordering violated between n={pa.n} and n={pb.n}")
    return out


# ---------------------------------------------------------------------------
# eigenfunction evaluation


class _HopDiverged(Exception):
    """Raised by a hop's watcher to abort a transport that lost its accuracy."""


class EigenfunctionEvaluator:
    """Scale-safe evaluation of one eigenfunction anywhere in the plane.

    Direct transport from the origin loses all accuracy wherever the
    eigenfunction is recessive, so evaluation hops from a skeleton of
    anchor states (the two ray solutions plus sweeps along every Stokes
    line of the limiting differential).  Hops self-monitor the divergence
    between the dominant local growth rate and their measured modulus
    slope, and every state returned is a hop that stayed within the budget;
    the same divergence, estimated on the envelope grid, orders the anchors
    a hop is tried from, and a point that no anchor reaches raises
    :class:`IntegrationError`.  A non-finite point raises :class:`DomainError`.
    Evaluation takes one point or one edge.  A point (:meth:`eval`) is one
    anchored hop.  Along a boundary edge (:meth:`eval_edge`) each sample
    continues the transport from the one before, and the links of such a
    chain share one hop's budget, so a chained state is as accurate as an
    anchored one.  The evaluator keeps its anchor skeleton and nothing per
    point: a point asked for twice is evaluated twice.

    ``counts`` holds the deterministic work done so far: evaluations made
    (a repeated point counts each time), anchored hops admitted and
    refused, chained links admitted, and re-anchors (one per refused link).
    """

    def __init__(self, pair: Eigenpair):
        self.pair = pair
        self.spec = pair.spec
        self.pot = self.spec.shifted_field(pair.lam)
        self.f = pair.scale_factor
        self.h = pair.h
        self._anchors = None
        self._anchor_z = None
        self._ugrid = None
        self.counts = dict.fromkeys(("points", "hops", "hops_refused", "links", "reanchors"), 0)

    # anchor spacing along skeleton sweeps, in rescaled units
    _SPACING = 0.07

    def _limit_complex(self):
        return _limit_complex_cached(self.spec.d, self.spec.ell)

    def _publish(self, anchors: list):
        """Make the anchors so far the ones hops start from."""
        self._anchors = anchors
        self._anchor_z = np.array([st.z for st in anchors], dtype=complex)

    def _build_skeleton(self):
        f = self.f
        pair = self.pair
        spacing = self._SPACING * abs(f)
        anchors = []

        # ray solutions, seeded like the eigen-solve; each ray is rescaled
        # by its own endpoint so all anchors describe the one normalized
        # eigenfunction (the rays agree only up to the converged residual).
        # They start at twice the solve's radius: that radius can be as
        # small as 1.3 f, inside zero-set windows such as |Re|, |Im| <= 1.6 f,
        # and past a ray's seed the eigenfunction decays outward, where no
        # hop follows
        left, right = self.spec.boundary_rays
        R = 2.0 * pair.seed_radius
        for theta in (right, left):
            y, dy = wkb_seed(self.spec, pair.lam, theta, R)
            z0 = R * cmath.exp(1j * theta)
            pts = _segment_points(z0, 0j, spacing)
            states = transport_states(self.pot, pts, y, dy)
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
        self._publish(anchors)

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
            cur, _ = self._hop_from(samples[0], self._seed_order(samples[0]))
            seg_anchors = [cur]
            acc = 0.0
            prev = samples[0]
            for z in samples[1:]:
                acc += abs(z - prev)
                prev = z
                if acc >= spacing:
                    cur = transport(self.pot, [cur.z, z], cur.y, cur.dy, cur.log_scale)
                    seg_anchors.append(cur)
                    acc = 0.0
            anchors.extend(seg_anchors)
            self._publish(anchors)

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
    # monitored; such points are reached from another anchor instead
    _HOP_BUDGET = 8.0

    def _monitored_hop(self, st: TransportState, z: complex, budget: float):
        """Transport a hop while integrating its possible divergence.

        Roundoff enters each stretch at ~1e-14 of the local solution and
        then grows at the dominant local rate |Re(sqrt(W) t)|; comparing
        that bound with the actual modulus slope measures exactly how much
        relative accuracy the hop has lost.  The hop is one transport; the
        modulus at the ends of its equal pieces is read from the Taylor
        steps' dense output, and the transport is aborted (None returned)
        once the loss exceeds the budget.  An admitted hop returns its state
        and its measured loss.
        """
        pot = self.pot
        total = abs(z - st.z)
        if total == 0:
            return st, 0.0
        direction = (z - st.z) / total
        pieces = max(6, int(total * self.h / (2.0 * abs(self.f))))
        pieces = min(pieces, 200)
        piece = total / pieces
        # piece k ends at distance k * piece; the final piece may legitimately
        # dive into a zero of y, its own amplification is bounded by one
        # piece's phase, so only the ends of pieces 1 .. pieces-1 are read
        k = 1
        prev_z = st.z
        prev_log = st.log_abs_y()
        divergence = 0.0
        start = 0.0  # distance of the current step's start from st.z

        def watch(step):
            nonlocal k, prev_z, prev_log, divergence, start
            length = abs(step.dz)
            while k < pieces and k * piece <= start + length:
                target = st.z + (z - st.z) * (k / pieces)
                rate = abs((cmath.sqrt(pot(0.5 * (prev_z + target))) * direction).real)
                y = step.value_at((k * piece - start) / length)
                log_y = math.log(abs(y)) + step.log_scale if y != 0 else -math.inf
                divergence += max(0.0, rate * piece - (log_y - prev_log))
                if divergence > budget:
                    raise _HopDiverged
                k += 1
                prev_z, prev_log = target, log_y
            start += length

        try:
            got = transport(self.pot, [st.z, z], st.y, st.dy, st.log_scale, watcher=watch)
        except _HopDiverged:
            return None
        return got, divergence

    def _estimate(self, z: complex, idx: np.ndarray) -> tuple:
        """Estimated loss and phase length of a straight hop to z from each
        anchor in ``idx``: over the 8 pieces of its chord, the sum of what the
        dominant growth h |Re(sqrt(Q) dw)| of the limit differential exceeds
        the climb of the envelope h u (the divergence :meth:`_monitored_hop`
        measures), and the sum of |sqrt(Q) dw|."""
        za = self._anchor_z[idx]
        chord = (z - za)[:, None]
        pts = za[:, None] + chord * (np.arange(9) / 8)
        env = self.h * self._u_hat(pts)
        wr, wi = _divide(0.5 * (pts[:, 1:] + pts[:, :-1]), self.f)
        qr, qi = horner_parts(self._limit_complex().quaddiff.polynomial, wr, wi)
        phase = np.sqrt(qr + 1j * qi) * (chord / (8.0 * self.f))
        loss = np.maximum(0.0, self.h * np.abs(phase.real) - np.diff(env, axis=1)).sum(axis=1)
        return loss, np.abs(phase).sum(axis=1)

    def _hop_order(self, z: complex):
        """Anchor indices in the order hops to z are tried: those of the 24
        nearest estimated (:meth:`_estimate`) within the budget, by phase
        length; then, estimated only if needed, every anchor not yet tried,
        within the budget first, each by phase length.  The sorts are
        stable, so equal keys keep the order of distance, then index."""
        budget = self._HOP_BUDGET
        near = np.argsort(np.abs(self._anchor_z - z), kind="stable")[:24]
        loss, length = self._estimate(z, near)
        first = near[loss <= budget][np.argsort(length[loss <= budget], kind="stable")]
        yield from first
        rest = np.delete(np.arange(len(self._anchor_z)), first)
        loss, length = self._estimate(z, rest)
        yield from rest[np.lexsort((length, loss > budget))]

    def _seed_order(self, z: complex):
        """Anchor indices in the order hops to a sweep's first sample are
        tried: every anchor, by estimated loss, then phase length.  Every
        anchor of the sweep carries the error its seed hop let grow, and a
        hop from one of them may let it grow by a whole budget again, so a
        sweep starts from the hop that loses least, not the shortest."""
        loss, length = self._estimate(z, np.arange(len(self._anchor_z)))
        return np.lexsort((length, loss))

    def _hop_from(self, z: complex, order=None) -> tuple:
        """(state, measured loss) of the first admitted hop from an anchor to z.

        The estimated divergence orders the anchors (:meth:`_hop_order`,
        unless ``order`` is given) and the hop's own measured divergence
        admits it.  A point that no hop reaches within the budget raises
        :class:`IntegrationError`.
        """
        for i in self._hop_order(z) if order is None else order:
            hop = self._monitored_hop(self._anchors[i], z, self._HOP_BUDGET)
            if hop is not None:
                self.counts["hops"] += 1
                return hop
            self.counts["hops_refused"] += 1
        raise IntegrationError(
            f"no anchor's hop reaches z={z:.17g} within the hop budget "
            f"{self._HOP_BUDGET:g} (n={self.pair.n}, lambda={self.pair.lam:.17g})"
        )

    def eval_edge(self, zs) -> list:
        """Transport states at the ordered samples of one boundary edge.

        The first sample is an anchored hop; each later sample is a link
        from the previous sample's state through :meth:`_monitored_hop`,
        with the budget the chain has left: ``_HOP_BUDGET`` less the loss
        its anchored hop and links have measured.  Consecutive samples are a
        fraction of a wavelength apart, so a link takes one or two Taylor
        steps.  A refused link re-anchors: its sample is an anchored hop
        that starts a new chain.
        """
        if self._anchors is None:
            self._build_skeleton()
        sts = []
        left = 0.0
        for z in zs:
            z = _waypoint(z)
            hop = self._monitored_hop(sts[-1], z, left) if sts else None
            if hop is not None:
                self.counts["links"] += 1
                st, loss = hop
                left -= loss
            else:
                if sts:
                    self.counts["reanchors"] += 1
                st, loss = self._hop_from(z)
                left = self._HOP_BUDGET - loss
            sts.append(st)
            self.counts["points"] += 1
        return sts

    def eval(self, z: complex) -> TransportState:
        """Transport state (y, y', log scale) of the eigenfunction at z: one
        anchored hop (:meth:`_hop_from`)."""
        if self._anchors is None:
            self._build_skeleton()
        st, _ = self._hop_from(_waypoint(z))
        self.counts["points"] += 1
        return st


def _divide(z: np.ndarray, f: complex) -> tuple:
    """Real and imaginary parts of z / f, rounded as Python divides complex.

    numpy divides complex arrays through a reciprocal, which rounds
    differently; spelling Smith's quotient out keeps every envelope value,
    and so every hop estimate, bit-identical to scalar ``complex(z) / f``.
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
    """The limit Stokes complex of (d, ell): the one route to it, built once.

    Every caller shares the returned object, so none may mutate it.
    """
    return stokes_complex(d, ell)


@lru_cache(maxsize=32)
def _limit_phase_cached(d: int, ell: int):
    return PhaseIntegral(_limit_complex_cached(d, ell))


@lru_cache(maxsize=32)
def _limit_ugrid_cached(d: int, ell: int):
    pi = _limit_phase_cached(d, ell)
    return pi.u_grid(-2.7 - 2.7j, 55, 55, 0.1, 0.1)


class RescaledEigenfunction:
    """Evaluator of Y(w) = y(lambda^{1/d} w) with its real-zero bracket."""

    def __init__(self, ev: EigenfunctionEvaluator):
        self.ev = ev
        self.pair = ev.pair
        self.f = ev.f
        self.h = ev.h

    def state(self, w: complex) -> TransportState:
        """Rescaled state (Y, dY/dw, log scale) at w, an anchored hop
        (:meth:`EigenfunctionEvaluator.eval`)."""
        w = complex(w)
        st = self.ev.eval(self.f * w)
        return TransportState(w, st.y, st.dy * self.f, st.log_scale)

    def edge_states(self, ws) -> list:
        """Rescaled states at the ordered samples of one boundary edge, each
        hopped from the one before (:meth:`EigenfunctionEvaluator.eval_edge`)."""
        ws = [complex(w) for w in ws]
        sts = self.ev.eval_edge([self.f * w for w in ws])
        return [TransportState(w, st.y, st.dy * self.f, st.log_scale) for w, st in zip(ws, sts)]

    def edge_budget(self, a: complex, b: complex) -> float:
        """Base sample count of the edge from a to b: its length times the
        largest local wavenumber |sqrt(P - lambda)| (in rescaled units, at
        nine points), at 0.9 radians per sample, plus 16."""
        rate = max(
            abs(cmath.sqrt(self.ev.pot(self.f * (a + (b - a) * k / 8.0)))) * abs(self.f)
            for k in range(9)
        )
        return abs(b - a) * rate / 0.9 + 16

    def log_modulus(self, w: complex) -> float:
        """(1/h) log |Y(w)|, the quantity converging to the envelope u."""
        return self.state(w).log_abs_y() / self.h

    def real_bracket(self) -> tuple:
        lo, hi = _real_bracket(self.pair.spec, self.pair.lam)
        return lo / abs(self.f), hi / abs(self.f)


def rescale(ev: EigenfunctionEvaluator) -> RescaledEigenfunction:
    return RescaledEigenfunction(ev)


def envelope_deviation(resc: RescaledEigenfunction, phase: PhaseIntegral, points) -> float:
    """Sup over the points of |(1/h) log |Y| - u|."""
    return float(max(abs(resc.log_modulus(w) - phase.u(complex(w))) for w in points))
