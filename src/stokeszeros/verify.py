"""Verification suite: the quantitative claims the package must reproduce.

Each criterion is a self-contained check with its tolerance pinned at
definition time, returning (passed, measured).  The table ``CRITERIA``
states each criterion's number, name and suite once; the command layer and
the test suite both run from it, so a passing suite means the same thing
everywhere.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .polynomials import ComplexPolynomial, roots
from .quaddiff import build_quad_diff
from .spectral import (
    EigenfunctionEvaluator,
    ProblemSpec,
    _limit_complex_cached,
    _limit_phase_cached,
    envelope_deviation,
    rescale,
    solve_eigenpair,
)
from .transport import transport_states
from .wkb import WKBParameters, eigenvalue_estimate, h0_bound, wkb_approximant
from .zeros import PolynomialStates, compare_to_limit, empirical_measure, locate_zeros

__all__ = ["Criterion", "CriterionResult", "CRITERIA", "run_criteria", "suites"]


@dataclass
class CriterionResult:
    name: str
    suite: str
    passed: bool
    seconds: float
    measured: dict
    detail: str


def _strip_zeros(spec: ProblemSpec, n: int):
    resc = rescale(EigenfunctionEvaluator(solve_eigenpair(spec, n)))
    lo, hi = resc.real_bracket()
    window = (lo - 0.1, hi + 0.1, -0.08, 0.08)
    return resc, locate_zeros(resc, window, resolution=0.01)


def check_harmonic_oracle() -> tuple:
    """(2,1) spectrum equals 2n+1 to 1e-8 relative for n = 0..9."""
    spec = ProblemSpec(2, 1)
    worst = 0.0
    for n in range(10):
        pair = solve_eigenpair(spec, n)
        worst = max(worst, abs(pair.lam - (2 * n + 1)) / (2 * n + 1))
    return worst <= 1e-8, {"worst_relative_error": worst, "tolerance": 1e-8}


def check_asymptotic_law() -> tuple:
    """Growth-law ratio within 2% at n=40 and improving from n=10."""
    measured = {}
    ok = True
    for d, ell in ((4, 2), (3, 1)):
        spec = ProblemSpec(d, ell)
        ratios = {}
        for n in (10, 40):
            lam = solve_eigenpair(spec, n).lam
            ratios[n] = abs(lam) / eigenvalue_estimate(d, ell, n)
        measured[f"({d},{ell})"] = ratios
        ok = ok and abs(ratios[40] - 1.0) <= 0.02
        ok = ok and abs(ratios[40] - 1.0) < abs(ratios[10] - 1.0)
    return ok, measured


def check_topology() -> tuple:
    """All nine canonical families: census, symmetry, short-line pairing."""
    pairs = [(2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (6, 3), (6, 4)]
    measured = {}
    ok = True
    for d, ell in pairs:
        sc = _limit_complex_cached(d, ell)  # raises on census/symmetry violations
        worst_pairing = 0.0
        for k, v in enumerate(sc.turning_points):
            if abs(v.real) <= 1e-8:
                continue
            shorts = [
                ln for ln in sc.lines if ln.is_short and k in (ln.origin, ln.terminal)
            ]
            if len(shorts) != 1:
                ok = False
                continue
            ln = shorts[0]
            other = ln.terminal if ln.origin == k else ln.origin
            worst_pairing = max(
                worst_pairing, abs(sc.turning_points[other] + v.conjugate())
            )
        measured[f"({d},{ell})"] = {
            "half_plane_regions": sc.half_plane_count,
            "mirror_deviation": sc.mirror_deviation,
            "short_line_pairing_error": worst_pairing,
        }
        ok = ok and sc.half_plane_count == d + 2 and worst_pairing <= 1e-6
    return ok, measured


def check_sturm_count() -> tuple:
    """(4,2): the rescaled eigenfunction n has exactly n real zeros in the
    bracket, for n = 1..30."""
    spec = ProblemSpec(4, 2)
    ok = True
    failures = []
    for n in range(1, 31):
        resc, zs = _strip_zeros(spec, n)
        lo, hi = resc.real_bracket()
        count = zs.total_count
        inside = all(
            lo - 0.02 < z.real < hi + 0.02 and abs(z.imag) <= 1e-8 for z, _ in zs.zeros
        )
        if count != n or not inside:
            ok = False
            failures.append({"n": n, "count": count, "inside": inside})
    return ok, {"range": "1..30", "failures": failures}


def check_semicircle() -> tuple:
    """Harmonic n=50 rescaled zeros against the semicircle law: KS <= 0.06."""
    spec = ProblemSpec(2, 1)
    resc, zs = _strip_zeros(spec, 50)
    sc = _limit_complex_cached(2, 1)
    rep = compare_to_limit(empirical_measure(zs, 50), sc)
    ks = rep.arcs[0].ks_distance
    # direct cross-check against the closed-form semicircle distribution
    xs = sorted(z.real for z, _ in zs.zeros)
    cdf = lambda x: 0.5 + (x * math.sqrt(max(1 - x * x, 0.0)) + math.asin(max(min(x, 1), -1))) / math.pi
    ks_direct = max(
        max(abs(cdf(x) - k / len(xs)), abs(cdf(x) - (k + 1) / len(xs)))
        for k, x in enumerate(xs)
    )
    passed = zs.total_count == 50 and ks <= 0.06 and ks_direct <= 0.06
    return passed, {"count": zs.total_count, "ks": ks, "ks_closed_form": ks_direct, "tolerance": 0.06}


def check_log_growth() -> tuple:
    """(1/h) log |Y_n| approaches the envelope u on admissible points."""
    cases = {
        (2, 1): [2.0, 1.5j, 0.7 + 1.5j, -0.7 + 1.5j],
        (4, 2): [1.5, -1.5, 0.9 + 0.9j, -0.9 + 0.9j, 0.5 - 1.2j],
    }
    ok = True
    measured = {}
    for (d, ell), pts in cases.items():
        spec = ProblemSpec(d, ell)
        phase = _limit_phase_cached(d, ell)
        devs = {}
        for n in (10, 40):
            resc = rescale(EigenfunctionEvaluator(solve_eigenpair(spec, n)))
            devs[n] = envelope_deviation(resc, phase, pts)
        measured[f"({d},{ell})"] = devs
        ok = ok and devs[40] <= 0.05 and devs[40] < devs[10]
    return ok, measured


def check_clustering() -> tuple:
    """PT quartic (4,1), n=40: zeros concentrate on the exceptional set."""
    spec = ProblemSpec(4, 1)
    resc = rescale(EigenfunctionEvaluator(solve_eigenpair(spec, 40)))
    zs = locate_zeros(resc, (-1.6, 1.6, -1.6, 1.6), resolution=0.015)
    sc = _limit_complex_cached(4, 1)
    rep = compare_to_limit(empirical_measure(zs, 40), sc, delta=0.1)
    e0 = rep.arcs[0]
    rel = abs(e0.empirical_mass - e0.limit_mass) / e0.limit_mass
    return rep.near_fraction >= 0.90 and rel <= 0.15, {
        "total_zeros": zs.total_count,
        "near_fraction": rep.near_fraction,
        "e0_empirical_mass": e0.empirical_mass,
        "e0_limit_mass": e0.limit_mass,
        "e0_relative_error": rel,
    }


def check_wkb_certificate() -> tuple:
    """WKB error certificate: the measured relative error of the
    recessive solution against its closed form stays below h0/(h - h0)."""
    q = build_quad_diff(2, 1).polynomial
    curve = [2.0 + 0.1 * k for k in range(481)]  # [2, 50]
    s_margin = 0.5
    h0, _ = h0_bound(q, curve, s=s_margin)
    seed_radius = 60.0
    # the oracle's path from its seed: first the point where the free
    # constant is matched, while both descriptions are still fresh, then
    # the test points from the outside in
    path = [seed_radius, seed_radius * 0.998, 6.0, 4.0, 3.0, 2.5, 2.0]
    ok = True
    measured = {"h0": h0}
    for h in (20.0, 40.0):
        params = WKBParameters(h=h, h0=h0, s=s_margin)
        bound = params.certificate()
        # independent oracle: transport the recessive solution inward from a
        # far WKB seed (its own truncation there is negligible)
        far = seed_radius**2 - 1.0
        field = ComplexPolynomial([h * h * c for c in q.coefficients])
        y0 = far**-0.25
        dy0 = y0 * (-h * math.sqrt(far) - 2 * seed_radius / (4 * far))
        _, state_far, *states = transport_states(field, path, y0, dy0)
        ref_far, *refs = wkb_approximant(q, params, curve, path[1:])
        worst = 0.0
        for state, ref in zip(states, refs):
            dlog = (state.log_abs_y() - state_far.log_abs_y()) - (
                ref.log_modulus - ref_far.log_modulus
            )
            darg = (cmath.phase(state.y) - cmath.phase(state_far.y)) - (
                ref.phase - ref_far.phase
            )
            darg = math.remainder(darg, 2 * math.pi)
            eps = abs(cmath.exp(complex(dlog, darg)) - 1.0)
            worst = max(worst, eps)
        measured[f"h={h:g}"] = {"bound": bound, "worst_empirical_eps": worst}
        ok = ok and worst <= bound
    return ok, measured


def check_zero_finder_oracle() -> tuple:
    """locate_zeros reproduces the simultaneous root finder on 100 random
    polynomials of degree <= 8."""
    rng = np.random.default_rng(712)
    mismatches = 0
    worst_pos = 0.0
    for _ in range(100):
        deg = int(rng.integers(2, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        p = ComplexPolynomial(list(coeffs))
        zs = locate_zeros(PolynomialStates(p), (-1.6, 1.6, -1.6, 1.6), resolution=1e-3)
        x0, x1, y0, y1 = zs.window
        oracle = [r for r in roots(p) if x0 < r.real < x1 and y0 < r.imag < y1]
        got = [z for z, m in zs.zeros for _ in range(m)]
        if len(got) != len(oracle):
            mismatches += 1
            continue
        for r in oracle:
            worst_pos = max(worst_pos, min(abs(r - g) for g in got))
    passed = mismatches == 0 and worst_pos <= 1e-8
    return passed, {"count_mismatches": mismatches, "worst_position_error": worst_pos}


def check_hille_disc() -> tuple:
    """(4,2), n = 20..30: all zeros in |z| <= 0.8 are real to 1e-8."""
    spec = ProblemSpec(4, 2)
    worst = 0.0
    for n in range(20, 31):
        resc = rescale(EigenfunctionEvaluator(solve_eigenpair(spec, n)))
        zs = locate_zeros(resc, (-0.85, 0.85, -0.85, 0.85), resolution=0.01)
        this = max((abs(z.imag) for z, _ in zs.zeros if abs(z) <= 0.8), default=0.0)
        worst = max(worst, this)
    return worst <= 1e-8, {"worst_imag_in_disc": worst, "tolerance": 1e-8}


class Criterion(NamedTuple):
    """One row of the criterion table: what report.json calls it, and how it runs."""

    name: str
    suite: str
    check: Callable[[], tuple]  # () -> (passed, measured)
    detail: str = ""


CRITERIA = {
    1: Criterion("harmonic-oracle", "spectrum", check_harmonic_oracle),
    2: Criterion(
        "asymptotic-law",
        "spectrum",
        check_asymptotic_law,
        "ratio lambda_n / (c n)^{2d/(d+2)} at n in {10, 40}",
    ),
    3: Criterion("topology", "topology", check_topology),
    4: Criterion("sturm-count", "zeros", check_sturm_count),
    5: Criterion("semicircle", "zeros", check_semicircle),
    6: Criterion(
        "log-growth", "wkb", check_log_growth, "sup |(1/h) log|Y_n| - u| over the test points"
    ),
    7: Criterion("clustering", "zeros", check_clustering),
    8: Criterion("wkb-certificate", "wkb", check_wkb_certificate),
    9: Criterion("zero-finder-oracle", "zeros", check_zero_finder_oracle),
    10: Criterion("hille-disc", "zeros", check_hille_disc),
}


def suites() -> dict:
    """Suite name -> its criterion numbers, in the table's order."""
    out = {}
    for k, c in CRITERIA.items():
        out.setdefault(c.suite, []).append(k)
    return out


def run_criteria(numbers=None, suite=None) -> list:
    """Run the selected criteria (all by default) and collect results.

    A number outside ``CRITERIA``, or a suite that holds none of the
    selected numbers, raises :class:`DomainError` before any criterion runs.
    """
    unknown = sorted(set(numbers or ()) - set(CRITERIA))
    if unknown:
        raise DomainError(f"unknown criteria {unknown}; known are {sorted(CRITERIA)}")
    selected = sorted(numbers) if numbers else sorted(CRITERIA)
    if suite:
        allowed = suites().get(suite, [])
        chosen = [k for k in selected if k in allowed]
        if not chosen:
            raise DomainError(f"suite {suite!r} holds criteria {allowed}, none of {selected}")
        selected = chosen
    out = []
    for k in selected:
        c = CRITERIA[k]
        t0 = time.perf_counter()
        try:
            passed, measured = c.check()
            detail = c.detail
        except Exception as exc:  # structural failures count as criterion failures
            passed, measured, detail = False, {}, f"{type(exc).__name__}: {exc}"
        out.append(
            CriterionResult(c.name, c.suite, passed, time.perf_counter() - t0, measured, detail)
        )
    return out
