import cmath
import math

import numpy as np
import pytest

from stokeszeros.errors import DomainError
from stokeszeros.polynomials import ComplexPolynomial
from stokeszeros.geometry import wrap_angle
from stokeszeros.quaddiff import (
    QuadDiff,
    TraceCaps,
    build_quad_diff,
    launch_directions,
    stokes_directions,
    trace_trajectory,
    turning_points,
)
from stokeszeros.stokescomplex import is_admissible, stokes_complex


def test_build_coefficients():
    assert build_quad_diff(2, 1).polynomial.coefficients == (-1 + 0j, 0j, 1 + 0j)
    assert build_quad_diff(4, 2).polynomial.coefficients == (-1 + 0j, 0j, 0j, 0j, 1 + 0j)
    assert build_quad_diff(3, 1).polynomial.coefficients == (-1 + 0j, 0j, 0j, 1j)


def test_build_rejects_bad_ell():
    with pytest.raises(DomainError):
        build_quad_diff(4, 4)
    with pytest.raises(DomainError):
        build_quad_diff(4, 0)


def test_turning_points_families():
    assert turning_points(build_quad_diff(2, 1)) == [1, -1]
    got = turning_points(build_quad_diff(4, 2))
    expected = [-1j, 1, 1j, -1]
    assert all(abs(g - e) < 1e-12 for g, e in zip(got, expected))
    got31 = turning_points(build_quad_diff(3, 1))
    expected31 = [cmath.exp(-5j * math.pi / 6), cmath.exp(-1j * math.pi / 6), 1j]
    assert all(abs(g - e) < 1e-12 for g, e in zip(got31, expected31))


def test_stokes_directions_harmonic():
    sd = stokes_directions(2, 1)
    assert sorted(round(a / math.pi, 6) for a in sd.stokes) == [-0.75, -0.25, 0.25, 0.75]
    assert sd.boundary_rays == (math.pi, 0.0)


def test_boundary_rays_cubic():
    sd = stokes_directions(3, 1)
    left, right = sd.boundary_rays
    assert abs(right - (-math.pi / 2 + 2 * math.pi / 5)) < 1e-12
    assert abs(left - (-math.pi / 2 - 2 * math.pi / 5)) < 1e-12


def test_trace_real_segment():
    q = build_quad_diff(2, 1)
    line = trace_trajectory(q, 1.0, math.pi)
    tps = turning_points(q)
    assert line.terminal is not None
    assert abs(tps[line.terminal] + 1) < 1e-12
    assert max(abs(s.imag) for s in line.samples) < 1e-9


def test_trace_axis_ray():
    q = build_quad_diff(4, 2)
    line = trace_trajectory(q, 1j, math.pi / 2)
    assert line.terminal is None
    assert abs(line.terminal_angle - math.pi / 2) < 1e-9
    assert max(abs(s.real) for s in line.samples) < 1e-9


def test_trace_short_line_cubic():
    q = build_quad_diff(3, 1)
    tps = turning_points(q)
    v = tps[1]  # exp(-i pi/6)
    hits = []
    for phi in launch_directions(q, v):
        ln = trace_trajectory(q, v, phi)
        if ln.is_short:
            hits.append(ln)
    assert len(hits) == 1
    assert abs(tps[hits[0].terminal] - cmath.exp(-5j * math.pi / 6)) < 1e-9


def test_trace_drift_and_monotone_phase():
    q = build_quad_diff(3, 1)
    v = turning_points(q)[1]
    for phi in launch_directions(q, v):
        ln = trace_trajectory(q, v, phi)
        assert abs(ln.re_zeta_drift) < 1e-6
        # vertical-trajectory property: Im zeta strictly increases, which
        # for a unit-speed trace means consecutive samples never repeat
        w = cmath.sqrt(q(ln.samples[1]))
        imz = 0.0
        prev = ln.samples[1]
        increments = []
        for z in ln.samples[2:-1]:
            wn = cmath.sqrt(q(z))
            if abs(wn - w) > abs(wn + w):
                wn = -wn
            increments.append(((w + wn) / 2 * (z - prev)).imag)
            prev, w = z, wn
        increments = np.asarray(increments)
        assert np.all(increments > 0) or np.all(increments < 0)


def test_complex_census_2_1():
    sc = stokes_complex(2, 1)
    assert len(sc.turning_points) == 2
    assert len(sc.lines) == 5
    assert sum(1 for ln in sc.lines if ln.is_short) == 1
    assert sc.half_plane_count == 4
    assert sc.strip_count == 0


def _axis_rays(sc):
    """Exceptional unbounded lines running to +i or -i infinity."""
    return [
        ln
        for ln in sc.lines
        if ln.is_exceptional
        and not ln.is_short
        and abs(abs(ln.terminal_angle) - math.pi / 2) < 1e-9
    ]


def test_complex_census_4_2():
    sc = stokes_complex(4, 2)
    assert sc.half_plane_count == 6
    shorts = [ln for ln in sc.lines if ln.is_short]
    assert len(shorts) == 1
    a, b = shorts[0].samples[0], shorts[0].samples[-1]
    assert {round(a.real), round(b.real)} == {-1, 1}
    assert len(_axis_rays(sc)) == 2


@pytest.mark.parametrize("d,ell", [(2, 1), (3, 1), (4, 1), (4, 2), (6, 1), (6, 3)])
def test_half_plane_region_count(d, ell):
    sc = stokes_complex(d, ell)
    assert sc.half_plane_count == d + 2
    assert sc.strip_count == len(sc.regions) - (d + 2)


def test_exceptional_set_2_1():
    sc = stokes_complex(2, 1)
    exc = sc.exceptional_lines
    assert exc == [sc.e0_index]
    assert _axis_rays(sc) == []
    assert {sc.turning_points[sc.v_plus], sc.turning_points[sc.v_minus]} == {1, -1}


def test_exceptional_set_4_2():
    sc = stokes_complex(4, 2)
    exc = sc.exceptional_lines
    assert len(exc) == 3  # short line plus both axis rays
    assert sc.lines[sc.e0_index].is_short
    assert len(_axis_rays(sc)) == 2


def test_exceptional_set_3_1():
    sc = stokes_complex(3, 1)
    exc = sc.exceptional_lines
    assert len(exc) == 2
    kinds = {sc.lines[i].is_short for i in exc}
    assert kinds == {True, False}
    ray = next(i for i in exc if not sc.lines[i].is_short)
    assert abs(sc.lines[ray].terminal_angle - math.pi / 2) < 1e-9


def test_one_exceptional_per_turning_point():
    for d, ell in [(3, 1), (4, 1), (4, 2), (6, 2)]:
        sc = stokes_complex(d, ell)
        assert len(sc.exceptional_lines) == len(sc.turning_points) - 1


def test_short_line_mirror_pairing():
    for d, ell in [(4, 1), (6, 1)]:
        sc = stokes_complex(d, ell)
        tps = sc.turning_points
        for k, v in enumerate(tps):
            if abs(v.real) < 1e-9:
                continue
            partners = [
                ln
                for ln in sc.lines
                if ln.is_short and k in (ln.origin, ln.terminal)
            ]
            assert len(partners) == 1
            ln = partners[0]
            other = ln.terminal if ln.origin == k else ln.origin
            assert abs(tps[other] - (-v.conjugate())) < 1e-6


def test_admissible_real_segment():
    q = build_quad_diff(2, 1)
    # distance to the turning point at 1 is the binding constraint here
    assert is_admissible([2.0, 2.5, 3.0], q.polynomial, s=0.9)
    assert not is_admissible([2.0, 2.5, 3.0], q.polynomial, s=1.01)
    # far from the turning points the vertical foliation allows any margin
    # short of a right angle against the horizontal tangent
    assert is_admissible([3.0, 3.5, 4.0], q.polynomial, s=math.pi / 2 - 0.05)
    assert not is_admissible([3.0, 3.5, 4.0], q.polynomial, s=math.pi / 2 + 0.01)


def test_admissible_rejects_trajectory_piece():
    q = build_quad_diff(2, 1)
    line = trace_trajectory(q, 1.0, math.pi / 3)
    piece = [z for z in line.samples if abs(z - 1) > 0.8][:60]
    res = is_admissible(piece, q.polynomial, s=0.1)
    assert not res.admissible
    assert res.first_violation[1] == "foliation-angle"


def test_admissible_rejects_turning_point_contact():
    q = build_quad_diff(2, 1)
    res = is_admissible([0.5, 1.0, 1.5], q.polynomial, s=0.01)
    assert not res.admissible


def test_mirror_symmetry_of_line_set():
    for d, ell in [(3, 1), (4, 1), (6, 2)]:
        sc = stokes_complex(d, ell)
        assert sc.mirror_deviation <= 1e-4


def test_exceptional_distance_field():
    sc = stokes_complex(2, 1)
    assert sc.distance_to_exceptional(0.0) < 1e-12
    assert abs(sc.distance_to_exceptional(2.0) - 1.0) < 1e-9
    assert abs(sc.distance_to_exceptional(1j) - 1.0) < 1e-3


def test_perturbation_stability_of_admissibility():
    # an admissible curve for the canonical differential stays admissible
    # with half the margin under small coefficient perturbations
    q = build_quad_diff(2, 1)
    curve = [2.2 + 0.2 * k for k in range(20)]
    s = 0.6
    assert is_admissible(curve, q.polynomial, s)
    for h in (0.01, 0.05, 0.1):
        qp = QuadDiff(2, 1, ComplexPolynomial([-1 + h * (1 + 1j), -h * 0.5j, 1]))
        assert is_admissible(curve, qp.polynomial, s / 2)


def test_serialization_roundtrip_fields():
    sc = stokes_complex(3, 1)
    d = sc.to_dict()
    assert d["census"]["half_plane_regions"] == 5
    assert len(d["lines"]) == len(sc.lines)
    assert any(ln["is_exceptional"] for ln in d["lines"])
    assert {r["label"] for r in d["regions"]} >= {"omega+", "omega-"}


# -- bit identity with the plain Dormand-Prince loop ----------------------------
# An in-test copy of the tracer before its step was unrolled: the tableau as
# tuples, seven stages per attempt each evaluating sqrt(Q), and the branch at
# the new point evaluated again after acceptance.  The limit geometry and the
# envelope grid start from these samples, so they must match bit for bit.

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _ref_nearest_sign(w, ref):
    return -w if abs(w - ref) > abs(w + ref) else w


def _ref_trace(q, v, phi):
    """(samples, terminal, terminal_angle, re_zeta_drift, steps, rejected)."""
    caps = TraceCaps.for_diff(q)
    tps = turning_points(q)
    dirs = stokes_directions(q.d, q.ell).stokes
    tangent = cmath.exp(1j * phi)
    origin = tps.index(v)
    z = v + caps.launch_offset * tangent
    w = cmath.sqrt(q(z))
    if (1j * w.conjugate() / abs(w) / tangent).real < 0:
        w = -w
    samples, drift, arclength = [z], 0.0, 0.0
    h = max(caps.launch_offset, 1e-6)
    terminal = terminal_angle = None
    steps = rejected = 0
    armed = False

    def nearest_tp(pt):
        dists = [abs(pt - t) for t in tps]
        best = min(dists)
        return dists.index(best), best

    while True:
        h = min(h, 0.25 * nearest_tp(z)[1], 0.35)
        while True:
            ks, ref, ok = [], w, True
            for i in range(7):
                zi = z
                for j, aij in enumerate(_DP_A[i]):
                    zi += h * aij * ks[j]
                ref = _ref_nearest_sign(cmath.sqrt(q(zi)), ref)
                if abs(ref) == 0:
                    ok = False
                    break
                ks.append(1j * ref.conjugate() / abs(ref))
            if not ok:
                rejected += 1
                h *= 0.3
                continue
            z5, z4 = z, z
            for i in range(7):
                z5 += h * _DP_B5[i] * ks[i]
                z4 += h * _DP_B4[i] * ks[i]
            err = abs(z5 - z4)
            tol = 1e-10 * max(h, 1e-3)
            if err <= tol or h <= 1e-13 * (1 + abs(z)):
                break
            rejected += 1
            h *= max(0.2, min(0.9 * (tol / max(err, 1e-300)) ** 0.2, 0.8))
        w_mid = _ref_nearest_sign(cmath.sqrt(q(0.5 * (z + z5))), w)
        w_new = _ref_nearest_sign(cmath.sqrt(q(z5)), w_mid)
        drift += ((w + 4 * w_mid + w_new) / 6.0 * (z5 - z)).real
        z, w = z5, w_new
        arclength += h
        steps += 1
        samples.append(z)
        h *= max(0.3, min(0.9 * (tol / max(err, 1e-300)) ** 0.2, 4.0))
        idx, dist = nearest_tp(z)
        armed = armed or idx != origin or dist > 5 * caps.capture_radius
        if dist <= caps.capture_radius and armed:
            terminal = idx
            samples.append(tps[idx])
            break
        if abs(z) >= caps.escape_radius:
            ang = cmath.phase(z)
            terminal_angle = min(dirs, key=lambda t: abs(wrap_angle(ang - t)))
            break
    return samples, terminal, terminal_angle, drift, steps, rejected


NINE_FAMILIES = [(2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (6, 3), (6, 4)]


@pytest.mark.parametrize("d, ell", NINE_FAMILIES)
def test_trace_bits_match_plain_dp_loop(d, ell):
    q = build_quad_diff(d, ell)
    for v in turning_points(q):
        for phi in launch_directions(q, v):
            ln = trace_trajectory(q, v, phi)
            got = (ln.samples, ln.terminal, ln.terminal_angle, ln.re_zeta_drift)
            want = _ref_trace(q, v, phi)
            assert repr(got) == repr(want[:4]), (v, phi)
            assert (ln.steps, ln.rejected) == want[4:]
