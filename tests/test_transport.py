import math
import random
import re

import pytest

from stokeszeros.errors import DomainError
from stokeszeros.polynomials import ComplexPolynomial
from stokeszeros.transport import _step_kernel, transport, transport_states


def _naive_series(bcoeffs, y, dy, order):
    """The Taylor recurrence with its loop bounds recomputed at every order."""
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


def test_series_bits_match_naive_recurrence():
    rng = random.Random(7)

    def draw(real):
        return complex(rng.gauss(0, 2), 0.0 if real else rng.gauss(0, 2))

    # order 3 with m = 4 is where min(k, m) binds on k rather than m
    cases = [(m, 40) for m in range(11)] + [(4, 3)]
    for m, order in cases:
        for real in (False, True):
            for _ in range(5):
                # real data keeps zero imaginary parts, so signed zeros are compared too
                b = [draw(real) for _ in range(m + 1)]
                y, dy = draw(real), draw(real)
                # the field shifted to 0 is b itself; the step hands its series to the watcher
                steps = []
                _step_kernel(m, order)(tuple(b), 0j, y, dy, 0.0, 1.0, 1.0, steps.append)
                got = steps[0].coeffs
                assert repr(got) == repr(_naive_series(b, y, dy, order)), (m, order, real)
                assert len(got) == order + 1


def _reference_transport(coeffs, path, y, dy):
    """The step loop with the looped Taylor shift, recurrence and Horner sums.

    Returns the final (z, y, dy, log_scale) and each step's (z0, dz, coeffs,
    log_scale), with the series' values at a few fractions of the step.
    """
    order, tol, cap_phase = 40, 1e-14, 4.0

    def shift(z0):
        work, out = list(coeffs), []
        while len(work) > 1:
            acc = work[-1]
            quot = [0j] * (len(work) - 1)
            for i in range(len(work) - 2, -1, -1):
                quot[i] = acc
                acc = work[i] + z0 * acc
            out.append(acc)
            work = quot
        return out + [work[0]]

    def value_at(c, t):
        acc = 0j
        for ck in reversed(c):
            acc = acc * t + ck
        return acc

    z, log_scale, steps = complex(path[0]), 0.0, []
    for target in path[1:]:
        seg = target - z
        length = abs(seg)
        direction = seg / length
        travelled = 0.0
        while travelled < length:
            remaining = length - travelled
            bc = shift(z)
            kappa = 0.0
            for j, b in enumerate(bc):
                if abs(b) > 0:
                    kappa = max(kappa, abs(b) ** (1.0 / (j + 2)))
            cap = cap_phase / kappa if kappa > 0 else remaining
            c = _naive_series(bc, y, dy, order)
            h = min(remaining, cap)
            scale_ref = abs(c[0]) + abs(c[1]) * h + 1e-300
            for k in range(order, order - 3, -1):
                if abs(c[k]) > 0:
                    h = min(h, 0.9 * (tol * scale_ref / abs(c[k])) ** (1.0 / k))
            h = min(h, remaining)
            dz = direction * h
            steps.append((z, dz, c, log_scale, [value_at(c, dz * f) for f in _FRACTIONS]))
            acc = dacc = 0j
            for k in range(order, 0, -1):
                acc = acc * dz + c[k]
                dacc = dacc * dz + k * c[k]
            acc = acc * dz + c[0]
            travelled += h
            z = z + dz if travelled < length else target
            y, dy = acc, dacc
            mag = max(abs(y), abs(dy))
            if mag > 0 and (mag > 1e8 or mag < 1e-8):
                y, dy, log_scale = y / mag, dy / mag, log_scale + math.log(mag)
    return (z, y, dy, log_scale), steps


_FRACTIONS = (0.0, 0.3, 0.77, 1.0)


def test_transport_bits_match_reference_step_loop():
    rng = random.Random(11)

    def draw(real, scale=1.0):
        return complex(rng.gauss(0, scale), 0.0 if real else rng.gauss(0, scale))

    for m in range(11):
        for real in (False, True):
            coeffs = [draw(real, 3.0) for _ in range(m + 1)]
            # a real field on a real path keeps every imaginary part zero
            path = [draw(real) for _ in range(3)]
            y, dy = draw(real), draw(real)
            want_end, want_steps = _reference_transport(coeffs, path, y, dy)
            got_steps = []

            def watcher(step):
                vals = [step.value_at(f) for f in _FRACTIONS]
                got_steps.append((step.z0, step.dz, step.coeffs, step.log_scale, vals))

            end = transport(ComplexPolynomial(coeffs), path, y, dy, watcher=watcher)
            assert repr((end.z, end.y, end.dy, end.log_scale)) == repr(want_end), (m, real)
            assert repr(got_steps) == repr(want_steps), (m, real)


def test_transport_bits_match_reference_across_rescales():
    # long climbs and descents fold the mantissa into the log scale many
    # times, a branch the short random paths above never reach
    cases = [
        ([9 + 0j], [0j, 40 + 0j], 1 + 0j, 0j),
        ([9 + 0j], [0j, 40 + 0j], 1 + 0j, -3 + 0j),
        ([9 + 2j, 0.5 + 0j, 0.25j], [0j, 12 + 2j, -8 + 4j], 1 + 0j, 1j),
    ]
    for coeffs, path, y, dy in cases:
        want_end, want_steps = _reference_transport(coeffs, path, y, dy)
        got_steps = []

        def watcher(step):
            vals = [step.value_at(f) for f in _FRACTIONS]
            got_steps.append((step.z0, step.dz, step.coeffs, step.log_scale, vals))

        end = transport(ComplexPolynomial(coeffs), path, y, dy, watcher=watcher)
        assert abs(end.log_scale) > 60, (coeffs, y, dy)
        assert repr((end.z, end.y, end.dy, end.log_scale)) == repr(want_end), (coeffs, y, dy)
        assert repr(got_steps) == repr(want_steps), (coeffs, y, dy)



@pytest.mark.parametrize(
    "path, bad",
    [
        ([0j, complex(math.nan, 0.0)], 1),
        ([0j, 1.0, complex(0.0, math.inf)], 2),
        ([complex(-math.inf, 0.0), 1.0], 0),
    ],
)
def test_non_finite_waypoint_raises(path, bad):
    # a NaN segment length fails every comparison, so the step loop would
    # skip the segment and return the state from before it
    message = re.escape(f"waypoint z={complex(path[bad])!r} is not finite")
    for run in (transport, transport_states):
        with pytest.raises(DomainError, match=message):
            run(ComplexPolynomial([1.0]), path, 1.0, 0.0)
