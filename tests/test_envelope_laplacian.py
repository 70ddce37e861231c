"""The limit measure two ways: the kink of the envelope u on the Stokes lines.

The zero measure of Y_n is (1/2pi) Delta of (1/n) log|Y_n|, so its limit is
(c/2pi) Delta u, and it must be the density (c/pi) sqrt|Q| on the
exceptional set that ``arc_mass_profile`` integrates.  Across an
exceptional line the normal derivative of u therefore jumps by 2 sqrt|Q|;
across every other Stokes line u is harmonic and does not kink.  Only
``PhaseIntegral.u`` is used, with no eigenfunction.

The symmetric second difference (u(z + e nu) + u(z - e nu) - 2 u(z)) / e
across a line with unit normal nu is the jump plus O(e^2) on a kink, and
u_nn e + O(e^3) where u is smooth.  Tolerances (measured on these nine
families, margins as in the acceptance criteria):

- exceptional lines: relative error of the jump at most 1e-6 (worst 3.1e-8);
- other Stokes lines: at most 1e-3 of 2 sqrt|Q| (worst 6.1e-5), and
  halving e halves it: |D(e/2) - D(e)/2| at most 1e-10 of 2 sqrt|Q|
  (worst 3.5e-12), where a kink would leave half the jump.
"""

import cmath

import numpy as np
import pytest

from stokeszeros.stokescomplex import stokes_complex
from stokeszeros.wkb import PhaseIntegral

NINE_FAMILIES = [(2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (6, 3), (6, 4)]
EPS = 1e-4
JUMP_REL = 1e-6
SMOOTH_REL = 1e-3
HALVING_REL = 1e-10


def _sample_points(sc, line):
    """Three samples of the line with |z| <= 2, 0.15 or more from every turning point."""
    pts = [
        z
        for z in line.samples
        if abs(z) <= 2 and min(abs(z - v) for v in sc.turning_points) >= 0.15
    ]
    if not pts:
        return []
    picks = sorted(set(np.linspace(0, len(pts) - 1, 3).round().astype(int).tolist()))
    return [pts[k] for k in picks]


@pytest.mark.parametrize("d, ell", NINE_FAMILIES)
def test_envelope_kinks_exactly_on_the_exceptional_set(d, ell):
    sc = stokes_complex(d, ell)
    phase = PhaseIntegral(sc)
    exceptional = set(sc.exceptional_lines)
    seen = {True: 0, False: 0}
    for i, line in enumerate(sc.lines):
        for z in _sample_points(sc, line):
            # sqrt(Q) dz is imaginary along the line: its normal is conj(sqrt Q)
            w = cmath.sqrt(phase.q(z))
            nu = w.conjugate() / abs(w)
            u0 = phase.u(z)

            def second_difference(e):
                return (phase.u(z + e * nu) + phase.u(z - e * nu) - 2 * u0) / e

            jump = 2 * abs(w)
            full = second_difference(EPS)
            seen[i in exceptional] += 1
            if i in exceptional:
                assert abs(full / jump - 1) <= JUMP_REL, (i, z)
            else:
                assert abs(full) <= SMOOTH_REL * jump, (i, z)
                half = second_difference(EPS / 2)
                assert abs(half - full / 2) <= HALVING_REL * jump, (i, z)
    assert seen[True] > 0 and seen[False] > 0
