"""The WKB error certificate h0/(h - h0) against measured errors.

The recessive solution of  -y'' + h^2 (z^2 - 1) y = 0  on the right real
axis is computed two ways: by its closed WKB form Q^{-1/4} e^{h Phi}, and
by transporting the equation inward from a far seed.  The relative
discrepancy stays below the certificate at every admissible test point,
and both shrink as h grows.
"""

import cmath
import math

from stokeszeros.polynomials import ComplexPolynomial
from stokeszeros.quaddiff import build_quad_diff
from stokeszeros.transport import transport_states
from stokeszeros.wkb import WKBParameters, h0_bound, wkb_approximant

q = build_quad_diff(2, 1).polynomial
curve = [2.0 + 0.1 * k for k in range(481)]
h0, quad_err = h0_bound(q, curve, s=0.5)
print(f"h0 over the admissible curve [2, 50] with margin s=0.5: {h0:.6f}")

R = 60.0
# the match point, then the test points from the outside in
path = [R, R * 0.998, 6.0, 4.0, 3.0, 2.5, 2.0]
for h in (10.0, 20.0, 40.0, 80.0):
    params = WKBParameters(h=h, h0=h0, s=0.5)
    far = R * R - 1.0
    field = ComplexPolynomial([h * h * c for c in q.coefficients])
    y0 = far**-0.25
    dy0 = y0 * (-h * math.sqrt(far) - 2 * R / (4 * far))
    _, state_far, *states = transport_states(field, path, y0, dy0)
    ref_far, *refs = wkb_approximant(q, params, curve, path[1:])
    worst = 0.0
    for state, ref in zip(states, refs):
        dlog = (state.log_abs_y() - state_far.log_abs_y()) - (
            ref.log_modulus - ref_far.log_modulus
        )
        darg = math.remainder(
            (cmath.phase(state.y) - cmath.phase(state_far.y))
            - (ref.phase - ref_far.phase),
            2 * math.pi,
        )
        worst = max(worst, abs(cmath.exp(complex(dlog, darg)) - 1.0))
    print(
        f"  h={h:>5.1f}: certificate {params.certificate():.6f}   "
        f"measured worst |eps| {worst:.6f}"
    )
