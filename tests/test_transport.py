import random

from stokeszeros.transport import _series


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
    cases = [(m, 40) for m in range(7)] + [(4, 3)]
    for m, order in cases:
        for real in (False, True):
            for _ in range(5):
                # real data keeps zero imaginary parts, so signed zeros are compared too
                b = [draw(real) for _ in range(m + 1)]
                y, dy = draw(real), draw(real)
                got = _series(b, y, dy, order)
                assert repr(got) == repr(_naive_series(b, y, dy, order)), (m, order, real)
                assert len(got) == order + 1
