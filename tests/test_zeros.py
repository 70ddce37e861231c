import importlib

import numpy as np
import pytest

from stokeszeros.errors import GeometryError
from stokeszeros.polynomials import ComplexPolynomial, roots
from stokeszeros.spectral import EigenfunctionEvaluator, ProblemSpec, rescale, solve_eigenpair
from stokeszeros.stokescomplex import stokes_complex
from stokeszeros.zeros import (
    PolynomialStates,
    compare_to_limit,
    count_zeros_rect,
    empirical_measure,
    locate_zeros,
)

HARMONIC = ProblemSpec(2, 1)
# the package exports the function ``transport`` under the module's name
transport_module = importlib.import_module("stokeszeros.transport")


def test_count_double_zero():
    p = PolynomialStates(ComplexPolynomial([0, 0, 1]))
    assert count_zeros_rect(p, (-1, 1, -1, 1)) == 2


def test_count_two_simple_roots():
    p = PolynomialStates(ComplexPolynomial(np.poly([0.5, -0.3j])[::-1]))
    assert count_zeros_rect(p, (-0.55, 0.55, -0.55, 0.55)) == 2


def test_count_rescaled_hermite_pair():
    pair = solve_eigenpair(HARMONIC, 2)
    resc = rescale(EigenfunctionEvaluator(pair))
    # zeros at +/- 1/sqrt(10) ~ +/- 0.3162
    assert count_zeros_rect(resc, (-0.5, 0.5, -0.5, 0.5)) == 2


def test_locate_double_zero_merges_multiplicity():
    zs = locate_zeros(PolynomialStates(ComplexPolynomial([0, 0, 1])), (-1, 1, -1, 1), resolution=1e-3)
    assert len(zs.zeros) == 1
    z, m = zs.zeros[0]
    assert m == 2
    assert abs(z) < 1e-3


@pytest.mark.parametrize(
    "roots_, window",
    [
        # two simple roots closer than the resolution: each is its own entry
        ([0.3, 0.35], (-1, 1, -1, 1)),
        # the upper cell's Newton limit -0.37+0.005i lies just below the
        # first split line, so it is the lower cell's zero, not this cell's
        ([-0.37 + 0.005j, 0.01 - 0.35j, -0.13 + 0.61j], (-1.05, 1.05, -1.05, 1.05)),
    ],
    ids=["two-roots-closer-than-resolution", "limit-past-the-split-line"],
)
def test_locate_reports_each_simple_zero_where_its_cell_found_it(roots_, window):
    p = ComplexPolynomial(list(np.poly(roots_)[::-1]))
    zs = locate_zeros(PolynomialStates(p), window, 0.1)
    assert [m for _, m in zs.zeros] == [1] * len(roots_)
    got = [z for z, _ in zs.zeros]
    for r in roots_:
        assert min(abs(r - g) for g in got) < 1e-12, (r, zs.zeros)


def test_locate_hermite4_zeros():
    pair = solve_eigenpair(HARMONIC, 4)
    resc = rescale(EigenfunctionEvaluator(pair))
    zs = locate_zeros(resc, (-1.05, 1.05, -0.08, 0.08), resolution=0.01)
    got = sorted(z.real for z, _ in zs.zeros)
    # H4 roots scaled by 1/sqrt(9)
    expected = [-0.5502267, -0.1748825, 0.1748825, 0.5502267]
    assert len(got) == 4
    for g, e in zip(got, expected):
        assert abs(g - e) < 1e-7
    assert max(abs(z.imag) for z, _ in zs.zeros) < 1e-8


def test_locate_matches_roots_oracle_on_random_polynomials():
    rng = np.random.default_rng(23)
    for _ in range(12):
        deg = int(rng.integers(3, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        p = ComplexPolynomial(list(coeffs))
        zs = locate_zeros(PolynomialStates(p), (-1.6, 1.6, -1.6, 1.6), resolution=1e-3)
        x0, x1, y0, y1 = zs.window
        oracle = [r for r in roots(p) if x0 < r.real < x1 and y0 < r.imag < y1]
        got = [z for z, m in zs.zeros for _ in range(m)]
        assert len(got) == len(oracle)
        for r in oracle:
            assert min(abs(r - g) for g in got) < 1e-8


def test_count_conservation_through_subdivision():
    # implicit in locate_zeros: totals match an independent full count
    p = PolynomialStates(ComplexPolynomial(np.poly([0.3 + 0.4j, -0.2 - 0.7j, 0.9, -1.1 + 0.2j])[::-1]))
    zs = locate_zeros(p, (-1.5, 1.5, -1.5, 1.5), resolution=1e-3)
    assert zs.total_count == count_zeros_rect(p, zs.window)


def test_empirical_measure_mass():
    pair = solve_eigenpair(HARMONIC, 5)
    resc = rescale(EigenfunctionEvaluator(pair))
    zs = locate_zeros(resc, (-1.05, 1.05, -0.08, 0.08), resolution=0.01)
    em = empirical_measure(zs, 5)
    assert zs.total_count == 5
    assert abs(em.zeroset.total_count / em.n - 1.0) < 1e-12


def test_boundary_zero_error_names_the_point():
    # the left edge samples the zero -0.5 exactly
    p = PolynomialStates(ComplexPolynomial([-0.25, 0, 1]))
    with pytest.raises(GeometryError, match=r"at z=-0\.5\+0j"):
        count_zeros_rect(p, (-0.5, 1, -1, 1))


@pytest.mark.parametrize(
    "window, resolution, named",
    [
        ((-1, 1, -1, 1), float("nan"), r"resolution .*got nan"),
        ((-1, 1, -1, 1), float("inf"), r"resolution .*got inf"),
        ((-1, 1, float("nan"), 1), 0.01, r"window .*got \(-1, 1, nan, 1\)"),
        ((1, -1, -1, 1), 0.01, r"window .*got \(1, -1, -1, 1\)"),
    ],
    ids=["nan-resolution", "inf-resolution", "nan-corner", "reversed"],
)
def test_locate_rejects_a_non_finite_resolution_or_bad_window(window, resolution, named):
    p =PolynomialStates(ComplexPolynomial([-0.25, 0, 1]))
    with pytest.raises(GeometryError, match=named):
        locate_zeros(p, window, resolution)


@pytest.mark.parametrize(
    "rect, named",
    [
        ((-1, 1, float("nan"), 1), r"rectangle .*got \(-1, 1, nan, 1\)"),
        ((1, -1, -1, 1), r"rectangle .*got \(1, -1, -1, 1\)"),
    ],
    ids=["nan-corner", "reversed"],
)
def test_count_rejects_a_bad_rectangle(rect, named):
    p = PolynomialStates(ComplexPolynomial([-0.25, 0, 1]))
    with pytest.raises(GeometryError, match=named):
        count_zeros_rect(p, rect)


def test_empirical_measure_single_zero_ground_pair():
    pair = solve_eigenpair(HARMONIC, 1)
    resc = rescale(EigenfunctionEvaluator(pair))
    zs = locate_zeros(resc, (-0.6, 0.6, -0.3, 0.3), resolution=0.01)
    assert zs.total_count == 1
    assert abs(zs.zeros[0][0]) < 1e-8


def test_pt_zero_set_symmetry():
    spec = ProblemSpec(3, 1)
    pair = solve_eigenpair(spec, 6)
    resc = rescale(EigenfunctionEvaluator(pair))
    zs = locate_zeros(resc, (-1.3, 1.3, -1.3, 0.4), resolution=0.01)
    assert zs.total_count >= 6
    pos = [z for z, _ in zs.zeros]
    for z in pos:
        assert min(abs(-z.conjugate() - w) for w in pos) < 1e-6


def test_compare_to_limit_self_consistency():
    # atoms placed at the inverse-CDF quantiles of the limit law on E0
    sc = stokes_complex(2, 1)
    from stokeszeros.wkb import arc_mass_profile

    e0 = sc.lines[sc.e0_index].samples
    s, cum = arc_mass_profile(sc.quaddiff, e0)
    n = 60
    targets = (np.arange(n) + 0.5) / n * cum[-1]
    spots = np.interp(targets, cum, s)
    pts = np.interp(spots, s, np.real(np.asarray(e0)))  # E0 is the real segment
    zs_fake = tuple((complex(x, 0.0), 1) for x in sorted(pts))
    from stokeszeros.zeros import EmpiricalMeasure, ZeroSet

    em = EmpiricalMeasure(ZeroSet(zeros=zs_fake, window=(-1.1, 1.1, -0.1, 0.1)), n)
    rep = compare_to_limit(em, sc)
    assert rep.near_fraction == 1.0
    assert rep.arcs[0].ks_distance <= 1.0 / n + 1e-9


def test_compare_harmonic_sample():
    pair = solve_eigenpair(HARMONIC, 20)
    resc = rescale(EigenfunctionEvaluator(pair))
    zs = locate_zeros(resc, (-1.05, 1.05, -0.08, 0.08), resolution=0.01)
    sc = stokes_complex(2, 1)
    rep = compare_to_limit(empirical_measure(zs, 20), sc)
    assert rep.near_fraction == 1.0
    assert rep.arcs[0].ks_distance <= 0.1


def test_near_support_fraction_nondecreasing():
    # concentration onto the exceptional set improves with the index
    spec = ProblemSpec(4, 1)
    sc = stokes_complex(4, 1)
    window = (-1.2, 1.2, -1.2, 1.2)
    fractions = []
    for n in (6, 12, 24):
        resc = rescale(EigenfunctionEvaluator(solve_eigenpair(spec, n)))
        zs = locate_zeros(resc, window, resolution=0.02)
        rep = compare_to_limit(empirical_measure(zs, n), sc, delta=0.1)
        fractions.append(rep.near_fraction)
    assert fractions[0] <= fractions[1] + 1e-9
    assert fractions[1] <= fractions[2] + 1e-9


def test_hille_disc_harmonic():
    pair = solve_eigenpair(HARMONIC, 8)
    resc = rescale(EigenfunctionEvaluator(pair))
    zs = locate_zeros(resc, (-1.05, 1.05, -0.08, 0.08), resolution=0.01)
    assert all(abs(z.imag) <= 1e-8 for z, _ in zs.zeros if abs(z) <= 0.9)


def test_zero_location_takes_few_taylor_steps_per_point(monkeypatch):
    # every Taylor step of every transport runs the step kernel once; edge
    # samples hopped from the previous sample take one or two, where
    # anchored hops took 5.2 here
    ev = EigenfunctionEvaluator(solve_eigenpair(ProblemSpec(4, 1), 10))
    steps = []
    step_kernel = transport_module._step_kernel

    def counted_kernel(m, order):
        step = step_kernel(m, order)
        return lambda p, z0, *rest: steps.append(z0) or step(p, z0, *rest)

    monkeypatch.setattr(transport_module, "_step_kernel", counted_kernel)
    zs = locate_zeros(rescale(ev), (-1.6, 1.6, -1.6, 1.6), resolution=0.015)
    assert zs.total_count == 40
    assert len(steps) <= 2 * ev.counts["points"]


class _Recorder:
    """PolynomialStates that records the point of every ``state`` call and
    the points of every ``edge_states`` call."""

    def __init__(self, p):
        self.inner = PolynomialStates(p)
        self.calls = []
        self.edge_calls = []

    def state(self, z):
        self.calls.append(z)
        return self.inner.state(z)

    def edge_states(self, zs):
        zs = list(zs)
        self.edge_calls.append(zs)
        return self.inner.edge_states(zs)

    def edge_budget(self, a, b):
        return self.inner.edge_budget(a, b)


def test_evaluation_contract_batches_edges_and_polishes_single_points():
    p = ComplexPolynomial(np.poly([0.3 + 0.4j, -0.2 - 0.7j, 0.9])[::-1])
    window = (-1.5, 1.5, -1.5, 1.5)
    rec = _Recorder(p)
    zs = locate_zeros(rec, window, resolution=1e-3)
    assert repr(zs) == repr(locate_zeros(PolynomialStates(p), window, resolution=1e-3))
    assert [m for _, m in zs.zeros] == [1, 1, 1]
    # the cells share one store of boundary samples: no point is sampled
    # by two edge_states calls of one run
    edge_points = [z for call in rec.edge_calls for z in call]
    assert len(edge_points) == len(set(edge_points)) == zs.counts["edge_samples"]

    # one count: each side's 25 base samples arrive in increasing coordinate
    # order as one edge_states call, less the corners an earlier side
    # sampled
    rec.calls.clear()
    rec.edge_calls.clear()
    assert count_zeros_rect(rec, window) == 3
    x0, x1, y0, y1 = window
    ts = [k / 24 for k in range(25)]
    sides = [
        [complex(x0 + (x1 - x0) * t, y0) for t in ts],
        [complex(x1, y0 + (y1 - y0) * t) for t in ts[1:]],
        [complex(x0 + (x1 - x0) * t, y1) for t in ts[:-1]],
        [complex(x0, y0 + (y1 - y0) * t) for t in ts[1:-1]],
    ]
    assert rec.edge_calls == sides

    # Newton polish asks for single points, ending next to each zero
    rec.calls.clear()
    locate_zeros(rec, window, resolution=1e-3)
    for z, _ in zs.zeros:
        assert min(abs(w - z) for w in rec.calls) < 1e-9


def _found_every_root(zs, roots_):
    assert [m for _, m in zs.zeros] == [1] * len(roots_)
    for r in roots_:
        assert min(abs(r - z) for z, _ in zs.zeros) < 1e-12, (r, zs.zeros)


def test_window_nudge_moves_the_window_off_a_root_on_its_edge():
    # the right edge x = 1 passes through a root, so the window count raises
    # and the window shifts right by 0.37 resolution; its shifted bottom and
    # top sides reuse the first attempt's samples and sample only the rest
    roots_ = [1.0 + 0.25j, 0.3 + 0.4j, -0.45 - 0.2j]
    p = PolynomialStates(ComplexPolynomial(list(np.poly(roots_)[::-1])))
    window, resolution = (-1.0, 1.0, -1.0, 1.0), 1e-3
    with pytest.raises(GeometryError, match="near the boundary"):
        count_zeros_rect(p, window)
    zs = locate_zeros(p, window, resolution)
    assert zs.window == (-1.0 + 0.37 * resolution, 1.0 + 0.37 * resolution, -1.0, 1.0)
    assert zs.counts["window_nudges"] == 1
    _found_every_root(zs, roots_)


def test_cross_nudge_moves_the_first_split_off_a_root_on_it():
    # a root on the first vertical cross line: a child count raises, and the
    # cross moves; the horizontal cross line, partly sampled and refined by
    # the failed counts, is reused by the next cross
    window, resolution = (-1.0, 1.0, -1.0, 1.0), 1e-3
    roots_ = [complex(-1.0 + 0.503791 * 2.0, 0.35), 0.3 + 0.4j, -0.45 - 0.2j, 0.6 - 0.7j]
    p = PolynomialStates(ComplexPolynomial(list(np.poly(roots_)[::-1])))
    zs = locate_zeros(p, window, resolution)
    assert zs.window == window
    assert zs.counts["window_nudges"] == 0
    assert zs.counts["cross_nudges"] >= 1
    _found_every_root(zs, roots_)


class _EightPerSide(PolynomialStates):
    """A polynomial sampled far too sparsely: 8 base samples per segment."""

    def edge_budget(self, a, b):
        return 8


def test_side_check_catches_a_turn_the_parent_side_aliased():
    # z**40 at 8 samples per side aliases whole turns between samples, and
    # the count of the window still closes to an integer (23, not 40); the
    # split point inserted on its bottom side reveals an aliased turn, so
    # that side and its two halves disagree by 2 pi
    p = _EightPerSide(ComplexPolynomial([0] * 40 + [1]))
    window = (-1.1, 0.9, -1.05, 0.95)
    assert count_zeros_rect(p, window) == 23
    with pytest.raises(
        GeometryError,
        match=r"bottom side of cell \(-1\.1, 0\.9, -1\.05, 0\.95\): arg change 35\.55\d+ when "
        r"the cell was counted, 41\.84\d+ over its halves",
    ):
        locate_zeros(p, window, 1e-3)


def test_split_samples_only_its_cross():
    # a regression guard on the shared store of boundary samples: the PT
    # quartic at n = 10 in criterion 7's window evaluated 20,143 points when
    # every cell sampled its four edges afresh
    ev = EigenfunctionEvaluator(solve_eigenpair(ProblemSpec(4, 1), 10))
    zs = locate_zeros(rescale(ev), (-1.6, 1.6, -1.6, 1.6), resolution=0.015)
    assert zs.total_count == 40
    assert ev.counts["points"] <= 10_000
