import numpy as np
import pytest

from stokeszeros.geometry import SegmentSet, distance_to_polyline
from test_wkb import _ref_crossing_fractions, _ref_crossings_count

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BLOCK, CHUNK = SegmentSet.BLOCK, SegmentSet.CHUNK

# quarter-integer coordinates make shared end points and exact collinear
# overlaps common, and keep every orientation product exact; the floats
# cover generic positions
coord = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)
point = st.builds(complex, coord, coord)
segment_counts = st.one_of(st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1]), st.integers(1, 40))
query_counts = st.one_of(st.sampled_from([0, 1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3]), st.integers(0, 12))
along = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])


@st.composite
def set_and_queries(draw):
    polylines = [
        draw(st.lists(point, min_size=n + 1, max_size=n + 1))
        for n in draw(st.lists(segment_counts, max_size=4))
    ]
    vertices = [z for pl in polylines for z in pl]
    segments = [(pl[i], pl[i + 1]) for pl in polylines for i in range(len(pl) - 1)]
    ends = [point]
    if vertices:
        ends.append(st.sampled_from(vertices))
    end = st.one_of(*ends)
    queries = []
    for _ in range(draw(query_counts)):
        if segments and draw(st.booleans()):
            # collinear with a set segment, overlapping it around its middle
            p, q = draw(st.sampled_from(segments))
            s0, s1 = sorted((draw(along.filter(lambda s: s <= 0.5)), draw(along.filter(lambda s: s >= 0.5))))
            queries.append((p + s0 * (q - p), p + s1 * (q - p)))
        else:
            queries.append((draw(end), draw(end)))
    return polylines, queries


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(set_and_queries())
def test_segment_set_matches_brute_force(case):
    polylines, queries = case
    segs = SegmentSet.from_polylines(polylines)
    a = np.array([q[0] for q in queries], dtype=complex)
    b = np.array([q[1] for q in queries], dtype=complex)
    args = (a.real, a.imag, b.real, b.imag)
    arcs = [(np.asarray(pl[:-1], dtype=complex), np.asarray(pl[1:], dtype=complex)) for pl in polylines]
    want_cross = [any(_ref_crossings_count(x, y, p, q) for p, q in arcs) for x, y in zip(a, b)]
    want_fractions = [
        sorted(t for p, q in arcs for t in _ref_crossing_fractions(x, y, p, q)) for x, y in zip(a, b)
    ]
    assert segs.crosses(*args).tolist() == want_cross
    assert segs.fractions(*args) == want_fractions


def test_segment_set_matches_brute_force_on_dense_pairs():
    # long queries across a long polyline: a chunk meets more blocks than
    # one orientation test takes
    rng = np.random.default_rng(8)
    t = np.linspace(0, 30 * np.pi, 601)
    line = (0.2 + 1.6 * t / t[-1]) * np.exp(1j * t)  # a spiral across the box
    a, b = (rng.uniform(-2, 2, 150) + 1j * rng.uniform(-2, 2, 150) for _ in range(2))
    segs = SegmentSet.from_polylines([line])
    x0, x1 = np.minimum(a.real, b.real)[:CHUNK, None], np.maximum(a.real, b.real)[:CHUNK, None]
    y0, y1 = np.minimum(a.imag, b.imag)[:CHUNK, None], np.maximum(a.imag, b.imag)[:CHUNK, None]
    met = (x0 <= segs.x1) & (x1 >= segs.x0) & (y0 <= segs.y1) & (y1 >= segs.y0)
    assert met.sum() > SegmentSet.PAIRS
    p, q = line[:-1], line[1:]
    args = (a.real, a.imag, b.real, b.imag)
    assert segs.crosses(*args).tolist() == [_ref_crossings_count(x, y, p, q) > 0 for x, y in zip(a, b)]
    assert segs.fractions(*args) == [_ref_crossing_fractions(x, y, p, q) for x, y in zip(a, b)]


def test_distance_to_polyline_of_points_matches_each_point():
    # 300 points against 29 segments take three broadcasts
    rng = np.random.default_rng(4)
    line = np.cumsum(rng.normal(size=30) + 1j * rng.normal(size=30))
    zs = rng.uniform(-6, 6, 300) + 1j * rng.uniform(-6, 6, 300)
    for samples in (line, line[:1]):
        got = distance_to_polyline(zs, samples)
        assert got.tobytes() == np.array([distance_to_polyline(z, samples) for z in zs]).tobytes()
        assert isinstance(distance_to_polyline(complex(zs[0]), samples), float)
