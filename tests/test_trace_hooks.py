"""The traced benchmark run (``perfbench/run.py --trace 1``) patches program
names; a rename of any of them must fail here, not silently in the trace."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402

from stokeszeros import spectral, zeros  # noqa: E402
from stokeszeros.polynomials import ComplexPolynomial  # noqa: E402


def test_tracer_counts_and_restores_every_patched_name():
    tracer = layers.Tracer()
    tracer.install()
    patched = list(tracer._undo)  # uninstall empties it
    try:
        p = zeros.PolynomialStates(ComplexPolynomial([-0.25, 0, 1]))
        assert zeros.count_zeros_rect(p, (-1, 1, -1, 1)) == 2
        spectral.solve_eigenpair.cache_clear()
        spectral.solve_eigenpair(spectral.ProblemSpec(2, 1), 1)
    finally:
        tracer.uninstall()
    assert tracer.count["transport.calls"] > 0
    assert tracer.count["zeros.cells"] > 0
    assert patched and all(getattr(owner, name) is original for owner, name, original in patched)


def test_tracer_counts_single_point_evaluations():
    # Newton polish and refinement midpoints reach EigenfunctionEvaluator.eval,
    # the name the tracer wraps; edge chains go through eval_edge, unwrapped
    pair = spectral.solve_eigenpair(spectral.ProblemSpec(2, 1), 2)
    ev = spectral.EigenfunctionEvaluator(pair)
    tracer = layers.Tracer()
    tracer.install()
    try:
        zs = zeros.locate_zeros(spectral.rescale(ev), (-1.1, 1.1, -0.08, 0.08), 0.01)
    finally:
        tracer.uninstall()
    assert zs.total_count == 2
    assert tracer.count["eval.calls"] > 0
    assert tracer.count["eval.distinct"] <= ev.counts["points"]
