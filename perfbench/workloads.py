"""The benchmark's four workloads, each a fixed list of items drawn from a seed.

A round is one list, sized to take about ``ROUND_SECONDS`` on a 2-core
x86-64 host.  Items whose cost grows fast with the index (zero sets) keep a
fixed index set and take only their order and strip shape from the seed;
cheap items (eigenpairs) draw their indices from narrow strata, so every
seed asks for about the same work.
"""

from __future__ import annotations

import math
import sys

from stokeszeros import spectral, stokescomplex, wkb, zeros
from stokeszeros.spectral import ProblemSpec

import checks

ROUND_SECONDS = 20

PT_WINDOW = (-1.6, 1.6, -1.6, 1.6)  # criterion 7
PT_RESOLUTION = 0.015
STRIP_RESOLUTION = 0.01  # criteria 4 and 5
FAMILIES = ((2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (6, 3), (6, 4))
U_GRID = (-2.7 - 2.7j, 55, 55, 0.1, 0.1)  # the grid the evaluator routes by


def clear_caches():
    """Empty every lru_cache of the program, so set-up can be repeated."""
    for name, mod in list(sys.modules.items()):
        if name == "stokeszeros" or name.startswith("stokeszeros."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _solve(spec, n):
    """Eigen-solve that no earlier item, warm-up or run can serve from cache."""
    clear = getattr(spectral.solve_eigenpair, "cache_clear", None)
    if clear is not None:
        clear()
    return spectral.solve_eigenpair(spec, n)


def set_up(workload) -> dict:
    """The per-family builds a user pays once per process, via public calls.

    A zeros run builds its own limit complex for ``compare_to_limit``, as
    the ``zeros`` command does; the n = 0 eigen-solve fills the program's
    cache of the limit complex, and the first envelope lookup fills its
    envelope grid.
    """
    limit = {}
    for d, ell in workload.families:
        pair = spectral.solve_eigenpair(ProblemSpec(d, ell), 0)
        if workload.evaluates:
            limit[(d, ell)] = stokescomplex.stokes_complex(d, ell)
            spectral.EigenfunctionEvaluator(pair).log_envelope(0j)
    return limit


def _zero_set(d, ell, n, limit, window_of, resolution):
    pair = _solve(ProblemSpec(d, ell), n)
    resc = spectral.rescale(spectral.EigenfunctionEvaluator(pair))
    zs = zeros.locate_zeros(resc, window_of(resc), resolution)
    report = zeros.compare_to_limit(
        zeros.empirical_measure(zs, max(n, 1)), limit[(d, ell)], delta=0.1
    )
    return pair.lam, zs, report


class ZerosPT:
    """PT quartic zero clouds in criterion 7's window."""

    name = "zeros-pt"
    families = ((4, 1),)
    evaluates = True
    indices = (0, 1, 2)  # n = 3 alone takes 15-19 s

    def draw(self, rng):
        return [(4, 1, n) for n in rng.sample(self.indices, len(self.indices))]

    def run(self, item, limit):
        d, ell, n = item
        return _zero_set(d, ell, n, limit, lambda resc: PT_WINDOW, PT_RESOLUTION)

    def check(self, items, outputs):
        problems = []
        for (d, ell, n), (lam, zs, report) in zip(items, outputs):
            problems += checks.check_eigenvalue(d, ell, n, lam)
            problems += checks.check_pt_cloud(n, zs, report, PT_RESOLUTION)
        lams = [(n, lam) for (_, _, n), (lam, _, _) in zip(items, outputs)]
        return problems + checks.check_increasing("(4,1)", lams)


class ZerosReal:
    """Zeros on thin strips around the real bracket (criteria 4, 5, 10)."""

    name = "zeros-real"
    families = ((2, 1), (4, 2))
    evaluates = True
    indices = {(4, 2): range(1, 6), (2, 1): range(1, 5)}

    def draw(self, rng):
        items = [(d, ell, n) for (d, ell), ns in self.indices.items() for n in ns]
        rng.shuffle(items)
        # criterion 4 uses half-height 0.08 and pad 0.1
        return [
            (d, ell, n, rng.uniform(0.07, 0.09), rng.uniform(0.08, 0.12))
            for d, ell, n in items
        ]

    def run(self, item, limit):
        d, ell, n, half_height, pad = item

        def strip(resc):
            lo, hi = resc.real_bracket()
            return (lo - pad, hi + pad, -half_height, half_height)

        return _zero_set(d, ell, n, limit, strip, STRIP_RESOLUTION)

    def check(self, items, outputs):
        quartic = checks.quartic_levels(max(n for _, _, n, _, _ in items))
        problems = []
        for (d, ell, n, _, _), (lam, zs, _) in zip(items, outputs):
            problems += checks.check_eigenvalue(d, ell, n, lam, quartic)
            problems += checks.check_strip(d, ell, n, zs)
        return problems


class SpectrumSweep:
    """Eigenvalues only, as the ``spectrum`` command computes them."""

    name = "spectrum-sweep"
    families = ((4, 2), (3, 1), (4, 1))
    evaluates = False
    strata = range(0, 40, 5)  # two distinct indices from each [k, k + 5)

    def draw(self, rng):
        items = []
        for d, ell in self.families:
            ns = [n for k in self.strata for n in rng.sample(range(k, k + 5), 2)]
            items += [(d, ell, n) for n in sorted(ns)]
        return items

    def run(self, item, limit):
        d, ell, n = item
        return _solve(ProblemSpec(d, ell), n).lam

    def check(self, items, outputs):
        quartic = checks.quartic_levels(max(n for _, _, n in items))
        problems = []
        for (d, ell, n), lam in zip(items, outputs):
            problems += checks.check_eigenvalue(d, ell, n, lam, quartic)
        for d, ell in self.families:
            got = [(n, lam) for (dd, ll, n), lam in zip(items, outputs) if (dd, ll) == (d, ell)]
            problems += checks.check_increasing(f"({d},{ell})", got)
        return problems


class StokesGeometry:
    """Stokes complex, phase integral and envelope grid of the nine families."""

    name = "stokes-geometry"
    families = ()
    evaluates = False
    probes = 4  # envelope probes per family, each also taken at its mirror
    grid_nodes = 8  # grid nodes compared with the routed envelope

    def draw(self, rng):
        items = []
        for d, ell in rng.sample(FAMILIES, len(FAMILIES)):
            zs = [
                rng.uniform(0.3, 2.4) * complex(math.cos(t), math.sin(t))
                for t in (rng.uniform(-math.pi, math.pi) for _ in range(self.probes))
            ]
            nodes = [(rng.randrange(55), rng.randrange(55)) for _ in range(self.grid_nodes)]
            items.append((d, ell, zs, nodes))
        return items

    def run(self, item, limit):
        d, ell, zs, _ = item
        sc = stokescomplex.stokes_complex(d, ell)
        phase = wkb.PhaseIntegral(sc)
        grid = phase.u_grid(*U_GRID)
        probes = [(z, phase.u(z), phase.u(-z.conjugate())) for z in zs]
        return sc, phase, grid, probes

    def check(self, items, outputs):
        problems = []
        for (d, ell, _, nodes), out in zip(items, outputs):
            problems += checks.check_geometry(d, ell, out, nodes)
        return problems


WORKLOADS = {
    wl.name: wl for wl in (ZerosPT(), ZerosReal(), SpectrumSweep(), StokesGeometry())
}
