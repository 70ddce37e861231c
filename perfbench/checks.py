"""Checks of every benchmark item against results computed apart from the
program, or against properties the method must have.

Nothing here compares against a stored copy of earlier output.  The
oracles use numpy and the standard library only, and run after the timed
phase, so they count neither in ``items_per_s`` nor in ``setup_s``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# tolerances, each well above what the oracles reach on a working program
# (shown in brackets) and far below what a broken one would give
EIG_REL = 1e-9  # eigenvalue vs closed form or diagonalisation [8e-13]
ZERO_ABS = 1e-9  # (2,1) zeros vs Hermite roots [4e-13]
REAL_IMAG = 1e-8  # |Im w| of a zero that must be real (criteria 4, 10)
MIRROR_ABS = 1e-8  # zero set and envelope under w -> -conj(w) [7e-16]
PT_IMAG_REL = 1e-9  # |Im lambda| / |lambda| of a PT eigenvalue [1e-16]
TP_ABS = 1e-9  # turning points vs closed form [7e-16]
U_ABS = 1e-9  # (2,1) |u| vs closed form [4e-16]
GRID_ABS = 0.25  # envelope grid vs routed u at the same node (grid-limited:
#                  0.06 seen); a wrong branch shows as 2|u|


def harmonic_zeros(n: int) -> np.ndarray:
    """Rescaled zeros of the (2,1) eigenfunction n: roots of H_n / sqrt(2n+1)."""
    if n == 0:
        return np.zeros(0)
    x, _ = np.polynomial.hermite.hermgauss(n)
    return np.sort(x) / math.sqrt(2 * n + 1)


def quartic_levels(n_max: int, size: int = 240, omega: float = 4.0) -> np.ndarray:
    """Eigenvalues 0..n_max of p^2 + x^4, diagonalised in Hermite functions.

    The basis is that of p^2 + omega^2 x^2; matrix elements are exact
    (x is tridiagonal, built four rows larger than kept), so the only error
    is basis truncation, below 1e-13 relative for n <= 40 at this size.
    """
    big = size + 4
    k = np.arange(big - 1)
    x = np.zeros((big, big))
    x[k, k + 1] = x[k + 1, k] = np.sqrt((k + 1) / (2.0 * omega))
    x2 = x @ x
    h = omega * np.diag(2.0 * np.arange(big) + 1.0) - omega**2 * x2 + x2 @ x2
    return np.linalg.eigvalsh(h[:size, :size])[: n_max + 1]


def growth_constant(d: int, ell: int) -> float:
    """sqrt(pi) Gamma(3/2 + 1/d) / (sin(ell pi/d) Gamma(1 + 1/d)), via math.gamma."""
    return (
        math.sqrt(math.pi)
        * math.gamma(1.5 + 1.0 / d)
        / (math.sin(ell * math.pi / d) * math.gamma(1.0 + 1.0 / d))
    )


def growth_ratio(d: int, ell: int, n: int, lam: complex) -> float:
    """lambda_n against the quantisation law (c (n + 1/2))^{2d/(d+2)}."""
    return abs(lam) / (growth_constant(d, ell) * (n + 0.5)) ** (2.0 * d / (d + 2.0))


def turning_points(d: int, ell: int) -> list:
    """Roots of (-1)^ell (iz)^d - 1: iz = exp(i pi (ell + 2k) / d)."""
    return [-1j * cmath.exp(1j * math.pi * (ell + 2 * k) / d) for k in range(d)]


def harmonic_abs_u(z: complex) -> float:
    """|u(z)| for (2,1): |1/2 Re(z sqrt(z^2-1) - log(z + sqrt(z^2-1)))|.

    Either sign of the root gives the same modulus, since
    log(z - s) = -log(z + s) up to 2 pi i when s^2 = z^2 - 1.
    """
    s = cmath.sqrt(z * z - 1)
    return abs(0.5 * (z * s - cmath.log(z + s)).real)


def _set_distance(got, want) -> float:
    """Largest distance from a point of either set to the other set."""
    if len(got) != len(want):
        return math.inf
    if not len(got):
        return 0.0
    a = max(min(abs(g - w) for w in want) for g in got)
    b = max(min(abs(g - w) for g in got) for w in want)
    return max(a, b)


# ---------------------------------------------------------------------------
# per-item checks; each returns a list of problems (empty when correct)


def check_eigenvalue(d, ell, n, lam, quartic=None) -> list:
    """Closed form for (2,1), diagonalisation for (4,2), PT properties else."""
    if (d, ell) == (2, 1):
        err = abs(lam - (2 * n + 1)) / (2 * n + 1)
        return [] if err <= EIG_REL else [f"(2,1) n={n}: lambda off 2n+1 by {err:.2e}"]
    if (d, ell) == (4, 2):
        ref = quartic[n]
        err = abs(lam - ref) / ref
        return [] if err <= EIG_REL else [f"(4,2) n={n}: lambda off oracle by {err:.2e}"]
    problems = []
    if abs(lam.imag) > PT_IMAG_REL * abs(lam):
        problems.append(f"({d},{ell}) n={n}: PT eigenvalue not real ({lam})")
    ratio = growth_ratio(d, ell, n, lam)
    if abs(ratio - 1.0) > 0.1 / (n + 1):
        problems.append(f"({d},{ell}) n={n}: growth-law ratio {ratio:.6f}")
    return problems


def check_increasing(family, pairs) -> list:
    """Real parts of one family's eigenvalues increase with n."""
    pairs = sorted(pairs)
    return [
        f"{family}: Re lambda not increasing between n={a} and n={b}"
        for (a, la), (b, lb) in zip(pairs, pairs[1:])
        if not lb.real > la.real
    ]


def check_strip(d, ell, n, zeroset) -> list:
    """A strip around the real bracket holds exactly n real zeros."""
    zs = list(zeroset.zeros)
    count = sum(m for _, m in zs)
    if count != n or any(m != 1 for _, m in zs):
        return [f"({d},{ell}) n={n}: strip holds {count} zeros"]
    xs = np.sort([z.real for z, _ in zs])
    problems = []
    worst_imag = max((abs(z.imag) for z, _ in zs), default=0.0)
    if worst_imag > REAL_IMAG:
        problems.append(f"({d},{ell}) n={n}: zero off the real axis by {worst_imag:.2e}")
    if (d, ell) == (2, 1):
        err = float(np.max(np.abs(xs - harmonic_zeros(n)))) if n else 0.0
        if err > ZERO_ABS:
            problems.append(f"(2,1) n={n}: zeros off Hermite roots by {err:.2e}")
    # an even potential has even or odd real eigenfunctions
    asym = float(np.max(np.abs(xs + xs[::-1]))) if n else 0.0
    if asym > MIRROR_ABS:
        problems.append(f"({d},{ell}) n={n}: zeros not symmetric about 0 ({asym:.2e})")
    return problems


def check_pt_cloud(n, zeroset, report, resolution) -> list:
    """A PT zero set maps onto itself under w -> -conj(w).

    Zeros whose mirror image falls within one resolution of the (possibly
    nudged) window edge are skipped, so the check does not depend on where
    the quadtree nudged or split.
    """
    x0, x1, y0, y1 = zeroset.window
    inside = lambda w: (
        x0 + resolution < w.real < x1 - resolution
        and y0 + resolution < w.imag < y1 - resolution
    )
    zs = list(zeroset.zeros)
    problems = []
    worst = 0.0
    for z, m in zs:
        mirror = -z.conjugate()
        if not (inside(z) and inside(mirror)):
            continue
        best = min(zs, key=lambda zm: abs(zm[0] - mirror))
        worst = max(worst, abs(best[0] - mirror))
        if best[1] != m:
            problems.append(f"(4,1) n={n}: multiplicity differs at the mirror of {z:.6f}")
    if worst > MIRROR_ABS:
        problems.append(f"(4,1) n={n}: zero set not PT-symmetric ({worst:.2e})")
    if not 0.0 <= report.near_fraction <= 1.0:
        problems.append(f"(4,1) n={n}: near fraction {report.near_fraction}")
    return problems


def check_geometry(d, ell, out, grid_nodes) -> list:
    """Turning points, region census, envelope symmetry and closed form."""
    sc, phase, (zs, ug), probes = out
    problems = []
    err = _set_distance(list(sc.turning_points), turning_points(d, ell))
    if err > TP_ABS:
        problems.append(f"({d},{ell}): turning points off closed form by {err:.2e}")
    if sc.half_plane_count != d + 2:
        problems.append(f"({d},{ell}): {sc.half_plane_count} half-plane regions")
    for z, u_z, u_mirror in probes:
        if abs(u_z - u_mirror) > MIRROR_ABS:
            problems.append(f"({d},{ell}): u({z:.4f}) differs from its mirror")
        if (d, ell) == (2, 1) and abs(abs(u_z) - harmonic_abs_u(z)) > U_ABS:
            problems.append(f"(2,1): |u({z:.4f})| off the closed form")
    if ug.shape != (55, 55) or not np.all(np.isfinite(ug)):
        problems.append(f"({d},{ell}): envelope grid malformed")
        return problems
    for i, j in grid_nodes:
        node = complex(zs[i, j])
        if abs(ug[i, j] - phase.u(node)) > GRID_ABS:
            problems.append(f"({d},{ell}): envelope grid off u at {node:.4f}")
        if (d, ell) == (2, 1) and abs(abs(ug[i, j]) - harmonic_abs_u(node)) > 1e-3:
            problems.append(f"(2,1): envelope grid off the closed form at {node:.4f}")
    return problems
