"""Command-line front end: stokes | spectrum | zeros | verify.

The parsed flags are the run configuration: every JSON artifact records
them, exactly as its command accepted them, under ``config``, so results
are reproducible from the artifacts alone.  Exit codes: 0 success, 1
criterion or convergence failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import StokesZerosError, DomainError
from .render import render_stokes_svg, render_zeros_svg
from .spectral import (
    EigenfunctionEvaluator,
    ProblemSpec,
    _limit_complex_cached,
    _limit_phase_cached,
    ordering_violations,
    rescale,
    solve_eigenpair,
)
from .verify import CRITERIA, run_criteria, suites
from .wkb import eigenvalue_estimate
from .zeros import compare_to_limit, empirical_measure, locate_zeros


def _spec(args) -> ProblemSpec:
    """The problem that the --d, --ell and --coeff flags describe."""
    ks = [int(k) for k, *_ in args.coefficients]
    for k in ks:
        if ks.count(k) > 1:
            # a second value would silently replace the first
            raise DomainError(f"--coeff sets a_{k} more than once")
    a = [0j] * max(ks, default=0)
    for k, re, im in args.coefficients:
        a[int(k) - 1] = complex(re, im)
    return ProblemSpec(args.d, args.ell, tuple(a))


def _checked(convert, ok, rule: str):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    return parse


def _window(text: str) -> list:
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 1:
        w = abs(parts[0])
        return [-w, w, -w, w]
    return parts


def _coeff(text: str) -> list:
    key, val = text.split("=")
    re_s, im_s = val.split(",")
    return [int(key), float(re_s), float(im_s)]


_parse_window = _checked(
    _window,
    lambda w: len(w) == 4 and all(map(math.isfinite, w)) and w[0] < w[1] and w[2] < w[3],
    "window is a finite 'halfwidth' or 'x0,x1,y0,y1' with x0 < x1 and y0 < y1",
)
_parse_coeff = _checked(
    _coeff,
    lambda c: c[0] >= 1 and all(map(math.isfinite, c[1:])),
    "coefficient is k=re,im with k >= 1 and re, im finite",
)
_parse_index = _checked(int, lambda n: n >= 0, "an eigenvalue index is at least 0")
_parse_positive = _checked(float, lambda x: 0 < x < math.inf, "the value must be positive and finite")
_parse_grid_size = _checked(int, lambda n: n == 0 or n >= 2, "grid size is 0 (off) or at least 2")
_CRITERIA_RANGE = f"{min(CRITERIA)}..{max(CRITERIA)}"
_parse_criteria = _checked(
    lambda text: [int(p) for p in text.split(",")],
    lambda ks: all(k in CRITERIA for k in ks),
    f"criteria are comma-separated numbers in {_CRITERIA_RANGE}",
)


def _parse_formats(writable: tuple):
    """An argparse type for --format: a nonempty subset of ``writable``."""

    def parse(text: str) -> list:
        chosen = [f.strip() for f in text.split(",") if f.strip()]
        if not chosen:
            raise argparse.ArgumentTypeError(f"names no format; the command writes {','.join(writable)}")
        for f in chosen:
            if f not in writable:
                raise argparse.ArgumentTypeError(f"the command writes {','.join(writable)}, not {f!r}")
        return chosen

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokeszeros",
        description=(
            "Stokes complexes, shooting spectra, and eigenfunction zero "
            "distributions for polynomial potentials"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_stokes = sub.add_parser("stokes", help="trace and render the Stokes complex")
    p_spec = sub.add_parser("spectrum", help="eigenvalues by complex shooting")
    p_zeros = sub.add_parser("zeros", help="zero clouds of rescaled eigenfunctions")
    p_verify = sub.add_parser("verify", help="run the verification suite")

    # vars(args) is every artifact's config, its keys in the order the flags
    # are added here: nothing but flags may go into the namespace
    for p in (p_stokes, p_spec, p_zeros):
        p.add_argument("--d", type=int, required=True, help="potential degree")
        p.add_argument("--ell", type=int, required=True, help="boundary index")
    # the limit Stokes complex depends on (d, ell) alone: stokes takes no --coeff
    for p in (p_spec, p_zeros):
        p.add_argument(
            "--coeff",
            dest="coefficients",
            type=_parse_coeff,
            action="append",
            default=[],
            metavar="k=re,im",
            help="lower-order coefficient a_k (repeatable)",
        )

    p_stokes.add_argument("--window", type=_parse_window, default=None)
    p_stokes.add_argument(
        "--u-grid",
        type=_parse_grid_size,
        default=0,
        metavar="N",
        help="also sample the envelope u on an NxN grid (N >= 2) into ufield.json",
    )

    p_spec.add_argument("--n-min", type=_parse_index, default=0)
    p_spec.add_argument("--n-max", type=_parse_index, default=9)

    p_zeros.add_argument("--n-min", type=_parse_index, default=10)
    p_zeros.add_argument("--n-max", type=_parse_index, default=10)
    p_zeros.add_argument("--window", type=_parse_window, default=_parse_window("1.6"))
    p_zeros.add_argument("--resolution", type=_parse_positive, default=0.015)
    p_zeros.add_argument("--delta", type=_parse_positive, default=0.1)

    p_verify.add_argument(
        "--suite",
        default=None,
        choices=list(suites()),
        help="run only one suite",
    )
    p_verify.add_argument(
        "--criteria",
        type=_parse_criteria,
        default=None,
        help=f"comma-separated criterion numbers ({_CRITERIA_RANGE})",
    )

    # verify always writes report.json: no --format
    writes = (
        (p_stokes, ("json", "svg")),
        (p_spec, ("json", "csv")),
        (p_zeros, ("json", "csv", "svg")),
        (p_verify, ()),
    )
    for p, formats in writes:
        p.add_argument("--out", dest="out_dir", default=".", help="output directory")
        if formats:
            p.add_argument(
                "--format",
                dest="formats",
                type=_parse_formats(formats),
                default=list(formats),
                help=f"comma-separated subset of {','.join(formats)}",
            )
    return parser


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="")
    print(f"wrote {path}")


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def cmd_stokes(args) -> int:
    if args.window is not None and "svg" not in args.formats and not args.u_grid:
        # only the picture and the envelope grid read the window
        raise DomainError("--window frames stokes.svg and the --u-grid; this run writes neither")
    sc = _limit_complex_cached(args.d, args.ell)
    out = Path(args.out_dir)
    payload = {"config": vars(args), "stokes_complex": sc.to_dict()}
    if "json" in args.formats:
        _write(out / "stokes.json", json.dumps(payload, indent=1, allow_nan=False))
    if "svg" in args.formats:
        window = tuple(args.window) if args.window else None
        _write(out / "stokes.svg", render_stokes_svg(sc, window))
    census = payload["stokes_complex"]["census"]
    if args.u_grid:
        n = args.u_grid
        x0, x1, y0, y1 = args.window or [-2.5, 2.5, -2.5, 2.5]
        phase = _limit_phase_cached(args.d, args.ell)
        zs, ug = phase.u_grid(
            complex(x0, y0), n, n, (x1 - x0) / (n - 1), (y1 - y0) / (n - 1)
        )
        _write(
            out / "ufield.json",
            json.dumps(
                {
                    "config": vars(args),
                    "grid_re": [[z.real for z in row] for row in zs],
                    "grid_im": [[z.imag for z in row] for row in zs],
                    "u": [[float(v) for v in row] for row in ug],
                },
                indent=None,
                allow_nan=False,
            ),
        )
    print(
        f"d={args.d} ell={args.ell}: {len(sc.turning_points)} turning points, "
        f"{len(sc.lines)} lines, {census['half_plane_regions']} half-plane regions, "
        f"{census['strip_regions']} strips, {len(sc.exceptional_lines)} exceptional lines"
    )
    return 0


def cmd_spectrum(args) -> int:
    if args.n_max < args.n_min:
        raise DomainError("empty index range")
    spec = _spec(args)
    rows = []
    pairs = []
    failures = 0
    for n in range(args.n_min, args.n_max + 1):
        try:
            pair = solve_eigenpair(spec, n)
        except StokesZerosError as exc:
            rows.append({"n": n, "error": str(exc)})
            failures += 1
            continue
        pairs.append(pair)
        ratio = abs(pair.lam) / eigenvalue_estimate(args.d, args.ell, n) if n > 0 else None
        rows.append(
            {
                "n": n,
                "re_lambda": pair.lam.real,
                "im_lambda": pair.lam.imag,
                "h": pair.h,
                "residual": pair.residual,
                "seed_radius": pair.seed_radius,
                "seed_bound": pair.seed_bound,
                "shots": pair.shots,
                "y0": [pair.y0.real, pair.y0.imag],
                "dy0": [pair.dy0.real, pair.dy0.imag],
                "asymptotic_ratio": ratio,
            }
        )
    # every index is solved on its own, so only the set can show a skip
    violations = ordering_violations(pairs)
    failures += len(violations)
    payload = {"config": vars(args), "eigenvalues": rows}
    if violations:
        payload["ordering_violations"] = violations
    out = Path(args.out_dir)
    if "json" in args.formats:
        _write(out / "spectrum.json", json.dumps(payload, indent=1, allow_nan=False))
    if "csv" in args.formats:
        table = [["n", "re_lambda", "im_lambda", "h", "residual", "asymptotic_ratio"]]
        for r in rows:
            if "error" in r:
                table.append([r["n"], "", "", "", r["error"], ""])
            else:
                table.append([r["n"], r["re_lambda"], r["im_lambda"], r["h"], r["residual"], r["asymptotic_ratio"]])
        _write(out / "spectrum.csv", _csv(table))
    for r in rows:
        if "error" in r:
            print(f"n={r['n']}: FAILED {r['error']}")
        else:
            print(
                f"n={r['n']}: lambda = {r['re_lambda']:.10g} {r['im_lambda']:+.3e}i"
                f"  residual {r['residual']:.2e}"
            )
    for msg in violations:
        print(f"FAILED {msg}")
    return 1 if failures else 0


def cmd_zeros(args) -> int:
    if args.n_max < args.n_min:
        raise DomainError("empty index range")
    spec = _spec(args)
    sc = _limit_complex_cached(args.d, args.ell)
    out = Path(args.out_dir)
    all_zeros = []
    per_n = []
    for n in range(args.n_min, args.n_max + 1):
        pair = solve_eigenpair(spec, n)
        ev = EigenfunctionEvaluator(pair)
        try:
            zs = locate_zeros(rescale(ev), tuple(args.window), args.resolution)
        except StokesZerosError as exc:
            raise type(exc)(f"zeros of {spec} n={n} at lambda={pair.lam:.12g}: {exc}") from exc
        rep = compare_to_limit(empirical_measure(zs, max(n, 1)), sc, delta=args.delta)
        per_n.append(
            {
                "n": n,
                "count": zs.total_count,
                "window": list(zs.window),
                "zeros": [[z.real, z.imag, m] for z, m in zs.zeros],
                "near_fraction": rep.near_fraction,
                "arcs": [
                    {
                        "arc": a.arc_index,
                        "ks": a.ks_distance,
                        "empirical_mass": a.empirical_mass,
                        "limit_mass": a.limit_mass,
                    }
                    for a in rep.arcs
                ],
                "evaluations": dict(ev.counts),
                "quadtree": dict(zs.counts),
            }
        )
        all_zeros.extend(zs.zeros)
        print(
            f"n={n}: {zs.total_count} zeros, near-fraction {rep.near_fraction:.3f}"
        )
    if "json" in args.formats:
        _write(
            out / "zeros.json",
            json.dumps({"config": vars(args), "results": per_n}, indent=1, allow_nan=False),
        )
    if "csv" in args.formats:
        table = [["n", "re", "im", "multiplicity"]]
        table += [[entry["n"], *zero] for entry in per_n for zero in entry["zeros"]]
        _write(out / "zeros.csv", _csv(table))
    if "svg" in args.formats:
        _write(
            out / "zeros.svg",
            render_zeros_svg(sc, all_zeros, tuple(args.window)),
        )
    return 0


def cmd_verify(args) -> int:
    results = run_criteria(numbers=args.criteria, suite=args.suite)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.1f}s)")
        if r.detail:
            print(f"     {r.detail}")
    passed = all(r.passed for r in results)
    _write(
        Path(args.out_dir) / "report.json",
        json.dumps(
            {"config": vars(args), "passed": passed, "criteria": [asdict(r) for r in results]},
            indent=1,
            default=str,
            allow_nan=False,
        ),
    )
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    handlers = {
        "stokes": cmd_stokes,
        "spectrum": cmd_spectrum,
        "zeros": cmd_zeros,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StokesZerosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
