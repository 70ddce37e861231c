"""Command-line front end: stokes | spectrum | zeros | verify.

Every run writes its full configuration into the JSON output so results are
reproducible from the artifacts alone.  Exit codes: 0 success, 1 criterion
or convergence failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import StokesZerosError, DomainError
from .render import render_stokes_svg, render_zeros_svg
from .spectral import EigenfunctionEvaluator, ProblemSpec, rescale, solve_eigenpair
from .stokescomplex import stokes_complex
from .wkb import growth_constant
from .zeros import compare_to_limit, empirical_measure, locate_zeros


@dataclass
class RunConfig:
    """Serializable description of one command invocation."""

    command: str
    d: int = 2
    ell: int = 1
    coefficients: list = field(default_factory=list)  # [[k, re, im], ...]
    n_min: int = 0
    n_max: int = 0
    window: list = field(default_factory=lambda: [-1.6, 1.6, -1.6, 1.6])
    resolution: float = 0.015
    delta: float = 0.1
    out_dir: str = "."
    formats: list = field(default_factory=lambda: ["json"])

    def spec(self) -> ProblemSpec:
        a = [0j] * max((int(k) for k, *_ in self.coefficients), default=0)
        for k, re, im in self.coefficients:
            a[int(k) - 1] = complex(re, im)
        return ProblemSpec(self.d, self.ell, tuple(a))


def _parse_coeff(text: str):
    try:
        key, val = text.split("=")
        re_s, im_s = val.split(",")
        k = int(key)
        if k < 1:
            raise ValueError
        return [k, float(re_s), float(im_s)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"coefficient must look like k=re,im with k >= 1, got {text!r}"
        ) from exc


def _parse_window(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 1:
        w = abs(parts[0])
        return [-w, w, -w, w]
    if len(parts) == 4:
        return parts
    raise argparse.ArgumentTypeError("window is 'halfwidth' or 'x0,x1,y0,y1'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokeszeros",
        description=(
            "Stokes complexes, shooting spectra, and eigenfunction zero "
            "distributions for polynomial potentials"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_spec=True, coeff=True):
        if needs_spec:
            p.add_argument("--d", type=int, required=True, help="potential degree")
            p.add_argument("--ell", type=int, required=True, help="boundary index")
        if needs_spec and coeff:
            p.add_argument(
                "--coeff",
                type=_parse_coeff,
                action="append",
                default=[],
                metavar="k=re,im",
                help="lower-order coefficient a_k (repeatable)",
            )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--format",
            default=None,
            help="comma-separated subset of json,csv,svg",
        )

    p_stokes = sub.add_parser("stokes", help="trace and render the Stokes complex")
    # the limit Stokes complex depends on (d, ell) alone: no --coeff
    common(p_stokes, coeff=False)
    p_stokes.add_argument("--window", type=_parse_window, default=None)
    p_stokes.add_argument(
        "--u-grid",
        type=int,
        default=0,
        metavar="N",
        help="also sample the envelope u on an NxN grid into ufield.json",
    )

    p_spec = sub.add_parser("spectrum", help="eigenvalues by complex shooting")
    common(p_spec)
    p_spec.add_argument("--n-min", type=int, default=0)
    p_spec.add_argument("--n-max", type=int, default=9)

    p_zeros = sub.add_parser("zeros", help="zero clouds of rescaled eigenfunctions")
    common(p_zeros)
    p_zeros.add_argument("--n-min", type=int, default=10)
    p_zeros.add_argument("--n-max", type=int, default=10)
    p_zeros.add_argument("--window", type=_parse_window, default=_parse_window("1.6"))
    p_zeros.add_argument("--resolution", type=float, default=0.015)
    p_zeros.add_argument("--delta", type=float, default=0.1)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    common(p_verify, needs_spec=False)
    p_verify.add_argument(
        "--suite",
        default=None,
        choices=["spectrum", "topology", "zeros", "wkb"],
        help="run only one suite",
    )
    p_verify.add_argument(
        "--criteria",
        default=None,
        help="comma-separated criterion numbers (1..10)",
    )
    return parser


def _formats(args, default):
    if args.format is None:
        return list(default)
    chosen = [f.strip() for f in args.format.split(",") if f.strip()]
    for f in chosen:
        if f not in ("json", "csv", "svg"):
            raise DomainError(f"unknown format {f!r}")
    return chosen


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def cmd_stokes(args) -> int:
    cfg = RunConfig(
        command="stokes",
        d=args.d,
        ell=args.ell,
        window=args.window or [],
        formats=_formats(args, ("json", "svg")),
        out_dir=args.out,
    )
    sc = stokes_complex(cfg.d, cfg.ell)
    out = Path(cfg.out_dir)
    payload = {"config": asdict(cfg), "stokes_complex": sc.to_dict()}
    if "json" in cfg.formats:
        _write(out / "stokes.json", json.dumps(payload, indent=1))
    if "svg" in cfg.formats:
        window = tuple(cfg.window) if cfg.window else None
        _write(out / "stokes.svg", render_stokes_svg(sc, window))
    census = payload["stokes_complex"]["census"]
    if getattr(args, "u_grid", 0):
        from .wkb import PhaseIntegral

        n = args.u_grid
        window = cfg.window or [-2.5, 2.5, -2.5, 2.5]
        x0, x1, y0, y1 = window
        phase = PhaseIntegral(sc)
        zs, ug = phase.u_grid(
            complex(x0, y0), n, n, (x1 - x0) / (n - 1), (y1 - y0) / (n - 1)
        )
        _write(
            out / "ufield.json",
            json.dumps(
                {
                    "config": asdict(cfg),
                    "grid_re": [[z.real for z in row] for row in zs],
                    "grid_im": [[z.imag for z in row] for row in zs],
                    "u": [[float(v) for v in row] for row in ug],
                },
                indent=None,
            ),
        )
    print(
        f"d={cfg.d} ell={cfg.ell}: {len(sc.turning_points)} turning points, "
        f"{len(sc.lines)} lines, {census['half_plane_regions']} half-plane regions, "
        f"{census['strip_regions']} strips, {len(sc.exceptional_lines)} exceptional lines"
    )
    return 0


def cmd_spectrum(args) -> int:
    cfg = RunConfig(
        command="spectrum",
        d=args.d,
        ell=args.ell,
        coefficients=args.coeff,
        n_min=args.n_min,
        n_max=args.n_max,
        formats=_formats(args, ("json", "csv")),
        out_dir=args.out,
    )
    if cfg.n_max < cfg.n_min:
        raise DomainError("empty index range")
    spec = cfg.spec()
    c = growth_constant(cfg.d, cfg.ell)
    expo = 2.0 * cfg.d / (cfg.d + 2.0)
    rows = []
    failures = 0
    for n in range(cfg.n_min, cfg.n_max + 1):
        try:
            pair = solve_eigenpair(spec, n)
        except StokesZerosError as exc:
            rows.append({"n": n, "error": str(exc)})
            failures += 1
            continue
        ratio = abs(pair.lam) / (c * n) ** expo if n > 0 else float("nan")
        rows.append(
            {
                "n": n,
                "re_lambda": pair.lam.real,
                "im_lambda": pair.lam.imag,
                "h": pair.h,
                "residual": pair.residual,
                "y0": [pair.y0.real, pair.y0.imag],
                "dy0": [pair.dy0.real, pair.dy0.imag],
                "asymptotic_ratio": ratio,
            }
        )
    out = Path(cfg.out_dir)
    if "json" in cfg.formats:
        _write(
            out / "spectrum.json",
            json.dumps({"config": asdict(cfg), "eigenvalues": rows}, indent=1),
        )
    if "csv" in cfg.formats:
        out.mkdir(parents=True, exist_ok=True)
        with (out / "spectrum.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["n", "re_lambda", "im_lambda", "h", "residual", "asymptotic_ratio"]
            )
            for r in rows:
                if "error" in r:
                    writer.writerow([r["n"], "", "", "", r["error"], ""])
                else:
                    writer.writerow(
                        [r["n"], r["re_lambda"], r["im_lambda"], r["h"], r["residual"], r["asymptotic_ratio"]]
                    )
        print(f"wrote {out / 'spectrum.csv'}")
    for r in rows:
        if "error" in r:
            print(f"n={r['n']}: FAILED {r['error']}")
        else:
            print(
                f"n={r['n']}: lambda = {r['re_lambda']:.10g} {r['im_lambda']:+.3e}i"
                f"  residual {r['residual']:.2e}"
            )
    return 1 if failures else 0


def cmd_zeros(args) -> int:
    cfg = RunConfig(
        command="zeros",
        d=args.d,
        ell=args.ell,
        coefficients=args.coeff,
        n_min=args.n_min,
        n_max=args.n_max,
        window=args.window,
        resolution=args.resolution,
        delta=args.delta,
        formats=_formats(args, ("json", "csv", "svg")),
        out_dir=args.out,
    )
    if cfg.n_max < cfg.n_min:
        raise DomainError("empty index range")
    spec = cfg.spec()
    sc = stokes_complex(cfg.d, cfg.ell)
    out = Path(cfg.out_dir)
    all_zeros = []
    per_n = []
    for n in range(cfg.n_min, cfg.n_max + 1):
        resc = rescale(EigenfunctionEvaluator(solve_eigenpair(spec, n)))
        zs = locate_zeros(resc, tuple(cfg.window), cfg.resolution)
        rep = compare_to_limit(empirical_measure(zs, max(n, 1)), sc, delta=cfg.delta)
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
            }
        )
        all_zeros.extend(zs.zeros)
        print(
            f"n={n}: {zs.total_count} zeros, near-fraction {rep.near_fraction:.3f}"
        )
    if "json" in cfg.formats:
        _write(
            out / "zeros.json",
            json.dumps({"config": asdict(cfg), "results": per_n}, indent=1),
        )
    if "csv" in cfg.formats:
        out.mkdir(parents=True, exist_ok=True)
        with (out / "zeros.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "re", "im", "multiplicity"])
            for entry in per_n:
                for re_z, im_z, m in entry["zeros"]:
                    writer.writerow([entry["n"], re_z, im_z, m])
        print(f"wrote {out / 'zeros.csv'}")
    if "svg" in cfg.formats:
        _write(
            out / "zeros.svg",
            render_zeros_svg(sc, all_zeros, tuple(cfg.window)),
        )
    return 0


def cmd_verify(args) -> int:
    from .verify import run_criteria

    numbers = None
    if args.criteria:
        numbers = [int(x) for x in args.criteria.split(",")]
    results = run_criteria(numbers=numbers, suite=args.suite)
    report = []
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.seconds:.1f}s)")
        if r.detail:
            print(f"     {r.detail}")
        if not r.passed:
            failed += 1
        report.append(
            {
                "name": r.name,
                "suite": r.suite,
                "passed": r.passed,
                "seconds": r.seconds,
                "measured": r.measured,
                "detail": r.detail,
            }
        )
    out = Path(args.out)
    _write(
        out / "report.json",
        json.dumps(
            {"passed": failed == 0, "criteria": report},
            indent=1,
            default=str,
        ),
    )
    return 1 if failed else 0


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
