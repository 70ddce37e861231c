"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload zeros-pt --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The run draws a fixed list of items from ``--seed`` (one round
per ``ROUND_SECONDS`` of ``--seconds``), sets up, runs every item, checks
every output, and prints one JSON object as its last line.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the program's layers
and reports the per-layer metrics instead (see README.md).  Exits 2 without
a result when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("zeros-pt", "zeros-real", "spectrum-sweep", "stokes-geometry")
SETUP_REPEATS = 3

# import time of the package in a fresh interpreter
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import stokeszeros; "
    "print(time.perf_counter() - t)"
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> float:
    if not (SRC / "stokeszeros" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import stokeszeros

    seconds = time.perf_counter() - t0
    if Path(stokeszeros.__file__).resolve().parent != (SRC / "stokeszeros").resolve():
        print(f"imported stokeszeros from {stokeszeros.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return seconds


def _fresh_import_seconds() -> float:
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    import_s = [_import_program()]
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    rounds = [wl.draw(rng) for _ in range(max(1, round(args.seconds / workloads.ROUND_SECONDS)))]
    items = [item for r in rounds for item in r]

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
        limit = workloads.set_up(wl)
    else:
        import_s += [_fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
        builds = []
        for k in range(SETUP_REPEATS):
            if k:
                workloads.clear_caches()
            t0 = time.perf_counter()
            limit = workloads.set_up(wl)
            builds.append(time.perf_counter() - t0)
        setup_s = statistics.median(import_s) + statistics.median(builds)

    outputs = []
    t0 = time.perf_counter()
    for item in items:
        try:
            outputs.append(wl.run(item, limit))
        except Exception:  # a failed item counts in `failed`; the run goes on
            traceback.print_exc()
            outputs.append(None)
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failed = sum(out is None for out in outputs)
    problems = []
    done = iter(outputs)
    for r in rounds:
        kept = [(item, out) for item, out in zip(r, done) if out is not None]
        if kept:
            problems += wl.check([i for i, _ in kept], [o for _, o in kept])
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    print(f"{wl.name} seed {args.seed}: {len(items)} items in {wall:.3f} s, "
          f"{failed} failed, {len(problems)} check failures")
    if tracer is None:
        rows = [
            ("setup_s", setup_s, "s", None),
            ("items_per_s", len(items) / wall, "1/s", None),
            ("peak_rss_mb", peak_mb, "MB", None),
        ]
    else:
        rows = tracer.metrics(len(items), wall)
    for name, value, unit, base in rows:
        print(f"  {name:38s} {value:14.6g} {unit:6s}" + (f" base: {base}" if base else ""))
    result = {
        "correct": not problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
