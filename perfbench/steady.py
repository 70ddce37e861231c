"""Steadiness check: two sets of runs of one checkout, alternating.

    python3 perfbench/steady.py --workload zeros-pt --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --traced 2

Set A runs seeds 1..N and set B seeds N+1..2N, one fresh process each, in
the order A1 B1 B2 A2 A3 B3 ... so that neither set always goes first.  For
every end-to-end metric of BENCHMARK.json it prints each set's median and
quartiles (``statistics.quantiles(n=4)``), the spread (q3 - q1) / median,
and whether B's median is within the metric's bound of A's in the worse
direction.  It also compares the share of failed items of the two sets.
With ``--traced K`` it then makes K pairs of an untraced and a traced run
of one seed, back to back, and reports the tracing overhead: the median
gap between the pair's ``items_per_s`` and ``trace.items_per_s``.  Results
also go to ``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{out.stderr}")
    return result


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def check_workload(workload, runs, traced) -> dict:
    sets = {"A": [], "B": []}
    for i in range(runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            seed = 1 + i + (runs if side == "B" else 0)
            sets[side].append(run_once(workload, seed, 0))
            print(f"  {workload} {side} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in sets[side][-1]["metrics"].items()),
                  flush=True)
    report = {"workload": workload, "runs": runs, "metrics": {}}
    ok = True
    for m in SPEC["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        a = summary([r["metrics"][name]["value"] for r in sets["A"]])
        b = summary([r["metrics"][name]["value"] for r in sets["B"]])
        worse = (b["median"] - a["median"]) / a["median"]
        if not lower:
            worse = -worse
        agree = worse <= bound
        steady = name == "setup_s" or max(a["spread"], b["spread"]) <= bound
        ok = ok and agree and steady
        report["metrics"][name] = {"A": a, "B": b, "worse_by": worse, "bound": bound,
                                   "agree": agree, "spread_within_bound": steady}
        print(f"{workload:16s} {name:12s} A {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] "
              f"spread {a['spread']:.3f} | B {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] "
              f"spread {b['spread']:.3f} | B worse by {worse:+.3f} (bound {bound}) "
              f"{'agree' if agree else 'DISAGREE'}{'' if steady else ', SPREAD ABOVE BOUND'}")
    shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for s, rs in sets.items()}
    report["failed_share"] = shares
    ok = ok and shares["A"] == shares["B"]
    print(f"{workload:16s} failed share A {shares['A']} B {shares['B']}")
    if traced:
        # each traced run follows an untraced run of the same seed, so a
        # swing of the host's speed between sets does not enter the gap
        gaps = []
        for k in range(traced):
            plain = run_once(workload, 1 + k, 0)["metrics"]["items_per_s"]["value"]
            with_trace = run_once(workload, 1 + k, 1)["metrics"]["trace.items_per_s"]["value"]
            gaps.append(1.0 - with_trace / plain)
            print(f"  {workload} seed {1 + k}: items_per_s {plain:.6g} untraced, "
                  f"{with_trace:.6g} traced", flush=True)
        report["tracing_overhead"] = statistics.median(gaps)
        print(f"{workload:16s} tracing overhead {report['tracing_overhead']:+.3f} "
              f"(median of {traced} back-to-back pairs)")
    report["ok"] = ok
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{workload}.json").write_text(json.dumps(report, indent=1))
    return report


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--traced", type=int, default=0)
    args = p.parse_args(argv)
    chosen = names if args.workload == "all" else [args.workload]
    reports = [check_workload(w, args.runs, args.traced) for w in chosen]
    return 0 if all(r["ok"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
