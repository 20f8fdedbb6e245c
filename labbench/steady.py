#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs, compared metric by metric.

    python3 labbench/steady.py [--runs 10] [--workloads oltp-tpcb,dss-query]

From the root of a checkout, runs `labbench/run.py` once per seed (seeds
1..runs) on each workload, as one set, and then again as a second set.  For
every end-to-end metric of BENCHMARK.json it prints each set's median and
quartiles (and, for host times, the raw unnormalised medians next to the
normalised ones), the spread (quartile distance over median), the ratio of
the second median to the first, and whether the ratio and the spreads are
within the metric's bound.  The ratio is checked both ways: the sets must
agree, so a second set faster by more than the bound fails too.  Exits 1 if
any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("labbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    raw = next((json.loads(l[len("# raw "):]) for l in lines if l.startswith("# raw ")), {})
    return result, raw


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def fmt(v):
    return f"{v:.6g}"


SETS = 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set (default 10)")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    args = ap.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    runs = {}  # (set, workload) -> list of (result, raw)
    for s in range(SETS):
        for w in workloads:
            for seed in seeds:
                r = one_run(w, seed, seconds)
                runs.setdefault((s, w), []).append(r)
                print(f"set {s + 1} {w} seed {seed}: correct={r[0]['correct']} "
                      f"attempted={r[0]['attempted']} failed={r[0]['failed']} "
                      f"iterations={r[1].get('iterations')}", file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n## {w}  ({len(seeds)} seeds x {SETS} sets, {seconds} s per run)")
        print(f"{'metric':<22} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'ratio':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            kinds = [("", lambda r: r[0]["metrics"][name]["value"])]
            if all(name in r[1] for s in range(SETS) for r in runs[(s, w)]):
                kinds.append((" (raw)", lambda r: r[1][name]))
            for tag, value in kinds:
                first = None
                for s in range(SETS):
                    med, q1, q3, spread = summary([value(r) for r in runs[(s, w)]])
                    first = med if first is None else first
                    ratio = med / first
                    verdict = []
                    if not tag:  # the bounds apply to the reported, normalised values
                        if spread > bound:
                            verdict.append("SPREAD > BOUND")
                            ok = False
                        elif spread > bound / 3:
                            verdict.append("spread > bound/3")
                        # The sets must agree either way, not only "not worse".
                        if s > 0 and max(ratio, 1 / ratio) - 1 > bound:
                            verdict.append("RATIO > BOUND")
                            ok = False
                        verdict = verdict or ["ok"]
                    label = (name + tag) if s == 0 else ""
                    print(f"{label:<22} {s + 1:>3} {fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} "
                          f"{spread:>8.4f} {(fmt(ratio) if s else '-'):>8} {bound:>6}  "
                          f"{' '.join(verdict)}")
        cal = [r[1]["cal_ms"] for s in range(SETS) for r in runs[(s, w)]]
        print(f"calibration kernel ms: min {fmt(min(cal))} median {fmt(statistics.median(cal))} "
              f"max {fmt(max(cal))}")
        bad = [r[0] for s in range(SETS) for r in runs[(s, w)] if not r[0]["correct"]]
        if bad:
            ok = False
            print(f"{len(bad)} runs reported failed checks")
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
