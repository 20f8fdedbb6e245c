#!/usr/bin/env python3
"""Tests of the layout-lab benchmark.  Run from the root of a checkout:

    python3 labbench/test_lab.py            # everything (a few minutes)
    python3 labbench/test_lab.py Contract   # one test class

- Contract: BENCHMARK.json declares exactly the workloads and metrics the
  program prints, with their units; every printed value is finite, and
  positive unless the workload does no work of that kind; bad arguments
  exit 2 naming the valid values.
- Reproduction: at seed 7 the deterministic outputs equal the committed
  quick baseline (bench/baselines/quick.json) and the oltp-drift loop at
  100 transactions equals the cadence-1 point of
  `olayout_cli relayout --quick --cadences 1`; another seed gives other
  facts and a repeated seed the same facts.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "labbench", "lab.exe")
CLI = os.path.join(ROOT, "_build", "default", "bin", "olayout_cli.exe")

# Work a workload does not do reads exactly 0: no re-layout ticks or
# windows on the static workloads, no transactions in the DSS engine, no
# pass-by-pass layout on oltp-drift (Incremental runs its passes inside).
NO_TICKS = {
    "core.update_ms.p50", "core.update_ms.p90", "core.reuse_share", "core.procs_replaced",
    "core.pass_invocations", "core.scratch_pass_invocations", "relayout.tick_ms.p50",
    "relayout.tick_ms.p90", "profile.merge_ms.p50", "profile.merge_ms.p90",
    "profile.merge_s", "profile.windows", "exec.window_replay_s", "self.profile_s",
}
NOT_DONE = {
    "oltp-tpcb": NO_TICKS,
    "dss-query": NO_TICKS | {"db.committed", "db.lock_waits"},
    "oltp-drift": {"core.pettis_hansen_s", "core.ph_segments_per_s", "core.placement_s",
                   "core.splitting_s"},
}
# Zero in a healthy run: failures and aborts.
ZERO_WHEN_HEALTHY = {"db.aborted", "db.abort_share", "bench.failed_share"}
# An estimate whose true value is near 0, so either sign is a valid reading.
SIGNED = {"bench.trace_overhead_s"}


def build():
    subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                    "./labbench/lab.exe", "./bin/olayout_cli.exe"], cwd=ROOT, check=True)


def lab(*args, check=True):
    p = subprocess.run([EXE, *args], cwd=ROOT, capture_output=True, text=True)
    if check and p.returncode != 0:
        raise AssertionError(f"lab.exe {' '.join(args)} exited {p.returncode}: {p.stderr}")
    return p


def last_json(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


def facts(workload, seed, *extra):
    return last_json(lab("--workload", workload, "--seed", str(seed), "--facts", *extra))


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_workload(self, workload, trace):
        result = last_json(lab("--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", str(trace)))
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def check_metrics(self, workload, trace, declared):
        metrics = self.run_workload(workload, trace)
        self.assertEqual(list(metrics), [m["name"] for m in declared], workload)
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            v = got["value"]
            self.assertTrue(math.isfinite(v), f"{workload} {m['name']} = {v}")
            if m["name"] in SIGNED:
                continue
            if m["name"] in NOT_DONE[workload] | ZERO_WHEN_HEALTHY:
                self.assertEqual(v, 0, f"{workload} {m['name']}")
            else:
                self.assertGreater(v, 0, f"{workload} {m['name']}")

    def test_workloads_declared(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(NOT_DONE))

    def test_end_to_end_metrics(self):
        for w in NOT_DONE:
            self.check_metrics(w, 0, self.spec["end_to_end"])

    def test_per_layer_metrics(self):
        for w in NOT_DONE:
            self.check_metrics(w, 1, self.spec["per_layer"])

    def test_bad_arguments_exit_2(self):
        for args, valid in [
            (["--workload", "tpcc", "--seed", "1", "--seconds", "1", "--trace", "0"],
             "oltp-tpcb"),
            (["--workload", "oltp-tpcb", "--seed", "1", "--seconds", "1", "--trace", "2"],
             "0 or 1"),
            (["--workload", "oltp-tpcb", "--seed", "x", "--seconds", "1", "--trace", "0"],
             "integer"),
        ]:
            p = lab(*args, check=False)
            self.assertEqual(p.returncode, 2, args)
            self.assertIn(valid, p.stderr)
            self.assertEqual(p.stdout, "")
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                               cwd=ROOT, capture_output=True, text=True)
            self.assertEqual(p.returncode, 2, args)
            self.assertEqual(p.stdout, "")
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                            "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True)
        for w in NOT_DONE:
            self.assertIn(w, p.stderr)


class Reproduction(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build()

    def test_seed_7_matches_quick_baseline(self):
        with open(os.path.join(ROOT, "bench", "baselines", "quick.json")) as f:
            gauges = json.load(f)["gauges"]
        f7 = facts("oltp-tpcb", 7)
        self.assertAlmostEqual(f7["opt_vs_base_64k"], gauges["fig.fig4.opt_vs_base_64k"],
                               places=11)
        self.assertAlmostEqual(f7["sim_speedup_21364"],
                               gauges["fig.fig15.speedup.21364-sim"], places=10)
        self.assertEqual(round(f7["opt_vs_base_64k"], 6), 0.484579)
        self.assertEqual(round(f7["sim_speedup_21364"], 5), 1.26010)

    def test_seeds_drive_the_facts(self):
        for w in NOT_DONE:
            a, b, c = facts(w, 7), facts(w, 7), facts(w, 8)
            self.assertEqual(a, b, f"{w}: seed 7 twice")
            self.assertNotEqual(a, c, f"{w}: seeds 7 and 8")

    def test_drift_loop_matches_relayout_cadence_1(self):
        f = facts("oltp-drift", 7, "--txns", "100")
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "relayout.json")
            subprocess.run([CLI, "relayout", "--quick", "--cadences", "1", "-o", out],
                           cwd=ROOT, check=True, capture_output=True)
            with open(out) as fh:
                r = json.load(fh)["relayout"]
        (point,) = r["points"]
        self.assertEqual(point["cadence"], 1)
        head = "misses.64KB/128B/1-way"
        self.assertEqual(f["windows"], r["windows"])
        self.assertEqual(f["relayouts"], point["relayouts"])
        self.assertEqual(f["opt." + head], point["misses"])
        self.assertEqual(f["opt.app_instrs"], point["instrs"])
        self.assertEqual(f["base." + head], r["static"]["misses"])
        self.assertEqual(f["base.app_instrs"], r["static"]["instrs"])
        for k, v in point["work"].items():
            if k != "work_ratio_x100":
                self.assertEqual(f["work." + k], v, k)


if __name__ == "__main__":
    unittest.main()
