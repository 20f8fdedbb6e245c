#!/usr/bin/env python3
"""Build and run the layout-lab benchmark from the root of a checkout.

    python3 labbench/run.py --workload oltp-tpcb --seed 1 --seconds 20 --trace 0

Builds labbench/lab.exe from source with dune (the shared dune cache is
disabled, so nothing is written outside the checkout), runs it, and passes
its output through: the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Exits 2 on a bad
argument and 1 when the checkout cannot be built or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["oltp-tpcb", "dss-query", "oltp-drift"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "labbench", "lab.exe")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="labbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def fail(msg):
    print(f"labbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def build(env):
    for needed in ("dune-project", "lib", os.path.join("labbench", "dune")):
        if not os.path.exists(needed):
            fail(f"run from the root of a checkout of the repository ({needed} is missing)")
    code, _ = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./labbench/lab.exe"],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0 or not os.path.exists(EXE):
        fail("build failed")


def main(argv):
    args = parse_args(argv)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run(cmd, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    if code != 0:
        fail(f"lab.exe exited with code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
