#!/usr/bin/env python3
"""Hierarchical-combining smoke test.

Runs the same 8-node wordcount on an oversubscribed GbE fabric with racks
of 4 twice, once with combining off and once in rack mode, and checks:

  * both runs print the same "N output pairs in M files" count;
  * the combined run prints a "combine:" savings line and a "net:" line
    with nonzero rack_agg bytes;
  * the combined run's trace passes validate_trace.py --expect-combine
    (combine spans present, per-node combine.out <= combine.in).

usage: combine_smoke.py GWRUN VALIDATE_TRACE TRACE_OUT

Exit code 0 on success; 1 with a description on the first failed check.
"""

import re
import subprocess
import sys

BASE = [
    "--app=wc",
    "--nodes=8",
    "--mb=8",
    "--net=gbe",
    "--oversub=4",
    "--rack-size=4",
    "--net-report",
]
PAIRS = re.compile(r"[0-9]+ output pairs in [0-9]+ files")
COMBINE = re.compile(r"^combine: in=[0-9.]+MiB out=[0-9.]+MiB", re.M)
RACK_AGG = re.compile(r"^net: .* rack_agg=[1-9][0-9]*", re.M)


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"combine_smoke: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    gwrun, validator, trace = sys.argv[1:]
    plain = run([gwrun] + BASE)
    combined = run([gwrun] + BASE + ["--combine=rack", f"--trace={trace}"])

    want = PAIRS.search(plain)
    got = PAIRS.search(combined)
    if want is None or got is None or want.group(0) != got.group(0):
        sys.exit("combine_smoke: output pair counts differ: "
                 f"{want and want.group(0)!r} vs {got and got.group(0)!r}")
    if COMBINE.search(combined) is None:
        sys.exit("combine_smoke: combined run printed no combine: line")
    if RACK_AGG.search(combined) is None:
        sys.exit("combine_smoke: combined run reported no rack_agg bytes")
    run([sys.executable, validator, "--expect-combine", trace])
    print("combine_smoke: OK")


if __name__ == "__main__":
    main()
