#!/usr/bin/env python3
"""Memory-governor spill smoke test.

Runs the same 2-node wordcount (64 KiB splits, 2 partitions per node, no
combiner, shared-pool collector) twice, once with unlimited memory and once
squeezed into a 1 MiB per-node budget, and checks:

  * both runs print the same "N output pairs in M files" count;
  * the governed run's "mem:" line reports the 1 MiB budget and
    merge_levels >= 2 (the tiny merge pool forces fan-in 2);
  * the governed run's trace passes validate_trace.py --expect-spills
    (well-formed spill/merge spans, peak occupancy under the budget).

Spilled runs are stored LZ-compressed, and their compressed sizes set the
simulated disk time, so this run also guards the codec.

usage: spill_smoke.py GWRUN VALIDATE_TRACE TRACE_OUT

Exit code 0 on success; 1 with a description on the first failed check.
"""

import re
import subprocess
import sys

BASE = [
    "--app=wc",
    "--nodes=2",
    "--mb=2",
    "--split-kb=64",
    "--partitions=2",
    "--no-combiner",
    "--collector=pool",
]
PAIRS = re.compile(r"[0-9]+ output pairs in [0-9]+ files")
MEM = re.compile(r"^mem: budget=1MiB .*merge_levels=([0-9]+)", re.M)


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"spill_smoke: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    gwrun, validator, trace = sys.argv[1:]
    unlimited = run([gwrun] + BASE)
    governed = run([gwrun] + BASE + ["--mem-mb=1", f"--trace={trace}"])

    want = PAIRS.search(unlimited)
    got = PAIRS.search(governed)
    if want is None or got is None or want.group(0) != got.group(0):
        sys.exit("spill_smoke: output pair counts differ: "
                 f"{want and want.group(0)!r} vs {got and got.group(0)!r}")
    mem = MEM.search(governed)
    if mem is None:
        sys.exit("spill_smoke: governed run printed no 'mem: budget=1MiB' line")
    if int(mem.group(1)) < 2:
        sys.exit(f"spill_smoke: merge_levels={mem.group(1)}, expected >= 2")
    run([sys.executable, validator, "--expect-spills", trace])
    print("spill_smoke: OK")


if __name__ == "__main__":
    main()
