#!/usr/bin/env python3
"""Crashed prefix-sums DAG smoke test.

Runs the 3-round prefix-sums DAG (blocksum, scan, apply) on 4 nodes twice,
once failure-free and once with node 2 killed 1 ms into round 1 and a
trace, and checks:

  * both runs print the same final "N output pairs in M files" line (a
    crash changes timing, never the output);
  * both runs print "dag: rounds=3 executed=N" with N >= 3 (a crash may
    re-execute rounds, never skip one);
  * the crashed run's trace passes validate_trace.py --expect-rounds N
    --expect-recovery (one round span per executed round, and the
    recovery events of the crash).

usage: dag_smoke.py GWRUN VALIDATE_TRACE TRACE_OUT

Exit code 0 on success; 1 with a description on the first failed check.
"""

import re
import subprocess
import sys

BASE = ["--app=prefixsum", "--nodes=4", "--records=60000"]
CRASH = ["--kill-round=1", "--kill-node=2@1ms"]
PAIRS = re.compile(r"[0-9]+ output pairs in [0-9]+ files")
DAG = re.compile(r"^dag: rounds=3 executed=([0-9]+) ", re.M)


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"dag_smoke: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def summary(name, out):
    pairs = PAIRS.findall(out)
    if not pairs:
        sys.exit(f"dag_smoke: {name} run printed no output-pairs line")
    dag = DAG.search(out)
    if dag is None:
        sys.exit(f"dag_smoke: {name} run printed no 'dag: rounds=3' line")
    executed = int(dag.group(1))
    if executed < 3:
        sys.exit(f"dag_smoke: {name} run executed {executed} rounds, want >= 3")
    return pairs[-1], executed


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    gwrun, validator, trace = sys.argv[1:]
    clean_pairs, _ = summary("clean", run([gwrun] + BASE))
    crash_pairs, executed = summary(
        "crashed", run([gwrun] + BASE + CRASH + [f"--trace={trace}"]))
    if clean_pairs != crash_pairs:
        sys.exit(f"dag_smoke: final output differs: clean '{clean_pairs}', "
                 f"crashed '{crash_pairs}'")
    run([sys.executable, validator, "--expect-rounds", str(executed),
         "--expect-recovery", trace])
    print("dag_smoke: OK")


if __name__ == "__main__":
    main()
