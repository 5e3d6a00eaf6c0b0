#!/usr/bin/env python3
"""Crashed-node wordcount smoke test.

Runs a 4-node wordcount twice, once failure-free and once with node 2
killed 8 ms in and a trace, and checks:

  * both runs print the same "N output pairs in M files" line (a crash
    changes timing, never the output);
  * the crashed run reports re-executed tasks ("faults: reexec=N", N >= 1);
  * its trace passes validate_trace.py --expect-recovery (well-nested
    recovery spans).

usage: fault_smoke.py GWRUN VALIDATE_TRACE TRACE_OUT

Exit code 0 on success; 1 with a description on the first failed check.
"""

import re
import subprocess
import sys

BASE = ["--app=wc", "--nodes=4", "--mb=4"]
CRASH = ["--kill-node=2@8ms"]
PAIRS = re.compile(r"[0-9]+ output pairs in [0-9]+ files")
REEXEC = re.compile(r"^faults: reexec=[1-9]", re.M)


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"fault_smoke: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def pairs(name, out):
    found = PAIRS.search(out)
    if found is None:
        sys.exit(f"fault_smoke: {name} run printed no output-pairs line")
    return found.group(0)


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    gwrun, validator, trace = sys.argv[1:]
    clean = pairs("clean", run([gwrun] + BASE))
    out = run([gwrun] + BASE + CRASH + [f"--trace={trace}"])
    crashed = pairs("crashed", out)
    if clean != crashed:
        sys.exit(f"fault_smoke: output differs: clean '{clean}', "
                 f"crashed '{crashed}'")
    if REEXEC.search(out) is None:
        sys.exit("fault_smoke: crashed run re-executed no task")
    run([sys.executable, validator, "--expect-recovery", trace])
    print("fault_smoke: OK")


if __name__ == "__main__":
    main()
