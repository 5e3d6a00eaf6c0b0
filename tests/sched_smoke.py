#!/usr/bin/env python3
"""Multi-tenant scheduler smoke test.

Runs one of two 8-job seeded tenant mixes through gwrun with a trace:

  fair     4 tenants under fair sharing on 8 nodes of 4x-oversubscribed
           1 GbE. Every job must finish ("sched: policy=fair jobs=8
           finished=8 rejected=0 failed=0") and the trace must pass
           validate_trace.py --expect-jobs 8 (one labelled job span per
           scheduled job).
  preempt  4 tenants under priority admission on 4 nodes, two residents
           at most, with preemption and elastic slots. Every job must
           finish, the run must report "preempts=N resumes=M" with N >= 1
           and M >= 1, and the trace must pass --expect-jobs 8
           --expect-preemptions N (each suspended job's spans reopen on
           its own track).

usage: sched_smoke.py fair|preempt GWRUN VALIDATE_TRACE TRACE_OUT

Exit code 0 on success; 1 with a description on the first failed check.
"""

import re
import subprocess
import sys

CASES = {
    "fair": ("fair", ["--tenants=4", "--jobs=8", "--nodes=8",
                      "--arrival-rate=20", "--sched=fair", "--seed=7",
                      "--net=gbe", "--oversub=4"]),
    "preempt": ("priority", ["--tenants=4", "--jobs=8", "--nodes=4",
                             "--arrival-rate=200", "--sched=priority",
                             "--max-resident=2", "--preempt", "--elastic",
                             "--seed=7"]),
}
PREEMPTS = re.compile(r"preempts=([0-9]+) resumes=([0-9]+)")


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"sched_smoke: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def main():
    if len(sys.argv) != 5 or sys.argv[1] not in CASES:
        sys.exit(__doc__)
    case, gwrun, validator, trace = sys.argv[1:]
    policy, args = CASES[case]
    out = run([gwrun] + args + [f"--trace={trace}"])
    summary = (f"sched: policy={policy} jobs=8 finished=8 rejected=0 "
               "failed=0")
    if summary not in out:
        sys.exit(f"sched_smoke: {case} run did not print '{summary}'")
    expect = ["--expect-jobs", "8"]
    if case == "preempt":
        counts = PREEMPTS.search(out)
        if counts is None:
            sys.exit("sched_smoke: preempt run printed no preempts= count")
        preempts, resumes = int(counts.group(1)), int(counts.group(2))
        if preempts < 1 or resumes < 1:
            sys.exit(f"sched_smoke: preempts={preempts} resumes={resumes}, "
                     "want both >= 1")
        expect += ["--expect-preemptions", str(preempts)]
    run([sys.executable, validator] + expect + [trace])
    print(f"sched_smoke {case}: OK")


if __name__ == "__main__":
    main()
