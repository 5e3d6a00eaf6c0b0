#!/usr/bin/env python3
"""Network link-span smoke test.

Runs the same 4-node wordcount on both interconnect profiles the paper
evaluates (1 GbE and QDR IPoIB), each with --net-report and a trace, and
checks:

  * both runs print the same "N output pairs in M files" count (the
    interconnect changes timing, never the output);
  * each run's "net:" line reports nonzero shuffle bytes;
  * each run's trace passes validate_trace.py --expect-links (the fabric
    records a link busy span for every remote transfer).

The traces are written next to TRACE_PREFIX as TRACE_PREFIX_gbe.json and
TRACE_PREFIX_ipoib.json.

usage: link_smoke.py GWRUN VALIDATE_TRACE TRACE_PREFIX

Exit code 0 on success; 1 with a description on the first failed check.
"""

import re
import subprocess
import sys

BASE = ["--app=wc", "--nodes=4", "--mb=4", "--net-report"]
NETS = ["gbe", "ipoib"]
PAIRS = re.compile(r"[0-9]+ output pairs in [0-9]+ files")
SHUFFLE = re.compile(r"^net: shuffle=([0-9]+) ", re.M)


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"link_smoke: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    gwrun, validator, prefix = sys.argv[1:]
    counts = []
    for net in NETS:
        trace = f"{prefix}_{net}.json"
        out = run([gwrun] + BASE + [f"--net={net}", f"--trace={trace}"])
        pairs = PAIRS.search(out)
        if pairs is None:
            sys.exit(f"link_smoke: --net={net} printed no output-pairs line")
        counts.append(pairs.group(0))
        shuffle = SHUFFLE.search(out)
        if shuffle is None or int(shuffle.group(1)) == 0:
            sys.exit(f"link_smoke: --net={net} reported no shuffle bytes")
        run([sys.executable, validator, "--expect-links", trace])
    if counts[0] != counts[1]:
        sys.exit(f"link_smoke: output pair counts differ: {counts}")
    print("link_smoke: OK")


if __name__ == "__main__":
    main()
