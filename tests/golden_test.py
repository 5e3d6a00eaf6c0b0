#!/usr/bin/env python3
"""Self-test of the golden-file runner (tests/golden.py).

Runs the runner against a stand-in gwrun script and the real
validate_trace.py. A faithful row must pass, and a stale row must pass once
its written actual file is copied over it. The runner must fail, and name
the row, on each of:

  * stdout that differs between GW_THREADS=1 and GW_THREADS=4;
  * stdout that differs from the golden;
  * a failed line assertion;
  * a trace that validate_trace.py rejects;
  * two rows declared equal whose "outputs:" lines differ.

usage: golden_test.py

Exit code 0 on success; 1 with a description on the first failed check.
"""

import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNNER = HERE / "golden.py"
VALIDATOR = HERE.parent / "scripts" / "validate_trace.py"

GOOD_TRACE = ('{"traceEvents":[{"ph":"B","pid":0,"tid":0,"name":"job",'
              '"cat":"phase","ts":0},{"ph":"E","pid":0,"tid":0,"name":"job",'
              '"cat":"phase","ts":5}]}')
BAD_TRACE = GOOD_TRACE.replace('"ph":"E"', '"ph":"B"')

# Stands in for gwrun: --case picks the fault, --trace names the trace file.
STAND_IN = f'''#!{sys.executable}
import os, sys
flags = dict(arg[2:].partition("=")[::2] for arg in sys.argv[1:])
case = flags["case"]
with open(flags["trace"], "w") as f:
    f.write({BAD_TRACE!r} if case == "bad-trace" else {GOOD_TRACE!r})
print("elapsed 0.005s")
if case == "threads":
    print("pool", os.environ["GW_THREADS"])
digest = "1" * 16 if case == "other-outputs" else "0" * 16
print(f"trace written to {{flags['trace']}}")
print(f"outputs: files=1 bytes=4 fnv={{digest}}")
'''


def body(row, trace=GOOD_TRACE, extra="", digest="0" * 16):
    sha = hashlib.sha256(trace.encode()).hexdigest()
    return (f"elapsed 0.005s\n{extra}trace written to trace_{row}.json\n"
            f"outputs: files=1 bytes=4 fnv={digest}\ntrace-sha256: {sha}\n")


# row -> (header lines, body, text the failure must contain or None)
ROWS = {
    "good": (["args: --case=good"], body("good"), None),
    "threads": (["args: --case=threads"], body("threads", extra="pool 1\n"),
                "GW_THREADS=1 and GW_THREADS=4 differ"),
    "stale": (["args: --case=good"],
              body("stale").replace("0.005s", "0.006s"), "output differs"),
    "assertion": (["args: --case=good", "assert: ^faults: reexec=[1-9]"],
                  body("assertion"), "no stdout line matches"),
    "bad-trace": (["args: --case=bad-trace", "validate: --expect-recovery"],
                  body("bad-trace", trace=BAD_TRACE), "validate_trace.py"),
    "unequal": (["args: --case=other-outputs", "equal: good"],
                body("unequal", digest="1" * 16), "differs from row good"),
}


def run_row(tmp, row):
    return subprocess.run(
        [sys.executable, str(RUNNER), str(tmp / "gwrun"), str(VALIDATOR),
         str(tmp / "golden" / f"{row}.golden"), str(tmp / "out")],
        capture_output=True, text=True)


def main():
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        stand_in = tmp / "gwrun"
        stand_in.write_text(STAND_IN)
        stand_in.chmod(0o755)
        (tmp / "golden").mkdir()
        for row, (header, text, _) in ROWS.items():
            (tmp / "golden" / f"{row}.golden").write_text(
                "\n".join(header) + "\n---\n" + text)

        for row, (_, _, reason) in ROWS.items():
            proc = run_row(tmp, row)
            out = proc.stdout + proc.stderr
            if reason is None:
                if proc.returncode != 0:
                    sys.exit(f"golden_test: row {row} failed:\n{out}")
            elif (proc.returncode == 0 or f"Golden.{row}: FAIL" not in out
                  or reason not in out):
                sys.exit(f"golden_test: row {row} should fail with "
                         f"'{reason}', got exit {proc.returncode}:\n{out}")

        # Accepting a change is copying the written actual file.
        shutil.copy(tmp / "out" / "golden" / "stale.golden",
                    tmp / "golden" / "stale.golden")
        proc = run_row(tmp, "stale")
        if proc.returncode != 0:
            sys.exit("golden_test: accepted stale row still fails:\n" +
                     proc.stdout)
    print("golden_test: OK")


if __name__ == "__main__":
    main()
