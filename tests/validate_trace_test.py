#!/usr/bin/env python3
"""Self-test of scripts/validate_trace.py on synthetic two-job traces.

Two jobs share node 0 the way scheduled tenants do: each has its own job
track and phase track, and each ends with a mem.budget/mem.peak and a
combine.in/combine.out pair on its phase track. The validator must accept
the trace when both jobs' pairs hold, and reject it, naming the mark, when
only the FIRST job's combine.out exceeds its combine.in or only its
mem.peak exceeds its budget: the second job's valid pair must not hide it.

usage: validate_trace_test.py

Exit code 0 on success; 1 with a description on the first failed check.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

VALIDATOR = Path(__file__).resolve().parent.parent / "scripts" / "validate_trace.py"


def mark(tid, ts, name, arg):
    return {"ph": "i", "pid": 0, "tid": tid, "name": name, "cat": "mark",
            "s": "t", "ts": ts, "args": {"arg": arg}}


def span(ph, tid, ts):
    return {"ph": ph, "pid": 0, "tid": tid, "name": "job", "cat": "phase",
            "ts": ts}


def trace(first):
    """Job 0 (job track 1, phase track 2) ends at ts 50 with `first` as
    its marks; job 1 (tracks 3 and 4) ends at ts 80 with valid marks."""
    second = {"mem.budget": 100, "mem.peak": 90, "combine.in": 100,
              "combine.out": 60}
    events = [span("B", 1, 0), span("B", 3, 1)]
    events += [mark(2, 50, name, arg) for name, arg in first.items()]
    events.append(span("E", 1, 50))
    events += [mark(4, 80, name, arg) for name, arg in second.items()]
    events.append(span("E", 3, 80))
    return {"traceEvents": events}


def validate(doc, tmp):
    path = Path(tmp) / "trace.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, str(VALIDATOR), str(path)],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    good = {"mem.budget": 100, "mem.peak": 80, "combine.in": 100,
            "combine.out": 70}
    cases = [
        ("both jobs valid", good, None),
        ("first job combine.out > combine.in",
         dict(good, **{"combine.out": 130}), "combine.out 130 exceeds"),
        ("first job mem.peak > mem.budget",
         dict(good, **{"mem.peak": 120}), "mem.peak 120 exceeds"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for name, first, needle in cases:
            code, out = validate(trace(first), tmp)
            if needle is None and code != 0:
                print(f"FAIL: {name}: rejected:\n{out}")
                return 1
            if needle is not None and (code != 1 or needle not in out):
                print(f"FAIL: {name}: want exit 1 naming '{needle}', got "
                      f"exit {code}:\n{out}")
                return 1
    print("validate_trace_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
