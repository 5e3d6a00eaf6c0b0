#!/usr/bin/env python3
"""Golden-file runner: one gwrun configuration per file under tests/golden/.

A golden file is a header, a line holding only "---", and a body:

    # comment lines
    args: --app=wc --nodes=4 --mb=4 --kill-node=2@8ms
    validate: --expect-recovery
    assert: ^faults: reexec=[1-9]
    equal: wc-4n
    ---
    <gwrun's stdout, ending in its "outputs:" line>
    trace-sha256: <sha256 of the trace JSON>

  args      gwrun's arguments as shell words; the runner adds --trace.
  validate  extra validate_trace.py flags.
  assert    a regex that must match a stdout line (repeatable).
  equal     a row whose "outputs:" line this row's must equal (repeatable).

The row is named after the file. It runs gwrun at GW_THREADS=1 and at
GW_THREADS=4; both runs must exit 0 and give the same body, and that body
must equal the file's. The trace must pass validate_trace.py and every
assert and equal must hold. The GW_THREADS=1 trace is kept as
OUTDIR/trace_<row>.json.

On a body mismatch the runner writes the actual file to
OUTDIR/golden/<row>.golden and prints a unified diff. Accepting the change
means copying that file over tests/golden/<row>.golden.

usage: golden.py GWRUN VALIDATE_TRACE GOLDEN_FILE OUTDIR

Exit code 0 when every check holds; 1 after naming each failed one.
"""

import difflib
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

SEPARATOR = "---\n"
KEYS = ("args", "validate", "assert", "equal")
OUTPUTS = re.compile(r"^outputs: .*$", re.M)


def parse(path):
    """Returns (header text, {key: [values]}, body) of a golden file."""
    lines = Path(path).read_text().splitlines(keepends=True)
    if SEPARATOR not in lines:
        sys.exit(f"{path}: no '---' line between header and body")
    cut = lines.index(SEPARATOR) + 1
    fields = {key: [] for key in KEYS}
    for line in lines[:cut - 1]:
        if not line.strip() or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        if key not in fields:
            sys.exit(f"{path}: unknown header key '{key}'")
        fields[key].append(value.strip())
    return "".join(lines[:cut]), fields, "".join(lines[cut:])


def outputs_line(body):
    found = OUTPUTS.search(body)
    return found.group(0) if found else None


def diff(want, got, want_name, got_name):
    return "".join(difflib.unified_diff(want.splitlines(keepends=True),
                                        got.splitlines(keepends=True),
                                        want_name, got_name))


def run_gwrun(gwrun, args, row, cwd, threads):
    """Runs gwrun in `cwd`; returns (body, trace path) or (None, error)."""
    cwd.mkdir(parents=True, exist_ok=True)
    trace = cwd / f"trace_{row}.json"
    trace.unlink(missing_ok=True)
    proc = subprocess.run([gwrun, *args, f"--trace={trace.name}"], cwd=cwd,
                          env=dict(os.environ, GW_THREADS=str(threads)),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None, (f"GW_THREADS={threads}: gwrun exited "
                      f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
    sha = hashlib.sha256(trace.read_bytes()).hexdigest()
    return proc.stdout + f"trace-sha256: {sha}\n", trace


def check(gwrun, validator, golden, outdir):
    """Returns the failed checks of one row."""
    row = golden.stem
    header, fields, want = parse(golden)
    args = shlex.split(" ".join(fields["args"]))
    runs = []
    for threads, cwd in ((1, outdir), (4, outdir / "threads4")):
        body, trace_or_error = run_gwrun(gwrun, args, row, cwd, threads)
        if body is None:
            return [trace_or_error]
        runs.append((body, trace_or_error))
    (got, trace), (other, _) = runs
    errors = []
    if other != got:
        errors.append("GW_THREADS=1 and GW_THREADS=4 differ:\n" +
                      diff(got, other, "GW_THREADS=1", "GW_THREADS=4"))
    actual = outdir / "golden" / golden.name
    actual.unlink(missing_ok=True)
    if got != want:
        actual.parent.mkdir(exist_ok=True)
        actual.write_text(header + got)
        errors.append(f"output differs from {golden} (accept it with "
                      f"'cp {actual} {golden}'):\n" +
                      diff(want, got, str(golden), str(actual)))
    for pattern in fields["assert"]:
        if re.search(pattern, got, re.M) is None:
            errors.append(f"no stdout line matches assert '{pattern}'")
    validate = subprocess.run(
        [sys.executable, validator,
         *shlex.split(" ".join(fields["validate"])), str(trace)],
        capture_output=True, text=True)
    if validate.returncode != 0:
        errors.append(f"{trace} fails validate_trace.py:\n"
                      f"{validate.stdout}{validate.stderr}")
    for name in fields["equal"]:
        theirs = outputs_line(parse(golden.with_name(f"{name}.golden"))[2])
        if outputs_line(got) != theirs:
            errors.append(f"'{outputs_line(got)}' differs from row {name}'s "
                          f"'{theirs}'")
    return errors


def main():
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    gwrun, validator, golden, outdir = sys.argv[1:]
    golden = Path(golden)
    errors = check(os.path.abspath(gwrun), validator, golden, Path(outdir))
    for error in errors:
        print(f"Golden.{golden.stem}: FAIL: {error}")
    if errors:
        sys.exit(1)
    print(f"Golden.{golden.stem}: OK")


if __name__ == "__main__":
    main()
