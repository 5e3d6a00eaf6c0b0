#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes (seconds).

    python3 perfbench/smoke_test.py

For every workload it checks that
  * run.py prints every end-to-end metric (--trace 0) and every per-layer
    metric (--trace 1) of BENCHMARK.json, with its unit, and exits 0;
  * a traced sample reproduces the untraced simulated results and digest;
  * a simulated result off its pinned full-scale value fails the pin check;
  * gwbench --check fails (nonzero exit, check_ok false, a failed job) when
    one output record is corrupted.
Exits nonzero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py: build and paths)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def expect(cond, msg):
    if not cond:
        print(f"FAIL: {msg}", flush=True)
        sys.exit(1)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    pins = run.pinned("mt-fair-40j", 1, "full")
    moved = dict(pins, sim_s=pins["sim_s"] * (1 + 1e-9))
    expect(run.differs(dict(pins), pins) is None and run.differs(moved, pins) is not None,
           "a simulated result off its pinned value passed the pin check")
    run.build()
    for workload in run.WORKLOAD_FLAGS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--scale", "tiny", "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            expect(r.returncode == 0, f"{workload} --trace {trace} exited {r.returncode}: "
                   f"{r.stderr[-500:]}")
            out = last_json(r.stdout)
            expect(set(out) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(out)}")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{workload} --trace {trace}: {out}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == want, f"{workload} --trace {trace}: metrics/units {got} != {want}")
            for name, m in out["metrics"].items():
                expect(isinstance(m["value"], (int, float)), f"{workload} {name}: {m}")
            if trace:
                expect("traced identity: sim_s, kernel_sim_s and digest equal" in r.stdout,
                       f"{workload}: traced sample differs from untraced")
            else:
                for name in want:
                    expect(out["metrics"][name]["value"] > 0, f"{workload} {name} is 0")

        r = subprocess.run([str(run.BINARY), f"--workload={workload}", "--scale=tiny",
                            "--check", "--corrupt"], capture_output=True, text=True,
                           timeout=300)
        sample = last_json(r.stdout)
        expect(r.returncode != 0 and not sample["check_ok"] and sample["jobs_failed"] >= 1,
               f"{workload}: a corrupted output record passed the check")
        print(f"ok {workload}: metrics present, check catches '{sample['check_note']}'",
              flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
