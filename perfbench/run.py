#!/usr/bin/env python3
"""End-to-end benchmark of fixed gwrun configurations.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/gwbench and perfbench/gwcal (Release) from this checkout's
sources into .bench_build/perfbench, then runs the workload's samples one
after another, each in a fresh process, until the next sample would end
after --seconds. The first sample also checks every output against the
apps' references; every later sample must reproduce its output digest and
simulated results, and at full scale these must equal the values pinned
below.

gwcal times a fixed piece of host work before the first sample and after
every sample. The host's speed drifts by a quarter or more over minutes, so
run_s and setup_s are reported at a reference host speed: each sample's wall
seconds times CAL_REF_S over the mean calibration time around it. The wall
seconds themselves are printed too.

--trace 0 reports the end-to-end metrics (medians over the samples).
--trace 1 adds one traced sample after them and reports the per-layer
metrics: spans, layer counters and replays of the hot data-plane functions.
The traced sample must reproduce the untraced simulated results and output
digest; its spans are written to .bench_build/perfbench/trace-*.json.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 1
when any output check fails and 2 when the program cannot be built.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "gwbench"
CALIBRATOR = BUILD / "gwcal"

DEFAULT_SEED = 42  # gwrun's default --seed
HELD_OUT_SEED = 7  # reserved for confirming later gain claims
MIN_SAMPLES = 6
SAMPLE_TIMEOUT_S = 150
# gwcal's cal_s at the reference host speed: about its median on a 4-vCPU
# Intel Xeon VM. It only sets the scale of the reported seconds.
CAL_REF_S = 0.063
# The host-time metrics reported at the reference host speed.
SCALED = ("run_s", "setup_s")

WORKLOAD_FLAGS = {
    "terasort-64n-1m": "gwrun --app=terasort --nodes=64 --records=1000000",
    "mt-fair-40j": "gwrun --nodes=8 --tenants=4 --sched=fair --arrival-rate=20 --jobs=40",
    "kmeans-dag-5r": "gwrun --app=kmeans --nodes=8 --records=200000 --rounds=5 --pin-intermediates",
}

# Simulated results of the full-scale workloads, which a performance change
# must leave bit-identical: sim_s (gwrun prints it rounded: 0.174, 2.327 and
# 0.264 s), the simulated kernel seconds summed over all devices, and the
# output digest where the output is exact. Pinned for the default and the
# held-out seed; mt-fair-40j replays the seed-42 trace for every seed. The
# k-means centers depend on the order of float additions, which a faster
# reduce may change within the output check's tolerance, so the k-means
# digest is not pinned.
PINNED = {
    ("terasort-64n-1m", 42): {"sim_s": 0.173630318, "kernel_sim_s": 0.04117,
                              "digest": "7550f81bf66f49e8"},
    ("terasort-64n-1m", 7): {"sim_s": 0.176744478, "kernel_sim_s": 0.04117,
                             "digest": "0761184e45689c4d"},
    ("kmeans-dag-5r", 42): {"sim_s": 0.263926198, "kernel_sim_s": 1.50441756},
    ("kmeans-dag-5r", 7): {"sim_s": 0.263999237, "kernel_sim_s": 1.50441783},
}
MT_PINNED = {"sim_s": 2.32657997, "kernel_sim_s": 0.148024878, "digest": "d47d8795428c018a"}
INVARIANTS = ("sim_s", "kernel_sim_s", "digest")

# Setup spans printed one by one but reported in the JSON line as their sum,
# apps.setup_s: the mixed workload runs all three inside make_mixed_workload,
# so no workload would report a span it never ran.
SETUP_SPANS = ["apps.generate_s", "apps.sample_s", "apps.mixed_workload_s"]


def log(msg):
    print(msg, flush=True)


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout", 2)
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "gwbench", "gwcal", "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr so stdout stays the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 2)


def host_metadata(seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha1()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "held_out_seed": HELD_OUT_SEED, "commit": commit,
            "source_sha1": digest.hexdigest()}


def pinned(workload, seed, scale):
    """The pinned simulated results of a run, or None when none are pinned."""
    if scale != "full":
        return None
    return MT_PINNED if workload == "mt-fair-40j" else PINNED.get((workload, seed))


def differs(sample, want):
    """Names the first of `want`'s values the sample does not reproduce."""
    for key, value in want.items():
        if sample[key] != value:
            return f"{key} {sample[key]!r}, want {value!r}"
    return None


def run_sample(workload, seed, extra):
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}"] + extra
    t0 = time.monotonic()
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    wall = time.monotonic() - t0
    lines = r.stdout.strip().splitlines()
    try:
        sample = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(r.stderr)
        fail(f"sample crashed (exit {r.returncode}): {' '.join(cmd)}", 1)
    if r.returncode != 0 and sample.get("check_ok", True):
        sys.stderr.write(r.stderr)
        fail(f"sample failed (exit {r.returncode}): {' '.join(cmd)}", 1)
    sample["wall_s"] = wall
    return sample


def calibrate():
    """Seconds gwcal's fixed host work takes now (its cal_s)."""
    r = subprocess.run([str(CALIBRATOR)], capture_output=True, text=True,
                       timeout=SAMPLE_TIMEOUT_S)
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])["cal_s"]
    except (IndexError, KeyError, json.JSONDecodeError):
        fail(f"calibration failed (exit {r.returncode}): {r.stderr[-300:]}", 1)


def run_calibrated(workload, seed, extra, cal_before):
    """One sample and the calibration after it; returns (sample, cal_after).

    The sample's host seconds are scaled by the mean of the calibrations
    before and after it; wall_s covers both the sample and the calibration."""
    t0 = time.monotonic()
    sample = run_sample(workload, seed, extra)
    cal_after = calibrate()
    sample["wall_s"] = time.monotonic() - t0
    sample["cal_s"] = (cal_before + cal_after) / 2
    for name in SCALED:
        sample[f"wall_{name}"] = sample[name]
        sample[name] = sample[name] * CAL_REF_S / sample["cal_s"]
    return sample, cal_after


def describe(sample):
    flags = " (checked)" if sample["checked"] else ""
    return (f"setup_s={sample['setup_s']:.4f} run_s={sample['run_s']:.4f} "
            f"(wall {sample['wall_setup_s']:.4f}/{sample['wall_run_s']:.4f}, "
            f"cal_s={sample['cal_s']:.4f}) "
            f"peak_rss_mb={sample['peak_rss_mb']:.1f} sim_s={sample['sim_s']:.9g} "
            f"kernel_sim_s={sample['kernel_sim_s']:.9g} digest={sample['digest']} "
            f"jobs={sample['jobs_attempted']}"
            f"/{sample['jobs_failed']} wall={sample['wall_s']:.2f}s{flags}")


def layer_report(spec, layers, traced, untraced_run_s):
    """Prints every per-layer value with its base; absent layers say so.

    untraced_run_s is the untraced samples' median run_s; like the traced
    sample's run_s it is at the reference host speed, so their difference
    is the tracing overhead rather than the host's drift between them."""
    log(f"invariants (checked, not metrics): sim.sim_s {traced['sim_s']:.9g} sim_s, "
        f"gwcl.kernel_sim_s {traced['kernel_sim_s']:.9g} sim_s, digest {traced['digest']}")
    # Spans printed one by one before the JSON metric that follows them.
    spans_before = {"gwdfs.local_reads": ["gwdfs.stage_s"], "apps.setup_s": SETUP_SPANS}
    v = layers.get
    notes = {
        "core.run_s": f"(wall; tracing overhead {traced['run_s'] - untraced_run_s:+.4f} s: "
                      f"traced run_s {traced['run_s']:.4f} s - untraced median "
                      f"{untraced_run_s:.4f} s, both at the reference host speed)",
        "sim.loop_s": "(core.run_s - sim.join_block_s)",
        "core.collector.hash_probes": f"(base: {v('core.kv.intermediate_pairs', 0):.0f} "
                                      "intermediate pairs)",
        "core.collector.finalize_ms": "(per split)",
        "core.collector.finalize_nocombine_ms": "(per split)",
        "util.lz.stored_ratio": f"(base: {v('core.kv.stored_mb', 0):.3f} MiB stored / "
                                f"{v('core.kv.intermediate_mb', 0):.3f} MiB intermediate)",
        "core.store.fanin": f"(base: {v('core.store.fanin_runs', 0):.0f} runs / "
                            f"{v('core.store.merges', 0):.0f} merges)",
        "apps.setup_s": "(sum of the apps spans above)",
    }

    def show(name, unit):
        text = "absent" if name not in layers else f"{layers[name]:.6g} {unit}"
        log(f"  {name:38s} {text} {notes.get(name, '')}".rstrip())

    log("per-layer split (traced sample):")
    for m in spec["per_layer"]:
        for span in spans_before.get(m["name"], []):
            show(span, "s")
        show(m["name"], m["unit"])

    mb = 1.048576  # MiB -> MB
    inter_mb = v("core.kv.intermediate_mb", 0.0) * mb
    probes = v("core.collector.hash_probes")
    # A layer's work divided by its replay rate estimates its busy time.
    est = []
    if layers.get("core.map_records") and layers.get("gwcl.map_mrec_s"):
        est.append(("map kernel", layers["core.map_records"] / 1e6 / layers["gwcl.map_mrec_s"],
                    f"{layers['core.map_records']:.0f} records / gwcl.map_mrec_s"))
    if probes and layers.get("core.collector.insert_mpairs_s"):
        est.append(("collector insert", probes / 1e6 / layers["core.collector.insert_mpairs_s"],
                    "hash_probes / insert rate"))
    splits = layers.get("core.map_splits")
    if splits and layers.get("core.collector.finalize_ms"):
        est.append(("collector finalize", splits * layers["core.collector.finalize_ms"] / 1e3,
                    f"{splits:.0f} map splits x finalize_ms"))
    for label, rate in [("sort", "core.kv.sort_mb_s"), ("merge", "core.kv.merge_mb_s"),
                        ("lz compress", "util.lz.compress_mb_s"),
                        ("lz decompress", "util.lz.decompress_mb_s")]:
        if layers.get(rate):
            est.append((label, inter_mb / layers[rate], f"intermediate MB / {rate}"))
    classes = sorted(k[len("class."):-len(".splits")] for k in layers
                     if k.startswith("class.") and k.endswith(".splits"))
    share = {c: (layers[f"class.{c}.intermediate_mb"] / max(v("core.kv.intermediate_mb"), 1e-12),
                 layers[f"class.{c}.splits"] / max(v("core.map_splits"), 1e-12))
             for c in classes}
    log("job classes replayed, each weighted by its work (share of intermediate bytes / "
        "of map splits): " + ", ".join(f"{c} {a:.1%} / {b:.1%}" for c, (a, b) in share.items()))
    log("busy-time estimates (work / replay rate; replayed merges have fan-in 12):")
    for label, secs, base in est:
        log(f"  {label:20s} {secs:8.4f} s  ({base})")
    log(f"  {'sum':20s} {sum(s for _, s, _ in est):8.4f} s  "
        f"(compare util.pool.busy_s {layers.get('util.pool.busy_s', 0):.4f} s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_FLAGS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="tiny: seconds-long inputs for the smoke test")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    meta = host_metadata(args.seed)
    log(f"perfbench: {args.workload} = {WORKLOAD_FLAGS[args.workload]} --seed={args.seed}")

    extra = [f"--scale={args.scale}"]
    start = time.monotonic()
    first, cal = run_calibrated(args.workload, args.seed, extra + ["--check"], calibrate())
    samples = [first]
    meta.update({k: first[k] for k in ("pool_threads", "build_type", "cxx_flags", "optimized")})
    log("meta " + json.dumps(meta, sort_keys=True))
    if not first["optimized"]:
        log("WARNING: unoptimized build; timings are not comparable")
    log(f"sample 1: {describe(first)}")
    if not first["check_ok"]:
        log(f"CHECK FAILED: {first['check_note']}")

    while True:
        elapsed = time.monotonic() - start
        next_wall = statistics.median(s["wall_s"] for s in samples[1:] or samples)
        if len(samples) >= MIN_SAMPLES and elapsed + next_wall > args.seconds:
            break
        sample, cal = run_calibrated(args.workload, args.seed, extra, cal)
        samples.append(sample)
        log(f"sample {len(samples)}: {describe(sample)}")

    # Every sample must reproduce the pinned simulated results, or where none
    # are pinned, those of the checked first sample.
    pins = pinned(args.workload, args.seed, args.scale)
    log("pinned simulated results: " + ("none for this seed" if pins is None else
                                        json.dumps(pins, sort_keys=True)))
    checked = {k: first[k] for k in INVARIANTS}
    want, source = (pins, "the pinned values") if pins else (checked, "the first sample")
    correct = first["check_ok"]
    attempted = failed = 0

    def tally(sample, label):
        # A sample that does not reproduce the simulated results fails all its jobs.
        nonlocal correct, attempted, failed
        attempted += sample["jobs_attempted"]
        why = differs(sample, want)
        if why:
            log(f"MISMATCH: {label} differs from {source}: {why}")
            correct = False
        failed += sample["jobs_attempted"] if why else sample["jobs_failed"]

    for i, s in enumerate(samples, 1):
        tally(s, f"sample {i}")

    log(f"{len(samples)} samples, jobs attempted {attempted}, failed {failed}, "
        f"sim_s {first['sim_s']:.9g}")
    medians = {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({f"wall_{name}": "s" for name in SCALED}, cal_s="s")
    for name in units:
        values = [s[name] for s in samples]
        medians[name] = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        log(f"{name:12s} median {medians[name]:.6g} {units[name]} "
            f"(n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")

    metrics = {m["name"]: {"value": medians[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    if args.trace:
        trace_file = BUILD / f"trace-{args.workload}-{args.seed}.json"
        traced, _ = run_calibrated(args.workload, args.seed,
                                   extra + [f"--trace={trace_file}"], cal)
        log(f"traced sample: {describe(traced)}")
        tally(traced, "the traced sample")
        same = differs(traced, checked) is None
        log(f"traced identity: sim_s, kernel_sim_s and digest "
            f"{'equal' if same else 'DIFFER'} to the untraced samples; "
            f"spans in {trace_file.relative_to(ROOT)}")
        layers = dict(traced["layers"])
        layers["apps.setup_s"] = sum(layers.get(n, 0.0) for n in SETUP_SPANS)
        layer_report(spec, layers, traced, medians["run_s"])
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
