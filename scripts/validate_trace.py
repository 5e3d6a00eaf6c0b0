#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON export against the schema the repo
emits (src/util/trace.cc):

  * the file parses and is an object with a "traceEvents" array;
  * every event carries ph/pid/tid/name, duration events also carry ts+cat;
  * per (pid, tid), B/E events are balanced and properly nested, with the
    E name matching the innermost open B;
  * per pid, timestamps are monotone non-decreasing in file order (the ring
    preserves record order per node);
  * span end >= span begin;
  * every cat is one of the categories trace.cc emits (stage, phase,
    kernel, transfer, shuffle, merge, spill, retry, recovery, link, mark);
  * every "recovery" event (crash-recovery rounds, §III-E) falls inside the
    job-wide "job" span — recovery work outside a running job is a bug.

With --expect-links, additionally fail when the trace contains no "link"
spans (network link occupancy from the fabric; any multi-node run with
remote traffic emits them). With --expect-recovery, fail when the trace
contains no "recovery" spans (a run with an injected crash must record
its recovery rounds). With --expect-spills, fail when the trace contains
no "spill" spans or no "merge" spans (a memory-governed run over budget
must spill sorted runs and consolidate them), or when it lacks a
"mem.budget"/"mem.peak" pair. A job emits each pair on every node's phase
track at its end, so a mark pairs with its partner on the same track at
the same timestamp, which keeps the pairs of concurrent jobs and of DAG
rounds apart; in every pair the recorded peak occupancy must respect the
budget. With --expect-combine, fail when the trace contains no "combine"
spans (hierarchical combining must record its combine passes) or no
"combine.in"/"combine.out" pair; in every such pair the combined output
volume must not exceed the input volume. With
--expect-rounds N, fail unless the trace contains exactly N "round"
spans (one per executed DAG round), each nested inside one of the "job"
spans — a multi-round trace carries one job span per round, and every
round span must sit inside its job. With --expect-jobs N, fail unless the
trace contains exactly N complete "job" spans; when N > 1 (a multi-tenant
trace) every job span must additionally live on its own distinctly-labeled
track (the scheduler scopes each job's span track as "j<id>.job"), so
concurrent jobs stay distinguishable in the timeline. With
--expect-preemptions N, fail unless exactly N job spans close and reopen
on an already-used job track: a checkpoint-preempted job's span ends at
suspension and a new span opens on the SAME labeled track when the
remainder resumes, so preemptions are counted as extra spans per track
(sum over tracks of spans-1). Combined with --expect-jobs N, the trace
must then show N distinct job tracks and N + preemptions job spans.

Job spans are tracked per (pid, tid): concurrent jobs from different
tenants overlap in time on different tracks, and each track's B/E pairing
is independent.

Exit code 0 when valid; 1 with a description on the first violation.
Stdlib only — runs anywhere CI has a python3.
"""

import json
import sys

KNOWN_CATEGORIES = {
    "stage",
    "phase",
    "kernel",
    "transfer",
    "shuffle",
    "merge",
    "spill",
    "combine",
    "retry",
    "recovery",
    "round",
    "link",
    "mark",
}


def fail(msg):
    print(f"validate_trace: FAIL: {msg}")
    sys.exit(1)


def main():
    args = sys.argv[1:]
    expect_links = "--expect-links" in args
    expect_recovery = "--expect-recovery" in args
    expect_spills = "--expect-spills" in args
    expect_combine = "--expect-combine" in args
    flags = (
        "--expect-links",
        "--expect-recovery",
        "--expect-spills",
        "--expect-combine",
    )
    args = [a for a in args if a not in flags]
    expect_rounds = None
    if "--expect-rounds" in args:
        i = args.index("--expect-rounds")
        if i + 1 >= len(args) or not args[i + 1].isdigit():
            print("--expect-rounds needs an integer count")
            sys.exit(2)
        expect_rounds = int(args[i + 1])
        del args[i : i + 2]
    expect_jobs = None
    if "--expect-jobs" in args:
        i = args.index("--expect-jobs")
        if i + 1 >= len(args) or not args[i + 1].isdigit():
            print("--expect-jobs needs an integer count")
            sys.exit(2)
        expect_jobs = int(args[i + 1])
        del args[i : i + 2]
    expect_preemptions = None
    if "--expect-preemptions" in args:
        i = args.index("--expect-preemptions")
        if i + 1 >= len(args) or not args[i + 1].isdigit():
            print("--expect-preemptions needs an integer count")
            sys.exit(2)
        expect_preemptions = int(args[i + 1])
        del args[i : i + 2]
    if len(args) != 1:
        print(
            f"usage: {sys.argv[0]} [--expect-links] [--expect-recovery] "
            "[--expect-spills] [--expect-combine] [--expect-rounds N] "
            "[--expect-jobs N] [--expect-preemptions N] trace.json"
        )
        sys.exit(2)
    path = args[0]
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("traceEvents is not an array")

    stacks = {}  # (pid, tid) -> [(name, ts), ...]
    last_ts = {}  # pid -> ts
    counts = {"B": 0, "E": 0, "i": 0, "M": 0}
    link_spans = 0
    spill_spans = 0
    merge_spans = 0
    combine_spans = 0
    # (pid, tid, ts) -> {mark name: bytes}: mem.budget/mem.peak and
    # combine.in/combine.out (bytes entering and leaving combine passes).
    marks = {}
    job_intervals = []  # completed "job" spans as (begin_ts, end_ts)
    job_tracks = []  # (pid, tid) of each completed "job" span, same order
    job_open = {}  # (pid, tid) -> begin ts of that track's open "job" span
    track_labels = {}  # (pid, tid) -> thread_name metadata label
    round_spans = []  # completed "round" spans as (idx, begin_ts, end_ts)
    round_open = None  # (idx, begin_ts) of the currently open round span
    recovery_events = []  # (idx, ts) of every recovery-category event
    for idx, ev in enumerate(events):
        where = f"event #{idx}"
        for field in ("ph", "pid", "tid", "name"):
            if field not in ev:
                fail(f"{where}: missing required field '{field}'")
        ph = ev["ph"]
        if ph not in counts:
            fail(f"{where}: unknown phase '{ph}'")
        counts[ph] += 1
        if ph == "M":
            if ev["name"] == "thread_name":
                label = ev.get("args", {}).get("name")
                if isinstance(label, str):
                    track_labels[(ev["pid"], ev["tid"])] = label
            continue
        for field in ("ts", "cat"):
            if field not in ev:
                fail(f"{where}: {ph} event missing '{field}'")
        if ev["cat"] not in KNOWN_CATEGORIES:
            fail(f"{where}: unknown category '{ev['cat']}'")
        if ph == "B" and ev["cat"] == "link":
            link_spans += 1
        if ph == "B" and ev["cat"] == "spill":
            spill_spans += 1
        if ph == "B" and ev["cat"] == "merge":
            merge_spans += 1
        if ph == "B" and ev["cat"] == "combine":
            combine_spans += 1
        if ev["cat"] == "mark" and ev["name"] in (
            "mem.budget",
            "mem.peak",
            "combine.in",
            "combine.out",
        ):
            arg = ev.get("args", {}).get("arg")
            if not isinstance(arg, (int, float)) or arg < 0:
                fail(f"{where}: {ev['name']} mark with bad arg {arg!r}")
            key = (ev["pid"], ev["tid"], ev["ts"])
            marks.setdefault(key, {})[ev["name"]] = arg
        if ev["cat"] == "recovery":
            recovery_events.append((idx, ev["ts"]))
        if ev["name"] == "job" and ev["cat"] == "phase":
            track = (ev["pid"], ev["tid"])
            if ph == "B":
                job_open[track] = ev["ts"]
            elif ph == "E" and track in job_open:
                job_intervals.append((job_open.pop(track), ev["ts"]))
                job_tracks.append(track)
        if ev["cat"] == "round":
            if ph == "B":
                round_open = (idx, ev["ts"])
            elif ph == "E" and round_open is not None:
                round_spans.append((round_open[0], round_open[1], ev["ts"]))
                round_open = None
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{where}: bad ts {ts!r}")
        pid = ev["pid"]
        if ts < last_ts.get(pid, 0.0):
            fail(
                f"{where}: ts {ts} goes backwards on pid {pid} "
                f"(previous {last_ts[pid]})"
            )
        last_ts[pid] = ts

        key = (pid, ev["tid"])
        if ph == "B":
            stacks.setdefault(key, []).append((ev["name"], ts))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                fail(f"{where}: E '{ev['name']}' with no open span on {key}")
            name, begin_ts = stack.pop()
            if name != ev["name"]:
                fail(
                    f"{where}: E '{ev['name']}' does not match innermost "
                    f"B '{name}' on {key}"
                )
            if ts < begin_ts:
                fail(f"{where}: span '{name}' ends at {ts} before {begin_ts}")

    open_spans = {k: v for k, v in stacks.items() if v}
    if open_spans:
        key, stack = next(iter(open_spans.items()))
        fail(f"unclosed span '{stack[-1][0]}' on (pid, tid) {key}")
    if counts["B"] != counts["E"]:
        fail(f"{counts['B']} B events vs {counts['E']} E events")
    if counts["B"] + counts["i"] == 0:
        fail("trace has no span or instant events")
    if expect_links and link_spans == 0:
        fail("no link spans found (expected network link occupancy)")
    if recovery_events:
        if not job_intervals:
            fail("recovery events present but no complete 'job' span")
        for idx, ts in recovery_events:
            if not any(b <= ts <= e for b, e in job_intervals):
                fail(
                    f"event #{idx}: recovery event at ts {ts} outside every "
                    f"job span interval"
                )
    if expect_recovery and not recovery_events:
        fail("no recovery events found (expected crash-recovery rounds)")
    mem_pairs = 0
    combine_pairs = 0
    for (pid, tid, ts), m in marks.items():
        if "mem.budget" in m and "mem.peak" in m:
            mem_pairs += 1
            if m["mem.peak"] > m["mem.budget"]:
                fail(
                    f"pid {pid}: mem.peak {m['mem.peak']} exceeds mem.budget "
                    f"{m['mem.budget']} (tid {tid}, ts {ts})"
                )
        if "combine.in" in m and "combine.out" in m:
            combine_pairs += 1
            if m["combine.out"] > m["combine.in"]:
                fail(
                    f"pid {pid}: combine.out {m['combine.out']} exceeds "
                    f"combine.in {m['combine.in']} (tid {tid}, ts {ts})"
                )
    if expect_spills:
        if spill_spans == 0:
            fail("no spill spans found (expected budgeted external spills)")
        if merge_spans == 0:
            fail("no merge spans found (expected multi-level run merges)")
        if mem_pairs == 0:
            fail("no mem.budget/mem.peak marks (expected a governed run)")
    if expect_combine:
        if combine_spans == 0:
            fail("no combine spans found (expected hierarchical combining)")
        if combine_pairs == 0:
            fail(
                "no combine.in/combine.out marks (expected a combining run)"
            )
    for idx, begin_ts, end_ts in round_spans:
        if not any(b <= begin_ts and end_ts <= e for b, e in job_intervals):
            fail(
                f"event #{idx}: round span [{begin_ts}, {end_ts}] not "
                f"nested inside any job span"
            )
    if expect_rounds is not None and len(round_spans) != expect_rounds:
        fail(
            f"expected {expect_rounds} round spans, found {len(round_spans)}"
        )
    # A preempted job's span closes at suspension and REOPENS on the same
    # labeled track at resume: extra spans per track count the preemptions.
    spans_per_track = {}
    for t in job_tracks:
        spans_per_track[t] = spans_per_track.get(t, 0) + 1
    preemptions = sum(n - 1 for n in spans_per_track.values())
    if expect_preemptions is not None and preemptions != expect_preemptions:
        fail(
            f"expected {expect_preemptions} preemption reopenings, found "
            f"{preemptions} (job spans per track: "
            f"{sorted(spans_per_track.values())})"
        )
    if expect_jobs is not None:
        if expect_preemptions is None:
            if len(job_intervals) != expect_jobs:
                fail(
                    f"expected {expect_jobs} job spans, found "
                    f"{len(job_intervals)}"
                )
        else:
            if len(spans_per_track) != expect_jobs:
                fail(
                    f"expected {expect_jobs} distinct job tracks, found "
                    f"{len(spans_per_track)}"
                )
            if len(job_intervals) != expect_jobs + expect_preemptions:
                fail(
                    f"expected {expect_jobs + expect_preemptions} job spans "
                    f"({expect_jobs} jobs + {expect_preemptions} "
                    f"preemptions), found {len(job_intervals)}"
                )
        if expect_jobs > 1:
            # Concurrent jobs must each own a distinctly-labeled track
            # ("j<id>.job" from the scheduler's trace scope) so the
            # timeline keeps them apart. A resumed job reuses its own
            # track, so distinctness is across tracks, not spans.
            labels = []
            for track in spans_per_track:
                label = track_labels.get(track)
                if label is None:
                    fail(
                        f"job span on (pid, tid) {track} has no "
                        f"thread_name label"
                    )
                labels.append(label)
            if len(set(labels)) != len(labels):
                fail(
                    f"job-span track labels are not pairwise distinct: "
                    f"{sorted(labels)}"
                )

    print(
        f"validate_trace: OK: {len(events)} events "
        f"({counts['B']} spans, {counts['i']} instants, "
        f"{link_spans} link spans, {len(recovery_events)} recovery events, "
        f"{spill_spans} spill spans, {merge_spans} merge spans, "
        f"{combine_spans} combine spans, {len(round_spans)} round spans, "
        f"{len(job_intervals)} job spans, {len(last_ts)} nodes)"
    )


if __name__ == "__main__":
    main()
