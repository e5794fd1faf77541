#!/usr/bin/env python
"""Summarise one telemetry run: phases, per-worker lanes, supervision events.

A telemetry run directory (``<store>/telemetry/<run_id>/``) holds the
per-process ``<pid>.jsonl`` shard files plus the merged exports written at
run exit (``trace.json`` Chrome trace-event JSON, ``metrics.json``).  This
inspector answers the operator questions the raw files don't:

* **Where did the wall time go?**  Per-phase *self time* — each span's
  duration minus its children's, so nested regions are not double-counted —
  grouped by category (``build`` / ``measure`` / ``diff`` / ``store`` /
  ``verify`` / ``schedule`` / ``task`` / ``other``), with the share of
  busy time attributed to named (non-``other``) phases reported as
  *coverage*.
* **What did each worker do?**  One lane per pid: busy time, completed
  tasks, span count.
* **What went wrong (and was survived)?**  Counts of supervision and chaos
  events: retries, timeouts, pool respawns, quarantines, injected faults.

Input resolution: a run directory, a ``trace.json`` file, or a store root
(picks the most recently modified run under ``<root>/telemetry/``).  Shard
``.jsonl`` files are preferred over ``trace.json`` when present — they
carry parent ids, which makes self-time exact instead of inferred from
interval containment.

Usage:
    PYTHONPATH=src python scripts/trace_report.py /path/to/store
    PYTHONPATH=src python scripts/trace_report.py /path/to/telemetry/<run>
    PYTHONPATH=src python scripts/trace_report.py --json <run dir>
    PYTHONPATH=src python scripts/trace_report.py --validate <run dir>

Exit status: 0 on a readable (and, with ``--validate``, schema-clean) run,
1 on validation problems, 2 when no telemetry can be found at the path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.obs.collect import merge_records, read_shards  # noqa: E402
from repro.obs.export import validate_chrome_trace  # noqa: E402

#: The phase categories the pipeline emits, in report order.
PHASES = ("build", "measure", "diff", "store", "verify", "schedule",
          "task", "other")


# -- input resolution -----------------------------------------------------------------


def resolve_run(path: str) -> Tuple[Optional[str], Optional[str]]:
    """(run directory, trace.json path) for ``path``; either may be None."""
    if os.path.isfile(path):
        return (None, path) if path.endswith(".json") else (None, None)
    if not os.path.isdir(path):
        return None, None
    if any(name.endswith(".jsonl") for name in os.listdir(path)) \
            or os.path.exists(os.path.join(path, "trace.json")):
        trace = os.path.join(path, "trace.json")
        return path, trace if os.path.exists(trace) else None
    telemetry = os.path.join(path, "telemetry")
    if os.path.isdir(telemetry):
        runs = [os.path.join(telemetry, name)
                for name in os.listdir(telemetry)
                if os.path.isdir(os.path.join(telemetry, name))]
        if runs:
            latest = max(runs, key=os.path.getmtime)
            return resolve_run(latest)
    return None, None


def load_records(run_dir: Optional[str], trace_path: Optional[str]
                 ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Merged (span/event records, metrics snapshots) from whatever exists."""
    if run_dir is not None:
        records, snapshots = read_shards(run_dir)
        if records or snapshots:
            return merge_records(records), snapshots
    if trace_path is not None:
        try:
            with open(trace_path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return [], []
        records = []
        for ev in payload.get("traceEvents", []):
            if not isinstance(ev, dict) or ev.get("ph") not in ("X", "i"):
                continue
            records.append({
                "type": "span" if ev["ph"] == "X" else "event",
                "name": ev.get("name", "?"), "cat": ev.get("cat", "other"),
                "ts": ev.get("ts", 0), "dur": ev.get("dur", 0),
                "pid": ev.get("pid", 0), "tid": ev.get("tid", 0),
                "args": ev.get("args", {}),
            })
        return merge_records(records), []
    return [], []


# -- analysis -------------------------------------------------------------------------


def self_times(spans: List[Dict[str, Any]]) -> List[int]:
    """Per-span self time (dur minus direct children), via a stack sweep.

    Works from intervals alone — each (pid, tid) group is sorted by
    ``(ts, -dur)`` so enclosing spans precede their children; a span still
    on the stack when a later one starts inside it is its parent.  Exact
    when parent ids are present (jsonl shards) and the best available
    reconstruction when they are not (re-imported trace.json).
    """
    self_us = [int(span.get("dur", 0)) for span in spans]
    groups: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        groups[(span.get("pid", 0), span.get("tid", 0))].append(i)
    for indices in groups.values():
        indices.sort(key=lambda i: (spans[i].get("ts", 0),
                                    -int(spans[i].get("dur", 0))))
        stack: List[int] = []  # indices of open spans, outermost first
        for i in indices:
            ts = spans[i].get("ts", 0)
            while stack and (spans[stack[-1]].get("ts", 0)
                             + int(spans[stack[-1]].get("dur", 0))) <= ts:
                stack.pop()
            if stack:
                self_us[stack[-1]] -= int(spans[i].get("dur", 0))
            stack.append(i)
    return [max(0, value) for value in self_us]


def analyze(records: List[Dict[str, Any]],
            snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The report dict (also the ``--json`` payload)."""
    spans = [r for r in records if r.get("type") != "event"
             and r.get("type") != "metrics"]
    events = [r for r in records if r.get("type") == "event"]
    if not spans and not events:
        return {"empty": True}

    stamps = [r.get("ts", 0) for r in spans + events]
    ends = [r.get("ts", 0) + int(r.get("dur", 0)) for r in spans] or stamps
    wall_us = max(max(ends), max(stamps)) - min(stamps) if stamps else 0

    selves = self_times(spans)
    phase_us: Dict[str, int] = {phase: 0 for phase in PHASES}
    span_counts: Dict[str, int] = defaultdict(int)
    workers: Dict[int, Dict[str, int]] = defaultdict(
        lambda: {"busy_us": 0, "tasks": 0, "spans": 0})
    for span, self_us in zip(spans, selves):
        cat = span.get("cat") or "other"
        phase_us[cat if cat in phase_us else "other"] += self_us
        span_counts[span.get("name", "?")] += 1
        lane = workers[span.get("pid", 0)]
        lane["busy_us"] += self_us
        lane["spans"] += 1
        if span.get("name") == "task":
            lane["tasks"] += 1

    busy_us = sum(phase_us.values())
    named_us = busy_us - phase_us["other"]
    event_counts: Dict[str, int] = defaultdict(int)
    for ev in events:
        event_counts[ev.get("name", "?")] += 1

    merged_counters: Dict[str, Any] = {}
    if snapshots:
        last: Dict[int, Dict[str, Any]] = {}
        for snap in snapshots:
            last[int(snap.get("pid", 0))] = snap
        for snap in last.values():
            for name, value in (snap.get("counters") or {}).items():
                merged_counters[name] = merged_counters.get(name, 0) + value

    return {
        "empty": False,
        "wall_seconds": wall_us / 1e6,
        "busy_seconds": busy_us / 1e6,
        "processes": sorted({r.get("pid", 0) for r in spans + events}),
        "spans": len(spans),
        "events": len(events),
        "phases": {phase: phase_us[phase] / 1e6 for phase in PHASES},
        "coverage": (named_us / busy_us) if busy_us else 1.0,
        "workers": {str(pid): {"busy_seconds": lane["busy_us"] / 1e6,
                               "tasks": lane["tasks"],
                               "spans": lane["spans"]}
                    for pid, lane in sorted(workers.items())},
        "event_counts": dict(sorted(event_counts.items())),
        "span_counts": dict(sorted(span_counts.items())),
        "counters": dict(sorted(merged_counters.items())),
    }


# -- rendering ------------------------------------------------------------------------


def render(report: Dict[str, Any], source: str) -> str:
    lines = [f"Telemetry run: {source}"]
    if report.get("empty"):
        lines.append("  (no spans or events recorded)")
        return "\n".join(lines)
    lines.append(
        "  wall %.3fs  busy %.3fs  processes %d  spans %d  events %d"
        % (report["wall_seconds"], report["busy_seconds"],
           len(report["processes"]), report["spans"], report["events"]))
    lines.append("")
    lines.append("Phase summary (self time):")
    busy = report["busy_seconds"] or 1.0
    for phase in PHASES:
        seconds = report["phases"].get(phase, 0.0)
        if seconds <= 0:
            continue
        lines.append("  %-11s %9.3fs  %5.1f%%"
                     % (phase, seconds, 100.0 * seconds / busy))
    lines.append("  coverage: %.1f%% of busy time in named phases"
                 % (100.0 * report["coverage"]))
    lines.append("")
    lines.append("Per-worker lanes:")
    for pid, lane in report["workers"].items():
        lines.append("  pid %-8s busy %9.3fs  tasks %4d  spans %5d"
                     % (pid, lane["busy_seconds"], lane["tasks"],
                        lane["spans"]))
    if report["event_counts"]:
        lines.append("")
        lines.append("Events:")
        for name, count in report["event_counts"].items():
            lines.append("  %-28s %6d" % (name, count))
    interesting = {name: value for name, value in report["counters"].items()
                   if name.startswith(("executor.", "faults.", "checkpoint."))
                   or name.startswith("store.corrupt")
                   or name == "store.quarantined"}
    if interesting:
        lines.append("")
        lines.append("Counters (merged):")
        for name, value in interesting.items():
            lines.append("  %-28s %6s" % (name, value))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarise a repro telemetry run")
    parser.add_argument("path", help="run directory, trace.json, or "
                                     "store root (latest run)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON on stdout")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check trace.json (exit 1 on problems)")
    args = parser.parse_args(argv)

    run_dir, trace_path = resolve_run(args.path)
    if run_dir is None and trace_path is None:
        print(f"trace_report: no telemetry found at {args.path}",
              file=sys.stderr)
        return 2

    if args.validate:
        if trace_path is None:
            print("trace_report: --validate needs a trace.json "
                  f"(none under {args.path})", file=sys.stderr)
            return 2
        try:
            with open(trace_path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as error:
            print(f"trace_report: cannot read {trace_path}: {error}",
                  file=sys.stderr)
            return 1
        problems = validate_chrome_trace(payload)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        print("%s: %s" % (trace_path,
                          "OK" if not problems
                          else "%d problem(s)" % len(problems)))
        if problems:
            return 1

    records, snapshots = load_records(run_dir, trace_path)
    report = analyze(records, snapshots)
    source = run_dir or trace_path or args.path
    if args.as_json:
        json.dump({"source": source, **report}, sys.stdout, indent=2,
                  sort_keys=True)
        print()
    else:
        print(render(report, source))
    return 0


if __name__ == "__main__":
    sys.exit(main())
