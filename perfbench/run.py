"""The repository's benchmark: the paper's two experiment shapes, end to end.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload overhead --seed 1 --seconds 15 --trace 0

Workloads are defined in ``perfbench/matrix.py`` and documented, with the
layer → metric → workload map, in ``perfbench/README.md``.  Every step runs
in a fresh interpreter (``perfbench/rep.py``): repetitions of the timed
driver call are started until ``--seconds`` have passed, then one untimed
check step recomputes the matrix serially without a store and runs every
variant against its un-obfuscated baseline.  A sampler process measures
the host's speed beside all of it, and every reported time is scaled to the
reference speed (``perfbench/hostspeed.py``); the table also prints the
unscaled times.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics, with the tracing overhead between the two.  Lines before
the last one are a readable table; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT))  # run as a script, ``perfbench`` is not on it

from perfbench import hostspeed  # noqa: E402

#: Repetitions run even when ``--seconds`` has passed (per kind when traced).
MIN_REPS = 3

#: Longest one step may take before it and its processes are killed.
STEP_TIMEOUT_S = 120.0

#: What every repetition measures, traced or not; the table prints them.
REP_FIELDS = ("wall_s", "cpu_s", "peak_rss_mb", "store_mb", "setup_s")

#: The fields that are times, reported scaled to the reference host speed
#: (see ``perfbench/hostspeed.py``), with the window each was measured in.
TIMES = {"wall_s": "timed_window", "cpu_s": "timed_window",
         "setup_s": "setup_window"}


class StepFailed(RuntimeError):
    pass


def _stop_group(child: subprocess.Popen) -> None:
    """Kill whatever is left of a step's process group and wait for it.
    The step itself is reaped first: until then it stays in the group as a
    zombie."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    child.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def step(spec: dict, scratch: Path, env: dict) -> dict:
    """Run one ``perfbench.rep`` phase in a fresh interpreter."""
    out = scratch / f"step-{time.monotonic_ns()}.json"
    spec = dict(spec, out=str(out), t0=time.monotonic())
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.rep", json.dumps(spec)],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr,
        start_new_session=True)
    code = None
    try:
        code = child.wait(STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        _stop_group(child)
        child.wait()
    if code != 0 or not out.exists():
        raise StepFailed(f"{spec['phase']} step exited with {code}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def child_env(scratch: Path, tree: Path = None) -> dict:
    """Default ``REPRO_*`` settings, except the store tree the pool uses;
    temporary files stay inside the checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["TMPDIR"] = str(scratch)
    if tree is not None:
        env["REPRO_STORE_DIR"] = str(tree)
    return env


def populate(args, scratch: Path) -> tuple:
    """``overhead_warm``'s tree and the window in which it was populated.
    Repetitions only read the tree, so they share it."""
    tree = scratch / "warm"
    result = step({"phase": "populate", "workload": args.workload,
                   "seed": args.seed, "tree": str(tree)},
                  scratch, child_env(scratch))
    return tree, result["populate_window"]


def start_sampler(log: Path) -> subprocess.Popen:
    """The host-speed sampler (``perfbench/hostspeed.py``).  ``main`` kills
    it and waits for it; it also exits by itself once this process is
    gone.  It starts no process."""
    return subprocess.Popen(
        [sys.executable, "-m", "perfbench.hostspeed", str(log)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


def scale_times(reps: list, samples: list, populate_window) -> None:
    """Scale each repetition's times to the reference host speed, keeping
    the measured ones under ``raw``; ``setup_s`` also gets the time it took
    to populate ``overhead_warm``'s tree."""
    populate_raw = populate_s = 0.0
    if populate_window is not None:
        populate_raw = populate_window[1] - populate_window[0]
        populate_s = populate_raw * hostspeed.speed(samples, *populate_window)
    for rep in reps:
        rep["raw"] = {name: rep[name] for name in TIMES}
        for name, window in TIMES.items():
            rep[name] *= hostspeed.speed(samples, *rep[window])
        rep["raw"]["setup_s"] += populate_raw
        rep["setup_s"] += populate_s


def repetition(args, scratch: Path, index: int, traced: bool,
               warm_tree: Path = None) -> dict:
    """One measured repetition; ``precision_jobs2`` gets a fresh tree."""
    tree = warm_tree or scratch / f"tree-{index}"
    records = scratch / f"records-{index}"
    records.mkdir()
    spec = {"phase": "measure", "workload": args.workload,
            "seed": args.seed, "trace": traced, "tree": str(tree),
            "records": str(records)}
    pool_tree = tree if args.workload == "precision_jobs2" else None
    try:
        result = step(spec, scratch, child_env(scratch, pool_tree))
    finally:
        if warm_tree is None:
            shutil.rmtree(tree, ignore_errors=True)
        shutil.rmtree(records, ignore_errors=True)
    result["traced"] = traced
    return result


def cell_key(row: list) -> tuple:
    """(program, label) of an overhead or a precision row."""
    return (row[0], row[1]) if len(row) == 4 else (row[0], row[2])


def failed_cells(rows: list, reference: list, broken: set) -> int:
    """Cells that differ from the reference run or whose variant changed
    the program's observable behaviour."""
    if len(rows) != len(reference):
        return len(reference)
    return sum(1 for row, ref in zip(rows, reference)
               if row != ref or cell_key(row) in broken)


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[
        workload["name"] for workload in declared["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    # a stopped run still stops the step it is waiting for (see step())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    log = scratch / "hostspeed.log"
    sampler = start_sampler(log)
    try:
        return report(args, scratch, wanted, log)
    finally:
        sampler.kill()
        sampler.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def report(args, scratch: Path, wanted: list, log: Path) -> int:
    step({"phase": "warmup"}, scratch, child_env(scratch))
    warm_tree, populate_window = None, None
    if args.workload == "overhead_warm":
        try:
            warm_tree, populate_window = populate(args, scratch)
        except StepFailed as error:  # no tree to read: the run failed
            print(f"perfbench: populate: {error}", file=sys.stderr)
            emit(False, 1, 1, wanted, {})
            return 0
    reps, errors = [], 0
    deadline = time.monotonic() + args.seconds
    while True:
        done = len(reps) + errors
        traced = bool(args.trace) and done % 2 == 1
        try:
            reps.append(repetition(args, scratch, done, traced, warm_tree))
        except StepFailed as error:
            print(f"perfbench: repetition {done}: {error}", file=sys.stderr)
            errors += 1
        per_kind = (done + 1) // (2 if args.trace else 1)
        if time.monotonic() >= deadline and per_kind >= MIN_REPS:
            break
    try:
        check = step({"phase": "check", "workload": args.workload,
                      "seed": args.seed}, scratch, child_env(scratch))
    except StepFailed as error:
        print(f"perfbench: check: {error}", file=sys.stderr)
        check = {"rows": None, "broken": []}
    reference = check["rows"]
    broken = {tuple(cell) for cell in check["broken"]}

    if reference is None:  # nothing to compare with: every cell failed
        cells = len(reps[0]["rows"]) if reps else 1
        failed = cells * (len(reps) + errors)
    else:
        cells = len(reference)
        failed = errors * cells + sum(
            failed_cells(rep["rows"], reference, broken) for rep in reps)
    digests = {rep["digest"] for rep in reps}
    correct = failed == 0 and len(digests) == 1 and not broken

    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    try:
        scale_times(reps, hostspeed.read_log(log), populate_window)
    except ValueError as error:  # the sampler died: nothing is measured
        print(f"perfbench: {error}", file=sys.stderr)
        emit(False, max(1, cells * (len(reps) + errors)), failed, wanted, {})
        return 0
    values = {name: median([rep[name] for rep in plain])
              for name in REP_FIELDS}
    for rep in reps[:1]:
        values.update(rep["quality"])
    if traced and plain:
        for name in traced[0]["layers"]:
            values[name] = median([rep["layers"][name] for rep in traced])
        traced_wall = median([rep["wall_s"] for rep in traced])
        values["trace.overhead_pct"] = (
            100.0 * (traced_wall - values["wall_s"]) / values["wall_s"])

    print(f"workload {args.workload}  seed {args.seed}  programs "
          f"{', '.join(reps[0]['programs']) if reps else '-'}")
    print(f"repetitions {len(plain)} untraced, {len(traced)} traced, "
          f"{errors} failed; cells {cells} each; check "
          f"{'passed' if correct else 'FAILED'}")
    for name in REP_FIELDS:
        samples = [rep[name] for rep in plain]
        print(f"  {name:<24} median {values[name]:12.4f}  n={len(samples)}"
              f"  samples {' '.join(f'{value:.4f}' for value in samples)}")
        if name in TIMES:
            raw = [rep["raw"][name] for rep in plain]
            print(f"  {'  unscaled':<24} median {median(raw):12.4f}"
                  f"  n={len(raw)}  samples "
                  f"{' '.join(f'{value:.4f}' for value in raw)}")
    speeds = [rep["wall_s"] / rep["raw"]["wall_s"] for rep in plain]
    print(f"  {'host speed':<24} median {median(speeds):12.4f}  n="
          f"{len(speeds)}  samples "
          f"{' '.join(f'{value:.4f}' for value in speeds)}")
    for name in ("khaos_overhead_pct", "khaos_precision_at1"):
        if name in values:
            print(f"  {name:<24} {values[name]:12.4f}")
    if args.trace:
        for metric in wanted:
            name = metric["name"]
            print(f"  {name:<36} {values.get(name, 0.0):16.4f} "
                  f"{metric['unit']}")
    emit(correct, max(1, cells * (len(reps) + errors)), failed, wanted,
         values)
    return 0


def emit(correct: bool, attempted: int, failed: int, wanted: list,
         values: dict) -> None:
    """Print the result line.  A metric no repetition measured (every
    traced one crashed, say) reads 0 and makes the run incorrect."""
    missing = [metric["name"] for metric in wanted
               if metric["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}",
              file=sys.stderr)
    metrics = {metric["name"]: {"value": values.get(metric["name"], 0.0),
                                "unit": metric["unit"]}
               for metric in wanted}
    print(json.dumps({"correct": correct and not missing,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
