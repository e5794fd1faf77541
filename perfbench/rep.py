"""One benchmark step in a fresh interpreter; ``run.py`` starts these.

Usage: ``python3 -m perfbench.rep '<json spec>'`` from the checkout root.
The spec names a ``phase``:

* ``warmup`` — import everything (compiles bytecode) and exit;
* ``populate`` — build ``overhead_warm``'s variants into the store tree;
* ``measure`` — one repetition: set up, time the driver call, reap the
  pool's workers, then report wall, CPU, RSS, rows and (traced) layers;
* ``check`` — an independent serial, storeless run of the same matrix plus
  the semantic-preservation check, outside any timed region.

The result is written as JSON to the spec's ``out`` path.  Each repetition
gets an interpreter of its own because global feature/VM caches and the
garbage collector's heap carry over between runs in one process.
"""

import gc
import json
import multiprocessing
import os
import resource
import sys
import time
from multiprocessing.connection import wait

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from perfbench import matrix  # noqa: E402

#: Longest a worker of the pool may take to exit after the driver returned.
REAP_TIMEOUT_S = 60.0


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def reap_workers() -> None:
    """Wait for every child process to end.

    The executor shuts its pool down without waiting, so its workers are
    still alive when the driver returns; their CPU time and peak RSS only
    reach ``RUSAGE_CHILDREN`` once they have been waited for.  The
    executor's own thread may reap a worker first, which leaves
    ``Process.is_alive()`` stale, so the exit is read from the sentinel.
    """
    for child in multiprocessing.active_children():
        if not wait([child.sentinel], REAP_TIMEOUT_S):
            raise RuntimeError(f"worker {child.pid} did not exit")
        try:
            os.waitpid(child.pid, 0)
        except ChildProcessError:
            pass  # already reaped by the executor's thread


def tree_bytes(tree: str) -> int:
    """File bytes under ``tree`` (the sum of ``st_size``)."""
    total = 0
    for directory, _dirs, files in os.walk(tree):
        for name in files:
            total += os.stat(os.path.join(directory, name)).st_size
    return total


def measure(spec: dict) -> dict:
    workload = spec["workload"]
    programs = matrix.draw(workload, spec["seed"])
    cache = matrix.open_cache(workload, spec.get("tree"))
    gc.collect()
    tracer = None
    if spec["trace"]:
        from perfbench.layers import Tracer
        tracer = Tracer(spec["records"], jobs=matrix.JOBS[workload])
        tracer.install()
    timed_from = time.monotonic()
    setup_s = timed_from - spec["t0"]

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    report = matrix.run(workload, programs, cache)
    wall_s = time.perf_counter() - started
    reap_workers()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    timed_to = time.monotonic()

    table = matrix.rows(workload, report)
    result = {
        "programs": [program.name for program in programs],
        "setup_s": setup_s, "wall_s": wall_s,
        # when set-up began and the timed call ran, for the host's speed
        "setup_window": [spec["t0"], timed_from],
        "timed_window": [timed_from, timed_to],
        "cpu_s": (_cpu(self_after) - _cpu(self_before)
                  + _cpu(children_after) - _cpu(children_before)),
        "peak_rss_mb": max(self_after.ru_maxrss,
                           children_after.ru_maxrss) / 1024.0,
        "store_mb": (tree_bytes(spec["tree"]) / 1e6
                     if workload in matrix.STORE_WORKLOADS else 0.0),
        "rows": table, "digest": matrix.digest(table),
        "quality": matrix.quality(workload, report),
    }
    if tracer is not None:
        result["layers"] = tracer.collect()
    return result


def main(spec: dict) -> dict:
    phase = spec["phase"]
    if phase == "warmup":
        from perfbench import layers  # noqa: F401
        return {}
    if phase == "populate":
        matrix.populate(matrix.draw(spec["workload"], spec["seed"]),
                        spec["tree"])
        return {"populate_window": [spec["t0"], time.monotonic()]}
    if phase == "measure":
        return measure(spec)
    if phase == "check":
        programs = matrix.draw(spec["workload"], spec["seed"])
        table, broken = matrix.reference(spec["workload"], programs)
        return {"rows": table, "broken": broken}
    raise ValueError(f"unknown phase {phase!r}")


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    outcome = main(request)
    with open(request["out"], "w") as fh:
        json.dump(outcome, fh)
