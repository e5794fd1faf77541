"""How fast the host runs Python, moment by moment, from a fixed reference loop.

The benchmark shares a few cores of a host with other tenants, and their load
changes the speed of the same pure-Python code by a quarter or more, from
second to second and from minute to minute.  The slowdown shows in CPU time as
much as in wall time (the cores run slower; the scheduler does not run us
less), and it comes and goes on all cores together.  So ``run.py`` keeps this
module running as a sampler process beside the run: every :data:`INTERVAL_S`
it times a small fixed loop in the CPU time of its own thread and appends
``<monotonic time> <loop seconds>`` to a log.  A repetition's times are then
scaled by :func:`speed` over the samples taken while it ran, so that a time
reads as it would at the reference speed.

The loop is the benchmark's own code, so nothing a change to ``src/`` does can
move it.  It does in miniature what the pipeline does: it formats names, looks
them up and updates them in a small dict, and follows a chain of string keys
through a dict bigger than a core's cache.  The sampler is a process of its
own, so it adds nothing to a repetition's memory, CPU time or interpreter.

Usage: ``python3 -m perfbench.hostspeed <log path>``; it runs until killed or
until the process that started it ends.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from pathlib import Path
from typing import List, Tuple

#: The loop's typical time on the reference host (2-core x86-64 KVM guest,
#: CPython 3.11); scaled times are in seconds at that speed.
REFERENCE_S = 0.0018

#: Pause between two timings of the loop.
INTERVAL_S = 0.03

#: Iterations of the loop per timing.
ITERATIONS = 1500

#: Keys in the chain the loop follows (about 5 MB of dict and strings).
TABLE_SIZE = 1 << 15

#: Fewest samples a speed is the median of; a short window is widened to
#: the samples nearest its middle.
MIN_SAMPLES = 15


def make_table() -> dict:
    """One random cycle through :data:`TABLE_SIZE` string keys."""
    keys = [f"k{index:07d}" for index in range(TABLE_SIZE)]
    order = list(range(TABLE_SIZE))
    random.Random(0).shuffle(order)
    return {keys[a]: keys[b] for a, b in zip(order, order[1:] + order[:1])}


def _step(registers: dict, op: int, name: str, value: int) -> int:
    if op == 0:
        registers[name] = value
    elif op == 1:
        registers[name] = registers.get(name, 0) + value
    elif op == 2:
        registers[name] = registers.get(name, 1) * 3 % 1009
    else:
        registers.pop(name, None)
    return len(registers)


def loop_time(table: dict) -> float:
    """CPU time of this thread for one run of the reference loop."""
    registers: dict = {}
    total = 0
    key = "k0000000"
    started = time.thread_time()
    for index in range(ITERATIONS):
        total += _step(registers, index % 4, f"r{index % 61}", index)
        key = table[key]
    return time.thread_time() - started


def read_log(path: Path) -> List[Tuple[float, float]]:
    """The sampler's ``(monotonic time, loop seconds)`` samples so far."""
    samples = []
    for line in path.read_text().splitlines():
        fields = line.split()
        if len(fields) == 2:  # the last line may be half written
            samples.append((float(fields[0]), float(fields[1])))
    return samples


def speed(samples: List[Tuple[float, float]], start: float,
          end: float) -> float:
    """The host's speed from ``start`` to ``end`` (monotonic seconds), 1 at
    the reference speed: :data:`REFERENCE_S` over the median loop time of
    the samples taken then, or of the :data:`MIN_SAMPLES` nearest the
    window's middle if it holds fewer."""
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"the host-speed sampler took {len(samples)} "
                         f"samples, fewer than {MIN_SAMPLES}")
    inside = [loop for at, loop in samples if start <= at <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        inside = [loop for _at, loop in nearest[:MIN_SAMPLES]]
    return REFERENCE_S / statistics.median(inside)


def main(log_path: str) -> None:
    parent = os.getppid()
    table = make_table()
    with open(log_path, "a") as log:
        while os.getppid() == parent:  # an orphaned sampler stops
            at = time.monotonic()
            log.write(f"{at:.6f} {loop_time(table):.9f}\n")
            log.flush()
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main(sys.argv[1])
