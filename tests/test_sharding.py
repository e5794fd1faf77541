"""The sharded fig6/7 scheduler: serial vs jobs=2 bit-identity + store reuse.

The overhead matrices are pure functions of seeded inputs; sharding them
across processes must reproduce the serial reports exactly (same rows, same
order, same cycle counts), and workers attached to a warm shared store must
rebuild nothing.
"""

from repro.core.variant_cache import VariantCache
from repro.evaluation import (figure6, figure7, measure_overhead,
                              measure_overhead_sharded)
from repro.store import KIND_VARIANT, ArtifactStore
from repro.workloads.suites import spec2006_programs

WORKLOADS = spec2006_programs()[:2]
LABELS = ("fission", "fufi.ori")


def _rows(report):
    return [(r.program, r.suite, r.label, r.baseline_cycles, r.cycles)
            for r in report.rows]


def _captured_shards(monkeypatch, workloads, labels):
    """The shard list ``measure_overhead_sharded`` hands the scheduler."""
    from repro.evaluation import overhead
    captured = []

    def capture(task_fn, tasks, *args, **kwargs):
        captured.extend(tasks)
        return [[] for _ in tasks]

    monkeypatch.setattr(overhead, "run_checkpointed", capture)
    measure_overhead_sharded(workloads, labels)
    return captured


class TestDeterministicPartitioning:
    def test_one_shard_per_workload_in_order(self, monkeypatch):
        shards = _captured_shards(monkeypatch, WORKLOADS, LABELS)
        assert [shard[0].name for shard in shards] == \
               [wp.name for wp in WORKLOADS]
        assert all(shard[1] == LABELS for shard in shards)

    def test_partition_is_reproducible(self, monkeypatch):
        assert (_captured_shards(monkeypatch, WORKLOADS, LABELS)
                == _captured_shards(monkeypatch, WORKLOADS, LABELS))


class TestMeasureWorkload:
    def test_one_vm_run_per_distinct_variant(self, monkeypatch):
        """The baseline runs once and its cycles back every row."""
        from repro.evaluation import overhead
        from repro.vm.machine import run_program
        runs = []

        def counted(program, *args, **kwargs):
            runs.append(program)
            return run_program(program, *args, **kwargs)

        monkeypatch.setattr(overhead, "run_program", counted)
        rows = overhead.measure_workload(WORKLOADS[0], LABELS)
        assert len(rows) == len(LABELS)
        assert len(runs) == len(LABELS) + 1
        assert len({row.baseline_cycles for row in rows}) == 1


class TestShardedBitIdentity:
    def test_measure_overhead_jobs2_equals_serial(self):
        serial = measure_overhead(WORKLOADS, labels=LABELS)
        parallel = measure_overhead(WORKLOADS, labels=LABELS, jobs=2)
        assert serial.rows == parallel.rows
        for label in LABELS:
            assert serial.geomean(label) == parallel.geomean(label)

    def test_measure_overhead_sharded_direct(self):
        serial = measure_overhead(WORKLOADS, labels=LABELS)
        sharded = measure_overhead_sharded(WORKLOADS, LABELS, jobs=2)
        assert _rows(serial) == _rows(sharded)

    def test_figure6_jobs2_equals_serial(self):
        serial = figure6(limit=2)
        parallel = figure6(limit=2, jobs=2)
        assert serial.rows == parallel.rows
        assert serial.labels() == parallel.labels()
        assert serial.programs() == parallel.programs()

    def test_figure7_jobs2_equals_serial(self):
        serial = figure7(limit=1)
        parallel = figure7(limit=1, jobs=2)
        assert serial.rows == parallel.rows

    def test_overhead_respects_repro_jobs_env(self, monkeypatch):
        serial = measure_overhead(WORKLOADS[:1], labels=LABELS)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = measure_overhead(WORKLOADS[:1], labels=LABELS)
        assert serial.rows == parallel.rows

    def test_ambient_repro_jobs_never_overrides_explicit_cache(self,
                                                               monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        cache = VariantCache()
        measure_overhead(WORKLOADS[:1], labels=LABELS, cache=cache)
        assert cache.misses > 0           # the explicit cache was used
        hits_before = cache.hits
        measure_overhead(WORKLOADS[:1], labels=LABELS, cache=cache)
        assert cache.hits > hits_before   # ...and hit on the rerun


class TestSharedStoreReuse:
    def test_workers_attach_to_warm_tree_and_rebuild_nothing(self, tmp_store):
        """After a cold serial populate, a jobs=2 run through the shared
        store must add zero objects to the tree and reproduce the rows."""
        cold = VariantCache(store=ArtifactStore.attach(tmp_store))
        reference = measure_overhead(WORKLOADS, labels=LABELS, cache=cold)
        objects_before = cold.store.entry_count(KIND_VARIANT)
        assert objects_before == len(WORKLOADS) * (len(LABELS) + 1)

        parallel = measure_overhead(WORKLOADS, labels=LABELS, jobs=2)
        assert _rows(parallel) == _rows(reference)
        after = ArtifactStore.attach(tmp_store)
        assert after.entry_count(KIND_VARIANT) == objects_before  # no rebuilds

    def test_cold_parallel_run_populates_the_tree(self, tmp_store):
        serial = measure_overhead(WORKLOADS[:1], labels=LABELS)
        parallel = measure_overhead(WORKLOADS[:1], labels=LABELS, jobs=2)
        assert _rows(parallel) == _rows(serial)
        store = ArtifactStore.attach(tmp_store)
        assert store.entry_count(KIND_VARIANT) == len(LABELS) + 1

    def test_precision_workers_share_the_overhead_tree(self, tmp_store):
        """Cross-experiment reuse through the store: figure-8-style workers
        must fetch the variants the figure-6/7 run persisted."""
        from repro.evaluation import measure_precision
        cold = VariantCache(store=ArtifactStore.attach(tmp_store))
        measure_overhead(WORKLOADS[:1], labels=LABELS, cache=cold)
        objects_before = cold.store.entry_count(KIND_VARIANT)

        serial = measure_precision(WORKLOADS[:1], labels=LABELS)
        parallel = measure_precision(WORKLOADS[:1], labels=LABELS, jobs=2)
        assert [(r.program, r.tool, r.label, r.precision) for r in serial.rows] \
            == [(r.program, r.tool, r.label, r.precision) for r in parallel.rows]
        after = ArtifactStore.attach(tmp_store)
        assert after.entry_count(KIND_VARIANT) == objects_before
