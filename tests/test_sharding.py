"""The sharded fig6/7 scheduler: serial vs jobs=2 bit-identity + store reuse.

The overhead matrices are pure functions of seeded inputs; sharding them
across processes must reproduce the serial reports exactly (same rows, same
order, same cycle counts), and workers attached to a warm shared store must
rebuild nothing.
"""

import pytest

from repro.core.variant_cache import VariantCache
from repro.evaluation import (figure6, figure7, measure_overhead,
                              measure_overhead_sharded, shard_overhead_matrix)
from repro.evaluation.sharding import ShardBatch
from repro.store import KIND_VARIANT, ArtifactStore
from repro.workloads.suites import spec2006_programs

WORKLOADS = spec2006_programs()[:2]
LABELS = ("fission", "fufi.ori")


def _rows(report):
    return [(r.program, r.suite, r.label, r.baseline_cycles, r.cycles)
            for r in report.rows]


class TestDeterministicPartitioning:
    def test_one_shard_per_workload_in_order(self):
        shards = shard_overhead_matrix(WORKLOADS, LABELS)
        assert [shard[0].name for shard in shards] == \
               [wp.name for wp in WORKLOADS]
        assert all(shard[1] == LABELS for shard in shards)

    def test_partition_is_reproducible(self):
        assert (shard_overhead_matrix(WORKLOADS, LABELS)
                == shard_overhead_matrix(WORKLOADS, LABELS))


class TestShardBatch:
    def test_one_vm_execution_per_distinct_variant(self):
        batch = ShardBatch(WORKLOADS[0], None, VariantCache())
        rows = batch.rows(LABELS)
        assert len(rows) == len(LABELS)
        # one VM execution per distinct variant: baseline + each label
        assert batch.vm.executions == len(LABELS) + 1
        assert batch.vm.memo_hits == 0
        # re-measuring a label through the same batch reuses the execution
        batch.execute(LABELS[0])
        assert batch.vm.executions == len(LABELS) + 1
        assert batch.vm.memo_hits == 1

    def test_vmbatch_never_serves_stale_results_for_recycled_ids(self):
        """The memo must hold its programs strongly: after a caller drops a
        measured program, CPython may hand its id() to the next build — a
        bare-id memo would then return the dead program's result."""
        from repro.vm.batch import VMBatch
        batch = VMBatch()
        cycles = set()
        for _ in range(5):
            program = WORKLOADS[0].build()
            cycles.add(batch.run(program).cycles)
            del program  # the old id would be free for recycling
        assert batch.executions == 5 and batch.memo_hits == 0
        assert len(cycles) == 1  # deterministic builds, fresh runs each time

    def test_run_batch_deduplicates_repeated_programs(self):
        from repro.vm.batch import run_batch
        from repro.vm.machine import run_program
        program = WORKLOADS[0].build()
        results = run_batch([program, program])
        assert results[0] is results[1]
        reference = run_program(WORKLOADS[0].build())
        assert results[0].observable() == reference.observable()
        assert results[0].cycles == reference.cycles

    @pytest.mark.parametrize("kwargs", [
        {},
        {"input_sets": ((), ()), "dispatch": "legacy"},
        {"input_sets": ((), ()), "dispatch": "compiled"},
    ], ids=["default", "two-inputs-legacy", "two-inputs-compiled"])
    def test_rows_match_serial_driver(self, kwargs):
        serial = measure_overhead(WORKLOADS[:1], labels=LABELS)
        batch = ShardBatch(WORKLOADS[0], None, VariantCache(), **kwargs)
        assert batch.rows(LABELS) == serial.rows
        # one interpreter per distinct variant runs the whole input batch
        runs = len(kwargs.get("input_sets", ((),)))
        assert batch.vm.interpreters == len(LABELS) + 1
        assert batch.vm.executions == runs * (len(LABELS) + 1)


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
