"""Multi-worker matrix coordination: partitioning, bit-identity, interop.

The contracts this file pins down:

* :func:`partition_round_robin` is a deterministic, complete, disjoint
  deal of the shard index space (and degrades gracefully when there are
  more workers than shards);
* a coordinated figure-8/figure-9 run is **bit-identical** to the serial
  reference drivers over the same matrix;
* coordinated runs journal through the same run identity as the serial
  sharded drivers, so serial and coordinated runs resume each other's
  work — and a warm rerun (at any worker count) re-scores zero units;
* the same holds over a loopback ``REPRO_STORE_URL`` remote store — the
  ISSUE's multi-machine acceptance, on one machine.
"""

import os
import sys

import pytest

from repro.evaluation.bintuner_compare import measure_bintuner
from repro.evaluation.checkpoint import ShardRunStats
from repro.evaluation.coordinate import (CoordinatorStats, DEFAULT_WORKERS,
                                         coordinate_tasks,
                                         measure_bintuner_coordinated,
                                         measure_precision_coordinated,
                                         partition_round_robin,
                                         resolve_workers)
from repro.evaluation.diff_sharding import measure_precision_sharded
from repro.evaluation.executor import reset_worker_cache
from repro.evaluation.precision import measure_precision
from repro.workloads.suites import spec2006_programs

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)

from store_server import StoreServer  # noqa: E402

WORKLOADS = spec2006_programs()[:1]
LABELS = ("fission",)


class TestPartitioning:
    def test_round_robin_deals_interleaved(self):
        assert partition_round_robin(7, 3) == [[0, 3, 6], [1, 4], [2, 5]]

    def test_partitions_are_complete_and_disjoint(self):
        for count in (0, 1, 5, 12, 13):
            for workers in (1, 2, 3, 7):
                parts = partition_round_robin(count, workers)
                dealt = [i for part in parts for i in part]
                assert sorted(dealt) == list(range(count))
                assert len(dealt) == len(set(dealt))

    def test_empty_partitions_dropped(self):
        assert partition_round_robin(2, 5) == [[0], [1]]
        assert partition_round_robin(0, 3) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_round_robin(-1, 2)
        with pytest.raises(ValueError):
            partition_round_robin(4, 0)

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_COORD_WORKERS", raising=False)
        assert resolve_workers() == DEFAULT_WORKERS
        monkeypatch.setenv("REPRO_COORD_WORKERS", "5")
        assert resolve_workers() == 5
        assert resolve_workers(3) == 3  # explicit beats the environment

    def test_mismatched_keys_rejected(self, tmp_store):
        with pytest.raises(ValueError):
            coordinate_tasks(len, ["ab", "cd"], ["only-one-key"],
                             ("run", "x"))


class TestCoordinatedLocal:
    """Coordinated == serial over a shared local store tree."""

    def test_fig8_matches_serial_and_warm_rerun_is_free(self, tmp_store):
        serial = measure_precision(WORKLOADS, labels=LABELS)

        cold_stats = CoordinatorStats()
        cold = measure_precision_coordinated(WORKLOADS, labels=LABELS,
                                             workers=2,
                                             coord_stats=cold_stats)
        assert cold.rows == serial.rows
        assert cold_stats.executed == cold_stats.planned > 0
        assert cold_stats.workers == 2
        assert sum(cold_stats.partitions) == cold_stats.planned

        # warm rerun at a *different* width: the journal is keyed by the
        # matrix, not the worker count, so nothing re-executes
        reset_worker_cache()
        warm_stats = CoordinatorStats()
        warm = measure_precision_coordinated(WORKLOADS, labels=LABELS,
                                             workers=3,
                                             coord_stats=warm_stats)
        assert warm.rows == serial.rows
        assert warm_stats.executed == 0
        assert warm_stats.resumed == warm_stats.planned

    def test_serial_sharded_and_coordinated_share_a_journal(self, tmp_store):
        run_stats = ShardRunStats()
        sharded = measure_precision_sharded(WORKLOADS, labels=LABELS,
                                            jobs=1, run_stats=run_stats)
        assert run_stats.executed == run_stats.planned > 0

        # the coordinated run resumes the serial sharded run's journal
        reset_worker_cache()
        coord_stats = CoordinatorStats()
        coordinated = measure_precision_coordinated(
            WORKLOADS, labels=LABELS, workers=2, coord_stats=coord_stats)
        assert coordinated.rows == sharded.rows
        assert coord_stats.executed == 0
        assert coord_stats.resumed == coord_stats.planned

    def test_fig9_matches_serial(self, tmp_store):
        serial = measure_bintuner(WORKLOADS, tuner_iterations=2)

        coord_stats = CoordinatorStats()
        coordinated = measure_bintuner_coordinated(
            WORKLOADS, tuner_iterations=2, workers=2,
            coord_stats=coord_stats)
        assert coordinated.rows == serial.rows
        assert (coordinated.bintuner_overhead_percent
                == serial.bintuner_overhead_percent)
        assert coord_stats.executed == coord_stats.planned > 0

        reset_worker_cache()
        warm_stats = CoordinatorStats()
        warm = measure_bintuner_coordinated(
            WORKLOADS, tuner_iterations=2, workers=2,
            coord_stats=warm_stats)
        assert warm.rows == serial.rows
        assert warm_stats.executed == 0


class TestCoordinatedRemote:
    """The acceptance scenario: fig8 through the coordinator against a
    loopback remote store, bit-identical to the serial local driver."""

    def test_fig8_remote_coordinated_matches_serial(self, tmp_path,
                                                    monkeypatch):
        serial = measure_precision(WORKLOADS, labels=LABELS)

        root = str(tmp_path / "served")
        with StoreServer(root) as server:
            monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
            monkeypatch.delenv("REPRO_STORE_CACHE_DIR", raising=False)
            monkeypatch.delenv("REPRO_FAULTS", raising=False)
            monkeypatch.setenv("REPRO_STORE_URL", server.url)
            monkeypatch.setenv("REPRO_REMOTE_BACKOFF", "0.001")
            reset_worker_cache()
            try:
                cold_stats = CoordinatorStats()
                cold = measure_precision_coordinated(
                    WORKLOADS, labels=LABELS, workers=2,
                    coord_stats=cold_stats)
                assert cold.rows == serial.rows
                assert cold_stats.executed == cold_stats.planned > 0

                reset_worker_cache()
                warm_stats = CoordinatorStats()
                warm = measure_precision_coordinated(
                    WORKLOADS, labels=LABELS, workers=2,
                    coord_stats=warm_stats)
                assert warm.rows == serial.rows
                assert warm_stats.executed == 0
                assert warm_stats.resumed == warm_stats.planned
            finally:
                reset_worker_cache()
