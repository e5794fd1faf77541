"""Checkpoint/resume: run manifests, journaled shards, strict resume.

The acceptance criterion this file pins down: a matrix run killed partway
and restarted against the same store tree re-executes *only* the unfinished
shard units — journaled units revive from the store with zero re-executes.
Also covered: the manifest's torn-line tolerance, the advisory-manifest /
store-is-truth rule, and the pass-through contract when no store tree (or
``REPRO_CHECKPOINT=off``) is in play.
"""

import os

import pytest

from repro.evaluation.checkpoint import (RUNS_DIR, RunManifest,
                                         ShardRunStats, checkpoint_enabled,
                                         run_checkpointed, run_id)
from repro.evaluation.diff_sharding import (DiffShardStats,
                                            measure_precision_sharded)
from repro.evaluation.executor import reset_worker_cache
from repro.evaluation.precision import measure_precision
from repro.evaluation.overhead import measure_overhead_sharded
from repro.store import KIND_SHARD, ArtifactStore, store_digest
from repro.workloads.suites import spec2006_programs

WORKLOADS = spec2006_programs()[:1]
LABELS = ("fission",)


class TestCheckpointEnabled:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
        assert checkpoint_enabled()

    @pytest.mark.parametrize("value, expected", [
        ("on", True), ("1", True), ("true", True), ("", True),
        ("off", False), ("0", False), ("false", False), ("OFF", False),
    ])
    def test_explicit_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_CHECKPOINT", value)
        assert checkpoint_enabled() is expected

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT", "maybe")
        with pytest.raises(ValueError, match="REPRO_CHECKPOINT"):
            checkpoint_enabled()


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest(str(tmp_path), "abc123")
        assert manifest.done == set()
        manifest.mark_done("d1")
        manifest.mark_done("d2")
        reloaded = RunManifest(str(tmp_path), "abc123")
        assert reloaded.done == {"d1", "d2"}
        assert reloaded.path.endswith(os.path.join(RUNS_DIR, "abc123.jsonl"))

    def test_torn_trailing_line_under_reports_only(self, tmp_path):
        manifest = RunManifest(str(tmp_path), "torn")
        manifest.mark_done("ok1")
        manifest.mark_done("ok2")
        # simulate a writer killed mid-append: a truncated JSON line
        with open(manifest.path, "a", encoding="utf-8") as fh:
            fh.write('{"digest": "half')
        reloaded = RunManifest(str(tmp_path), "torn")
        assert reloaded.done == {"ok1", "ok2"}

    def test_distinct_identities_distinct_journals(self, tmp_path):
        RunManifest(str(tmp_path), "one").mark_done("d")
        assert RunManifest(str(tmp_path), "two").done == set()

    def test_run_id_is_stable_and_sensitive(self):
        parts = ("fig8", ("k1", "k2"))
        assert run_id(parts) == run_id(("fig8", ("k1", "k2")))
        assert run_id(parts) != run_id(("fig8", ("k1",)))
        assert len(run_id(parts)) == 16


def _square(value):
    return value * value


class _FailAt:
    """Picklable task_fn that raises on one designated input value."""

    def __init__(self, poison):
        self.poison = poison

    def __call__(self, value):
        if value == self.poison:
            raise RuntimeError(f"poisoned input {value}")
        return value * value


def _keys(values):
    return [("ckpt-test", value) for value in values]


class TestRunCheckpointed:
    def test_no_store_is_plain_pass_through(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        stats = ShardRunStats()
        values = [1, 2, 3]
        out = run_checkpointed(_square, values, _keys(values),
                               ("t", 1), jobs=1, stats=stats)
        assert out == [1, 4, 9]
        assert stats.planned == 0  # layer never engaged

    def test_checkpoint_off_is_pass_through(self, tmp_store, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT", "off")
        values = [1, 2, 3]
        out = run_checkpointed(_square, values, _keys(values), ("t", 2),
                               jobs=1)
        assert out == [1, 4, 9]
        assert not os.path.isdir(os.path.join(tmp_store, RUNS_DIR))

    def test_mismatched_keys_raise(self, tmp_store):
        with pytest.raises(ValueError, match="2 tasks but 1 keys"):
            run_checkpointed(_square, [1, 2], [("k", 1)], ("t", 3))

    def test_interrupted_run_resumes_only_unfinished(self, tmp_store):
        """The acceptance criterion in miniature: kill mid-run, restart,
        and only the units the journal never saw execute again."""
        values = [1, 2, 3, 4, 5]
        keys = _keys(values)
        parts = ("t", 4)
        # first run dies on input 4: inputs 1..3 are already journaled
        # (the serial path journals each result the moment it lands, and
        # re-raises task exceptions raw)
        with pytest.raises(RuntimeError, match="poisoned input 4"):
            run_checkpointed(_FailAt(4), values, keys, parts, jobs=1)
        manifest = RunManifest(tmp_store, run_id(parts))
        assert len(manifest.done) == 3

        executed = []

        def counting(value):
            executed.append(value)
            return value * value

        stats = ShardRunStats()
        out = run_checkpointed(counting, values, keys, parts, jobs=1,
                               stats=stats)
        assert out == [1, 4, 9, 16, 25]
        assert executed == [4, 5]  # journaled units never re-execute
        assert stats.planned == 5 and stats.resumed == 3
        assert stats.executed == 2 and stats.journaled == 2

    def test_completed_run_restart_executes_nothing(self, tmp_store):
        values = [1, 2, 3]
        keys = _keys(values)
        run_checkpointed(_square, values, keys, ("t", 5), jobs=1)
        stats = ShardRunStats()
        out = run_checkpointed(_FailAt(1), values, keys, ("t", 5), jobs=1,
                               stats=stats)  # poison proves nothing runs
        assert out == [1, 4, 9]
        assert stats.resumed == 3 and stats.executed == 0

    def test_journaled_but_lost_object_re_executes(self, tmp_store):
        """The manifest is advisory; the store is the truth."""
        values = [1, 2, 3]
        keys = _keys(values)
        parts = ("t", 6)
        run_checkpointed(_square, values, keys, parts, jobs=1)
        store = ArtifactStore.attach(tmp_store)
        victim = store.object_path(KIND_SHARD,
                                   store_digest(KIND_SHARD, keys[1]))
        os.unlink(victim)
        reset_worker_cache()
        stats = ShardRunStats()
        out = run_checkpointed(_square, values, keys, parts, jobs=1,
                               stats=stats)
        assert out == [1, 4, 9]
        assert stats.resumed == 2 and stats.executed == 1

    def test_normalize_applies_to_revived_results_only(self, tmp_store):
        values = [1, 2]
        keys = _keys(values)
        parts = ("t", 7)
        run_checkpointed(_square, values, keys, parts, jobs=1)
        out = run_checkpointed(_square, values, keys, parts, jobs=1,
                               normalize=lambda r: -r)
        assert out == [-1, -4]

    def test_run_parts_partition_journals(self, tmp_store):
        """Two different matrices over one tree keep separate journals:
        a fresh run identity resumes nothing, even when the store already
        holds every shard object from another run."""
        values = [2, 3]
        keys = _keys(values)
        run_checkpointed(_square, values, keys, ("matrix", "A"), jobs=1)
        stats = ShardRunStats()
        run_checkpointed(_square, values, keys, ("matrix", "C"), jobs=1,
                         stats=stats)
        assert stats.resumed == 0 and stats.executed == 2


class TestMatrixResume:
    """End-to-end resume through the real fig6/7 and fig8 drivers."""

    def _rows(self, report):
        return [(r.program, r.suite, r.tool, r.label, r.precision,
                 r.similarity_score) for r in report.rows]

    def test_fig8_completed_restart_revives_every_shard(self, tmp_store):
        from repro.diffing import all_differs
        differs = all_differs()[:1]
        reference = self._rows(measure_precision(WORKLOADS, labels=LABELS,
                                                 differs=differs))
        first = ShardRunStats()
        reset_worker_cache()
        rows = self._rows(measure_precision_sharded(
            WORKLOADS, labels=LABELS, differs=differs, jobs=1,
            run_stats=first))
        assert rows == reference
        assert first.executed == first.planned > 0

        reset_worker_cache()
        second = ShardRunStats()
        second_stats = DiffShardStats()
        resumed = self._rows(measure_precision_sharded(
            WORKLOADS, labels=LABELS, differs=differs, jobs=1,
            stats=second_stats, run_stats=second))
        assert resumed == reference
        assert second.executed == 0
        assert second.resumed == second.planned == first.planned
        assert second_stats.units_scored == 0

    def test_fig67_completed_restart_revives_every_shard(self, tmp_store):
        first = ShardRunStats()
        reset_worker_cache()
        baseline = measure_overhead_sharded(WORKLOADS, labels=LABELS,
                                            jobs=1, run_stats=first)
        assert first.executed == first.planned > 0
        reset_worker_cache()
        second = ShardRunStats()
        resumed = measure_overhead_sharded(WORKLOADS, labels=LABELS,
                                           jobs=1, run_stats=second)
        assert self._overhead_rows(resumed) == self._overhead_rows(baseline)
        assert second.executed == 0 and second.resumed == first.planned

    def _overhead_rows(self, report):
        return [(r.program, r.suite, r.label, r.baseline_cycles, r.cycles)
                for r in report.rows]


class TestCrossWidthResume:
    """The run identity does not include ``jobs``: a completed run at one
    width is fully resumed by a rerun at the other, with identical rows."""

    @staticmethod
    def _rerun(driver, cold_jobs, warm_jobs):
        cold, warm = ShardRunStats(), ShardRunStats()
        reset_worker_cache()
        first = driver(cold_jobs, cold)
        assert cold.executed == cold.planned > 0
        reset_worker_cache()
        second = driver(warm_jobs, warm)
        assert warm.executed == 0
        assert warm.resumed == warm.planned == cold.planned
        return first, second

    @pytest.mark.parametrize("cold_jobs, warm_jobs", [(1, 2), (2, 1)])
    def test_fig8(self, tmp_store, cold_jobs, warm_jobs):
        from repro.diffing import all_differs
        differs = all_differs()[:1]

        def driver(jobs, stats):
            return measure_precision_sharded(
                WORKLOADS, labels=LABELS, differs=differs, jobs=jobs,
                run_stats=stats)

        first, second = self._rerun(driver, cold_jobs, warm_jobs)
        assert first.rows == second.rows
        assert first.rows == measure_precision(WORKLOADS, labels=LABELS,
                                               differs=differs).rows

    @pytest.mark.parametrize("cold_jobs, warm_jobs", [(1, 2), (2, 1)])
    def test_fig67(self, tmp_store, cold_jobs, warm_jobs):
        from repro.evaluation.overhead import measure_overhead
        workloads = spec2006_programs()[:2]  # two shards: a real pool

        def driver(jobs, stats):
            return measure_overhead_sharded(workloads, labels=LABELS,
                                            jobs=jobs, run_stats=stats)

        first, second = self._rerun(driver, cold_jobs, warm_jobs)
        assert first.rows == second.rows
        assert first.rows == measure_overhead(workloads, labels=LABELS).rows

    @pytest.mark.parametrize("cold_jobs, warm_jobs", [(1, 2), (2, 1)])
    def test_fig9(self, tmp_store, cold_jobs, warm_jobs):
        from repro.evaluation.diff_sharding import measure_bintuner_sharded

        def driver(jobs, stats):
            return measure_bintuner_sharded(WORKLOADS, tuner_iterations=1,
                                            jobs=jobs, run_stats=stats)

        first, second = self._rerun(driver, cold_jobs, warm_jobs)
        assert first.rows == second.rows
        assert (first.bintuner_overhead_percent
                == second.bintuner_overhead_percent)

    def test_serial_fig9_journals(self, tmp_store):
        """``measure_bintuner`` at ``jobs=1`` goes through the checkpointed
        scheduler too: a ``jobs=2`` rerun executes nothing."""
        from repro.evaluation.bintuner_compare import measure_bintuner
        from repro.evaluation.diff_sharding import measure_bintuner_sharded
        serial = measure_bintuner(WORKLOADS, tuner_iterations=1, jobs=1)
        reset_worker_cache()
        stats = ShardRunStats()
        rerun = measure_bintuner_sharded(WORKLOADS, tuner_iterations=1,
                                         jobs=2, run_stats=stats)
        assert stats.executed == 0 and stats.resumed == stats.planned > 0
        assert rerun.rows == serial.rows
