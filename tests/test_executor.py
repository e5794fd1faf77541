"""The parallel experiment executor: serial vs jobs=2 bit-identity.

The (program × label × tool) matrices of figures 8, 9 and 10 are pure
functions of seeded inputs; fanning them across processes must reproduce the
serial reports exactly (same rows, same order, same floats).  Also covers
``resolve_jobs`` / ``REPRO_JOBS`` resolution, the supervised scheduler's
failure modes (crashed workers, exhausted retries, timeouts),
the worker-cache degradation counters and the reworked ``escape_ratio``
signature.
"""

import logging
import os
import time

import pytest

from repro.diffing import Asm2Vec, BinDiff, escape_ratio
from repro.evaluation import (figure9, measure_escape, measure_precision,
                              resolve_jobs, run_tasks)
from repro.evaluation.executor import (ExecutorTaskError, reset_worker_cache,
                                       resolve_task_retries,
                                       resolve_task_timeout, worker_cache,
                                       worker_cache_events)
from repro.workloads.suites import embedded_programs, spec2006_programs

WORKLOADS = spec2006_programs()[:2]
LABELS = ("fission", "fufi.ori")


class TestResolveJobs:
    def test_explicit_jobs_win(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_garbage_env_var_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_zero_and_negative_raise(self):
        for bad in (0, -1, -8):
            with pytest.raises(ValueError, match="positive integer"):
                resolve_jobs(bad)

    def test_zero_and_negative_env_raise(self, monkeypatch):
        for bad in ("0", "-2"):
            monkeypatch.setenv("REPRO_JOBS", bad)
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                resolve_jobs()

    def test_non_integer_raises(self):
        for bad in (2.5, "4", True):
            with pytest.raises(ValueError, match="positive integer"):
                resolve_jobs(bad)

    def test_drivers_reject_bad_jobs_at_entry(self):
        """The ValueError must surface before any pool/build work starts."""
        with pytest.raises(ValueError, match="positive integer"):
            measure_precision(WORKLOADS[:1], labels=("fission",), jobs=0)
        from repro.evaluation import measure_overhead
        with pytest.raises(ValueError, match="positive integer"):
            measure_overhead(WORKLOADS[:1], labels=("fission",), jobs=-3)

    def test_empty_env_var_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert resolve_jobs() == 1


class TestRunTasks:
    def test_serial_preserves_order(self):
        assert run_tasks(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        values = list(range(20))
        assert run_tasks(_square, values, jobs=2) == [v * v for v in values]

    def test_single_task_stays_in_process(self):
        marker = []
        assert run_tasks(lambda t: marker.append(t) or t, [42], jobs=8) == [42]
        assert marker == [42]  # closure ran here, not in a worker

    def test_worker_cache_is_process_local_singleton(self):
        reset_worker_cache()
        assert worker_cache() is worker_cache()


def _square(value):
    return value * value


def _crash_once_then_square(value):
    """Hard-exits the worker the first time it sees value 3 (marker-gated)."""
    marker = os.environ["REPRO_TEST_CRASH_MARKER"]
    if value == 3 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return value * value


def _raise_on_two(value):
    if value == 2:
        raise ValueError(f"synthetic failure for {value}")
    return value


def _hang_once_then_negate(value):
    """Sleeps far past the test timeout the first time it sees value 1."""
    marker = os.environ["REPRO_TEST_HANG_MARKER"]
    if value == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(60)
    return -value


class TestSupervisorKnobs:
    def test_timeout_default_is_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert resolve_task_timeout() is None

    def test_timeout_env_and_zero_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert resolve_task_timeout() == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert resolve_task_timeout() is None

    def test_timeout_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT"):
            resolve_task_timeout()
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "-1")
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT"):
            resolve_task_timeout()
        with pytest.raises(ValueError, match="timeout"):
            resolve_task_timeout(0)

    def test_retries_default_env_and_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        assert resolve_task_retries() == 2
        assert resolve_task_retries(0) == 0
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        assert resolve_task_retries() == 5
        monkeypatch.setenv("REPRO_TASK_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_TASK_RETRIES"):
            resolve_task_retries()
        with pytest.raises(ValueError, match="retries"):
            resolve_task_retries(2.5)

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_max_pool_failures_rejects_garbage(self, monkeypatch, raw):
        """A bad value raises at entry instead of falling back to 3."""
        monkeypatch.setenv("REPRO_MAX_POOL_FAILURES", raw)
        with pytest.raises(ValueError, match="REPRO_MAX_POOL_FAILURES"):
            run_tasks(_square, [1, 2], jobs=1)
        monkeypatch.setenv("REPRO_MAX_POOL_FAILURES", "7")
        assert run_tasks(_square, [1, 2], jobs=1) == [1, 4]

    @pytest.mark.parametrize("raw", ["abc", "-0.5", "nan", "inf"])
    def test_backoff_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TASK_BACKOFF", raw)
        with pytest.raises(ValueError, match="REPRO_TASK_BACKOFF"):
            run_tasks(_square, [1, 2], jobs=1)
        monkeypatch.setenv("REPRO_TASK_BACKOFF", "0")
        assert run_tasks(_square, [1, 2], jobs=1) == [1, 4]

    def test_worker_cache_entries_rejects_non_integer(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.delenv("REPRO_STORE_URL", raising=False)
        monkeypatch.setenv("REPRO_WORKER_CACHE_ENTRIES", "lots")
        reset_worker_cache()
        try:
            with pytest.raises(ValueError,
                               match="REPRO_WORKER_CACHE_ENTRIES"):
                worker_cache()
            # the documented "<= 0 means unbounded" still holds
            monkeypatch.setenv("REPRO_WORKER_CACHE_ENTRIES", "0")
            assert worker_cache().max_entries is None
            reset_worker_cache()
            monkeypatch.setenv("REPRO_WORKER_CACHE_ENTRIES", "5")
            assert worker_cache().max_entries == 5
        finally:
            reset_worker_cache()


class TestSupervisedFailureModes:
    """The failure modes the supervised scheduler exists for."""

    @pytest.fixture(autouse=True)
    def _fast_backoff(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_BACKOFF", "0.01")
        monkeypatch.delenv("REPRO_FAULTS", raising=False)

    def test_broken_pool_mid_matrix_recovers(self, tmp_path, monkeypatch):
        """A worker hard-exit (BrokenProcessPool) respawns the pool and the
        run still returns every result in submission order."""
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER",
                           str(tmp_path / "crashed"))
        values = list(range(6))
        results = run_tasks(_crash_once_then_square, values, jobs=2,
                            retries=2)
        assert results == [v * v for v in values]
        assert (tmp_path / "crashed").exists()  # the crash really happened

    def test_task_failing_every_retry_surfaces_identity(self):
        """A task that raises on every attempt aborts the run cleanly with
        an error naming the task and its attempt count."""
        with pytest.raises(ExecutorTaskError) as excinfo:
            run_tasks(_raise_on_two, list(range(4)), jobs=2, retries=1)
        error = excinfo.value
        assert error.index == 2
        assert error.attempts == 2  # 1 try + 1 retry
        assert "synthetic failure for 2" in str(error)
        assert "[task: 2]" in str(error)

    def test_timeout_retry_succeeds_on_second_attempt(self, tmp_path,
                                                      monkeypatch):
        """A hung worker is killed at the timeout and the retry completes."""
        monkeypatch.setenv("REPRO_TEST_HANG_MARKER", str(tmp_path / "hung"))
        start = time.monotonic()
        results = run_tasks(_hang_once_then_negate, [0, 1, 2], jobs=2,
                            timeout=1.0, retries=2)
        elapsed = time.monotonic() - start
        assert results == [0, -1, -2]
        assert (tmp_path / "hung").exists()
        assert elapsed < 30  # killed at ~1s, nowhere near the 60s sleep

    def test_supervised_results_match_the_serial_loop(self):
        values = list(range(8))
        supervised = run_tasks(_square, values, jobs=2)
        serial = run_tasks(_square, values, jobs=1)
        assert supervised == serial == [v * v for v in values]

    def test_on_result_fires_for_every_task(self):
        seen_serial = []
        run_tasks(_square, [1, 2, 3], jobs=1,
                  on_result=lambda i, r: seen_serial.append((i, r)))
        assert seen_serial == [(0, 1), (1, 4), (2, 9)]
        seen_parallel = []
        run_tasks(_square, [1, 2, 3, 4], jobs=2,
                  on_result=lambda i, r: seen_parallel.append((i, r)))
        assert sorted(seen_parallel) == [(0, 1), (1, 4), (2, 9), (3, 16)]


class TestWorkerCacheDegradationCounters:
    """Best-effort cache startup must warn + count, never die silently."""

    def test_unusable_store_tree_warns_and_counts(self, tmp_path,
                                                  monkeypatch, caplog):
        import json
        root = str(tmp_path / "badstore")
        os.makedirs(os.path.join(root, "objects"))
        with open(os.path.join(root, "generation.json"), "w") as fh:
            json.dump({"store_schema": 1, "key_schema": 1, "generation": 1},
                      fh)
        monkeypatch.setenv("REPRO_STORE_DIR", root)
        reset_worker_cache()
        try:
            with caplog.at_level(logging.WARNING,
                                 logger="repro.evaluation.executor"):
                cache = worker_cache()
            from repro.evaluation.executor import rooted_store
            assert rooted_store(cache) is None  # storeless degradation
            events = worker_cache_events()
            assert events["store_attach_failures"] == 1
            assert any("attach" in record.message
                       for record in caplog.records)
        finally:
            reset_worker_cache()

    def test_counters_start_at_zero(self):
        reset_worker_cache()
        assert worker_cache_events() == {"store_attach_failures": 0}


class TestParallelExperimentsBitIdentical:
    def test_precision_matrix_jobs2_equals_serial(self):
        serial = measure_precision(WORKLOADS, labels=LABELS)
        parallel = measure_precision(WORKLOADS, labels=LABELS, jobs=2)
        assert serial.rows == parallel.rows
        assert serial.matrix() == parallel.matrix()

    def test_precision_respects_repro_jobs_env(self, monkeypatch):
        serial = measure_precision(WORKLOADS[:1], labels=("fission",),
                                   differs=[BinDiff(), Asm2Vec()])
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = measure_precision(WORKLOADS[:1], labels=("fission",),
                                     differs=[BinDiff(), Asm2Vec()])
        assert serial.rows == parallel.rows

    def test_ambient_repro_jobs_never_overrides_explicit_cache(self, monkeypatch):
        """REPRO_JOBS in the environment must not bypass a passed cache=
        (the bench's fig8 hit-rate check depends on the cache being used)."""
        from repro.core.variant_cache import VariantCache
        monkeypatch.setenv("REPRO_JOBS", "2")
        cache = VariantCache()
        measure_precision(WORKLOADS[:1], labels=("fission",),
                          differs=[BinDiff()], cache=cache)
        assert cache.misses > 0          # the explicit cache was used
        hits_before = cache.hits
        measure_precision(WORKLOADS[:1], labels=("fission",),
                          differs=[BinDiff()], cache=cache)
        assert cache.hits > hits_before  # ...and hit on the rerun

    def test_escape_report_jobs2_equals_serial(self):
        workloads = embedded_programs()[:1]
        serial = measure_escape(workloads, labels=("sub", "fufi.all"))
        parallel = measure_escape(workloads, labels=("sub", "fufi.all"), jobs=2)
        assert serial.rows == parallel.rows
        for n in (1, 10, 50):
            assert serial.matrix(n) == parallel.matrix(n)

    def test_figure9_jobs2_equals_serial(self):
        serial = figure9(limit=2, tuner_iterations=1)
        parallel = figure9(limit=2, tuner_iterations=1, jobs=2)
        assert serial.rows == parallel.rows
        assert (serial.bintuner_overhead_percent
                == parallel.bintuner_overhead_percent)


class TestWarmStoreParallelDiffing:
    """Figures 9/10 at jobs=2 over a warm shared store vs the serial path.

    The fig6/7 and fig8 matrices have had this guarantee since the store
    landed; these pin it for ``measure_escape`` and ``measure_bintuner``: a
    parallel run whose workers adopt persisted artifacts (variants, feature
    payloads, per-function diff payloads) must stay row-identical to the
    storeless serial reference.
    """

    def test_escape_jobs2_over_warm_store_equals_serial(self, tmp_store):
        from repro.evaluation import measure_escape_sharded
        workloads = embedded_programs()[:1]
        labels = ("sub", "fufi.all")
        serial = measure_escape(workloads, labels=labels)
        # populate the tree (serial in-process pass through the store)...
        cold = measure_escape_sharded(workloads, labels=labels, jobs=1)
        reset_worker_cache()
        # ...then fan out over the warm tree
        warm = measure_escape(workloads, labels=labels, jobs=2)
        assert cold.rows == serial.rows
        assert warm.rows == serial.rows
        for n in (1, 10, 50):
            assert warm.matrix(n) == serial.matrix(n)

    def test_bintuner_jobs2_over_warm_store_equals_serial(self, tmp_store):
        from repro.evaluation import measure_bintuner, measure_bintuner_sharded
        from tests.bintuner_oracle import serial_bintuner_report
        workloads = spec2006_programs()[:2]
        serial = serial_bintuner_report(workloads, tuner_iterations=1)
        cold = measure_bintuner_sharded(workloads, tuner_iterations=1, jobs=1)
        reset_worker_cache()
        warm = measure_bintuner(workloads, tuner_iterations=1, jobs=2)
        assert cold.rows == serial.rows
        assert warm.rows == serial.rows
        assert (warm.bintuner_overhead_percent
                == serial.bintuner_overhead_percent
                == cold.bintuner_overhead_percent)


class TestEscapeRatioPairs:
    def test_escape_ratio_takes_result_provenance_pairs(self):
        from repro.toolchain import (build_baseline, build_obfuscated,
                                     obfuscator_for)
        workload = embedded_programs()[0]
        vulnerable = workload.vulnerable_functions
        baseline = build_baseline(workload.build())
        differ = Asm2Vec()
        pairs = []
        for label in ("sub", "fufi.all"):
            variant = build_obfuscated(workload.build(), obfuscator_for(label))
            pairs.append((differ.diff(baseline.binary, variant.binary),
                          variant.provenance))
        ratio_1 = escape_ratio(pairs, vulnerable, 1)
        ratio_50 = escape_ratio(pairs, vulnerable, 50)
        assert 0.0 <= ratio_50 <= ratio_1 <= 1.0

    def test_escape_ratio_empty(self):
        assert escape_ratio([], ["f"], 1) == 0.0
