"""Function-granularity diff sharding: contract, merge identity, store reuse.

The serial cell loops (``measure_precision``/``measure_escape``) and Figure
9's whole-workload loop (``tests/bintuner_oracle.py``) are the differential
references; the sharded scheduler
(:mod:`repro.evaluation.diff_sharding`) must reproduce their reports
bit-for-bit from any partition, serially or across processes, cold or over a
warm shared store — and a warm store must serve every unit without scoring a
pair or rebuilding a single ``FeatureIndex`` payload.
"""

import pytest

from repro.diffing import (BinDiff, DeepBinDiff, all_differs,
                           use_indexed_features)
from repro.diffing.base import PartialDiff
from repro.evaluation import (figure8, measure_bintuner, measure_escape,
                              measure_precision)
from repro.evaluation.diff_sharding import (DEFAULT_SHARDS_PER_CELL,
                                            DiffShardStats,
                                            measure_bintuner_sharded,
                                            measure_escape_sharded,
                                            measure_precision_sharded,
                                            resolve_diff_shards,
                                            shard_diff_matrix)
from repro.evaluation.executor import reset_worker_cache
from repro.store import KIND_FEATURES, ArtifactStore
from repro.toolchain import build_baseline, build_obfuscated, obfuscator_for
from repro.workloads.suites import embedded_programs, spec2006_programs
from tests.bintuner_oracle import serial_bintuner_report
from tests.conftest import build_demo_program

WORKLOADS = spec2006_programs()[:2]
LABELS = ("fission", "fufi.ori")


@pytest.fixture(scope="module")
def demo_pair():
    baseline = build_baseline(build_demo_program())
    variant = build_obfuscated(build_demo_program(), obfuscator_for("fufi.all"))
    return baseline.binary, variant.binary


def _precision_rows(report):
    return [(r.program, r.suite, r.tool, r.label, r.precision,
             r.similarity_score) for r in report.rows]


def _escape_rows(report):
    return [(r.program, r.function, r.tool, r.label, r.rank_of_correct)
            for r in report.rows]


class TestPartialContract:
    @pytest.mark.parametrize("differ", all_differs(), ids=lambda d: d.name)
    def test_merge_partials_reassembles_the_serial_diff(self, differ,
                                                        demo_pair):
        original, obfuscated = demo_pair
        reference = differ.diff(original, obfuscated)
        units = differ.shard_units(original)
        if differ.shard_granularity == "function":
            partials = [differ.partial_diff(original, obfuscated, units[k::3])
                        for k in range(3)]
        else:
            partials = [differ.partial_diff(original, obfuscated)]
        merged = differ.merge_partials(partials)
        assert merged.matches == reference.matches
        assert merged.similarity_score == reference.similarity_score
        assert (merged.tool, merged.original, merged.obfuscated) == \
            (reference.tool, reference.original, reference.obfuscated)

    @pytest.mark.parametrize("differ", all_differs(), ids=lambda d: d.name)
    def test_partition_choice_cannot_change_the_merge(self, differ, demo_pair):
        """Any partition (including reversed shard order) merges identically."""
        original, obfuscated = demo_pair
        if differ.shard_granularity != "function":
            pytest.skip("whole-pair tools have a single partition")
        units = differ.shard_units(original)
        by_threes = [differ.partial_diff(original, obfuscated, units[k::3])
                     for k in range(3)]
        one_by_one = [differ.partial_diff(original, obfuscated, [unit])
                      for unit in units]
        merged_a = differ.merge_partials(list(reversed(by_threes)))
        merged_b = differ.merge_partials(one_by_one)
        assert merged_a.matches == merged_b.matches
        assert merged_a.similarity_score == merged_b.similarity_score

    def test_shard_units_are_source_functions_in_rank_order(self, demo_pair):
        original, _obfuscated = demo_pair
        differ = BinDiff()
        assert differ.shard_units(original) == \
            [f.name for f in original.functions]

    def test_deepbindiff_falls_back_to_binary_granularity(self, demo_pair):
        original, obfuscated = demo_pair
        differ = DeepBinDiff()
        assert differ.shard_granularity == "binary"
        partial = differ.partial_diff(original, obfuscated, ["ignored"])
        assert partial.sources == tuple(differ.shard_units(original))
        assert partial.similarity_score is not None

    def test_partial_diff_rejects_unknown_sources(self, demo_pair):
        original, obfuscated = demo_pair
        with pytest.raises(ValueError, match="unknown source"):
            BinDiff().partial_diff(original, obfuscated, ["no_such_function"])

    def test_merge_rejects_uncovered_units(self, demo_pair):
        original, obfuscated = demo_pair
        differ = BinDiff()
        units = differ.shard_units(original)
        partial = differ.partial_diff(original, obfuscated, units[1:])
        with pytest.raises(ValueError, match="no score"):
            differ.merge_partials([partial])

    def test_merge_rejects_double_covered_units(self, demo_pair):
        original, obfuscated = demo_pair
        differ = BinDiff()
        units = differ.shard_units(original)
        whole = differ.partial_diff(original, obfuscated, units)
        extra = differ.partial_diff(original, obfuscated, units[:1])
        with pytest.raises(ValueError, match="two partials"):
            differ.merge_partials([whole, extra])

    def test_merge_rejects_mismatched_pairs(self, demo_pair):
        original, obfuscated = demo_pair
        differ = BinDiff()
        partial = differ.partial_diff(original, obfuscated)
        other = PartialDiff(tool=differ.name, original="other",
                            obfuscated=partial.obfuscated,
                            units=partial.units, sources=(),
                            matches={})
        with pytest.raises(ValueError, match="different pairs"):
            differ.merge_partials([partial, other])

    def test_cache_keys_are_stable_and_config_sensitive(self):
        from repro.diffing import Asm2Vec
        from repro.store import canonical_key
        keys = {differ.name: differ.cache_key() for differ in all_differs()}
        assert len(set(keys.values())) == len(keys)       # tools never collide
        for key in keys.values():
            assert canonical_key(key) == canonical_key(key)  # value-based
        assert Asm2Vec(walks=9).cache_key() != Asm2Vec().cache_key()


class TestShardPlanning:
    def test_partition_is_deterministic(self):
        differs = all_differs()
        assert shard_diff_matrix(WORKLOADS, LABELS, differs) == \
            shard_diff_matrix(WORKLOADS, LABELS, differs)

    def test_function_tools_split_binary_tools_do_not(self):
        shards = shard_diff_matrix(WORKLOADS[:1], ("fission",),
                                   [BinDiff(), DeepBinDiff()],
                                   shards_per_cell=4)
        counts = {}
        for _w, _label, differ, _opts, _index, count in shards:
            counts[differ.name] = count
        assert counts == {"BinDiff": 4, "DeepBinDiff": 1}
        assert len(shards) == 4 + 1

    def test_resolve_diff_shards_defaults_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_DIFF_SHARDS", raising=False)
        assert resolve_diff_shards() == DEFAULT_SHARDS_PER_CELL
        monkeypatch.setenv("REPRO_DIFF_SHARDS", "5")
        assert resolve_diff_shards() == 5
        assert resolve_diff_shards(3) == 3  # explicit wins

    def test_resolve_diff_shards_rejects_garbage(self, monkeypatch):
        for bad in (0, -2, 1.5, "4", True):
            with pytest.raises(ValueError, match="positive integer"):
                resolve_diff_shards(bad)
        monkeypatch.setenv("REPRO_DIFF_SHARDS", "many")
        with pytest.raises(ValueError, match="REPRO_DIFF_SHARDS"):
            resolve_diff_shards()


class TestPrecisionSharded:
    def test_serial_shards_equal_the_reference(self):
        serial = measure_precision(WORKLOADS[:1], labels=LABELS)
        sharded = measure_precision_sharded(WORKLOADS[:1], labels=LABELS,
                                            jobs=1)
        assert _precision_rows(sharded) == _precision_rows(serial)

    def test_jobs2_equals_the_reference(self):
        serial = measure_precision(WORKLOADS, labels=LABELS)
        parallel = measure_precision_sharded(WORKLOADS, labels=LABELS, jobs=2)
        assert _precision_rows(parallel) == _precision_rows(serial)
        assert parallel.matrix() == serial.matrix()

    def test_single_function_shards_equal_the_reference(self):
        """The finest partition — one source function per shard."""
        serial = measure_precision(WORKLOADS[:1], labels=("fission",))
        finest = measure_precision_sharded(WORKLOADS[:1], labels=("fission",),
                                           jobs=1, shards_per_cell=64)
        assert _precision_rows(finest) == _precision_rows(serial)

    def test_figure8_jobs2_through_function_shards_is_bit_identical(self):
        """The acceptance criterion: figure8(jobs=2) — which routes through
        the function-granularity scheduler — equals the serial reference."""
        kwargs = dict(limit_spec=1, limit_coreutils=1, labels=LABELS)
        serial = figure8(**kwargs)
        parallel = figure8(jobs=2, **kwargs)
        assert _precision_rows(parallel) == _precision_rows(serial)
        assert parallel.matrix() == serial.matrix()


class TestSharedStoreReuse:
    def test_warm_store_serves_every_unit_and_rebuilds_no_features(
            self, tmp_store):
        serial = measure_precision(WORKLOADS[:1], labels=LABELS)
        cold_stats = DiffShardStats()
        cold = measure_precision_sharded(WORKLOADS[:1], labels=LABELS,
                                         jobs=1, stats=cold_stats)
        assert _precision_rows(cold) == _precision_rows(serial)
        assert cold_stats.units_scored == cold_stats.units_total > 0
        if use_indexed_features():
            # the legacy path extracts per diff and memoises nothing, so
            # only the indexed path has feature payloads to persist
            assert cold_stats.features_persisted > 0
        assert cold_stats.diff_payloads_persisted > 0

        reset_worker_cache()
        warm_stats = DiffShardStats()
        warm = measure_precision_sharded(WORKLOADS[:1], labels=LABELS,
                                         jobs=1, stats=warm_stats)
        assert _precision_rows(warm) == _precision_rows(serial)
        # every unit adopted, zero pairs scored, zero feature rebuilds
        assert warm_stats.units_from_store == warm_stats.units_total
        assert warm_stats.units_scored == 0
        assert warm_stats.features_persisted == 0
        assert warm_stats.diff_payloads_persisted == 0
        # ...and the tree gained no feature objects on the warm pass
        features_after = ArtifactStore.attach(tmp_store).entry_count(
            KIND_FEATURES)
        reset_worker_cache()
        rerun_stats = DiffShardStats()
        measure_precision_sharded(WORKLOADS[:1], labels=LABELS, jobs=1,
                                  stats=rerun_stats)
        assert ArtifactStore.attach(tmp_store).entry_count(KIND_FEATURES) \
            == features_after
        assert rerun_stats.features_persisted == 0

    def test_jobs2_over_warm_store_equals_the_reference(self, tmp_store):
        serial = measure_precision(WORKLOADS[:1], labels=LABELS)
        measure_precision_sharded(WORKLOADS[:1], labels=LABELS, jobs=1)
        reset_worker_cache()
        warm_stats = DiffShardStats()
        parallel = measure_precision_sharded(WORKLOADS[:1], labels=LABELS,
                                             jobs=2, stats=warm_stats)
        assert _precision_rows(parallel) == _precision_rows(serial)
        assert warm_stats.units_from_store == warm_stats.units_total

    def test_different_partitions_share_one_store(self, tmp_store):
        """Per-function payloads are partition-agnostic: a run with a
        different shards_per_cell adopts everything a previous partition
        persisted."""
        measure_precision_sharded(WORKLOADS[:1], labels=("fission",),
                                  jobs=1, shards_per_cell=2)
        reset_worker_cache()
        stats = DiffShardStats()
        measure_precision_sharded(WORKLOADS[:1], labels=("fission",),
                                  jobs=1, shards_per_cell=3, stats=stats)
        assert stats.units_from_store == stats.units_total
        assert stats.units_scored == 0


class TestEscapeSharded:
    def test_sharded_escape_equals_the_reference(self):
        workloads = embedded_programs()[:1]
        labels = ("sub", "fufi.all")
        serial = measure_escape(workloads, labels=labels)
        sharded = measure_escape_sharded(workloads, labels=labels, jobs=1)
        parallel = measure_escape_sharded(workloads, labels=labels, jobs=2)
        assert _escape_rows(sharded) == _escape_rows(serial)
        assert _escape_rows(parallel) == _escape_rows(serial)
        for n in (1, 10, 50):
            assert parallel.matrix(n) == serial.matrix(n)


class TestBinTunerSharded:
    def test_sharded_bintuner_equals_the_reference(self):
        serial = serial_bintuner_report(WORKLOADS[:1], tuner_iterations=1)
        sharded = measure_bintuner_sharded(WORKLOADS[:1], tuner_iterations=1,
                                           jobs=1)
        parallel = measure_bintuner_sharded(WORKLOADS[:1], tuner_iterations=1,
                                            jobs=2)
        assert sharded.rows == serial.rows == parallel.rows
        assert (sharded.bintuner_overhead_percent
                == serial.bintuner_overhead_percent
                == parallel.bintuner_overhead_percent)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_measure_bintuner_equals_the_serial_oracle(self, jobs):
        """The public driver runs the shards at every width, yet reports
        exactly what the whole-workload serial loop did."""
        oracle = serial_bintuner_report(WORKLOADS, tuner_iterations=1)
        report = measure_bintuner(WORKLOADS, tuner_iterations=1, jobs=jobs)
        assert report.rows == oracle.rows
        assert (report.bintuner_overhead_percent
                == oracle.bintuner_overhead_percent)
