"""Variant cache: keying, LRU behaviour and evaluation-driver wiring."""

import pytest

from repro.core.variant_cache import (VariantCache, config_cache_key,
                                      variant_key)
from repro.evaluation.overhead import build_variant, measure_overhead
from repro.evaluation.precision import measure_precision
from repro.opt.pass_manager import OptOptions
from repro.toolchain import obfuscator_for
from repro.workloads.suites import spec2006_programs

WORKLOADS = spec2006_programs()[:2]
LABELS = ("fission", "fufi.ori")


def _overhead_rows(report):
    return [(r.program, r.label, r.baseline_cycles, r.cycles)
            for r in report.rows]


def _precision_rows(report):
    return [(r.program, r.tool, r.label, r.precision, r.similarity_score)
            for r in report.rows]


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = VariantCache()
        calls = []
        key = ("k",)
        first = cache.get_or_build(key, lambda: calls.append(1) or "built")
        second = cache.get_or_build(key, lambda: calls.append(2) or "rebuilt")
        assert first == second == "built"
        assert calls == [1]
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        assert len(cache) == 1 and key in cache

    def test_stats_and_clear(self):
        cache = VariantCache()
        cache.get_or_build(("a",), lambda: 1)
        cache.get_or_build(("a",), lambda: 1)
        stats = cache.stats()
        assert stats == {"entries": 1, "hits": 1, "misses": 1, "hit_rate": 0.5}
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_lru_eviction(self):
        cache = VariantCache(max_entries=2)
        cache.get_or_build(("a",), lambda: "a")
        cache.get_or_build(("b",), lambda: "b")
        cache.get_or_build(("a",), lambda: "a2")   # refresh a
        cache.get_or_build(("c",), lambda: "c")    # evicts b
        assert ("a",) in cache and ("c",) in cache
        assert ("b",) not in cache

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            VariantCache(max_entries=0)


class TestKeys:
    def test_same_configuration_same_key(self):
        wp = WORKLOADS[0]
        assert (variant_key(wp, obfuscator_for("fission"))
                == variant_key(wp, obfuscator_for("fission")))
        assert (variant_key(wp, "baseline", OptOptions())
                == variant_key(wp, "baseline", OptOptions()))

    def test_different_label_seed_options_workload_differ(self):
        wp, other = WORKLOADS
        base = variant_key(wp, obfuscator_for("fission"))
        assert base != variant_key(wp, obfuscator_for("fusion"))
        assert base != variant_key(wp, obfuscator_for("fission", seed=123))
        assert base != variant_key(other, obfuscator_for("fission"))
        assert (variant_key(wp, "baseline", OptOptions())
                != variant_key(wp, "baseline", OptOptions(level=3)))

    def test_profile_knobs_are_part_of_the_key(self):
        """Same (suite, name, seed) but different profile knobs must not collide."""
        import dataclasses
        from repro.workloads.suites import WorkloadProgram
        wp = WORKLOADS[0]
        longer = WorkloadProgram(wp.name, wp.suite, dataclasses.replace(
            wp.profile, iterations=wp.profile.iterations * 10))
        assert (variant_key(wp, "baseline")
                != variant_key(longer, "baseline"))

    def test_ollvm_and_khaos_keys_are_disjoint(self):
        wp = WORKLOADS[0]
        keys = {variant_key(wp, obfuscator_for(label))
                for label in ("sub", "bog", "fla-10", "fission", "fufi.all")}
        assert len(keys) == 5

    def test_config_cache_key_fallback(self):
        class Bare:
            label = "custom"
        key = config_cache_key(Bare())
        assert "Bare" in key and "custom" in key
        assert config_cache_key("baseline") == "baseline"

    def test_config_cache_key_fallback_includes_public_knobs(self):
        """Same label, different knobs, no cache_key(): keys must differ."""
        class Tool:
            label = "tool"

            def __init__(self, ratio):
                self.ratio = ratio
        assert config_cache_key(Tool(0.1)) != config_cache_key(Tool(0.9))
        assert config_cache_key(Tool(0.5)) == config_cache_key(Tool(0.5))


class TestEvaluationWiring:
    def test_build_variant_caches_and_matches_fresh_build(self):
        cache = VariantCache()
        wp = WORKLOADS[0]
        cached = build_variant(wp, "fission", cache=cache)
        again = build_variant(wp, "fission", cache=cache)
        fresh = build_variant(wp, "fission")
        assert cached is again
        assert cache.hits == 1 and cache.misses == 1
        # deterministic builds: the cached artifact equals a fresh build
        assert [f.name for f in cached.binary.functions] == \
               [f.name for f in fresh.binary.functions]

    def test_measure_overhead_report_identical_with_cache(self):
        cache = VariantCache()
        with_cache = measure_overhead(WORKLOADS, labels=LABELS, cache=cache)
        without = measure_overhead(WORKLOADS, labels=LABELS)
        assert _overhead_rows(with_cache) == _overhead_rows(without)
        assert cache.misses == len(WORKLOADS) * (len(LABELS) + 1)
        assert cache.hits == 0

        rerun = measure_overhead(WORKLOADS, labels=LABELS, cache=cache)
        assert _overhead_rows(rerun) == _overhead_rows(without)
        assert cache.hits == len(WORKLOADS) * (len(LABELS) + 1)

    def test_precision_reuses_overhead_variants(self):
        """The figure-8 loop must hit variants built by the figure-6/7 loop."""
        cache = VariantCache()
        measure_overhead(WORKLOADS, labels=LABELS, cache=cache)
        hits_before = cache.hits
        with_cache = measure_precision(WORKLOADS, labels=LABELS, cache=cache)
        assert cache.hits > hits_before        # nonzero figure-8 hit rate
        assert cache.misses == len(WORKLOADS) * (len(LABELS) + 1)
        without = measure_precision(WORKLOADS, labels=LABELS)
        assert _precision_rows(with_cache) == _precision_rows(without)
