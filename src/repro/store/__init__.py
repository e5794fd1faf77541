"""Shared artifact store: compute each build artifact once per machine.

The subsystem has three pieces:

* :mod:`repro.store.keys` — freezes (workload profile, obfuscator config,
  opt options) triples into stable, value-based key tuples (re-exported by
  :mod:`repro.core.variant_cache` for backwards compatibility);
* :mod:`repro.store.artifact_store` — the content-addressed
  :class:`ArtifactStore`: in-process LRU over an atomic on-disk object tree
  that any number of executor workers attach to concurrently, validated
  cheaply through the :class:`GenerationLog` manifest;
* :mod:`repro.store.feature_payloads` — persistence for the diffing
  :class:`~repro.diffing.index.FeatureIndex` payloads keyed by the variant
  that produced the binary;
* :mod:`repro.store.diff_payloads` — persistence for per-function partial
  diff results (kind ``"diff"``), keyed by (tool config, baseline variant,
  obfuscated variant, source function) for the function-granularity diff
  sharding.

``REPRO_STORE_DIR`` names the shared tree (``REPRO_STORE_URL`` a remote
one served by ``scripts/store_server.py``).
"""

from .artifact_store import (CORRUPT_READ_ERRORS, KIND_DIFF, KIND_FEATURES,
                             KIND_SHARD, KIND_VARIANT, OBJECTS_DIR,
                             STORE_SCHEMA, ArtifactStore, StoreError,
                             canonical_key, is_store_tree, store_digest,
                             store_dir_from_env, store_from_env,
                             store_url_from_env)
from .backend import (QUARANTINE_DIR, LocalBackend, ObjectRef, RemoteBackend,
                      RemoteStoreError, StoreBackend)
from .diff_payloads import diff_pair_key
from .feature_payloads import features_key, persist_features, warm_features
from .generation_log import GENERATION_LOG_NAME, GenerationLog
from .keys import KEY_SCHEMA, config_cache_key, variant_key

__all__ = [
    "ArtifactStore", "StoreError", "GenerationLog", "GENERATION_LOG_NAME",
    "StoreBackend", "LocalBackend", "RemoteBackend", "RemoteStoreError",
    "ObjectRef",
    "KIND_VARIANT", "KIND_FEATURES", "KIND_DIFF", "KIND_SHARD",
    "OBJECTS_DIR", "QUARANTINE_DIR", "CORRUPT_READ_ERRORS",
    "STORE_SCHEMA", "KEY_SCHEMA", "canonical_key",
    "store_digest", "is_store_tree", "store_dir_from_env", "store_from_env",
    "store_url_from_env", "config_cache_key",
    "variant_key", "diff_pair_key", "features_key", "persist_features",
    "warm_features",
]
