"""Checkpoint/resume: the one scheduler of the sharded experiment matrices.

A fig6–10 matrix run is a deterministic list of shard units, each a pure
function of its store key — which means an *interrupted* run (a ``kill -9``,
a power loss, an aborted chaos test) should never throw completed work away.
This module journals every completed shard so a restarted run re-executes
only the unfinished ones:

* each shard's finished result is persisted in the shared
  :class:`~repro.store.artifact_store.ArtifactStore` under kind
  :data:`~repro.store.artifact_store.KIND_SHARD`, keyed by the shard's
  value-based identity (tool config × variant keys × slice) — the same
  key discipline as every other store object, so two different runs that
  contain the same shard share its result;
* a :class:`RunManifest` under ``<store root>/runs/<run_id>.jsonl`` journals
  the digests of the shards *this run* completed — one ``O_APPEND`` JSON
  line per shard, appended from :func:`run_checkpointed`'s ``on_result``
  hook as results arrive, so the journal is current the instant a shard
  finishes, not when the run ends.  ``run_id`` hashes the run's full shard
  key list: a restart with the same matrix resolves to the same manifest,
  while any change to the matrix (labels, tools, partitioning) starts a
  fresh journal;
* on start, :func:`run_checkpointed` loads the manifest, revives every
  journaled shard's result from the store (``normalize`` rewrites its
  counters so revived shards report as store reads, not fresh scores) and
  hands only the remainder to
  :func:`~repro.evaluation.executor.run_tasks`.

Without ``REPRO_STORE_DIR`` (or with ``REPRO_CHECKPOINT=off``) the layer is
a transparent pass-through — the serial no-store path stays the untouched
differential reference.  A journaled digest whose object was lost or
quarantined is simply re-executed: the manifest is advisory, the store is
the truth, exactly like the
:class:`~repro.store.generation_log.GenerationLog` ledger.

Shard keys and the run identity do not depend on ``jobs`` or on the
machine, so "which units are finished" is a property of the shared tree,
not of any process: a run started at ``jobs=1`` resumes at ``jobs=2`` and
the other way round.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, TypeVar

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..obs.collect import open_run
from ..store.artifact_store import (KIND_SHARD, StoreError, store_digest,
                                    store_dir_from_env, store_from_env)
from ..store.backend import RemoteBackend, RemoteStoreError
from .executor import run_tasks

Task = TypeVar("Task")
Result = TypeVar("Result")

#: Subdirectory of the store root holding one journal file per run identity.
RUNS_DIR = "runs"


def checkpoint_enabled(environ=os.environ) -> bool:
    """Checkpointing is on by default; ``REPRO_CHECKPOINT=off`` disables it.

    The off switch exists for measurements that must not short-circuit
    (e.g. the ``fault_overhead`` bench re-runs one matrix twice through two
    schedulers on one tree) and for tests that specifically exercise the
    executor rather than the resume path.
    """
    value = environ.get("REPRO_CHECKPOINT", "").strip().lower()
    if value in ("", "on", "1", "true"):
        return True
    if value in ("off", "0", "false"):
        return False
    raise ValueError(
        f"REPRO_CHECKPOINT must be 'on' or 'off', got {value!r}")


def run_id(run_parts: object) -> str:
    """The stable identity of one matrix run's shard list (hex, 16 chars)."""
    return store_digest("run", run_parts)[:16]


def _parse_journal(text: str) -> Set[str]:
    """The completed-shard digests of one journal's lines — tolerant of
    torn trailing lines, shared by the local and remote manifests."""
    done: Set[str] = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn trailing line from a killed writer
        digest = entry.get("digest") if isinstance(entry, dict) else None
        if isinstance(digest, str):
            done.add(digest)
    return done


class RunManifest:
    """The append-only journal of one run's completed shard digests.

    Lives at ``<root>/runs/<run_id>.jsonl``; one JSON line per completed
    shard, appended with a single ``O_APPEND`` write (atomic under POSIX),
    so concurrent writers may share a journal and a torn trailing line
    from a killed process at worst under-reports one shard — which is then
    re-executed, never mis-resumed.
    """

    def __init__(self, root: str, identity: str):
        self.root = root
        self.identity = identity
        self.path = os.path.join(root, RUNS_DIR, f"{identity}.jsonl")
        self.done: Set[str] = set()
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            return
        self.done |= _parse_journal(text)

    def mark_done(self, digest: str) -> None:
        """Journal one completed shard — O(1), durable before returning."""
        self.done.add(digest)
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        line = json.dumps({"digest": digest}) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, line.encode("utf-8"))
            # the journal line is the promise "this shard will not re-run";
            # fsync before returning so a crash cannot retract it
            os.fsync(fd)
        finally:
            os.close(fd)


class RemoteRunManifest:
    """A :class:`RunManifest` hosted by the store server (``/runs/<id>``).

    The journal must live next to the objects it references — GC marks
    journal-reachable shards live, and every client of one served tree
    shares its journals — so a remote-attached run appends its lines through the
    server's ``O_APPEND`` endpoint instead of a local file.  A transient
    append failure under-reports one shard (it re-executes next run —
    safe, and counted in ``store.remote_errors`` by the backend); it
    never mis-resumes.
    """

    def __init__(self, backend: RemoteBackend, identity: str):
        self.backend = backend
        self.identity = identity
        self.done: Set[str] = set()
        try:
            self.done |= _parse_journal(
                backend.fetch_run_journal(identity))
        except RemoteStoreError:
            pass  # cold journal: everything re-executes, nothing is wrong

    def mark_done(self, digest: str) -> None:
        self.done.add(digest)
        line = json.dumps({"digest": digest}) + "\n"
        try:
            self.backend.append_run_journal(self.identity, line)
        except RemoteStoreError:
            pass  # under-reported, re-executed next run; never mis-resumed


@dataclass
class ShardRunStats:
    """Resume accounting — "zero re-executes of journaled units" reads this.

    ``planned`` is the run's full shard count, ``resumed`` how many were
    revived from the journal + store without executing, ``executed`` how
    many actually ran, ``journaled`` how many completions were appended to
    the manifest this run.
    """

    planned: int = 0
    resumed: int = 0
    executed: int = 0
    journaled: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"planned": self.planned, "resumed": self.resumed,
                "executed": self.executed, "journaled": self.journaled}


class _Sentinel:
    __slots__ = ()


_ABSENT = _Sentinel()


def run_checkpointed(task_fn: Callable[[Task], Result], tasks: Sequence[Task],
                     task_keys: Sequence[object], run_parts: object,
                     jobs: Optional[int] = None,
                     normalize: Optional[Callable[[Result], Result]] = None,
                     stats: Optional[ShardRunStats] = None) -> List[Result]:
    """:func:`run_tasks` with journaled, resumable shard results.

    ``task_keys[i]`` is the value-based store key of ``tasks[i]``'s result;
    ``run_parts`` identifies the run (normally the full key tuple).  Results
    come back in task order, exactly like :func:`run_tasks`: journaled
    shards are revived from the store (and passed through ``normalize``, so
    their counters report as store reads), the remainder execute through the
    scheduler and are persisted + journaled the moment each completes — an
    abort mid-run keeps everything already finished.
    """
    tasks = list(tasks)
    keys = list(task_keys)
    if len(tasks) != len(keys):
        raise ValueError(
            f"run_checkpointed: {len(tasks)} tasks but {len(keys)} keys")
    root = store_dir_from_env()
    identity = run_id(run_parts)
    # the telemetry run wraps even the checkpoint-off paths: the bench's
    # REPRO_CHECKPOINT=off arms still produce a merged trace.  open_run is
    # a no-op without a store tree or with telemetry disabled, and nested
    # opens defer to the outermost run.
    with open_run(root, identity):
        with obs_tracing.span("run", cat="schedule", run_id=identity,
                              tasks=len(tasks)):
            return _run_checkpointed(task_fn, tasks, keys, identity, root,
                                     jobs, normalize, stats)


def _run_checkpointed(task_fn, tasks, keys, identity, root, jobs,
                      normalize, stats) -> List[Result]:
    if not checkpoint_enabled():
        return run_tasks(task_fn, tasks, jobs=jobs)
    try:
        store = store_from_env(max_memory_entries=8)
    except (StoreError, OSError):
        # an unusable tree (or unreachable server) degrades to a plain
        # (un-resumable) run, same as the worker cache's storeless
        # degradation
        store = None
    if store is None or not store.persistent:
        return run_tasks(task_fn, tasks, jobs=jobs)
    if store.root is not None:
        manifest = RunManifest(store.root, identity)
    else:
        manifest = RemoteRunManifest(store.backend, identity)
    if stats is not None:
        stats.planned = len(tasks)
    obs_metrics.counter("checkpoint.planned", len(tasks))

    results: List[object] = [_ABSENT] * len(tasks)
    digests = [store_digest(KIND_SHARD, key) for key in keys]
    # a warm remote resume revives many shards at once: coalesce their
    # fetch into batch requests instead of one round trip per shard
    store.prefetch(KIND_SHARD, [keys[index]
                                for index, digest in enumerate(digests)
                                if digest in manifest.done])
    pending: List[int] = []
    for index, digest in enumerate(digests):
        if digest in manifest.done:
            payload = store.get(KIND_SHARD, keys[index], _ABSENT)
            if payload is not _ABSENT:
                results[index] = normalize(payload) if normalize else payload
                if stats is not None:
                    stats.resumed += 1
                obs_metrics.counter("checkpoint.resumed")
                continue
            # journaled but lost/quarantined: the store is the truth
        pending.append(index)
    if len(pending) < len(tasks):
        obs_tracing.event("checkpoint.resume", cat="schedule",
                          run_id=identity,
                          resumed=len(tasks) - len(pending),
                          pending=len(pending))

    if pending:
        def journal(position: int, value: Result) -> None:
            index = pending[position]
            results[index] = value
            store.put(KIND_SHARD, keys[index], value)
            manifest.mark_done(digests[index])
            obs_metrics.counter("checkpoint.journaled")
            obs_tracing.event("checkpoint.journal", cat="schedule",
                              shard=digests[index][:12])
            if stats is not None:
                stats.journaled += 1

        run_tasks(task_fn, [tasks[index] for index in pending], jobs=jobs,
                  on_result=journal)
        obs_metrics.counter("checkpoint.executed", len(pending))
        if stats is not None:
            stats.executed += len(pending)
    return results  # type: ignore[return-value]
