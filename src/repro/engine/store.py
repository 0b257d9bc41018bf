"""Content-addressed on-disk result store.

Results live under ``.repro-cache/`` (override with ``REPRO_CACHE_DIR``
or the ``root`` argument) as one JSON blob per job, sharded by the first
two hex digits of the job hash, with an append-only recency index::

    .repro-cache/
        ab/ab34f0...e1.json     {"key": ..., "job": ..., "result": ...}
        index.jsonl             recency index (LRU order, see StoreIndex)
        journal.jsonl           run journal (see journal.py)

The job hash covers workload parameters, resolved config and the repro
code fingerprint, so a hit is only possible when re-simulating would
reproduce the stored result exactly.  Writes are atomic
(temp-file + ``os.replace``) so a crashed or parallel run never leaves a
truncated blob; unreadable blobs are treated as misses and overwritten.

Two mechanisms keep a long-lived, multi-client cache healthy:

* **Index + eviction.**  Every put/hit appends one record to
  ``index.jsonl`` (single-``write()`` ``O_APPEND``, safe under
  concurrent writers), so file order *is* recency order.
  :meth:`ResultStore.gc` evicts least-recently-used blobs until the
  store fits a byte budget; :meth:`ResultStore.stats` reports entry,
  byte and shard-fill counts.  The index is advisory: blobs never lie
  about their content, and a missing/stale index is rebuilt from the
  tree (:meth:`ResultStore.reindex`).

* **Read-through roots.**  ``read_roots`` (or ``REPRO_CACHE_READ_ROOTS``,
  ``os.pathsep``-separated) name additional store roots consulted on a
  primary miss — e.g. a warm cache shared over a network mount.  Hits
  are copied into the primary root ("localized") so repeated reads stay
  local; the extra roots are never written otherwise.

The sharded tree is the only layout.  A ``<key>.json`` lying directly
in the root (written before the store was sharded) is never read,
counted or deleted by the store; its key embeds a code fingerprint no
current tree computes, so it can never hit, and it can be deleted by
hand.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.job import SimJob
from repro.engine.journal import append_jsonl_line, read_jsonl
from repro.simulator.simulation import SimulationResult

#: Default cache directory, relative to the current working directory.
DEFAULT_ROOT = ".repro-cache"

#: Hex digits of the key that name a blob's shard directory.
SHARD_PREFIX = 2

_KEY_LEN = 64  # SHA-256 hex


def _is_key(name: str) -> bool:
    return len(name) == _KEY_LEN and \
        all(c in "0123456789abcdef" for c in name)


def read_result(job: Any, payload: dict) -> Optional[Any]:
    """``payload`` read back through ``job``'s kind
    (``result_from_dict``), or None when the kind rejects it: a corrupt
    or schema-mismatched payload.  A stored payload is a hit only if
    this reads it."""
    try:
        return type(job).result_from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None


class StoreIndex:
    """Append-only recency index: one JSONL record per put/touch/drop.

    File order is recency order — :meth:`load` folds the log into a
    ``key -> bytes`` dict whose insertion order runs least- to
    most-recently used, which is exactly the eviction order
    :meth:`ResultStore.gc` wants.  Appends are single-``write()``
    ``O_APPEND`` (:func:`~repro.engine.journal.append_jsonl_line`), so
    concurrent engines and daemons sharing a root never tear each
    other's records; the log is compacted on ``gc``/``reindex``.
    """

    def __init__(self, path: str):
        self.path = os.path.abspath(path)

    def put(self, key: str, nbytes: int) -> None:
        self._append({"op": "put", "key": key, "bytes": nbytes})

    def touch(self, key: str) -> None:
        self._append({"op": "touch", "key": key})

    def drop(self, key: str) -> None:
        self._append({"op": "drop", "key": key})

    def _append(self, record: dict) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        append_jsonl_line(self.path, record)

    def load(self) -> Dict[str, int]:
        """``key -> bytes`` in LRU order (oldest first).  Records with
        unknown ops or shapes are skipped, so a foreign or future index
        degrades to partial knowledge, never an error."""
        entries: Dict[str, int] = {}
        for record in read_jsonl(self.path):
            key = record.get("key")
            if not isinstance(key, str) or not _is_key(key):
                continue
            op = record.get("op")
            if op == "put":
                nbytes = record.get("bytes")
                entries.pop(key, None)
                entries[key] = nbytes if isinstance(nbytes, int) else 0
            elif op == "touch":
                if key in entries:
                    entries[key] = entries.pop(key)
            elif op == "drop":
                entries.pop(key, None)
        return entries

    def entries(self) -> Iterator[Tuple[str, int]]:
        """Iterate ``(key, bytes)`` pairs in LRU order (oldest first).

        The public iteration API for consumers that walk the store —
        label harvesting (:mod:`repro.analysis.surrogate`), auditing,
        external tooling — so each of them stops re-reading and
        re-folding the raw log file by hand.  Safe under concurrent
        appenders: :meth:`load` folds whatever prefix of the log exists
        at read time, and single-``write()`` ``O_APPEND`` records mean
        that prefix is always whole lines.
        """
        yield from self.load().items()

    def rewrite(self, entries: Dict[str, int]) -> None:
        """Atomically replace the log with one put record per entry,
        preserving the given (LRU) order."""
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self.path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                for key, nbytes in entries.items():
                    fh.write(json.dumps(
                        {"op": "put", "key": key, "bytes": nbytes},
                        sort_keys=True) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


class ResultStore:
    """Content-addressed map from :class:`SimJob` to stored results."""

    def __init__(self, root: Optional[str] = None,
                 read_roots: Optional[Sequence[str]] = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_ROOT
        self.root = os.path.abspath(root)
        if read_roots is None:
            env = os.environ.get("REPRO_CACHE_READ_ROOTS", "")
            read_roots = [p for p in env.split(os.pathsep) if p]
        self.read_roots = [os.path.abspath(p) for p in read_roots
                           if os.path.abspath(p) != self.root]
        self.index = StoreIndex(os.path.join(self.root, "index.jsonl"))

    def path_for(self, key: str, root: Optional[str] = None) -> str:
        """Where ``key``'s blob lives under ``root`` (default: the
        primary root)."""
        return os.path.join(root or self.root, key[:SHARD_PREFIX],
                            f"{key}.json")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, "journal.jsonl")

    # -- read --------------------------------------------------------------------

    def contains(self, job: SimJob) -> bool:
        return os.path.exists(self.path_for(job.key))

    def read_blob(self, key: str, root: Optional[str] = None
                  ) -> Optional[dict]:
        """The blob stored under ``key`` in ``root`` (default: the
        primary root), or None when it is missing, unreadable or not a
        blob for ``key``.  It neither touches the index nor reads
        through to other roots, so a caller that walks the store (the
        surrogate's label harvest) leaves its recency order alone."""
        try:
            with open(self.path_for(key, root)) as fh:
                blob = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(blob, dict) or blob.get("key") != key:
            return None
        return blob

    def get_blob(self, job: SimJob) -> Optional[dict]:
        """The raw stored blob for ``job``, or None on miss/corruption.

        Misses in the primary root read through ``read_roots``; a
        read-through hit is copied ("localized") into the primary root.
        Every hit appends a recency touch to the index.
        """
        key = job.key
        blob = self.read_blob(key)
        if blob is not None:
            self.index.touch(key)
            return blob
        for root in self.read_roots:
            blob = self.read_blob(key, root)
            if blob is not None:
                self._write_blob(key, blob)   # localize + index
                return blob
        return None

    def get(self, job: SimJob) -> Optional[SimulationResult]:
        """The cached result for ``job``, or None.  Corrupt or
        schema-mismatched blobs read as misses, never as errors
        (:func:`read_result`), so non-``sim`` kinds get real cache hits
        too."""
        payload = self.get_payload(job)
        return None if payload is None else read_result(job, payload)

    def get_payload(self, job: SimJob) -> Optional[dict]:
        """The stored ``result.to_dict()`` payload for ``job``, or None.
        This is the wire form the sweep daemon serves: byte-identical to
        what the embedded engine would serialize."""
        blob = self.get_blob(job)
        if blob is None:
            return None
        payload = blob.get("result")
        return payload if isinstance(payload, dict) else None

    # -- write -------------------------------------------------------------------

    def put(self, job: SimJob, result: SimulationResult) -> str:
        """Store ``result`` under ``job``'s content hash; returns the
        blob path.  Atomic: readers never observe a partial write."""
        return self.put_payload(job, result.to_dict())

    def put_payload(self, job: SimJob, payload: dict) -> str:
        """Store an already-serialized result payload (pool path)."""
        key = job.key
        blob = {"key": key, "job": job.to_dict(), "result": payload}
        return self._write_blob(key, blob)

    def _write_blob(self, key: str, blob: dict) -> str:
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(blob, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.index.put(key, os.path.getsize(path))
        return path

    # -- maintenance -------------------------------------------------------------

    def _unlink(self, key: str) -> bool:
        """Delete ``key``'s blob; True if it existed."""
        try:
            os.unlink(self.path_for(key))
        except OSError:
            return False
        return True

    def invalidate(self, job: SimJob) -> bool:
        """Drop one entry; True if it existed."""
        dropped = self._unlink(job.key)
        if dropped:
            self.index.drop(job.key)
        return dropped

    def _shards(self) -> List[str]:
        """The shard directory names present under the root."""
        if not os.path.isdir(self.root):
            return []
        return [name for name in sorted(os.listdir(self.root))
                if len(name) == SHARD_PREFIX and
                os.path.isdir(os.path.join(self.root, name))]

    def keys(self) -> Iterator[str]:
        for shard in self._shards():
            for entry in sorted(os.listdir(os.path.join(self.root, shard))):
                if entry.endswith(".json") and _is_key(entry[:-5]):
                    yield entry[:-5]

    def _scan(self) -> Dict[str, int]:
        """``key -> bytes`` for every blob on disk."""
        sizes: Dict[str, int] = {}
        for key in self.keys():
            try:
                sizes[key] = os.path.getsize(self.path_for(key))
            except OSError:
                continue
        return sizes

    def stats(self) -> dict:
        """Entry/byte/shard-fill counters for ``repro cache stats``."""
        sizes = self._scan()
        indexed = self.index.load()
        return {
            "root": self.root,
            "entries": len(sizes),
            "bytes": sum(sizes.values()),
            "shards_used": len(self._shards()),
            "shards_max": 16 ** SHARD_PREFIX,
            "indexed": sum(1 for k in indexed if k in sizes),
            "read_roots": list(self.read_roots),
        }

    def _lru_order(self) -> List[Tuple[str, int]]:
        """Every on-disk blob as ``(key, bytes)``, least-recently-used
        first.  Blobs the index has never seen sort before indexed ones
        (in key order, for determinism): with no recency evidence they
        are the safest evictions."""
        sizes = self._scan()
        indexed = self.index.load()
        order = [(key, sizes[key]) for key in sorted(sizes)
                 if key not in indexed]
        order += [(key, sizes[key]) for key in indexed if key in sizes]
        return order

    def gc(self, max_bytes: int) -> dict:
        """Evict least-recently-used entries until the store holds at
        most ``max_bytes`` of blobs; compacts the index to the
        surviving entries.  Returns an eviction summary."""
        order = self._lru_order()
        total = sum(nbytes for _, nbytes in order)
        evicted = 0
        freed = 0
        surviving = dict(order)
        for key, nbytes in order:
            if total - freed <= max_bytes:
                break
            self._unlink(key)
            surviving.pop(key, None)
            evicted += 1
            freed += nbytes
        self.index.rewrite(surviving)
        return {"evicted": evicted, "freed_bytes": freed,
                "kept": len(surviving),
                "bytes": sum(surviving.values())}

    def reindex(self) -> int:
        """Rebuild the index from the on-disk tree (key order — recency
        is unknowable from content alone); returns the entry count."""
        sizes = self._scan()
        self.index.rewrite({key: sizes[key] for key in sorted(sizes)})
        return len(sizes)

    def clear(self) -> int:
        """Drop every entry (the journal is kept); returns count."""
        dropped = sum(self._unlink(key) for key in list(self.keys()))
        self.index.rewrite({})
        return dropped

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __repr__(self) -> str:
        return f"<ResultStore {self.root} ({len(self)} entries)>"
