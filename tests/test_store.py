"""Tests for the sharded result store: the recency index, LRU garbage
collection, read-through roots, the one blob reader, and the
``repro cache`` CLI."""

import json
import os
import re

import pytest

from repro.engine import ResultStore, SimJob, StoreIndex
from repro.cli import main

#: Fabricated 64-hex keys (content is irrelevant to store mechanics).
K1 = "a" * 64
K2 = "b" * 64
K3 = "ab" + "c" * 62


def plant_root_level_blob(store, key):
    """A well-formed blob at ``<root>/<key>.json``, where caches put
    blobs before the store was sharded; the store must ignore it."""
    path = os.path.join(store.root, f"{key}.json")
    os.makedirs(store.root, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"key": key, "job": {}, "result": {"ipc": 1.0}}, fh)
    return path


def fake_job(workload="gap.bfs", seed=0, cap=8000):
    return SimJob(workload=workload, technique="conv", scale="tiny",
                  seed=seed, max_instructions=cap)


def plant_blob(store, key, payload=None):
    """Write a well-formed blob for ``key`` directly (no simulation),
    bypassing the index."""
    path = store.path_for(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    blob = {"key": key, "job": {}, "result": payload or {"ipc": 1.0}}
    with open(path, "w") as fh:
        json.dump(blob, fh)
    return path


class TestStoreIndex:
    def test_put_order_is_lru_order(self, tmp_path):
        index = StoreIndex(str(tmp_path / "index.jsonl"))
        index.put(K1, 10)
        index.put(K2, 20)
        assert list(index.load().items()) == [(K1, 10), (K2, 20)]

    def test_touch_moves_to_most_recent(self, tmp_path):
        index = StoreIndex(str(tmp_path / "index.jsonl"))
        index.put(K1, 10)
        index.put(K2, 20)
        index.touch(K1)
        assert list(index.load()) == [K2, K1]

    def test_touch_of_unknown_key_is_ignored(self, tmp_path):
        index = StoreIndex(str(tmp_path / "index.jsonl"))
        index.touch(K1)
        assert index.load() == {}

    def test_drop_removes(self, tmp_path):
        index = StoreIndex(str(tmp_path / "index.jsonl"))
        index.put(K1, 10)
        index.drop(K1)
        assert index.load() == {}

    def test_re_put_updates_size_and_recency(self, tmp_path):
        index = StoreIndex(str(tmp_path / "index.jsonl"))
        index.put(K1, 10)
        index.put(K2, 20)
        index.put(K1, 30)
        assert list(index.load().items()) == [(K2, 20), (K1, 30)]

    def test_garbage_records_are_skipped(self, tmp_path):
        path = tmp_path / "index.jsonl"
        index = StoreIndex(str(path))
        index.put(K1, 10)
        with open(path, "a") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"op": "put", "key": "short"}) + "\n")
            fh.write(json.dumps({"op": "warp", "key": K2}) + "\n")
        assert index.load() == {K1: 10}

    def test_rewrite_compacts(self, tmp_path):
        path = tmp_path / "index.jsonl"
        index = StoreIndex(str(path))
        for _ in range(5):
            index.put(K1, 10)
            index.touch(K1)
        index.rewrite(index.load())
        with open(path) as fh:
            assert len(fh.readlines()) == 1

    def test_missing_file_loads_empty(self, tmp_path):
        assert StoreIndex(str(tmp_path / "absent.jsonl")).load() == {}

    def test_entries_iterates_lru_order(self, tmp_path):
        index = StoreIndex(str(tmp_path / "index.jsonl"))
        index.put(K1, 10)
        index.put(K2, 20)
        index.touch(K1)
        index.put(K3, 5)
        assert list(index.entries()) == [(K2, 20), (K1, 10), (K3, 5)]

    def test_entries_matches_load(self, tmp_path):
        index = StoreIndex(str(tmp_path / "index.jsonl"))
        index.put(K1, 10)
        index.drop(K1)
        index.put(K2, 7)
        assert dict(index.entries()) == index.load()

    def test_entries_of_missing_file_is_empty(self, tmp_path):
        assert list(StoreIndex(str(tmp_path / "nope.jsonl")).entries()) \
            == []

    def test_concurrent_multiprocess_puts_never_tear(self, tmp_path):
        """4 processes hammering one index concurrently must leave a
        log whose folded view (entries()) sees every key exactly once
        with its final size — the single-write O_APPEND contract,
        this time through the StoreIndex record vocabulary."""
        import subprocess
        import sys
        path = str(tmp_path / "index.jsonl")
        script = (
            "import sys\n"
            "from repro.engine.store import StoreIndex\n"
            "path, worker = sys.argv[1], int(sys.argv[2])\n"
            "index = StoreIndex(path)\n"
            "for i in range(100):\n"
            "    key = f'{worker:02x}{i:04x}'.ljust(64, 'e')\n"
            "    index.put(key, worker * 1000 + i)\n"
            "    index.touch(key)\n"
        )
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   path, str(w)],
                                  env={**os.environ, "PYTHONPATH": "src"})
                 for w in range(4)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        entries = dict(StoreIndex(path).entries())
        assert len(entries) == 4 * 100
        for worker in range(4):
            for i in range(100):
                key = f"{worker:02x}{i:04x}".ljust(64, "e")
                assert entries[key] == worker * 1000 + i
        # Raw log: every line parses (no torn writes), 2 per put+touch.
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == 4 * 100 * 2


class TestShardedLayout:
    def test_blob_lands_in_shard_dir(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = fake_job()
        store.put_payload(job, {"x": 1})
        assert os.path.exists(
            tmp_path / job.key[:2] / f"{job.key}.json")
        assert store.get_payload(job) == {"x": 1}

    def test_put_indexes(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = fake_job()
        store.put_payload(job, {"x": 1})
        assert job.key in store.index.load()

    def test_stats_shape(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put_payload(fake_job(seed=1), {"x": 1})
        store.put_payload(fake_job(seed=2), {"x": 2})
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert stats["shards_max"] == 256
        assert 1 <= stats["shards_used"] <= 2
        assert stats["indexed"] == 2

    def test_root_level_blob_is_ignored(self, tmp_path):
        # A <key>.json directly in the root (the layout before sharding)
        # is no entry: never read, counted, evicted or cleared.
        store = ResultStore(str(tmp_path))
        job = fake_job()
        leftover = plant_root_level_blob(store, job.key)
        assert store.get_payload(job) is None
        assert not store.contains(job)
        assert list(store.keys()) == []
        assert store.stats()["entries"] == 0
        store.gc(max_bytes=0)
        store.clear()
        assert os.path.exists(leftover)


class TestGC:
    def test_evicts_lru_first(self, tmp_path):
        store = ResultStore(str(tmp_path))
        jobs = [fake_job(seed=s) for s in (1, 2, 3)]
        for job in jobs:
            store.put_payload(job, {"seed": job.seed})
        store.get_payload(jobs[0])      # touch: jobs[0] now MRU
        sizes = store._scan()
        keep = sizes[jobs[0].key] + sizes[jobs[2].key]
        summary = store.gc(max_bytes=keep)
        assert summary["evicted"] == 1
        assert store.get_payload(jobs[1]) is None       # LRU went
        assert store.get_payload(jobs[0]) is not None
        assert store.get_payload(jobs[2]) is not None

    def test_gc_noop_when_under_budget(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put_payload(fake_job(), {"x": 1})
        summary = store.gc(max_bytes=10**9)
        assert summary["evicted"] == 0
        assert summary["kept"] == 1

    def test_gc_to_zero_empties_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for s in (1, 2):
            store.put_payload(fake_job(seed=s), {"x": s})
        summary = store.gc(max_bytes=0)
        assert summary["kept"] == 0
        assert len(store) == 0
        assert store.index.load() == {}

    def test_unindexed_blobs_evict_before_indexed(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = fake_job()
        store.put_payload(job, {"x": 1})        # indexed
        plant_blob(store, K1)                   # never indexed
        sizes = store._scan()
        summary = store.gc(max_bytes=sizes[job.key])
        assert summary["evicted"] == 1
        assert store.get_payload(job) is not None
        assert not os.path.exists(store.path_for(K1))

    def test_reindex_recovers_lost_index(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for s in (1, 2):
            store.put_payload(fake_job(seed=s), {"x": s})
        os.unlink(store.index.path)
        assert store.reindex() == 2
        assert len(store.index.load()) == 2


class TestReadThrough:
    def test_miss_reads_through_and_localizes(self, tmp_path):
        warm = ResultStore(str(tmp_path / "warm"))
        job = fake_job()
        warm.put_payload(job, {"x": 42})
        local = ResultStore(str(tmp_path / "local"),
                            read_roots=[str(tmp_path / "warm")])
        assert local.get_payload(job) == {"x": 42}
        # Localized: a second read no longer needs the warm root.
        alone = ResultStore(str(tmp_path / "local"), read_roots=[])
        assert alone.get_payload(job) == {"x": 42}

    def test_read_roots_never_written(self, tmp_path):
        warm = ResultStore(str(tmp_path / "warm"))
        local = ResultStore(str(tmp_path / "local"),
                            read_roots=[str(tmp_path / "warm")])
        job = fake_job()
        local.put_payload(job, {"x": 1})
        assert warm.get_payload(job) is None

    def test_env_read_roots(self, tmp_path, monkeypatch):
        roots = os.pathsep.join([str(tmp_path / "a"), str(tmp_path / "b")])
        monkeypatch.setenv("REPRO_CACHE_READ_ROOTS", roots)
        store = ResultStore(str(tmp_path / "local"))
        assert store.read_roots == [str(tmp_path / "a"),
                                    str(tmp_path / "b")]

    def test_primary_root_excluded_from_read_roots(self, tmp_path):
        store = ResultStore(str(tmp_path),
                            read_roots=[str(tmp_path)])
        assert store.read_roots == []


class TestReadBlob:
    def test_read_blob_touches_neither_index_nor_read_roots(self,
                                                            tmp_path):
        # The surrogate harvest's contract: reading a blob leaves the
        # recency order alone and never reads through.
        warm = ResultStore(str(tmp_path / "warm"))
        plant_blob(warm, K3, payload={"x": 3})
        store = ResultStore(str(tmp_path / "local"),
                            read_roots=[str(tmp_path / "warm")])
        plant_blob(store, K1, payload={"x": 1})
        plant_blob(store, K2, payload={"x": 2})
        store.reindex()
        assert store.read_blob(K1)["result"] == {"x": 1}
        assert list(store.index.load()) == [K1, K2]
        assert store.read_blob(K3) is None
        assert not os.path.exists(store.path_for(K3))

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]",
                                         json.dumps({"key": K2})])
    def test_bad_blob_reads_as_none(self, tmp_path, content):
        store = ResultStore(str(tmp_path))
        path = plant_blob(store, K1)
        with open(path, "w") as fh:
            fh.write(content)
        assert store.read_blob(K1) is None


class TestMixedLayoutOps:
    def test_len_keys_count_both_layouts(self, tmp_path):
        store = ResultStore(str(tmp_path))
        plant_blob(store, K1)
        plant_blob(store, K3)
        assert len(store) == 2
        assert sorted(store.keys()) == sorted([K1, K3])

    def test_invalidate_flat_blob(self, tmp_path):
        # A root-level blob is not the job's entry: invalidate has
        # nothing to drop and leaves the file alone.
        store = ResultStore(str(tmp_path))
        job = fake_job()
        leftover = plant_root_level_blob(store, job.key)
        assert not store.invalidate(job)
        assert os.path.exists(leftover)

    def test_clear_drops_both_layouts(self, tmp_path):
        store = ResultStore(str(tmp_path))
        plant_blob(store, K1)
        plant_blob(store, K2)
        assert store.clear() == 2
        assert len(store) == 0


class TestCacheCLI:
    def test_stats(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        store.put_payload(fake_job(), {"x": 1})
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "1" in out

    def test_gc_requires_max_bytes(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 1
        assert "--max-bytes" in capsys.readouterr().err

    def test_gc_evicts(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        store.put_payload(fake_job(), {"x": 1})
        assert main(["cache", "gc", "--max-bytes", "0",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert len(store) == 0

    def test_migrate(self, tmp_path):
        # The store has one layout, so the action is gone.
        with pytest.raises(SystemExit):
            main(["cache", "migrate", "--cache-dir", str(tmp_path)])

    def test_stats_on_flat_layout(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        plant_root_level_blob(store, K1)
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path)]) == 0
        # A root-level blob is no entry.
        out = capsys.readouterr().out
        assert re.search(r"^entries +0$", out, re.MULTILINE)


class TestEngineIntegration:
    def test_engine_hit_through_sharded_store(self, tmp_path):
        from repro.engine import ExperimentEngine
        engine = ExperimentEngine(store=ResultStore(str(tmp_path)),
                                  jobs=1)
        job = fake_job(cap=6000)
        first = engine.run([job])[0]
        second = engine.run([job])[0]
        assert first.status == "ok" and second.status == "hit"
        a, b = first.result.to_dict(), second.result.to_dict()
        assert a == b   # hit serves the exact stored payload
