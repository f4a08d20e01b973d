"""The generic keyed artifact store: tiers, eviction, stats."""

import json
from dataclasses import dataclass

import pytest

from repro.store import ArtifactStore, StoreKey, StoreMiss


@dataclass(frozen=True)
class Key:
    name: str

    @property
    def slug(self) -> str:
        return self.name

    def as_meta(self) -> dict:
        return {"name": self.name}


def _write(path, value, meta):
    path.write_text(json.dumps({"value": value, "meta": meta}))
    return path


def _read(path):
    return json.loads(path.read_text())["value"]


def make_store(root, **kwargs):
    return ArtifactStore(root, write=_write, read=_read, **kwargs)


class TestTiers:
    def test_get_without_builder_misses(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(StoreMiss):
            store.get(Key("a"))

    def test_put_then_get_hits_memory(self, tmp_path):
        store = make_store(tmp_path)
        path = store.put(Key("a"), [1, 2])
        assert path.exists()
        assert store.get(Key("a")) == [1, 2]
        assert store.stats.memory_hits == 1
        assert store.stats.puts == 1

    def test_fresh_store_loads_from_disk(self, tmp_path):
        make_store(tmp_path).put(Key("a"), {"x": 1})
        fresh = make_store(tmp_path)
        assert fresh.get(Key("a")) == {"x": 1}
        assert fresh.stats.disk_loads == 1

    def test_meta_written_next_to_payload(self, tmp_path):
        store = make_store(tmp_path)
        path = store.put(Key("a"), 7)
        assert json.loads(path.read_text())["meta"] == {"name": "a"}

    def test_contains_and_entries(self, tmp_path):
        store = make_store(tmp_path)
        assert Key("a") not in store
        store.put(Key("a"), 1)
        store.put(Key("b"), 2)
        assert Key("a") in store
        assert store.entries() == ["a", "b"]

    def test_key_protocol(self):
        assert isinstance(Key("a"), StoreKey)


class TestEviction:
    def test_lru_eviction_keeps_disk(self, tmp_path):
        store = make_store(tmp_path, memory_capacity=2)
        for name in ("a", "b", "c"):
            store.put(Key(name), name)
        assert len(store) == 2
        assert store.stats.memory_evictions == 1
        # "a" was evicted from memory but survives on disk.
        assert store.get(Key("a")) == "a"
        assert store.stats.disk_loads == 1

    def test_get_refreshes_recency(self, tmp_path):
        store = make_store(tmp_path, memory_capacity=2)
        store.put(Key("a"), "a")
        store.put(Key("b"), "b")
        store.get(Key("a"))  # a is now most recent
        store.put(Key("c"), "c")  # evicts b, not a
        assert store.get(Key("a")) == "a"
        assert store.stats.disk_loads == 0

    def test_evict_memory_keeps_disk(self, tmp_path):
        store = make_store(tmp_path)
        store.put(Key("a"), 1)
        store.evict_memory()
        assert len(store) == 0
        assert store.get(Key("a")) == 1
        assert store.stats.disk_loads == 1

    def test_bad_capacity_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_store(tmp_path, memory_capacity=0)
