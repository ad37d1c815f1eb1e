"""Unit tests for the content-addressed artifact cache."""

import json
import os
import subprocess
import sys

import pytest

from repro.storage.artifacts import (
    ArtifactStore,
    artifact_key,
    canonical_json,
    content_digest,
)
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries


def make_frame(values=(1.0, 2.0, 3.0), region="region-0", backup_start=0):
    frame = LoadFrame(5)
    metadata = ServerMetadata(
        server_id="srv-1", region=region, default_backup_start=backup_start
    )
    frame.add_server(metadata, LoadSeries.from_values(list(values)))
    return frame


class TestArtifactKey:
    def test_key_is_stable(self):
        key_a = artifact_key("features", "abc", {"bound": 10, "threshold": 0.9})
        key_b = artifact_key("features", "abc", {"threshold": 0.9, "bound": 10})
        assert key_a == key_b
        assert key_a.startswith("features-")

    def test_key_changes_with_stage_input_and_params(self):
        base = artifact_key("features", "abc", {"bound": 10})
        assert artifact_key("train", "abc", {"bound": 10}) != base
        assert artifact_key("features", "abd", {"bound": 10}) != base
        assert artifact_key("features", "abc", {"bound": 11}) != base


class TestFrameContentHash:
    def test_hash_is_deterministic_and_order_insensitive(self):
        frame_a = LoadFrame(5)
        frame_b = LoadFrame(5)
        meta_1 = ServerMetadata(server_id="a")
        meta_2 = ServerMetadata(server_id="b")
        series = LoadSeries.from_values([1.0, 2.0])
        frame_a.add_server(meta_1, series)
        frame_a.add_server(meta_2, series)
        frame_b.add_server(meta_2, series)
        frame_b.add_server(meta_1, series)
        assert frame_a.content_hash() == frame_b.content_hash()

    def test_hash_changes_on_value_change(self):
        assert make_frame((1.0, 2.0, 3.0)).content_hash() != make_frame(
            (1.0, 2.0, 3.5)
        ).content_hash()

    def test_hash_changes_on_metadata_change(self):
        assert make_frame(backup_start=0).content_hash() != make_frame(
            backup_start=60
        ).content_hash()


def entry_path(cache_dir, key):
    stage, _, sha = key.rpartition("-")
    return cache_dir / stage / f"{sha}.json"


class TestArtifactStoreHitMiss:
    def test_miss_then_hit(self, tmp_path):
        store = ArtifactStore.at(tmp_path)
        key = artifact_key("features", "hash", {})
        assert store.get(key) is None
        store.put(key, {"value": [1, 2, 3]})
        assert store.get(key) == {"value": [1, 2, 3]}
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.puts == 1
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_content_change_misses(self, tmp_path):
        store = ArtifactStore.at(tmp_path)
        store.put(artifact_key("features", make_frame((1.0,)).content_hash(), {}), {"x": 1})
        changed_key = artifact_key("features", make_frame((2.0,)).content_hash(), {})
        assert store.get(changed_key) is None

    def test_per_stage_counters(self, tmp_path):
        store = ArtifactStore.at(tmp_path)
        store.put(artifact_key("a_stage", "h", {}), {"x": 1})
        store.get(artifact_key("a_stage", "h", {}))
        store.get(artifact_key("b_stage", "h", {}))
        assert store.stats.hits_by_stage == {"a_stage": 1}
        assert store.stats.misses_by_stage == {"b_stage": 1}

    @pytest.mark.parametrize("key", ["", "../x", "a/b-" + "0" * 64, "s-" + "0" * 63, "s-" + "G" * 64])
    def test_keys_that_are_not_stage_dash_sha256_are_rejected_before_any_io(self, tmp_path, key):
        store = ArtifactStore.at(tmp_path / "cache")
        with pytest.raises(ValueError, match="artifact key"):
            store.get(key)
        with pytest.raises(ValueError, match="artifact key"):
            store.put(key, {"x": 1})
        assert list(tmp_path.iterdir()) == []
        assert store.stats.lookups == 0 and store.stats.puts == 0


def _truncate(raw: bytes) -> bytes:
    return raw[: len(raw) // 2]


def _flip_one_byte(raw: bytes) -> bytes:
    return raw[:-2] + bytes([raw[-2] ^ 0x01]) + raw[-1:]


def _other_envelope_version(raw: bytes) -> bytes:
    head, _, body = raw.partition(b"\n")
    header = json.loads(head)
    header["v"] += 1
    return canonical_json(header).encode() + b"\n" + body


class TestCorruptionFallback:
    @pytest.mark.parametrize(
        "damage",
        [
            _truncate,
            _flip_one_byte,
            _other_envelope_version,
            lambda raw: b"not json at all",
            lambda raw: b'["no header"]\n{}',
        ],
        ids=["truncated", "byte-flip", "other-version", "garbage", "no-header"],
    )
    def test_damaged_entry_is_a_counted_miss_evicted_and_healed_by_put(self, tmp_path, damage):
        writer = ArtifactStore.at(tmp_path)
        keys = [artifact_key("features", f"h{i}", {}) for i in range(3)]
        for index, key in enumerate(keys):
            writer.put(key, {"x": index, "series": [0.5] * 50})
        victim = entry_path(tmp_path, keys[1])
        victim.write_bytes(damage(victim.read_bytes()))

        store = ArtifactStore.at(tmp_path)
        assert store.get(keys[1]) is None
        assert store.stats.corrupt_entries == 1
        assert store.stats.failed_evictions == 0
        assert not victim.exists()
        # Damage costs that one entry: its neighbours still hit ...
        assert store.get(keys[0]) == {"x": 0, "series": [0.5] * 50}
        assert store.get(keys[2]) == {"x": 2, "series": [0.5] * 50}
        # ... a second lookup is a plain miss, and a re-put heals it.
        assert store.get(keys[1]) is None
        assert store.stats.corrupt_entries == 1
        store.put(keys[1], {"x": 3})
        assert store.get(keys[1]) == {"x": 3}

    def test_unreadable_entry_and_failed_eviction_are_recorded_not_swallowed(self, tmp_path):
        # An entry that cannot even be read (here: a directory sits at its
        # path) must still read as a miss, and the eviction that fails on
        # it must be visible in stats rather than silently dropped.
        store = ArtifactStore.at(tmp_path)
        key = artifact_key("features", "h", {})
        entry_path(tmp_path, key).mkdir(parents=True)
        assert store.get(key) is None
        assert store.stats.corrupt_entries == 1
        assert store.stats.failed_evictions == 1
        assert store.stats.as_dict()["failed_evictions"] == 1

    def test_a_failed_read_of_a_healthy_entry_is_a_plain_miss_and_keeps_it(self, tmp_path, monkeypatch):
        # EACCES / EMFILE / EIO say nothing about the bytes on disk.
        store = ArtifactStore.at(tmp_path)
        key = artifact_key("features", "h", {})
        store.put(key, {"x": 1})

        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))

        with monkeypatch.context() as patched:
            patched.setattr("pathlib.Path.read_bytes", denied)
            assert store.get(key) is None
        assert (store.stats.misses, store.stats.corrupt_entries) == (1, 0)
        assert store.get(key) == {"x": 1}

    def test_leftover_tmp_file_is_never_served_and_does_not_block_a_put(self, tmp_path):
        # What a writer killed between write and rename leaves behind.
        store = ArtifactStore.at(tmp_path)
        key, other = artifact_key("features", "h", {}), artifact_key("features", "g", {})
        store.put(other, {"x": "complete and valid"})
        final = entry_path(tmp_path, key)
        leftover = final.with_name(final.name + ".tmp-4242-deadbeef")
        leftover.write_bytes(entry_path(tmp_path, other).read_bytes())
        assert store.get(key) is None
        assert store.stats.corrupt_entries == 0
        store.put(key, {"x": 1})
        assert store.get(key) == {"x": 1}

    def test_a_bug_inside_the_store_is_not_read_as_a_miss(self, tmp_path, monkeypatch):
        store = ArtifactStore.at(tmp_path)
        key = artifact_key("features", "h", {})
        store.put(key, {"x": 1})

        def broken_decode(raw):
            raise RuntimeError("programming error")

        monkeypatch.setattr("repro.storage.artifacts._decode", broken_decode)
        with pytest.raises(RuntimeError, match="programming error"):
            store.get(key)
        assert entry_path(tmp_path, key).exists()


_WRITER = """
import sys
from repro.storage.artifacts import ArtifactStore, artifact_key

cache_dir, writer, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = ArtifactStore.at(cache_dir)
for i in range(count):
    store.put(artifact_key("shared", str(i), {}), {"i": i, "blob": "x" * 50_000})
    store.put(artifact_key("own", writer + str(i), {}), {"writer": writer, "i": i})
"""


class TestConcurrentWriters:
    def test_processes_sharing_one_directory_never_expose_a_partial_entry(self, tmp_path):
        # More writers than this host may have cores, all putting the same
        # keys with the same payloads plus keys of their own, while this
        # process reads: every get is a miss or a whole, checksum-valid
        # payload -- never a torn one.
        writers, count = ("a", "b", "c"), 40
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        procs = [
            subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path), name, str(count)], env=env)
            for name in writers
        ]
        reader = ArtifactStore.at(tmp_path)
        shared = [artifact_key("shared", str(i), {}) for i in range(count)]
        try:
            while any(proc.poll() is None for proc in procs):
                for i, key in enumerate(shared):
                    assert reader.get(key) in (None, {"i": i, "blob": "x" * 50_000})
        finally:
            for proc in procs:
                assert proc.wait(timeout=60) == 0
        assert reader.stats.corrupt_entries == 0

        third = ArtifactStore.at(tmp_path)
        for i, key in enumerate(shared):
            assert third.get(key) == {"i": i, "blob": "x" * 50_000}
        for name in writers:
            for i in range(count):
                assert third.get(artifact_key("own", name + str(i), {})) == {"writer": name, "i": i}
        assert third.stats.misses == 0 and third.stats.corrupt_entries == 0
        assert not list(tmp_path.rglob("*.tmp-*"))


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_roundtrip_exact(self):
        value = 0.1 + 0.2
        assert json.loads(canonical_json({"v": value}))["v"] == value

    def test_content_digest_str_bytes_agree(self):
        assert content_digest("abc") == content_digest(b"abc")
