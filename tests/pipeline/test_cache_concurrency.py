"""ArtifactCache disk-layer crash safety and cross-process races.

The disk layer's contract: a reader either sees a complete pickle or a
miss — never a partial file — and a corrupt entry (truncated write from
a crashed process, incompatible pickle) is deleted on read so the next
writer replaces it instead of every reader failing forever.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.pipeline.cache import HEADER_SIZE, STATUS_DISK, ArtifactCache

FP = "a" * 64  # a fingerprint-shaped key


def disk_path(cache: ArtifactCache) -> "os.PathLike":
    return cache._disk_path("stage", FP)


class TestCorruptEntries:
    def test_truncated_pickle_is_a_miss_and_deleted(self, tmp_path):
        writer = ArtifactCache(tmp_path)
        writer.put("stage", FP, {"payload": list(range(1000))}, persist=True)
        path = disk_path(writer)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        reader = ArtifactCache(tmp_path)
        status, value = reader.get("stage", FP)
        assert (status, value) == (None, None)
        assert not path.exists()  # deleted so the next put replaces it

        # ... and the recompute-and-put path repopulates it cleanly.
        reader.put("stage", FP, {"payload": "fresh"}, persist=True)
        status, value = ArtifactCache(tmp_path).get("stage", FP)
        assert status == STATUS_DISK
        assert value == {"payload": "fresh"}

    def test_garbage_bytes_are_a_miss_and_deleted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = disk_path(cache)
        path.write_bytes(b"not a pickle at all")
        assert cache.get("stage", FP) == (None, None)
        assert not path.exists()

    def test_fingerprint_prefix_collision_is_not_deleted(self, tmp_path):
        # A well-formed payload whose full fingerprint differs is another
        # config sharing the 32-hex filename prefix — not corruption.
        other_fp = FP[:32] + "b" * 32
        writer = ArtifactCache(tmp_path)
        writer.put("stage", other_fp, "other-config", persist=True)
        path = disk_path(writer)
        assert path.exists()

        reader = ArtifactCache(tmp_path)
        assert reader.get("stage", FP) == (None, None)
        assert path.exists()  # the other config's entry survives
        assert reader.get("stage", other_fp) == (STATUS_DISK, "other-config")

    def test_failed_put_leaves_no_partial_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(Exception):
            cache.put("stage", FP, lambda: None, persist=True)  # unpicklable
        assert list(tmp_path.iterdir()) == []  # no final file, no sidecar


def _racer(cache_dir: str, value_size: int, rounds: int,
           queue) -> None:
    """Hammer put/get on one (stage, fingerprint) pair; report failures."""
    try:
        expected = {"payload": list(range(value_size))}
        for _ in range(rounds):
            cache = ArtifactCache(cache_dir)  # fresh: no memory layer
            cache.put("stage", FP, expected, persist=True)
            status, value = ArtifactCache(cache_dir).get("stage", FP)
            # A concurrent writer may have replaced the file between our
            # put and get, but any observed hit must be COMPLETE and
            # equal (all writers store the same value); a miss is only
            # legal transiently and never a partial pickle.
            if status is not None and value != expected:
                queue.put(f"partial/garbled value observed: {status}")
                return
        queue.put(None)
    except BaseException as error:  # noqa: BLE001 - report, don't hang
        queue.put(f"{type(error).__name__}: {error}")


class TestCrossProcessRace:
    def test_two_processes_never_observe_partial_pickles(self, tmp_path):
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        workers = [
            context.Process(target=_racer,
                            args=(str(tmp_path), 20_000, 30, queue))
            for _ in range(2)]
        for worker in workers:
            worker.start()
        outcomes = [queue.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=30)
        assert outcomes == [None, None]
        # The survivors on disk are exactly one complete entry (any
        # leftover .tmp.<pid> sidecar would be an atomicity bug).
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [f"stage-{FP[:32]}.pkl"]
        with open(tmp_path / files[0], "rb") as handle:
            handle.seek(HEADER_SIZE)  # past the format tag and digest
            payload = pickle.load(handle)
        assert payload["fingerprint"] == FP
        assert payload["artifact"] == {"payload": list(range(20_000))}
