"""The artifact cache behind :class:`~repro.pipeline.run.ScenarioRun`.

Artifacts are stored under ``(stage name, fingerprint)``.  The memory
layer is a plain dict and is what makes warm re-runs within a process
instant; the optional disk layer (pickle files under ``cache_dir``)
carries artifacts across processes and sessions for the stages that opt
in via ``Stage.persist``.

A shared :class:`ArtifactCache` instance can back any number of
:class:`ScenarioRun` objects; fingerprints guarantee that runs only see
artifacts produced under an identical configuration.

A disk entry is :data:`MAGIC`, the sha256 of the pickle bytes, then the
pickle bytes; a reader checks both before it unpickles, so a flipped
bit, a short file or an entry of an older format is a miss.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, BinaryIO, Dict, Optional, Tuple

#: Cache-lookup outcomes recorded in run events.
STATUS_MEMORY = "memory"
STATUS_DISK = "disk"
STATUS_COMPUTED = "computed"

#: Format tag every disk entry starts with.
MAGIC = b"repro-artifact-cache 1\n"
#: Bytes before the pickle: the tag and the pickle's sha256 digest.
HEADER_SIZE = len(MAGIC) + hashlib.sha256().digest_size


class _HashingWriter:
    """A write-only file wrapper that hashes what passes through it."""

    def __init__(self, handle: BinaryIO) -> None:
        self.handle = handle
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        self.digest.update(data)
        return self.handle.write(data)


def write_entry(handle: BinaryIO, payload: Any) -> None:
    """Write *payload* as one disk entry: the header, then the pickle."""
    handle.write(MAGIC + bytes(HEADER_SIZE - len(MAGIC)))
    body = _HashingWriter(handle)
    pickle.dump(payload, body, protocol=pickle.HIGHEST_PROTOCOL)
    handle.seek(len(MAGIC))
    handle.write(body.digest.digest())


def read_entry(handle: BinaryIO) -> Any:
    """The payload of one disk entry; ``ValueError`` when the header is
    missing or short, or its digest does not match the pickle bytes."""
    header = handle.read(HEADER_SIZE)
    if len(header) < HEADER_SIZE or not header.startswith(MAGIC):
        raise ValueError("not an artifact cache entry")
    digest = hashlib.sha256()
    for chunk in iter(lambda: handle.read(1 << 20), b""):
        digest.update(chunk)
    if digest.digest() != header[len(MAGIC):]:
        raise ValueError("artifact cache entry digest mismatch")
    handle.seek(HEADER_SIZE)
    return pickle.load(handle)


class ArtifactCache:
    """Two-layer (memory + optional pickle-on-disk) artifact store."""

    def __init__(self, cache_dir: Optional[Path] = None) -> None:
        self._memory: Dict[Tuple[str, str], Any] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- lookup ---------------------------------------------------------------

    def get(self, stage_name: str, fingerprint: str,
            allow_disk: bool = True) -> Tuple[Optional[str], Any]:
        """Look up an artifact; returns ``(status, value)``.

        ``status`` is :data:`STATUS_MEMORY`, :data:`STATUS_DISK` or None
        (miss).  Disk hits are promoted into the memory layer.
        """
        key = (stage_name, fingerprint)
        if key in self._memory:
            return STATUS_MEMORY, self._memory[key]
        if allow_disk and self.cache_dir is not None:
            path = self._disk_path(stage_name, fingerprint)
            if path.is_file():
                try:
                    with path.open("rb") as handle:
                        payload = read_entry(handle)
                except Exception:
                    # Truncated, corrupt or headerless (e.g. written by
                    # an incompatible code version, or a partial write
                    # that predates the atomic-rename protocol): delete
                    # the entry so the next writer replaces it, and
                    # report a miss so the caller recomputes.
                    self._discard(path)
                    return None, None
                if isinstance(payload, dict) and \
                        payload.get("fingerprint") == fingerprint:
                    value = payload["artifact"]
                    self._memory[key] = value
                    return STATUS_DISK, value
                # A well-formed pickle with a different fingerprint is a
                # 32-hex-char prefix collision with another config, not
                # corruption — leave the other config's entry alone.
        return None, None

    def put(self, stage_name: str, fingerprint: str, value: Any,
            persist: bool = False) -> None:
        """Store an artifact (and write it to disk when *persist*)."""
        self._memory[(stage_name, fingerprint)] = value
        if persist and self.cache_dir is not None:
            path = self._disk_path(stage_name, fingerprint)
            # Per-process sidecar name so concurrent writers sharing the
            # directory never interleave into one file; the final rename
            # (``os.replace`` semantics) is atomic, so a concurrent
            # reader sees either the old complete file or the new one —
            # never a truncated pickle.  Last-writer-wins with identical
            # content.  A failed dump (unpicklable artifact, full disk)
            # removes the sidecar instead of leaving a partial file
            # around for a future process id to collide with.
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            try:
                with tmp.open("wb") as handle:
                    write_entry(handle, {"fingerprint": fingerprint,
                                         "artifact": value})
                    handle.flush()
                    os.fsync(handle.fileno())
            except BaseException:
                self._discard(tmp)
                raise
            os.replace(tmp, path)

    # -- maintenance ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, stage_name: str, fingerprint: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{stage_name}-{fingerprint[:32]}.pkl"

    @staticmethod
    def _discard(path: Path) -> None:
        """Best-effort unlink (a concurrent process may already have
        replaced or removed the file — both outcomes are fine)."""
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:
        where = f", dir={self.cache_dir}" if self.cache_dir else ""
        return f"ArtifactCache({len(self._memory)} artifacts{where})"
