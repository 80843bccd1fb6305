"""The cross-process tier: read-only numpy payloads in shared memory.

Before this tier, ``Target.__reduce__`` shipped *content* to every pool
worker and each worker re-ran the full analysis (Floyd–Warshall distance
tables, VIC matrices, cost-diagonal cut/phase vectors) into its own
private registry — N workers, N copies, N recomputations.  Here the
first process to materialise an artifact publishes it once into a
``multiprocessing.shared_memory`` block named after its content
fingerprint; every other process resolves the same block zero-copy and
wraps the raw buffer in read-only numpy views.

Block layout (offsets in bytes)::

    0      8   magic seal  b"RPRSTOR1"   -- written LAST
    8      8   header length H (little-endian uint64)
    16     H   JSON header {"arrays": [{name, dtype, shape, offset, nbytes}]}
    16+H  ...  raw array payloads at their stated offsets

The magic seal is written after everything else, so a reader that
attaches mid-publish (or after a publisher was killed) sees a missing
seal and treats the block as absent instead of decoding garbage.

Hazards this module is explicit about (CPython 3.11, Linux, fork):

* **Tracker-on-attach** (bpo-39959): ``SharedMemory(name=...)`` registers
  the segment with the resource tracker even when merely attaching, so a
  worker's exit would *unlink* blocks it never owned.  Attachers
  unregister themselves immediately after attach.
* **Fork inheritance**: children inherit the parent's ``_owned`` map; the
  atexit sweep is pid-guarded so only the creating process unlinks.
* **Exported views**: ``SharedMemory.close()`` raises ``BufferError``
  while numpy views reference the buffer; cleanup unlinks first and, when
  close fails, drops the segment object's own handles so the views alone
  keep the mapping alive.  The tier is therefore append-only — at
  capacity it stops publishing (counted) rather than evicting live
  segments out from under readers.
* **fd budget**: every attached segment holds a file descriptor, so the
  segment count is bounded (``REPRO_SHM_MAX_SEGMENTS``, default 128)
  alongside the byte budget (``REPRO_SHM_MAX_BYTES``, default 256 MiB).

Set ``REPRO_SHM_DISABLE=1`` to turn the tier off entirely (publish and
resolve become no-ops); callers must always keep a content fallback.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import struct
import threading
from typing import Dict, Optional

import numpy as np

__all__ = ["SharedArrayTier", "shared_tier"]

_MAGIC = b"RPRSTOR1"
_HEADER_AT = len(_MAGIC)
_PAYLOAD_AT = _HEADER_AT + 8  # magic + uint64 header length

_DEFAULT_MAX_SEGMENTS = 128
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _close_quiet(shm) -> None:
    try:
        shm.close()
    except BufferError:
        # Numpy views still export the mapping; they keep it alive until
        # they are gone, and process exit reclaims it.  Drop this object's
        # own handles so SharedMemory.__del__ has nothing left to close
        # (it would re-raise BufferError as an "Exception ignored").
        shm._buf = None
        shm._mmap = None
        if shm._fd >= 0:
            try:
                os.close(shm._fd)
            except OSError:
                pass
            shm._fd = -1
    except OSError:
        pass


def segment_name(key: str) -> str:
    """Map a content-fingerprint key to a /dev/shm-safe segment name."""
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
    return f"repro-store-{digest}"


class SharedArrayTier:
    """Publish/resolve named bundles of read-only numpy arrays.

    Content addressing makes coordination unnecessary: any process that
    computes an artifact may publish it, racing publishers write the
    same bytes, and ``FileExistsError`` on create simply means someone
    else won — we attach to their block instead.
    """

    def __init__(
        self,
        max_segments: Optional[int] = None,
        max_bytes: Optional[int] = None,
        enabled: Optional[bool] = None,
    ) -> None:
        if enabled is None:
            enabled = os.environ.get("REPRO_SHM_DISABLE", "").strip() not in (
                "1",
                "true",
                "yes",
            )
        if max_segments is None:
            max_segments = _env_int("REPRO_SHM_MAX_SEGMENTS", _DEFAULT_MAX_SEGMENTS)
        if max_bytes is None:
            max_bytes = _env_int("REPRO_SHM_MAX_BYTES", _DEFAULT_MAX_BYTES)
        self.enabled = enabled
        self.max_segments = max_segments
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # name -> (SharedMemory, owner_pid); only the owner pid unlinks.
        self._owned: Dict[str, tuple] = {}
        # name -> SharedMemory attached (not owned); kept alive so the
        # views handed out by resolve() stay valid.
        self._attached: Dict[str, object] = {}
        # key -> resolved {array_name: ndarray}; repeat resolves are free.
        self._resolved: Dict[str, Dict[str, np.ndarray]] = {}
        self._bytes = 0
        self._stats = {
            "publishes": 0,
            "publish_skips": 0,
            "publish_errors": 0,
            "hits": 0,
            "attach_hits": 0,
            "misses": 0,
            "torn": 0,
        }
        self._atexit_registered = False

    # ------------------------------------------------------------------
    # publish
    # ------------------------------------------------------------------
    def publish(self, key: str, arrays: Dict[str, np.ndarray]) -> bool:
        """Publish a bundle of arrays under ``key``.

        Returns True when the bundle is available in shared memory after
        the call (whether this process published it or another already
        had).  Returns False when the tier is disabled, over budget, or
        the OS refused — callers keep their private copy in that case.
        """
        if not self.enabled or not arrays:
            return False
        name = segment_name(key)
        with self._lock:
            if name in self._owned or name in self._attached:
                return True
            payload_bytes = sum(int(a.nbytes) for a in arrays.values())
            if (
                len(self._owned) + len(self._attached) >= self.max_segments
                or self._bytes + payload_bytes > self.max_bytes
            ):
                self._stats["publish_skips"] += 1
                return False

        header_entries = []
        offset = 0
        contiguous = {}
        for arr_name, arr in arrays.items():
            flat = np.ascontiguousarray(arr)
            header_entries.append(
                {
                    "name": arr_name,
                    "dtype": str(flat.dtype),
                    "shape": list(flat.shape),
                    "offset": offset,
                    "nbytes": int(flat.nbytes),
                }
            )
            contiguous[arr_name] = flat
            offset += int(flat.nbytes)
        header = json.dumps({"arrays": header_entries}).encode("utf-8")
        total = _PAYLOAD_AT + len(header) + offset

        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        except FileExistsError:
            # Another process won the race with identical content.
            return self.resolve(key) is not None
        except OSError:
            with self._lock:
                self._stats["publish_errors"] += 1
            return False

        buf = shm.buf
        for entry, arr_name in zip(header_entries, contiguous):
            start = _PAYLOAD_AT + len(header) + entry["offset"]
            buf[start : start + entry["nbytes"]] = contiguous[arr_name].tobytes()
        buf[_HEADER_AT:_PAYLOAD_AT] = struct.pack("<Q", len(header))
        buf[_PAYLOAD_AT : _PAYLOAD_AT + len(header)] = header
        # Seal last: a reader never trusts an unsealed block.
        buf[:_HEADER_AT] = _MAGIC

        with self._lock:
            self._owned[name] = (shm, os.getpid())
            self._bytes += total
            self._stats["publishes"] += 1
            self._ensure_atexit_locked()
        return True

    # ------------------------------------------------------------------
    # resolve
    # ------------------------------------------------------------------
    def resolve(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Return the read-only arrays published under ``key``, or None."""
        if not self.enabled:
            return None
        with self._lock:
            cached = self._resolved.get(key)
            if cached is not None:
                self._stats["hits"] += 1
                return cached

        name = segment_name(key)
        with self._lock:
            owned = self._owned.get(name)
        shm = owned[0] if owned else None
        freshly_attached = False
        if shm is None:
            from multiprocessing import shared_memory

            try:
                shm = shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, OSError):
                with self._lock:
                    self._stats["misses"] += 1
                return None
            freshly_attached = True
            # bpo-39959: 3.11 registers on attach too; without this the
            # resource tracker unlinks the block when *we* exit even
            # though we never owned it.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass

        arrays = self._decode(shm)
        if arrays is None:
            with self._lock:
                self._stats["torn"] += 1
                self._stats["misses"] += 1
            if freshly_attached:
                _close_quiet(shm)
            return None

        with self._lock:
            if freshly_attached:
                if name in self._attached or name in self._owned:
                    # Lost a resolve race with another thread; keep the
                    # first attachment, drop ours.  The views we decoded
                    # still reference this buffer, so close quietly.
                    _close_quiet(shm)
                else:
                    self._attached[name] = shm
                    self._bytes += shm.size
                    self._ensure_atexit_locked()
                self._stats["attach_hits"] += 1
            else:
                self._stats["hits"] += 1
            existing = self._resolved.get(key)
            if existing is not None:
                return existing
            self._resolved[key] = arrays
            return arrays

    @staticmethod
    def _decode(shm) -> Optional[Dict[str, np.ndarray]]:
        buf = shm.buf
        if len(buf) < _PAYLOAD_AT or bytes(buf[:_HEADER_AT]) != _MAGIC:
            return None
        (header_len,) = struct.unpack("<Q", bytes(buf[_HEADER_AT:_PAYLOAD_AT]))
        if _PAYLOAD_AT + header_len > len(buf):
            return None
        try:
            header = json.loads(bytes(buf[_PAYLOAD_AT : _PAYLOAD_AT + header_len]))
        except (ValueError, UnicodeDecodeError):
            return None
        arrays: Dict[str, np.ndarray] = {}
        base = _PAYLOAD_AT + header_len
        for entry in header.get("arrays", []):
            start = base + int(entry["offset"])
            nbytes = int(entry["nbytes"])
            if start + nbytes > len(buf):
                return None
            view = np.frombuffer(
                buf, dtype=np.dtype(entry["dtype"]), count=nbytes // np.dtype(entry["dtype"]).itemsize, offset=start
            ).reshape(entry["shape"])
            view.flags.writeable = False
            arrays[entry["name"]] = view
        return arrays

    # ------------------------------------------------------------------
    # lifecycle / telemetry
    # ------------------------------------------------------------------
    def _ensure_atexit_locked(self) -> None:
        if not self._atexit_registered:
            atexit.register(self.cleanup)
            self._atexit_registered = True

    def cleanup(self) -> None:
        """Unlink owned segments (pid-guarded) and drop attachments.

        Safe to call more than once; called automatically at interpreter
        exit.  Fork-inherited ``_owned`` entries belong to the parent and
        are skipped — only the creating pid unlinks.
        """
        pid = os.getpid()
        with self._lock:
            owned = dict(self._owned)
            attached = dict(self._attached)
            self._owned.clear()
            self._attached.clear()
            self._resolved.clear()
            self._bytes = 0
        for name, (shm, owner_pid) in owned.items():
            if owner_pid == pid:
                try:
                    shm.unlink()
                except (FileNotFoundError, OSError):
                    pass
            _close_quiet(shm)
        for shm in attached.values():
            _close_quiet(shm)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            out = dict(self._stats)
            out["segments"] = len(self._owned) + len(self._attached)
            out["owned"] = len(self._owned)
            out["bytes"] = self._bytes
            out["enabled"] = self.enabled
            out["max_segments"] = self.max_segments
            out["max_bytes"] = self.max_bytes
            return out


_TIER: Optional[SharedArrayTier] = None
_TIER_LOCK = threading.Lock()


def shared_tier() -> SharedArrayTier:
    """The process-global shared-memory tier (created on first use).

    Created in the parent before the pool forks, so workers inherit the
    same instance — their owned/attached maps diverge after fork, which
    is exactly what the pid-guarded cleanup expects.
    """
    global _TIER
    with _TIER_LOCK:
        if _TIER is None:
            _TIER = SharedArrayTier()
        return _TIER


def _reset_shared_tier() -> None:
    """Test hook: unlink everything and forget the singleton."""
    global _TIER
    with _TIER_LOCK:
        tier = _TIER
        _TIER = None
    if tier is not None:
        tier.cleanup()
