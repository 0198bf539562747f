"""The persistent result store: the cross-process tier of the result cache.

In-run caches (the trace cache, the walk memo) die with their process;
every new ``run_matrix`` invocation, CI job or serving worker starts cold.
This store persists finished query answers -- serialised
:class:`~repro.engine.metrics.RunResult` docs -- on disk, keyed by the
**canonical content digest** of the query that produced them
(:func:`repro.obs.manifest.canonical_digest` over program + topology +
strategy + engine + seed + version tokens).  A warm store answers a
repeated what-if query without building, compiling or walking anything.

Design constraints, in order:

*Soundness.*  A hit must be indistinguishable from recomputation.  The
key therefore must capture every input that can change the answer; the
serving layer builds it from canonical digests only (never object ids,
never dict-order-dependent JSON).  Two version tokens are baked into
every entry and checked on read:

* :data:`STORE_VERSION` -- the on-disk layout (bump on format change;
  entries live under a ``v<N>`` directory so old layouts are simply
  ignored);
* :data:`RESULT_LOGIC_VERSION` -- the simulation/memo semantics.  Bump
  this whenever engine observable behaviour changes (the same rule that
  governs :func:`repro.engine.walk_memo.eligible` soundness): a stale
  entry from older semantics then misses instead of lying.

*Crash/corruption safety.*  Writes go to a same-directory temp file and
``os.replace`` into place -- readers never observe a partial entry.  Every
entry embeds a SHA-256 of its payload bytes; truncated, garbage or
bit-flipped entries fail closed (treated as a miss, deleted, recomputed),
never crash the caller.

*Bounded size.*  The store is LRU by file mtime (reads touch their
entry); when the byte budget (``max_bytes``, default 512 MiB) is
exceeded after a write, oldest entries are evicted until under budget.
Eviction tolerates concurrent deleters.

Observability: ``store.get{outcome=hit|miss|corrupt}``, ``store.put``,
``store.evict`` counters on the session passed in (or the process-wide
one).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from repro import obs

__all__ = [
    "STORE_VERSION",
    "RESULT_LOGIC_VERSION",
    "ResultStore",
    "DEFAULT_STORE_BYTES",
]

#: On-disk layout version: entries live under ``<root>/v<STORE_VERSION>``.
STORE_VERSION = 1

#: Simulation-semantics version token, part of every entry and of the
#: serving layer's query digest.  Bump when observable engine results
#: change (new traffic accounting, walk-memo soundness rule changes, ...)
#: so persisted answers from older semantics can never be replayed.
RESULT_LOGIC_VERSION = 1

_ENTRY_SCHEMA = "repro-result-store-entry-v1"


#: The default byte budget, 512 MiB (``repro serve --store-mb`` sets another).
DEFAULT_STORE_BYTES = 512 * 1024 * 1024


def _payload_sha(payload_bytes: bytes) -> str:
    return hashlib.sha256(payload_bytes).hexdigest()


class ResultStore:
    """Digest-keyed persistent store of JSON result payloads.

    ``root`` is the store directory (created on demand); entries live in a
    version subdirectory so layout bumps never misread old files.  All
    methods are safe under concurrent readers/writers in other processes:
    the worst cross-process race outcome is a redundant recompute or a
    double write of identical content, never a torn read.
    """

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
        logic_version: int = RESULT_LOGIC_VERSION,
        session=None,
    ):
        self.root = root
        self.dir = os.path.join(root, f"v{STORE_VERSION}")
        self.max_bytes = DEFAULT_STORE_BYTES if max_bytes is None else max_bytes
        self.logic_version = logic_version
        self._session = session
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.puts = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _obs(self):
        return self._session if self._session is not None else obs.current()

    def _path(self, digest: str) -> str:
        if not digest or any(c in digest for c in "/\\."):
            raise ValueError(f"bad store digest {digest!r}")
        return os.path.join(self.dir, f"{digest}.json")

    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[dict]:
        """The payload stored under ``digest``, or ``None``.

        Corrupt entries (unparseable JSON, schema/key/sha mismatch, stale
        logic version) are deleted and reported as a miss -- the caller
        recomputes and overwrites; nothing ever propagates a bad payload.
        """
        session = self._obs()
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            self.misses += 1
            session.counters.inc("store.get", outcome="miss")
            return None
        payload = self._decode(digest, raw)
        if payload is None:
            self.corrupt += 1
            session.counters.inc("store.get", outcome="corrupt")
            self._remove(path)
            return None
        # LRU touch: reads refresh mtime so eviction order tracks use.
        try:
            os.utime(path, None)
        except OSError:
            pass
        self.hits += 1
        session.counters.inc("store.get", outcome="hit")
        return payload

    def _decode(self, digest: str, raw: bytes) -> Optional[dict]:
        """Parse + verify one entry; ``None`` marks it corrupt/stale."""
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != _ENTRY_SCHEMA:
            return None
        if entry.get("store_version") != STORE_VERSION:
            return None
        if entry.get("logic_version") != self.logic_version:
            return None
        if entry.get("key") != digest:
            return None
        payload = entry.get("payload")
        sha = entry.get("sha256")
        if payload is None or not isinstance(sha, str):
            return None
        payload_bytes = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        if _payload_sha(payload_bytes) != sha:
            return None
        return payload

    # ------------------------------------------------------------------
    def put(self, digest: str, payload: dict) -> None:
        """Persist ``payload`` under ``digest`` atomically, then evict LRU.

        The temp file lives in the store directory so ``os.replace`` is a
        same-filesystem atomic rename; concurrent writers of one digest
        race benignly (both write identical verified content, last rename
        wins).
        """
        session = self._obs()
        path = self._path(digest)  # validates the digest before any I/O
        os.makedirs(self.dir, exist_ok=True)
        payload_bytes = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        entry = {
            "schema": _ENTRY_SCHEMA,
            "store_version": STORE_VERSION,
            "logic_version": self.logic_version,
            "key": digest,
            "sha256": _payload_sha(payload_bytes),
            "payload": payload,
        }
        data = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        fd, tmp = tempfile.mkstemp(
            prefix=f".{digest[:16]}.", suffix=".tmp", dir=self.dir
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            self._remove(tmp)
            raise
        self.puts += 1
        session.counters.inc("store.put")
        self._evict(session)

    # ------------------------------------------------------------------
    def _entries(self) -> List[Tuple[float, int, str]]:
        """(mtime, size, path) for every committed entry; tolerant of races."""
        out = []
        try:
            names = os.listdir(self.dir)
        except (FileNotFoundError, NotADirectoryError):
            return out
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, path))
        return out

    def _evict(self, session=None) -> None:
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        if session is None:
            session = self._obs()
        # Oldest-first; keep at least the newest entry so a single payload
        # larger than the whole budget still caches (mirrors TraceCache).
        entries.sort()
        for _, size, path in entries[:-1]:
            if total <= self.max_bytes:
                break
            if self._remove(path):
                total -= size
                self.evictions += 1
                session.counters.inc("store.evict")

    @staticmethod
    def _remove(path: str) -> bool:
        try:
            os.remove(path)
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    def clear(self) -> None:
        for _, _, path in self._entries():
            self._remove(path)

    def __len__(self) -> int:
        return len(self._entries())

    @property
    def stored_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
            "evictions": self.evictions,
            "entries": len(self),
            "bytes": self.stored_bytes,
        }
