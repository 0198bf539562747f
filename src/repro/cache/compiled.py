"""The native kernels: the launch walk of :class:`~repro.cache.array_lru.ArrayLRU`
and the per-threadblock L1 filter in front of it.

The simulator's answer is one sequential walk over the fused L2 sets:
probe the requester set, and on a miss of a remotely homed access probe
the home set too, filling per the RTWICE/RONCE insert masks.  Only the
accesses that miss each threadblock's L1 reach that walk.  ``_SOURCE``
holds both loops as C, ~60 lines: ``walk`` and ``l1_filter`` (an
always-insert, fully associative LRU per threadblock over dense sector
ids).  :func:`_walk_py` is the walk's line-for-line Python mirror -- the
no-compiler fallback and the kernel's executable spec; the filter's
fallback and spec is the trace's sequential filter
(``LaunchTrace._survivors_sequential``), so :func:`l1_filter`
raises instead of falling back.

Both functions live in one source, so there is one shared object, one
digest, one trust check and one fallback decision.  It is built with the
system C compiler on first use (never at import) and loaded through
:mod:`ctypes`, so it adds no Python dependency.
The shared object is cached under a digest of source, flags and platform in
this package's ``__pycache__`` (falling back to a per-user ``0700`` temp
directory), written through a same-directory temp file and ``os.replace``
so concurrent fork workers race safely.  A cache directory or cached object
is only used when it is a real directory/file (not a symlink) owned by this
user or root and writable by nobody else; anything else is skipped, never
loaded.  Without a reachable compiler -- or on any build or load failure --
:func:`load` returns None, :func:`walk` runs the mirror (same results,
Python speed), and :func:`backend_status` / :func:`fallback_reason` say
why.  :func:`forced_fallback` takes that path on purpose, so parity tests
and the fuzzer can exercise it on a host that has a compiler.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "backend_status", "fallback_reason", "forced_fallback", "l1_filter", "load", "walk",
]

_SOURCE = r"""
#include <stdint.h>

/* Probe one set; a hit refreshes the way's stamp, a miss fills the
   minimum-stamp way when `ins` (empty ways carry stamp 0 and fill first). */
static uint8_t probe(int64_t *tags, int64_t *stamp, int64_t assoc,
                     int64_t set, int64_t sec, uint8_t ins, int64_t now)
{
    int64_t *t = tags + set * assoc, *st = stamp + set * assoc;
    int64_t victim = 0, vmin = st[0];
    for (int64_t w = 0; w < assoc; w++) {
        if (t[w] == sec) { st[w] = now; return 1; }
        if (st[w] < vmin) { vmin = st[w]; victim = w; }
    }
    if (ins) { t[victim] = sec; st[victim] = now; }
    return 0;
}

/* Walk accesses order[0..n) in sequence: probe the requester set, and on a
   miss of a remotely homed access probe the home set too.  Outcomes land at
   the access's own index (outputs arrive zeroed); returns the advanced
   stamp clock. */
int64_t walk(int64_t n, const int64_t *order, int64_t assoc, int64_t clock,
             int64_t *tags, int64_t *stamp, const int64_t *sec,
             const int64_t *req_set, const int64_t *home_set,
             const uint8_t *local, const uint8_t *req_ins,
             const uint8_t *home_ins, uint8_t *req_hit, uint8_t *home_hit)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t i = order[k];
        uint8_t hit = probe(tags, stamp, assoc, req_set[i], sec[i],
                            req_ins[i], ++clock);
        req_hit[i] = hit;
        if (!hit && !local[i])
            home_hit[i] = probe(tags, stamp, assoc, home_set[i], sec[i],
                                home_ins[i], ++clock);
    }
    return clock;
}

/* The per-threadblock L1 filter: an always-insert, fully associative LRU
   of `capacity` entries over dense ids.  TB t's stream is
   ids[tb_off[t]..tb_off[t+1]); miss[i] is set when ids[i] is not resident
   (outputs arrive zeroed).  Residents form a doubly linked list, most
   recent first, through the prev/next scratch arrays; `in` marks them.
   A TB's list is cleared at its end, so `in` is all-zero for the next. */
void l1_filter(int64_t ntb, const int64_t *tb_off, const int64_t *ids,
               int64_t capacity, int64_t *prev, int64_t *next, uint8_t *in,
               uint8_t *miss)
{
    for (int64_t t = 0; t < ntb; t++) {
        int64_t head = -1, tail = -1, size = 0;
        for (int64_t i = tb_off[t]; i < tb_off[t + 1]; i++) {
            int64_t s = ids[i];
            if (s == head) continue;
            if (in[s]) {  /* unlink; s is not the head, so prev[s] >= 0 */
                next[prev[s]] = next[s];
                if (next[s] >= 0) prev[next[s]] = prev[s]; else tail = prev[s];
            } else {
                miss[i] = 1;
                in[s] = 1;
                if (size == capacity) {  /* evict the least recent */
                    in[tail] = 0;
                    tail = prev[tail];
                    if (tail >= 0) next[tail] = -1; else head = -1;
                } else {
                    size++;
                }
            }
            prev[s] = -1;
            next[s] = head;
            if (head >= 0) prev[head] = s; else tail = s;
            head = s;
        }
        for (int64_t s = head; s >= 0; s = next[s]) in[s] = 0;
    }
}
"""

#: Compiler looked up on ``PATH``; no ``-march=native``, so a cached object
#: stays valid on any host of the same platform.
_CC = "cc"
_FLAGS = ("-O2", "-shared", "-fPIC")

#: ``(library or None, status, reason)`` once :func:`load` has run.
_STATE: Optional[Tuple[Optional[ctypes.CDLL], str, str]] = None
_LOCK = threading.Lock()

#: True inside :func:`forced_fallback` (per thread and task context).
_FORCED = contextvars.ContextVar("repro_native_forced_fallback", default=False)


@contextlib.contextmanager
def forced_fallback() -> Iterator[None]:
    """Within the block, behave as if no kernel were available.

    :func:`load` returns None and :func:`backend_status` reports
    ``"fallback"``, so :func:`walk` runs the Python mirror -- the path a
    host without a C compiler takes -- with identical results.  Nothing is
    built or unloaded: the kernel is back when the block exits.
    """
    token = _FORCED.set(True)
    try:
        yield
    finally:
        _FORCED.reset(token)


def _digest() -> str:
    key = "\0".join((_SOURCE, " ".join(_FLAGS), sys.platform, platform.machine()))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _cache_dirs() -> List[str]:
    """Where the shared object may live, most preferred first."""
    return [
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__"),
        os.path.join(tempfile.gettempdir(), f"repro-native-{os.getuid()}"),
    ]


def _private(path: str, is_kind: Callable[[int], bool]) -> bool:
    """True when ``path`` itself (not a symlink) is of the wanted kind, owned
    by this user or root, and writable by neither group nor others."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    return (
        is_kind(st.st_mode)
        and st.st_uid in (os.getuid(), 0)
        and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _build(cc: str) -> Tuple[Optional[str], str]:
    """Path of the cached (or freshly built) shared object, or a reason."""
    name = f"_walk_{_digest()}.so"
    reasons = []
    for directory in _cache_dirs():
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
        except OSError as exc:
            reasons.append(f"cache dir {directory}: {exc.strerror or exc}")
            continue
        # Only a directory nobody else can write keeps its contents ours.
        if not _private(directory, stat.S_ISDIR):
            reasons.append(f"cache dir {directory}: not private to this user")
            continue
        path = os.path.join(directory, name)
        if os.path.lexists(path):
            if _private(path, stat.S_ISREG):
                return path, ""
            reasons.append(f"cached object {path}: not private to this user")
            continue
        try:
            fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
            os.close(fd)
        except OSError as exc:
            reasons.append(f"cache dir {directory}: {exc.strerror or exc}")
            continue
        try:
            proc = subprocess.run(
                [cc, *_FLAGS, "-x", "c", "-", "-o", tmp],
                input=_SOURCE.encode(),
                capture_output=True,
                timeout=60,
            )
            if proc.returncode != 0:
                err = proc.stderr.decode(errors="replace").strip().splitlines()
                return None, f"build failed: {err[-1] if err else proc.returncode}"
            os.chmod(tmp, 0o755)  # whatever the umask, never group-writable
            os.replace(tmp, path)
            return path, ""
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"build failed: {exc}"
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return None, "; ".join(reasons) or "no cache directory"


def _bind(path: str) -> ctypes.CDLL:
    """The loaded library with both kernels' signatures set (ctypes keeps
    one function object per symbol, so they stick)."""
    lib = ctypes.CDLL(path)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.walk.restype = i64
    lib.walk.argtypes = [i64, ptr, i64, i64] + [ptr] * 10
    lib.l1_filter.restype = None
    lib.l1_filter.argtypes = [i64, ptr, ptr, i64] + [ptr] * 4
    return lib


def _resolve() -> Tuple[Optional[ctypes.CDLL], str, str]:
    if not hasattr(os, "getuid"):
        return None, "fallback", "cache ownership cannot be checked on this platform"
    cc = shutil.which(_CC)
    if cc is None:
        return None, "fallback", f"no C compiler ({_CC!r} not on PATH)"
    path, reason = _build(cc)
    if path is None:
        return None, "fallback", reason
    try:
        return _bind(path), "native", ""
    except (OSError, AttributeError) as exc:
        return None, "fallback", f"load failed: {exc}"


def _state() -> Tuple[Optional[ctypes.CDLL], str, str]:
    global _STATE
    if _FORCED.get():
        return None, "fallback", "forced_fallback() is active"
    if _STATE is None:
        with _LOCK:
            if _STATE is None:
                _STATE = _resolve()
    return _STATE


def load() -> Optional[ctypes.CDLL]:
    """The kernels' ctypes library (``.walk``, ``.l1_filter``), building it
    on first call; None on fallback."""
    return _state()[0]


def backend_status() -> str:
    """``"native"`` when the kernel loaded, else ``"fallback"`` (resolves it)."""
    return _state()[1]


def fallback_reason() -> str:
    """Why the kernel is unavailable (empty when it is native)."""
    return _state()[2]


def _probe(tags, stamp, assoc, set_, sec, ins, now):
    """Mirror of the kernel's ``probe`` over flat lists (row ``set_``)."""
    base = set_ * assoc
    victim, vmin = base, stamp[base]
    for w in range(base, base + assoc):
        if tags[w] == sec:
            stamp[w] = now
            return 1
        if stamp[w] < vmin:
            vmin, victim = stamp[w], w
    if ins:
        tags[victim] = sec
        stamp[victim] = now
    return 0


def _walk_py(n, order, assoc, clock, tags, stamp, sec, req_set, home_set,
             local, req_ins, home_ins, req_hit, home_hit):
    """Mirror of the kernel's ``walk``: same arguments, lists for pointers."""
    for k in range(n):
        i = order[k]
        clock += 1
        hit = _probe(tags, stamp, assoc, req_set[i], sec[i], req_ins[i], clock)
        req_hit[i] = hit
        if not hit and not local[i]:
            clock += 1
            home_hit[i] = _probe(
                tags, stamp, assoc, home_set[i], sec[i], home_ins[i], clock
            )
    return clock


def walk(
    tags: np.ndarray,
    stamp: np.ndarray,
    clock: int,
    order: np.ndarray,
    sec: np.ndarray,
    req_set: np.ndarray,
    home_set: np.ndarray,
    local: np.ndarray,
    req_ins: np.ndarray,
    home_ins: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Walk ``order``; returns ``(req_hit, home_hit, clock)``.

    ``tags``/``stamp`` (C-contiguous int64, one row per set) are updated in
    place.  Outcome masks are aligned with ``sec`` (not with ``order``);
    accesses outside ``order`` read False.  Every index is bounds-checked
    here, before the kernel sees a pointer.  Runs the loaded kernel, or the
    Python mirror when :func:`load` is None.
    """
    n = sec.size
    num_sets, assoc = tags.shape
    ints = [np.ascontiguousarray(a, dtype=np.int64) for a in (order, sec, req_set, home_set)]
    flags = [np.ascontiguousarray(a, dtype=np.bool_) for a in (local, req_ins, home_ins)]
    for table in (tags, stamp):
        if table.dtype != np.int64 or not table.flags.c_contiguous or table.shape != tags.shape:
            raise SimulationError("walk kernel needs C-contiguous int64 tag/stamp tables")
    if any(a.size != n for a in ints[1:] + flags):
        raise SimulationError("walk kernel inputs differ in length")
    for a, bound in ((ints[0], n), (ints[2], num_sets), (ints[3], num_sets)):
        if a.size and (a.min() < 0 or a.max() >= bound):
            raise SimulationError("walk kernel index out of range")
    lib = load()
    if lib is None:
        t, st = tags.ravel().tolist(), stamp.ravel().tolist()
        o, s, rs, hs = (a.tolist() for a in ints)
        lo, ri, hi = (a.tolist() for a in flags)
        req_hit, home_hit = bytearray(n), bytearray(n)  # arrive zeroed
        clock = _walk_py(
            len(o), o, assoc, clock, t, st, s, rs, hs, lo, ri, hi,
            req_hit, home_hit,
        )
        tags.ravel()[:] = t
        stamp.ravel()[:] = st
        return (
            np.frombuffer(req_hit, dtype=np.bool_),
            np.frombuffer(home_hit, dtype=np.bool_),
            clock,
        )
    req_hit = np.zeros(n, dtype=np.bool_)
    home_hit = np.zeros(n, dtype=np.bool_)
    o, s, rs, hs = (a.ctypes.data for a in ints)
    lo, ri, hi = (a.ctypes.data for a in flags)
    clock = lib.walk(
        ints[0].size, o, assoc, clock, tags.ctypes.data,
        stamp.ctypes.data, s, rs, hs, lo, ri, hi,
        req_hit.ctypes.data, home_hit.ctypes.data,
    )
    return req_hit, home_hit, int(clock)


def l1_filter(
    ids: np.ndarray, tb_offsets: np.ndarray, nids: int, capacity: int
) -> np.ndarray:
    """Miss mask of the per-TB L1 filter over dense ``ids`` in ``[0, nids)``.

    Threadblock ``t`` owns ``ids[tb_offsets[t]:tb_offsets[t + 1]]``; each
    TB's filter starts empty.  Every input is checked here, before the
    kernel sees a pointer: ids in range, offsets non-decreasing from 0 to
    ``ids.size``, ``capacity >= 1``.  The kernel has no mirror in this
    module: with no kernel loaded this raises, and the caller runs its own
    sequential filter (``LaunchTrace._survivors_sequential``).
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    offs = np.ascontiguousarray(tb_offsets, dtype=np.int64)
    n, nids, capacity = ids.size, int(nids), int(capacity)
    if capacity < 1:
        raise SimulationError(f"L1 filter capacity must be >= 1, got {capacity}")
    if offs.ndim != 1 or offs.size < 1 or offs[0] != 0 or offs[-1] != n:
        raise SimulationError("L1 filter offsets must run from 0 to the stream length")
    if (np.diff(offs) < 0).any():
        raise SimulationError("L1 filter offsets must be non-decreasing")
    if nids < 0 or n and (ids.min() < 0 or ids.max() >= nids):
        raise SimulationError("L1 filter id out of range")
    lib = load()
    if lib is None:
        raise SimulationError(f"L1 filter kernel unavailable: {fallback_reason()}")
    prev = np.empty(nids, dtype=np.int64)
    nxt = np.empty(nids, dtype=np.int64)
    resident = np.zeros(nids, dtype=np.uint8)
    miss = np.zeros(n, dtype=np.bool_)
    lib.l1_filter(
        offs.size - 1, offs.ctypes.data, ids.ctypes.data, capacity,
        prev.ctypes.data, nxt.ctypes.data, resident.ctypes.data, miss.ctypes.data,
    )
    return miss
