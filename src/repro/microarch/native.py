"""The compiled cache replay loop: C source, build cache and ctypes binding.

Every cache replay runs through one small C function,
:data:`REPLAY_SOURCE`, a line-for-line port of the scalar per-event loop
kept in ``tests/reference_replay.py`` as its oracle.  It is compiled on
first use with ``cc -O2 -shared -fPIC`` and loaded with :mod:`ctypes`;
there is no fallback implementation, so a host without a C compiler
fails with :class:`~repro.errors.ReplayKernelError` on the first replay.

The shared object is cached per user in ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``, created with mode 0700), named by a sha256
of the source, the flags and the compiler's identity (its resolved path,
size and modification time, read without running it).  A warm process
therefore loads the cached library without spawning anything, and a
compiler upgrade or a source change builds a new one.  Builds write to
a temporary file in the cache directory and ``os.replace`` it into
place, so concurrent processes filling an empty cache all succeed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.errors import ReplayKernelError

__all__ = ["CFLAGS", "COMPILER", "REPLAY_SOURCE", "replay_events"]

#: Policy codes shared with the C source.
POLICY_LRU, POLICY_LRR, POLICY_RANDOM = 0, 1, 2

COMPILER = "cc"
CFLAGS = ("-O2", "-shared", "-fPIC")

REPLAY_SOURCE = r"""
#include <stdint.h>

/* Replay set-grouped potential-miss events against one cache geometry.
   tags/age are (sets, ways) row-major, fifo is per set; an event without
   a read has first_read == accesses.  Returns read and write misses. */
void replay_events(int64_t events, const int64_t *set_index, const int64_t *tag,
                   const int64_t *first_read, const int64_t *last_pos,
                   const int64_t *w_pre, int64_t accesses, int64_t *tags,
                   int64_t *age, int64_t *fifo, const int64_t *victims,
                   int64_t tick0, int64_t ways, int64_t policy, int64_t *misses)
{
    int64_t read_misses = 0, write_misses = 0;
    for (int64_t e = 0; e < events; e++) {
        int64_t s = set_index[e], t = tag[e], w, victim = -1;
        int64_t *row = tags + s * ways, *row_age = age + s * ways;
        for (w = 0; w < ways && row[w] != t; w++)
            ;
        if (w < ways) {
            if (policy == 0)  /* LRU promotes on hit */
                row_age[w] = tick0 + last_pos[e];
            continue;
        }
        write_misses += w_pre[e];
        if (first_read[e] >= accesses)
            continue;  /* write-through, no write-allocate */
        read_misses++;
        for (w = 0; w < ways; w++)
            if (row[w] == -1) { victim = w; break; }
        if (victim < 0) {
            if (ways == 1) {
                victim = 0;
            } else if (policy == 0) {  /* LRU: first least recent way */
                victim = 0;
                for (w = 1; w < ways; w++)
                    if (row_age[w] < row_age[victim]) victim = w;
            } else if (policy == 1) {  /* LRR: FIFO pointer moves on eviction */
                victim = fifo[s];
                fifo[s] = (victim + 1) % ways;
            } else {  /* RANDOM: pre-drawn victim of the filling access */
                victim = victims[first_read[e]];
            }
        }
        row[victim] = t;
        row_age[victim] = tick0 + (policy == 0 ? last_pos[e] : first_read[e]);
    }
    misses[0] = read_misses;
    misses[1] = write_misses;
}
"""

_lock = threading.Lock()
_replay = None  # the bound C function, set on first use


def _cache_dir() -> Path:
    """Per-user directory holding compiled libraries."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _library_path() -> tuple:
    """``(compiler, path)``: the compiler to build with and the cached library.

    The name hashes the source, the flags and the compiler's resolved
    path, size and mtime, so no process is spawned to identify it.
    """
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise ReplayKernelError(
            f"no C compiler: {COMPILER!r} was not found on PATH; the cache "
            f"replay loop is compiled on first use and has no fallback")
    real = os.path.realpath(compiler)
    info = os.stat(real)
    key = hashlib.sha256("\0".join(
        [REPLAY_SOURCE, " ".join(CFLAGS), real, str(info.st_size),
         str(info.st_mtime_ns)]).encode()).hexdigest()
    return compiler, _cache_dir() / f"replay-{key[:24]}.so"


def _build(compiler: str, target: Path) -> None:
    fd, source = tempfile.mkstemp(prefix=".replay-", suffix=".c", dir=target.parent)
    output = source[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(REPLAY_SOURCE)
        done = subprocess.run([compiler, *CFLAGS, "-o", output, source],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise ReplayKernelError(
                f"{compiler} failed to build the replay loop:\n{done.stderr}")
        os.replace(output, target)
    finally:
        for leftover in (source, output):
            if os.path.exists(leftover):
                os.unlink(leftover)


def _load():
    global _replay
    with _lock:
        if _replay is None:
            import ctypes

            compiler, path = _library_path()
            # a library anyone else can replace would run their code here
            path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            info = path.parent.stat()
            if info.st_uid != os.getuid() or info.st_mode & 0o022:
                raise ReplayKernelError(
                    f"refusing to use {path.parent}: it must be owned by this "
                    f"user and not writable by group or others")
            if not path.exists():
                _build(compiler, path)
            try:
                function = ctypes.CDLL(str(path)).replay_events
            except (OSError, AttributeError) as exc:
                raise ReplayKernelError(
                    f"cannot load the replay loop from {path} ({exc}); "
                    f"delete the file to rebuild it") from exc
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            function.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr,
                                 ptr, i64, i64, i64, ptr]
            function.restype = None
            _replay = function
    return _replay


def _address(array: np.ndarray, shape: tuple, name: str, writeable=False) -> int:
    """Base address of a C-contiguous int64 array of ``shape`` (else raise)."""
    if (not isinstance(array, np.ndarray) or array.dtype != np.int64
            or array.shape != shape or not array.flags.c_contiguous
            or (writeable and not array.flags.writeable)):
        raise ReplayKernelError(
            f"{name} must be a {'writeable ' if writeable else ''}C-contiguous "
            f"int64 array of shape {shape}, got {getattr(array, 'dtype', None)} "
            f"{getattr(array, 'shape', None)}")
    return array.ctypes.data


def replay_events(sv, accesses: int, tags: np.ndarray, age: np.ndarray,
                  fifo: np.ndarray, victims, tick0: int, lines_per_way: int,
                  ways: int, policy: int) -> tuple:
    """Run the compiled loop over one set view; returns ``(read, write)`` misses.

    The C code trusts its indices, so every array is checked here once
    per call: int64, C-contiguous, state shaped ``(lines_per_way, ways)``,
    FIFO pointers in range and victims (RANDOM with more than one way
    only) one per access.  The set view's own indices are in range by
    construction (``set_index < lines_per_way``, ``first_read <=
    accesses``).
    """
    events = (len(sv.set_index),)
    lines = (lines_per_way,)
    arguments = [_address(getattr(sv, name), events, name)
                 for name in ("set_index", "tag", "first_read", "last_pos", "w_pre")]
    state = [_address(tags, lines + (ways,), "tags", True),
             _address(age, lines + (ways,), "age", True),
             _address(fifo, lines, "fifo", True)]
    if lines_per_way and (fifo.min() < 0 or fifo.max() >= ways):
        raise ReplayKernelError(f"fifo pointers must lie in [0, {ways})")
    if policy == POLICY_RANDOM and ways > 1:
        victim_address = _address(victims, (accesses,), "victims")
    else:
        victim_address = None
    misses = np.zeros(2, dtype=np.int64)
    _load()(events[0], *arguments, accesses, *state, victim_address, tick0, ways,
            policy, misses.ctypes.data)
    return int(misses[0]), int(misses[1])
