"""The compiled simulation library's build cache.

The library (the functional simulator's interpreter loop and the cache
replay loops) is compiled on first use into a per-user cache keyed by the
source, the flags and the compiler, then loaded with ctypes.  These tests
run fresh interpreters against a private ``XDG_CACHE_HOME`` and count
compiler runs through a logging ``cc`` wrapper placed first on ``PATH``.
"""

import os
import shutil
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.errors import ReplayKernelError
from repro.isa import Assembler
from repro.microarch import FunctionalSimulator, native
from repro.microarch.cache import CacheConfig
from repro.microarch.cachekernel import decode_trace, simulate_many
from repro.microarch.memory import Memory

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

REPLAY_ONCE = textwrap.dedent("""
    import numpy as np
    from repro.microarch.cache import CacheConfig
    from repro.microarch.cachekernel import decode_trace, simulate_many
    view = decode_trace(np.arange(0, 4096, 4, dtype=np.int64), linesize_bytes=16)
    [stats] = simulate_many(view, [CacheConfig(ways=2, setsize_kb=1, linesize_words=4)])
    assert stats.read_misses == 256, stats
""")


@pytest.fixture
def logging_compiler(tmp_path):
    """A ``cc`` that appends a line to a log, then runs the real compiler."""
    real = shutil.which(native.COMPILER)
    if real is None:
        pytest.skip("no C compiler on PATH")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    log = tmp_path / "cc.log"
    wrapper = bindir / native.COMPILER
    wrapper.write_text(f"#!/bin/sh\necho run >> '{log}'\nsleep 0.2\nexec '{real}' \"$@\"\n")
    wrapper.chmod(wrapper.stat().st_mode | stat.S_IXUSR)
    return bindir, log


def child_env(cache_home, path=None):
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache_home))
    if path is not None:
        env["PATH"] = path
    return env


def built_libraries(cache_home):
    directory = cache_home / "repro"
    return sorted(os.listdir(directory)) if directory.exists() else []


def replay_once():
    """Decode a short trace and replay it: the decode is the first native call."""
    view = decode_trace(np.arange(0, 64, 4, dtype=np.int64), linesize_bytes=16)
    simulate_many(view, [CacheConfig(ways=1, setsize_kb=1, linesize_words=4)])


def run_child(code, env):
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)


def test_cold_cache_compiles_once_and_later_processes_reuse_it(tmp_path,
                                                              logging_compiler):
    bindir, log = logging_compiler
    env = child_env(tmp_path / "cache", f"{bindir}{os.pathsep}{os.environ['PATH']}")
    for _ in range(2):
        result = run_child(REPLAY_ONCE, env)
        assert result.returncode == 0, result.stderr
    assert log.read_text().splitlines() == ["run"]
    [library] = built_libraries(tmp_path / "cache")
    assert library.startswith("replay-") and library.endswith(".so")
    mode = stat.S_IMODE((tmp_path / "cache" / "repro").stat().st_mode)
    assert mode == 0o700


def test_concurrent_builds_into_an_empty_cache_all_succeed(tmp_path, logging_compiler):
    bindir, log = logging_compiler
    env = child_env(tmp_path / "cache", f"{bindir}{os.pathsep}{os.environ['PATH']}")
    children = [subprocess.Popen([sys.executable, "-c", REPLAY_ONCE], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True) for _ in range(2)]
    for child in children:
        _, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
    assert len(log.read_text().splitlines()) >= 1
    assert len(built_libraries(tmp_path / "cache")) == 1  # no temp files left


def test_missing_compiler_fails_with_a_clear_error(tmp_path, monkeypatch):
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_library", None)
    with pytest.raises(ReplayKernelError, match="'cc' was not found on PATH"):
        replay_once()
    assert built_libraries(tmp_path / "cache") == []


def test_missing_compiler_fails_the_first_simulation_clearly(tmp_path, monkeypatch):
    """The simulator makes the first native call of a cold run: it must fail
    with the same error, and leave its memory image closable."""
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_library", None)
    images = []
    for_program = Memory.for_program.__func__

    def recording(cls, program):
        images.append(for_program(cls, program))
        return images[-1]

    monkeypatch.setattr(Memory, "for_program", classmethod(recording))
    asm = Assembler("t")
    asm.set("g1", 7)
    asm.halt()
    with pytest.raises(ReplayKernelError, match="functional simulator"):
        FunctionalSimulator(asm.assemble()).run()
    [memory] = images
    memory.buffer.close()  # raises BufferError while a view is exported
    assert built_libraries(tmp_path / "cache") == []


def test_import_neither_compiles_nor_loads_the_library(tmp_path):
    probe = ("import repro, repro.engine, repro.service.server\n"
             "from repro.microarch import native\n"
             "assert native._library is None\n")
    result = run_child(probe, child_env(tmp_path / "cache"))
    assert result.returncode == 0, result.stderr
    assert not (tmp_path / "cache").exists()


def test_all_store_hit_tune_never_compiles(tmp_path):
    """The tune-warm shape: every measurement a store hit, nothing replayed."""
    store = tmp_path / "store.sqlite"
    tune = textwrap.dedent(f"""
        from repro import RUNTIME_OPTIMIZATION, MicroarchTuner
        from repro.engine import open_store
        from repro.microarch import native
        from repro.platform import LiquidPlatform
        from repro.workloads import ArithWorkload
        store = open_store({str(store)!r})
        MicroarchTuner(LiquidPlatform(store=store)).tune(
            ArithWorkload(iterations=120), RUNTIME_OPTIMIZATION, verify=True)
        store.close()
        print(native._library is None)
    """)
    cold = run_child(tune, child_env(tmp_path / "cold-cache"))
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout.split() == ["False"]
    warm = run_child(tune, child_env(tmp_path / "warm-cache"))
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout.split() == ["True"]
    assert not (tmp_path / "warm-cache").exists()


def test_a_corrupt_cached_library_fails_with_a_clear_error(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_library", None)
    _, path = native._library_path()
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a shared object")
    with pytest.raises(ReplayKernelError, match="delete the file to rebuild"):
        replay_once()


def test_a_shared_writable_cache_directory_is_refused(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_library", None)
    (tmp_path / "cache" / "repro").mkdir(parents=True)
    (tmp_path / "cache" / "repro").chmod(0o777)
    with pytest.raises(ReplayKernelError, match="not writable by group or others"):
        replay_once()
