"""Test-time resource sanitizer (auto-enabled via the root conftest).

Every test is wrapped with before/after snapshots of the process-level
resources the runtime manipulates:

- **child processes** — ``multiprocessing.active_children()``; a cluster
  that is not stopped leaves its forked Conv nodes behind;
- **POSIX shm segments and named semaphores** — new ``/dev/shm`` entries
  (``psm_*`` segments, ``sem.*`` semaphores on Linux/glibc); the runtime
  creates none, so any new entry is a leak;
- **file descriptors** — ``/proc/self/fd`` count (worker pipes); a small
  tolerance absorbs interpreter-level caching.

A leak fails the test in its *call* phase (so ``xfail(strict=True)`` demo
tests cover the sanitizer itself), then the sanitizer cleans the leak up so
one bad test cannot cascade into later ones.  Mark a test with
``@pytest.mark.allow_leaks`` to opt out (e.g. when a paired follow-up test
cleans up deliberately-staged state).

This turns PR 3's one-off "leak-free shutdown" subprocess check into a
blanket guarantee across the whole suite.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import time
from contextlib import suppress
from multiprocessing import shared_memory

import pytest

SHM_DIR = "/dev/shm"
FD_DIR = "/proc/self/fd"

#: Allowed fd-count growth per test.  Legitimate one-time growth exists
#: (hypothesis opens its example database lazily, imports cache file
#: handles); real leaks — worker pipes — come in bigger
#: batches and recur.
FD_TOLERANCE = 4

#: How long to let async cleanup settle (queue feeder threads, zombie
#: reaping) before declaring a leak.
SETTLE_RETRIES = 4
SETTLE_SLEEP = 0.05


class ResourceLeakError(AssertionError):
    """Raised (in the test's call phase) when a test leaks resources."""


def _children() -> dict[int, mp.process.BaseProcess]:
    return {p.pid: p for p in mp.active_children() if p.pid is not None}


def _shm_entries() -> frozenset[str]:
    try:
        return frozenset(os.listdir(SHM_DIR))
    except OSError:
        return frozenset()


def _fd_count() -> int:
    try:
        return len(os.listdir(FD_DIR))
    except OSError:
        return -1


def _cleanup_children(procs: list[mp.process.BaseProcess]) -> None:
    for proc in procs:
        with suppress(Exception):
            proc.terminate()
    for proc in procs:
        with suppress(Exception):
            proc.join(timeout=2.0)


def _cleanup_shm(names: list[str]) -> None:
    for name in names:
        if name.startswith("sem."):
            with suppress(OSError):
                os.unlink(os.path.join(SHM_DIR, name))
            continue
        try:
            seg = shared_memory.SharedMemory(name=name)
        except OSError:
            continue
        with suppress(Exception):
            seg.unlink()
        with suppress(Exception):
            seg.close()


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "allow_leaks: skip the resource sanitizer for this test "
        "(it deliberately stages resources a paired test cleans up)",
    )


def pytest_sessionstart(session: pytest.Session) -> None:
    """Warm up multiprocessing internals before any per-test baseline.

    The resource-tracker process, queue machinery, and semaphore plumbing
    all allocate fds lazily on first use; creating them once here keeps
    the first mp-using test's fd delta honest.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        ctx = mp.get_context("fork")
        q = ctx.Queue()
        q.put(None)
        q.get(timeout=5.0)
        q.close()
        q.join_thread()
        ctx.Semaphore(1)
        if os.path.isdir(SHM_DIR):
            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
    except Exception:
        # No fork start method / no /dev/shm: the per-test checks still
        # work, they just see a slightly noisier first test.
        pass
    gc.collect()


def _leak_report(item: pytest.Item, children_before: dict, shm_before: frozenset[str],
                 fds_before: int) -> str | None:
    """Settle, diff against the baseline, clean any leaks, describe them."""
    leaked_children: list[mp.process.BaseProcess] = []
    leaked_shm: list[str] = []
    fd_growth = 0
    for attempt in range(SETTLE_RETRIES + 1):
        # Drop queue buffers / unclosed handles the test left to the GC, and
        # reap finished children, before comparing against the baseline.
        gc.collect()
        now_children = _children()
        leaked_children = [p for pid, p in now_children.items() if pid not in children_before]
        leaked_shm = sorted(_shm_entries() - shm_before)
        fds_now = _fd_count()
        fd_growth = (fds_now - fds_before) if (fds_now >= 0 and fds_before >= 0) else 0
        if not leaked_children and not leaked_shm and fd_growth <= FD_TOLERANCE:
            return None  # clean
        if attempt < SETTLE_RETRIES:
            time.sleep(SETTLE_SLEEP)

    problems: list[str] = []
    if leaked_children:
        desc = ", ".join(f"{p.name} (pid {p.pid})" for p in leaked_children)
        problems.append(f"leaked child process(es): {desc}")
    if leaked_shm:
        segs = [n for n in leaked_shm if not n.startswith("sem.")]
        sems = [n for n in leaked_shm if n.startswith("sem.")]
        if segs:
            problems.append(f"leaked POSIX shm segment(s): {', '.join(segs)}")
        if sems:
            problems.append(f"leaked named semaphore(s): {', '.join(sems)}")
    if fd_growth > FD_TOLERANCE:
        problems.append(
            f"file descriptor count grew by {fd_growth} (> tolerance {FD_TOLERANCE})"
        )

    # Clean up so one leaky test cannot poison every test after it.
    _cleanup_children(leaked_children)
    _cleanup_shm(leaked_shm)

    if not problems:
        return None
    return f"resource sanitizer: {item.nodeid} leaked resources — " + "; ".join(problems)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item: pytest.Item):
    if item.get_closest_marker("allow_leaks"):
        return (yield)

    children_before = _children()
    shm_before = _shm_entries()
    fds_before = _fd_count()

    test_raised = False
    try:
        result = yield
    except BaseException:
        test_raised = True
        raise
    finally:
        # Check + clean up even when the test already failed, but only
        # *raise* for the leak when the test would otherwise pass (the
        # original failure is the more useful signal).
        report = _leak_report(item, children_before, shm_before, fds_before)
        if report is not None and not test_raised:
            raise ResourceLeakError(report)
    return result
