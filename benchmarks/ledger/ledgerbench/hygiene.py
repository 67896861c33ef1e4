"""Leak checks around a workload: child processes, /dev/shm entries, fds.

The baseline is taken after the workload's first start/stop cycle, so
one-time interpreter state (the shared-memory resource tracker and its
pipe, lazily opened files) is not mistaken for a leak; anything that grows
from there to the end of the run was left behind by the program.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import time
from dataclasses import dataclass

SHM_DIR = "/dev/shm"
FD_DIR = "/proc/self/fd"
SETTLE_S = 0.5  # queue feeder threads close their pipes asynchronously


@dataclass(frozen=True)
class Snapshot:
    children: frozenset[int]
    shm: frozenset[str]
    fds: int


def snapshot() -> Snapshot:
    gc.collect()
    return Snapshot(
        children=frozenset(p.pid for p in mp.active_children() if p.pid is not None),
        shm=frozenset(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else frozenset(),
        fds=len(os.listdir(FD_DIR)) if os.path.isdir(FD_DIR) else 0,
    )


def leaks(before: Snapshot) -> list[str]:
    """What is still around that ``before`` did not have (after a short settle)."""
    deadline = time.monotonic() + SETTLE_S
    while True:
        now = snapshot()
        found = []
        if now.children - before.children:
            found.append(f"child processes left: {sorted(now.children - before.children)}")
        if now.shm - before.shm:
            found.append(f"/dev/shm entries left: {sorted(now.shm - before.shm)}")
        if now.fds > before.fds:
            found.append(f"file descriptors grew: {before.fds} -> {now.fds}")
        if not found or time.monotonic() >= deadline:
            return found
        time.sleep(0.05)
