"""Run one workload in a child interpreter and leave no process behind.

The program under test starts processes the benchmark never sees: cluster
workers, and ``multiprocessing``'s shared-memory resource tracker, which
outlives the interpreter that started it by a moment (it exits when that
interpreter's end of its pipe closes).  The supervisor makes itself the
reaper of every descendant, runs the workload as its child, and returns only
when the child *and* everything the child started have ended and been waited
for, on every path out: clean exit, crash, timeout, SIGTERM.  Nothing leaves
the caller's session or process group, so a caller that kills the group
still reaches every process.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from collections.abc import Sequence

PR_SET_CHILD_SUBREAPER = 36
GRACE_S = 5.0      # for descendants that end on their own once the child has (the resource tracker)
TERM_WAIT_S = 3.0   # after SIGTERM, which the resource tracker ignores: it unlinks the others' /dev/shm segments
KILL_WAIT_S = 10.0  # after SIGKILL; nothing survives that unless it is stuck in the kernel


def become_subreaper() -> bool:
    """Orphaned descendants are re-parented to this process, not to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def descendants() -> list[int]:
    """Every live process below this one, read from /proc (as the subreaper,
    this process is an ancestor of everything the workload started)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # ended while we were looking
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [os.getpid()]
    while frontier:
        frontier = [c for p in frontier for c in children.get(p, [])]
        found.extend(frontier)
    return found


def _signal_descendants(signum: int) -> None:
    for pid in descendants():
        try:
            os.kill(pid, signum)
        except (ProcessLookupError, PermissionError):
            pass


def reap_all(grace_s: float) -> bool:
    """Wait for every child this process has.  What is still there after
    ``grace_s`` gets SIGTERM, then SIGKILL.  True if nothing had to be signalled."""
    escalation = [signal.SIGTERM, signal.SIGKILL]
    waits = [TERM_WAIT_S, KILL_WAIT_S]
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(escalation) == 2
        if pid:
            continue
        if time.monotonic() >= deadline:
            if not escalation:
                return False  # unkillable; nothing more a process can do
            _signal_descendants(escalation.pop(0))
            deadline = time.monotonic() + waits.pop(0)
        time.sleep(0.005)


def _terminate(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def run_supervised(cmd: Sequence[str], timeout_s: float) -> int:
    """Exit code of ``cmd``; 124 if it had to be stopped after ``timeout_s``,
    125 if it exited with 0 but left processes that had to be stopped."""
    become_subreaper()
    signal.signal(signal.SIGTERM, _terminate)
    child = subprocess.Popen(list(cmd))
    grace_s = 0.0  # on any path but a clean exit, stop everything at once
    try:
        code = child.wait(timeout=timeout_s)
        grace_s = GRACE_S
    except subprocess.TimeoutExpired:
        code = 124
    finally:
        tidy = reap_all(grace_s)
        child.poll()  # already reaped above; lets Popen know
    return 125 if code == 0 and not tidy else code
