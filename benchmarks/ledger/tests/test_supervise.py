"""The supervisor returns only when nothing it started is left, whatever the child did.

Each case runs the supervisor in an interpreter of its own: it reaps every
child of the process it runs in, which must not be pytest's.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]

SUPERVISE = """
import sys
sys.path.insert(0, {ledger!r})
from ledgerbench.supervise import run_supervised
sys.exit(run_supervised([sys.executable, "-c", {child!r}], {timeout}))
"""
# Starts a grandchild that outlives it, and says who that is.
ORPHAN = (
    'import subprocess, sys; '
    'p = subprocess.Popen([sys.executable, "-c", "import time; time.sleep({nap})"]); print(p.pid, flush=True)'
)


def supervise(child: str, timeout: float = 30.0) -> tuple[int, str, float]:
    script = SUPERVISE.format(ledger=str(LEDGER), child=child, timeout=timeout)
    began = time.monotonic()
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=False)
    return done.returncode, done.stdout, time.monotonic() - began


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_exit_code_of_the_child_is_passed_on():
    assert supervise("raise SystemExit(3)")[0] == 3
    assert supervise("pass")[0] == 0


def test_waits_for_a_grandchild_that_ends_on_its_own():
    code, out, took = supervise(ORPHAN.format(nap=0.4))
    assert code == 0
    assert took >= 0.4
    assert not alive(int(out))


def test_stops_a_grandchild_that_would_stay_and_reports_it():
    code, out, took = supervise(ORPHAN.format(nap=120))
    assert code == 125
    assert took < 30
    assert not alive(int(out))


def test_timeout_stops_the_child_and_what_it_started():
    code, out, took = supervise(ORPHAN.format(nap=120) + "; import time; time.sleep(120)", timeout=2.0)
    assert code == 124
    assert took < 30
    assert not alive(int(out))
