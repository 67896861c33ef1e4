"""Host probe for POSIX shared memory.

The tile transport uses none (DESIGN.md §5d): every batch rides its pipe
frame.  This probe stays only because the ledger's host fingerprint
(``benchmarks/ledger/ledgerbench/fingerprint.py``) records whether the host
has a usable ``/dev/shm``.
"""

from __future__ import annotations

from multiprocessing import shared_memory

__all__ = ["shm_available"]


def shm_available() -> bool:
    """True when a POSIX shared-memory segment can be created and unlinked."""
    try:
        probe = shared_memory.SharedMemory(create=True, size=1)
        probe.close()
        probe.unlink()
        return True
    except Exception:
        return False
