"""Environment fingerprint stored in every result file."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

import numpy as np

from repro.runtime.shm_arena import shm_available

from . import SCRUBBED_ENV


def _blas() -> dict[str, Any]:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {}) if isinstance(config, dict) else {}
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "build": blas.get("openblas configuration", "unknown"),
    }


def _threads_after_gemm() -> int:
    """OS threads in this process once BLAS has run: main + the BLAS pool."""
    a = np.ones((256, 256), dtype=np.float32)
    (a @ a).sum()
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def fingerprint(root: Path, seed: int, seconds: float) -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": _blas(),
        "process_threads_after_gemm": _threads_after_gemm(),
        "scrubbed_env": list(SCRUBBED_ENV),
        "thread_env_seen_by_child": {k: os.environ[k] for k in SCRUBBED_ENV if k in os.environ},
        "dev_shm": shm_available(),
        "seed": seed,
        "seconds": seconds,
        "git_commit": _git_commit(root),
    }
