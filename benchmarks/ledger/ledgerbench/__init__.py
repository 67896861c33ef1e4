"""Perf ledger: the repo's benchmark, measured from outside the program.

Everything here times calls into ``repro``'s public functions or reads what
the program already exposes; nothing under ``src/`` knows the ledger exists.
``run.py`` is the entry point, ``compare.py`` diffs two result files, and
``README.md`` defines every workload and metric.
"""

import os

#: Removed from the environment before NumPy loads, so the benchmark sees
#: the program's own threading defaults: a caller's shell can neither hide
#: nor cause BLAS oversubscription, and a later fix that pins threads from
#: inside the program shows up.
SCRUBBED_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def scrub_thread_env() -> None:
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
