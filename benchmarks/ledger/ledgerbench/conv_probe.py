"""F.conv2d in a fresh interpreter: the first call against warm calls.

Run as a script by the traced run (never imported), on the
``bench_kernels`` shape, in the parent's already scrubbed environment.
Prints one JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))
    import numpy as np

    import repro.nn.functional as F
    from repro.nn import Tensor

    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 16, 32, 32)).astype(np.float32))
    w = Tensor(rng.normal(size=(32, 16, 3, 3)).astype(np.float32))
    laps = []
    for _ in range(50):
        t0 = time.perf_counter()
        F.conv2d(x, w, padding=1)
        laps.append((time.perf_counter() - t0) * 1e3)
    print(json.dumps({"first_call_ms": laps[0], "warm_ms": statistics.median(laps[19:])}))
