"""Self-tests of the ledger's own arithmetic; no cluster, no simulator."""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
for extra in (LEDGER, LEDGER.parents[1] / "src"):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))
