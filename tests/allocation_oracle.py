"""Allocation oracles for scheduler tests.

Two test-only references for ``repro.runtime.scheduler.allocate_tiles``:

- ``brute_force_allocation`` exhaustively searches every split of
  ``num_tiles`` over the nodes and returns the min-max-cost one — the
  ground truth the greedy Algorithm 3 is checked against on tiny instances;
- ``allocate_tiles_numpy`` is Algorithm 3 written on NumPy arrays, the
  runtime's implementation until the scalar rewrite.  The runtime version
  must return the same allocation *and* leave a tie-breaking ``rng`` in the
  same state, because the draws feed every seeded simulation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.typing import ArrayLike

from repro.runtime import SchedulingError

__all__ = ["allocate_tiles_numpy", "brute_force_allocation"]


def brute_force_allocation(num_tiles: int, rates) -> np.ndarray:
    """Exact min-max allocation by exhaustive search (tiny instances only)."""
    s = np.asarray(rates, dtype=float)
    k = len(s)
    if num_tiles > 12 or k > 4:
        raise ValueError("brute force limited to tiny instances")
    best, best_cost = None, math.inf
    for combo in itertools.product(range(num_tiles + 1), repeat=k):
        if sum(combo) != num_tiles:
            continue
        cost = max((c / s[i]) if s[i] > 0 else (math.inf if c else 0.0) for i, c in enumerate(combo))
        if cost < best_cost:
            best, best_cost = np.array(combo), cost
    assert best is not None
    return best


def allocate_tiles_numpy(
    num_tiles: int,
    rates: ArrayLike,
    tile_bits: float = 0.0,
    storage_bits: ArrayLike | None = None,
    rng: np.random.Generator | None = None,
    epsilon: float = 1e-9,
) -> np.ndarray:
    """Algorithm 3 on arrays: every tile recomputes every node's ratio."""
    s = np.asarray(rates, dtype=float)
    if num_tiles < 0:
        raise ValueError("negative tile count")
    k = len(s)
    if storage_bits is None:
        capacity = np.full(k, np.inf)
    else:
        capacity = np.asarray(storage_bits, dtype=float)
        if capacity.shape != s.shape:
            raise ValueError("storage_bits must match rates length")
    if tile_bits > 0:
        max_tiles = np.floor(capacity / tile_bits)
    else:
        max_tiles = np.full(k, np.inf)
    alive = s > epsilon
    x = np.zeros(k, dtype=int)
    for _ in range(num_tiles):
        eligible = alive & (x < max_tiles)
        if not eligible.any():
            raise SchedulingError(
                "no node can accept another tile (all failed or storage-exhausted)"
            )
        ratios = np.where(eligible, (x + 1) / np.where(alive, s, 1.0), np.inf)
        best = ratios.min()
        candidates = np.flatnonzero(ratios <= best * (1 + 1e-12))
        choice = int(rng.choice(candidates)) if rng is not None else int(candidates[0])
        x[choice] += 1
    return x
