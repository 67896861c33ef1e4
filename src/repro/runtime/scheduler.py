"""Algorithms 2 and 3 — statistics collection and input-tile allocation (§6).

Algorithm 2 keeps an exponentially-weighted moving estimate ``s_k`` of each
Conv node's delivered throughput: ``s_k <- (1-γ) s_k + γ n_k`` where ``n_k``
is the number of intermediate results node ``k`` returned for the last image
within the deadline.

Algorithm 3 allocates the D tiles of the next image greedily, repeatedly
giving a tile to the node whose new ``x_k / s_k`` ratio stays smallest
(classic list scheduling of unit jobs on uniform machines — optimal for the
min-makespan objective in Eq. 1), subject to per-node storage
``M * x_k <= H_k``.  A failed node's ``s_k`` decays to ~0 and stops
receiving tiles, which is how ADCNN tolerates node failure.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["StatisticsCollector", "allocate_tiles", "SchedulingError"]


class SchedulingError(RuntimeError):
    """No feasible tile allocation exists."""


class StatisticsCollector:
    """Algorithm 2 — per-node EWMA of delivered results.

    ``initial`` seeds every node equal so the first image splits evenly
    (§7.3: "the tiles are evenly distributed to each node in the
    beginning").

    The paper's EWMA is one-way for a recovered node: once ``s_k`` has
    decayed to ~0 the node receives no tiles, so ``n_k`` stays 0 and it can
    never re-earn share.  ``probe_interval > 0`` enables *recovery probes*:
    every ``probe_interval`` images, an alive node that the allocator gave
    nothing is due a single probe tile; delivering it raises ``s_k`` and the
    node regains share organically.
    """

    def __init__(
        self,
        num_nodes: int,
        gamma: float = 0.9,
        initial: float = 1.0,
        probe_interval: int = 0,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        if initial < 0:
            raise ValueError("initial statistic cannot be negative")
        if probe_interval < 0:
            raise ValueError("probe_interval cannot be negative")
        self.gamma = float(gamma)
        self.probe_interval = int(probe_interval)
        self._s = np.full(num_nodes, float(initial))
        self._updates = 0
        self._last_probe = np.zeros(num_nodes, dtype=int)

    @property
    def num_nodes(self) -> int:
        return len(self._s)

    def update(self, counts: ArrayLike) -> None:
        """Fold in ``n_k`` for one image: ``s <- (1-γ)s + γn``."""
        counts = np.asarray(counts, dtype=float)
        if counts.shape != self._s.shape:
            raise ValueError(f"expected {self._s.shape[0]} counts, got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("negative result counts")
        self._s = (1.0 - self.gamma) * self._s + self.gamma * counts
        self._updates += 1

    def rates(self) -> np.ndarray:
        """Current ``s_k`` estimates (copy)."""
        return self._s.copy()

    def probe_due(self, alive: ArrayLike, allocation: ArrayLike) -> list[int]:
        """Nodes owed a recovery-probe tile for the next image.

        A node is due when it is alive, Algorithm 3 allocated it nothing
        (its ``s_k`` is effectively dead), and at least ``probe_interval``
        images have passed since its last probe.
        """
        if self.probe_interval <= 0:
            return []
        alive = np.asarray(alive, dtype=bool)
        allocation = np.asarray(allocation)
        if alive.shape != self._s.shape or allocation.shape != self._s.shape:
            raise ValueError("alive/allocation must have one entry per node")
        due = alive & (allocation == 0) & (self._updates - self._last_probe >= self.probe_interval)
        return [int(i) for i in np.flatnonzero(due)]

    def note_probe(self, node: int) -> None:
        """Record that ``node`` was just sent a probe tile."""
        self._last_probe[node] = self._updates


def allocate_tiles(
    num_tiles: int,
    rates: ArrayLike,
    tile_bits: float = 0.0,
    storage_bits: ArrayLike | None = None,
    rng: np.random.Generator | None = None,
    epsilon: float = 1e-9,
) -> np.ndarray:
    """Algorithm 3 — greedy min-max allocation of ``num_tiles`` unit tiles.

    Parameters
    ----------
    rates:
        ``s_k`` from Algorithm 2.  Nodes with ``s_k <= epsilon`` are treated
        as dead and receive nothing.
    tile_bits / storage_bits:
        Enforce ``tile_bits * x_k <= storage_bits[k]`` (``M x_k <= H_k``).
    rng:
        Used to break ties randomly as in the paper; deterministic
        lowest-index tie-breaking when omitted.

    Runs on Python scalars (the arrays are a handful of nodes long, where
    NumPy's per-call overhead dominates): ``ratio[k]`` holds node k's
    ratio ``(x_k + 1) / s_k`` after one more tile, or ``inf`` once it is
    dead or full, and only the chosen node's entry changes per tile.
    """
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
        max_tiles = np.floor(capacity / tile_bits).tolist()
    else:
        max_tiles = [math.inf] * k
    rate = s.tolist()
    eligible = [r > epsilon and 0 < m for r, m in zip(rate, max_tiles)]
    ratio = [1 / r if ok else math.inf for r, ok in zip(rate, eligible)]
    open_nodes = sum(eligible)
    x = [0] * k
    for _ in range(num_tiles):
        if not open_nodes:
            raise SchedulingError(
                "no node can accept another tile (all failed or storage-exhausted)"
            )
        bound = min(ratio) * (1 + 1e-12)
        if rng is not None:
            candidates = [i for i, r in enumerate(ratio) if r <= bound]
            choice = int(rng.choice(np.array(candidates)))
        else:
            choice = next(i for i, r in enumerate(ratio) if r <= bound)
        x[choice] += 1
        if eligible[choice] and x[choice] >= max_tiles[choice]:
            eligible[choice] = False
            open_nodes -= 1
        ratio[choice] = (x[choice] + 1) / rate[choice] if eligible[choice] else math.inf
    return np.array(x, dtype=int)


# The test oracles for this module (exhaustive search, and Algorithm 3 on
# NumPy arrays) live in ``tests/allocation_oracle.py``.
