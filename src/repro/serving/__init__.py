"""Open-loop, multi-client serving front-end (DESIGN.md §5g, §5k).

The front-end drives any :class:`~repro.sharding.ClusterHandle` — one
:class:`~repro.runtime.ProcessCluster` behind its handle or a
:class:`~repro.sharding.ClusterRouter` spanning N of them.
:class:`~repro.sharding.ClusterFailed` is re-exported here because it is
part of the serving contract: a submission's future resolves with it when
the image's cluster died and no sibling could take the work over.
"""

from repro.sharding.handle import ClusterFailed

from .frontend import (
    ClientSession,
    ClientStats,
    Overloaded,
    ServedResult,
    ServingConfig,
    ServingFrontEnd,
)

__all__ = [
    "Overloaded",
    "ClusterFailed",
    "ServingConfig",
    "ServedResult",
    "ClientStats",
    "ClientSession",
    "ServingFrontEnd",
]
