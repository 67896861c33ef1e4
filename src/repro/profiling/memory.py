"""Conv-node memory-footprint model for Figure 13 (right).

A Conv node stores (a) the separable-block weights and (b) activations for
the tiles it is currently processing; the Central node stores the rest-layer
weights and the reassembled feature map.  Figure 13 shows footprint per Conv
node shrinking as the cluster grows, because each node holds fewer tiles.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.models.specs import ModelSpec

__all__ = ["conv_node_memory_bytes", "central_node_memory_bytes", "single_device_memory_bytes"]

BYTES_PER_ELEMENT = 4


def _separable_weight_elements(spec: ModelSpec) -> int:
    return sum(b["weights"] for b in spec.separable_geometry())


def _rest_weight_elements(spec: ModelSpec) -> int:
    return sum(b["weights"] for b in spec.block_geometry()[spec.separable_prefix :])


def _peak_activation_elements(spec: ModelSpec, blocks: Sequence[Mapping[str, Any]]) -> int:
    """Peak of (ifmap + ofmap) across blocks — both live during a layer."""
    return max((b["ifmap"] + b["ofmap"] for b in blocks), default=0)


def conv_node_memory_bytes(spec: ModelSpec, tiles_assigned: int, num_tiles_total: int) -> int:
    """Bytes a Conv node needs for weights + its share of tile activations."""
    if not 0 <= tiles_assigned <= num_tiles_total or num_tiles_total < 1:
        raise ValueError("bad tile counts")
    weights = _separable_weight_elements(spec)
    peak_full = _peak_activation_elements(spec, spec.separable_geometry())
    activations = peak_full * tiles_assigned / num_tiles_total
    return int((weights + activations) * BYTES_PER_ELEMENT)


def central_node_memory_bytes(spec: ModelSpec) -> int:
    """Bytes the Central node needs for rest-layer weights + feature maps."""
    rest_blocks = spec.block_geometry()[spec.separable_prefix :]
    weights = _rest_weight_elements(spec)
    peak = _peak_activation_elements(spec, rest_blocks)
    return int((weights + peak) * BYTES_PER_ELEMENT)


def single_device_memory_bytes(spec: ModelSpec) -> int:
    """Bytes one device needs to run the whole model (baseline)."""
    geo = spec.block_geometry()
    weights = sum(b["weights"] for b in geo)
    peak = _peak_activation_elements(spec, geo)
    return int((weights + peak) * BYTES_PER_ELEMENT)
