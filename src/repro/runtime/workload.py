"""Workload descriptors binding a model spec + partition to the runtime.

An :class:`ADCNNWorkload` tells the system, for one CNN and one tile grid:
how many bits each tile costs to ship, how many MACs a Conv node spends per
tile, how many bits each (optionally compressed) result costs to ship back,
and how many MACs the Central node's rest layers need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.models.specs import ModelSpec
from repro.profiling.flops import BITS_PER_ELEMENT

__all__ = ["ADCNNWorkload"]


@dataclass(frozen=True)
class ADCNNWorkload:
    """Per-tile and per-image cost model for one (model, grid) pair."""

    name: str
    num_tiles: int
    tile_input_bits: float
    tile_output_bits: float
    tile_macs: float
    rest_macs: float
    partition_macs: float = 1e6  # Input-partition block bookkeeping cost
    total_macs: float = 0.0
    #: Pre-compression size of one tile's intermediate result (bits); 0
    #: means "unknown / uncompressed" and consumers fall back to
    #: ``tile_output_bits``.  Telemetry uses the pair to report the
    #: compression ratio actually achieved on the wire.
    tile_output_raw_bits: float = 0.0
    #: *Measured* per-tile result size on the wire (bits) — the packed-codec
    #: buffer length (``CompressionPipeline.measured_wire_bits``), header and
    #: padding included.  0 means "not measured" and consumers fall back to
    #: the accounted ``tile_output_bits``.
    tile_output_wire_bits: float = 0.0

    def __post_init__(self) -> None:
        if self.num_tiles < 1:
            raise ValueError("need at least one tile")
        if min(self.tile_input_bits, self.tile_output_bits, self.tile_macs, self.rest_macs) < 0:
            raise ValueError("workload quantities cannot be negative")

    @property
    def input_bits(self) -> float:
        return self.tile_input_bits * self.num_tiles

    @property
    def output_bits(self) -> float:
        return self.tile_output_bits * self.num_tiles

    @property
    def output_raw_bits(self) -> float:
        return (self.tile_output_raw_bits or self.tile_output_bits) * self.num_tiles

    @property
    def output_wire_bits(self) -> float:
        return (self.tile_output_wire_bits or self.tile_output_bits) * self.num_tiles

    def with_measured_output(self, wire_bits_per_tile: float) -> "ADCNNWorkload":
        """Price result transfers with a measured packed-buffer size.

        Feed ``CompressionPipeline.measured_wire_bits(sample_output) /
        num_tiles`` (or a per-tile measurement) so the DES charges the
        medium with real bytes-on-the-wire instead of an assumed
        ``compression_ratio``.
        """
        if wire_bits_per_tile < 0:
            raise ValueError("measured wire bits cannot be negative")
        return replace(self, tile_output_wire_bits=float(wire_bits_per_tile))

    @property
    def separable_macs(self) -> float:
        return self.tile_macs * self.num_tiles

    @classmethod
    def from_spec(
        cls,
        spec: ModelSpec,
        num_tiles: int,
        separable_prefix: int | None = None,
        compression_ratio: float = 1.0,
        input_bits_override: float | None = None,
    ) -> "ADCNNWorkload":
        """Derive the cost model from a paper-scale :class:`ModelSpec`.

        ``separable_prefix`` overrides the spec's default (the system
        experiments distribute every conv block — see EXPERIMENTS.md on the
        Figure-10-vs-Table-3 discrepancy in the paper).
        ``compression_ratio`` scales result bits (Table 2: 0.011-0.056 with
        the §4 pipeline; 1.0 = uncompressed 32-bit floats).
        ``input_bits_override`` replaces the 32-bit-per-element input size
        (e.g. CharCNN ships raw 8-bit characters, not one-hot floats).
        """
        if num_tiles < 1:
            raise ValueError("need at least one tile")
        if not 0.0 < compression_ratio <= 1.0:
            raise ValueError("compression ratio must be in (0, 1]")
        prefix = spec.separable_prefix if separable_prefix is None else separable_prefix
        if not 0 < prefix <= len(spec.blocks):
            raise ValueError("separable prefix out of range")
        geo = spec.block_geometry()
        sep_macs = sum(b["macs"] for b in geo[:prefix])
        rest = sum(b["macs"] for b in geo[prefix:])
        out_elements = geo[prefix - 1]["ofmap"]
        input_bits = (
            input_bits_override if input_bits_override is not None else spec.input_elements() * BITS_PER_ELEMENT
        )
        return cls(
            name=spec.name,
            num_tiles=num_tiles,
            tile_input_bits=input_bits / num_tiles,
            tile_output_bits=out_elements * BITS_PER_ELEMENT * compression_ratio / num_tiles,
            tile_macs=sep_macs / num_tiles,
            rest_macs=rest,
            total_macs=float(sep_macs + rest),
            tile_output_raw_bits=out_elements * BITS_PER_ELEMENT / num_tiles,
        )
