"""High-level deployment API: retrained model -> serving cluster.

Ties the pieces a user otherwise wires manually: an
:class:`~repro.training.progressive.ProgressiveResult` (or an explicit
model + bounds) becomes a ready-to-serve :class:`ADCNNDeployment` that owns
the compression pipeline, persists/restores itself, and serves inferences
from worker processes.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.compression import CompressionPipeline
from repro.models.blocks import PartitionableCNN
from repro.nn.serialization import load_state, save_state
from repro.partition.geometry import SegmentGrid, TileGrid, grid_for_model

from .process_backend import InferenceOutcome, ProcessCluster, ProcessClusterConfig

if TYPE_CHECKING:
    from repro.sharding import ClusterRouter, ShardedDeploymentSpec
    from repro.telemetry import Recorder
    from repro.training.progressive import ProgressiveResult

__all__ = ["ADCNNDeployment"]


class ADCNNDeployment:
    """A packaged ADCNN model: weights + grid + compression bounds.

    Build one from a progressive-retraining result::

        result = progressive_retrain(model, "4x4", ...)
        deployment = ADCNNDeployment.from_progressive(result)
        with deployment.serve(deployment.cluster_config(num_workers=4)) as cluster:
            out = cluster.infer(image)

    or persist/restore it::

        deployment.save("model.npz")
        restored = ADCNNDeployment.load("model.npz", builder=vgg_mini, num_classes=3)
    """

    def __init__(
        self,
        model: PartitionableCNN,
        grid: TileGrid | SegmentGrid | str,
        clip_lower: float = 0.0,
        clip_upper: float = 6.0,
        bits: int = 4,
    ) -> None:
        self.model = model
        self.grid = grid_for_model(model, grid) if isinstance(grid, str) else grid
        if clip_upper <= clip_lower:
            raise ValueError("need clip_upper > clip_lower")
        self.clip_lower = float(clip_lower)
        self.clip_upper = float(clip_upper)
        self.bits = int(bits)
        self.model.eval()

    @classmethod
    def from_progressive(cls, result: ProgressiveResult) -> "ADCNNDeployment":
        """Package a :class:`ProgressiveResult` (Algorithm 1 output)."""
        fdsp = result.model
        bounds = result.bounds
        if bounds is None:
            raise ValueError("progressive result carries no compression bounds")
        quant_bits = fdsp.quant.bits if hasattr(fdsp.quant, "bits") else 4
        return cls(fdsp.model, fdsp.grid, bounds.lower, bounds.upper, quant_bits)

    # ------------------------------------------------------------- pipeline
    @property
    def pipeline(self) -> CompressionPipeline:
        return CompressionPipeline(self.clip_lower, self.clip_upper, bits=self.bits)

    def cluster_config(
        self, num_workers: int = 2, t_limit: float = 30.0, **kwargs: Any
    ) -> ProcessClusterConfig:
        """The deployment's per-cluster config — the one construction path
        shared by :meth:`serve` and (via :class:`ShardSpec` overrides)
        :meth:`serve_sharded`."""
        return ProcessClusterConfig(num_workers=num_workers, t_limit=t_limit, **kwargs)

    def serve(self, config: ProcessClusterConfig | None = None) -> ProcessCluster:
        """A process cluster serving this deployment (context manager)::

            with deployment.serve(deployment.cluster_config(num_workers=4)) as cluster:
                out = cluster.infer(image)

        ``config`` defaults to :meth:`cluster_config` with no overrides.
        """
        return ProcessCluster(
            self.model, self.grid, pipeline=self.pipeline, config=config or self.cluster_config()
        )

    def serve_sharded(
        self, spec: "ShardedDeploymentSpec", telemetry: "Recorder | None" = None
    ) -> "ClusterRouter":
        """A :class:`~repro.sharding.ClusterRouter` over N shards of this
        deployment, built from one declarative spec (DESIGN.md §5k)::

            spec = ShardedDeploymentSpec.homogeneous(4, num_workers=2)
            with ServingFrontEnd(deployment.serve_sharded(spec)) as fe:
                result = await fe.session("cam-0").submit(image)

        Every shard runs the same model, grid, and compression pipeline;
        per-shard worker counts, windows, and config overrides come from the
        spec.  Shards without a config override inherit
        ``ProcessClusterConfig(num_workers=shard.num_workers,
        t_limit=spec.t_limit)``.
        """
        # Lazy import: repro.sharding sits above repro.runtime in the layer
        # stack, so importing it at module scope would be circular.
        from repro.sharding import build_router

        return build_router(
            self.model, self.grid, spec, pipeline=self.pipeline, telemetry=telemetry
        )

    def infer_local(self, image: np.ndarray) -> np.ndarray:
        """Single-process reference inference through the same graph."""
        from repro.nn import ClippedReLU, QuantizeSTE, Tensor, no_grad
        from repro.partition.fdsp import FDSPModel

        fdsp = FDSPModel(
            self.model,
            self.grid,
            clipped_relu=ClippedReLU(self.clip_lower, self.clip_upper),
            quantizer=QuantizeSTE(bits=self.bits, max_value=self.clip_upper - self.clip_lower),
        )
        fdsp.eval()
        with no_grad():
            return fdsp(Tensor(np.asarray(image, dtype=np.float32))).data

    # ----------------------------------------------------------- persistence
    def save(self, path: str | Path) -> None:
        """Persist weights + deployment metadata to .npz."""
        meta = {
            "grid": str(self.grid),
            "clip_lower": self.clip_lower,
            "clip_upper": self.clip_upper,
            "bits": self.bits,
            "separable_prefix": self.model.separable_prefix,
            "model_name": self.model.name,
        }
        save_state(self.model.state_dict(), path, metadata=meta)

    @classmethod
    def load(
        cls, path: str | Path, builder: Callable[..., PartitionableCNN], **builder_kwargs: Any
    ) -> "ADCNNDeployment":
        """Rebuild from disk; ``builder(**builder_kwargs)`` must produce the
        same architecture the weights were saved from."""
        state, meta = load_state(path)
        model = builder(**builder_kwargs)
        model.load_state_dict(state)
        grid_spec = meta["grid"]
        grid: TileGrid | SegmentGrid
        if grid_spec.endswith("seg"):
            grid = SegmentGrid(int(grid_spec[:-3]))
        else:
            grid = TileGrid.parse(grid_spec)
        return cls(model, grid, meta["clip_lower"], meta["clip_upper"], meta["bits"])
