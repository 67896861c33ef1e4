"""Paper-scale layer-block specifications (geometry only, no weights).

Figure 3, Table 3 and the §3/§4 communication-overhead analyses need the
*full-size* VGG16 / ResNet / YOLO / FCN / CharCNN geometry (224x224 inputs,
64-512 channels).  Allocating real weights for those would cost hundreds of
MB, so profiling works on these lightweight specs instead; the runnable
mini models in the rest of :mod:`repro.models` share the same block
structure at reduced width.

All sizes follow the paper's conventions: a *layer block* is conv+BN+ReLU
(+pool); FLOPs are counted as 2 x MACs; ifmap/ofmap sizes are in elements
(multiply by 32 bits for the paper's transmission estimates).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Any

__all__ = [
    "BlockSpec",
    "ModelSpec",
    "alexnet_spec",
    "vgg16_spec",
    "resnet18_spec",
    "resnet34_spec",
    "yolo_spec",
    "fcn_spec",
    "charcnn_spec",
    "get_spec",
    "SPEC_BUILDERS",
]


@dataclass(frozen=True)
class BlockSpec:
    """One layer block: conv (or a residual pair of convs) + optional pool.

    ``convs`` is a list of ``(out_channels, kernel, stride)`` applied in
    sequence; ``pool`` is the pooling factor applied at the end (1 = none);
    ``residual`` marks ResNet blocks (adds the shortcut conv cost when the
    channel count or stride changes); ``is_fc`` marks fully-connected blocks
    (kernel is ignored, spatial collapses to 1).
    """

    name: str
    convs: tuple[tuple[int, int, int], ...]
    pool: int = 1
    residual: bool = False
    is_fc: bool = False


@dataclass(frozen=True)
class ModelSpec:
    """A full model: input shape + ordered blocks + separable prefix.

    Immutable: :func:`get_spec` hands every caller one shared instance, and
    :meth:`block_geometry` is computed once per instance.
    """

    name: str
    input_shape: tuple[int, ...]  # (C, H, W) or (C, L)
    blocks: tuple[BlockSpec, ...] = ()
    separable_prefix: int = 0

    @property
    def is_1d(self) -> bool:
        return len(self.input_shape) == 2

    def block_geometry(self) -> tuple[Mapping[str, Any], ...]:
        """Per-block geometry, walked once per spec and read-only.

        Each entry has: ``name``, ``ifmap`` (elements entering the block),
        ``ofmap`` (elements leaving it), ``macs`` (multiply-accumulates),
        ``weights`` (parameter count), ``in_hw``/``out_hw`` spatial size.
        """
        return self._geometry

    @cached_property
    def _geometry(self) -> tuple[Mapping[str, Any], ...]:
        if self.is_1d:
            c, h = self.input_shape
            w = 1
        else:
            c, h, w = self.input_shape
        out = []
        for blk in self.blocks:
            entry: dict[str, Any] = {"name": blk.name, "ifmap": c * h * w, "in_hw": (h, w)}
            macs = 0
            weights = 0
            if blk.is_fc:
                in_features = c * h * w
                for out_ch, _, _ in blk.convs:
                    macs += in_features * out_ch
                    weights += in_features * out_ch + out_ch
                    in_features = out_ch
                c, h, w = in_features, 1, 1
            else:
                entry_ch = c
                stride_total = 1
                in_ch = c
                for out_ch, k, stride in blk.convs:
                    kw = k if not self.is_1d else 1
                    h = h // stride
                    w = max(1, w // stride)
                    stride_total *= stride
                    macs += in_ch * out_ch * k * kw * h * w
                    weights += in_ch * out_ch * k * kw + 2 * out_ch  # conv + BN
                    in_ch = out_ch
                if blk.residual and (entry_ch != in_ch or stride_total != 1):
                    # 1x1 projection shortcut (Figure 2c).
                    macs += entry_ch * in_ch * h * w
                    weights += entry_ch * in_ch + 2 * in_ch
                c = in_ch
                if blk.pool > 1:
                    h = h // blk.pool
                    if not self.is_1d:
                        w = w // blk.pool
            entry["ofmap"] = c * h * w
            entry["out_hw"] = (h, w)
            entry["macs"] = macs
            entry["weights"] = weights
            entry["out_channels"] = c
            out.append(MappingProxyType(entry))
        return tuple(out)

    def total_macs(self) -> int:
        return sum(b["macs"] for b in self.block_geometry())

    def separable_geometry(self) -> tuple[Mapping[str, Any], ...]:
        return self.block_geometry()[: self.separable_prefix]

    def separable_output_elements(self) -> int:
        """Size (elements) of the last separable block's ofmap — what Conv
        nodes must transmit to the Central node."""
        return self.block_geometry()[self.separable_prefix - 1]["ofmap"]

    def input_elements(self) -> int:
        n = 1
        for d in self.input_shape:
            n *= d
        return n


def _conv_blocks(spec: list[tuple], prefix: str = "L") -> list[BlockSpec]:
    """Helper: list of (out_ch, kernel, stride, pool) -> single-conv blocks."""
    blocks = []
    for i, (out_ch, k, stride, pool) in enumerate(spec, start=1):
        name = f"{prefix}{i}" + ("(P)" if pool > 1 else "")
        blocks.append(BlockSpec(name, ((out_ch, k, stride),), pool=pool))
    return blocks


def vgg16_spec(num_classes: int = 1000) -> ModelSpec:
    """VGG16 on 224x224 ImageNet: 13 conv layer blocks + 3 FC.

    Pools close blocks 2, 4, 7, 10 and 13; the paper partitions the first 7
    blocks (Figure 10 caption).
    """
    cfg = [
        (64, 3, 1, 1), (64, 3, 1, 2),
        (128, 3, 1, 1), (128, 3, 1, 2),
        (256, 3, 1, 1), (256, 3, 1, 1), (256, 3, 1, 2),
        (512, 3, 1, 1), (512, 3, 1, 1), (512, 3, 1, 2),
        (512, 3, 1, 1), (512, 3, 1, 1), (512, 3, 1, 2),
    ]
    blocks = _conv_blocks(cfg)
    blocks.append(BlockSpec("FC", ((4096, 0, 0), (4096, 0, 0), (num_classes, 0, 0)), is_fc=True))
    return ModelSpec("vgg16", (3, 224, 224), tuple(blocks), separable_prefix=7)


def _resnet_spec(name: str, stage_blocks: list[int], num_classes: int, separable: int) -> ModelSpec:
    blocks = [BlockSpec("stem(P)", ((64, 7, 2),), pool=2)]
    channels = [64, 128, 256, 512]
    idx = 1
    for stage, (ch, n) in enumerate(zip(channels, stage_blocks)):
        for j in range(n):
            stride = 2 if (stage > 0 and j == 0) else 1
            blocks.append(BlockSpec(f"R{idx}", ((ch, 3, stride), (ch, 3, 1)), residual=True))
            idx += 1
    blocks.append(BlockSpec("FC", ((num_classes, 0, 0),), is_fc=True))
    return ModelSpec(name, (3, 224, 224), tuple(blocks), separable_prefix=separable)


def resnet18_spec(num_classes: int = 1000) -> ModelSpec:
    """ResNet18: stem + [2,2,2,2] basic blocks."""
    return _resnet_spec("resnet18", [2, 2, 2, 2], num_classes, separable=6)


def resnet34_spec(num_classes: int = 1000) -> ModelSpec:
    """ResNet34: stem + [3,4,6,3] basic blocks; first 12 blocks separable."""
    return _resnet_spec("resnet34", [3, 4, 6, 3], num_classes, separable=12)


def yolo_spec(num_classes: int = 20, num_anchors: int = 5) -> ModelSpec:
    """YOLOv2-style detector on 416x416 (Darknet-19 backbone).

    The paper partitions the first 12 layer blocks (Figure 10 caption).
    """
    cfg = [
        (32, 3, 1, 2),
        (64, 3, 1, 2),
        (128, 3, 1, 1), (64, 1, 1, 1), (128, 3, 1, 2),
        (256, 3, 1, 1), (128, 1, 1, 1), (256, 3, 1, 2),
        (512, 3, 1, 1), (256, 1, 1, 1), (512, 3, 1, 1), (256, 1, 1, 1), (512, 3, 1, 2),
        (1024, 3, 1, 1), (512, 1, 1, 1), (1024, 3, 1, 1), (512, 1, 1, 1), (1024, 3, 1, 1),
    ]
    blocks = _conv_blocks(cfg)
    out_ch = num_anchors * (5 + num_classes)
    blocks.append(BlockSpec("det", ((1024, 3, 1), (out_ch, 1, 1)), pool=1))
    return ModelSpec("yolo", (3, 416, 416), tuple(blocks), separable_prefix=12)


def fcn_spec(num_classes: int = 21) -> ModelSpec:
    """FCN-32s with a VGG16 backbone on 224x224 (VOC / CamVid).

    Scoring head is a 1x1 conv; the upsample is free of MACs.  First 7
    blocks separable (Figure 10 caption).
    """
    base = vgg16_spec().blocks[:-1]  # drop FC
    blocks = (*base, BlockSpec("score", ((4096, 7, 1), (4096, 1, 1), (num_classes, 1, 1)), pool=1))
    return ModelSpec("fcn", (3, 224, 224), blocks, separable_prefix=7)


def alexnet_spec(num_classes: int = 1000) -> ModelSpec:
    """AlexNet (Krizhevsky et al. 2012) — the §2.3 visualization subject.

    5 conv blocks (11/5/3/3/3 kernels, pools after 1, 2 and 5) + 3 FC;
    input treated as 227x227 (the stride-4 variant's effective size is
    approximated with the standard 224 geometry and stride 4).
    """
    cfg = [
        (96, 11, 4, 2),
        (256, 5, 1, 2),
        (384, 3, 1, 1),
        (384, 3, 1, 1),
        (256, 3, 1, 2),
    ]
    blocks = _conv_blocks(cfg)
    blocks.append(BlockSpec("FC", ((4096, 0, 0), (4096, 0, 0), (num_classes, 0, 0)), is_fc=True))
    return ModelSpec("alexnet", (3, 224, 224), tuple(blocks), separable_prefix=2)


def charcnn_spec(num_classes: int = 4, vocab: int = 70, length: int = 1014) -> ModelSpec:
    """Character-level CNN (Zhang et al. 2015): 6 conv1d + 3 FC, length 1014.

    First 4 blocks separable (Figure 10 caption).
    """
    cfg = [
        (256, 7, 1, 3),
        (256, 7, 1, 3),
        (256, 3, 1, 1),
        (256, 3, 1, 1),
        (256, 3, 1, 1),
        (256, 3, 1, 3),
    ]
    blocks = _conv_blocks(cfg)
    blocks.append(BlockSpec("FC", ((1024, 0, 0), (1024, 0, 0), (num_classes, 0, 0)), is_fc=True))
    return ModelSpec("charcnn", (vocab, length), tuple(blocks), separable_prefix=4)


# Read-only: worker-imported module state must not be mutable (RL001).
SPEC_BUILDERS: Mapping[str, Callable[..., ModelSpec]] = MappingProxyType({
    "alexnet": alexnet_spec,
    "vgg16": vgg16_spec,
    "resnet18": resnet18_spec,
    "resnet34": resnet34_spec,
    "yolo": yolo_spec,
    "fcn": fcn_spec,
    "charcnn": charcnn_spec,
})


@cache
def get_spec(name: str, **kwargs) -> ModelSpec:
    """Look up a paper-scale model spec by name.

    Memoized: specs are immutable, so equal arguments share one instance
    (and its geometry) across every caller.
    """
    try:
        return SPEC_BUILDERS[name](**kwargs)
    except KeyError:
        raise KeyError(f"unknown model spec {name!r}; available: {sorted(SPEC_BUILDERS)}") from None
