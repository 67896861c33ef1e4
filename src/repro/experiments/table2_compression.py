"""Table 2 — Conv-node output size before vs after pruning (8x8 partition).

Claim under test: clipped ReLU + 4-bit quantization + RLE shrink the
separable output to a few percent of its 32-bit size (paper: 0.011-0.056x,
33x mean reduction).
"""

from __future__ import annotations

import numpy as np

import repro.nn as nn
from repro.compression import CompressionPipeline, sparsity
from repro.training import TrainConfig, progressive_retrain, train_epochs

from .common import ExperimentReport
from .fig10_accuracy import TRAIN_CONFIGS, prepare_task

__all__ = ["run"]

PAPER_TABLE2 = {"vgg_mini": 0.032, "resnet_mini": 0.043, "charcnn_mini": 0.056}


def run(
    models: tuple[str, ...] = ("vgg_mini", "charcnn_mini"),
    partition: str = "8x8",
    base_epochs: int = 5,
    seed: int = 0,
) -> ExperimentReport:
    report = ExperimentReport(f"Table 2 — Conv-node output size after pruning ({partition} partition)")
    for model_name in models:
        cfg = TRAIN_CONFIGS.get(model_name, TrainConfig(lr=0.05, batch_size=16))
        model, (xs, ys), loss_fn, metric = prepare_task(model_name, seed=seed)
        train_epochs(model, xs, ys, loss_fn, epochs=base_epochs, config=cfg)
        res = progressive_retrain(model, partition, xs, ys, loss_fn, metric, max_epochs_per_stage=3, config=cfg)
        bounds = res.bounds
        pipe = CompressionPipeline(lower=bounds.lower, upper=bounds.upper, bits=4)
        # Measure on the separable output of a held-out batch.
        fdsp = res.model
        fdsp.eval()
        with nn.no_grad():
            from repro.partition.fdsp import fdsp_forward

            out = fdsp_forward(fdsp.model.separable_part(), xs[:16], fdsp.grid).data
        ct = pipe.compress_packed(out)
        report.add(
            model=model_name,
            raw_kbits=ct.raw_bits / 1000,
            quant_only_kbits=ct.quantized_dense_bits / 1000,
            compressed_kbits=ct.compressed_bits / 1000,
            ratio=ct.ratio,
            rle_gain=ct.rle_gain,
            sparsity=sparsity(pipe.clip(out)),
            paper_ratio=PAPER_TABLE2.get(model_name),
        )
    report.note("paper: VGG16 0.032x, ResNet34 0.043x, FCN 0.011x, YOLO 0.020x, CharCNN 0.056x (33x mean)")
    return report


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
