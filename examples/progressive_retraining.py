"""Progressive retraining (Algorithm 1) on a synthetic task, end to end.

    python examples/progressive_retraining.py

Trains a small VGG-style classifier on the oriented-texture dataset, then
applies the three ADCNN modifications one at a time — FDSP partitioning,
clipped ReLU, 4-bit quantization — retraining after each until accuracy
recovers.  Finishes by measuring the wire-size reduction the learned
bounds buy (Table 2's quantity).

Takes a couple of minutes on one CPU core.
"""

import numpy as np

import repro.nn as nn
from repro.compression import CompressionPipeline
from repro.data import make_classification
from repro.models import vgg_mini
from repro.nn.losses import cross_entropy
from repro.partition.fdsp import fdsp_forward
from repro.training import TrainConfig, evaluate_classification, progressive_retrain, train_epochs


def main() -> None:
    data = make_classification(num_samples=160, num_classes=3, image_size=48, seed=0)
    train, test = data.split()
    cfg = TrainConfig(lr=0.05, batch_size=16)

    model = vgg_mini(num_classes=3, input_size=48, base_width=8)
    print("Training the original model...")
    train_epochs(model, train.images, train.labels, cross_entropy, epochs=5, config=cfg)
    metric = lambda m: evaluate_classification(m, test.images, test.labels)
    print(f"original accuracy: {metric(model):.3f}")

    print("\nProgressive retraining (Algorithm 1) for an 8x8 partition:")
    result = progressive_retrain(
        model, "8x8", train.images, train.labels, cross_entropy, metric,
        max_epochs_per_stage=4, config=cfg,
    )
    for stage in result.stages:
        print(f"  {stage.name:<13} {stage.epochs} epoch(s) -> accuracy {stage.metric:.3f}")
    print(f"  total extra epochs: {result.total_epochs} (paper Table 1: 5-13)")
    print(f"  clipped-ReLU bounds: [{result.bounds.lower:.3f}, {result.bounds.upper:.3f}] "
          f"(sparsity {result.bounds.achieved_sparsity:.2f})")

    # Table 2: wire size of what Conv nodes would transmit.
    fdsp = result.model
    fdsp.eval()
    with nn.no_grad():
        sep_out = fdsp_forward(fdsp.model.separable_part(), test.images[:16], fdsp.grid).data
    pipe = CompressionPipeline(result.bounds.lower, result.bounds.upper, bits=4)
    ct = pipe.compress_packed(sep_out)
    print(f"\nConv-node output: {ct.raw_bits / 8000:.0f} kB -> {ct.compressed_bits / 8000:.1f} kB "
          f"({ct.ratio:.3f}x; paper Table 2: 0.011-0.056x)")


if __name__ == "__main__":
    main()
