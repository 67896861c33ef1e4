"""Microbenchmarks of the computational kernels underneath every experiment.

These use pytest-benchmark's statistical timing (multiple rounds) — the
numbers to watch when optimizing the NumPy engine.

BLAS is pinned to one thread at import, as ``ProcessCluster.start()`` does
for every node process (DESIGN.md §5l): with the default pool, an idle
OpenBLAS thread busy-waits after each GEMM and a sub-millisecond kernel
reads as ~100 ms, so the rows below would not measure what production runs.
"""

import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

import repro.nn as nn
import repro.nn.functional as F
from repro.compression import CompressionPipeline, pack_levels, unpack, wire
from repro.models import vgg_mini
from repro.nn import Tensor, blas
from repro.nn.functional import _conv2d_raw, _max_pool2d_raw
from repro.nn.fused import fused_clip_quantize, try_compile
from repro.partition import TileGrid, fdsp_forward
from repro.partition.geometry import split_array
from repro.runtime import allocate_tiles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conv_oracle import conv2d_window_gather, max_pool2d_reshape  # noqa: E402

blas.pin_single_thread()

RNG = np.random.default_rng(0)


def _timed(fn, repeats=50):
    """Best-of-3 mean lap: robust against scheduler noise on shared CI."""
    fn()  # warm caches / BLAS threads
    laps = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        laps.append((time.perf_counter() - t0) / repeats)
    return min(laps)


def test_conv2d_forward(benchmark):
    x = Tensor(RNG.normal(size=(4, 16, 32, 32)).astype(np.float32))
    w = Tensor(RNG.normal(size=(32, 16, 3, 3)).astype(np.float32))
    benchmark(lambda: F.conv2d(x, w, padding=1))


def test_conv2d_backward(benchmark):
    x = RNG.normal(size=(4, 16, 32, 32)).astype(np.float32)
    w = Tensor(RNG.normal(size=(32, 16, 3, 3)).astype(np.float32), requires_grad=True)

    def fwd_bwd():
        t = Tensor(x, requires_grad=True)
        F.conv2d(t, w, padding=1).sum().backward()
        w.zero_grad()

    benchmark(fwd_bwd)


def test_max_pool2d(benchmark):
    x = Tensor(RNG.normal(size=(8, 32, 32, 32)).astype(np.float32))
    benchmark(lambda: F.max_pool2d(x, 2))


def test_batch_norm_training(benchmark):
    x = Tensor(RNG.normal(size=(16, 32, 16, 16)).astype(np.float32))
    gamma, beta = Tensor(np.ones(32)), Tensor(np.zeros(32))
    rm, rv = np.zeros(32), np.ones(32)
    benchmark(lambda: F.batch_norm(x, gamma, beta, rm, rv, training=True))


def test_packed_encode_sparse(benchmark):
    """Levels -> one contiguous wire buffer (the result hot path)."""
    levels = np.zeros(200_000, dtype=np.int64)
    levels[RNG.choice(200_000, 5000, replace=False)] = RNG.integers(1, 16, 5000)
    benchmark(lambda: pack_levels(levels))


def test_packed_roundtrip(benchmark):
    levels = np.zeros(50_000, dtype=np.int64)
    levels[RNG.choice(50_000, 2500, replace=False)] = RNG.integers(1, 16, 2500)
    benchmark(lambda: unpack(pack_levels(levels)))


def test_compression_pipeline_packed(benchmark):
    pipe = CompressionPipeline(lower=0.2, upper=2.0, bits=4)
    x = np.maximum(RNG.normal(loc=-1.0, size=(64, 24, 24)), 0).astype(np.float32)
    benchmark(lambda: pipe.decompress(pipe.compress_packed(x)))


def test_compression_pipeline(benchmark):
    pipe = CompressionPipeline(lower=0.2, upper=2.0, bits=4)
    x = np.maximum(RNG.normal(loc=-1.0, size=(64, 24, 24)), 0).astype(np.float32)
    benchmark(lambda: pipe.apply(x))


def test_tile_allocation(benchmark):
    rates = RNG.uniform(0.5, 8.0, size=8)
    benchmark(lambda: allocate_tiles(64, rates))


def test_fdsp_tile_forward(benchmark):
    model = vgg_mini(input_size=48, base_width=8).eval()
    stack = model.separable_part()
    x = RNG.normal(size=(1, 3, 48, 48)).astype(np.float32)
    benchmark(lambda: fdsp_forward(stack, x, TileGrid(4, 4)))


# --------------------------------------------- layout gates (DESIGN.md §5i)
#: The four conv layers one ``steady_compute`` worker runs per image
#: (8 stacked 24x24 tiles of a 96x96 vgg_mini, base width 12): input shape
#: and output channels, all 3x3 pad 1.
WORKER_LAYERS = (((8, 3, 24, 24), 12), ((8, 12, 24, 24), 12), ((8, 12, 12, 12), 24), ((8, 24, 12, 12), 24))


def test_kmajor_conv_speedup(benchmark):
    """CI gate: the K-major im2col + transposed-view GEMM must be >= 1.8x
    the window-gather formulation it replaced (``tests/conv_oracle.py``),
    summed over the worker's four layer shapes."""
    cases = [
        (RNG.normal(size=shape).astype(np.float32), RNG.normal(size=(o, shape[1], 3, 3)).astype(np.float32))
        for shape, o in WORKER_LAYERS
    ]
    for x, w in cases:
        np.testing.assert_allclose(
            _conv2d_raw(x, w, (1, 1), (1, 1)), conv2d_window_gather(x, w, (1, 1), (1, 1)), rtol=1e-6, atol=1e-5
        )

    def shipped():
        return [_conv2d_raw(x, w, (1, 1), (1, 1)) for x, w in cases]

    def oracle():
        return [conv2d_window_gather(x, w, (1, 1), (1, 1)) for x, w in cases]

    t_oracle = _timed(oracle)
    t_shipped = _timed(shipped)
    speedup = t_oracle / t_shipped
    assert speedup >= 1.8, (
        f"K-major conv only {speedup:.2f}x the window gather "
        f"(oracle {t_oracle * 1e3:.3f} ms, shipped {t_shipped * 1e3:.3f} ms over {len(cases)} layers)"
    )
    benchmark.extra_info["speedup_vs_window_gather"] = speedup
    benchmark(shipped)


def test_strided_max_pool_speedup(benchmark):
    """CI gate: folding the k*k strided views must be >= 5x the
    transpose-reshape copy + reduce on the worker's pool shape."""
    x = RNG.normal(size=(8, 12, 24, 24)).astype(np.float32)
    np.testing.assert_array_equal(_max_pool2d_raw(x, 2), max_pool2d_reshape(x, 2))
    t_oracle = _timed(lambda: max_pool2d_reshape(x, 2), repeats=200)
    t_shipped = _timed(lambda: _max_pool2d_raw(x, 2), repeats=200)
    speedup = t_oracle / t_shipped
    assert speedup >= 5.0, (
        f"strided max-pool only {speedup:.2f}x the reshape-max "
        f"(oracle {t_oracle * 1e6:.0f} us, shipped {t_shipped * 1e6:.0f} us)"
    )
    benchmark.extra_info["speedup_vs_reshape_max"] = speedup
    benchmark(lambda: _max_pool2d_raw(x, 2))


# ------------------------------------------------- batched/fused hot path
def test_batched_tile_forward_speedup(benchmark):
    """CI gate (DESIGN.md §5i): the worker's batched+fused grid forward
    must be >= 2x the seed per-tile loop on a 2x2-grid vgg_mini.

    The looped lap is the seed worker hot path (one Tensor graph + one
    GEMM sequence per tile); the batched lap is the shipped one (stack the
    grid, one fused no-grad pass, slice) including the concatenate cost.
    """
    model = vgg_mini(input_size=24, base_width=6).eval()
    stack = model.separable_part()
    fused = try_compile(stack)
    grid = TileGrid(2, 2)
    x = RNG.normal(size=(1, 3, 24, 24)).astype(np.float32)
    tiles = split_array(x, grid)

    def looped():
        with nn.no_grad():
            return [stack(Tensor(t)).data for t in tiles]

    def batched():
        out = fused(np.concatenate(tiles, axis=0))
        return [out[i : i + 1] for i in range(grid.num_tiles)]

    np.testing.assert_array_equal(np.concatenate(batched(), axis=0), np.concatenate(looped(), axis=0))
    t_looped = _timed(looped)
    t_batched = _timed(batched)
    speedup = t_looped / t_batched
    assert speedup >= 2.0, (
        f"batched grid forward only {speedup:.2f}x the per-tile loop "
        f"(looped {t_looped * 1e3:.3f} ms, batched {t_batched * 1e3:.3f} ms)"
    )
    benchmark(batched)


def test_looped_tile_forward_baseline(benchmark):
    """The seed per-tile path, kept as the trend baseline for the gate above."""
    model = vgg_mini(input_size=24, base_width=6).eval()
    stack = model.separable_part()
    tiles = split_array(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32), TileGrid(2, 2))

    def looped():
        with nn.no_grad():
            return [stack(Tensor(t)).data for t in tiles]

    benchmark(looped)


def test_batch_stream_codec_speedup(benchmark):
    """CI gate (DESIGN.md §5d): one ``steady_compute`` worker's batch — 8
    stacked ``(1, 24, 12, 12)`` tile outputs, ~0.56 zeros — encoded and
    decoded as one stream through the byte-wide 4/8-bit packers must be
    >= 2x eight per-tile streams through the bit-matrix packer (the codec
    before batch streams)."""
    model = vgg_mini(num_classes=3, input_size=96, base_width=12, separable_prefix=4).eval()
    fused = try_compile(model.separable_part())
    tiles = split_array(RNG.normal(size=(1, 3, 96, 96)).astype(np.float32), TileGrid(4, 4))
    block = fused(np.concatenate(tiles[:8]))
    outs = np.split(block, 8)
    pipe = CompressionPipeline(bits=4)

    def per_tile():
        return [pipe.decompress(pipe.compress_packed(o)) for o in outs]

    def batch():
        return pipe.decompress(pipe.compress_packed(block))

    bit_matrix = mock.patch.multiple(
        wire, _pack_bits=wire._pack_bits_matrix, _unpack_bits=wire._unpack_bits_matrix
    )
    with bit_matrix:
        per_tile_levels = [unpack(pipe.compress_packed(o).packed) for o in outs]
        t_per_tile = _timed(per_tile)
    levels = unpack(pipe.compress_packed(block).packed)
    np.testing.assert_array_equal(np.concatenate(per_tile_levels), levels)
    t_batch = _timed(batch)
    speedup = t_per_tile / t_batch
    assert speedup >= 2.0, (
        f"batch-stream codec only {speedup:.2f}x per-tile bit-matrix streams "
        f"(per-tile {t_per_tile * 1e3:.3f} ms, batch {t_batch * 1e3:.3f} ms, "
        f"sparsity {float((levels == 0).mean()):.2f})"
    )
    benchmark.extra_info["speedup_vs_per_tile_bit_matrix"] = speedup
    benchmark(batch)


def test_fused_clip_quantize_speedup(benchmark):
    """CI gate: the single-pass clip+quantize must beat the two-stage
    composition at feature-map scale (in-place ops drop ~4 temporaries)."""
    pipe = CompressionPipeline(lower=0.0, upper=6.0, bits=4)
    x = np.maximum(RNG.normal(loc=-1.0, size=(128, 48, 48)), 0).astype(np.float32)

    def unfused():
        return pipe.quantizer.quantize(pipe.clip(x))

    def fused():
        return fused_clip_quantize(
            x, pipe.lower, pipe.upper, pipe.quantizer.step,
            pipe.quantizer.num_levels, pipe.quantizer.level_dtype,
        )

    np.testing.assert_array_equal(fused(), unfused())
    t_unfused = _timed(unfused, repeats=100)
    t_fused = _timed(fused, repeats=100)
    speedup = t_unfused / t_fused
    assert speedup >= 1.2, (
        f"fused clip+quantize only {speedup:.2f}x the composition "
        f"(unfused {t_unfused * 1e6:.0f} us, fused {t_fused * 1e6:.0f} us)"
    )
    benchmark(fused)
