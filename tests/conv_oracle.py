"""Window-gather convolution and reshape-max pool: the oracle for the
K-major kernels in ``repro.nn.functional``.

Test-only reference implementations, kept off the import path of every
worker: they were the production forward kernels until the K-major im2col
and the strided-view pool replaced them (DESIGN.md §5i), and
``tests/test_conv_kernels.py`` and the ``bench_kernels.py`` perf gates
compare the shipped kernels against them.

The conv gathers a 6-D ``sliding_window_view`` into row-major im2col rows
``cols[(n, ho, wo), (c, kh, kw)]`` (inner runs of ``kw`` elements) and
multiplies in fixed ``(256, K) @ (K, O)`` chunks; the pool copies the
``k·k`` windows next to each other and reduces over them.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["conv2d_window_gather", "max_pool2d_reshape"]

_CHUNK_ROWS = 256


def _chunked_matmul(cols: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """``cols (M, K) @ wmat (K, O)`` via fixed-shape GEMM calls."""
    rows, k = cols.shape
    out = np.empty((rows, wmat.shape[1]), dtype=cols.dtype)
    pad_buf: np.ndarray | None = None
    for start in range(0, rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, rows)
        if stop - start == _CHUNK_ROWS:
            out[start:stop] = cols[start:stop] @ wmat
        else:
            if pad_buf is None:
                pad_buf = np.zeros((_CHUNK_ROWS, k), dtype=cols.dtype)
            pad_buf[: stop - start] = cols[start:stop]
            out[start:stop] = (pad_buf @ wmat)[: stop - start]
    return out


def conv2d_window_gather(
    x: np.ndarray, w: np.ndarray, stride: tuple[int, int], pad: tuple[int, int]
) -> np.ndarray:
    """Cross-correlate ``x`` (N,C,H,W) with ``w`` (O,C,kh,kw)."""
    sh, sw = stride
    ph, pw = pad
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    kh, kw = w.shape[2], w.shape[3]
    # (N, C, Ho', Wo', kh, kw) view — zero-copy.
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    if sh != 1 or sw != 1:
        win = win[:, :, ::sh, ::sw]
    n, c, ho, wo = win.shape[:4]
    o = w.shape[0]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * kh * kw)
    wmat = np.ascontiguousarray(w.transpose(1, 2, 3, 0)).reshape(c * kh * kw, o)
    out = _chunked_matmul(cols, wmat)
    return np.ascontiguousarray(out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2))


def max_pool2d_reshape(x: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping ``k``×``k`` max pool of ``x`` (N,C,H,W)."""
    n, c, h, w = x.shape
    ho, wo = h // k, w // k
    win = x.reshape(n, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)
    return win.max(axis=-1)
