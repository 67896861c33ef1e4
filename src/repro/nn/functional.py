"""Autograd-aware neural-network operations.

The convolution kernels here are the computational heart of the reproduction:
they run both the per-tile FDSP forward passes on (emulated) Conv nodes and
the retraining loops of Algorithm 1.  Convolution is implemented as a
*K-major* im2col followed by a GEMM: ``colst[(c, kh, kw), (n, ho, wo)]`` is
filled by ``kh·kw`` strided slice assignments from the padded input, so the
copies run over whole output rows instead of ``kw``-element windows, and
its input gradient uses the dilated transposed-convolution identity so
every path stays vectorized: no Python loops over pixels.  Max-pooling
folds the ``k·k`` strided views of its input with ``np.maximum`` (no
window copy); the winner indices are computed in the backward pass only.

The GEMM is dispatched in *fixed-shape chunks* — BLAS reads each
``_GEMM_CHUNK_ROWS``-column chunk of ``colst`` through a transposed view
(``colst[:, s:e].T @ wmat``, no copy), so every call is logically exactly
``(_GEMM_CHUNK_ROWS, C·kh·kw) @ (C·kh·kw, O)``, the last chunk zero-padded
to size — and that shape discipline is a deliberate invariant, not an
accident: BLAS picks different kernels (hence different summation orders)
for different matrix sizes, so a variable-``M`` GEMM makes an output
pixel's bits depend on how many columns share its call (batch size, tile
area).  With every call identically shaped, each output pixel is a pure
function of its own im2col column — not of the batch around it, nor of
the column's offset within its chunk — which buys two bitwise guarantees
at once (DESIGN.md §5i): stacking a grid's K tiles into one
(K·N, C, h, w) block yields exactly the bits of K separate forwards, and
a tile's interior pixels equal the unpartitioned whole-image forward
exactly (the FDSP exactness contract of §3.2).  Those, and fused ==
module, are the pinned contracts; conv output bits across commits are not
(BLAS may pick another small-matrix kernel for the transposed operand).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor

__all__ = [
    "conv2d",
    "conv1d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "max_pool1d",
    "global_max_pool1d",
    "nearest_upsample2d",
    "batch_norm",
    "linear",
    "pad2d",
]


def _as_pair(v) -> tuple[int, int]:
    return (v, v) if isinstance(v, int) else tuple(v)


# --------------------------------------------------------------------------
# Raw NumPy convolution helpers (shared by forward and backward passes).
# --------------------------------------------------------------------------
#: Fixed GEMM height.  Every conv BLAS call is logically exactly this many
#: rows (the last chunk zero-padded), so kernel selection — and therefore
#: summation order — never varies with batch size or tile area.  See module
#: docstring.
_GEMM_CHUNK_ROWS = 256


def _conv2d_raw(x: np.ndarray, w: np.ndarray, stride: tuple[int, int], pad: tuple[int, int]) -> np.ndarray:
    """Cross-correlate ``x`` (N,C,H,W) with ``w`` (O,C,kh,kw)."""
    sh, sw = stride
    ph, pw = pad
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    if ph or pw:
        xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
        xp[:, :, ph : ph + h, pw : pw + wd] = x
        x = xp
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    m, k = n * ho * wo, c * kh * kw
    # K-major im2col: colst[(c, dy, dx), (n, ho, wo)], one strided slice
    # copy per kernel offset, so the inner runs are whole output rows.
    colst = np.empty((c, kh, kw, n, ho, wo), dtype=x.dtype)
    xt = x.transpose(1, 0, 2, 3)
    for dy in range(kh):
        for dx in range(kw):
            colst[:, dy, dx] = xt[:, :, dy : dy + sh * ho : sh, dx : dx + sw * wo : sw]
    colst = colst.reshape(k, m)
    wmat = np.ascontiguousarray(w.reshape(o, k).T)
    # Fixed-shape chunked GEMM: BLAS reads each 256-column chunk through a
    # transposed view (no copy), so every call is logically (256, K) @ (K, O)
    # and each output pixel is a pure function of its own im2col column
    # (see module docstring).
    out = np.empty((m, o), dtype=x.dtype)
    full = m - m % _GEMM_CHUNK_ROWS
    for s in range(0, full, _GEMM_CHUNK_ROWS):
        np.matmul(colst[:, s : s + _GEMM_CHUNK_ROWS].T, wmat, out=out[s : s + _GEMM_CHUNK_ROWS])
    if full < m:
        tail = np.zeros((k, _GEMM_CHUNK_ROWS), dtype=x.dtype)
        tail[:, : m - full] = colst[:, full:]
        out[full:] = (tail.T @ wmat)[: m - full]
    return np.ascontiguousarray(out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2))


def _max_pool2d_raw(x: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping ``k``×``k`` max pool of ``x`` (N,C,H,W).

    Folds the ``k·k`` strided views with ``np.maximum``: no window copy,
    and exact, so the values equal a max over the gathered windows.
    """
    h, w = x.shape[2], x.shape[3]
    if h % k or w % k:
        raise ValueError(f"max_pool2d: spatial dims {(h, w)} not divisible by kernel {k}")
    out = x[:, :, ::k, ::k].copy()
    for dy in range(k):
        for dx in range(k):
            if dy or dx:
                np.maximum(out, x[:, :, dy::k, dx::k], out=out)
    return out


def _dilate(g: np.ndarray, stride: tuple[int, int]) -> np.ndarray:
    """Insert ``stride-1`` zeros between elements along H and W."""
    sh, sw = stride
    if sh == 1 and sw == 1:
        return g
    n, c, h, w = g.shape
    out = np.zeros((n, c, (h - 1) * sh + 1, (w - 1) * sw + 1), dtype=g.dtype)
    out[:, :, ::sh, ::sw] = g
    return out


def _conv2d_input_grad(
    grad_out: np.ndarray,
    w: np.ndarray,
    x_shape: tuple[int, ...],
    stride: tuple[int, int],
    pad: tuple[int, int],
) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input via transposed convolution."""
    kh, kw = w.shape[2], w.shape[3]
    ph, pw = pad
    n, c, h, wd = x_shape
    g = _dilate(grad_out, stride)
    # Account for truncation when (H + 2p - kh) % stride != 0.
    need_h = h + 2 * ph - kh + 1
    need_w = wd + 2 * pw - kw + 1
    pad_h = need_h - g.shape[2]
    pad_w = need_w - g.shape[3]
    if pad_h or pad_w:
        g = np.pad(g, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)))
    w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (C, O, kh, kw)
    dx_full = _conv2d_raw(g, np.ascontiguousarray(w_flip), (1, 1), (kh - 1, kw - 1))
    if ph or pw:
        dx_full = dx_full[:, :, ph : ph + h, pw : pw + wd]
    return dx_full


def _conv2d_weight_grad(
    grad_out: np.ndarray,
    x: np.ndarray,
    k: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int],
) -> np.ndarray:
    """Gradient of conv2d w.r.t. its weights."""
    kh, kw = k
    ph, pw = pad
    sh, sw = stride
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    if sh != 1 or sw != 1:
        win = win[:, :, ::sh, ::sw]
    # grad_out: (N, O, Ho, Wo); win: (N, C, Ho, Wo, kh, kw) -> (O, C, kh, kw).
    return np.tensordot(grad_out, win, axes=([0, 2, 3], [0, 2, 3]))


# --------------------------------------------------------------------------
# Autograd-wrapped ops.
# --------------------------------------------------------------------------
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride=1, padding=0) -> Tensor:
    """2-D convolution (cross-correlation) with autograd.

    ``x``: (N, C, H, W); ``weight``: (O, C, kh, kw); ``bias``: (O,) or None.
    """
    stride = _as_pair(stride)
    padding = _as_pair(padding)
    out_data = _conv2d_raw(x.data, weight.data, stride, padding)
    if bias is not None:
        out_data += bias.data.reshape(1, -1, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def bwd(out: Tensor) -> None:
        g = out.grad
        if x.requires_grad:
            x._accumulate(_conv2d_input_grad(g, weight.data, x.data.shape, stride, padding))
        if weight.requires_grad:
            weight._accumulate(
                _conv2d_weight_grad(g, x.data, (weight.shape[2], weight.shape[3]), stride, padding)
            )
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, "conv2d", bwd)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D convolution for CharCNN, routed through conv2d with H=1.

    ``x``: (N, C, L); ``weight``: (O, C, k).
    """
    n, c, l = x.shape
    x4 = x.reshape(n, c, 1, l)
    w4 = weight.reshape(weight.shape[0], weight.shape[1], 1, weight.shape[2])
    out = conv2d(x4, w4, bias, stride=(1, stride), padding=(0, padding))
    return out.reshape(out.shape[0], out.shape[1], out.shape[3])


def pad2d(x: Tensor, pad: tuple[int, int, int, int]) -> Tensor:
    """Zero-pad (top, bottom, left, right) — the FDSP tile-border padding."""
    t, b, l, r = pad
    data = np.pad(x.data, ((0, 0), (0, 0), (t, b), (l, r)))

    def bwd(out: Tensor) -> None:
        h, w = x.shape[2], x.shape[3]
        x._accumulate(out.grad[:, :, t : t + h, l : l + w])

    return Tensor._make(data, (x,), "pad2d", bwd)


def max_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping max pooling (kernel == stride).

    ADCNN requires pooling receptive fields to stay inside one tile (§3.2),
    which non-overlapping pooling with tile-divisible sizes guarantees.
    """
    n, c, h, w = x.shape
    k = kernel
    out_data = _max_pool2d_raw(x.data, k)
    ho, wo = h // k, w // k

    def bwd(out: Tensor) -> None:
        # The winner indices are only needed here, so inference never pays
        # for the window gather + argmax.
        win = x.data.reshape(n, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)
        idx = win.argmax(axis=-1)
        gwin = np.zeros((n, c, ho, wo, k * k), dtype=x.data.dtype)
        np.put_along_axis(gwin, idx[..., None], out.grad[..., None], axis=-1)
        gx = gwin.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        x._accumulate(gx)

    return Tensor._make(out_data, (x,), "max_pool2d", bwd)


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping average pooling (kernel == stride)."""
    n, c, h, w = x.shape
    k = kernel
    if h % k or w % k:
        raise ValueError(f"avg_pool2d: spatial dims {(h, w)} not divisible by kernel {k}")
    ho, wo = h // k, w // k
    out_data = x.data.reshape(n, c, ho, k, wo, k).mean(axis=(3, 5))

    def bwd(out: Tensor) -> None:
        g = out.grad[:, :, :, None, :, None] / (k * k)
        gx = np.broadcast_to(g, (n, c, ho, k, wo, k)).reshape(n, c, h, w)
        x._accumulate(gx)

    return Tensor._make(out_data, (x,), "avg_pool2d", bwd)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dims: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


def max_pool1d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping 1-D max pooling for CharCNN: (N, C, L) -> (N, C, L/k)."""
    n, c, l = x.shape
    if l % kernel:
        raise ValueError(f"max_pool1d: length {l} not divisible by kernel {kernel}")
    win = x.data.reshape(n, c, l // kernel, kernel)
    idx = win.argmax(axis=-1)
    out_data = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def bwd(out: Tensor) -> None:
        gwin = np.zeros_like(win)
        np.put_along_axis(gwin, idx[..., None], out.grad[..., None], axis=-1)
        x._accumulate(gwin.reshape(n, c, l))

    return Tensor._make(out_data, (x,), "max_pool1d", bwd)


def global_max_pool1d(x: Tensor) -> Tensor:
    """Max over the length dim: (N, C, L) -> (N, C).  CharCNN readout."""
    n, c, l = x.shape
    idx = x.data.argmax(axis=2)
    out_data = np.take_along_axis(x.data, idx[..., None], axis=2)[..., 0]

    def bwd(out: Tensor) -> None:
        g = np.zeros_like(x.data)
        np.put_along_axis(g, idx[..., None], out.grad[..., None], axis=2)
        x._accumulate(g)

    return Tensor._make(out_data, (x,), "global_max_pool1d", bwd)


def nearest_upsample2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor (FCN decoder)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if scale == 1:
        return x
    n, c, h, w = x.shape
    data = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)

    def bwd(out: Tensor) -> None:
        g = out.grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        x._accumulate(g)

    return Tensor._make(data, (x,), "upsample", bwd)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over (N, H, W) per channel, or (N,) for 2-D input.

    In training mode batch statistics are used and the running statistics are
    updated in place.  In inference mode the op collapses to the affine map
    ``a*x + b`` described in §2.1 of the paper.
    """
    if x.ndim == 4:
        axes: tuple[int, ...] = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 3:
        axes = (0, 2)
        shape = (1, -1, 1)
    else:
        axes = (0,)
        shape = (1, -1)

    if training:
        mu = x.mean(axis=axes, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=axes, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.data.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * var.data.reshape(-1)
        x_hat = (x - mu) / (var + eps).sqrt()
        return gamma.reshape(*shape) * x_hat + beta.reshape(*shape)

    # Inference: fixed affine transform (a = gamma/sigma, b = beta - mu*a).
    a = gamma.data / np.sqrt(running_var + eps)
    b = beta.data - running_mean * a
    a_t = Tensor(a.reshape(shape))
    b_t = Tensor(b.reshape(shape))
    return a_t * x + b_t


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ W.T + b``; ``x``: (N, in), ``weight``: (out, in)."""
    out = x @ weight.transpose((1, 0))
    if bias is not None:
        out = out + bias
    return out
