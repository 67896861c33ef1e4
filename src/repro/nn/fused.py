"""Fused no-grad inference kernels — the worker hot path (DESIGN.md §5i).

The autograd module path pays, per layer per tile, the cost of
:meth:`Tensor._make` graph construction plus one temporary array per
elementwise op.  Inference workers never backpropagate, so this module
compiles a separable stack once into a flat chain of raw-ndarray *steps*
(conv+bias, BN affine, activation, pool) that run with in-place ufuncs and
no Tensor objects at all.  :func:`fused_clip_quantize` is the §4 analogue:
clip → shift → quantize in one pass over the activation map.

Bit-identity contract
---------------------
Every fused step reproduces the exact ufunc sequence of its module
counterpart (same ops, same operand dtypes, same clip bounds), and the
convolution and the max-pool are the module path's own kernels
(:func:`~repro.nn.functional._conv2d_raw`, the per-sample GEMM, and
:func:`~repro.nn.functional._max_pool2d_raw`).
``FusedSeparable(stack)(x)`` therefore returns bitwise the same array as
``stack(Tensor(x)).data`` in eval mode — a property the conformance tests
assert, and the reason workers may switch freely between the two paths.

Composite blocks opt in by implementing ``fused_steps(compile_module)``
(see :class:`repro.models.blocks.ResidualBlock`); unknown modules make
:func:`try_compile` return ``None`` and callers fall back to the module
path.  BN affine coefficients are recomputed on every call, so a fused
stack stays correct across weight updates; training-mode stacks refuse to
run (batch statistics need the per-tile module path).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .functional import _conv2d_raw, _max_pool2d_raw
from .modules import (
    AvgPool2d,
    ClippedReLU,
    Conv1d,
    Conv2d,
    Identity,
    LeakyReLU,
    MaxPool1d,
    MaxPool2d,
    Module,
    QuantizeSTE,
    ReLU,
    Sequential,
    _BatchNorm,
)

__all__ = ["FusedSeparable", "try_compile", "fused_clip_quantize", "UnsupportedModule"]

#: One compiled kernel: ``(fn, writes_in_place)``.  ``fn`` maps an ndarray to
#: an ndarray; when ``writes_in_place`` is true it mutates its argument, so
#: the runner copies first unless it already owns the buffer.
Step = tuple[Callable[[np.ndarray], np.ndarray], bool]


class UnsupportedModule(TypeError):
    """A module the fused compiler has no kernel for."""


def run_steps(steps: tuple[Step, ...] | list[Step], x: np.ndarray, owned: bool = False) -> np.ndarray:
    """Run a compiled step chain; ``owned`` marks ``x`` as safe to mutate."""
    for fn, inplace in steps:
        if inplace and not owned:
            x = x.copy()
        x = fn(x)
        owned = True
    return x


# --------------------------------------------------------------------------
# Per-module kernels.  Each mirrors its module's ufunc sequence exactly.
# --------------------------------------------------------------------------
def _conv2d_steps(m: Conv2d) -> list[Step]:
    stride = (m.stride, m.stride)
    pad = (m.padding, m.padding)

    def run(x: np.ndarray) -> np.ndarray:
        out = _conv2d_raw(x, m.weight.data, stride, pad)
        if m.bias is not None:
            out += m.bias.data.reshape(1, -1, 1, 1)
        return out

    return [(run, False)]


def _conv1d_steps(m: Conv1d) -> list[Step]:
    def run(x: np.ndarray) -> np.ndarray:
        n, c, length = x.shape
        w = m.weight.data
        out = _conv2d_raw(
            x.reshape(n, c, 1, length),
            w.reshape(w.shape[0], w.shape[1], 1, w.shape[2]),
            (1, m.stride),
            (0, m.padding),
        )
        if m.bias is not None:
            out += m.bias.data.reshape(1, -1, 1, 1)
        return out.reshape(out.shape[0], out.shape[1], out.shape[3])

    return [(run, False)]


def _bn_steps(m: _BatchNorm) -> list[Step]:
    def run(x: np.ndarray) -> np.ndarray:
        # Recomputed per call (not baked at compile time) so the fused stack
        # tracks weight updates; same expressions as functional.batch_norm.
        a, b = m.fused_inference_params()
        shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1, 1) if x.ndim == 3 else (1, -1)
        np.multiply(x, a.reshape(shape), out=x)
        np.add(x, b.reshape(shape), out=x)
        return x

    return [(run, True)]


def _relu_steps(m: ReLU) -> list[Step]:
    def run(x: np.ndarray) -> np.ndarray:
        np.multiply(x, x > 0, out=x)
        return x

    return [(run, True)]


def _leaky_relu_steps(m: LeakyReLU) -> list[Step]:
    def run(x: np.ndarray) -> np.ndarray:
        scale = np.where(x > 0, 1.0, m.negative_slope).astype(x.dtype)
        np.multiply(x, scale, out=x)
        return x

    return [(run, True)]


def _clipped_relu_steps(m: ClippedReLU) -> list[Step]:
    def run(x: np.ndarray) -> np.ndarray:
        y = np.clip(x, m.lower, m.upper)
        y -= m.lower
        return y

    return [(run, False)]


def _quantize_ste_steps(m: QuantizeSTE) -> list[Step]:
    def run(x: np.ndarray) -> np.ndarray:
        y = x / m.step
        np.rint(y, out=y)
        np.clip(y, 0, m.num_levels - 1, out=y)
        y *= m.step
        return y

    return [(run, False)]


def _max_pool2d_steps(m: MaxPool2d) -> list[Step]:
    def run(x: np.ndarray) -> np.ndarray:
        return _max_pool2d_raw(x, m.kernel_size)

    return [(run, False)]


def _max_pool1d_steps(m: MaxPool1d) -> list[Step]:
    def run(x: np.ndarray) -> np.ndarray:
        n, c, length = x.shape
        k = m.kernel_size
        if length % k:
            raise ValueError(f"max_pool1d: length {length} not divisible by kernel {k}")
        return x.reshape(n, c, length // k, k).max(axis=-1)

    return [(run, False)]


def _avg_pool2d_steps(m: AvgPool2d) -> list[Step]:
    def run(x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = m.kernel_size
        if h % k or w % k:
            raise ValueError(f"avg_pool2d: spatial dims {(h, w)} not divisible by kernel {k}")
        return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    return [(run, False)]


def compile_module(m: Module) -> list[Step]:
    """Compile one module (recursively) into its fused step chain.

    Raises :class:`UnsupportedModule` for anything without a kernel — use
    :func:`try_compile` for the fall-back-to-module-path behaviour.
    """
    if isinstance(m, Sequential):
        steps: list[Step] = []
        for child in m:
            steps.extend(compile_module(child))
        return steps
    if isinstance(m, Identity):
        return []
    if isinstance(m, Conv2d):
        return _conv2d_steps(m)
    if isinstance(m, Conv1d):
        return _conv1d_steps(m)
    if isinstance(m, _BatchNorm):
        return _bn_steps(m)
    if isinstance(m, ReLU):
        return _relu_steps(m)
    if isinstance(m, LeakyReLU):
        return _leaky_relu_steps(m)
    if isinstance(m, ClippedReLU):
        return _clipped_relu_steps(m)
    if isinstance(m, QuantizeSTE):
        return _quantize_ste_steps(m)
    if isinstance(m, MaxPool2d):
        return _max_pool2d_steps(m)
    if isinstance(m, MaxPool1d):
        return _max_pool1d_steps(m)
    if isinstance(m, AvgPool2d):
        return _avg_pool2d_steps(m)
    hook = getattr(m, "fused_steps", None)
    if callable(hook):
        return list(hook(compile_module))
    raise UnsupportedModule(f"no fused kernel for {type(m).__name__}")


class FusedSeparable:
    """A separable stack compiled to a raw-ndarray inference chain.

    Callable like the stack itself but ndarray → ndarray: no Tensor graph,
    in-place elementwise ops, bitwise-identical output to the module path
    in eval mode.  Weights are read through the live modules on every call.
    """

    __slots__ = ("_norms", "_stack", "_steps")

    def __init__(self, stack: Module, steps: list[Step]) -> None:
        self._stack = stack
        # Only _BatchNorm behaviour depends on the training flag among the
        # compilable modules (container flags are behaviourally inert), so
        # the per-call guard watches just the norm layers.
        self._norms = tuple(m for m in stack.modules() if isinstance(m, _BatchNorm))
        self._steps: tuple[Step, ...] = tuple(steps)

    @property
    def stack(self) -> Module:
        """The source module stack (the fallback path and weight owner)."""
        return self._stack

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if any(m.training for m in self._norms):
            raise RuntimeError(
                "FusedSeparable is inference-only (BN batch statistics need "
                "the module path); call stack.eval() first"
            )
        arr = np.asarray(x)
        # repro-lint: disable=RL005 — dtype *check*, not a promotion; mirrors Tensor.__init__
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)  # mirror Tensor.__init__ coercion
            return run_steps(self._steps, arr, owned=True)
        return run_steps(self._steps, arr, owned=False)


def try_compile(stack: Module) -> FusedSeparable | None:
    """Compile ``stack`` for fused inference, or ``None`` if any module
    lacks a kernel (callers then keep the Tensor module path)."""
    try:
        steps = compile_module(stack)
    except UnsupportedModule:
        return None
    return FusedSeparable(stack, steps)


def fused_clip_quantize(
    x: np.ndarray,
    lower: float,
    upper: float,
    step: float,
    num_levels: int,
    level_dtype: np.dtype,
) -> np.ndarray:
    """Clipped ReLU + uniform quantization in one pass (§4.1 + §4.2).

    Produces bitwise the levels of ``UniformQuantizer.quantize(clip(x))``
    with one temporary instead of four: the clip allocates, every later
    stage reuses that buffer in place.
    """
    y = np.clip(x, lower, upper)
    np.subtract(y, lower, out=y)
    np.divide(y, step, out=y)
    np.rint(y, out=y)
    np.clip(y, 0, num_levels - 1, out=y)
    return y.astype(level_dtype)
