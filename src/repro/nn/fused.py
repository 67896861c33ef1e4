"""Fused no-grad inference kernels — the one inference definition (DESIGN.md §5i).

The autograd module path pays, per layer per call, the cost of
:meth:`Tensor._make` graph construction plus one temporary array per
elementwise op.  Inference never backpropagates, so this module compiles a
module stack once into a flat chain of raw-ndarray *steps* that run with
in-place ufuncs and no Tensor objects at all.  Every layer class has a
kernel, so every model family's separable *and* rest stacks compile; the
Tensor module path is for training.  :func:`fused_clip_quantize` is the §4
analogue: clip → shift → quantize in one pass over the activation map.

Bit-identity contract
---------------------
Every fused step reproduces the exact ufunc sequence of its module
counterpart (same ops, same operand dtypes, same clip bounds), and the
convolution and the max-pool are the module path's own kernels
(:func:`~repro.nn.functional._conv2d_raw`, the per-sample GEMM, and
:func:`~repro.nn.functional._max_pool2d_raw`).
``FusedSeparable(stack)(x)`` therefore returns bitwise the same array as
``stack(Tensor(x)).data`` in eval mode — a property the conformance tests
assert for every layer class and model family.

Composite blocks opt in by implementing ``fused_steps(compile_module)``
(see :class:`repro.models.blocks.ResidualBlock`); a module with neither a
kernel nor that hook raises :class:`UnsupportedModule`, a programming
error.  BN affine coefficients are recomputed on every call, so a fused
stack stays correct across weight updates; training-mode stacks refuse to
run (batch statistics need the per-tile module path).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from types import MappingProxyType

import numpy as np

from .functional import _conv2d_raw, _max_pool2d_raw
from .modules import (
    AvgPool2d,
    ClippedReLU,
    Conv1d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    GlobalMaxPool1d,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool1d,
    MaxPool2d,
    Module,
    NearestUpsample2d,
    QuantizeSTE,
    ReLU,
    Sequential,
    _BatchNorm,
)

__all__ = ["FusedSeparable", "try_compile", "fused_clip_quantize", "UnsupportedModule"]

#: One compiled kernel: ``(fn, writes_in_place)``.  ``fn`` maps an ndarray to
#: an ndarray; when ``writes_in_place`` is true it mutates (or returns a view
#: of) its argument, so the runner copies first unless it already owns the
#: buffer.
Step = tuple[Callable[[np.ndarray], np.ndarray], bool]


class UnsupportedModule(TypeError):
    """A module the fused compiler has no kernel for (a programming error:
    every layer class has one)."""


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
        # tracks weight updates with no recompile step (DESIGN.md §5i); same
        # expressions as functional.batch_norm.
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


def _global_max_pool1d(x: np.ndarray) -> np.ndarray:
    idx = x.argmax(axis=2)
    return np.take_along_axis(x, idx[..., None], axis=2)[..., 0]


def _nearest_upsample2d_steps(m: NearestUpsample2d) -> list[Step]:
    s = m.scale
    return [] if s == 1 else [(lambda x: np.repeat(np.repeat(x, s, axis=2), s, axis=3), False)]


def _linear_steps(m: Linear) -> list[Step]:
    def run(x: np.ndarray) -> np.ndarray:
        out = x @ m.weight.data.transpose((1, 0))
        if m.bias is not None:
            out += m.bias.data
        return out

    return [(run, False)]


#: Kernel per layer class, looked up along the module's MRO (so
#: ``BatchNorm1d``/``BatchNorm2d`` find ``_BatchNorm``).  Read-only so
#: fork-inherited copies cannot diverge per worker.  ``Flatten``'s reshape
#: is a view of its argument, so it is flagged like an in-place step: the
#: runner then owns the buffer before a later in-place step writes through.
_KERNELS: Mapping[type, Callable[..., list[Step]]] = MappingProxyType({
    Sequential: lambda m: [step for child in m for step in compile_module(child)],
    Identity: lambda m: [],
    Conv2d: _conv2d_steps,
    Conv1d: _conv1d_steps,
    _BatchNorm: _bn_steps,
    ReLU: _relu_steps,
    LeakyReLU: _leaky_relu_steps,
    ClippedReLU: _clipped_relu_steps,
    QuantizeSTE: _quantize_ste_steps,
    MaxPool2d: _max_pool2d_steps,
    MaxPool1d: _max_pool1d_steps,
    AvgPool2d: _avg_pool2d_steps,
    GlobalAvgPool2d: lambda m: [(lambda x: x.mean(axis=(2, 3)), False)],
    GlobalMaxPool1d: lambda m: [(_global_max_pool1d, False)],
    NearestUpsample2d: _nearest_upsample2d_steps,
    Flatten: lambda m: [(lambda x: x.reshape(*x.shape[: m.start_dim], -1), True)],
    Linear: _linear_steps,
})


def compile_module(m: Module) -> list[Step]:
    """Compile one module (recursively) into its fused step chain.

    Raises :class:`UnsupportedModule` for a module with neither a kernel
    nor a ``fused_steps`` hook.
    """
    for cls in type(m).__mro__:
        kernel = _KERNELS.get(cls)
        if kernel is not None:
            return kernel(m)
    hook = getattr(m, "fused_steps", None)
    if callable(hook):
        return list(hook(compile_module))
    raise UnsupportedModule(f"no fused kernel for {type(m).__name__}")


class FusedSeparable:
    """A module stack compiled to a raw-ndarray inference chain.

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
        """The source module stack (the training path and weight owner)."""
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


def try_compile(stack: Module) -> FusedSeparable:
    """Compile ``stack`` for fused inference.

    Total over every layer class and model family; raises
    :class:`UnsupportedModule` only for a module without a kernel.
    """
    return FusedSeparable(stack, compile_module(stack))


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
