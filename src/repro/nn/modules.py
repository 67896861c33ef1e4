"""Layer modules — the user-facing building blocks of :mod:`repro.nn`.

The API deliberately mirrors PyTorch's ``nn`` so the paper's model
definitions translate one-to-one: ``Module`` owns parameters and submodules,
``Sequential`` chains them, and ``state_dict``/``load_state_dict`` move
weights between the Central node and Conv nodes in the ADCNN runtime.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

from . import functional as F
from . import init
from .tensor import Parameter, Tensor

__all__ = [
    "Module",
    "Sequential",
    "Identity",
    "Conv2d",
    "Conv1d",
    "BatchNorm2d",
    "BatchNorm1d",
    "ReLU",
    "LeakyReLU",
    "ClippedReLU",
    "QuantizeSTE",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "MaxPool1d",
    "GlobalMaxPool1d",
    "NearestUpsample2d",
    "Linear",
    "Flatten",
]


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: OrderedDict[str, Parameter] = OrderedDict()
        self._buffers: OrderedDict[str, np.ndarray] = OrderedDict()
        self._modules: OrderedDict[str, Module] = OrderedDict()
        self.training = True

    # -------------------------------------------------------------- registry
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BN running statistics)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------- traversal
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, mod in self._modules.items():
            sub = f"{prefix}.{name}" if prefix else name
            yield from mod.named_modules(sub)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for mod_name, mod in self.named_modules(prefix):
            for p_name, p in mod._parameters.items():
                yield (f"{mod_name}.{p_name}" if mod_name else p_name), p

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for mod_name, mod in self.named_modules(prefix):
            for b_name in mod._buffers:
                yield (f"{mod_name}.{b_name}" if mod_name else b_name), mod._buffers[b_name]

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    # ----------------------------------------------------------------- modes
    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------ state dict
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters and buffers keyed by dotted path."""
        state: dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            state[name] = p.data.copy()
        for name, b in self.named_buffers():
            state[name] = b.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a state dict produced by :meth:`state_dict` (strict)."""
        own_params = dict(self.named_parameters())
        own_buffers = {name: mod for name, mod in self._iter_buffer_owners()}
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own_params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}")
            p.data[...] = state[name]
        for name, (mod, b_name) in own_buffers.items():
            mod._buffers[b_name][...] = state[name]
            object.__setattr__(mod, b_name, mod._buffers[b_name])

    def _iter_buffer_owners(self, prefix: str = ""):
        for mod_name, mod in self.named_modules(prefix):
            for b_name in mod._buffers:
                yield (f"{mod_name}.{b_name}" if mod_name else b_name), (mod, b_name)

    # --------------------------------------------------------------- forward
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


class Sequential(Module):
    """Chain of modules applied in order; supports indexing and slicing."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Sequential(*self.layers[idx])
        return self.layers[idx]

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Conv2d(Module):
    """2-D convolution layer."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class Conv1d(Module):
    """1-D convolution layer (CharCNN)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.kaiming_normal((out_channels, in_channels, kernel_size), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class _BatchNorm(Module):
    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def fused_inference_params(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(a, b)`` such that inference BN is ``a*x + b`` (§2.1)."""
        a = self.gamma.data / np.sqrt(self.running_var + self.eps)
        b = self.beta.data - self.running_mean * a
        return a, b


class BatchNorm2d(_BatchNorm):
    """BN over (N, H, W) per channel."""


class BatchNorm1d(_BatchNorm):
    """BN over (N, L) per channel (or (N,) for 2-D input)."""


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.1) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ValueError("negative_slope must be >= 0")
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class ClippedReLU(Module):
    """Paper §4.1 — ReLU with adjustable lower bound ``a`` and upper ``b``.

    The bounds control output sparsity: raising ``a`` zeroes more low
    activations, lowering ``b`` caps the dynamic range that the quantizer
    must cover.  They are hyperparameters set by
    :mod:`repro.training.bounds_search`.
    """

    def __init__(self, lower: float = 0.0, upper: float = 6.0) -> None:
        super().__init__()
        if upper <= lower:
            raise ValueError(f"need upper > lower, got [{lower}, {upper}]")
        self.lower = float(lower)
        self.upper = float(upper)

    @property
    def output_range(self) -> float:
        """Maximum output value, ``b - a``."""
        return self.upper - self.lower

    def forward(self, x: Tensor) -> Tensor:
        return x.clipped_relu(self.lower, self.upper)


class QuantizeSTE(Module):
    """Uniform ``bits``-bit quantizer over ``[0, max_value]`` with a
    straight-through gradient (§4.2/§4.4)."""

    def __init__(self, bits: int = 4, max_value: float = 6.0) -> None:
        super().__init__()
        if bits < 1:
            raise ValueError("need at least 1 bit")
        if max_value <= 0:
            raise ValueError("max_value must be positive")
        self.bits = int(bits)
        self.max_value = float(max_value)

    @property
    def num_levels(self) -> int:
        return 2**self.bits

    @property
    def step(self) -> float:
        return self.max_value / (self.num_levels - 1)

    def forward(self, x: Tensor) -> Tensor:
        return x.quantize_ste(self.step, self.num_levels)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class MaxPool1d(Module):
    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool1d(x, self.kernel_size)


class GlobalMaxPool1d(Module):
    """(N, C, L) -> (N, C) — position-invariant CharCNN readout."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_max_pool1d(x)


class NearestUpsample2d(Module):
    def __init__(self, scale: int) -> None:
        super().__init__()
        if scale < 1:
            raise ValueError("scale must be >= 1")
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.nearest_upsample2d(x, self.scale)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Flatten(Module):
    def __init__(self, start_dim: int = 1) -> None:
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten_from(self.start_dim)
