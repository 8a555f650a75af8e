"""Base classes of the neural-network substrate.

``Parameter`` is a named tensor with an accompanying gradient buffer.
``Module`` is the base class for all layers and models; it handles parameter
and sub-module registration, training/evaluation mode, ``state_dict``
round-trips, and defines the layer-based ``forward``/``backward`` contract
used throughout the library:

* ``forward(x)`` computes the layer output.  Only in training mode does it
  cache whatever the backward pass needs; in evaluation mode
  (``training is False``) layers keep no backward state, so ``backward``
  after an eval forward raises ``RuntimeError``.  ``BatchNorm2d`` is the one
  exception: it keeps its cache in eval so gradients through the running
  statistics stay available.  The eval forward is bit-identical to the
  training forward.
* ``backward(grad_output)`` accumulates parameter gradients (into
  ``Parameter.grad``) and returns the gradient with respect to the input.

Trainers that need to run a forward/backward pass through *perturbed* weights
(quantized and bit-error-injected weights, Alg. 1 of the paper) temporarily
swap ``Parameter.data`` and restore it afterwards; the gradients accumulated
during that pass are then applied to the clean floating-point weights exactly
as in the paper.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn import parallel

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter:
    """A trainable tensor with a gradient buffer.

    Parameters
    ----------
    data:
        Initial value.  Stored as ``float64`` for numerically stable gradient
        checks; the models in this repository are small enough that the extra
        precision costs little.
    name:
        Optional human-readable name, filled in by the owning module.
    """

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the gradient buffer to zero."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for layers and models."""

    #: Whether each output row depends only on the same input row, bit for
    #: bit at any batch size (see :mod:`repro.nn.parallel`).  Read from the
    #: class's own body only, so subclasses default to ``False``.
    row_wise: bool = False

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # -- registration ------------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            if not hasattr(self, "_parameters"):
                raise RuntimeError(
                    "Module.__init__() must be called before assigning parameters"
                )
            self._parameters[name] = value
            if not value.name:
                value.name = name
        elif isinstance(value, Module):
            if not hasattr(self, "_modules"):
                raise RuntimeError(
                    "Module.__init__() must be called before assigning sub-modules"
                )
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a sub-module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- parameter access --------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its sub-modules."""
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar weights (the paper's ``W``)."""
        return sum(p.size for p in self.parameters())

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs including ``self``."""
        yield (prefix.rstrip("."), self)
        for mod_name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> List["Module"]:
        return [m for _, m in self.named_modules()]

    def zero_grad(self) -> None:
        """Reset the gradient of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -- train / eval mode -------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects BatchNorm statistics)."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode recursively."""
        return self.train(False)

    # -- state dict ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat ``{name: array}`` copy of all parameters and buffers."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, module in self.named_modules():
            prefix = f"{name}." if name else ""
            for buf_name, buf in getattr(module, "_buffers", {}).items():
                state[f"{prefix}{buf_name}"] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters (and buffers) from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name in params:
                if params[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{params[name].data.shape} vs {value.shape}"
                    )
                params[name].data[...] = value
        # Buffers (e.g. BatchNorm running statistics).
        for mod_name, module in self.named_modules():
            prefix = f"{mod_name}." if mod_name else ""
            buffers = getattr(module, "_buffers", None)
            if not buffers:
                continue
            for buf_name in list(buffers.keys()):
                key = f"{prefix}{buf_name}"
                if key in state:
                    buffers[buf_name] = np.asarray(state[key], dtype=np.float64).copy()

    # -- forward / backward -------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """A module that chains sub-modules in order.

    In eval mode, the first ``Sequential`` reached by a
    :func:`repro.nn.parallel.sharded_forward` call runs its row-wise prefix
    on batch shards in parallel; the output is bit-identical either way.
    """

    row_wise = True

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = []
        for i, layer in enumerate(layers):
            self.register_module(f"layer{i}", layer)
            self.layers.append(layer)

    def append(self, layer: Module) -> None:
        """Append a layer at the end of the chain."""
        index = len(self.layers)
        self.register_module(f"layer{index}", layer)
        self.layers.append(layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        layers: List[Module] = self.layers
        shards = parallel.claim_shards()
        if shards > 1 and not self.training:
            x, layers = parallel.run_sharded_prefix(layers, x, shards)
        for layer in layers:
            x = layer(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
