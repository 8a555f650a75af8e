"""Flatten layer turning ``(N, C, H, W)`` feature maps into ``(N, C*H*W)`` vectors."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module

__all__ = ["Flatten"]


class Flatten(Module):
    """Reshape all non-batch dimensions into one."""

    row_wise = True

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._input_shape = x.shape if self.training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward() called before forward()")
        return np.asarray(grad_output, dtype=np.float64).reshape(self._input_shape)
