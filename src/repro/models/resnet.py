"""Residual networks (small-scale ResNet-20/50 analogue, App. G.7)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.models.common import make_norm
from repro.nn import (
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    Module,
    ReLU,
    Sequential,
)

__all__ = ["ResidualBlock", "ResNet"]


class ResidualBlock(Module):
    """A basic residual block: ``relu(conv-norm-relu-conv-norm(x) + shortcut(x))``.

    When the number of channels changes (or ``downsample`` is requested) the
    shortcut is a 1x1 convolution followed by normalization, otherwise it is
    the identity.
    """

    row_wise = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        norm: str = "gn",
        downsample: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        stride = 2 if downsample else 1
        self.branch = Sequential(
            Conv2d(in_channels, out_channels, kernel_size=3, stride=stride, padding=1, rng=rng),
            make_norm(norm, out_channels),
            ReLU(),
            Conv2d(out_channels, out_channels, kernel_size=3, padding=1, rng=rng),
            make_norm(norm, out_channels),
        )
        if downsample or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, kernel_size=1, stride=stride, rng=rng),
                make_norm(norm, out_channels),
            )
        else:
            self.shortcut = Sequential(Identity())
        self.activation = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        branch_out = self.branch(x)
        shortcut_out = self.shortcut(x)
        return self.activation(branch_out + shortcut_out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_sum = self.activation.backward(grad_output)
        grad_branch = self.branch.backward(grad_sum)
        grad_shortcut = self.shortcut.backward(grad_sum)
        return grad_branch + grad_shortcut


class ResNet(Module):
    """A small residual network.

    Parameters
    ----------
    in_channels:
        Number of input image channels.
    num_classes:
        Number of output classes.
    widths:
        Channel width of each residual stage; the first block of every stage
        after the first downsamples spatially by 2.
    blocks_per_stage:
        Number of residual blocks per stage.
    norm:
        Normalization type (``"gn"`` matches the paper's App. G.7 setup).
    """

    def __init__(
        self,
        in_channels: int = 3,
        num_classes: int = 10,
        widths: Sequence[int] = (8, 16, 32),
        blocks_per_stage: int = 1,
        norm: str = "gn",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.num_classes = num_classes
        layers = [
            Conv2d(in_channels, widths[0], kernel_size=3, padding=1, rng=rng),
            make_norm(norm, widths[0]),
            ReLU(),
        ]
        previous = widths[0]
        for stage, width in enumerate(widths):
            for block in range(blocks_per_stage):
                downsample = stage > 0 and block == 0
                layers.append(
                    ResidualBlock(previous, width, norm=norm, downsample=downsample, rng=rng)
                )
                previous = width
        layers.append(GlobalAvgPool2d())
        layers.append(Flatten())
        layers.append(Linear(previous, num_classes, rng=rng))
        self.body = Sequential(*layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.body(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.body.backward(grad_output)
