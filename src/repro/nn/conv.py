"""2D convolution implemented via im2col / col2im.

The im2col transformation unrolls every receptive field into a column so that
convolution becomes a single matrix multiplication — the standard vectorized
NumPy formulation.  ``im2col`` / ``col2im`` are exposed as module-level
functions so pooling layers and tests can reuse them.

``im2col`` has one implementation, checked against a per-offset slice-loop
oracle in the tests.  It zero-pads the input into a reusable buffer, builds
the window view of that buffer with ``np.lib.stride_tricks.as_strided`` and
materializes the columns with a single ``np.copyto``.

Reusable buffers come from a per-thread scratch arena in this module,
:func:`scratch_buffer`, which ``GroupNorm`` also uses for its squared
deviations.  Nothing is stored on module instances, so models pickle the
same before and after a forward.  A buffer stays valid only until the next
request for the same slot on the same thread, and each slot grows to the
largest request seen.  ``Conv2d.forward`` is one code path in both modes;
only where ``cols`` lives differs:

* in training mode ``cols`` is a fresh array, because ``backward`` caches it;
* in evaluation mode ``cols`` also comes from the arena and the layer keeps
  no backward state, so an eval forward allocates no column buffer.

Both modes give bit-identical outputs: the columns are the same copies and
the GEMM sees the same contiguous operands.

The three tensor contractions of ``Conv2d.forward``/``backward`` run as
reshaped ``np.matmul`` calls that dispatch to BLAS by default;
:func:`set_conv_contraction` switches back to the original ``np.einsum``
reference.  Both are validated against each other in the test suite.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.markers import hot_path

__all__ = [
    "Conv2d",
    "im2col",
    "col2im",
    "conv_output_size",
    "set_conv_contraction",
    "get_conv_contraction",
    "conv_contraction",
    "CONTRACTIONS",
]

#: Contraction engines for Conv2d: BLAS-dispatched matmul vs. the einsum
#: reference.  Results agree to floating-point reduction order.
CONTRACTIONS = ("matmul", "einsum")

_contraction = "matmul"


class _Arena(threading.local):
    """Per-thread reusable buffers keyed by ``(slot, dtype)`` (see :func:`scratch_buffer`)."""

    def __init__(self) -> None:
        self.buffers: Dict[Tuple[str, str], np.ndarray] = {}


_arena = _Arena()


def set_conv_contraction(mode: str) -> str:
    """Select the global Conv2d contraction engine; returns the previous one."""
    global _contraction
    if mode not in CONTRACTIONS:
        raise ValueError(f"unknown contraction {mode!r}; choose from {CONTRACTIONS}")
    previous = _contraction
    _contraction = mode
    return previous


def get_conv_contraction() -> str:
    """The currently selected Conv2d contraction engine."""
    return _contraction


@contextmanager
def conv_contraction(mode: str) -> Iterator[None]:
    """Temporarily switch the Conv2d contraction engine (for tests/benchmarks)."""
    previous = set_conv_contraction(mode)
    try:
        yield
    finally:
        set_conv_contraction(previous)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def _output_hw(
    shape: Tuple[int, ...], kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[int, int]:
    """Spatial output size of a convolution over an ``(N, C, H, W)`` input."""
    out_h = conv_output_size(shape[2], kernel_h, stride, padding)
    out_w = conv_output_size(shape[3], kernel_w, stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"im2col produced non-positive output size for input {shape} "
            f"with kernel ({kernel_h},{kernel_w}), stride {stride}, padding {padding}"
        )
    return out_h, out_w


def scratch_buffer(slot: str, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A C-contiguous ``shape`` view of this thread's reusable ``slot`` buffer.

    For temporaries inside ``repro.nn`` forwards that nothing outlives: the
    view is overwritten by the next request for ``slot`` on this thread.
    The buffer grows to the largest request seen and is then reused at any
    smaller size, so its memory is bounded by the largest layer.
    """
    key = (slot, np.dtype(dtype).str)
    size = math.prod(shape)
    buffer = _arena.buffers.get(key)
    if buffer is None or buffer.size < size:
        buffer = _arena.buffers[key] = np.empty(size, dtype=dtype)
    return buffer[:size].reshape(shape)


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad ``x`` spatially into this thread's reusable ``"pad"`` buffer."""
    if padding == 0:
        return x
    n, c, h, w = x.shape
    p = padding
    padded = scratch_buffer("pad", (n, c, h + 2 * p, w + 2 * p), x.dtype)
    padded[:, :, :p, :] = 0.0
    padded[:, :, -p:, :] = 0.0
    padded[:, :, p:-p, :p] = 0.0
    padded[:, :, p:-p, -p:] = 0.0
    padded[:, :, p:-p, p:-p] = x
    return padded


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, int]:
    """Unroll sliding windows of ``x`` into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    out:
        Optional C-contiguous destination of the columns' shape.  Without
        it the columns are a fresh array the caller owns.

    Returns
    -------
    cols:
        Array of shape ``(N, C * kernel_h * kernel_w, out_h * out_w)``.
    out_h, out_w:
        Spatial output size.
    """
    n, c = x.shape[:2]
    out_h, out_w = _output_hw(x.shape, kernel_h, kernel_w, stride, padding)
    shape = (n, c * kernel_h * kernel_w, out_h * out_w)
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"im2col out= must be C-contiguous with shape {shape}, got {out.shape}")
    x_padded = _pad(x, padding)
    sn, sc, sh, sw = x_padded.strides
    windows = np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(n, c, kernel_h, kernel_w, out_h, out_w),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    np.copyto(out.reshape(n, c, kernel_h, kernel_w, out_h, out_w), windows)
    return out, out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col` (scatter-add of overlapping windows)."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    cols = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


class Conv2d(Module):
    """2D convolution with square kernels.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Side length of the (square) convolution kernel.
    stride, padding:
        Stride and zero padding applied symmetrically.
    bias:
        Whether to learn a per-output-channel additive bias.
    rng:
        Generator used for He initialization.
    """

    row_wise = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.he_normal((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.has_bias = bias
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)))
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None

    @hot_path
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        k = self.kernel_size
        # Backward caches the columns, so only eval may take them from the arena.
        cols_out = None
        if not self.training:
            out_h, out_w = _output_hw(x.shape, k, k, self.stride, self.padding)
            cols_shape = (n, self.in_channels * k * k, out_h * out_w)
            cols_out = scratch_buffer("cols", cols_shape, x.dtype)
        cols, out_h, out_w = im2col(x, k, k, self.stride, self.padding, out=cols_out)
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        if _contraction == "matmul":
            # (O, K) @ (N, K, P) broadcasts to a batched BLAS gemm -> (N, O, P).
            out = np.matmul(weight_mat, cols)
        else:
            out = np.einsum("ok,nkp->nop", weight_mat, cols)
        if self.has_bias:
            out += self.bias.data[None, :, None]
        self._cache = (cols, x.shape) if self.training else None
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        cols, input_shape = self._cache
        n, _, out_h, out_w = grad_output.shape
        grad_mat = np.asarray(grad_output, dtype=np.float64).reshape(
            n, self.out_channels, out_h * out_w
        )
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        # Parameter gradients.
        if _contraction == "matmul":
            # Per-sample (O, P) @ (P, K) gemms, summed over the batch.
            grad_weight = np.matmul(grad_mat, cols.transpose(0, 2, 1)).sum(axis=0)
        else:
            grad_weight = np.einsum("nop,nkp->ok", grad_mat, cols)
        self.weight.grad += grad_weight.reshape(self.weight.data.shape)
        if self.has_bias:
            self.bias.grad += grad_mat.sum(axis=(0, 2))
        # Input gradient.
        if _contraction == "matmul":
            # (K, O) @ (N, O, P) broadcasts to a batched gemm -> (N, K, P).
            grad_cols = np.matmul(weight_mat.T, grad_mat)
        else:
            grad_cols = np.einsum("ok,nop->nkp", weight_mat, grad_mat)
        return col2im(
            grad_cols,
            input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
