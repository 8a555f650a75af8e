"""Tests for Conv2d and the im2col/col2im primitives."""

import numpy as np
import pytest

from helpers import check_layer_gradients
from repro.nn import Conv2d
from repro.nn.conv import col2im, conv_output_size, im2col


def naive_conv2d(x, weight, bias, stride, padding):
    """Reference convolution with explicit loops."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, out_h, out_w))
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    window = x_padded[
                        b, :, i * stride : i * stride + kh, j * stride : j * stride + kw
                    ]
                    out[b, o, i, j] = (window * weight[o]).sum() + bias[o]
    return out


def loop_im2col(x, kernel_h, kernel_w, stride, padding):
    """Reference im2col: one strided slice copy per kernel offset."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            cols[:, :, i, j, :, :] = x_padded[:, :, i:i_max:stride, j:j_max:stride]
    return cols.reshape(n, c * kernel_h * kernel_w, out_h * out_w), out_h, out_w


def test_conv_output_size():
    assert conv_output_size(8, 3, 1, 1) == 8
    assert conv_output_size(8, 3, 2, 1) == 4
    assert conv_output_size(7, 3, 1, 0) == 5


def test_im2col_shapes(rng):
    x = rng.normal(size=(2, 3, 8, 8))
    cols, out_h, out_w = im2col(x, 3, 3, 1, 1)
    assert cols.shape == (2, 3 * 9, out_h * out_w)
    assert (out_h, out_w) == (8, 8)


def test_im2col_col2im_adjoint(rng):
    """col2im is the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
    x = rng.normal(size=(1, 2, 6, 6))
    cols, _, _ = im2col(x, 3, 3, 1, 1)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * col2im(y, x.shape, 3, 3, 1, 1)).sum())
    assert np.isclose(lhs, rhs)


@pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1)])
def test_forward_matches_naive(rng, stride, padding):
    layer = Conv2d(3, 4, kernel_size=3, stride=stride, padding=padding, rng=rng)
    x = rng.normal(size=(2, 3, 8, 8))
    expected = naive_conv2d(x, layer.weight.data, layer.bias.data, stride, padding)
    np.testing.assert_allclose(layer(x), expected, atol=1e-10)


def test_forward_wrong_channels_raises(rng):
    layer = Conv2d(3, 4, kernel_size=3, rng=rng)
    with pytest.raises(ValueError):
        layer(rng.normal(size=(1, 2, 8, 8)))


def test_gradients_match_finite_differences(rng):
    layer = Conv2d(2, 3, kernel_size=3, padding=1, rng=rng)
    check_layer_gradients(layer, (2, 2, 5, 5), rng, atol=1e-4)


def test_gradients_with_stride(rng):
    layer = Conv2d(2, 2, kernel_size=3, stride=2, padding=1, rng=rng)
    check_layer_gradients(layer, (1, 2, 6, 6), rng, atol=1e-4)


def test_conv_without_bias(rng):
    layer = Conv2d(1, 1, kernel_size=3, padding=1, bias=False, rng=rng)
    assert len(layer.parameters()) == 1
    out = layer(rng.normal(size=(1, 1, 4, 4)))
    assert out.shape == (1, 1, 4, 4)


# -- strided im2col and BLAS contraction vs. the references ----------------


@pytest.mark.parametrize("stride,padding,kernel", [(1, 1, 3), (1, 0, 3), (2, 1, 3), (2, 0, 2), (3, 2, 5)])
def test_im2col_strided_matches_loop_reference(rng, stride, padding, kernel):
    x = rng.normal(size=(2, 3, 9, 11))
    strided, oh_s, ow_s = im2col(x, kernel, kernel, stride, padding)
    loop, oh_l, ow_l = loop_im2col(x, kernel, kernel, stride, padding)
    assert (oh_s, ow_s) == (oh_l, ow_l)
    assert strided.tobytes() == loop.tobytes()  # bit-identical
    # Reusing a padding buffer that held another input must not leak into
    # the zero border.
    im2col(rng.normal(size=(2, 3, 9, 11)) + 100.0, kernel, kernel, stride, padding)
    again, _, _ = im2col(x, kernel, kernel, stride, padding)
    assert again.tobytes() == loop.tobytes()


def test_im2col_writes_into_out(rng):
    x = rng.normal(size=(2, 3, 6, 6))
    out = np.empty((2, 27, 36))
    cols, _, _ = im2col(x, 3, 3, 1, 1, out=out)
    assert cols is out
    np.testing.assert_array_equal(out, loop_im2col(x, 3, 3, 1, 1)[0])
    with pytest.raises(ValueError, match="out="):
        im2col(x, 3, 3, 1, 1, out=np.empty((2, 27, 35)))


def test_im2col_strided_result_owns_its_memory(rng):
    x = rng.normal(size=(1, 2, 6, 6))
    cols, _, _ = im2col(x, 3, 3, 1, 1)
    cols += 1.0  # must not touch the (padded copy of the) input
    again, _, _ = im2col(x, 3, 3, 1, 1)
    np.testing.assert_array_equal(again + 1.0, cols)


def test_matmul_contraction_matches_einsum_reference(rng):
    from repro.nn.conv import conv_contraction

    x = rng.normal(size=(3, 4, 8, 8))
    grad_out = rng.normal(size=(3, 5, 8, 8))

    results = {}
    for mode in ("matmul", "einsum"):
        layer = Conv2d(4, 5, kernel_size=3, padding=1, rng=np.random.default_rng(0))
        with conv_contraction(mode):
            out = layer(x)
            grad_in = layer.backward(grad_out)
        results[mode] = (out, grad_in, layer.weight.grad.copy(), layer.bias.grad.copy())
    for a, b in zip(results["matmul"], results["einsum"]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_conv_contraction_context_restores_previous_mode():
    from repro.nn.conv import conv_contraction, get_conv_contraction, set_conv_contraction

    assert get_conv_contraction() == "matmul"  # the default
    with conv_contraction("einsum"):
        assert get_conv_contraction() == "einsum"
    assert get_conv_contraction() == "matmul"
    with pytest.raises(ValueError, match="contraction"):
        set_conv_contraction("fft")


def test_matmul_gradients_match_finite_differences(rng):
    # The default (matmul) contraction must satisfy the same gradient checks
    # as the einsum reference.
    layer = Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=rng)
    check_layer_gradients(layer, (2, 2, 6, 6), rng, atol=1e-4)


def test_im2col_strided_1x1_kernel_owns_its_memory(rng):
    # Degenerate 1x1 stride-1 windows reshape to a *view*; im2col must still
    # hand back writable, unaliased columns (ResNet 1x1 projection shortcuts).
    x = rng.normal(size=(2, 3, 5, 5))
    original = x.copy()
    cols, _, _ = im2col(x, 1, 1, 1, 0)
    assert cols.flags.writeable and cols.base is None
    loop, _, _ = loop_im2col(x, 1, 1, 1, 0)
    np.testing.assert_array_equal(cols, loop)
    cols += 1.0
    np.testing.assert_array_equal(x, original)  # input untouched
    again, _, _ = im2col(x, 1, 1, 1, 0)
    np.testing.assert_array_equal(again + 1.0, cols)
