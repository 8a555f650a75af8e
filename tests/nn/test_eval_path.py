"""The eval-mode forward path: no backward state, bit-identical outputs.

In evaluation mode every layer except ``BatchNorm2d`` (whose eval gradients
``test_normalization.py`` checks) keeps nothing for backward, and
``Conv2d``, ``GroupNorm`` and ``MaxPool2d`` take eval-only fast paths
(scratch-buffer columns, in-place affine, running maximum), yet every output
must equal the training-mode forward byte for byte.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.models import LeNet, ResNet, SimpleNet
from repro.nn import (
    AvgPool2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    GroupNorm,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)


def eval_matches_training(layer, x):
    """Assert eval and training forwards agree bitwise; return the eval output."""
    layer.train()
    expected = layer(x)
    layer.eval()
    out = layer(x)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    return out


def backward_state(layer):
    return getattr(layer, "_mask", None) if isinstance(layer, ReLU) else layer._cache


@pytest.mark.parametrize(
    "kernel,stride,padding",
    [(3, 1, 0), (3, 1, 1), (3, 1, 2), (3, 2, 0), (3, 2, 1), (3, 2, 2), (1, 1, 0), (1, 2, 0)],
)
@pytest.mark.parametrize("bias", [True, False])
def test_conv_eval_matches_training(rng, kernel, stride, padding, bias):
    layer = Conv2d(3, 5, kernel_size=kernel, stride=stride, padding=padding, bias=bias, rng=rng)
    if bias:
        layer.bias.data[...] = rng.normal(size=5)
    x = rng.normal(size=(4, 3, 9, 8))
    eval_matches_training(layer, x)
    assert layer._cache is None
    # A smaller batch reuses the (larger) scratch buffers of the first call.
    eval_matches_training(layer, x[:2])


@pytest.mark.parametrize("affine", [True, False])
def test_groupnorm_eval_matches_training(rng, affine):
    layer = GroupNorm(2, 6, affine=affine)
    if affine:
        layer.scale.data[...] = rng.normal(size=6)
        layer.bias.data[...] = rng.normal(size=6)
    x = rng.normal(1.5, 3.0, size=(3, 6, 5, 4))
    eval_matches_training(layer, x)
    assert layer._cache is None


@pytest.mark.parametrize("kernel", [2, 3])
@pytest.mark.parametrize("out_w", [1, 3, 4, 9, 17])
def test_maxpool_eval_matches_training(rng, kernel, out_w):
    # Odd output widths exercise the scalar tails of numpy's SIMD loops.
    x = rng.normal(size=(2, 3, 2 * kernel, out_w * kernel))
    # Ties between -0.0 and +0.0 in either order: the first one must win.
    x[0, 0, :kernel, :kernel] = -0.0
    x[0, 0, 0, 1] = 0.0
    x[0, 1, :kernel, :kernel] = 0.0
    x[0, 1, 1, 0] = -0.0
    x[0, 2, :kernel, :kernel] = -1.0
    x[0, 2, 0, 1] = 0.0
    x[0, 2, 1, 1] = -0.0
    out = eval_matches_training(MaxPool2d(kernel), x)
    assert np.signbit(out[0, 0, 0, 0]) and not np.signbit(out[0, 1, 0, 0])
    assert not np.signbit(out[0, 2, 0, 0])


@pytest.mark.parametrize("kernel", [2, 3])
def test_maxpool_eval_matches_training_with_nan(rng, kernel):
    x = rng.normal(size=(2, 2, 2 * kernel, 2 * kernel))
    x[0, 0, 0, 1] = np.nan  # a single NaN beats every number
    # Two NaNs with different sign bits: the first in window order wins.
    x[1, 1, kernel - 1, 0] = -np.nan
    x[1, 1, kernel - 1, kernel - 1] = np.nan
    layer = MaxPool2d(kernel)
    out = eval_matches_training(layer, x)
    assert np.isnan(out[0, 0, 0, 0]) and np.isnan(out[1, 1, 0, 0])
    assert np.signbit(out[1, 1, 0, 0])
    assert layer._cache is None


@pytest.mark.parametrize("size", [1, 3, 7, 8, 9, 31, 100])
def test_relu_matches_where_reference(rng, size):
    # ReLU must equal ``np.where(x > 0, x, 0.0)`` bit for bit: NaN and -0.0
    # map to +0.0, at every length (SIMD bodies and scalar tails alike).
    specials = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]
    x = rng.normal(size=size)
    x[: len(specials)] = specials[:size]
    x = np.concatenate([x, np.full(size, -0.0)])
    reference = np.where(x > 0, x, 0.0)
    layer = ReLU()
    assert eval_matches_training(layer, x).tobytes() == reference.tobytes()
    assert layer._mask is None
    layer.train()
    layer(x)
    assert layer._mask.tobytes() == (x > 0).tobytes()


# -- whole models, alternating batch sizes ------------------------------------

MODELS = {
    "simplenet": lambda rng: SimpleNet(in_channels=3, num_classes=10, widths=(8, 16), rng=rng),
    "lenet": lambda rng: LeNet(in_channels=3, num_classes=10, rng=rng),
    "resnet": lambda rng: ResNet(in_channels=3, num_classes=10, rng=rng),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_eval_matches_training_across_batch_sizes(name):
    model = MODELS[name](np.random.default_rng(0))
    inputs = np.random.default_rng(1).normal(size=(6, 3, 16, 16))
    # Large, small, large: the scratch arena grows, is reused at a smaller
    # size, then grown again.
    for batch in (6, 2, 6, 2):
        model.train()
        expected = model(inputs[:batch])
        model.eval()
        assert model(inputs[:batch]).tobytes() == expected.tobytes()
    for layer in model.modules():
        if isinstance(layer, (Conv2d, GroupNorm, MaxPool2d, ReLU)):
            assert backward_state(layer) is None


def test_model_gradients_unchanged_by_interleaved_eval_forwards():
    inputs = np.random.default_rng(1).normal(size=(4, 3, 16, 16))
    grads = []
    for interleave in (False, True):
        model = MODELS["resnet"](np.random.default_rng(0))
        model.train()
        out = model(inputs)
        if interleave:
            # Eval forwards reuse the scratch buffers a training forward
            # used; the training caches must not alias them.
            model.eval()
            model(inputs[::-1].copy())
            model.train()
            out = model(inputs)
        model.zero_grad()
        grad_in = model.backward(np.ones_like(out))
        grads.append([grad_in.tobytes()] + [p.grad.tobytes() for p in model.parameters()])
    assert grads[0] == grads[1]


def test_scratch_arena_is_per_thread():
    # More threads than cores share one eval model; numpy releases the GIL
    # inside copies and GEMMs, so a shared arena would corrupt outputs.
    model = MODELS["simplenet"](np.random.default_rng(0)).eval()
    inputs = [np.random.default_rng(n).normal(size=(n, 3, 16, 16)) for n in range(1, 7)]
    expected = [model(x).tobytes() for x in inputs]
    failures = []

    def worker(index):
        for _ in range(5):
            if model(inputs[index]).tobytes() != expected[index]:
                failures.append(index)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# -- contract -------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_layer,shape",
    [
        (lambda rng: Conv2d(2, 3, kernel_size=3, padding=1, rng=rng), (2, 2, 4, 4)),
        (lambda rng: GroupNorm(2, 4), (2, 4, 3, 3)),
        (lambda rng: MaxPool2d(2), (2, 2, 4, 4)),
        (lambda rng: ReLU(), (2, 3)),
        (lambda rng: LeakyReLU(), (2, 3)),
        (lambda rng: Sigmoid(), (2, 3)),
        (lambda rng: Tanh(), (2, 3)),
        (lambda rng: Linear(3, 2, rng=rng), (2, 3)),
        (lambda rng: AvgPool2d(2), (2, 2, 4, 4)),
        (lambda rng: GlobalAvgPool2d(), (2, 2, 4, 4)),
        (lambda rng: Flatten(), (2, 2, 4, 4)),
    ],
)
def test_backward_after_eval_forward_raises(rng, make_layer, shape):
    layer = make_layer(rng)
    x = rng.normal(size=shape)
    out = layer(x)  # a training forward leaves a cache behind ...
    layer.eval()
    layer(x)  # ... which an eval forward must drop
    with pytest.raises(RuntimeError, match="before forward"):
        layer.backward(np.ones_like(out))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_eval_forward_leaves_no_state_on_the_model(name):
    model = MODELS[name](np.random.default_rng(0)).eval()
    before = len(pickle.dumps(model))
    model(np.random.default_rng(1).normal(size=(4, 3, 16, 16)))
    assert len(pickle.dumps(model)) == before
