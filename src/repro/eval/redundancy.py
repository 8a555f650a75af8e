"""Redundancy metrics (Fig. 10, bottom right).

The paper quantifies the redundancy induced by weight clipping with three
measures:

* **relative absolute error** — mean absolute weight change under bit errors
  divided by the maximum absolute weight (lower = errors matter less),
* **weight relevance** — ``sum(|w|) / max(|w|)`` normalized by the number of
  weights: how many weights are "used" relative to the largest one,
* **ReLU relevance** — fraction of non-zero activations after the final ReLU.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.biterror.random_errors import inject_into_quantized
from repro.data.datasets import ArrayDataset
from repro.nn.activations import ReLU
from repro.nn.module import Module
from repro.quant.fixed_point import FixedPointQuantizer
from repro.quant.qat import quantize_model
from repro.utils.rng import as_rng

__all__ = [
    "weight_relevance",
    "relu_relevance",
    "relative_absolute_error",
    "redundancy_metrics",
]


def weight_relevance(model: Module) -> float:
    """``mean(|w|) / max(|w|)`` over all weights — how spread out the weights are."""
    arrays = [np.abs(p.data).reshape(-1) for p in model.parameters()]
    flat = np.concatenate(arrays)
    maximum = float(flat.max())
    if maximum <= 0:
        return 0.0
    return float(flat.mean() / maximum)


def relu_relevance(model: Module, dataset: ArrayDataset, batch_size: int = 64) -> float:
    """Fraction of non-zero activations after the last ReLU of the model."""
    relus = [m for m in model.modules() if isinstance(m, ReLU)]
    if not relus:
        return float("nan")
    final_relu = relus[-1]
    relu_forward = final_relu.forward
    counts = [0, 0]  # non-zero outputs, all outputs

    def counting_forward(x: np.ndarray) -> np.ndarray:
        out = relu_forward(x)
        counts[0] += int(np.count_nonzero(out))
        counts[1] += int(out.size)
        return out

    # Count the last ReLU's *output* (eval forwards keep no mask) by
    # shadowing that one instance's forward for the duration of the call.
    was_training = model.training
    model.eval()
    final_relu.forward = counting_forward
    try:
        for start in range(0, len(dataset), batch_size):
            index = np.arange(start, min(start + batch_size, len(dataset)))
            inputs, _ = dataset[index]
            model(inputs)
    finally:
        del final_relu.forward
        model.train(was_training)
    if counts[1] == 0:
        return float("nan")
    return counts[0] / counts[1]


def relative_absolute_error(
    model: Module,
    quantizer: FixedPointQuantizer,
    bit_error_rate: float,
    num_samples: int = 5,
    seed: int = 0,
) -> float:
    """Mean absolute weight perturbation under bit errors, relative to ``max|w|``."""
    rng = as_rng(seed)
    quantized = quantize_model(model, quantizer)
    clean = np.concatenate(
        [w.reshape(-1) for w in quantizer.dequantize(quantized)]
    )
    scale = float(np.abs(clean).max())
    if scale <= 0:
        return 0.0
    errors = []
    for _ in range(num_samples):
        corrupted = inject_into_quantized(quantized, bit_error_rate, rng)
        perturbed = np.concatenate(
            [w.reshape(-1) for w in quantizer.dequantize(corrupted)]
        )
        errors.append(float(np.abs(perturbed - clean).mean()))
    return float(np.mean(errors)) / scale


def redundancy_metrics(
    model: Module,
    quantizer: FixedPointQuantizer,
    dataset: ArrayDataset,
    bit_error_rate: float = 0.01,
    num_samples: int = 5,
    seed: int = 0,
) -> Dict[str, float]:
    """The three redundancy measures of Fig. 10 for one model."""
    return {
        "relative_abs_error": relative_absolute_error(
            model, quantizer, bit_error_rate, num_samples=num_samples, seed=seed
        ),
        "weight_relevance": weight_relevance(model),
        "relu_relevance": relu_relevance(model, dataset),
    }
