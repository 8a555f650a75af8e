"""Error correcting codes (SECDED) as a hardware mitigation baseline.

The paper motivates training-time robustness by arguing that the standard
hardware mitigation — single-error-correct / double-error-detect (SECDED)
ECC on memory words — cannot cope with low-voltage error rates: "for
p = 1%, the probability of two or more bit errors in a 64-bit word is
13.5%" (Sec. 1).  This module provides

* the analytic word-failure probability of a SECDED-protected memory,
* a simulator that applies SECDED correction to bit-error-injected codes,

so the trade-off between ECC overhead and residual errors can be quantified
and compared against RandBET (which needs no ECC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


__all__ = [
    "SECDEDConfig",
    "probability_multi_bit_error",
    "residual_bit_error_rate",
    "apply_secded_to_codes",
    "ecc_energy_overhead",
]


@dataclass(frozen=True)
class SECDEDConfig:
    """Configuration of a SECDED-protected memory.

    Attributes
    ----------
    word_bits:
        Number of data bits per protected word (64 in the paper's example).
    check_bits:
        Number of additional parity bits per word (8 for SECDED over 64 bits).
    """

    word_bits: int = 64
    check_bits: int = 8

    def __post_init__(self) -> None:
        if self.word_bits <= 0 or self.check_bits <= 0:
            raise ValueError("word_bits and check_bits must be positive")

    @property
    def total_bits(self) -> int:
        return self.word_bits + self.check_bits

    @property
    def storage_overhead(self) -> float:
        """Fractional storage (and access-energy) overhead of the check bits."""
        return self.check_bits / self.word_bits


def probability_multi_bit_error(p: float, config: SECDEDConfig = SECDEDConfig()) -> float:
    """Probability that a protected word suffers 2 or more bit errors.

    SECDED corrects exactly one error per word, so this is the probability
    that correction fails.  With ``p = 1%`` and 64-bit words this is ~13.5 %,
    the number quoted in Sec. 1 of the paper.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    from scipy import stats  # deferred: keeps scipy off `import repro`

    n = config.total_bits
    # P(X >= 2) = 1 - P(0) - P(1) for X ~ Binomial(n, p).
    return float(1.0 - stats.binom.cdf(1, n, p))


def residual_bit_error_rate(p: float, config: SECDEDConfig = SECDEDConfig()) -> float:
    """Expected fraction of *data* bits still erroneous after SECDED correction.

    Words with zero or one error are fully corrected; in words with ``k >= 2``
    errors the decoder cannot correct, and (conservatively) all ``k`` errors
    remain.  The residual rate is ``E[k * 1[k >= 2]] / n`` computed over the
    binomial distribution of errors per word.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    from scipy import stats  # deferred: keeps scipy off `import repro`

    n = config.total_bits
    ks = np.arange(0, n + 1)
    pmf = stats.binom.pmf(ks, n, p)
    expected_uncorrected = float((ks[2:] * pmf[2:]).sum())
    return expected_uncorrected / n


def apply_secded_to_codes(
    codes: np.ndarray,
    corrupted: np.ndarray,
    precision: int,
    config: SECDEDConfig = SECDEDConfig(),
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, float]:
    """Simulate SECDED correction of ``corrupted`` relative to ``codes``.

    Weights are packed contiguously into ``word_bits``-bit words.  For each
    word the number of flipped bits is counted: words with at most one flip
    are restored to the original, words with two or more keep their corrupted
    content (SECDED only detects).  Returns the corrected codes and the
    fraction of words that could not be corrected.
    """
    codes = np.asarray(codes).reshape(-1)
    corrupted = np.asarray(corrupted).reshape(-1)
    if codes.shape != corrupted.shape:
        raise ValueError("codes and corrupted must have the same shape")
    weights_per_word = max(1, config.word_bits // precision)
    num_words = int(np.ceil(codes.size / weights_per_word))

    diff = np.bitwise_xor(codes.astype(np.int64), corrupted.astype(np.int64))
    flips_per_weight = np.zeros(codes.size, dtype=np.int64)
    for j in range(precision):
        flips_per_weight += (diff >> j) & 1

    corrected = corrupted.copy()
    failed_words = 0
    for word in range(num_words):
        start = word * weights_per_word
        stop = min(start + weights_per_word, codes.size)
        word_flips = int(flips_per_weight[start:stop].sum())
        if word_flips == 0:
            continue
        if word_flips == 1:
            corrected[start:stop] = codes[start:stop]
        else:
            failed_words += 1
    return corrected, failed_words / max(num_words, 1)


def ecc_energy_overhead(config: SECDEDConfig = SECDEDConfig()) -> float:
    """Relative memory-access energy overhead of storing the check bits.

    A lower bound: real SECDED additionally costs encoder/decoder logic.  The
    paper's point is that RandBET avoids this overhead entirely.
    """
    return config.storage_overhead
