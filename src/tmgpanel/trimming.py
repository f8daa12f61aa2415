"""Determinant-based trimming: threshold and delta weights.

The threshold a_n = C_n n^{-alpha} with C_n equal to the mean determinant by
default, which makes the trimming decision d_i/dbar_n > n^{-alpha} invariant
to the scale of the regressors. A tie d_i = a_n counts as trimmed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllSingularError

#: Recommended threshold exponent.
DEFAULT_ALPHA = 1.0 / 3.0


@dataclass(frozen=True)
class TrimConfig:
    """Threshold rule a_n = C_n n^{-alpha}.

    ``c_n=None`` selects the mean-determinant rule C_n = dbar_n; an explicit
    positive value fixes C_n.
    """

    alpha: float = DEFAULT_ALPHA
    c_n: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.c_n is not None and self.c_n <= 0.0:
            raise ValueError(f"explicit C_n must be positive, got {self.c_n}")


def scalar_or(v):
    """``v`` as a float for a single panel, as an array for a block."""
    return v if np.ndim(v) else float(v)


@dataclass(frozen=True)
class TrimState:
    """Threshold, per-unit delta weights and trimmed-fraction bookkeeping.

    ``a_n``, ``delta_bar`` and ``pi_n`` are floats for a single panel and
    (B,) arrays for a block; ``delta`` and ``trimmed`` are (..., n).
    """

    a_n: float | np.ndarray
    delta: np.ndarray
    delta_bar: float | np.ndarray
    pi_n: float | np.ndarray
    trimmed: np.ndarray

    @property
    def weight_scale(self):
        """1 + delta_bar, the normalizing factor of the trimmed weights."""
        return 1.0 + self.delta_bar

    def weights(self) -> np.ndarray:
        """Normalized weights (1+delta_i)/(n(1+delta_bar)); they sum to one."""
        n = self.delta.shape[-1]
        return (1.0 + self.delta) / (n * np.asarray(self.weight_scale)[..., None])


def compute_threshold(d: np.ndarray, cfg: TrimConfig = TrimConfig()):
    """a_n = C_n n^{-alpha}; with the mean rule, C_n = mean(d).

    ``d`` is (n,) for one panel, giving a float, or (B, n) for a block, giving
    (B,) thresholds. A replication whose determinants are all zero has no
    mean-rule threshold: one panel raises, a block reports a_n = 0.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim not in (1, 2) or d.shape[-1] == 0:
        raise ValueError("d must be a non-empty vector of determinants")
    if np.any(d < 0.0):
        raise ValueError("determinants must be non-negative")
    n = d.shape[-1]
    if cfg.c_n is None:
        c_n = d.mean(axis=-1)
        if d.ndim == 1 and c_n <= 0.0:
            raise AllSingularError("every determinant is zero; mean rule undefined")
    else:
        c_n = np.full(d.shape[:-1], cfg.c_n)
    return scalar_or(c_n * n ** (-cfg.alpha))


def delta_weights(d: np.ndarray, a_n) -> TrimState:
    """delta_i = ((d_i - a_n)/a_n) 1{d_i <= a_n}, in [-1, 0].

    A block may give a replication without a threshold a_n = NaN: it trims
    nothing and is failed by its caller.
    """
    if np.ndim(a_n) == 0 and a_n <= 0.0:
        raise ValueError(f"threshold must be positive, got {a_n}")
    d = np.asarray(d, dtype=np.float64)
    a = np.asarray(a_n, dtype=np.float64)[..., None]
    trimmed = d <= a
    delta = np.where(trimmed, (d - a) / a, 0.0)
    return TrimState(
        a_n=scalar_or(a_n),
        delta=delta,
        delta_bar=scalar_or(delta.mean(axis=-1)),
        pi_n=scalar_or(trimmed.mean(axis=-1)),
        trimmed=trimmed,
    )
