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


@dataclass(frozen=True)
class TrimState:
    """Threshold, per-unit delta weights and trimmed-fraction bookkeeping."""

    a_n: float
    delta: np.ndarray
    delta_bar: float
    pi_n: float
    trimmed: np.ndarray

    @property
    def weight_scale(self) -> float:
        """1 + delta_bar, the normalizing factor of the trimmed weights."""
        return 1.0 + self.delta_bar

    def weights(self) -> np.ndarray:
        """Normalized weights (1+delta_i)/(n(1+delta_bar)); they sum to one."""
        n = self.delta.shape[0]
        return (1.0 + self.delta) / (n * self.weight_scale)


def compute_threshold(d: np.ndarray, cfg: TrimConfig = TrimConfig()) -> float:
    """a_n = C_n n^{-alpha}; with the mean rule, C_n = mean(d)."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("d must be a non-empty vector of determinants")
    if np.any(d < 0.0):
        raise ValueError("determinants must be non-negative")
    n = d.size
    if cfg.c_n is None:
        c_n = float(d.mean())
        if c_n <= 0.0:
            raise AllSingularError("every determinant is zero; mean rule undefined")
    else:
        c_n = cfg.c_n
    return c_n * n ** (-cfg.alpha)


def delta_weights(d: np.ndarray, a_n: float) -> TrimState:
    """delta_i = ((d_i - a_n)/a_n) 1{d_i <= a_n}, in [-1, 0]."""
    if a_n <= 0.0:
        raise ValueError(f"threshold must be positive, got {a_n}")
    d = np.asarray(d, dtype=np.float64)
    trimmed = d <= a_n
    delta = np.where(trimmed, (d - a_n) / a_n, 0.0)
    return TrimState(
        a_n=float(a_n),
        delta=delta,
        delta_bar=float(delta.mean()),
        pi_n=float(trimmed.mean()),
        trimmed=trimmed,
    )
