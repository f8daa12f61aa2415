"""Per-unit design construction, exact determinant/adjugate, per-unit OLS.

The adjugate satisfies (W'W) adj(W'W) = det(W'W) I exactly, which lets the
trimmed estimators evaluate inversion-free even when a unit's determinant is
zero. A determinant below the machine-noise floor is treated as singular for
plain OLS but remains a valid input to the trimmed branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import gram_det_adj
from .errors import SingularDesignError, SingularUnitGramError
from .panel import BalancedPanel

#: Relative determinant floor: d below 1e-12 * (trace(gram)/k)^k counts as zero.
DET_FLOOR_REL = 1e-12


def singularity_floor(gram: np.ndarray) -> np.ndarray:
    """Machine-noise determinant floor, scale-matched to the Gram matrix."""
    k = gram.shape[-1]
    tr = np.trace(gram, axis1=-2, axis2=-1)
    return DET_FLOOR_REL * (tr / k) ** k


@dataclass(frozen=True)
class WithinOperator:
    """Time de-meaning projector M_T = I_T - tau tau'/T applied implicitly."""

    T: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        return v - v.mean(axis=-1, keepdims=True)

    def as_matrix(self) -> np.ndarray:
        return np.eye(self.T) - np.full((self.T, self.T), 1.0 / self.T)


def within(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """De-mean an array along a time axis."""
    v = np.asarray(v, dtype=np.float64)
    return v - v.mean(axis=axis, keepdims=True)


@dataclass(frozen=True)
class UnitDesign:
    """W_i = (tau_T, X_i) together with its Gram matrix, determinant and adjugate."""

    W: np.ndarray
    gram: np.ndarray
    d: float
    adjugate: np.ndarray
    psi_x: np.ndarray

    @property
    def T(self) -> int:
        return self.W.shape[0]

    @property
    def k(self) -> int:
        return self.W.shape[1]

    def is_singular(self) -> bool:
        return self.d <= singularity_floor(self.gram)


def build_unit_design(panel: BalancedPanel, i: int) -> UnitDesign:
    """Design matrix, Gram, exact determinant and adjugate for unit ``i``.

    d = 0 is a valid output; downstream code decides how to treat it.
    """
    if not 0 <= i < panel.n:
        raise IndexError(f"unit index {i} out of range [0, {panel.n})")
    W = panel.design_tensor()[i]
    gram, d, adj = gram_det_adj(W[None])
    gram, d, adj = gram[0], float(d[0]), adj[0]
    _check_adjugate(gram, d, adj)
    xd = within(panel.x[i], axis=0)
    psi_x = xd.T @ panel.x[i]
    return UnitDesign(W=W, gram=gram, d=d, adjugate=adj, psi_x=psi_x)


def _check_adjugate(gram, d, adj):
    # Internal consistency: gram @ adj must reproduce d * I.
    k = gram.shape[-1]
    resid = gram @ adj - d * np.eye(k)
    scale = max(np.abs(gram).max() * max(abs(d), 1.0), 1.0)
    if np.abs(resid).max() > 1e-9 * scale:  # pragma: no cover - numeric guard
        raise FloatingPointError("adjugate identity violated beyond tolerance")


def unit_ols(design: UnitDesign, y_i: np.ndarray) -> np.ndarray:
    """Least squares theta_i = (W'W)^{-1} W'y_i via the adjugate."""
    y_i = np.asarray(y_i, dtype=np.float64)
    if design.is_singular():
        raise SingularDesignError(message=f"unit determinant {design.d:g} at or below noise floor")
    return design.adjugate @ (design.W.T @ y_i) / design.d


@dataclass(frozen=True)
class ChamberlainProjector:
    """Per-unit annihilators of the de-meaned regressor span and their average."""

    M: np.ndarray  # (n, T, T)
    M_bar: np.ndarray  # (T, T)


def chamberlain_projectors(panel: BalancedPanel) -> ChamberlainProjector:
    """M_i = I_T - M_T X_i (X_i'M_T X_i)^{-1} X_i'M_T for every unit."""
    xd = within(panel.x, axis=1)  # M_T X_i
    psi = np.einsum("ntp,ntq->npq", xd, xd)
    w = np.linalg.eigvalsh(psi)
    bad = np.flatnonzero(w[:, 0] <= 1e-12 * np.maximum(w[:, -1], 0.0))
    if bad.size:
        raise SingularUnitGramError(f"X'MX singular for units {bad[:10].tolist()}")
    proj = np.einsum("ntp,npq,nsq->nts", xd, np.linalg.inv(psi), xd)
    M = np.eye(panel.T)[None] - proj
    return ChamberlainProjector(M=M, M_bar=M.mean(axis=0))


class PanelDesign:
    """Batched designs for all units: the shared input of every estimator.

    Holds W (n,T,k), Gram matrices, determinants and adjugates computed in one
    kernel sweep, plus W_i'y_i and the Chamberlain projectors, each built on
    first use. Immutable by convention; cheap enough to build per panel.
    """

    __slots__ = ("panel", "W", "gram", "d", "adj", "_wty", "_projectors")

    def __init__(self, panel: BalancedPanel):
        self.panel = panel
        self.W = panel.design_tensor()
        self.gram, self.d, self.adj = gram_det_adj(self.W)
        self._wty = None
        self._projectors = None

    @property
    def n(self) -> int:
        return self.panel.n

    @property
    def k(self) -> int:
        return self.panel.k

    def floor(self) -> np.ndarray:
        return singularity_floor(self.gram)

    def singular_units(self) -> np.ndarray:
        return np.flatnonzero(self.d <= self.floor())

    def wty(self) -> np.ndarray:
        """W_i'y_i for every unit, (n, k)."""
        if self._wty is None:
            self._wty = np.einsum("ntk,nt->nk", self.W, self.panel.y)
        return self._wty

    def projectors(self) -> ChamberlainProjector:
        """Chamberlain projectors of the panel's regressors, built once."""
        if self._projectors is None:
            self._projectors = chamberlain_projectors(self.panel)
        return self._projectors

    def theta_hat(self) -> np.ndarray:
        """Per-unit OLS estimates, (n, k). Requires all determinants above floor."""
        bad = self.singular_units()
        if bad.size:
            raise SingularDesignError(units=bad.tolist())
        return np.einsum("nkj,nj->nk", self.adj, self.wty()) / self.d[:, None]

    def theta_tilde(self, a_n: float, trimmed: np.ndarray) -> np.ndarray:
        """Trimmed per-unit estimates: OLS above the threshold, adjugate form below."""
        den = np.where(trimmed, a_n, self.d)
        return np.einsum("nkj,nj->nk", self.adj, self.wty()) / den[:, None]

    def bmats(self, a_n: float, trimmed: np.ndarray) -> np.ndarray:
        """(1 + delta_i) (W'W)^{-1} for every unit, finite on the trimmed branch."""
        den = np.where(trimmed, a_n, self.d)
        return self.adj / den[:, None, None]
