"""Batched per-unit designs: exact determinants and adjugates, per-unit OLS.

The adjugate satisfies (W'W) adj(W'W) = det(W'W) I exactly, which lets the
trimmed estimators evaluate inversion-free even when a unit's determinant is
zero. A determinant below the machine-noise floor is treated as singular for
plain OLS but remains a valid input to the trimmed branch.

Every fit computes on a block of B replications
(:class:`~tmgpanel.panel.PanelBlock`), and each of its arrays carries the
leading replication axis. A single panel is fitted as its block of one through
:func:`blockwise`. A block builds its :class:`PanelDesign` once, and caches
every fit that several others read, such as the Chamberlain projectors, with
:meth:`~tmgpanel.panel.PanelBlock.fit`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from ._kernels import _det_adj_stack, det_stack, gram_det_adj, small_matmul, small_matvec
from .errors import SingularUnitGramError, failed, flag, no_failures
from .panel import BalancedPanel, PanelBlock, within

#: Relative determinant floor of MG's per-unit OLS: d below
#: 1e-12 * (trace(gram)/k)^k counts as zero.
DET_FLOOR_REL = 1e-12

#: The rank tolerance of every other singularity check (see rank_deficient).
#: Each of the m! terms of a cofactor determinant is at most prod diag(G) in
#: size, so its rounding error is up to about m m! eps prod diag(G): 2e-14 of
#: it at m = 4, below which a ratio cannot be told from zero. 1e-12 keeps a
#: margin of 50 over that.
RANK_RTOL = 1e-12


def singularity_floor(gram: np.ndarray) -> np.ndarray:
    """Machine-noise determinant floor, scale-matched to the Gram matrix."""
    k = gram.shape[-1]
    tr = np.trace(gram, axis1=-2, axis2=-1)
    return DET_FLOOR_REL * (tr / k) ** k


def rank_deficient(g: np.ndarray, det: np.ndarray | None = None) -> np.ndarray:
    """The rank rule of a stack of positive semi-definite (..., m, m) matrices:
    G is singular when det(G) <= RANK_RTOL * prod diag(G), when a diagonal
    entry is <= 0, or when det(G) is NaN.

    det(G) / prod diag(G) is the determinant of G in correlation form.
    Hadamard's inequality keeps it at or below 1, and D G D has the same ratio
    for every positive diagonal D, so the verdict does not depend on the units
    of the coefficients. A 1 x 1 G is singular exactly when G <= 0. ``det``
    passes determinants already computed."""
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    if det is None:
        det = det_stack(g)
    return ~(det > RANK_RTOL * diag.prod(axis=-1)) | (diag <= 0.0).any(axis=-1)


def rank_ratio(g: np.ndarray) -> float:
    """det(G) / prod diag(G) of one matrix, 0 with a diagonal entry <= 0: the
    unit-free figure a rank failure reports."""
    diag = np.diagonal(g)
    return float(det_stack(g) / diag.prod()) if (diag > 0.0).all() else 0.0


def system_singular(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The rank rule for square systems A theta = b whose unknowns are the
    coefficients of regressors of scales s, (..., m): rank_deficient(C'C)
    for C = S A S^{-1}, S = diag(s). Rescaling regressor j by c_j maps A to
    D^{-1} A D and s to s D, D = diag(c), and leaves C as it is."""
    s = np.where(s > 0.0, s, 1.0)
    c = a * (s[..., :, None] / s[..., None, :])
    return rank_deficient(mt(c) @ c)


def mt(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes: A' for every matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix times vector, A v, for every pair of a stack."""
    return (a @ v[..., None])[..., 0]


def col(v) -> np.ndarray:
    """A per-replication scalar, (B,), with a trailing axis to broadcast."""
    return np.asarray(v)[..., None]


def pooled(spec: str, *ops: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, ...)`` of a sum over units and periods, one
    replication at a time: a batched einsum buffers such a sum differently
    once B > 1, and a replication's fit must not depend on its block."""
    return np.stack([np.einsum(spec, *(op[b] for op in ops)) for b in range(len(ops[0]))])


def nonsingular(a: np.ndarray, bad) -> np.ndarray:
    """``a`` with the (..., k, k) matrices of the ``bad`` replications set to
    the identity, so that a batched LAPACK call cannot fail on them."""
    if bad is False or not bad.any():
        return a
    return np.where(bad[..., None, None], np.eye(a.shape[-1]), a)


def void(a: np.ndarray, fail) -> np.ndarray:
    """``a`` with the rows of the failed replications set to NaN."""
    bad = failed(fail)
    if bad is False:
        return a
    a = np.array(a, dtype=np.float64)
    a[bad] = np.nan
    return a


def blockwise(fit):
    """A fit of panel blocks that also takes one panel, as its block of one:
    a :class:`PanelBlock` passes through, and a :class:`BalancedPanel` is
    fitted as the block of views ``(y[None], x[None])`` (see :func:`_row`)."""

    @functools.wraps(fit)
    def adapted(panel, *args, **kwargs):
        if isinstance(panel, PanelBlock):
            return fit(panel, *args, **kwargs)
        return _row(fit(PanelBlock(y=panel.y[None], x=panel.x[None]), *args, **kwargs))

    return adapted


def _row(result):
    """A block of one's result as its replication's: the recorded failure is
    raised, or every array field is indexed [0], nested results included, and
    ``fail`` becomes None."""
    if isinstance(result, tuple):
        return tuple(map(_row, result))
    fail = getattr(result, "fail", None)
    if fail is not None and fail[0] is not None:
        raise fail[0]
    changes = {"fail": None} if fail is not None else {}
    for f in fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            changes[f.name] = value[0]
        elif is_dataclass(value):
            changes[f.name] = _row(value)
    return replace(result, **changes)


@dataclass(frozen=True)
class ChamberlainProjector:
    """Per-unit annihilators M_i = I_T - xdp_i xd_i' of the de-meaned regressor
    span, kept as their (..., n, T, k') factors, and their average."""

    xd: np.ndarray  # M_T X_i
    xdp: np.ndarray  # M_T X_i psi_i^{-1}, psi_i = X_i'M_T X_i
    M_bar: np.ndarray  # (..., T, T)
    fail: tuple | None = None  # replications with a singular psi_i

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M_i v_i = v_i - xdp_i (xd_i'v_i) for every unit, (..., n, T)."""
        fitted = small_matvec(self.xdp, small_matvec(mt(self.xd), v))
        return np.subtract(v, fitted, out=fitted)

    @property
    def M(self) -> np.ndarray:
        """The annihilators formed as an (..., n, T, T) stack."""
        return np.eye(self.xd.shape[-2]) - small_matmul(self.xdp, mt(self.xd))


@blockwise
def chamberlain_projectors(panel: PanelBlock) -> ChamberlainProjector:
    """M_i = I_T - M_T X_i (X_i'M_T X_i)^{-1} X_i'M_T for every unit, in factor form."""
    xd = panel.xd  # M_T X_i
    # einsum: at k' = 1 the sum runs over unit-stride periods (see _kernels)
    psi = np.einsum("...ntp,...ntq->...npq", xd, xd)
    det, adj = _det_adj_stack(psi)
    bad = rank_deficient(psi, det)
    fail = flag(
        no_failures(panel.lead),
        bad.any(axis=-1),
        lambda i: SingularUnitGramError(
            f"X'MX singular for units {np.flatnonzero(bad[i])[:10].tolist()}"
        ),
    )
    if bad.any():  # the inverse of I in place of a singular psi_i keeps M_i finite
        det = np.where(bad, 1.0, det)
        adj = np.where(bad[..., None, None], np.eye(psi.shape[-1]), adj)
    xdp = small_matmul(xd, adj / det[..., None, None])
    # sum_i xdp_i xd_i' as one matmul per replication over the stacked (n k') axis
    *lead, n, T, k = xd.shape
    rows = np.swapaxes(xdp, -3, -2).reshape(*lead, T, n * k)
    cols = mt(xd).reshape(*lead, n * k, T)
    m_bar = np.eye(T) - rows @ cols / n
    return ChamberlainProjector(xd=xd, xdp=xdp, M_bar=m_bar, fail=fail)


class PanelDesign:
    """Batched designs for all units: the shared input of every estimator.

    Holds W (..., n, T, k), Gram matrices, determinants and adjugates computed
    in one kernel sweep over the units of every replication, plus W_i'y_i and
    adj(W_i'W_i) W_i'y_i, each built on first use. Immutable by convention.
    The fits read a block's own design, :attr:`PanelBlock.design`, built on
    its first use and shared by every fit of the block; the projectors and
    the projector-average time effects are fits of the block, cached by
    :meth:`PanelBlock.fit`. A design holds the outcomes ``y``, not its panel,
    so a finished block and its design are freed by reference counting.
    """

    __slots__ = ("y", "W", "gram", "d", "adj", "_wty", "_adj_wty")

    def __init__(self, panel: BalancedPanel | PanelBlock):
        self.y = panel.y
        self.W = panel.design_tensor()
        *lead, n, T, k = self.W.shape
        gram, d, adj = gram_det_adj(self.W.reshape(-1, T, k))
        self.gram = gram.reshape(*lead, n, k, k)
        self.d = d.reshape(*lead, n)
        self.adj = adj.reshape(*lead, n, k, k)
        self._wty = None
        self._adj_wty = None

    @property
    def lead(self) -> tuple:
        return self.W.shape[:-3]

    @property
    def n(self) -> int:
        return self.W.shape[-3]

    @property
    def k(self) -> int:
        return self.W.shape[-1]

    def floor(self) -> np.ndarray:
        return singularity_floor(self.gram)

    def scales(self) -> np.ndarray:
        """Root mean square of each column of W over the panel, (..., k): 1 for
        the intercept, the size of each regressor in its own units."""
        return np.sqrt((self.W**2).mean(axis=(-3, -2)))

    def singular(self) -> np.ndarray:
        """Units whose determinant is at or below the noise floor, (..., n)."""
        return self.d <= self.floor()

    def wty(self) -> np.ndarray:
        """W_i'y_i for every unit, (..., n, k)."""
        if self._wty is None:
            self._wty = small_matvec(mt(self.W), self.y)
        return self._wty

    def adj_wty(self) -> np.ndarray:
        """adj(W_i'W_i) W_i'y_i for every unit, (..., n, k): d_i times its OLS."""
        if self._adj_wty is None:
            self._adj_wty = small_matvec(self.adj, self.wty())
        return self._adj_wty

    def bmats(self, a_n, trimmed: np.ndarray, slopes: bool = False) -> np.ndarray:
        """(1 + delta_i) (W'W)^{-1} for every unit, finite on the trimmed branch
        (NaN for a replication of a block without a threshold, a_n = NaN);
        only its slope block [1:, 1:] if ``slopes``."""
        a_n = col(a_n)
        den = np.where(trimmed | np.isnan(a_n), a_n, self.d)
        adj = self.adj[..., 1:, 1:] if slopes else self.adj
        return adj / den[..., None, None]
