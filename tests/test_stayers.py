"""Units with zero within-variation ("stayers") flowing through the stack.

A constant regressor path gives d_i = 0 exactly. The trimmed branch must
keep such units finite through the adjugate form, exclusion-style trimming
must drop them, and plain mean-group averaging must refuse them by name.
"""

import numpy as np
import pytest

from tmgpanel import (
    BalancedPanel,
    SingularDesignError,
    TrimConfig,
    gp,
    hausman_no_te,
    mg,
    tmg,
    tmg_te,
)
from tmgpanel.designs import PanelDesign
from tmgpanel.trimming import compute_threshold

# the rank rule multiplies Gram diagonals and the fits divide by determinants:
# an overflow, a 0/0 or a mean over nothing is an error here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture
def panel_with_stayer(rng):
    n, T = 20, 2
    x = rng.normal(1, 1, (n, T, 1))
    x[3, :, 0] = 0.7  # constant path: zero within-variation
    beta = 1.0 + 0.3 * rng.standard_normal(n)
    alpha = rng.standard_normal(n)
    y = alpha[:, None] + beta[:, None] * x[:, :, 0] + 0.4 * rng.standard_normal((n, T))
    return BalancedPanel(
        y=y, x=x, unit_ids=tuple(range(n)), time_ids=(0, 1)
    )


def test_stayer_determinant_exactly_zero(panel_with_stayer):
    assert PanelDesign(panel_with_stayer).d[3] == 0.0


def test_tmg_finite_with_stayer(panel_with_stayer):
    est = tmg(panel_with_stayer)
    assert np.isfinite(est.coef).all()
    assert np.isfinite(est.se).all()
    assert np.isfinite(est.per_unit).all()
    # at d = 0 the adjugate annihilates W'y exactly, so the stayer enters the
    # average with a zero contribution (the zero-weighted limit)
    scale = np.abs(panel_with_stayer.y).max()
    np.testing.assert_allclose(est.per_unit[3], 0.0, atol=1e-12 * scale)
    pd = PanelDesign(panel_with_stayer)
    a_n = compute_threshold(pd.d, TrimConfig())
    assert est.weighting.trim.a_n == a_n and est.weighting.trim.trimmed[3]
    want = pd.adj[3] @ pd.wty()[3] / a_n  # the adjugate form of the trimmed branch
    np.testing.assert_allclose(est.per_unit[3], want, atol=1e-12 * scale)


def test_tmg_te_finite_with_stayer(panel_with_stayer):
    est, te = tmg_te(panel_with_stayer)
    assert np.isfinite(est.coef).all()
    assert np.isfinite(te.phi).all()


def test_hausman_finite_with_stayer(panel_with_stayer):
    res = hausman_no_te(panel_with_stayer)
    assert np.isfinite(res.statistic)
    assert 0.0 <= res.p_value <= 1.0


def test_gp_excludes_stayer(panel_with_stayer):
    est = gp(panel_with_stayer)
    assert est.n_used < panel_with_stayer.n
    assert np.isfinite(est.coef).all()


def test_mg_names_offending_unit(panel_with_stayer):
    with pytest.raises(SingularDesignError) as exc:
        mg(panel_with_stayer)
    assert 3 in exc.value.units


def test_near_singular_unit_rounds_to_zero_determinant(rng):
    # a near-stayer whose cofactor determinant rounds to -1.8e-15 at T = 2;
    # W'W is positive semi-definite, so it must count as d = 0 and be trimmed
    n = 30
    x = rng.normal(1, 1, (n, 2, 1))
    x[0, :, 0] = (1.9341162551252367, 1.9341162432394947)
    y = rng.standard_normal(n)[:, None] + x[:, :, 0] + 0.4 * rng.standard_normal((n, 2))
    p = BalancedPanel(y=y, x=x, unit_ids=tuple(range(n)), time_ids=(0, 1))
    assert PanelDesign(p).d[0] == 0.0
    est = tmg(p)
    assert est.weighting.trim.trimmed[0]
    assert np.isfinite(est.coef).all() and np.isfinite(est.se).all()
