import math

import numpy as np
import pytest
import scipy.stats

from tmgpanel import (
    BalancedPanel,
    chisq_sf,
    hausman_no_te,
    hausman_te,
)

from _helpers import random_panel
from test_estimators import homogeneous_noiseless
from test_designs import panel_from_x

# the rank rule multiplies Gram diagonals and the fits divide by determinants:
# an overflow, a 0/0 or a mean over nothing is an error here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestChisqSf:
    def test_zero_statistic(self):
        assert chisq_sf(0.0, 1) == 1.0
        assert chisq_sf(0.0, 7) == 1.0

    def test_five_percent_critical_values(self):
        assert chisq_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-4)
        assert chisq_sf(5.991465, 2) == pytest.approx(0.05, abs=1e-4)

    def test_df2_closed_form(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0):
            assert chisq_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-10)

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30])
    def test_matches_scipy(self, df):
        for x in np.concatenate([np.linspace(0.01, 5 * df, 40), [100.0 + df]]):
            assert chisq_sf(float(x), df) == pytest.approx(
                scipy.stats.chi2.sf(x, df), abs=1e-10
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chisq_sf(-1.0, 1)
        with pytest.raises(ValueError):
            chisq_sf(1.0, 0)


def test_chisq_sf_closed_form_edges():
    # an infinite statistic has p = 0, a NaN one no p-value; odd and even df
    # meet at the df = 1, 2 closed forms
    for df in (1, 2, 3, 8):
        assert chisq_sf(math.inf, df) == 0.0
        assert math.isnan(chisq_sf(math.nan, df))
    assert chisq_sf(4.0, 1) == pytest.approx(math.erfc(math.sqrt(2.0)), rel=1e-15)
    assert chisq_sf(4.0, 2) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert chisq_sf(4.0, 2.0) == chisq_sf(4.0, 2)
    with pytest.raises(ValueError):
        chisq_sf(4.0, 2.5)


def scale_x(panel, c):
    return BalancedPanel(
        y=panel.y, x=c * panel.x, unit_ids=panel.unit_ids, time_ids=panel.time_ids
    )


class TestHausmanNoTe:
    def test_zero_under_homogeneous_noiseless(self, rng):
        p, _ = homogeneous_noiseless(rng, n=12, T=2)
        res = hausman_no_te(p)
        assert res.statistic == pytest.approx(0.0, abs=1e-10)
        assert res.p_value == 1.0
        assert res.df == 1

    def test_scale_invariance(self, rng):
        p = random_panel(rng, n=60, T=2)
        base = hausman_no_te(p)
        for c in (0.02, 50.0):
            res = hausman_no_te(scale_x(p, c))
            assert res.statistic == pytest.approx(base.statistic, rel=1e-8)

    def test_shift_invariance(self, rng):
        p = random_panel(rng, n=60, T=2)
        base = hausman_no_te(p)
        shifted = BalancedPanel(
            y=p.y + rng.normal(0, 3, p.n)[:, None],
            x=p.x,
            unit_ids=p.unit_ids,
            time_ids=p.time_ids,
        )
        res = hausman_no_te(shifted)
        assert res.statistic == pytest.approx(base.statistic, rel=1e-8)

    def test_vdelta_psd(self, rng):
        # the middle matrix is an average of outer products, so psd by
        # construction; check through the statistic being non-negative
        for trial in range(8):
            p = random_panel(rng, n=30, T=3, k_prime=2)
            res = hausman_no_te(p)
            assert res.statistic >= 0.0
            assert 0.0 <= res.p_value <= 1.0

    def test_result_record(self, rng):
        p = random_panel(rng, n=25, T=2)
        rec = hausman_no_te(p).to_record()
        assert set(rec) == {"variant", "statistic", "df", "p_value"}
        assert rec["variant"] == "no_te"


class TestHausmanTe:
    def test_zero_under_homogeneous_noiseless(self, rng):
        n, T = 14, 2
        x = rng.normal(1, 1, (n, T, 1))
        phi = np.array([1.0, -1.0])
        alpha = rng.standard_normal(n)
        y = alpha[:, None] + phi[None, :] + 1.25 * x[:, :, 0]
        p = BalancedPanel(y=y, x=x, unit_ids=tuple(range(n)), time_ids=(0, 1))
        res = hausman_te(p)
        assert res.statistic == pytest.approx(0.0, abs=1e-10)
        assert res.variant == "te_teqk"

    def test_dispatch_on_shape(self, rng):
        assert hausman_te(random_panel(rng, n=40, T=2)).variant == "te_teqk"
        assert hausman_te(random_panel(rng, n=40, T=3)).variant == "te_tgtk"

    @pytest.mark.parametrize("T", [2, 3])
    def test_scale_invariance(self, rng, T):
        p = random_panel(rng, n=50, T=T)
        base = hausman_te(p)
        res = hausman_te(scale_x(p, 25.0))
        assert res.statistic == pytest.approx(base.statistic, rel=1e-8)

    @pytest.mark.parametrize("T", [2, 3])
    def test_shift_invariance(self, rng, T):
        p = random_panel(rng, n=50, T=T)
        base = hausman_te(p)
        shifted = BalancedPanel(
            y=p.y + rng.normal(0, 3, p.n)[:, None],
            x=p.x,
            unit_ids=p.unit_ids,
            time_ids=p.time_ids,
        )
        res = hausman_te(shifted)
        assert res.statistic == pytest.approx(base.statistic, rel=1e-8)

    def test_statistic_nonnegative(self, rng):
        for T in (2, 3):
            for trial in range(5):
                p = random_panel(rng, n=30, T=T)
                res = hausman_te(p)
                assert res.statistic >= 0.0
                assert 0.0 <= res.p_value <= 1.0
