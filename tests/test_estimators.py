import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tmgpanel

from tmgpanel import (
    AllTrimmedError,
    BalancedPanel,
    SingularDesignError,
    SingularPooledGramError,
    TrimConfig,
    fe,
    fete,
    gp,
    mg,
    tmg,
)
from tmgpanel.designs import PanelDesign
from tmgpanel.estimators import quartiles

from _helpers import random_panel
from test_designs import panel_from_x

# the rank rule multiplies Gram diagonals and the fits divide by determinants:
# an overflow, a 0/0 or a mean over nothing is an error here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def homogeneous_noiseless(rng, n=10, T=3, k_prime=1, beta=None):
    x = rng.normal(1, 1, (n, T, k_prime))
    beta = np.full(k_prime, 1.25) if beta is None else np.asarray(beta)
    alpha = rng.standard_normal(n)
    y = alpha[:, None] + np.einsum("ntp,p->nt", x, beta)
    return (
        BalancedPanel(y=y, x=x, unit_ids=tuple(range(n)), time_ids=tuple(range(T))),
        beta,
    )


class TestFe:
    def test_exact_homogeneous(self, rng):
        p, beta = homogeneous_noiseless(rng)
        np.testing.assert_allclose(fe(p).coef, beta, atol=1e-12)

    def test_hand_fixture(self):
        # two units, T=2: within regression gives 4.5 / 2.5 = 1.8
        p = panel_from_x(
            [[0.0, 1.0], [0.0, 2.0]], y=np.array([[0.0, 1.0], [0.0, 4.0]])
        )
        assert fe(p).coef[0] == pytest.approx(1.8, abs=1e-14)

    def test_unit_shift_invariance(self, rng):
        p = random_panel(rng, n=15, T=3)
        shifted = BalancedPanel(
            y=p.y + rng.normal(0, 5, p.n)[:, None],
            x=p.x,
            unit_ids=p.unit_ids,
            time_ids=p.time_ids,
        )
        np.testing.assert_allclose(fe(shifted).coef, fe(p).coef, atol=1e-10)
        np.testing.assert_allclose(fe(shifted).cov, fe(p).cov, atol=1e-10)

    def test_se_positive_finite(self, rng):
        p = random_panel(rng, n=30, T=4, k_prime=2)
        est = fe(p)
        assert np.isfinite(est.se).all() and (est.se > 0).all()

    @pytest.mark.parametrize("fit", [fe, lambda p: fete(p)[0]], ids=["fe", "fete"])
    def test_regressor_without_within_variation(self, rng, fit):
        # x2 constant within each unit: a zero diagonal in the pooled Gram
        # matrix, reported by its unit-free ratio, with no warning on the way
        p = random_panel(rng, n=30, T=4, k_prime=2)
        x = p.x.copy()
        x[:, :, 1] = rng.normal(0, 1, (p.n, 1))
        p = BalancedPanel(y=p.y, x=x, unit_ids=p.unit_ids, time_ids=p.time_ids)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularPooledGramError, match=r"det / prod diag = 0\.000e\+00"):
                fit(p)


class TestMg:
    def test_degenerate_spread(self, rng):
        # identical units produce bit-identical estimates, so zero covariance
        x1 = rng.normal(1, 1, (1, 3, 1))
        y1 = 0.4 + 1.25 * x1[:, :, 0] + rng.normal(0, 1, (1, 3))
        x = np.repeat(x1, 6, axis=0)
        y = np.repeat(y1, 6, axis=0)
        p = BalancedPanel(y=y, x=x, unit_ids=tuple(range(6)), time_ids=(0, 1, 2))
        est = mg(p)
        np.testing.assert_allclose(est.cov, 0.0, atol=1e-15)

    def test_hand_covariance(self):
        # two units with estimates (0,0) and (2,2)
        x = np.array([[[0.0], [1.0], [2.0]], [[0.0], [1.0], [2.0]]])
        y = np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 6.0]])  # theta (0,0) and (2,2)
        p = BalancedPanel(y=y, x=x, unit_ids=(0, 1), time_ids=(0, 1, 2))
        est = mg(p)
        np.testing.assert_allclose(est.coef, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(est.cov, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_singular_unit_listed(self):
        p = panel_from_x([[1.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(SingularDesignError) as exc:
            mg(p)
        assert 0 in exc.value.units


class TestTmg:
    def test_equals_mg_without_trimming(self, rng):
        p = random_panel(rng, n=20, T=3)
        d_min = PanelDesign(p).d.min()
        est = tmg(p, TrimConfig(alpha=0.5, c_n=d_min * 0.5))
        ref = mg(p)
        assert est.pi_n == 0.0
        np.testing.assert_allclose(est.coef, ref.coef, atol=1e-12)
        np.testing.assert_allclose(est.cov, ref.cov, atol=1e-12)

    def test_three_unit_hand_weighting(self):
        # determinants 1, 2.25, 0.01 with threshold 0.02: only the last unit
        # is trimmed, at half the threshold, so delta = (0, 0, -1/2) and the
        # estimate is (theta1 + theta2 + theta3/2) / (3 * (1 - 1/6))
        p = panel_from_x(
            [[0.0, 1.0], [0.0, 1.5], [0.0, 0.1]],
            y=np.array([[1.0, 2.0], [0.5, 2.0], [0.0, 0.3]]),
        )
        cfg = TrimConfig(alpha=0.5, c_n=0.02 * 3**0.5)
        pd = PanelDesign(p)
        from tmgpanel.trimming import compute_threshold, delta_weights

        state = delta_weights(pd.d, compute_threshold(pd.d, cfg))
        np.testing.assert_allclose(state.delta, [0.0, 0.0, -0.5], atol=1e-12)
        est = tmg(p, cfg)
        theta = mg(p).per_unit
        w = 1.0 + state.delta
        expect = (theta * w[:, None]).sum(axis=0) / (3 * state.weight_scale)
        np.testing.assert_allclose(est.coef, expect, rtol=1e-12)

    def test_two_form_equality(self, rng):
        # weighted-average form vs trimmed/untrimmed decomposition
        for trial in range(10):
            p = random_panel(rng, n=30, T=2)
            cfg = TrimConfig(alpha=0.45)
            est = tmg(p, cfg)
            pd = PanelDesign(p)
            from tmgpanel.trimming import compute_threshold, delta_weights

            a_n = compute_threshold(pd.d, cfg)
            st = delta_weights(pd.d, a_n)
            if not st.trimmed.any() or st.trimmed.all():
                continue
            tilde = np.einsum("nkj,nj->nk", pd.bmats(a_n, st.trimmed), pd.wty())
            kept = ~st.trimmed
            pi = st.pi_n
            part1 = (1 - pi) / st.weight_scale * tilde[kept].mean(axis=0)
            part2 = pi / st.weight_scale * tilde[st.trimmed].mean(axis=0)
            np.testing.assert_allclose(est.coef, part1 + part2, rtol=1e-10)

    def test_scale_equivariance(self, rng):
        p = random_panel(rng, n=50, T=2)
        est1 = tmg(p)
        c = 13.0
        p2 = panel_from_x(c * p.x, p.y)
        est2 = tmg(p2)
        assert est2.pi_n == est1.pi_n
        np.testing.assert_allclose(est2.coef[1:], est1.coef[1:] / c, rtol=1e-9)
        t1 = est1.coef[1:] / est1.se[1:]
        t2 = est2.coef[1:] / est2.se[1:]
        np.testing.assert_allclose(t2, t1, rtol=1e-9)

    def test_cov_psd(self, rng):
        for trial in range(5):
            p = random_panel(rng, n=25, T=2)
            cov = tmg(p).cov
            np.testing.assert_allclose(cov, cov.T, atol=1e-14)
            w = np.linalg.eigvalsh(cov)
            assert w.min() >= -1e-10 * max(w.max(), 1e-30)

    def test_all_trimmed(self):
        p = panel_from_x([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(AllTrimmedError):
            tmg(p, TrimConfig(c_n=1.0))


class TestGp:
    def test_equals_mg_without_trimming(self, rng):
        p = random_panel(rng, n=20, T=3)
        # alpha_gp large makes the bandwidth tiny
        est = gp(p, alpha_gp=0.99)
        if est.pi_n == 0.0:
            ref = mg(p)
            np.testing.assert_allclose(est.coef, ref.coef, atol=1e-12)
            np.testing.assert_allclose(est.cov, ref.cov, atol=1e-12)

    def test_retained_count(self, rng):
        p = random_panel(rng, n=60, T=2)
        est = gp(p)
        assert est.n_used == round((1.0 - est.pi_n) * p.n)

    def test_all_trimmed(self):
        p = panel_from_x([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(AllTrimmedError):
            gp(p)


def test_one_panel_fit_carries_its_weighting(rng):
    # a mean-group fit of one panel keeps the weighting it averaged with, as
    # its replication's: per-unit arrays lose the block axis, the scale is a
    # scalar and fail is None. A pooled fit has none
    p = random_panel(rng, n=60, T=2)
    pd = PanelDesign(p)
    wt = tmg(p).weighting
    assert wt.den.shape == (p.n,) and np.ndim(wt.scale) == 0 and wt.fail is None
    assert wt.keep is None and wt.h_n2 is None
    np.testing.assert_array_equal(wt.den, np.where(wt.trim.trimmed, wt.trim.a_n, pd.d))
    assert wt.scale == wt.trim.weight_scale
    est = gp(p)
    wt = est.weighting
    assert wt.trim is None and np.ndim(wt.h_n2) == 0 and wt.fail is None
    np.testing.assert_array_equal(wt.keep, pd.d > wt.h_n2)
    assert wt.m == est.n_used == wt.keep.sum()
    wt = mg(p).weighting
    assert (wt.keep, wt.trim, wt.h_n2, wt.scale) == (None, None, None, 1.0)
    assert fe(p).weighting is None
    # a failed one-panel fit still raises its failure
    with pytest.raises(AllTrimmedError):
        tmg(panel_from_x([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), TrimConfig(c_n=1.0))


#: Entries with ties, zeros of both signs and NaN, and any double.
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan]), st.floats(width=64))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.sampled_from([1, 3]), st.integers(2, 60)),
                  elements=_ENTRIES))
@example(np.array([[0.0, np.nan]]))
@example(np.array([[1.0, -0.0, 0.0], [2.5, 2.5, -1.0], [0.0, np.nan, 1.0]]))
def test_quartiles_have_the_bits_of_percentile(a):
    # GP's bandwidth reads the quartiles of det(W_i); they must be those of
    # np.percentile bit for bit, so h_n^2 and every GP fit keep their bits
    with np.errstate(all="ignore"):
        want = np.percentile(a, [75, 25], axis=-1)
        got = quartiles(a)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_gp_fit_leaves_numpy_ma_out():
    # np.percentile's np.unique imports numpy.ma on first use; the T = k
    # bandwidth's quartiles do without it
    src = str(Path(tmgpanel.__file__).resolve().parents[1])
    script = (
        "import sys, numpy as np; from tmgpanel import BalancedPanel, gp\n"
        "rng = np.random.default_rng(0); x = rng.standard_normal((50, 2, 1))\n"
        "p = BalancedPanel(y=x[..., 0] + rng.standard_normal((50, 2)), x=x,\n"
        "                  unit_ids=tuple(range(50)), time_ids=(1, 2))\n"
        "assert np.isfinite(gp(p).coef).all()\n"
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"
