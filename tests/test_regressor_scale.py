"""Rescaling one regressor changes no verdict and no estimate.

A well-conditioned panel with x1 measured in units 2^20 times larger or
smaller (and x1, x2 in opposite directions) is the same data. Every fit and
test must go through, and its coefficients, mapped back to the original
units, and its statistics must match the unscaled fit. The power-of-two
scales are exact in floating point, so only the order of the solver's
roundings can differ.
"""

import numpy as np
import pytest

from tmgpanel import (
    BalancedPanel,
    fe,
    fete,
    gp,
    gp_te,
    hausman_no_te,
    hausman_te,
    tmg,
    tmg_te,
)

from _helpers import random_panel

# the rank rule multiplies Gram diagonals and the fits divide by determinants:
# an overflow, a 0/0 or a mean over nothing is an error here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

RTOL = 1e-9
SCALES = [(2.0**20, 1.0), (2.0**-20, 1.0), (2.0**20, 2.0**-20)]

# name: (fit, how its coefficients scale: "slopes", "mean group" or "statistic")
FITS = {
    "fe": (fe, "slopes"),
    "tmg": (tmg, "mean group"),
    "gp": (gp, "mean group"),
    "fete": (lambda p: fete(p)[0], "slopes"),
    "tmg_te": (lambda p: tmg_te(p)[0], "mean group"),
    "gp_te": (lambda p: gp_te(p)[0], "mean group"),
    "hausman_no_te": (hausman_no_te, "statistic"),
    "hausman_te": (hausman_te, "statistic"),
}
TE_FITS = ("fete", "tmg_te", "gp_te", "hausman_te")  # the fits defined at T = k


def probe_panel(T):
    return random_panel(np.random.default_rng(5), n=400, T=T, k_prime=2, noise=0.7)


def rescaled(panel, s):
    return BalancedPanel(
        y=panel.y, x=panel.x * np.array(s), unit_ids=panel.unit_ids, time_ids=panel.time_ids
    )


CASES = [
    pytest.param(T, name, s, id=f"T{T}-{name}-{i}")
    for T, names in ((5, FITS), (3, TE_FITS))
    for name in names
    for i, s in enumerate(SCALES)
]


@pytest.mark.parametrize("T,name,s", CASES)
def test_fit_does_not_see_regressor_units(T, name, s):
    panel = probe_panel(T)
    fit, kind = FITS[name]
    base, got = fit(panel), fit(rescaled(panel, s))
    if kind == "statistic":
        assert got.statistic == pytest.approx(base.statistic, rel=RTOL)
        assert got.p_value == pytest.approx(base.p_value, rel=RTOL, abs=1e-15)
        return
    back = np.array(s) if kind == "slopes" else np.r_[1.0, s]
    np.testing.assert_allclose(got.coef * back, base.coef, rtol=RTOL)
    np.testing.assert_allclose(got.se * back, base.se, rtol=RTOL)
