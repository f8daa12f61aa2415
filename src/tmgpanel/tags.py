"""The estimator and test tags, what each fits on a block, and the size
bounds of a run.

The CSV commands and the Monte Carlo engine read these alike, and only the
engine needs :mod:`tmgpanel.montecarlo`, so they live here: ``estimate`` and
``test`` start without loading it.
"""

from __future__ import annotations

from .estimators import fe, gp, mg, tmg
from .hausman import hausman_no_te, hausman_te
from .timeeffects import fete, gp_te, tmg_te

ESTIMATOR_TAGS = ("fe", "mg", "tmg", "gp", "fete", "tmgte", "gpte")
TEST_TAGS = ("hausman", "hausman_te")
#: the estimators that also report the period effects phi_1..phi_{T-1}
TE_TAGS = ("fete", "tmgte", "gpte")


#: Upper bounds of a scenario's sizes: a size no run could hold fails before numpy
#: sees it, but a size within them can still exceed the machine's memory.
MAX_UNITS, MAX_PERIODS, MAX_REPS = 10**7, 10**4, 10**6


#: What each tag fits on a block, given the block, the trim config and the GP
#: exponent: an Estimate, an (Estimate, TimeEffects) pair or a test. Each
#: entry asks the block (:meth:`PanelBlock.fit`), so a fit that several tags
#: read, as the Hausman tests read the fits they compare, runs once per
#: block. The entries look the fits up by name when called, so a fit rebound
#: on this module (as the benchmark's layer trace does) is the one that runs.
_TAG_FITS = {
    "fe": lambda b, t, a: b.fit(fe),
    "mg": lambda b, t, a: b.fit(mg),
    "tmg": lambda b, t, a: b.fit(tmg, t),
    "gp": lambda b, t, a: b.fit(gp, a),
    "fete": lambda b, t, a: b.fit(fete),
    "tmgte": lambda b, t, a: b.fit(tmg_te, t),
    "gpte": lambda b, t, a: b.fit(gp_te, a),
    "hausman": lambda b, t, a: b.fit(hausman_no_te, t),
    "hausman_te": lambda b, t, a: b.fit(hausman_te, t),
}
