"""Exception hierarchy, and the per-replication failure record of a block fit.

Input errors map to CLI exit code 2, numerical errors to exit code 3.
"""

import numpy as np


class TmgPanelError(Exception):
    """Base class for all package errors."""


class PanelInputError(TmgPanelError):
    """Malformed or inconsistent input data."""


class UnbalancedPanelError(PanelInputError):
    """A unit is missing one or more time periods."""


class DuplicateCellError(PanelInputError):
    """The same (unit, time) cell appears more than once."""


class NonFiniteValueError(PanelInputError):
    """NaN or infinite value in outcomes or regressors."""


class TooFewPeriodsError(PanelInputError):
    """T < k' + 1, so per-unit designs cannot have full column rank."""


class ScenarioError(PanelInputError):
    """Invalid simulation scenario configuration."""


class NumericalError(TmgPanelError):
    """Estimation failed for numerical reasons."""


class SingularDesignError(NumericalError):
    """Per-unit Gram matrix is singular (determinant at or below the noise floor)."""

    def __init__(self, units=None):
        self.units = list(units) if units is not None else []
        message = "singular unit design"
        if self.units:
            message += f" for units {self.units[:10]}"
            if len(self.units) > 10:
                message += f" (+{len(self.units) - 10} more)"
        super().__init__(message)


class AllSingularError(NumericalError):
    """Every unit determinant is zero; no threshold can be formed."""


class AllTrimmedError(NumericalError):
    """Every unit was trimmed; the estimator is undefined."""


class SingularPooledGramError(NumericalError):
    """Pooled regressor Gram matrix is singular."""


class SingularUnitGramError(NumericalError):
    """A per-unit X'MX matrix needed at full rank is singular."""


class RequiresTGreaterKError(NumericalError):
    """Operation needs T > k; the cross-section projector average is singular at T = k."""


class SingularMbarError(NumericalError):
    """Average annihilator matrix is not invertible."""


class SingularTeSystemError(NumericalError):
    """The T = k time-effects system matrix is not invertible."""


class SingularVdeltaError(NumericalError):
    """Hausman difference covariance is rank deficient."""


# ---------------------------------------------------------------------------
# per-replication failures of a panel block
# ---------------------------------------------------------------------------
#
# A fit of a block of replications records the first NumericalError each
# replication meets instead of raising it, so one bad draw fails alone. ``fail``
# is a tuple with one exception (or None) per replication.


def no_failures(lead: tuple) -> tuple:
    """The failure record of a fit on a block with leading shape ``lead``."""
    return (None,) * lead[0]


def flag(fail: tuple, bad: np.ndarray, make) -> tuple:
    """Fail the replications where ``bad`` holds, keeping each one's first reason.

    ``make(i)`` builds the exception of replication ``i``.
    """
    if not bad.any():
        return fail
    hits = [int(i) for i in np.flatnonzero(bad) if fail[i] is None]
    if not hits:
        return fail
    out = list(fail)
    for i in hits:
        out[i] = make(i)
    return tuple(out)


def merge(*fails: tuple) -> tuple:
    """Per replication, the first failure among several upstream records."""
    return tuple(next((f for f in fs if f is not None), None) for fs in zip(*fails))


def failed(fail: tuple):
    """Boolean mask of the failed replications, or False when none failed."""
    if fail.count(None) == len(fail):
        return False
    return np.array([f is not None for f in fail])
