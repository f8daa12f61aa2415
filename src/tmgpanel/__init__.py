"""Average-effect estimation in short-T heterogeneous panels.

Trimmed mean group estimators (with and without common time effects),
pooled fixed-effects baselines, Hausman tests of correlated heterogeneity,
and a reproducible Monte Carlo engine.

The engine's names load :mod:`tmgpanel.montecarlo` on first use, so
``import tmgpanel`` and the CSV commands start without it.
"""

__version__ = "0.1.0"

from .designs import ChamberlainProjector, within
from .errors import (
    AllSingularError,
    AllTrimmedError,
    DuplicateCellError,
    NonFiniteValueError,
    NumericalError,
    PanelInputError,
    RequiresTGreaterKError,
    ScenarioError,
    SingularDesignError,
    SingularMbarError,
    SingularPooledGramError,
    SingularTeSystemError,
    SingularUnitGramError,
    SingularVdeltaError,
    TmgPanelError,
    TooFewPeriodsError,
    UnbalancedPanelError,
)
from .estimators import (
    Estimate,
    fe,
    gp,
    mg,
    tmg,
)
from .hausman import HausmanResult, chisq_sf, hausman_no_te, hausman_te
from .panel import BalancedPanel, PanelBlock, load_panel, read_panel_csv
from .timeeffects import (
    TimeEffects,
    chamberlain_phi,
    chamberlain_projectors,
    fete,
    gp_te,
    tmg_te,
)
from .trimming import TrimConfig, TrimState, compute_threshold, delta_weights

__all__ = [
    "AllSingularError",
    "AllTrimmedError",
    "BalancedPanel",
    "ChamberlainProjector",
    "DgpConfig",
    "DuplicateCellError",
    "Estimate",
    "HausmanResult",
    "McResult",
    "NonFiniteValueError",
    "NumericalError",
    "PanelBlock",
    "PanelInputError",
    "ReplicationTruth",
    "RequiresTGreaterKError",
    "ScenarioError",
    "SingularDesignError",
    "SingularMbarError",
    "SingularPooledGramError",
    "SingularTeSystemError",
    "SingularUnitGramError",
    "SingularVdeltaError",
    "TimeEffects",
    "TmgPanelError",
    "TooFewPeriodsError",
    "TrimConfig",
    "TrimState",
    "UnbalancedPanelError",
    "calibrate_kappa",
    "chamberlain_phi",
    "chamberlain_projectors",
    "chisq_sf",
    "compute_threshold",
    "delta_weights",
    "fe",
    "fete",
    "generate_replication",
    "gp",
    "gp_te",
    "hausman_no_te",
    "hausman_te",
    "load_panel",
    "mg",
    "read_panel_csv",
    "run_experiment",
    "tmg",
    "tmg_te",
    "within",
]

#: The names of the Monte Carlo engine, resolved on first use (PEP 562).
_MONTE_CARLO = frozenset({
    "DgpConfig",
    "McResult",
    "ReplicationTruth",
    "calibrate_kappa",
    "generate_replication",
    "run_experiment",
})


def __getattr__(name: str):
    if name in _MONTE_CARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(globals().keys() | _MONTE_CARLO)
