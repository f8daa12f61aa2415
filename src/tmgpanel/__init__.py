"""Average-effect estimation in short-T heterogeneous panels.

Trimmed mean group estimators (with and without common time effects),
pooled fixed-effects baselines, Hausman tests of correlated heterogeneity,
and a reproducible Monte Carlo engine.
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
from .montecarlo import (
    DgpConfig,
    McResult,
    ReplicationTruth,
    calibrate_kappa,
    generate_replication,
    run_experiment,
)
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
