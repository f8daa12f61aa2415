"""Monte Carlo engine: data generating process, noise-scale calibration,
replication runner and bias/RMSE/size/power aggregation.

Replication r of an experiment draws from counter-based random streams keyed
by (seed, r, role) with separate roles for regressor innovations, coefficient
draws and outcome errors, so results are independent of worker count and
bit-reproducible for a given (seed, config, reps).

Replications are drawn and fitted in blocks: B replications stack on a leading
axis, every estimator runs once over the block, and each replication fails
alone, with its reason. A replication's numbers do not depend on its block.

Every stream of a replication is filled into one draw slot, one array per
part. The slots form a ring, taken in replication order ahead of the fits. A
process with two cores or more of its own fills the slots' innovations on
one draw thread, one call per replication, and while the next slot is not
filled the consumer fills the oldest unclaimed one itself rather than wait;
the numbers do not depend on who fills.
"""

from __future__ import annotations

import json
import math
import numbers
import queue
import threading
import time
from collections import Counter, deque
from dataclasses import MISSING, dataclass, field, replace
from typing import Sequence

import numpy as np

from .designs import void, within
from .errors import NumericalError, ScenarioError
from .estimators import DEFAULT_ALPHA_GP
from .hausman import HausmanResult
from .panel import BalancedPanel, PanelBlock, _cores, _forked, _processes
from .tags import (
    ESTIMATOR_TAGS,
    MAX_PERIODS,
    MAX_REPS,
    MAX_UNITS,
    TE_TAGS,
    TEST_TAGS,
    _TAG_FITS,
)
from .trimming import DEFAULT_ALPHA, TrimConfig

CRIT_5PCT = 1.959964  # two-sided 5% standard normal critical value

_ROLE_X = 0
_ROLE_COEF = 1
_ROLE_Y = 2
_ROLE_FACTOR = 3
# calibration draws live on their own streams so the noise scale is
# independent of the replications it is later used with
_ROLE_CAL_X = 10
_ROLE_CAL_COEF = 11

_BURN_IN = 50

Y_ERROR_DISTS = ("gaussian", "chisq2")
X_ERROR_DISTS = ("gaussian", "uniform")
RHO_MODES = ("zero", "uniform095")
HETEROSKED_MODES = ("random", "lambda2", "ex2")


# The kinds of the field table's tests. A plain int or float skips the slower
# numbers ABC checks, and a bool is never a number.
def _integer(lo, hi=math.inf):
    return lambda v: (
        type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)
    ) and lo <= v <= hi


def _real(ok=lambda x: True):
    """A real number whose double x passes ``ok``; an int past a double's range is none."""
    def test(v):
        if type(v) in (float, int) or isinstance(v, numbers.Real) and not isinstance(v, bool):
            try:
                return ok(float(v))
            except OverflowError:
                pass
        return False
    return test


def _choice(options):
    return lambda v: isinstance(v, str) and v in options, f"one of {options}"


def _list(item, lo=1, hi=math.inf):
    return lambda v: isinstance(v, (list, tuple)) and lo <= len(v) <= hi and all(map(item, v))


def _or_none(test):
    return lambda v: v is None or test(v)


_BOOL = (lambda v: isinstance(v, bool), "true or false")
_VARIANCE = (_real(lambda x: 0.0 <= x < math.inf), "a finite number >= 0")
_CORRELATION = (_real(lambda x: 0.0 <= x < 1.0), "a finite number in [0, 1)")
_UNITS = (_integer(2, MAX_UNITS), f"an integer from 2 to {MAX_UNITS}")
_REPS = (_integer(1, MAX_REPS), f"an integer >= 1 and at most {MAX_REPS}")
#: Each scenario field's test and what it asks for (TrimConfig owns the trim
#: ranges), and those of calibrate_kappa's r_kappa and n_cal.
_FIELDS = {
    "n": _UNITS,
    "T": (_integer(2, MAX_PERIODS), f"an integer from 2 to {MAX_PERIODS}"),
    "theta0": (_list(_real(math.isfinite), 2, 2), "two numbers, both finite"),
    "sigma2_alpha": _VARIANCE,
    "sigma2_beta": _VARIANCE,
    "rho_alpha": _CORRELATION,
    "rho_beta": _CORRELATION,
    "pr2": (_real(lambda x: 0.0 < x < 1.0), "a finite number in (0, 1)"),
    "y_error_dist": _choice(Y_ERROR_DISTS),
    "x_error_dist": _choice(X_ERROR_DISTS),
    "rho_ie_mode": _choice(RHO_MODES),
    "rho_ix_mode": _choice(RHO_MODES),
    "interactive_x": _BOOL,
    "heterosked": _choice(HETEROSKED_MODES),
    "time_effects": _BOOL,
    "kappa2": (_or_none(_VARIANCE[0]), "a finite number >= 0, or null"),
    "seed": (_integer(0), "non-negative: an integer >= 0"),
    "estimators": (_list(lambda t: isinstance(t, str)), "a list of tags, at least one"),
    "reps": _REPS,
    "jobs": (_or_none(_integer(1)), "an integer >= 1, or None"),
    "beta0_grid": (_or_none(_list(_real(math.isfinite))), "a non-empty list of finite numbers"),
    "trim_alpha": (_real(), "a number"),
    "trim_c_n": (_or_none(_real()), "a number, or null"),
    "alpha_gp": (_real(lambda x: x > 0.0), "a positive number"),
    "r_kappa": _REPS,
    "n_cal": _UNITS,
}


def _check(name: str, value) -> None:
    test, what = _FIELDS[name]
    if not test(value):
        raise ScenarioError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class DgpConfig:
    """Full scenario description for one Monte Carlo design cell."""

    n: int
    T: int
    theta0: tuple[float, float] = (1.0, 1.0)
    sigma2_alpha: float = 0.2
    sigma2_beta: float = 0.5
    rho_alpha: float = 0.0
    rho_beta: float = 0.0
    pr2: float = 0.2
    y_error_dist: str = "chisq2"
    x_error_dist: str = "gaussian"
    rho_ie_mode: str = "zero"
    rho_ix_mode: str = "uniform095"
    interactive_x: bool = False
    heterosked: str = "random"
    time_effects: bool = False
    kappa2: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            _check(name, getattr(self, name))

    # correlation-decomposition parameters, recomputed rather than stored
    @property
    def psi_alpha(self) -> float:
        return self.rho_alpha * np.sqrt(self.sigma2_alpha)

    @property
    def psi_beta(self) -> float:
        return self.rho_beta * np.sqrt(self.sigma2_beta)

    @property
    def sigma2_eps_alpha(self) -> float:
        return (1.0 - self.rho_alpha**2) * self.sigma2_alpha

    @property
    def sigma2_eps_beta(self) -> float:
        return (1.0 - self.rho_beta**2) * self.sigma2_beta

    @property
    def excess_kurtosis_x(self) -> float:
        return 0.0 if self.x_error_dist == "gaussian" else -6.0 / 5.0

    def phi(self) -> np.ndarray:
        """Period effects: t for t < T and -T(T-1)/2 at T, summing to zero."""
        if not self.time_effects:
            return np.zeros(self.T)
        out = np.arange(1.0, self.T + 1.0)
        out[-1] = -self.T * (self.T - 1) / 2.0
        return out


@dataclass(frozen=True)
class ReplicationTruth:
    """Generated quantities retained for oracle checks (a block's arrays
    carry its leading replication axis, except phi)."""

    theta: np.ndarray  # (..., n, 2): alpha_i, beta_i
    lam: np.ndarray  # (..., n)
    phi: np.ndarray  # (T,)
    sigma_ix: np.ndarray  # (..., n)
    u: np.ndarray  # (..., n, T)


#: Cap on B*n, the units that a block of B replications of an n-unit design
#: holds at once. Blocking pays the per-call overhead of the fits, and of the
#: draws after the burn-in, once per block; at n = 1000 that overhead is about
#: twice one replication's own fit time (README, "The cap"). Its price is
#: peak memory: every per-unit array of the fits gains the leading axis.
#: The n = 1000 cells run blocks of ten, a 5000-unit design blocks of two and
#: a design of more than 5000 units one replication at a time. It caps the
#: fits, not the draws: the draw slots are opened and filled ahead across
#: block boundaries, blocks of one included. Results do not depend on it.
MAX_BLOCK_UNITS = 10000

#: Cap on B*n*T, the (unit, period) cells of a block. The fits' arrays grow
#: with n*T*k at most (the projectors are kept in factor form, so none grows
#: with T^2), about 30 doubles a cell with time effects. At T <= 8 the units
#: cap is the lower, so this one binds only at longer T: n = 200 at T = 400
#: runs one replication at a time, where a block of 50 peaked at 954 MiB.
MAX_BLOCK_CELLS = 8 * MAX_BLOCK_UNITS


def block_size(n: int, T: int) -> int:
    """Most replications per block for an n-unit, T-period design."""
    return max(1, min(MAX_BLOCK_UNITS // n, MAX_BLOCK_CELLS // (n * T)))


def _blocks(reps: Sequence[int], size: int) -> list[Sequence[int]]:
    """``reps`` cut into the fewest runs of at most ``size`` consecutive
    entries, whose lengths differ by at most one."""
    count = -(-len(reps) // size)
    cuts = [i * len(reps) // count for i in range(count + 1)]
    return [reps[a:b] for a, b in zip(cuts, cuts[1:])]


def _stream(seed: int, rep: int, role: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, rep, role))))


#: Slots in a threaded run's ring: the consumer burns in one replication
#: while up to two more wait, opened, for their innovations. An inline run
#: needs one slot.
_RING_SLOTS = 3

#: Units (replications x n) of a run per process when ``jobs`` is not given,
#: so a run splits from twice this, where two processes without the draw thread
#: broke even with one with it, in calibration (BENCH_pr24.json).
SPLIT_UNITS = 10**6


def _draw_threads(processes: int) -> int:
    """Draw threads per process of a run split over ``processes``: one,
    filling the innovations of each replication (see :class:`_Draws`), when
    the process has two cores or more of its own (cores // processes), else
    none. With one core to a process the thread was measured 0-3% slower
    than filling inline, and its ring costs memory (BENCH_pr18.json)."""
    return int(_cores() // processes >= 2)


def _roles(cfg: DgpConfig, calibration: bool = False) -> list:
    """The streams a replication of ``cfg`` draws from: (role,
    parts), each part (name, shape, drawn uniform) in the stream's own order,
    the regressor stream first. A calibration draws no outcomes, and its
    replications share one factor path, so they draw no factor shocks."""
    n, steps = cfg.n, _BURN_IN + cfg.T
    x = [("alpha", (n,), False), ("z", (n,), False)]
    if cfg.rho_ix_mode == "uniform095":
        x.append(("rho", (n,), True))
    if cfg.interactive_x:
        x.append(("gamma", (n,), True))
        if not calibration:
            x.append(("shocks", (steps,), False))
    x.append(("e", (n, steps), cfg.x_error_dist == "uniform"))
    coef = [("coef", (2, n), False)]  # eps_alpha, then eps_beta
    if calibration:
        return [(_ROLE_CAL_X, x), (_ROLE_CAL_COEF, coef)]
    y = [("z_iu", (n,), False)] if cfg.heterosked == "random" else []
    if cfg.rho_ie_mode == "uniform095":
        y.append(("rho_ie", (n,), True))
    y += [("e0", (n,), False), ("g", (1 if cfg.y_error_dist == "gaussian" else 2, n, cfg.T), False)]
    return [(_ROLE_X, x), (_ROLE_COEF, coef), (_ROLE_Y, y)]


def _fill(rng: np.random.Generator, out: np.ndarray, uniform: bool) -> None:
    (rng.random if uniform else rng.standard_normal)(out=out)


class _Slot(dict):
    """One replication's raw draws, one array per part. ``index`` is the
    replication's place in the run and ``rng`` its regressor stream, open
    until ``innovations`` (the array and its kind) is filled; ``done`` is
    set once it is, and ``error`` holds the draw thread's exception if that
    fill failed."""


class _Draws:
    """The raw draws of a run of replications, one slot per replication,
    taken in replication order.

    A slot holds one float64 array for each part of each stream of ``roles``
    (see :func:`_roles`), filled in stream order by one
    ``standard_normal(out=)`` or ``random(out=)`` call. The consumer,
    applying numpy's own ``normal(loc, s) = loc + s z`` and ``uniform(lo,
    hi) = lo + (hi - lo) u``, gets every bit that ``normal`` and ``uniform``
    give.

    The consumer opens each replication: for the first ring and whenever a
    slot is handed back, it opens the replication's streams from their
    (seed, rep, role) keys and fills every part but the regressor stream's
    last, the (n, 50 + T) innovations, which hold most of the draws. That
    part is one call, and numpy releases the GIL while it fills. An opened
    slot joins the back of the ring and of one queue of unclaimed slots.
    With ``threaded``, a draw thread claims slots from that queue in order
    and fills their innovations, so it takes the GIL back once per
    replication and does nothing else: opening a stream, or any arithmetic,
    on the thread would contend with the fits for the GIL. :meth:`take` pops
    the ring's head; while the head is not done, the consumer claims the
    oldest unclaimed slot and fills it itself, and it waits on the head only
    while the thread holds it. Inline, the same code runs on a ring of one
    slot, filled when it is taken.

    A threaded ring has _RING_SLOTS slots (fewer for fewer replications) and
    reaches across block boundaries. A fill's exception on the thread is
    raised by the :meth:`take` of its slot. Leaving the context stops and
    joins the thread. ``waited`` counts the seconds the consumer blocked on
    the thread, and ``consumer_fills`` the replications whose innovations it
    filled itself.
    """

    def __init__(self, seed: int, roles: list, reps: Sequence[int], threaded: bool = False):
        self.roles, self._seed, self._reps = roles, seed, reps
        self._threaded, self._thread, self._stop = threaded, None, False
        self._opened = 0
        self.waited, self.consumer_fills = 0.0, 0

    def _slot(self) -> _Slot:
        slot = _Slot((part, np.empty(shape)) for _, parts in self.roles for part, shape, _ in parts)
        part, _, uniform = self.roles[0][1][-1]
        slot.innovations, slot.done = (slot[part], uniform), threading.Event()
        return slot

    def give(self, slot: _Slot) -> None:
        """Hand a taken slot (or a new one) back: open the next replication's
        streams in it, fill all but its innovations and queue it, if a
        replication is left to open."""
        if self._opened == len(self._reps):
            return
        rep, slot.index, slot.error = self._reps[self._opened], self._opened, None
        self._opened += 1
        slot.done.clear()
        (role, parts), *others = self.roles
        slot.rng = _stream(self._seed, rep, role)
        for part, _, uniform in parts[:-1]:
            _fill(slot.rng, slot[part], uniform)
        for role, parts in others:
            rng = _stream(self._seed, rep, role)
            for part, _, uniform in parts:
                _fill(rng, slot[part], uniform)
        self._ring.append(slot)
        self._unclaimed.put(slot)

    @staticmethod
    def _finish(slot: _Slot) -> None:
        """Fill the innovations of an opened slot, in one call."""
        _fill(slot.rng, *slot.innovations)
        slot.rng = None

    def _run(self) -> None:
        while True:
            slot = self._unclaimed.get()
            if self._stop:
                return
            try:
                self._finish(slot)
            except BaseException as exc:  # raised again by take, in the consumer
                slot.error = exc
                return
            finally:
                slot.done.set()

    def __enter__(self):
        self._ring, self._unclaimed = deque(), queue.SimpleQueue()
        if self._threaded:
            self._thread = threading.Thread(target=self._run, name="tmgpanel-draws", daemon=True)
            self._thread.start()
        try:
            for _ in range(min(_RING_SLOTS if self._threaded else 1, len(self._reps))):
                self.give(self._slot())
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop = True
            self._unclaimed.put(None)
            self._thread.join()

    def take(self) -> _Slot:
        """The next replication's filled slot; hand it back with :meth:`give`."""
        head = self._ring.popleft()
        while not head.done.is_set():
            try:  # the oldest slot no one has claimed, filled here
                slot = self._unclaimed.get_nowait()
            except queue.Empty:  # else the thread holds the head
                t0 = time.perf_counter()
                head.done.wait()
                self.waited += time.perf_counter() - t0
            else:
                self._finish(slot)
                slot.done.set()
                self.consumer_fills += 1
        if head.error is not None:
            raise head.error
        return head


def _draw_x(draws: _Draws, B: int, cfg: DgpConfig, f_path: np.ndarray | None = None):
    """Factor-augmented heterogeneous AR(1) regressor paths for a block of B
    replications, the next B slots of ``draws``.

    The recursion starts at zero and runs 50 burn-in periods before the T
    retained observations. Returns the paths, the retained innovations and
    the per-unit innovation scales, each with a leading replication axis, and
    the raw draws of the other streams by part, stacked on that axis.
    ``f_path`` is a common factor path shared by every replication; without
    it each draws its own.

    The burn-in runs one replication at a time, in place in its slot, and
    hands the slot back before the next is taken, so a block holds no
    (B, n, 50 + T) array and the slot opens a later replication meanwhile.
    """
    n, steps = cfg.n, _BURN_IN + cfg.T
    alpha_ix, z_ix = np.empty((B, n)), np.empty((B, n))
    rho_ix, gamma_ix = np.zeros((B, n)), np.zeros((B, n))
    out, e_ret = np.empty((B, n, cfg.T)), np.empty((B, n, cfg.T))
    raw = {  # the other streams' parts, copied out of each slot
        part: np.empty((B,) + shape) for _, stream in draws.roles[1:] for part, shape, _ in stream
    }
    x = np.empty(n)
    for b in range(B):
        slot = draws.take()
        for part, block in raw.items():
            block[b] = slot[part]
        # numpy's normal(1, 1) and uniform(lo, hi), from the slot's raw draws
        alpha_ix[b] = 1.0 + 1.0 * slot["alpha"]
        z_ix[b] = slot["z"]
        if cfg.rho_ix_mode == "uniform095":
            rho_ix[b] = 0.0 + 0.95 * slot["rho"]
        f = np.zeros(steps) if f_path is None else f_path
        if cfg.interactive_x:
            gamma_ix[b] = 0.0 + 2.0 * slot["gamma"]
            if f_path is None:
                f = _factor_path(slot["shocks"])
        e_x = slot["e"]
        if cfg.x_error_dist == "uniform":
            e_x -= 0.5
            e_x *= np.sqrt(12.0)
        e_ret[b] = e_x[:, _BURN_IN:]
        rho, gamma = rho_ix[b], gamma_ix[b]
        drift = alpha_ix[b] * (1.0 - rho)
        e_x *= (np.sqrt(1.0 - rho**2) * np.sqrt(0.5 * (1.0 + z_ix[b] ** 2)))[:, None]
        x[:] = 0.0
        for j in range(steps):
            # x = drift + gamma f_j + rho x + scale e_j, in place; without
            # factors gamma f_j is exactly zero and adding it changes no bit
            np.multiply(rho, x, out=x)
            x += drift + gamma * f[j] if cfg.interactive_x else drift
            x += e_x[:, j]
            if j >= _BURN_IN:
                out[b, :, j - _BURN_IN] = x
        draws.give(slot)
    return out, e_ret, np.sqrt(0.5 * (1.0 + z_ix**2)), raw


def _factor_path(shocks: np.ndarray) -> np.ndarray:
    """The AR(0.9) factor path of ``shocks``, started at zero."""
    f = np.empty(shocks.size)
    prev = 0.0
    scale = np.sqrt(1.0 - 0.81)
    for j in range(shocks.size):
        prev = 0.9 * prev + scale * shocks[j]
        f[j] = prev
    return f


def standardized_quadratic(e_ret: np.ndarray, T: int, gamma2: float) -> np.ndarray:
    """Unit-level mixing variable: standardized de-meaned innovation quadratic."""
    q = (within(e_ret) ** 2).sum(axis=-1)
    var = 2.0 * (T - 1) + gamma2 * (T - 1) ** 2 / T
    return (q - (T - 1)) / np.sqrt(var)


def _draw_coefficients(z: np.ndarray, cfg: DgpConfig, lam: np.ndarray):
    """alpha_i and beta_i of a block from its (B, 2, n) standard normals."""
    se_a = np.sqrt(cfg.sigma2_eps_alpha)
    se_b = np.sqrt(cfg.sigma2_eps_beta)
    alpha_i = cfg.theta0[0] + cfg.psi_alpha * lam + z[:, 0] * se_a
    beta_i = cfg.theta0[1] + cfg.psi_beta * lam + z[:, 1] * se_b
    return alpha_i, beta_i


def _draw_errors(raw: dict, cfg: DgpConfig, lam: np.ndarray, e_ret: np.ndarray):
    """The outcome errors of a block from its outcome stream's raw draws."""
    if cfg.heterosked == "random":
        sigma_it = np.sqrt(0.5 * (1.0 + raw["z_iu"] ** 2))[..., None]
    elif cfg.heterosked == "lambda2":
        sigma_it = np.abs(lam)[..., None]
    else:  # ex2
        sigma_it = np.abs(e_ret)
    g = raw["g"]
    if cfg.y_error_dist == "gaussian":
        shocks = g[:, 0]
    else:
        shocks = 0.5 * (g[:, 0] ** 2 + g[:, 1] ** 2 - 2.0)
    if cfg.rho_ie_mode == "zero":
        e = shocks
    else:
        e = np.empty_like(shocks)
        prev = raw["e0"]
        rho_ie = 0.0 + 0.95 * raw["rho_ie"]  # numpy's uniform(0, 0.95)
        innov = np.sqrt(1.0 - rho_ie**2)
        for t in range(cfg.T):
            prev = rho_ie * prev + innov * shocks[..., t]
            e[..., t] = prev
    return sigma_it * e


def generate_block(cfg: DgpConfig, reps: Sequence[int]) -> tuple[PanelBlock, ReplicationTruth]:
    """Replications ``reps`` drawn as one block: the panels stacked on a leading
    axis and a truth record whose arrays carry the same axis. Each replication
    draws from its own (seed, rep, role) streams, so its values do not depend
    on the block it is drawn in."""
    with _Draws(cfg.seed, _roles(cfg), reps) as draws:
        return _generate_block(cfg, reps, draws)


def _generate_block(
    cfg: DgpConfig, reps: Sequence[int], draws: _Draws
) -> tuple[PanelBlock, ReplicationTruth]:
    """:func:`generate_block`, with the raw draws taken from ``draws``, a
    run's draws whose next slots are those of ``reps``."""
    if cfg.kappa2 is None:
        raise ScenarioError("kappa2 is unset; calibrate it first (see calibrate_kappa)")
    x, e_ret, sigma_ix, raw = _draw_x(draws, len(reps), cfg)
    lam = standardized_quadratic(e_ret, cfg.T, cfg.excess_kurtosis_x)
    alpha_i, beta_i = _draw_coefficients(raw["coef"], cfg, lam)
    u = np.sqrt(cfg.kappa2) * _draw_errors(raw, cfg, lam, e_ret)
    phi = cfg.phi()
    y = alpha_i[..., None] + phi + beta_i[..., None] * x + u
    truth = ReplicationTruth(
        theta=np.stack([alpha_i, beta_i], axis=-1), lam=lam, phi=phi, sigma_ix=sigma_ix, u=u
    )
    return PanelBlock(y=y, x=x[..., None]), truth


def generate_replication(cfg: DgpConfig, rep: int) -> tuple[BalancedPanel, ReplicationTruth]:
    """Generate one panel draw plus the truth record for oracle checks: the
    block of the single replication ``rep``."""
    block, truth = generate_block(cfg, [rep])
    panel = BalancedPanel(
        y=block.y[0], x=block.x[0], unit_ids=tuple(range(cfg.n)),
        time_ids=tuple(range(1, cfg.T + 1)),
    )
    truth = ReplicationTruth(
        theta=truth.theta[0], lam=truth.lam[0], phi=truth.phi, sigma_ix=truth.sigma_ix[0],
        u=truth.u[0],
    )
    return panel, truth


def calibrate_kappa(
    cfg: DgpConfig, r_kappa: int = 1000, n_cal: int = 5000, usage: dict | None = None
) -> float:
    """Noise scale kappa^2 hitting the target pooled fit by stochastic simulation.

    Simulates coefficient and regressor draws only (no outcomes), accumulates
    the pooled second moments of beta_i * x_it, and scales their variance by
    (1 - PR^2)/PR^2. The common factor path, when present, is drawn once and
    shared across calibration replications. Replications run as in
    :func:`run_experiment` without ``jobs``, and their :func:`_moments`
    are accumulated in order. ``usage``, if given, receives what
    :func:`run_experiment` records, the moments counting as the fit.
    """
    _check("r_kappa", r_kappa)
    _check("n_cal", n_cal)
    f_path = None
    if cfg.interactive_x:
        f_path = _factor_path(_stream(cfg.seed, 0, _ROLE_FACTOR).standard_normal(_BURN_IN + cfg.T))
    moments = _run(replace(cfg, n=n_cal), r_kappa, True, (f_path,), None, usage)["moments"]
    a_acc, b_acc = 0.0, 0.0
    for a, b in zip(*moments):
        a_acc += a
        b_acc += b
    a_acc /= r_kappa
    b_acc /= r_kappa
    return float((1.0 - cfg.pr2) / cfg.pr2 * (a_acc - b_acc**2))


def _record(usage: dict | None, processes: int, threads: int, tally: Counter) -> None:
    """The processes and draw threads per process a run used, and, summed
    over processes, its draw and fit seconds, the draw seconds it spent
    blocked on the draw thread, the replications whose innovations the
    consumer filled and the blocks it fitted, into ``usage`` if given."""
    if usage is not None:
        usage.update(processes=processes, draw_threads=threads,
                     draw_seconds=float(tally["draw"]), fit_seconds=float(tally["fit"]),
                     draw_wait_seconds=float(tally["wait"]),
                     consumer_fills=int(tally["consumer_fills"]), blocks=int(tally["blocks"]))


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


@dataclass
class McResult:
    """Aggregated Monte Carlo metrics for one estimator or test."""

    estimator: str
    reps: int
    failures: int
    coef_names: tuple
    bias: np.ndarray
    rmse: np.ndarray
    size: np.ndarray
    pi_hat: float
    mc_se_bias: np.ndarray
    mc_se_size: np.ndarray
    power_curve: list | None = None
    #: failed replications by reason: the NumericalError class name, or
    #: NONFINITE_SE for a finite estimate without a finite standard error
    failures_by_reason: dict = field(default_factory=dict)
    #: the first FIRST_FAILURES failed replications of each reason, by index
    #: (``generate_replication(cfg, index)`` draws the panel again)
    failed_replications: dict = field(default_factory=dict)

    def rows(self) -> list[tuple[str, str, str, float]]:
        """Flatten to (estimator, metric, coefficient, value) rows."""
        out = []
        for j, name in enumerate(self.coef_names):
            for metric, arr in (
                ("bias", self.bias),
                ("rmse", self.rmse),
                ("size", self.size),
                ("mc_se_bias", self.mc_se_bias),
                ("mc_se_size", self.mc_se_size),
            ):
                out.append((self.estimator, metric, name, float(arr[j])))
        out.append((self.estimator, "pi_hat", "", self.pi_hat))
        out.append((self.estimator, "reps", "", float(self.reps)))
        out.append((self.estimator, "failures", "", float(self.failures)))
        for reason, count in sorted(self.failures_by_reason.items()):
            out.append((self.estimator, f"failures.{reason}", "", float(count)))
        return out


#: Failure reason of a replication whose estimate is finite but whose
#: standard error is not (e.g. GP keeping a single unit).
NONFINITE_SE = "NonFiniteStandardError"

#: Failed replications named per tag and reason (``McResult.failed_replications``).
FIRST_FAILURES = 5


def _block_records(
    cfg: DgpConfig, reps: Sequence[int], tags: Sequence[str], trim_cfg: TrimConfig,
    alpha_gp: float, draws: _Draws, tally: Counter,
) -> dict:
    """Estimate every requested tag on one block of replications, drawn from
    the run's ``draws``; the draw and fit seconds add to ``tally``.

    Returns per tag the arrays (coef (B, width), se (B, width), trimmed
    fraction (B,), reason (B,)): the slope and phi_1..phi_{T-1} with their
    standard errors, or a test's statistic and p-value with a zero fraction.
    A failed replication has NaN rows and its NumericalError class name; the
    others have reason None.
    """
    t0 = time.perf_counter()
    block = _generate_block(cfg, reps, draws)[0]
    t1 = time.perf_counter()
    B = len(reps)
    out = {}
    for tag in tags:
        try:
            fit = _TAG_FITS[tag](block, trim_cfg, alpha_gp)
        except NumericalError as exc:  # a failure of the block's shape fails every replication
            nan = np.full((B, len(_tag_coef_names(tag, cfg.T))), np.nan)
            out[tag] = nan, nan, np.full(B, np.nan), np.full(B, type(exc).__name__, dtype=object)
            continue
        if isinstance(fit, HausmanResult):
            coef, se, pi, fail = fit.statistic[:, None], fit.p_value[:, None], np.zeros(B), fit.fail
        else:
            est, te = fit if isinstance(fit, tuple) else (fit, None)
            j = est.coef_names.index("beta1")
            coef, se, fail = est.coef[:, [j]], est.se[:, [j]], est.fail
            if te is not None:
                coef = np.concatenate([coef, te.phi[:, :-1]], axis=1)
                se = np.concatenate([se, te.se[:, :-1]], axis=1)
            pi = void(np.broadcast_to(est.pi_n, (B,)), fail)
            coef, se = void(coef, fail), void(se, fail)
        reason = np.array([None if f is None else type(f).__name__ for f in fail], dtype=object)
        out[tag] = coef, se, pi, reason
    tally.update(draw=t1 - t0, fit=time.perf_counter() - t1, blocks=1)
    return out


def _moments(cfg: DgpConfig, reps: Sequence[int], f_path, draws: _Draws, tally: Counter) -> dict:
    """A calibration's :func:`_block_records`: per replication, mean(bx^2)
    and mean(bx) of bx = beta_i x_it, every one on the factor path ``f_path``."""
    t0 = time.perf_counter()
    x, e_ret, _, raw = _draw_x(draws, len(reps), cfg, f_path=f_path)
    lam = standardized_quadratic(e_ret, cfg.T, cfg.excess_kurtosis_x)
    _, beta_i = _draw_coefficients(raw["coef"], cfg, lam)
    t1 = time.perf_counter()
    bx = beta_i[..., None] * x
    out = {"moments": (np.mean(bx * bx, axis=(1, 2)), np.mean(bx, axis=(1, 2)))}
    tally.update(draw=t1 - t0, fit=time.perf_counter() - t1, blocks=1)
    return out


def _tag_coef_names(tag: str, T: int) -> tuple:
    """Reported coefficients: the slope, then phi_1..phi_{T-1} for TE tags."""
    if tag in TE_TAGS:
        return ("beta",) + tuple(f"phi{t}" for t in range(1, T))
    if tag in TEST_TAGS:
        return ("statistic",)
    return ("beta",)


def _tag_truth(tag: str, cfg: DgpConfig) -> np.ndarray:
    if tag in TE_TAGS:
        return np.concatenate([[cfg.theta0[1]], cfg.phi()[:-1]])
    return np.array([cfg.theta0[1]])


def _concat(parts: list[dict]) -> dict:
    """Per tag, the arrays of consecutive runs of replications, joined in order."""
    return {tag: tuple(map(np.concatenate, zip(*[p[tag] for p in parts]))) for tag in parts[0]}


def _worker(cfg: DgpConfig, reps: Sequence[int], calibration: bool, extra: tuple, processes: int):
    """The :func:`_block_records` (a calibration's :func:`_moments`) of the
    replications ``reps``, each block's call given ``extra``, fitted in the
    fewest blocks of at most :func:`block_size` consecutive entries, of
    balanced sizes, and joined in replication order, with the tally of
    :func:`_record`. It is one of a run's ``processes``, and where
    :func:`_draw_threads` gives it one, a draw thread fills the innovations
    of every block ahead of the fits; it is joined before this returns."""
    records = _moments if calibration else _block_records
    tally = Counter()
    with _Draws(cfg.seed, _roles(cfg, calibration), reps, _draw_threads(processes) > 0) as draws:
        blocks = _blocks(reps, block_size(cfg.n, cfg.T))
        parts = [records(cfg, block, *extra, draws, tally) for block in blocks]
    tally.update(wait=draws.waited, consumer_fills=draws.consumer_fills)
    return _concat(parts), tally


def _run(cfg: DgpConfig, reps: int, calibration: bool, extra: tuple, jobs, usage) -> dict:
    """The :func:`_worker` records of replications 0..reps-1, split into runs
    of consecutive ones over :func:`_processes` processes (``jobs``, else one
    per SPLIT_UNITS units), each run in a forked child (:func:`_forked`) where
    there are two or more, and joined in order; :func:`_record` into
    ``usage``. If a child fails, this process runs them all, as a run of one
    process does."""
    chunks = _blocks(range(reps), -(-reps // _processes(reps * cfg.n, SPLIT_UNITS, jobs)))
    # each worker's result is read whole, and loaded once every worker exited 0
    parts = _forked(
        chunks, lambda c: _worker(cfg, c, calibration, extra, len(chunks))
    ) if len(chunks) > 1 else None
    if parts is None:  # one process, as chosen or after a failed worker
        parts = [_worker(cfg, range(reps), calibration, extra, 1)]
    _record(usage, len(parts), _draw_threads(len(parts)), sum((s for _, s in parts), Counter()))
    return _concat([p for p, _ in parts])


def _aggregate(tag, cfg: DgpConfig, coef, se, pi, reason, beta0_grid) -> McResult:
    """Metrics of one tag over its replications, row r being replication r.
    A row with a non-finite estimate or standard error is a failure: it is
    counted by reason, its first indices are kept, and it is left out of
    every metric. A tag with no OK replication reports NaN metrics and
    no power curve, and a test reports only its rejection rate (in ``size``)."""
    names = _tag_coef_names(tag, cfg.T)
    # a finite estimate with a non-finite se (e.g. GP keeping one unit)
    # cannot be tested, so it counts as a failure, not a non-rejection
    ok = np.isfinite(coef).all(axis=1) & np.isfinite(se).all(axis=1)
    failed = np.flatnonzero(~ok).tolist()  # replication indices: rows join in their order
    reasons = [r or NONFINITE_SE for r in reason[failed]]
    by_reason = dict(sorted(Counter(reasons).items()))
    first = {r: [i for i, s in zip(failed, reasons) if s == r][:FIRST_FAILURES] for r in by_reason}
    r_ok = int(ok.sum())
    coef, se, pi = coef[ok], se[ok], pi[ok]
    bias, rmse, size, mc_se_bias, mc_se_size = np.full((5, len(names)), np.nan)
    pi_hat, power = np.nan, None
    if r_ok and tag in TEST_TAGS:
        size = (se < 0.05).mean(axis=0)  # the se column carries a test's p-value
        mc_se_size = np.sqrt(size * (1 - size) / r_ok)
    elif r_ok:
        err = coef - _tag_truth(tag, cfg)
        bias = err.mean(axis=0)
        rmse = np.sqrt((err**2).mean(axis=0))
        # an se of exactly 0 divides as IEEE does: |t| = inf rejects, 0/0 does not
        with np.errstate(divide="ignore", invalid="ignore"):
            size = (np.abs(err) / se > CRIT_5PCT).mean(axis=0)
            if beta0_grid is not None:
                power = []
                for b0 in np.asarray(beta0_grid, dtype=np.float64):
                    rate = (np.abs(coef[:, 0] - b0) / se[:, 0] > CRIT_5PCT).mean()
                    power.append(
                        (float(b0), float(rate), float(np.sqrt(rate * (1 - rate) / r_ok)))
                    )
        mc_se_size = np.sqrt(size * (1 - size) / r_ok)
        if r_ok > 1:
            mc_se_bias = coef.std(axis=0, ddof=1) / np.sqrt(r_ok)
        pi_hat = float(pi.mean())
    return McResult(
        estimator=tag, reps=r_ok, failures=len(ok) - r_ok, coef_names=names, bias=bias,
        rmse=rmse, size=size, pi_hat=pi_hat, mc_se_bias=mc_se_bias, mc_se_size=mc_se_size,
        power_curve=power, failures_by_reason=by_reason, failed_replications=first,
    )


def run_experiment(
    cfg: DgpConfig,
    estimators: Sequence[str],
    reps: int,
    beta0_grid: np.ndarray | None = None,
    trim_cfg: TrimConfig = TrimConfig(),
    alpha_gp: float = DEFAULT_ALPHA_GP,
    jobs: int | None = None,
    usage: dict | None = None,
) -> list[McResult]:
    """Run ``reps`` independent replications and aggregate per-estimator metrics.

    Rejections use the two-sided 5% normal rule |estimate - truth|/SE > 1.96.
    ``beta0_grid`` adds a power curve (rejection of beta = b over the grid)
    for every coefficient-reporting estimator. Failures propagate as skipped
    replications, counted per estimator and by reason. Replications are drawn
    and fitted in blocks (see MAX_BLOCK_UNITS and MAX_BLOCK_CELLS), and each
    worker (``jobs``, else see SPLIT_UNITS; at most one per core) takes a run
    of consecutive replications; neither the block size nor the workers
    change any result. Workers are forked only on Linux with no other Python
    thread alive (``panel._processes``); otherwise, and if a worker fails,
    this process runs every replication.

    Each worker process with two cores or more of its own (cores // workers)
    fills its innovations on one draw thread, ahead of its fits; this
    changes no result either. ``usage``, if given, receives ``processes``,
    ``draw_threads`` (per process) and, summed over the workers,
    ``draw_seconds`` and ``fit_seconds``, ``draw_wait_seconds``, the part
    of the draw seconds blocked on the draw thread, ``consumer_fills``, the
    replications whose innovations the main thread filled itself, and
    ``blocks``, the blocks fitted.
    """
    _check("reps", reps)
    _check("jobs", jobs)
    if cfg.kappa2 is None:
        raise ScenarioError("kappa2 is unset; calibrate it first (see calibrate_kappa)")
    _check_tags(estimators)
    tags = list(dict.fromkeys(estimators))

    records = _run(cfg, reps, False, (tags, trim_cfg, alpha_gp), jobs, usage)
    return [_aggregate(tag, cfg, *records[tag], beta0_grid) for tag in tags]


# ---------------------------------------------------------------------------
# scenario (de)serialization
# ---------------------------------------------------------------------------

#: The experiment settings a scenario may give beside the DgpConfig fields, and their defaults.
_EXTRAS = {"estimators": ("tmg",), "reps": 2000, "trim_alpha": DEFAULT_ALPHA, "trim_c_n": None,
           "alpha_gp": DEFAULT_ALPHA_GP, "beta0_grid": None}


def scenario_from_dict(raw: dict) -> tuple[DgpConfig, dict]:
    """A DgpConfig and the settings of ``_EXTRAS``, all checked, plus ``trim_cfg``."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    cfg_fields = DgpConfig.__dataclass_fields__
    for key in raw:
        if key not in cfg_fields and key not in _EXTRAS:
            raise ScenarioError(f"unknown scenario field {key!r}")
    missing = [k for k, f in cfg_fields.items() if f.default is MISSING and k not in raw]
    if missing:
        raise ScenarioError(f"scenario missing required fields {missing}")
    cfg = DgpConfig(**{
        key: tuple(value) if key == "theta0" and isinstance(value, list) else value
        for key, value in raw.items() if key in cfg_fields
    })
    extras = {key: raw.get(key, default) for key, default in _EXTRAS.items()}
    for key, value in extras.items():
        _check(key, value)
    _check_tags(extras["estimators"])
    try:
        extras["trim_cfg"] = TrimConfig(alpha=extras["trim_alpha"], c_n=extras["trim_c_n"])
    except ValueError as exc:
        raise ScenarioError(f"invalid trim_alpha/trim_c_n: {exc}") from None
    return cfg, extras


def _check_tags(tags) -> None:
    """A list of tags, at least one; an unknown tag is a ScenarioError of its own."""
    _check("estimators", tags)
    for tag in tags:
        if tag not in ESTIMATOR_TAGS + TEST_TAGS:
            raise ScenarioError(f"unknown estimator tag {tag!r}")


def load_scenario(path) -> tuple[DgpConfig, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from None
    return scenario_from_dict(raw)
