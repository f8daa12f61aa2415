"""Command-line surface: estimate | test | simulate | calibrate | power.

Every run writes a manifest (command, config hash, seed, versions, timings,
output paths); its timings also record the peak memory of the process and of
its largest forked child, a CSV command's the processes that parsed the CSV,
and a Monte Carlo run's manifest the processes and draw threads it used, with
its timings split into draw and fit seconds.
A Monte Carlo run splits over the cores the process may run on (``taskset``
limits them) as its size allows; simulation and calibration outputs are
byte-reproducible for a given scenario and seed, whatever the split.

Only the Monte Carlo commands import the Monte Carlo engine
(:mod:`tmgpanel.montecarlo`), so ``estimate`` and ``test`` start without it.

``estimate`` and ``test`` keep the panel they parsed in ``panel.npz`` in
``--out``, and the next of them to read the same CSV bytes into that
directory loads it instead of parsing (:func:`_read_input`); the outputs are
the same bytes either way.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import re
import sys
import time
import zipfile
from dataclasses import asdict, replace
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

try:
    import resource
except ImportError:  # no getrusage (Windows)
    resource = None

from . import __version__
from .designs import blockwise
from .errors import NumericalError, PanelInputError
from .estimators import DEFAULT_ALPHA_GP
from .panel import BalancedPanel, read_panel_csv
from .tags import ESTIMATOR_TAGS, MAX_REPS, MAX_UNITS, TE_TAGS, TEST_TAGS, _TAG_FITS
from .trimming import DEFAULT_ALPHA, TrimConfig

if TYPE_CHECKING:
    from .montecarlo import DgpConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _normal_two_sided_p(t: float) -> float:
    return math.erfc(abs(t) / math.sqrt(2.0))


def _t_rows(names, values, ses) -> list:
    """(name, value, se, t, p) rows with t = value / se in IEEE arithmetic: a
    NaN se or 0 / 0 gives t = NaN and p = NaN, a nonzero value over se = 0
    gives t = +-inf and p = 0."""
    values, ses = np.atleast_1d(values), np.atleast_1d(ses)
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = values / ses
    return [
        (name, c, s, t, _normal_two_sided_p(t)) for name, c, s, t in zip(names, values, ses, ts)
    ]


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _versions() -> dict:
    return {
        "tmgpanel": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def _peak_rss() -> dict:
    """Peak resident memory in MiB, from ``getrusage``'s ``ru_maxrss``: of
    this process (``peak_rss_mb``), and of the largest child it has reaped,
    such as a CSV parse's or a Monte Carlo run's forked children
    (``children_peak_rss_mb``, 0 if none). None where the platform has no
    ``getrusage``."""
    if resource is None:
        return {"peak_rss_mb": None, "children_peak_rss_mb": None}
    unit = 1024.0**2 if sys.platform == "darwin" else 1024.0  # bytes there, KiB elsewhere
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit,
        "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / unit,
    }


def _write_manifest(
    out_dir: Path,
    command: str,
    params: dict,
    seed,
    outputs,
    elapsed: float,
    stages=None,
    extra=None,
):
    manifest = {
        "command": command,
        "config_hash": _config_hash(params),
        "parameters": params,
        "seed": seed,
        "versions": _versions(),
        "timings": {"wall_seconds": elapsed, **(stages or {}), **_peak_rss()},
        "outputs": [str(p) for p in outputs],
        **(extra or {}),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n", encoding="utf-8")
    return path


def _checked(cast, ok, what: str):
    """argparse ``type=``: convert with ``cast``, then require ``ok(value)``."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid float value"
    return parse


_ALPHA = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_POSITIVE = _checked(float, lambda v: v > 0.0, "positive")
_REPS = _checked(int, lambda v: 1 <= v <= MAX_REPS, f"at least 1 and at most {MAX_REPS}")
_N_CAL = _checked(int, lambda v: 2 <= v <= MAX_UNITS, f"at least 2 and at most {MAX_UNITS}")
_GRID_POINTS = _checked(int, lambda v: 1 <= v <= 10**4, "at least 1 and at most 10000")
_FINITE = _checked(float, math.isfinite, "finite")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


#: The file in ``--out`` that keeps the panel a CSV command parsed.
_CACHE_NAME = "panel.npz"

#: The format of ``panel.npz``, part of its key: bump it whenever what a CSV
#: parses to changes (its values, its ids or their order) or what the file holds.
_CACHE_FORMAT = 1


def _cache_key(csv_sha256: str) -> list:
    return [csv_sha256, __version__, str(_CACHE_FORMAT)]


def _read_input(path, out: Path, usage: dict):
    """The panel in ``path`` and the sha256 of its bytes.

    The panel is loaded from ``panel.npz`` in ``out`` if that file was
    written for these bytes by this version and format and holds a valid
    panel; ``usage["read_processes"]`` is then 0. Otherwise it is parsed from
    the bytes that were hashed, and the parse records its ``usage``.
    """
    data = Path(path).read_bytes()
    csv_sha256 = hashlib.sha256(data).hexdigest()
    try:
        # np.load leaves a file it opened open when the archive is bad
        with open(out / _CACHE_NAME, "rb") as fh, np.load(fh, allow_pickle=False) as cache:
            if cache["key"].tolist() == _cache_key(csv_sha256):
                ids = cache["ids"].tobytes().decode("utf-8").split("\0")
                n = int(cache["units"])
                panel = BalancedPanel(
                    y=cache["y"], x=cache["x"], unit_ids=ids[:n], time_ids=ids[n:]
                )
                usage["read_processes"] = 0
                return panel, csv_sha256
    except (OSError, ValueError, KeyError, EOFError, TypeError, zipfile.BadZipFile,
            PanelInputError):
        # a missing, truncated, foreign or inconsistent file is parsed past; a
        # .npy file loads as an array, which is no context manager (TypeError)
        pass
    return read_panel_csv(io.BytesIO(data), usage), csv_sha256


def _write_cache(out: Path, panel: BalancedPanel, csv_sha256: str, usage: dict) -> list:
    """After a parse (``usage["read_processes"]`` above 0), keep ``panel``
    in ``panel.npz`` in ``out``, keyed by the sha256 of its CSV bytes; the
    paths written: none after a load, or where the file could not be written,
    which changes no other output. The file is written under a name of this
    process and moved into place, so a reader never sees it half written, and
    no temporary file outlives the call."""
    if not usage["read_processes"]:
        return []
    # the reader rejects NUL bytes, so NUL joins the ids and splits them again
    ids = "\0".join(panel.unit_ids + panel.time_ids).encode("utf-8")
    path, tmp = out / _CACHE_NAME, out / f"{_CACHE_NAME}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh, y=panel.y, x=panel.x, ids=np.frombuffer(ids, dtype=np.uint8),
                units=len(panel.unit_ids), key=np.array(_cache_key(csv_sha256)),
            )
        os.replace(tmp, path)
        return [path]
    except OSError:
        return []
    finally:
        tmp.unlink(missing_ok=True)


def _stages(t0: float, t_read: float, t_fit: float, usage: dict) -> dict:
    """Read, fit and write seconds of a CSV command, writing until now, and
    the processes that parsed the CSV."""
    return {
        "read_seconds": t_read - t0,
        "fit_seconds": t_fit - t_read,
        "write_seconds": time.perf_counter() - t_fit,
        "read_processes": usage["read_processes"],
    }


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


#: Rows of per_unit.csv formatted per write: large enough to amortise the
#: call, small enough that the strings never outweigh the estimates.
_WRITE_ROWS = 8192


#: Characters that make an id a quoted field in the CSV dialect of
#: ``read_panel_csv``.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_ids(ids) -> list[str]:
    """``ids`` as CSV fields: quoted, with ``"`` doubled, where they hold a
    delimiter, quote or line break, and verbatim otherwise."""
    ids = list(map(str, ids))
    if not _NEEDS_QUOTES.search("".join(ids)):
        return ids
    return ['"' + v.replace('"', '""') + '"' if _NEEDS_QUOTES.search(v) else v for v in ids]


def _write_per_unit(path: Path, names, unit_ids, est) -> None:
    """One row per unit in the average: its id, then its row of ``per_unit``.

    Each chunk of rows is one ``%`` call over one flat tuple of its cells,
    with ``%.17g`` per value, which renders the same bytes as :func:`_fmt`.
    """
    rows, ids, keep = est.per_unit, _csv_ids(unit_ids), est.weighting.keep
    if keep is not None:
        rows = rows[keep]
        ids = list(compress(ids, keep.tolist()))
    width = 1 + rows.shape[1]
    line = "%s," + ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("unit_id," + ",".join(names) + "\n")
        for i in range(0, len(ids), _WRITE_ROWS):
            chunk = rows[i : i + _WRITE_ROWS]
            cells = [None] * (chunk.shape[0] * width)
            cells[::width] = ids[i : i + _WRITE_ROWS]
            for j in range(1, width):
                cells[j::width] = chunk[:, j - 1].tolist()
            fh.write((line * chunk.shape[0]) % tuple(cells))


def _trimming_record(est) -> dict | None:
    """From the fit's weighting: the threshold a_n, the trimmed fraction pi_n
    and the trimmed-unit count of a TMG-family fit; the squared bandwidth
    h_n^2, the kept-unit count m and the excluded fraction pi_n of a
    GP-family fit; None for any other fit."""
    wt = est.weighting
    if wt is None:
        return None
    if wt.trim is not None:
        return {
            "a_n": float(wt.trim.a_n),
            "pi_n": float(wt.trim.pi_n),
            "trimmed": int(np.count_nonzero(wt.trim.trimmed)),
        }
    if wt.h_n2 is not None:
        return {"h_n2": float(wt.h_n2), "m": int(wt.m), "pi_n": float(wt.pi_n)}
    return None


#: The time-effects variant of each --method that has one: the tag --te selects.
_TE_VARIANT = {"fe": "fete", "tmg": "tmgte", "gp": "gpte"}


@blockwise
def _fit(block, tags: tuple, trim_cfg: TrimConfig, alpha_gp: float) -> tuple:
    """The fits of ``tags``, in order, on a block, or on one panel as its
    block of one; a later tag reads the fits an earlier one cached."""
    return tuple(_TAG_FITS[tag](block, trim_cfg, alpha_gp) for tag in tags)


def _run_estimate(args) -> int:
    t0 = time.perf_counter()
    usage: dict = {}
    panel, csv_sha256 = _read_input(args.csv, Path(args.out), usage)
    t_read = time.perf_counter()
    tag = args.method
    if args.te and tag not in TE_TAGS:
        tag = _TE_VARIANT.get(tag)
        if tag is None:
            raise PanelInputError(f"method {args.method!r} has no time-effects variant")
    te = tag in TE_TAGS
    (fit,) = _fit(panel, (tag,), TrimConfig(alpha=args.alpha), args.alpha_gp)
    est, te_result = fit if te else (fit, None)
    if args.dump_units and est.per_unit is None:
        raise PanelInputError(f"method {tag!r} is pooled: it has no per-unit estimates to dump")

    names = est.coef_names
    rows = _t_rows(names, est.coef, est.se)
    if te_result is not None:
        phi_names = [f"phi{t}" for t in range(1, len(te_result.phi) + 1)]
        rows += _t_rows(phi_names, te_result.phi, te_result.se)
    t_fit = time.perf_counter()

    out = _out_dir(args)
    table_path = out / "estimate.csv"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("coef,estimate,se,t,p\n")
        for name, c, s, t, p in rows:
            fh.write(f"{name},{_fmt(c)},{_fmt(s)},{_fmt(t)},{_fmt(p)}\n")
    outputs = [table_path]

    if args.dump_units:
        dump_path = out / "per_unit.csv"
        _write_per_unit(dump_path, names, panel.unit_ids, est)
        outputs.append(dump_path)
    outputs += _write_cache(out, panel, csv_sha256, usage)

    print(f"method={est.method}  n={panel.n}  T={panel.T}  k'={panel.k_prime}")
    header = f"{'coef':>8} {'estimate':>14} {'se':>12} {'t':>9} {'p':>9}"
    print(header)
    for name, c, s, t, p in rows:
        print(f"{name:>8} {c:14.6f} {s:12.6f} {t:9.3f} {p:9.4f}")
    trimming = _trimming_record(est)
    if trimming is not None:  # the manifest's record, pi_n first
        print(f"trimmed fraction pi_hat = {est.pi_n:.4f}")
        print("  ".join(f"{key} = {value!r}" for key, value in trimming.items() if key != "pi_n"))

    params = {
        "csv": str(args.csv),
        "csv_sha256": csv_sha256,
        "method": est.method,
        "alpha": args.alpha,
        "alpha_gp": args.alpha_gp,
        "te": te,
        "pi_n": est.pi_n,
        "n": panel.n,
        "T": panel.T,
    }
    stages = _stages(t0, t_read, t_fit, usage)
    extra = None if trimming is None else {"trimming": trimming}
    outputs.append(
        _write_manifest(
            out, "estimate", params, None, outputs, time.perf_counter() - t0, stages, extra
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def _run_test(args) -> int:
    t0 = time.perf_counter()
    usage: dict = {}
    panel, csv_sha256 = _read_input(args.csv, Path(args.out), usage)
    t_read = time.perf_counter()
    tags = ("hausman_te", "tmgte") if args.te else ("hausman", "tmg")
    res, tmg_fit = _fit(panel, tags, TrimConfig(alpha=args.alpha), None)
    trim = (tmg_fit[0] if args.te else tmg_fit).weighting.trim  # the fit the test compared
    t_fit = time.perf_counter()
    out = _out_dir(args)
    path = out / "hausman.json"
    record = {**res.to_record(), "a_n": float(trim.a_n), "pi_n": float(trim.pi_n)}
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    outputs = [path, *_write_cache(out, panel, csv_sha256, usage)]
    print(
        f"Hausman [{res.variant}] statistic={res.statistic:.4f} df={res.df} p={res.p_value:.4f}"
    )
    params = {
        "csv": str(args.csv),
        "csv_sha256": csv_sha256,
        "alpha": args.alpha,
        "te": args.te,
    }
    stages = _stages(t0, t_read, t_fit, usage)
    _write_manifest(out, "test", params, None, outputs, time.perf_counter() - t0, stages)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / calibrate / power
# ---------------------------------------------------------------------------


def _prepare_scenario(args):
    """The scenario, checked as it loads, with --seed applied, and its settings."""
    from . import montecarlo

    cfg, extras = montecarlo.load_scenario(args.scenario)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg, extras


def _ensure_kappa(cfg: DgpConfig, usage: dict) -> tuple[DgpConfig, bool, float]:
    """The scenario with kappa^2 set, whether it was calibrated, and the
    seconds the calibration took (0 when the scenario gives kappa^2); a
    calibration records its ``usage``."""
    from . import montecarlo

    if cfg.kappa2 is not None:
        return cfg, False, 0.0
    t0 = time.perf_counter()
    cfg = replace(cfg, kappa2=montecarlo.calibrate_kappa(cfg, usage=usage))
    return cfg, True, time.perf_counter() - t0


def _mc_record(
    calibrate: float, replicate: float, t_write: float, usage: dict, cal_usage: dict
) -> tuple[dict, dict]:
    """The manifest's timings and record of a Monte Carlo command: its
    calibrate, replicate and write seconds, writing from ``t_write`` until
    now, then every key of its run's ``usage`` and, prefixed ``calibrate_``,
    of the ``cal_usage`` of a calibration before the run. A key ending in
    ``_seconds`` is a timing; the others go in the record."""
    timings = {
        "calibrate_seconds": calibrate,
        "replicate_seconds": replicate,
        "write_seconds": time.perf_counter() - t_write,
    }
    record: dict = {}
    for prefix, run in (("", usage), ("calibrate_", cal_usage)):
        for key, value in run.items():
            (timings if key.endswith("_seconds") else record)[prefix + key] = value
    return timings, record


def _write_results_csv(path: Path, results) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("estimator,metric,coefficient,value\n")
        for res in results:
            for est_name, metric, coef, value in res.rows():
                fh.write(f"{est_name},{metric},{coef},{_fmt(value)}\n")


def _write_power_csv(path: Path, results) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("estimator,b0,rejection_rate,mc_se\n")
        for res in results:
            if res.power_curve is None:
                continue
            for b0, rate, mc_se in res.power_curve:
                fh.write(f"{res.estimator},{_fmt(b0)},{_fmt(rate)},{_fmt(mc_se)}\n")


def _power_grid(args, cfg: DgpConfig, extras: dict) -> np.ndarray:
    """The scenario's beta0_grid, else --grid-points values (default 21) from
    --grid-min to --grid-max, which default to the true slope -+ 0.5. A grid
    flag beside a beta0_grid is refused: the grid has one source."""
    if extras["beta0_grid"] is not None:
        flags = [f"--{f}" for f in ("grid-min", "grid-max", "grid-points")
                 if getattr(args, f.replace("-", "_")) is not None]
        if flags:
            raise PanelInputError(
                f"the scenario's beta0_grid and {', '.join(flags)} both set the power grid;"
                " give one"
            )
        return np.asarray(extras["beta0_grid"], dtype=np.float64)
    beta0 = cfg.theta0[1]
    lo = beta0 - 0.5 if args.grid_min is None else args.grid_min
    hi = beta0 + 0.5 if args.grid_max is None else args.grid_max
    return np.linspace(lo, hi, 21 if args.grid_points is None else args.grid_points)


def _run_monte_carlo(args) -> int:
    """simulate, or power: the same run with a slope grid, written as a curve."""
    from . import montecarlo

    t0 = time.perf_counter()
    cfg, extras = _prepare_scenario(args)
    reps = args.reps if args.reps is not None else extras["reps"]
    if args.command == "power" and set(extras["estimators"]) <= set(TEST_TAGS):
        tags = list(extras["estimators"])
        raise PanelInputError(f"estimators {tags} are all tests: a power curve needs a slope")
    grid = _power_grid(args, cfg, extras) if args.command == "power" else None
    trim_cfg, alpha_gp = extras["trim_cfg"], extras["alpha_gp"]
    cal_usage: dict = {}
    cfg, calibrated, cal_seconds = _ensure_kappa(cfg, cal_usage)
    t_rep = time.perf_counter()
    usage: dict = {}
    results = montecarlo.run_experiment(
        cfg,
        extras["estimators"],
        reps,
        beta0_grid=grid,
        trim_cfg=trim_cfg,
        alpha_gp=alpha_gp,
        usage=usage,
    )
    t_write = time.perf_counter()
    out = _out_dir(args)
    if grid is None:
        path = out / "results.csv"
        _write_results_csv(path, results)
        for res in results:
            if res.estimator in TEST_TAGS:
                print(f"{res.estimator}: rejection_rate={res.size[0]:.4f} reps={res.reps}")
            else:
                print(
                    f"{res.estimator}: bias={res.bias[0]:+.4f} rmse={res.rmse[0]:.4f} "
                    f"size={res.size[0]:.4f} pi_hat={res.pi_hat:.4f} reps={res.reps}"
                )
            if res.failures:
                reasons = ", ".join(f"{k}={v}" for k, v in res.failures_by_reason.items())
                print(f"{res.estimator}: failures={res.failures} ({reasons})")
    else:
        path = out / "power.csv"
        _write_power_csv(path, results)
    params = {
        "scenario": asdict(cfg),
        "estimators": list(extras["estimators"]),
        "reps": reps,
        **({} if grid is None else {"grid": [float(g) for g in grid]}),
        "trim_alpha": trim_cfg.alpha,
        "alpha_gp": alpha_gp,
        "kappa2_calibrated": calibrated,
    }
    stages, extra = _mc_record(cal_seconds, t_write - t_rep, t_write, usage, cal_usage)
    extra["failed_replications"] = {res.estimator: res.failed_replications for res in results}
    _write_manifest(
        out, args.command, params, cfg.seed, [path], time.perf_counter() - t0, stages, extra
    )
    if grid is not None:
        print(f"wrote power curve over {grid.size} grid points to {path}")
    return EXIT_OK


def _run_calibrate(args) -> int:
    from . import montecarlo

    t0 = time.perf_counter()
    cfg, _ = _prepare_scenario(args)
    t_cal = time.perf_counter()
    usage: dict = {}
    kappa2 = montecarlo.calibrate_kappa(cfg, r_kappa=args.reps, n_cal=args.n_cal, usage=usage)
    t_write = time.perf_counter()
    out = _out_dir(args)
    path = out / "kappa2.json"
    record = {
        "kappa2": kappa2,
        "T": cfg.T,
        "pr2": cfg.pr2,
        "r_kappa": args.reps,
        "n_cal": args.n_cal,
        "seed": cfg.seed,
    }
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"kappa2(T={cfg.T}) = {kappa2:.6f}")
    params = {"scenario": asdict(cfg), "r_kappa": args.reps, "n_cal": args.n_cal}
    stages, extra = _mc_record(t_write - t_cal, 0.0, t_write, usage, {})
    _write_manifest(
        out, "calibrate", params, cfg.seed, [path], time.perf_counter() - t0, stages, extra
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_CSV_OUT_HELP = (
    "output directory (default tmgpanel_out); it also keeps panel.npz, the parsed CSV, "
    "which the next estimate or test on the same CSV bytes loads instead of parsing"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmgpanel",
        description="Average-effect estimation in short-T heterogeneous panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate average effects from a CSV panel")
    p_est.add_argument("csv")
    p_est.add_argument("--method", choices=ESTIMATOR_TAGS, default="tmg")
    p_est.add_argument("--alpha", type=_ALPHA, default=DEFAULT_ALPHA)
    p_est.add_argument("--alpha-gp", type=_POSITIVE, default=DEFAULT_ALPHA_GP)
    p_est.add_argument("--te", action="store_true", help="include common time effects")
    p_est.add_argument("--dump-units", action="store_true", help="write per-unit estimates")
    p_est.add_argument("--out", default="tmgpanel_out", help=_CSV_OUT_HELP)
    p_est.set_defaults(func=_run_estimate)

    p_test = sub.add_parser("test", help="Hausman test of correlated heterogeneity")
    p_test.add_argument("csv")
    p_test.add_argument("--alpha", type=_ALPHA, default=DEFAULT_ALPHA)
    p_test.add_argument("--te", action="store_true")
    p_test.add_argument("--out", default="tmgpanel_out", help=_CSV_OUT_HELP)
    p_test.set_defaults(func=_run_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--reps", type=_REPS)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", default="tmgpanel_out")
    p_sim.set_defaults(func=_run_monte_carlo)

    p_cal = sub.add_parser("calibrate", help="calibrate the outcome noise scale")
    p_cal.add_argument("scenario")
    p_cal.add_argument(
        "--reps", type=_REPS, default=1000, help="calibration replications (default 1000)"
    )
    p_cal.add_argument("--n-cal", type=_N_CAL, default=5000)
    p_cal.add_argument("--seed", type=int)
    p_cal.add_argument("--out", default="tmgpanel_out")
    p_cal.set_defaults(func=_run_calibrate)

    p_pow = sub.add_parser("power", help="rejection-rate curve over a slope grid")
    p_pow.add_argument("scenario")
    p_pow.add_argument("--grid-min", type=_FINITE, help="default: true slope - 0.5")
    p_pow.add_argument("--grid-max", type=_FINITE, help="default: true slope + 0.5")
    p_pow.add_argument("--grid-points", type=_GRID_POINTS, help="default: 21")
    p_pow.add_argument("--reps", type=_REPS)
    p_pow.add_argument("--seed", type=int)
    p_pow.add_argument("--out", default="tmgpanel_out")
    p_pow.set_defaults(func=_run_monte_carlo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PanelInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
