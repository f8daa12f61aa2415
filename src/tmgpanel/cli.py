"""Command-line surface: estimate | test | simulate | calibrate | power.

Every run writes a manifest (command, config hash, seed, versions, timings,
output paths). Simulation and calibration outputs are byte-reproducible for
a given scenario and seed, independent of the jobs flag.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalError, PanelInputError, ScenarioError
from .estimators import DEFAULT_ALPHA_GP, fe, gp, mg, tmg
from .hausman import hausman_no_te, hausman_te
from .montecarlo import (
    DgpConfig,
    calibrate_kappa,
    default_power_grid,
    load_scenario,
    run_experiment,
)
from .panel import read_panel_csv
from .timeeffects import fete, gp_te, tmg_te
from .trimming import DEFAULT_ALPHA, TrimConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _normal_two_sided_p(t: float) -> float:
    return math.erfc(abs(t) / math.sqrt(2.0))


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _versions() -> dict:
    return {
        "tmgpanel": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def _write_manifest(out_dir: Path, command: str, params: dict, seed, outputs, elapsed: float):
    manifest = {
        "command": command,
        "config_hash": _config_hash(params),
        "parameters": params,
        "seed": seed,
        "versions": _versions(),
        "timings": {"wall_seconds": elapsed},
        "outputs": [str(p) for p in outputs],
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
_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "at least 1")
_AT_LEAST_2 = _checked(int, lambda v: v >= 2, "at least 2")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _run_estimate(args) -> int:
    t0 = time.perf_counter()
    panel = read_panel_csv(args.csv)
    trim_cfg = TrimConfig(alpha=args.alpha)
    method = args.method
    te = args.te or method in ("fete", "tmgte")
    if te and method == "fe":
        method = "fete"
    if te and method == "tmg":
        method = "tmgte"
    if te and method == "mg":
        raise PanelInputError("method 'mg' has no time-effects variant")

    te_result = None
    if method == "fe":
        est = fe(panel)
    elif method == "mg":
        est = mg(panel)
    elif method == "tmg":
        est = tmg(panel, trim_cfg)
    elif method == "gp" and not te:
        est = gp(panel, args.alpha_gp)
    elif method == "gp":
        est, te_result = gp_te(panel, args.alpha_gp)
    elif method == "fete":
        est, te_result = fete(panel)
    else:
        est, te_result = tmg_te(panel, trim_cfg)

    rows = []
    names = est.coef_names or tuple(f"c{j}" for j in range(np.atleast_1d(est.coef).size))
    for name, c, s in zip(names, np.atleast_1d(est.coef), np.atleast_1d(est.se)):
        t = c / s if s > 0 else math.inf
        rows.append((name, c, s, t, _normal_two_sided_p(t)))
    if te_result is not None:
        for t_idx, (p, s) in enumerate(zip(te_result.phi, te_result.se), start=1):
            tt = p / s if s > 0 else math.inf
            rows.append((f"phi{t_idx}", p, s, tt, _normal_two_sided_p(tt)))

    out = _out_dir(args)
    table_path = out / "estimate.csv"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("coef,estimate,se,t,p\n")
        for name, c, s, t, p in rows:
            fh.write(f"{name},{_fmt(c)},{_fmt(s)},{_fmt(t)},{_fmt(p)}\n")
    outputs = [table_path]

    if args.dump_units and est.per_unit is not None:
        dump_path = out / "per_unit.csv"
        with open(dump_path, "w", encoding="utf-8") as fh:
            fh.write("unit_id," + ",".join(names) + "\n")
            ids = panel.unit_ids
            if est.keep is not None:
                ids = [uid for uid, kept in zip(ids, est.keep) if kept]
            for uid, row in zip(ids, est.per_unit):
                fh.write(str(uid) + "," + ",".join(_fmt(v) for v in row) + "\n")
        outputs.append(dump_path)

    print(f"method={est.method}  n={panel.n}  T={panel.T}  k'={panel.k_prime}")
    header = f"{'coef':>8} {'estimate':>14} {'se':>12} {'t':>9} {'p':>9}"
    print(header)
    for name, c, s, t, p in rows:
        print(f"{name:>8} {c:14.6f} {s:12.6f} {t:9.3f} {p:9.4f}")
    if est.pi_n > 0 or est.method in ("tmg", "tmgte", "gp", "gpte"):
        print(f"trimmed fraction pi_hat = {est.pi_n:.4f}")

    params = {
        "csv": str(args.csv),
        "csv_sha256": _file_sha256(args.csv),
        "method": est.method,
        "alpha": args.alpha,
        "alpha_gp": args.alpha_gp,
        "te": te,
        "pi_n": est.pi_n,
        "n": panel.n,
        "T": panel.T,
    }
    outputs.append(_write_manifest(out, "estimate", params, None, outputs, time.perf_counter() - t0))
    return EXIT_OK


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def _run_test(args) -> int:
    t0 = time.perf_counter()
    panel = read_panel_csv(args.csv)
    trim_cfg = TrimConfig(alpha=args.alpha)
    res = hausman_te(panel, trim_cfg) if args.te else hausman_no_te(panel, trim_cfg)
    out = _out_dir(args)
    path = out / "hausman.json"
    path.write_text(json.dumps(res.to_record(), indent=2) + "\n", encoding="utf-8")
    print(
        f"Hausman [{res.variant}] statistic={res.statistic:.4f} df={res.df} p={res.p_value:.4f}"
    )
    params = {
        "csv": str(args.csv),
        "csv_sha256": _file_sha256(args.csv),
        "alpha": args.alpha,
        "te": args.te,
    }
    _write_manifest(out, "test", params, None, [path], time.perf_counter() - t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / calibrate / power
# ---------------------------------------------------------------------------


def _prepare_scenario(args, need_estimators: bool = True):
    cfg, extras = load_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "reps", None) is not None:
        extras["reps"] = args.reps
    try:
        trim_cfg = TrimConfig(
            alpha=extras.get("trim_alpha", DEFAULT_ALPHA), c_n=extras.get("trim_c_n")
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid trimming settings: {exc}") from None
    alpha_gp = extras.get("alpha_gp", DEFAULT_ALPHA_GP)
    if not isinstance(alpha_gp, (int, float)) or not alpha_gp > 0:
        raise ScenarioError(f"alpha_gp must be a positive number, got {alpha_gp!r}")
    estimators = extras.get("estimators", ["tmg"])
    if need_estimators and not estimators:
        raise PanelInputError("scenario lists no estimators")
    return cfg, extras, trim_cfg, alpha_gp, estimators


def _ensure_kappa(cfg: DgpConfig) -> tuple[DgpConfig, bool]:
    if cfg.kappa2 is not None:
        return cfg, False
    return replace(cfg, kappa2=calibrate_kappa(cfg)), True


def _write_results_csv(path: Path, results) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("estimator,metric,coefficient,value\n")
        for res in results:
            for est_name, metric, coef, value in res.rows():
                fh.write(f"{est_name},{metric},{coef},{_fmt(value)}\n")


def _run_simulate(args) -> int:
    t0 = time.perf_counter()
    cfg, extras, trim_cfg, alpha_gp, estimators = _prepare_scenario(args)
    cfg, calibrated = _ensure_kappa(cfg)
    reps = int(extras.get("reps", 2000))
    results = run_experiment(
        cfg, estimators, reps, trim_cfg=trim_cfg, alpha_gp=alpha_gp, jobs=args.jobs
    )
    out = _out_dir(args)
    path = out / "results.csv"
    _write_results_csv(path, results)
    for res in results:
        if res.estimator in ("hausman", "hausman_te"):
            print(f"{res.estimator}: rejection_rate={res.size[0]:.4f} reps={res.reps}")
        else:
            print(
                f"{res.estimator}: bias={res.bias[0]:+.4f} rmse={res.rmse[0]:.4f} "
                f"size={res.size[0]:.4f} pi_hat={res.pi_hat:.4f} reps={res.reps}"
            )
    params = {
        "scenario": cfg.to_dict(),
        "estimators": list(estimators),
        "reps": reps,
        "trim_alpha": trim_cfg.alpha,
        "alpha_gp": alpha_gp,
        "kappa2_calibrated": calibrated,
    }
    _write_manifest(out, "simulate", params, cfg.seed, [path], time.perf_counter() - t0)
    return EXIT_OK


def _run_calibrate(args) -> int:
    t0 = time.perf_counter()
    cfg, extras, _, _, _ = _prepare_scenario(args, need_estimators=False)
    r_kappa = int(extras.get("reps", 1000))
    kappa2 = calibrate_kappa(cfg, r_kappa=r_kappa, n_cal=args.n_cal)
    out = _out_dir(args)
    path = out / "kappa2.json"
    record = {
        "kappa2": kappa2,
        "T": cfg.T,
        "pr2": cfg.pr2,
        "r_kappa": r_kappa,
        "n_cal": args.n_cal,
        "seed": cfg.seed,
    }
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"kappa2(T={cfg.T}) = {kappa2:.6f}")
    params = {"scenario": cfg.to_dict(), "r_kappa": r_kappa, "n_cal": args.n_cal}
    _write_manifest(out, "calibrate", params, cfg.seed, [path], time.perf_counter() - t0)
    return EXIT_OK


def _run_power(args) -> int:
    t0 = time.perf_counter()
    cfg, extras, trim_cfg, alpha_gp, estimators = _prepare_scenario(args)
    cfg, calibrated = _ensure_kappa(cfg)
    reps = int(extras.get("reps", 2000))
    if extras.get("beta0_grid") is not None:
        grid = np.asarray(extras["beta0_grid"], dtype=np.float64)
    elif args.grid_min is not None or args.grid_max is not None:
        beta0 = cfg.theta0[1]
        lo = beta0 - 0.5 if args.grid_min is None else args.grid_min
        hi = beta0 + 0.5 if args.grid_max is None else args.grid_max
        grid = np.linspace(lo, hi, args.grid_points)
    else:
        grid = default_power_grid(cfg.theta0[1], points=args.grid_points)
    results = run_experiment(
        cfg,
        estimators,
        reps,
        beta0_grid=grid,
        trim_cfg=trim_cfg,
        alpha_gp=alpha_gp,
        jobs=args.jobs,
    )
    out = _out_dir(args)
    path = out / "power.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("estimator,b0,rejection_rate,mc_se\n")
        for res in results:
            if res.power_curve is None:
                continue
            for b0, rate, mc_se in res.power_curve:
                fh.write(f"{res.estimator},{_fmt(b0)},{_fmt(rate)},{_fmt(mc_se)}\n")
    params = {
        "scenario": cfg.to_dict(),
        "estimators": list(estimators),
        "reps": reps,
        "grid": [float(g) for g in grid],
        "trim_alpha": trim_cfg.alpha,
        "alpha_gp": alpha_gp,
        "kappa2_calibrated": calibrated,
    }
    _write_manifest(out, "power", params, cfg.seed, [path], time.perf_counter() - t0)
    print(f"wrote power curve over {grid.size} grid points to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmgpanel",
        description="Average-effect estimation in short-T heterogeneous panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate average effects from a CSV panel")
    p_est.add_argument("csv")
    p_est.add_argument(
        "--method", choices=["fe", "mg", "tmg", "gp", "fete", "tmgte"], default="tmg"
    )
    p_est.add_argument("--alpha", type=_ALPHA, default=DEFAULT_ALPHA)
    p_est.add_argument("--alpha-gp", type=_POSITIVE, default=DEFAULT_ALPHA_GP)
    p_est.add_argument("--te", action="store_true", help="include common time effects")
    p_est.add_argument("--dump-units", action="store_true", help="write per-unit estimates")
    p_est.add_argument("--out", default="tmgpanel_out")
    p_est.set_defaults(func=_run_estimate)

    p_test = sub.add_parser("test", help="Hausman test of correlated heterogeneity")
    p_test.add_argument("csv")
    p_test.add_argument("--alpha", type=_ALPHA, default=DEFAULT_ALPHA)
    p_test.add_argument("--te", action="store_true")
    p_test.add_argument("--out", default="tmgpanel_out")
    p_test.set_defaults(func=_run_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--jobs", type=_AT_LEAST_1, default=1)
    p_sim.add_argument("--out", default="tmgpanel_out")
    p_sim.set_defaults(func=_run_simulate)

    p_cal = sub.add_parser("calibrate", help="calibrate the outcome noise scale")
    p_cal.add_argument("scenario")
    p_cal.add_argument("--reps", type=int, help="calibration replications (default 1000)")
    p_cal.add_argument("--n-cal", type=_AT_LEAST_2, default=5000)
    p_cal.add_argument("--seed", type=int)
    p_cal.add_argument("--out", default="tmgpanel_out")
    p_cal.set_defaults(func=_run_calibrate)

    p_pow = sub.add_parser("power", help="rejection-rate curve over a slope grid")
    p_pow.add_argument("scenario")
    p_pow.add_argument(
        "--grid-min", type=float, help="default: true slope - 0.5"
    )
    p_pow.add_argument(
        "--grid-max", type=float, help="default: true slope + 0.5"
    )
    p_pow.add_argument("--grid-points", type=_AT_LEAST_1, default=21)
    p_pow.add_argument("--reps", type=int)
    p_pow.add_argument("--seed", type=int)
    p_pow.add_argument("--jobs", type=_AT_LEAST_1, default=1)
    p_pow.add_argument("--out", default="tmgpanel_out")
    p_pow.set_defaults(func=_run_power)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PanelInputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
