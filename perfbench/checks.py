"""Correctness checks made apart from the measured process.

Each check raises ``CheckFailed`` with a message; run.py turns that into a
failed run. The reference numbers come from ``oracle.py``, which shares no
code with the package, and the paper values are those of
tests/test_acceptance.py.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle
from workloads import ALPHA_GP, CLI_TIME_IDS, MC_CELLS, MC_N, MC_RHO, TRIM_ALPHA, block_seed

RTOL = 1e-8


class CheckFailed(Exception):
    pass


def _close(label, got, want, rtol=RTOL, atol=0.0):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.allclose(got, want, rtol=rtol, atol=atol, equal_nan=True):
        raise CheckFailed(f"{label}: got {got.tolist()[:6]}, reference {want.tolist()[:6]}")


# ---------------------------------------------------------------------------
# Monte Carlo cells
# ---------------------------------------------------------------------------


def _truth(tag, T):
    # slope 1; the DGP's period effects are phi_t = t for t < T
    if tag in ("fete", "tmgte", "gpte"):
        return np.array([1.0] + [float(t) for t in range(1, T)])
    return np.array([1.0])


def _rate_bounds(values, crit, band):
    """Share of ``values`` above ``crit`` as a [low, high] range: values within
    ``band`` of the critical value may fall either way in floating point."""
    values = np.asarray(values)
    sure = (values > crit + band).sum(axis=0)
    tie = (np.abs(values - crit) <= band).sum(axis=0)
    m = values.shape[0]
    return sure / m, (sure + tie) / m


def check_mc_block(workload, run_seed, record):
    """Recompute every tag of one block with the oracle and rebuild the block's
    aggregates; compare them with what run_experiment reported."""
    from tmgpanel import DgpConfig, generate_replication

    spec = MC_CELLS[workload]
    T, reps = spec["T"], spec["block_reps"]
    cfg = DgpConfig(
        n=MC_N, T=T, rho_alpha=MC_RHO, rho_beta=MC_RHO, kappa2=spec["kappa2"],
        time_effects=spec["time_effects"], seed=block_seed(run_seed, record["block"]),
    )
    per_tag = {tag: [] for tag in spec["tags"]}
    for r in range(reps):
        panel, _ = generate_replication(cfg, r)
        for tag in spec["tags"]:
            per_tag[tag].append(
                oracle.replication_record(tag, panel.y, panel.x, TRIM_ALPHA, ALPHA_GP)
            )
    reported = {res["tag"]: res for res in record["results"]}
    for tag, recs in per_tag.items():
        got = reported[tag]
        ok = [rec for rec in recs if rec is not None]
        label = f"{workload} block {record['block']} {tag}"
        if got["reps"] != len(ok) or got["failures"] != reps - len(ok):
            raise CheckFailed(
                f"{label}: {got['reps']} ok / {got['failures']} failed, reference "
                f"{len(ok)} / {reps - len(ok)}"
            )
        if not ok:
            continue
        est = np.array([rec[0] for rec in ok])
        se = np.array([rec[1] for rec in ok])
        pi = np.array([rec[2] for rec in ok])
        allow_est = np.array([rec[3][0] for rec in ok])
        allow_se = np.array([rec[3][1] for rec in ok])
        m = len(ok)
        if tag.startswith("hausman"):
            # the se column carries the p-value; rejection is p < 0.05
            lo, hi = _rate_bounds(-se[:, 0], -0.05, 0.05e-9)
            if not lo <= got["size"][0] <= hi:
                raise CheckFailed(f"{label}: rejection rate {got['size'][0]} outside [{lo}, {hi}]")
            continue
        err = est - _truth(tag, T)
        atol = 1e-12 * (np.abs(err).max(axis=0) + 1.0) + allow_est.max()
        _close(f"{label} bias", got["bias"], err.mean(axis=0), atol=atol)
        _close(f"{label} rmse", got["rmse"], np.sqrt((err**2).mean(axis=0)), atol=atol)
        if m > 1:
            _close(
                f"{label} mc_se_bias", got["mc_se_bias"],
                est.std(axis=0, ddof=1) / math.sqrt(m), atol=atol,
            )
        _close(f"{label} pi_hat", got["pi_hat"], pi.mean(), atol=1e-12)
        t = np.abs(err) / se
        band = oracle.CRIT_5PCT * 1e-9 + (allow_est + t.max(axis=1) * allow_se)[:, None] / se
        lo, hi = _rate_bounds(t, oracle.CRIT_5PCT, band)
        size = np.asarray(got["size"])
        if np.any(size < lo) or np.any(size > hi):
            raise CheckFailed(f"{label}: size {size.tolist()} outside [{lo.tolist()}, {hi.tolist()}]")


def pooled_bias(records, tag):
    """Bias of ``tag`` over every block, and its Monte Carlo standard error."""
    biases, weights = [], []
    for rec in records:
        for res in rec["results"]:
            if res["tag"] == tag and res["reps"] > 0:
                biases.append(res["bias"])
                weights.append(res["reps"])
    b = np.array(biases)
    w = np.array(weights, dtype=np.float64)
    mean = (b * w[:, None]).sum(axis=0) / w.sum()
    se = b.std(axis=0, ddof=1) / math.sqrt(len(b)) if len(b) > 1 else np.full(b.shape[1], np.inf)
    return mean, se


def _near(label, value, ref, tol, se):
    allowed = tol + 4.0 * se
    if not abs(value - ref) <= allowed:
        raise CheckFailed(f"{label}: {value:.4f}, expected {ref} +- {allowed:.4f}")
    return f"{label} {value:.4f} (expected {ref} +- {allowed:.4f})"


def check_mc_properties(workload, records):
    """Method properties over the whole run, within Monte Carlo error of the
    paper values used by tests/test_acceptance.py."""
    lines = []
    if workload == "mc_t2":
        for tag, ref, tol in (("fe", 0.444, 0.02), ("tmg", 0.048, 0.015)):
            b, se = pooled_bias(records, tag)
            lines.append(_near(f"{tag} slope bias", b[0], ref, tol, se[0]))
    else:
        for tag in ("fete", "tmgte", "gpte"):
            b, se = pooled_bias(records, tag)
            for j in range(1, b.size):
                lines.append(_near(f"{tag} phi{j} bias", b[j], 0.0, 0.01, se[j]))
        fete_b, _ = pooled_bias(records, "fete")
        tmgte_b, _ = pooled_bias(records, "tmgte")
        if not abs(tmgte_b[0]) < 0.5 * fete_b[0]:
            raise CheckFailed(
                f"TMG-TE slope bias {tmgte_b[0]:.4f} is not below half the FE-TE bias "
                f"{fete_b[0]:.4f}"
            )
        lines.append(f"tmgte slope bias {tmgte_b[0]:.4f} < fete/2 {fete_b[0] / 2:.4f}")
    return lines


def check_mc_repeat(first, repeat):
    if first["rows"] != repeat["rows"]:
        raise CheckFailed(f"block {first['block']} re-run gave different results")


# ---------------------------------------------------------------------------
# CLI session
# ---------------------------------------------------------------------------


def check_round_trip(csv_path, panel):
    """read_panel_csv gives back exactly the generated panel, in unit-id order."""
    from tmgpanel import read_panel_csv

    got = read_panel_csv(csv_path)
    if got.unit_ids != tuple(str(u) for u in panel.unit_ids.tolist()):
        raise CheckFailed("CSV round trip: unit ids or their order differ")
    if got.time_ids != tuple(str(t) for t in CLI_TIME_IDS):
        raise CheckFailed(f"CSV round trip: time ids {got.time_ids}")
    if not (np.array_equal(got.y, panel.y) and np.array_equal(got.x, panel.x)):
        raise CheckFailed("CSV round trip: values differ")


def _read_table(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def check_cli_outputs(out_dir, panel):
    """estimate.csv, per_unit.csv and hausman.json against the oracle."""
    out = Path(out_dir)
    y, x = panel.y, panel.x
    coef, cov, phi, cov_phi, _, tilde = oracle.tmg_te(y, x, TRIM_ALPHA)
    header, rows = _read_table(out / "estimate.csv")
    names = ["alpha", "beta1"] + [f"phi{t}" for t in range(1, y.shape[1] + 1)]
    if header != ["coef", "estimate", "se", "t", "p"] or [r[0] for r in rows] != names:
        raise CheckFailed(f"estimate.csv layout: {header}, {[r[0] for r in rows]}")
    vals = np.array([[float(v) for v in r[1:]] for r in rows])
    est = np.concatenate([coef, phi])
    se = np.concatenate([np.sqrt(np.diag(cov)), np.sqrt(np.abs(np.diag(cov_phi)))])
    _close("estimate.csv estimate", vals[:, 0], est, atol=1e-12)
    _close("estimate.csv se", vals[:, 1], se)
    _close("estimate.csv t", vals[:, 2], est / se, atol=1e-9)
    p = [math.erfc(abs(t) / math.sqrt(2.0)) for t in est / se]
    _close("estimate.csv p", vals[:, 3], p, rtol=1e-6, atol=1e-12)

    header, rows = _read_table(out / "per_unit.csv")
    if header != ["unit_id", "alpha", "beta1"] or len(rows) != y.shape[0]:
        raise CheckFailed(f"per_unit.csv: header {header}, {len(rows)} rows for {y.shape[0]} units")
    ids = [r[0] for r in rows]
    if ids != [str(u) for u in panel.unit_ids.tolist()]:
        raise CheckFailed("per_unit.csv: unit ids are not one row per unit id in panel order")
    got = np.array([[float(v) for v in r[1:]] for r in rows])
    _close("per_unit.csv estimates", got, tilde, rtol=1e-7, atol=1e-9 * np.abs(tilde).max())

    rec = json.loads((out / "hausman.json").read_text(encoding="utf-8"))
    stat, p = oracle.hausman_te(y, x, TRIM_ALPHA)
    if rec["variant"] != "te_tgtk" or rec["df"] != x.shape[2]:
        raise CheckFailed(f"hausman.json: variant {rec['variant']}, df {rec['df']}")
    _close("hausman.json statistic", rec["statistic"], stat)
    _close("hausman.json p_value", rec["p_value"], p, rtol=1e-6, atol=1e-12)
    return f"TMG-TE beta1 {coef[1]:.4f}, Hausman-TE {stat:.2f} (p {p:.3g})"


def check_cli_repeat(first_dir, repeat_dir):
    for name in ("estimate.csv", "per_unit.csv", "hausman.json"):
        if (Path(first_dir) / name).read_bytes() != (Path(repeat_dir) / name).read_bytes():
            raise CheckFailed(f"re-run of the first block wrote a different {name}")
