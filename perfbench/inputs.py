"""Seeded generator of the long-format CSV panels for the CLI workload.

Runs in the harness, never in the measured process. The panel has correlated
slope heterogeneity (slopes move with the regressor's spread, so trimming and
the Hausman test have work to do), common time effects, numeric unit ids in
random order and shuffled rows. Values are written with ``repr`` so that the
file parses back to the same doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from workloads import CLI_PHI, CLI_T, CLI_TIME_IDS, CLI_UNITS


@dataclass(frozen=True)
class CsvPanel:
    """The generated panel in unit-id order: ids (n,), y (n, T), x (n, T, 1)."""

    unit_ids: np.ndarray
    y: np.ndarray
    x: np.ndarray


def make_panel(run_seed: int, index: int, n: int = CLI_UNITS) -> CsvPanel:
    rng = np.random.default_rng([int(run_seed), int(index)])
    z = rng.standard_normal(n)
    spread = np.exp(0.8 * z)  # log-normal spread: a tail of near-singular units
    mu = rng.normal(1.0, 1.0, n)
    x = mu[:, None] + spread[:, None] * rng.standard_normal((n, CLI_T))
    beta = 1.0 + 0.025 * z + 0.3 * rng.standard_normal(n)
    alpha = 0.5 * mu + rng.standard_normal(n)
    y = alpha[:, None] + np.asarray(CLI_PHI) + beta[:, None] * x
    y = y + rng.standard_normal((n, CLI_T))
    ids = np.sort(rng.choice(10 * n, size=n, replace=False) + 1)
    return CsvPanel(unit_ids=ids, y=y, x=x[:, :, None])


def write_csv(path, panel: CsvPanel, run_seed: int, index: int) -> int:
    """Write the panel as shuffled long-format rows; returns the row count."""
    n, T = panel.y.shape
    rng = np.random.default_rng([int(run_seed), int(index), 1])
    order = rng.permutation(n * T)
    units = np.repeat(panel.unit_ids, T)[order].tolist()
    times = np.tile(np.asarray(CLI_TIME_IDS), n)[order].tolist()
    ys = panel.y.ravel()[order].tolist()
    xs = panel.x[:, :, 0].ravel()[order].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("unit_id,time_id,y,x1\n")
        fh.write("".join(f"{u},{t},{a!r},{b!r}\n" for u, t, a, b in zip(units, times, ys, xs)))
    return n * T
