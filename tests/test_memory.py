"""Peak memory of the CSV reader and of the time-effects fits.

numpy reports its array buffers to ``tracemalloc``, so a traced peak counts
every array a call holds at once. One panel of 2 x 10^4 units, T = 3 and
k' = 1 is read from a CSV of about 3 MB, which the reader cuts into runs,
and fitted. Each bound sits a little above what the reader and the fits
hold now, and well below what they held while the reader kept the whole
parsed table and the fits kept arrays past their last read (128.8 bytes a
row for the read, 16.1 and 19.4 doubles a cell for ``tmg_te`` and
``hausman_te``).
"""

import io
import tracemalloc

import numpy as np
import pytest

from tmgpanel import PanelBlock, TrimConfig, hausman_te, read_panel_csv, tmg_te
from tmgpanel import panel as panel_module

from test_panel import cores

UNITS, T = 20_000, 3

#: Bytes a data row of the CSV that the reader holds at its peak, beside the
#: CSV's own bytes (81-86 measured, on two cores and in one process).
READ_BYTES_PER_ROW = 96
#: Doubles a (unit, period) cell that each fit holds at its peak, beside the
#: panel's own arrays (12.1 and 12.7 measured).
FIT_DOUBLES_PER_CELL = {"tmg_te": 12.5, "hausman_te": 13.25}


def _csv(units: int, seed: int) -> bytes:
    """A shuffled long-format CSV of ``units`` units and T periods."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10 * units, units, replace=False) + 1)
    x = rng.normal(1.0, 1.0, (units, T)) * np.exp(0.8 * rng.standard_normal((units, 1)))
    y = x * (1.0 + 0.3 * rng.standard_normal((units, 1))) + rng.standard_normal((units, T))
    order = rng.permutation(units * T)
    rows = zip(
        np.repeat(ids, T)[order].tolist(),
        np.tile(np.arange(2001, 2001 + T), units)[order].tolist(),
        y.ravel()[order].tolist(),
        x.ravel()[order].tolist(),
    )
    lines = "".join(f"{u},{t},{a!r},{b!r}\n" for u, t, a, b in rows)
    return ("unit_id,time_id,y,x1\n" + lines).encode()


@pytest.fixture(scope="module")
def data():
    data = _csv(UNITS, seed=5)
    assert len(data) > 2 * panel_module.SPLIT_BYTES
    return data


def _traced_peak(call) -> int:
    """The most bytes ``call()`` held at once, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("processes", [2, 1])
def test_read_holds_under_a_bound_per_row(data, processes):
    # two cores: two forked children parse a run each, and this process
    # merges their ids and assembles; one process: SPLIT_BYTES above the
    # file's size, so this process parses the whole file as one run
    split_bytes = None if processes == 2 else 2 * len(data)
    usage = {}
    with cores(processes, split_bytes):
        read_panel_csv(io.BytesIO(_csv(200, seed=6)))  # first-call costs (imports) before tracing
        peak = _traced_peak(lambda: read_panel_csv(io.BytesIO(data), usage))
    assert usage == {"read_processes": processes}
    assert peak / (UNITS * T) <= READ_BYTES_PER_ROW


@pytest.mark.parametrize("fit", ["tmg_te", "hausman_te"])
def test_time_effects_fit_holds_under_a_bound_per_cell(data, fit):
    panel = read_panel_csv(io.BytesIO(data))
    f = {"tmg_te": tmg_te, "hausman_te": hausman_te}[fit]
    small = read_panel_csv(io.BytesIO(_csv(200, seed=6)))
    f(PanelBlock(y=small.y[None], x=small.x[None]), TrimConfig())  # first-call costs
    peak = _traced_peak(lambda: f(PanelBlock(y=panel.y[None], x=panel.x[None]), TrimConfig()))
    assert peak / 8 / (UNITS * T) < FIT_DOUBLES_PER_CELL[fit]
