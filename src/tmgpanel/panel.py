"""Balanced-panel data model and long-format ingestion.

A panel is strictly balanced: every unit is observed at every period.
Unbalanced input is rejected rather than silently dropped, because every
downstream formula assumes a common T.

Ingestion is columnar. ``read_panel_csv`` parses the file once, with numpy's
C reader, into two fixed-width byte id columns and a value matrix
(y, x1..xk'), and factorises each id column on its bytes, read as big-endian
64-bit words, so only the distinct ids become Python strings. The distinct
ids leave that factorisation in byte order, which for UTF-8 is ``str`` order,
and an id of 1 to 15 ASCII digits is valued from its bytes (exactly, so the
value is the one ``float()`` gives); an id holding an ASCII letter that
``float()`` never accepts is text, and only the other ids go through
``float()``. ``load_panel`` factorises its records' ids with a dict and sorts
the distinct ids by ``str`` once. One assembler orders the distinct ids,
checks duplicates and balance with ``np.bincount`` over the cell index and
scatters the values into the (n, T) and (n, T, k') arrays.

A UTF-8 byte-order mark at the start of a CSV (Excel's "CSV UTF-8") is
skipped.

A large CSV is parsed on every core the process may run on: forked children
(:func:`_forked`) each parse a run of whole lines, and the parent reads their
rows into the one table (:func:`_split_loadtxt`).

An id column is parsed at 16 bytes per id. If any id fills that width it may
have been cut short, so that column alone is parsed again at four times the
width until no id fills it: ids are never truncated. A fixed-width byte
field cannot hold a trailing NUL, so a NUL byte anywhere in a CSV is an input
error naming its line.

Units and periods follow one total order on ids. An id that ``float()``
parses to a number other than NaN is numeric and sorts first, by that value;
every other id (NaN-valued ones included) follows. Ties -- ``1``, ``01`` and
``1.0``, or any two non-numeric ids -- are broken by ``str(id)``. Ids are kept
verbatim, so `` 1`` and ``1`` are two units.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import os
import re
import select
import signal
import sys
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateCellError,
    NonFiniteValueError,
    PanelInputError,
    TooFewPeriodsError,
    UnbalancedPanelError,
)


def within(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """De-mean an array along a time axis.

    Fewer than eight periods are summed one period at a time, which is the
    order of numpy's own sum below eight terms (its pairwise sum unrolls by
    eight), so the mean is the same bits in a third of the time.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[axis] >= 8:
        return v - v.mean(axis=axis, keepdims=True)
    periods = np.moveaxis(v, axis, 0)
    total = periods[0]
    for p in periods[1:]:
        total = total + p
    return v - np.expand_dims(total / len(periods), axis)


class _PanelShape:
    """Shape accessors shared by one panel and a block of panels: the unit,
    period and regressor axes are the last ones, after any leading axes."""

    @property
    def lead(self) -> tuple:
        """Leading shape: () for one panel, (B,) for a block of B replications."""
        return self.y.shape[:-2]

    @property
    def n(self) -> int:
        return self.y.shape[-2]

    @property
    def T(self) -> int:
        return self.y.shape[-1]

    @property
    def k_prime(self) -> int:
        return self.x.shape[-1]

    @property
    def k(self) -> int:
        return self.k_prime + 1

    # de-meaned regressors and outcomes, computed once and shared by the
    # estimators, projectors and tests that use them

    @cached_property
    def xd(self) -> np.ndarray:
        """M_T X_i: regressors de-meaned over time, (..., n, T, k')."""
        return within(self.x, axis=-2)

    @cached_property
    def yd(self) -> np.ndarray:
        """M_T y_i: outcomes de-meaned over time, (..., n, T)."""
        return within(self.y, axis=-1)

    @cached_property
    def xc(self) -> np.ndarray:
        """X_i - Xbar: regressors less their cross-section mean, (..., n, T, k')."""
        return self.x - self.x.mean(axis=-3, keepdims=True)

    @cached_property
    def xcd(self) -> np.ndarray:
        """M_T (X_i - Xbar): the two-way de-meaned regressors."""
        return within(self.xc, axis=-2)

    def design_tensor(self) -> np.ndarray:
        """Per-unit W_i = (1, X_i) stacked into an (..., n, T, k) array."""
        W = np.empty(self.y.shape + (self.k,))
        W[..., 0] = 1.0
        W[..., 1:] = self.x
        return W


@dataclass(frozen=True)
class BalancedPanel(_PanelShape):
    """n x T outcomes and n x T x k' regressors with unit/time labels.

    Arrays are row-major, sorted by (unit, time), and frozen after
    construction; all operations on a panel are pure.
    """

    y: np.ndarray
    x: np.ndarray
    unit_ids: tuple
    time_ids: tuple

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        if x.ndim == 2:
            x = x[:, :, None]
        if y.ndim != 2 or x.ndim != 3 or x.shape[:2] != y.shape:
            raise PanelInputError(
                f"shape mismatch: y {y.shape}, x {x.shape} (want (n,T) and (n,T,k'))"
            )
        n, T = y.shape
        k_prime = x.shape[2]
        if n < 2:
            raise PanelInputError(f"need at least 2 units, got {n}")
        if T < k_prime + 1:
            raise TooFewPeriodsError(f"T={T} < k'+1={k_prime + 1}")
        if not (np.isfinite(y).all() and np.isfinite(x).all()):
            raise NonFiniteValueError("panel contains NaN or infinite values")
        if len(self.unit_ids) != n or len(self.time_ids) != T:
            raise PanelInputError("label lengths do not match array dimensions")
        y.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "unit_ids", tuple(self.unit_ids))
        object.__setattr__(self, "time_ids", tuple(self.time_ids))


@dataclass(frozen=True)
class PanelBlock(_PanelShape):
    """B panels of one shape stacked on a leading replication axis: outcomes
    (B, n, T) and regressors (B, n, T, k'). Every estimator fits the
    replications of a block at once, each one failing alone; a single panel
    is fitted as its block of one.

    A block caches its own fits (:meth:`fit`), so that the estimators and
    tests sharing a design, projectors or a fit compute each once per block."""

    y: np.ndarray
    x: np.ndarray

    @cached_property
    def design(self):
        """The block's PanelDesign, built on first use and shared by its fits."""
        from .designs import PanelDesign  # designs imports this module

        return PanelDesign(self)

    @cached_property
    def _fits(self) -> dict:
        return {}

    def fit(self, f, *args):
        """``f(self, *args)``, computed once per block and per ``(f, *args)``.
        The key is the function object itself, so a fit rebound by name (as
        a tracing wrapper is) is cached apart from the original. A fit that
        raises is not cached."""
        key = (f, *args)
        if key not in self._fits:
            self._fits[key] = f(self, *args)
        return self._fits[key]


def _factorise(column) -> tuple[list, np.ndarray, np.ndarray]:
    """Distinct ids in ``str`` order (equal strings in order of first
    appearance), each row's index into them, and each id's numeric value."""
    index: dict = {}
    codes = np.asarray([index.setdefault(v, len(index)) for v in column], dtype=np.intp)
    seen = list(index)
    text = [str(v) for v in seen]
    order = sorted(range(len(seen)), key=text.__getitem__)
    ids = [seen[i] for i in order]
    value = np.fromiter(map(_numeric_value, ids), dtype=np.float64, count=len(ids))
    return ids, _ranks(np.asarray(order, dtype=np.intp))[codes], value


def _id_bytes(column: np.ndarray) -> np.ndarray:
    """A fixed-width bytes column, or a field of a structured table, as a
    (rows, width) uint8 view of the same memory."""
    return column[:, None].view(np.uint8)


# ids of at most this many ASCII digits are below 10**15 < 2**53: their value
# is an exact integer, the double ``float()`` gives
_DIGITS = 15


def _digit_values(raw: np.ndarray) -> np.ndarray:
    """The value of each row of a (rows, width) matrix of NUL-padded ids that
    is 1 to ``_DIGITS`` ASCII digits, and NaN for every other row."""
    head = np.ascontiguousarray(raw[:, :_DIGITS].T)  # one row per byte position
    digit = head - np.uint8(ord("0"))  # a byte below "0" wraps above 9
    is_digit = digit < 10
    length = np.count_nonzero(head, axis=0)
    plain = (length > 0) & (np.count_nonzero(is_digit, axis=0) == length)
    if raw.shape[1] > _DIGITS:
        plain &= raw[:, _DIGITS] == 0
    # the digits read left-aligned in the head, then shifted right; every
    # partial sum and the quotient are integers below 2**53, so exact
    shifted = np.zeros(head.shape[1])
    for row in np.where(is_digit, digit, 0):
        shifted = 10.0 * shifted + row
    return np.where(plain, shifted / 10.0 ** (head.shape[0] - length), np.nan)


def _factorise_bytes(raw: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """Distinct ids of a (rows, width) matrix of NUL-padded UTF-8 ids without
    NUL bytes of their own, each row's index into them, and each id's numeric
    value.

    Each id's bytes, zero-padded to whole 8-byte words, are read as big-endian
    ``uint64`` words; two ids are equal exactly when their words are, and the
    distinct ids come out in byte order, which for UTF-8 is ``str`` order.
    Only the distinct ids are decoded, and only those that are neither plain
    digits nor :func:`_never_float` are passed to ``float()``.
    """
    used = [j for j, word in enumerate(raw.view(np.uint64).T) if word.any()]
    # the used words, read big-endian and converted to native order, which sorts faster
    words = raw[:, : 8 * (used[-1] + 1 if used else 1)].view(">u8").astype(np.uint64)
    if words.shape[1] == 1:
        distinct, codes = np.unique(words[:, 0], return_inverse=True)
    else:
        order = np.lexsort(words.T[::-1])
        ranked = words[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        codes = np.empty(order.size, dtype=np.intp)
        codes[order] = np.cumsum(new) - 1
        distinct = ranked[new]
    distinct = distinct.reshape(distinct.shape[0], -1).astype(">u8")
    # ids hold no NUL, so NUL joins them and splits the one decoded text
    text = b"\0".join(distinct.view(f"S{8 * distinct.shape[1]}").ravel().tolist())
    ids = text.decode("utf-8").split("\0")
    id_bytes = distinct.view(np.uint8)
    value = _digit_values(id_bytes)
    others = np.flatnonzero(np.isnan(value))
    others = others[~_never_float(id_bytes[others])]
    value[others] = [_numeric_value(ids[i]) for i in others.tolist()]
    return ids, codes, value


# The bytes of the ASCII letters float() never accepts: it accepts only those
# of "e", "inf", "infinity" and "nan", in any case. In UTF-8 a byte of an
# ASCII letter is that letter.
_NOT_FLOAT_BYTE = np.zeros(256, dtype=bool)
_NOT_FLOAT_BYTE[[
    b for b in range(128) if chr(b).isalpha() and chr(b).lower() not in "aefinty"
]] = True


def _never_float(raw: np.ndarray) -> np.ndarray:
    """Rows of a (rows, width) matrix of UTF-8 ids that ``float()`` surely
    rejects: those holding an ASCII letter it never accepts, as ``u`` in
    ``u0012345678``. The other rows may still be text."""
    return _NOT_FLOAT_BYTE[raw].any(axis=1)


def _numeric_value(v) -> float:
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        return np.nan


def _ranks(order: np.ndarray) -> np.ndarray:
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    return rank


def _sort_ids(ids: list, value: np.ndarray) -> tuple[list, np.ndarray]:
    """``ids``, given in ``str`` order with their numeric values, in the id
    order of the module docstring, and each id's rank in it."""
    is_text = np.isnan(value)
    # a stable sort: ids of one value, and the text ids, stay in str order
    order = np.lexsort((np.where(is_text, 0.0, value), is_text))
    return [ids[i] for i in order.tolist()], _ranks(order)


def _assemble(units, times, values: np.ndarray, label) -> BalancedPanel:
    """Build the panel from long-format columns.

    ``units`` and ``times`` are factorised id columns: (distinct ids in
    ``str`` order, each row's index into them, each id's numeric value).
    ``values`` is the (rows, 1 + k') matrix of y, x1..xk'. ``label(r)`` names
    row ``r`` in the non-finite error ("line 7" for a CSV, "record 3" for
    records).
    """
    (unit_seen, unit_code, unit_value), (time_seen, time_code, time_value) = units, times
    unit_ids, unit_rank = _sort_ids(unit_seen, unit_value)
    time_ids, time_rank = _sort_ids(time_seen, time_value)
    n, T = len(unit_ids), len(time_ids)
    cell = unit_rank[unit_code] * T + time_rank[time_code]
    counts = np.bincount(cell, minlength=n * T)
    if counts.max() > 1:
        repeat = np.ones(cell.size, dtype=bool)
        repeat[np.unique(cell, return_index=True)[1]] = False
        r = int(np.flatnonzero(repeat)[0])
        unit, time = unit_seen[unit_code[r]], time_seen[time_code[r]]
        raise DuplicateCellError(f"duplicate cell (unit={unit!r}, time={time!r})")
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        examples = [(unit_ids[c // T], time_ids[c % T]) for c in missing[:5].tolist()]
        raise UnbalancedPanelError(f"{missing.size} missing cells, e.g. {examples}")
    y = np.empty(n * T)
    y[cell] = values[:, 0]
    x = np.empty((n * T, values.shape[1] - 1))
    x[cell] = values[:, 1:]
    try:
        return BalancedPanel(
            y=y.reshape(n, T), x=x.reshape(n, T, -1), unit_ids=unit_ids, time_ids=time_ids
        )
    except NonFiniteValueError:
        bad = ~np.isfinite(values)
        r = int(np.flatnonzero(bad.any(axis=1))[0])
        j = int(np.flatnonzero(bad[r])[0])
        column = "y" if j == 0 else f"x{j}"
        raise NonFiniteValueError(
            f"{label(r)}: NaN or infinite value in column {column}"
        ) from None


def load_panel(rows: Iterable[Mapping | Sequence]) -> BalancedPanel:
    """Assemble a BalancedPanel from long-format records.

    Each record is either a mapping with keys ``unit_id``, ``time_id``, ``y``,
    ``x1`` .. ``xk'`` or a flat sequence in that order; the first record sets
    the kind for all of them. Rows may arrive in any order; the panel is
    sorted by (unit, time) in the id order of the module docstring.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise PanelInputError("empty input")
    if isinstance(first, Mapping):
        k_prime = sum(1 for key in first if str(key).startswith("x"))
        if k_prime == 0:
            raise PanelInputError("no regressor columns x1..xk' found")
        names = ("unit_id", "time_id", "y", *(f"x{j + 1}" for j in range(k_prime)))
        table = list(_fields(chain([first], rows), names))
    else:
        table = list(map(tuple, chain([first], rows)))
        width = len(table[0])
        for row in table:
            if len(row) < 4:
                raise PanelInputError(f"row too short: {list(row)!r}")
            if len(row) != width:
                raise PanelInputError("inconsistent regressor count across rows")
    columns = list(zip(*table))
    try:
        values = np.array(columns[2:], dtype=np.float64).T
    except (TypeError, ValueError) as exc:
        raise _first_bad_value(table) or PanelInputError(
            f"could not read values: {exc}"
        ) from None
    return _assemble(
        _factorise(columns[0]), _factorise(columns[1]), values, lambda r: f"record {r + 1}"
    )


def _fields(records: Iterable[Mapping], names: tuple):
    """The values of ``names`` in each mapping record, as a tuple."""
    fields = itemgetter(*names)
    for r, record in enumerate(records):
        try:
            yield fields(record)
        except KeyError as exc:
            raise PanelInputError(f"record {r + 1}: missing field {exc.args[0]!r}") from None


def _first_bad_value(table: list) -> PanelInputError | None:
    """The error of the first record holding a y or x value that is not a
    number; error paths only."""
    for r, row in enumerate(table):
        try:
            for v in row[2:]:
                float(v)
        except (TypeError, ValueError) as exc:
            return PanelInputError(f"record {r + 1}: {exc}")
    return None


CSV_HEADER_PREFIX = ("unit_id", "time_id", "y")

_CONTENT = re.compile(rb"[^\r\n]")

# bytes per id in the first parse: numeric ids and ISO dates fit. It and every
# re-read width (x4) are whole 8-byte words, as ``_factorise_bytes`` reads them.
_ID_WIDTH = 16


def read_panel_csv(path_or_buf, usage: dict | None = None) -> BalancedPanel:
    """Read a long-format CSV with header ``unit_id,time_id,y,x1[,x2,...]``.

    ``path_or_buf`` is a path or an open file, text or binary, holding UTF-8
    text. Fields are comma-separated and may be quoted with ``"`` (a doubled
    ``""`` inside quotes is one quote); blank lines are skipped; lines end
    with LF or CRLF.

    ``usage``, if given, receives ``read_processes``: 1 for a parse in this
    process, else the number of forked children that parsed the rows.
    """
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "rb") as fh:
            data = fh.read()
    else:
        data = path_or_buf.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    try:
        return _parse_csv(data, usage)
    except UnicodeDecodeError as exc:
        raise PanelInputError(f"CSV is not UTF-8 text: {exc}") from None
    except csv.Error as exc:  # e.g. lines that end in a lone CR
        raise PanelInputError(f"malformed CSV: {exc}") from None


def _parse_csv(data: bytes, usage: dict | None) -> BalancedPanel:
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8) :]
    if not data:
        raise PanelInputError("empty CSV")
    end = data.find(b"\n")
    first_line = data if end < 0 else data[:end]
    header = [h.strip() for h in next(csv.reader([first_line.decode("utf-8")]), [])]
    if tuple(header[:3]) != CSV_HEADER_PREFIX or len(header) < 4:
        raise PanelInputError(
            f"expected header unit_id,time_id,y,x1[,x2,...], got {header!r}"
        )
    expected_x = [f"x{j + 1}" for j in range(len(header) - 3)]
    if header[3:] != expected_x:
        raise PanelInputError(f"regressor columns must be {expected_x}, got {header[3:]!r}")
    if end < 0 or not _CONTENT.search(data, end):
        raise PanelInputError("empty input")

    if not data.isascii():
        data.decode("utf-8")  # a UnicodeDecodeError names the offending byte
    nul = data.find(b"\0")
    if nul >= 0:
        lineno = data.count(b"\n", 0, nul) + 1
        raise PanelInputError(f"line {lineno}: NUL byte")

    # Without usecols, loadtxt checks every row's field count against the dtype.
    dtype = np.dtype(
        [
            ("unit_id", f"S{_ID_WIDTH}"),
            ("time_id", f"S{_ID_WIDTH}"),
            ("values", np.float64, (len(header) - 2,)),
        ]
    )
    runs = _runs(data, end + 1)
    table = _split_loadtxt(data, dtype, runs) if runs else None
    if usage is not None:
        usage["read_processes"] = 1 if table is None else len(runs)
    try:
        if table is None:  # a failed child leaves every error to this parse
            table = _loadtxt(data, dtype)
    except ValueError as exc:
        raise _first_bad_record(data, len(header)) or PanelInputError(
            f"could not parse CSV: {exc}"
        ) from None
    ids = []
    for j, name in enumerate(("unit_id", "time_id")):
        raw, width = _id_bytes(table[name]), _ID_WIDTH
        while raw[:, -1].any():  # an id fills the width, so it may have been cut
            width *= 4
            raw = _id_bytes(_loadtxt(data, f"S{width}", usecols=(j,)))
        ids.append(_factorise_bytes(raw))
    return _assemble(
        ids[0], ids[1], table["values"], lambda r: f"line {_line_of_row(data, r)}"
    )


def _loadtxt(data: bytes, dtype, usecols=None, skiprows: int = 1) -> np.ndarray:
    """Parse the data rows of a CSV with numpy's C reader. Latin-1 maps each
    byte to one character, so a bytes field holds the file's exact bytes."""
    return np.loadtxt(
        io.BytesIO(data), dtype=dtype, delimiter=",", quotechar='"', comments=None,
        skiprows=skiprows, encoding="latin1", ndmin=1, usecols=usecols,
    )


#: Bytes of CSV per parsing process. A CSV is cut into at most one run of
#: whole lines per this many bytes, and per core, and a CSV of one run is
#: parsed in this process.
SPLIT_BYTES = 1 << 20


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _processes(work: int, unit: int, jobs: int | None = None) -> int:
    """``jobs``, else one process per ``unit`` of ``work`` (at least one); at
    most one per core. It is 1 where this process may not fork (see
    :func:`_forked`): off Linux, without ``os.fork``, or with another Python
    thread alive, which may hold a lock at the fork that the child then
    waits on for ever."""
    if sys.platform.startswith("linux") and hasattr(os, "fork") and threading.active_count() == 1:
        return min(_cores(), max(1, work // unit) if jobs is None else jobs)
    return 1


def _runs(data: bytes, start: int) -> list:
    """The runs of whole lines, as (start, end) byte offsets, that forked
    children parse of a CSV whose data rows begin at ``start``; [] where this
    process parses it whole.

    The runs are one per process of :func:`_processes`, which forks only
    where it may. A run ends after an LF, which ends a record only where no
    field is quoted, so a CSV holding ``"`` is not cut; and there must be two
    runs or more, each holding a data row.
    """
    count = _processes(len(data), SPLIT_BYTES)
    if count < 2 or b'"' in data:
        return []
    cuts = [0]
    for i in range(1, count):
        cut = data.find(b"\n", max(start, i * len(data) // count)) + 1
        if cuts[-1] < cut < len(data):
            cuts.append(cut)
    runs = list(zip(cuts, cuts[1:] + [len(data)]))
    rows = [start] + cuts[1:]  # where each run's data rows begin
    if len(runs) < 2 or not all(_CONTENT.search(data, r, hi) for r, (_, hi) in zip(rows, runs)):
        return []
    return runs


def _split_loadtxt(data: bytes, dtype: np.dtype, runs: list) -> np.ndarray | None:
    """``_loadtxt(data, dtype)``, parsed by one forked child per run of
    ``runs`` (:func:`_forked`), or None if a child fails.

    Each child slices its own run and parses it with the same arguments (only
    the first run skips the header). A warning fails it too, so the in-process
    parse that follows gives the warning as it would without children. This
    process parses nothing: the children's rows are read straight into the one
    table.
    """

    def parse(run):
        lo, hi = run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _loadtxt(data[lo:hi], dtype, skiprows=int(lo == 0))

    joined = _forked(runs, parse, dtype)
    return None if joined is None else joined[0]


def _forked(items: Sequence, work, dtype) -> tuple | None:
    """The arrays ``work(item)`` of ``dtype`` that one forked child per item
    of ``items`` computes, joined in order into one array, and each child's
    count of elements; or None if a fork or pipe fails, a read ends short, a
    size is bad or a child does not exit with status 0.

    This is the one pipe format: a child writes its array's byte size, as 8
    little-endian bytes, then the array's bytes (:func:`_child`). This process
    reads every size with :func:`_fill`, allocates the one array and fills
    each child's bytes into its place, so nothing is copied after the read.
    A child ends with ``os._exit``, with status 0 only if it wrote it all.
    Every child is reaped on every path, and one still running when the read
    ends early, fails or is interrupted is killed first. :func:`_fill` waits
    in polls, so an interrupt does not wait for the children. Only
    :func:`_processes` decides whether this process may fork.

    Fork and a pipe, not a spawned process pool: fork, ``_exit`` and ``waitpid``
    take 3-5 ms, where spawning a process and importing numpy take about
    0.19 s, about the whole CSV parse it would save (2-core x86-64 VM, numpy
    2.4), and a child sees its parent's module state as the caller left it.
    The children's memory is outside this process's ``ru_maxrss``.
    """
    children: list = []  # pids not yet reaped
    with contextlib.ExitStack() as stack:
        stack.callback(_reap, children, kill=True)
        pipes = []
        # a child blocks SIGINT for its whole life: an interrupt reaches this
        # process only, which then kills and reaps the children
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for item in items:
                r, w = os.pipe()
                pipes.append(stack.enter_context(open(r, "rb", buffering=0)))
                with open(w, "wb", buffering=0) as out:
                    pid = os.fork()
                    if pid == 0:
                        _child(work, item, out, [p.fileno() for p in pipes])
                children.append(pid)
        except OSError:  # no pipe or process to be had
            return None
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        itemsize = np.dtype(dtype).itemsize
        sizes = np.zeros(len(pipes), dtype="<i8")
        if not all(_fill(p, sizes[j : j + 1]) for j, p in enumerate(pipes)):
            return None
        if (sizes < 0).any() or (sizes % itemsize).any():
            return None
        joined = np.empty(int(sizes.sum()) // itemsize, dtype)
        raw, ends = joined.view(np.uint8), np.cumsum(sizes).tolist()
        if not all(_fill(p, raw[lo:hi]) for p, lo, hi in zip(pipes, [0, *ends[:-1]], ends)):
            return None
        return (joined, sizes // itemsize) if _reap(children) else None


def _child(work, item, out, inherited: list):
    """A forked child's whole life: ``work(item)``, then the array's byte
    size and bytes written to ``out``, the raw write end of its pipe. It
    never returns."""
    status = 1
    try:
        for fd in inherited:  # the read ends: a write must fail once the parent is gone
            os.close(fd)
        array = work(item)
        with io.BufferedWriter(out) as pipe:  # a raw write to a pipe may be partial
            pipe.write(array.nbytes.to_bytes(8, "little"))
            pipe.write(array.view(np.uint8))
        status = 0
    finally:
        os._exit(status)


#: Seconds a read of a child's pipe waits for bytes before it looks again. A
#: SIGINT that another thread of this process takes (numpy's BLAS keeps one
#: alive) sets Python's flag but does not wake a blocked read, so the reader
#: waits in polls this long, and the interrupt is raised between two of them.
_POLL_SECONDS = 0.1


def _ready(pipe) -> None:
    """Return once ``pipe`` has bytes to read or is at its end of file.
    ``poll``, unlike ``select``, takes a descriptor of any number."""
    poller = select.poll()
    poller.register(pipe, select.POLLIN)
    while not poller.poll(1000 * _POLL_SECONDS):
        pass


def _fill(pipe, buf: np.ndarray) -> bool:
    """Read ``buf``'s bytes from ``pipe``; False at an early end of file."""
    view = memoryview(buf.view(np.uint8))
    while view.nbytes:
        _ready(pipe)
        got = pipe.readinto(view)
        if not got:
            return False
        view = view[got:]
    return True


def _reap(children: list, kill: bool = False) -> bool:
    """Wait for every child in ``children`` (killed first if ``kill``), and
    empty the list; whether every one exited with status 0."""
    ok = True
    while children:
        if kill:
            os.kill(children[-1], signal.SIGKILL)
        ok &= os.waitstatus_to_exitcode(os.waitpid(children[-1], 0)[1]) == 0
        children.pop()
    return ok


def _records(data: bytes):
    """(line number, fields) of every non-blank data record, numbered by the
    file line it starts on (a quoted field may span lines); error paths only."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    next(reader, None)
    start = reader.line_num + 1
    for rec in reader:
        if rec:
            yield start, rec
        start = reader.line_num + 1


def _first_bad_record(data: bytes, width: int) -> PanelInputError | None:
    """The error of the first record with a wrong field count or a non-number."""
    for lineno, rec in _records(data):
        if len(rec) != width:
            return PanelInputError(f"line {lineno}: expected {width} fields")
        try:
            for v in rec[2:]:
                float(v)
        except ValueError as exc:
            return PanelInputError(f"line {lineno}: {exc}")
    return None


def _line_of_row(data: bytes, row: int) -> int:
    """File line number of data row ``row`` (counted without blank lines)."""
    return next(islice(_records(data), row, None))[0]
