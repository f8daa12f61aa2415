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
value is the one ``float()`` gives); only the other ids go through
``float()``. ``load_panel`` factorises its records' ids with a dict and sorts
the distinct ids by ``str`` once. One assembler orders the distinct ids,
checks duplicates and balance with ``np.bincount`` over the cell index and
scatters the values into the (n, T) and (n, T, k') arrays.

A UTF-8 byte-order mark at the start of a CSV (Excel's "CSV UTF-8") is
skipped.

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
import csv
import io
import re
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
    Only the distinct ids are decoded, and only those that are not plain
    digits are passed to ``float()``.
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
    value = _digit_values(distinct.view(np.uint8))
    others = np.flatnonzero(np.isnan(value))
    value[others] = [_numeric_value(ids[i]) for i in others.tolist()]
    return ids, codes, value


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
        fields = itemgetter("unit_id", "time_id", "y", *(f"x{j + 1}" for j in range(k_prime)))
        table = list(map(fields, chain([first], rows)))
    else:
        table = list(map(tuple, chain([first], rows)))
        width = len(table[0])
        for row in table:
            if len(row) < 4:
                raise PanelInputError(f"row too short: {list(row)!r}")
            if len(row) != width:
                raise PanelInputError("inconsistent regressor count across rows")
    columns = list(zip(*table))
    values = np.array(columns[2:], dtype=np.float64).T
    return _assemble(
        _factorise(columns[0]), _factorise(columns[1]), values, lambda r: f"record {r + 1}"
    )


CSV_HEADER_PREFIX = ("unit_id", "time_id", "y")

_CONTENT = re.compile(rb"[^\r\n]")

# bytes per id in the first parse: numeric ids and ISO dates fit. It and every
# re-read width (x4) are whole 8-byte words, as ``_factorise_bytes`` reads them.
_ID_WIDTH = 16


def read_panel_csv(path_or_buf) -> BalancedPanel:
    """Read a long-format CSV with header ``unit_id,time_id,y,x1[,x2,...]``.

    ``path_or_buf`` is a path or an open file, text or binary, holding UTF-8
    text. Fields are comma-separated and may be quoted with ``"`` (a doubled
    ``""`` inside quotes is one quote); blank lines are skipped; lines end
    with LF or CRLF.
    """
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "rb") as fh:
            data = fh.read()
    else:
        data = path_or_buf.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    try:
        return _parse_csv(data)
    except UnicodeDecodeError as exc:
        raise PanelInputError(f"CSV is not UTF-8 text: {exc}") from None
    except csv.Error as exc:  # e.g. lines that end in a lone CR
        raise PanelInputError(f"malformed CSV: {exc}") from None


def _parse_csv(data: bytes) -> BalancedPanel:
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
    try:
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


def _loadtxt(data: bytes, dtype, usecols=None) -> np.ndarray:
    """Parse the data rows of a CSV with numpy's C reader. Latin-1 maps each
    byte to one character, so a bytes field holds the file's exact bytes."""
    return np.loadtxt(
        io.BytesIO(data), dtype=dtype, delimiter=",", quotechar='"', comments=None,
        skiprows=1, encoding="latin1", ndmin=1, usecols=usecols,
    )


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
