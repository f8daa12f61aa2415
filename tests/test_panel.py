import contextlib
import io
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmgpanel

from _helpers import QUOTED_IDS_CSV, KilledMidPayload, assert_no_child_left, foreign_thread
from tmgpanel import panel as panel_module
from tmgpanel import (
    BalancedPanel,
    DuplicateCellError,
    NonFiniteValueError,
    PanelInputError,
    TooFewPeriodsError,
    UnbalancedPanelError,
    load_panel,
    read_panel_csv,
)

# the CSV reader relies on loadtxt's fixed-width bytes fields and its latin-1
# decoding: fail as soon as numpy deprecates either; it values plain-digit ids
# from their bytes, so an overflow or a NaN cast there is an error too
pytestmark = [
    pytest.mark.filterwarnings("error::DeprecationWarning"),
    pytest.mark.filterwarnings("error::FutureWarning"),
    pytest.mark.filterwarnings("error::RuntimeWarning"),
]


def rows_2x3():
    return [
        (1, 1, 0.5, 1.0),
        (1, 2, 1.5, 2.0),
        (1, 3, 2.5, 3.0),
        (2, 1, 0.0, 0.5),
        (2, 2, 1.0, 1.5),
        (2, 3, 2.0, 2.5),
    ]


def test_load_complete_panel():
    p = load_panel(rows_2x3())
    assert (p.n, p.T, p.k_prime) == (2, 3, 1)
    assert p.unit_ids == (1, 2)
    assert p.time_ids == (1, 2, 3)
    np.testing.assert_allclose(p.y[0], [0.5, 1.5, 2.5])


def test_load_panel_sorts_rows():
    shuffled = rows_2x3()[::-1]
    p = load_panel(shuffled)
    np.testing.assert_allclose(p.y, load_panel(rows_2x3()).y)


def test_load_panel_mapping_records():
    recs = [
        {"unit_id": u, "time_id": t, "y": yv, "x1": xv} for u, t, yv, xv in rows_2x3()
    ]
    p = load_panel(recs)
    assert (p.n, p.T, p.k_prime) == (2, 3, 1)


def test_missing_cell_rejected():
    with pytest.raises(UnbalancedPanelError):
        load_panel(rows_2x3()[:-1])


def test_duplicate_cell_rejected():
    with pytest.raises(DuplicateCellError):
        load_panel(rows_2x3() + [rows_2x3()[0]])


def test_non_finite_rejected():
    bad = rows_2x3()
    bad[2] = (1, 3, float("nan"), 3.0)
    with pytest.raises(NonFiniteValueError):
        load_panel(bad)


def test_too_few_periods():
    rows = [
        (1, 1, 0.0, 1.0, 2.0),
        (1, 2, 1.0, 2.0, 1.0),
        (2, 1, 0.0, 0.5, 0.1),
        (2, 2, 1.0, 1.5, 0.7),
    ]
    # k'=2 needs T >= 3
    with pytest.raises(TooFewPeriodsError):
        load_panel(rows)


def test_empty_input():
    with pytest.raises(PanelInputError):
        load_panel([])


def test_arrays_immutable():
    p = load_panel(rows_2x3())
    with pytest.raises(ValueError):
        p.y[0, 0] = 9.9


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "panel.csv"
    lines = ["unit_id,time_id,y,x1"]
    lines += [f"{u},{t},{yv},{xv}" for u, t, yv, xv in rows_2x3()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    p = read_panel_csv(path)
    assert (p.n, p.T, p.k_prime) == (2, 3, 1)


def test_csv_bad_header():
    buf = io.StringIO("unit,time,y,x1\n1,1,0.0,1.0\n")
    with pytest.raises(PanelInputError):
        read_panel_csv(buf)


def test_household_survey_shape(rng):
    # 1358 units observed twice with a single regressor, like a two-wave
    # household expenditure panel
    n, T = 1358, 2
    lines = ["unit_id,time_id,y,x1"]
    for i in range(n):
        for t in range(T):
            lines.append(f"h{i:04d},{2001 + t},{rng.normal():.6f},{rng.normal(1):.6f}")
    p = read_panel_csv(io.StringIO("\n".join(lines)))
    assert (p.n, p.T, p.k_prime) == (1358, 2, 1)


def test_design_tensor_has_intercept_column():
    p = load_panel(rows_2x3())
    W = p.design_tensor()
    assert W.shape == (2, 3, 2)
    np.testing.assert_array_equal(W[:, :, 0], 1.0)
    np.testing.assert_allclose(W[:, :, 1], p.x[:, :, 0])


def test_shape_mismatch_rejected():
    with pytest.raises(PanelInputError):
        BalancedPanel(
            y=np.zeros((3, 2)),
            x=np.zeros((2, 2, 1)),
            unit_ids=(0, 1, 2),
            time_ids=(0, 1),
        )


HEADER = "unit_id,time_id,y,x1\n"


@contextlib.contextmanager
def cores(count, split_bytes=None):
    """Reads as on a machine of ``count`` cores, and with ``split_bytes`` for
    the reader's size constant if given; no child may outlive the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        if split_bytes is not None:
            mp.setattr(panel_module, "SPLIT_BYTES", split_bytes)
        yield
    assert_no_child_left()


def split_read(source):
    """``read_panel_csv(source)`` with every CSV of two bytes or more cut into
    two runs, each parsed by a forked child where the reader allows it."""
    with cores(2, split_bytes=1):
        return read_panel_csv(source)


def assert_same_panel(got, want):
    assert got.unit_ids == want.unit_ids and got.time_ids == want.time_ids
    assert got.y.tobytes() == want.y.tobytes() and got.x.tobytes() == want.x.tobytes()


def test_blank_lines_emit_no_warning(tmp_path):
    text = HEADER + "\n1,1,0.5,1.0\n\n1,2,1.5,2.0\n\n2,1,0.0,0.5\n2,2,1.0,1.5\n\n"
    path = tmp_path / "blank.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in (io.StringIO(text), path, io.BytesIO(text.encode())):
            p = read_panel_csv(source)
            np.testing.assert_array_equal(p.y, [[0.5, 1.5], [0.0, 1.0]])


def test_csv_keeps_quoted_and_verbatim_ids():
    p = read_panel_csv(io.StringIO(QUOTED_IDS_CSV))
    # " 1" and "1" are two units; both parse to 1.0 and tie-break on the string
    assert p.unit_ids == (" 1", "1", "#2", "a,b", 'q"x')
    np.testing.assert_array_equal(p.x[:, :, 0], [[1, 3], [1, 7], [1, 9], [1, 2], [1, 5]])


ORDERED_IDS = ("-inf", "+1", "01", "1", "1.0", "1e0", "2", "3", "inf", "a", "b", "nan")


def _ties_csv(path):
    lines = [HEADER.strip()]
    for k, u in enumerate(reversed(ORDERED_IDS)):
        lines += [f"{u},2001,{k}.5,{k}", f"{u},2002,{k}.25,{k + 1}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_id_order_is_total():
    # numeric ids by value, then the rest; ties broken by the string; a NaN
    # id is not numeric
    rows = [(u, t, float(k), float(t + k)) for k, u in enumerate(ORDERED_IDS[::-1]) for t in (1, 2)]
    p = load_panel(rows)
    assert p.unit_ids == ORDERED_IDS
    np.testing.assert_array_equal(p.y[:, 0], np.arange(len(ORDERED_IDS))[::-1])


def test_id_order_does_not_depend_on_hash_seed(tmp_path):
    path = tmp_path / "ties.csv"
    _ties_csv(path)
    src = str(Path(tmgpanel.__file__).resolve().parents[1])
    script = "import sys, tmgpanel; print(tmgpanel.read_panel_csv(sys.argv[1]).unit_ids)"
    seen = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env, capture_output=True, text=True, check=True,
        )
        seen.append(proc.stdout)
    assert seen[0] == seen[1] == f"{ORDERED_IDS}\n"


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", PanelInputError, "empty CSV"),
        (HEADER, PanelInputError, "empty input"),
        (
            "unit,time,y,x1\n1,1,0.0,1.0\n",
            PanelInputError,
            "expected header unit_id,time_id,y,x1[,x2,...], got ['unit', 'time', 'y', 'x1']",
        ),
        (
            "unit_id,time_id,y,x2\n1,1,0.0,1.0\n",
            PanelInputError,
            "regressor columns must be ['x1'], got ['x2']",
        ),
        (HEADER + "1,1,0.5,1.0\n\n1,2,0.5\n", PanelInputError, "line 4: expected 4 fields"),
        (
            HEADER + "1,1,0.5,1.0\n\n1,2,0.5,1.0,9\n",
            PanelInputError,
            "line 4: expected 4 fields",
        ),
        (HEADER + "1,1,0.5,1.0,9\n1,2,0.5,1.0\n", PanelInputError, "line 2: expected 4 fields"),
        (
            HEADER + "1,1,0.5,1.0\n\n1,2,abc,1.0\n",
            PanelInputError,
            "line 4: could not convert string to float: 'abc'",
        ),
        (
            HEADER + "1,1,0.5,1\n1,2,0.5,1\n2,1,0,1\n2,2,1,1\n1,2,3,3\n",
            DuplicateCellError,
            "duplicate cell (unit='1', time='2')",
        ),
        (
            HEADER + "1,1,0.5,1\n1,2,0.5,1\n2,1,0,1\n3,2,1,1\n",
            UnbalancedPanelError,
            "2 missing cells, e.g. [('2', '2'), ('3', '1')]",
        ),
        (
            HEADER + "1,1,0.5,1\n\n1,2,0.5,inf\n2,1,nan,1\n2,2,1,1\n",
            NonFiniteValueError,
            "line 4: NaN or infinite value in column x1",
        ),
        # a quoted id may span lines: errors name the line a record starts on
        (
            HEADER + '"a\nb",1,0.5,1\n"a\nb",2,0.5,1\nc,1,0,1\nc,2,nan,1\n',
            NonFiniteValueError,
            "line 7: NaN or infinite value in column y",
        ),
        (
            HEADER + '"a\nb",1,0.5,1\n"a\nb",2,0.5,1\nc,1,0\n',
            PanelInputError,
            "line 6: expected 4 fields",
        ),
        # a fixed-width id field cannot keep a trailing NUL, so "a\0" would
        # read as "a"
        (
            HEADER + "a,1,0.5,1\n\na\0,1,0.5,1\na,2,0,1\na\0,2,1,1\n",
            PanelInputError,
            "line 4: NUL byte",
        ),
    ],
)
def test_csv_error_names_the_problem(text, error, message):
    with pytest.raises(PanelInputError) as info:
        read_panel_csv(io.StringIO(text))
    assert type(info.value) is error
    assert str(info.value) == message
    # the same error where forked children parse the rows
    with pytest.raises(PanelInputError) as info:
        split_read(io.StringIO(text))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "data, prefix",
    [
        (HEADER.encode() + b"1,1,1_0,1.0\n", "could not parse CSV: "),
        (HEADER.replace("\n", "\r").encode() + b"1,1,0.5,1.0\r", "malformed CSV: "),
        (HEADER.encode() + b"1,1,\xff,1.0\n", "CSV is not UTF-8 text: "),
    ],
)
def test_csv_outside_the_dialect_is_an_input_error(data, prefix):
    with pytest.raises(PanelInputError) as info:
        read_panel_csv(io.BytesIO(data))
    assert str(info.value).startswith(prefix)
    message = str(info.value)
    with pytest.raises(PanelInputError) as info:
        split_read(io.BytesIO(data))
    assert str(info.value) == message


def test_record_non_finite_names_the_record():
    bad = rows_2x3()
    bad[2] = (1, 3, float("nan"), 3.0)
    with pytest.raises(NonFiniteValueError, match=r"^record 3: NaN or infinite value in column y$"):
        load_panel(bad)


def _mapping_records():
    return [{"unit_id": u, "time_id": t, "y": yv, "x1": xv} for u, t, yv, xv in rows_2x3()]


def _with(records, r, **fields):
    """``records`` with record ``r`` (from 0) updated by ``fields``."""
    records[r] = {**records[r], **fields}
    return records


@pytest.mark.parametrize(
    "records, message",
    [
        (_with(_mapping_records(), 0, x3=1.0), "record 1: missing field 'x2'"),
        (_mapping_records() + [{"unit_id": 3, "time_id": 1, "y": 0.0}],
         "record 7: missing field 'x1'"),
        (_with(_mapping_records(), 3, y="abc"),
         "record 4: could not convert string to float: 'abc'"),
        (rows_2x3()[:4] + [(2, 2, 1.0, "abc"), rows_2x3()[5]],
         "record 5: could not convert string to float: 'abc'"),
        (_mapping_records()[:5] + [rows_2x3()[5]],
         "record 6: tuple is not a mapping, as record 1 is"),
        (_with(_mapping_records(), 2, unit_id=[1]), "record 3: id [1] is not hashable"),
        (rows_2x3()[:3] + [(2, {1: 1}, 1.0, 2.0)] + rows_2x3()[4:],
         "record 4: id {1: 1} is not hashable"),
    ],
    ids=[
        "first-without-x2", "later-without-x1", "mapping-text-y", "sequence-text-x1",
        "later-not-a-mapping", "unhashable-unit-id", "unhashable-time-id",
    ],
)
def test_malformed_record_names_the_record(records, message):
    with pytest.raises(PanelInputError, match=f"^{re.escape(message)}$"):
        load_panel(records)


def _id_key(v):
    """The documented id order, written out for string ids."""
    try:
        value = float(v)
    except ValueError:
        value = math.nan
    return (1, 0.0, v) if math.isnan(value) else (0, value, v)


def _csv_field(v, quote):
    if quote or any(c in v for c in ',"'):
        return '"' + v.replace('"', '""') + '"'
    return v


ids = st.one_of(
    st.integers(-30, 30).map(str),
    st.sampled_from(["01", "1.0", "+1", " 1", "nan", "inf", "1_0"]),
    st.text(alphabet="ab1 ,\"#.", min_size=1, max_size=4),
)


@st.composite
def long_panels(draw):
    k_prime = draw(st.integers(1, 3))
    units = draw(st.lists(ids, min_size=2, max_size=6, unique=True))
    times = draw(st.lists(ids, min_size=k_prime + 1, max_size=4, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(
        st.lists(
            st.tuples(*[finite] * (1 + k_prime)),
            min_size=len(units) * len(times),
            max_size=len(units) * len(times),
        )
    )
    records = [(u, t, *v) for (u, t), v in zip([(u, t) for u in units for t in times], values)]
    order = draw(st.permutations(range(len(records))))
    records = [records[i] for i in order]
    quoted = draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
    blank_after = draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
    return k_prime, units, times, records, quoted, blank_after


def _assert_reads_like_records(k_prime, units, times, records, quoted, blank_after):
    """Write the records as a CSV and check ``read_panel_csv`` against
    ``load_panel`` and the documented id order, bit for bit."""
    lines = ["unit_id,time_id,y," + ",".join(f"x{j + 1}" for j in range(k_prime))]
    for (u, t, *v), q, blank in zip(records, quoted, blank_after):
        lines.append(",".join([_csv_field(u, q), _csv_field(t, q)] + [repr(c) for c in v]))
        if blank:
            lines.append("")
    text = "\n".join(lines) + "\n"
    got = read_panel_csv(io.StringIO(text))
    want = load_panel(records)
    assert_same_panel(got, want)
    assert_same_panel(split_read(io.StringIO(text)), got)

    assert got.unit_ids == tuple(sorted(units, key=_id_key))
    assert got.time_ids == tuple(sorted(times, key=_id_key))
    cells = {(u, t): v for u, t, *v in records}
    expect = np.array([[cells[u, t] for t in got.time_ids] for u in got.unit_ids])
    assert got.y.tobytes() == np.ascontiguousarray(expect[:, :, 0]).tobytes()
    assert got.x.tobytes() == np.ascontiguousarray(expect[:, :, 1:]).tobytes()


@settings(max_examples=60, deadline=None)
@given(long_panels())
def test_csv_round_trip_matches_records(case):
    _assert_reads_like_records(*case)


# Ids around the reader's 16-byte first parse and its 4x re-reads (64, 256
# bytes), multi-byte UTF-8, the empty id and ids equal in their first 8 bytes.
WIDE_UNITS = (
    "a" * 16, "a" * 17, "b" * 15, "1" * 16, "0" * 16 + "1", "1",
    "x" * 70, "x" * 69 + "y", "x" * 64,
    "ä", "€", "東京", "ä" * 8, "東京" * 3, "",
    "abcdefgh", "abcdefgh1", "abcdefgh2", "abcdefghijklmno1", "abcdefghijklmno2",
)
SHORT = ("1", "2", "10")
WIDE_TIMES = ("2001-01-01T00:00:00Z", "2001-01-01T00:00:00Y", "7" * 65)


def _id_matrix(ids):
    """The reader's (rows, width) NUL-padded byte matrix of ``ids``."""
    width = 8 * max(1, -(-max(len(i.encode()) for i in ids) // 8))
    return np.array([i.encode() for i in ids], dtype=f"S{width}")[:, None].view(np.uint8)


def test_ids_with_a_letter_float_never_accepts_are_text():
    from tmgpanel.panel import _never_float

    ids = ["u0012345678", "1e5", "-Infinity", "nan", "inF", "1_000", "x", "1j", "0x1f"]
    assert _never_float(_id_matrix(ids)).tolist() == [
        True, False, False, False, False, False, True, True, True
    ]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.text(st.sampled_from("0123456789+-._eE \t\x1c\u2003infINFtyaTYAuxjZ\u0661\u00e9"),
            max_size=10),
    min_size=1, max_size=12,
))
def test_text_filter_agrees_with_float(ids):
    # an id the letter filter calls text is one float() rejects, and every
    # id's value is the one float() gives, or NaN
    from tmgpanel.panel import _factorise_bytes, _never_float, _numeric_value

    raw = _id_matrix(ids)
    for text, never in zip(ids, _never_float(raw)):
        if never:
            with pytest.raises(ValueError):
                float(text)
    distinct, _, value = _factorise_bytes(raw)
    expected = np.array([_numeric_value(i) for i in distinct])
    np.testing.assert_array_equal(value, expected)


@pytest.mark.parametrize(
    "units, times",
    [
        (WIDE_UNITS, SHORT),
        (SHORT, WIDE_TIMES),  # only the time column is parsed again
        (WIDE_UNITS, WIDE_TIMES),
        (("abcdefgh1", "abcdefgh2", "abcdefgh3"), ("t" * 16, "t" * 8)),
    ],
)
@pytest.mark.parametrize("quoting", ["none", "all", "alternate"])
def test_csv_wide_and_multibyte_ids_match_records(units, times, quoting):
    rng = np.random.default_rng(len(units) * 100 + len(times))
    cells = [(u, t) for u in units for t in times]
    values = rng.standard_normal((len(cells), 2)).tolist()
    order = rng.permutation(len(cells))
    records = [(*cells[i], *values[i]) for i in order]
    quoted = {"none": [False], "all": [True], "alternate": [True, False]}[quoting]
    quoted = (quoted * len(records))[: len(records)]
    _assert_reads_like_records(1, units, times, records, quoted, [False] * len(records))


# Ids on each side of the reader's digit path (1-15 ASCII digits, valued from
# their bytes) and its float() path: leading zeros, 15/16/17 digits (17-digit
# neighbours round to one double), signs, decimals, exponents, spaces,
# underscores, nan/inf, Arabic-Indic digits (float() reads them), multi-byte
# text and ids wider than the 16-byte first parse.
ORDER_POOL = (
    "0", "00", "-0", "0.0", "007", "7", "7.0", "70", "1", "10", "9",
    "999999999999999", "0999999999999999", "1000000000000000",
    "123456789012345", "1234567890123456", "12345678901234567", "12345678901234568",
    "100000000000000000", "-5", "+5", "1.0", "1e3", "1000", " 1", "1 ", "1_000",
    "nan", "NaN", "-nan", "inf", "-inf", "+inf", "infinity",
    "٣", "١٢", "۷", "東京", "ä", "€5", "a", "b", "Z", "",
    "9" * 20, "0" * 19 + "5", "x" * 20, "2024-01-01T00:00:00Z",
)


def _random_id(rng):
    if rng.random() < 0.6:
        return str(ORDER_POOL[rng.integers(len(ORDER_POOL))])
    digits = "".join(rng.choice(list("0123456789"), size=rng.integers(1, 19)))
    return digits if rng.random() < 0.5 else "-" + digits


def _distinct_ids(rng, size):
    seen = {}
    while len(seen) < size:
        seen.setdefault(_random_id(rng), None)
    return list(seen)


@pytest.mark.parametrize("seed", range(30))
def test_id_order_matches_the_brute_force_rule(seed):
    # the documented order written out with sorted, float() and str, against
    # both readers: the CSV reader's byte factorisation and digit path, and
    # load_panel's factorisation of records
    rng = np.random.default_rng(seed)
    units = _distinct_ids(rng, int(rng.integers(2, 25)))
    times = _distinct_ids(rng, int(rng.integers(2, 6)))
    cells = [(u, t) for u in units for t in times]
    order = rng.permutation(len(cells))
    records = [(*cells[i], float(i), float(i) * 0.5 + 1.0) for i in order]
    lines = ["unit_id,time_id,y,x1"]
    lines += [f'"{u}","{t}",{y!r},{x!r}' for u, t, y, x in records]
    for panel in (read_panel_csv(io.StringIO("\n".join(lines) + "\n")), load_panel(records)):
        assert panel.unit_ids == tuple(sorted(units, key=_id_key))
        assert panel.time_ids == tuple(sorted(times, key=_id_key))
        cell = {(u, t): y for u, t, y, _ in records}
        want = [[cell[u, t] for t in panel.time_ids] for u in panel.unit_ids]
        np.testing.assert_array_equal(panel.y, want)


# ---------------------------------------------------------------------------
# reads split over forked children
# ---------------------------------------------------------------------------


def _large_csv(rng, units=24000):
    """A CSV of two periods per unit, above two of the reader's size constant:
    BOM, CRLF line ends, a blank line after every 1000th row and no final
    line end."""
    cells = [(u, t) for u in range(units) for t in (1, 2)]
    values = rng.standard_normal((len(cells), 2)).tolist()
    rows = [f"{u},{t},{y!r},{x!r}" for (u, t), (y, x) in zip(cells, values)]
    for i in range(999, len(rows), 1000):
        rows[i] += "\r\n"
    text = "\ufeff" + HEADER.replace("\n", "\r\n") + "\r\n".join(rows)
    assert len(text.encode()) >= 2 * panel_module.SPLIT_BYTES
    return text


def test_large_csv_reads_alike_in_children(rng):
    # at the size constant's own value: two runs on two cores, the same table
    # as the whole read, and a bad value in the last run named by its line
    text = _large_csv(rng)
    data = text.encode()
    usage = {}
    with cores(1):
        whole = read_panel_csv(io.BytesIO(data), usage)
    assert usage == {"read_processes": 1}
    with cores(2):
        split = read_panel_csv(io.BytesIO(data), usage)
    assert usage == {"read_processes": 2}
    assert_same_panel(split, whole)

    at = text.rindex("\r\n", 0, len(text) - 100) + 2  # a row in the last run
    lineno = text.count("\n", 0, at) + 1
    bad = text[:at] + "7,1,oops,1.0\r\n" + text[at:]
    message = f"line {lineno}: could not convert string to float: 'oops'"
    for count in (1, 2):
        with cores(count), pytest.raises(PanelInputError, match=f"^{message}$"):
            read_panel_csv(io.StringIO(bad))


def test_read_processes_follow_the_cores(rng):
    # the core rule of the process: one child per core, at most one per
    # size constant, and none where the process may run on one core only
    data = _large_csv(rng).encode()
    usage = {}
    read_panel_csv(io.BytesIO(data), usage)
    runs = min(len(os.sched_getaffinity(0)), len(data) // panel_module.SPLIT_BYTES)
    assert usage["read_processes"] == (runs if runs >= 2 else 1)
    assert_no_child_left()


def test_quoted_csv_is_read_whole():
    # with a quote in the data an LF may sit inside a field: no split
    usage = {}
    with cores(2, split_bytes=1):
        read_panel_csv(io.StringIO(QUOTED_IDS_CSV), usage)
    assert usage == {"read_processes": 1}


#: nine units of two periods: two runs of whole lines with a split size of 1
SMALL_CSV = HEADER + "".join(f"{u},{t},{u * t}.5,{u - t}.25\n" for u in range(9) for t in (1, 2))


def test_no_split_read_with_another_thread_alive():
    # the fork rule: a thread that holds a lock at a fork can leave the child
    # waiting for ever, so with another thread alive this process parses
    usage = {}
    with foreign_thread(), cores(2, split_bytes=1):
        got = read_panel_csv(io.StringIO(SMALL_CSV), usage)
    assert usage == {"read_processes": 1}
    assert_same_panel(got, read_panel_csv(io.StringIO(SMALL_CSV)))


@pytest.mark.parametrize(
    "fault",
    ["child killed", "child killed mid-payload", "child exits 7 after writing",
     "second fork fails"],
)
def test_failed_split_leaves_the_read_to_this_process(monkeypatch, fault):
    whole = read_panel_csv(io.StringIO(SMALL_CSV))
    usage = {}
    with cores(2, split_bytes=1):
        read_panel_csv(io.StringIO(SMALL_CSV), usage)
    assert usage == {"read_processes": 2}

    parent, loadtxt, fork, exit_ = os.getpid(), panel_module._loadtxt, os.fork, os._exit
    forks = []

    def exit_7(status):
        exit_(7 if os.getpid() != parent else status)

    def crash_in_child(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return loadtxt(*args, **kwargs)

    def fork_once():
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError("fork: Resource temporarily unavailable")
        return fork()

    faults = {
        "child killed": (panel_module, "_loadtxt", crash_in_child),
        "child killed mid-payload": (io, "BufferedWriter", KilledMidPayload),
        "child exits 7 after writing": (os, "_exit", exit_7),
        "second fork fails": (os, "fork", fork_once),
    }
    monkeypatch.setattr(*faults[fault])
    with cores(2, split_bytes=1):
        got = read_panel_csv(io.StringIO(SMALL_CSV), usage)
    assert usage == {"read_processes": 1}
    assert_same_panel(got, whole)


def test_interrupted_read_reaps_every_child(monkeypatch):

    def interrupt(pipe, buf):
        raise KeyboardInterrupt

    monkeypatch.setattr(panel_module, "_fill", interrupt)
    with cores(2, split_bytes=1), pytest.raises(KeyboardInterrupt):
        read_panel_csv(io.StringIO(SMALL_CSV))


def test_forked_joins_the_children_arrays_in_order():
    # the one pipe format: each child's byte size, then its bytes, read into
    # one array; a size of no whole number of elements gives no result
    joined, counts = panel_module._forked([2, 3], lambda k: np.arange(k, k + k / 2, 0.5), float)
    assert joined.tolist() == [2.0, 2.5, 3.0, 3.5, 4.0] and counts.tolist() == [2, 3]
    assert panel_module._forked([3], lambda k: np.zeros(k, np.uint8), float) is None
    assert_no_child_left()


def test_interrupt_another_thread_takes_ends_the_read():
    # a SIGINT that another thread of this process takes does not wake the
    # main thread's blocked pipe read: the one pipe reader (_fill) waits in
    # polls, so the interrupt comes within one poll, not once the child's
    # 20-s sleep ends
    import threading
    import time

    def interrupt():
        time.sleep(0.3)
        signal.pthread_kill(threading.get_ident(), signal.SIGINT)

    thread = threading.Thread(target=interrupt, name="interrupter")
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        thread.start()
        panel_module._forked([1], lambda item: time.sleep(20), np.uint8)
    elapsed = time.perf_counter() - t0
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert elapsed < 5
    assert_no_child_left()
