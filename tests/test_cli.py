import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import QUOTED_IDS_CSV, random_panel
from tmgpanel import BalancedPanel, DgpConfig, generate_replication, read_panel_csv
from tmgpanel.cli import _t_rows, main
from tmgpanel.estimators import DEFAULT_ALPHA_GP

import oracles

# the CSV reader relies on loadtxt's fixed-width bytes fields and its latin-1
# decoding: fail as soon as numpy deprecates either; it values plain-digit ids
# from their bytes, so an overflow or a NaN cast there is an error too
pytestmark = [
    pytest.mark.filterwarnings("error::DeprecationWarning"),
    pytest.mark.filterwarnings("error::FutureWarning"),
    pytest.mark.filterwarnings("error::RuntimeWarning"),
]


def write_panel_csv(path, panel):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("unit_id,time_id,y,x1\n")
        for i, uid in enumerate(panel.unit_ids):
            for t, tid in enumerate(panel.time_ids):
                fh.write(f"{uid},{tid},{panel.y[i, t]:.17g},{panel.x[i, t, 0]:.17g}\n")


@pytest.fixture(scope="module")
def hetero_csv(tmp_path_factory):
    # seed-pinned fixture with strong correlated heterogeneity
    cfg = DgpConfig(
        n=5000, T=2, rho_alpha=0.5, rho_beta=0.5, kappa2=15.5, seed=20240810
    )
    panel, _ = generate_replication(cfg, 0)
    path = tmp_path_factory.mktemp("data") / "hetero.csv"
    write_panel_csv(path, panel)
    return path


def scenario_payload(**kw):
    payload = {
        "n": 120,
        "T": 2,
        "rho_alpha": 0.5,
        "rho_beta": 0.5,
        "kappa2": 15.5,
        "seed": 7,
        "estimators": ["fe", "tmg"],
        "reps": 12,
    }
    payload.update(kw)
    return payload


class TestEstimate:
    def test_happy_path_tmg(self, hetero_csv, tmp_path, capsys):
        rc = main(
            ["estimate", str(hetero_csv), "--method", "tmg", "--alpha", "0.3333",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pi_hat" in out
        table = (tmp_path / "estimate.csv").read_text().splitlines()
        assert table[0] == "coef,estimate,se,t,p"
        assert len(table) == 3  # intercept + slope
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "estimate"
        assert manifest["parameters"]["alpha"] == 0.3333

    def test_gp_with_te(self, hetero_csv, tmp_path):
        rc = main(
            ["estimate", str(hetero_csv), "--method", "gp", "--te", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "estimate.csv").read_text().splitlines()
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == ["alpha", "beta1", "phi1", "phi2"]

    def test_gpte_method_is_gp_with_te(self, hetero_csv, tmp_path):
        # every estimator tag is a --method: gpte, as fete and tmgte are
        tables = []
        for j, argv in enumerate((["--method", "gpte"], ["--method", "gp", "--te"])):
            assert main(["estimate", str(hetero_csv), *argv, "--out", str(tmp_path / str(j))]) == 0
            tables.append((tmp_path / str(j) / "estimate.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_dump_units(self, hetero_csv, tmp_path):
        rc = main(
            ["estimate", str(hetero_csv), "--method", "tmg", "--dump-units",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        dump = (tmp_path / "per_unit.csv").read_text().splitlines()
        assert dump[0] == "unit_id,alpha,beta1"
        assert len(dump) == 5001

    @pytest.mark.parametrize("method", [["fe"], ["fete"], ["fe", "--te"]], ids=["fe", "fete", "fe-te"])
    def test_dump_units_of_a_pooled_fit_is_input_error(self, hetero_csv, tmp_path, capsys, method):
        # a pooled fit has no per-unit estimates: --dump-units exits 2 with a
        # message before any output or panel.npz is written
        out = tmp_path / "out"
        argv = ["estimate", str(hetero_csv), "--method", *method, "--dump-units"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "is pooled: it has no per-unit estimates to dump" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("te", [False, True])
    def test_gp_dump_units_names_retained_units(self, tmp_path, te):
        # GP drops units; each per-unit row must carry the id of its own unit
        rng = np.random.default_rng(11)
        n = 12
        x = rng.normal(1.0, 1.0, (n, 2, 1))
        x[[2, 7], :, 0] = 0.4  # two stayers, d_i = 0
        y = rng.normal(size=(n, 1)) + (1.0 + 0.3 * rng.normal(size=(n, 1))) * x[:, :, 0]
        ids = tuple(f"u{100 + i}" for i in range(n))
        panel = BalancedPanel(y=y, x=x, unit_ids=ids, time_ids=(1, 2))
        path = tmp_path / "ids.csv"
        write_panel_csv(path, panel)
        argv = ["estimate", str(path), "--method", "gp", "--dump-units", "--out", str(tmp_path)]
        assert main(argv + (["--te"] if te else [])) == 0
        rows = [r.split(",") for r in (tmp_path / "per_unit.csv").read_text().splitlines()[1:]]
        keep = oracles.gp_kept_units(x, DEFAULT_ALPHA_GP)
        assert [r[0] for r in rows] == [ids[i] for i in keep]
        assert "u102" not in {r[0] for r in rows} and "u107" not in {r[0] for r in rows}
        if not te:
            for r, i in zip(rows, keep):
                want = oracles.unit_theta(y[i], x[i])
                np.testing.assert_allclose([float(v) for v in r[1:]], want, rtol=1e-9)

    def test_gp_keeping_one_unit_has_no_t(self, tmp_path, capsys):
        # T = 2: three units whose x moves by about 1e-3 fall below GP's
        # bandwidth, so one unit is kept and no standard error exists
        path = tmp_path / "one_kept.csv"
        path.write_text(
            "unit_id,time_id,y,x1\n"
            "1,1,0.1,1.0\n1,2,0.3,1.001\n"
            "2,1,0.2,2.0\n2,2,0.1,2.0012\n"
            "3,1,0.4,0.5\n3,2,0.2,0.5009\n"
            "4,1,0.5,0.0\n4,2,3.5,3.0\n"
        )
        assert main(["estimate", str(path), "--method", "gp", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        rows = [r.split(",") for r in (tmp_path / "estimate.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["alpha", "beta1"]
        assert [r[2:] for r in rows] == [["nan", "nan", "nan"]] * 2
        assert "inf" not in out and "0.0000\n" not in out

    def test_t_and_p_follow_ieee_division(self):
        values, ses = [-1.5, 2.0, 0.0, 1.0, 3.0], [0.0, 0.0, 0.0, np.nan, 2.0]
        rows = _t_rows(["a", "b", "c", "d", "e"], values, ses)
        t = [r[3] for r in rows]
        p = [r[4] for r in rows]
        assert t[:2] == [-np.inf, np.inf] and p[:2] == [0.0, 0.0]
        assert np.isnan(t[2:4]).all() and np.isnan(p[2:4]).all()
        assert t[4] == 1.5 and p[4] == pytest.approx(0.13361440253771617, rel=1e-12)

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("unit_id,time_id,y,x1\n1,1,0.0,1.0\n1,2,1.0,2.0\n2,1,0.5,1.0\n")
        rc = main(["test", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "missing cells" in capsys.readouterr().err

    def test_non_finite_value_exit_2_names_line(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text(
            "unit_id,time_id,y,x1\n1,1,0.0,1.0\n\n1,2,inf,2.0\n2,1,0.5,1.0\n2,2,1.5,3.0\n"
        )
        rc = main(["estimate", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "line 4: NaN or infinite value in column y" in capsys.readouterr().err

    def test_dump_units_quotes_ids_like_the_reader(self, tmp_path):
        # ids with a comma or a quote come back as one field each
        path = tmp_path / "quoted.csv"
        path.write_text(QUOTED_IDS_CSV, encoding="utf-8")
        panel = read_panel_csv(path)
        assert main(["estimate", str(path), "--dump-units", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "per_unit.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["unit_id", "alpha", "beta1"]
        assert all(len(r) == panel.k + 1 for r in rows[1:])
        assert tuple(r[0] for r in rows[1:]) == panel.unit_ids

    def test_nul_byte_exit_2_names_line(self, tmp_path, capsys):
        path = tmp_path / "nul.csv"
        path.write_bytes(
            b"unit_id,time_id,y,x1\na,1,0.0,1.0\na,2,1.0,2.0\n"
            b"a\0,1,0.5,1.0\na\0,2,1.5,3.0\n"
        )
        rc = main(["estimate", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "line 4: NUL byte" in capsys.readouterr().err

    def test_mg_te_is_input_error(self, hetero_csv, tmp_path):
        rc = main(
            ["estimate", str(hetero_csv), "--method", "mg", "--te", "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["estimate", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 2

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # a unit with zero within-variation makes plain mean-group estimation
        # impossible
        path = tmp_path / "stale.csv"
        path.write_text(
            "unit_id,time_id,y,x1\n"
            "1,1,0.0,2.0\n1,2,1.0,2.0\n"
            "2,1,0.5,1.0\n2,2,1.5,3.0\n"
            "3,1,0.1,0.5\n3,2,0.9,2.5\n"
        )
        rc = main(["estimate", str(path), "--method", "mg", "--out", str(tmp_path)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["estimate", "--te"], ["test"]])
def test_manifest_hashes_the_csv_and_times_each_stage(hetero_csv, tmp_path, command):
    # the second run loads the panel the first one parsed: the same digest,
    # no parsing process
    digest = hashlib.sha256(hetero_csv.read_bytes()).hexdigest()
    for processes in (1, 0):  # 1: below the reader's size constant
        rc = main([command[0], str(hetero_csv), *command[1:], "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["csv_sha256"] == digest
        timings = manifest["timings"]
        stages = [timings[k] for k in ("read_seconds", "fit_seconds", "write_seconds")]
        assert all(s >= 0 for s in stages)
        assert sum(stages) <= timings["wall_seconds"]
        assert timings["read_processes"] == processes


def _run_csv_command(argv, csv_path, out) -> dict:
    """Run ``argv`` (a command and its options) on ``csv_path`` into ``out``;
    its manifest."""
    assert main([argv[0], str(csv_path), *argv[1:], "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())


#: What each CSV command writes besides its manifest and panel.npz.
_CSV_OUTPUTS = {"estimate": ("estimate.csv", "per_unit.csv"), "test": ("hausman.json",)}


def _assert_same_outputs(out, fresh, command):
    for name in _CSV_OUTPUTS[command]:
        assert (out / name).exists() == (fresh / name).exists(), name
        if (fresh / name).exists():
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


# a file left open is an error where ResourceWarning is (python -X dev -W
# error::ResourceWarning), raised as the file is collected
_NO_FILE_LEFT_OPEN = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)


@_NO_FILE_LEFT_OPEN
@pytest.mark.parametrize(
    "first, second",
    [
        (["estimate", "--te", "--dump-units"], ["test", "--te"]),
        (["estimate"], ["estimate"]),
    ],
    ids=["estimate-then-test", "estimate-twice"],
)
def test_second_command_loads_the_parsed_panel(hetero_csv, tmp_path, first, second):
    # the second command on the same CSV bytes into one --out loads the panel
    # the first one parsed, and writes what it writes into a fresh --out
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    parsed = _run_csv_command(first, hetero_csv, shared)
    assert parsed["timings"]["read_processes"] == 1
    assert str(shared / "panel.npz") in parsed["outputs"]
    loaded = _run_csv_command(second, hetero_csv, shared)
    reference = _run_csv_command(second, hetero_csv, fresh)
    assert loaded["timings"]["read_processes"] == 0
    assert str(shared / "panel.npz") not in loaded["outputs"]
    _assert_same_outputs(shared, fresh, second[0])
    # the manifests differ only in timings and in panel.npz among the outputs
    for manifest in (loaded, reference):
        manifest.pop("timings")
        manifest["outputs"] = [Path(p).name for p in manifest["outputs"]]
    reference["outputs"].remove("panel.npz")
    assert loaded == reference
    written = {*_CSV_OUTPUTS[first[0]], *_CSV_OUTPUTS[second[0]], "manifest.json", "panel.npz"}
    if "--dump-units" not in first + second:
        written.discard("per_unit.csv")
    assert {p.name for p in shared.iterdir()} == written  # no temporary file left


def _edit_cache(name, edit):
    """A change to a panel.npz: its array ``name`` becomes ``edit(array)``."""

    def spoil(path):
        with np.load(path) as cache:
            held = {key: cache[key] for key in cache.files}
        held[name] = edit(held[name])
        np.savez(path, **held)

    return spoil


def _npy_file(path):
    with path.open("wb") as fh:
        np.save(fh, np.zeros(3))


@_NO_FILE_LEFT_OPEN
@pytest.mark.parametrize(
    "spoil",
    [
        lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
        lambda p: p.write_bytes(b"unit_id,time_id,y,x1\n"),
        _edit_cache("key", lambda key: np.array(["0" * 64, *key[1:]])),
        _edit_cache("key", lambda key: np.array([*key[:2], str(int(key[2]) + 1)])),
        _edit_cache("y", lambda y: np.r_[y[:1] * np.nan, y[1:]]),
        _edit_cache("ids", lambda ids: ids[: ids.tobytes().rindex(b"\0")]),
        _npy_file,
    ],
    ids=[
        "truncated", "not-a-zip", "other-csv-bytes", "other-format", "nan-in-y", "id-too-few",
        "npy-file",
    ],
)
@pytest.mark.parametrize("command", [["estimate", "--te", "--dump-units"], ["test", "--te"]])
def test_unusable_cache_falls_back_to_the_parse(hetero_csv, tmp_path, spoil, command):
    # a panel.npz the command cannot use changes no exit code or output: the
    # command parses the CSV and leaves a panel.npz that the next run loads
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    _run_csv_command(["estimate"], hetero_csv, out)
    spoil(out / "panel.npz")
    manifest = _run_csv_command(command, hetero_csv, out)
    _run_csv_command(command, hetero_csv, fresh)
    assert manifest["timings"]["read_processes"] >= 1
    assert str(out / "panel.npz") in manifest["outputs"]
    _assert_same_outputs(out, fresh, command[0])
    assert _run_csv_command(command, hetero_csv, out)["timings"]["read_processes"] == 0
    _assert_same_outputs(out, fresh, command[0])
    names = {"estimate.csv", "manifest.json", "panel.npz", *_CSV_OUTPUTS[command[0]]}
    assert {p.name for p in out.iterdir()} == names  # no temporary file left


def test_edited_csv_is_parsed_again(tmp_path):
    # one value changed after the cache was written: the command reads the
    # edited file, not the panel kept for the old one
    path = tmp_path / "panel.csv"
    write_panel_csv(path, random_panel(np.random.default_rng(5), n=60, T=3))
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    _run_csv_command(["estimate", "--dump-units"], path, out)
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[7].split(",")
    fields[2] = repr(float(fields[2]) + 0.5)
    lines[7] = ",".join(fields)
    path.write_text("".join(lines))
    for command in (["estimate", "--dump-units"], ["test"]):
        manifest = _run_csv_command(command, path, out)
        assert manifest["timings"]["read_processes"] == (1 if command[0] == "estimate" else 0)
        _run_csv_command(command, path, fresh)
        _assert_same_outputs(out, fresh, command[0])


@pytest.mark.parametrize(
    "argv, text, code",
    [
        (["test"], "unit_id,time_id,y,x1\n1,1,0.0,1.0\n1,2,1.0,2.0\n2,1,0.5,1.0\n", 2),
        (["estimate", "--method", "mg", "--te"],
         "unit_id,time_id,y,x1\n1,1,0.0,2.0\n1,2,1.0,2.5\n2,1,0.5,1.0\n2,2,1.5,3.0\n", 2),
        (["estimate", "--method", "mg"],
         "unit_id,time_id,y,x1\n1,1,0.0,2.0\n1,2,1.0,2.0\n2,1,0.5,1.0\n2,2,1.5,3.0\n"
         "3,1,0.1,0.5\n3,2,0.9,2.5\n", 3),
    ],
    ids=["bad-csv", "parsed-then-input-error", "numerical-failure"],
)
def test_failed_command_keeps_no_panel(tmp_path, argv, text, code):
    # only a command that exits 0 writes panel.npz; the last two parse the
    # CSV before they fail
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:], "--out", str(tmp_path / "out")]) == code
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


def test_unwritable_cache_changes_no_output(hetero_csv, tmp_path, monkeypatch):
    # a panel.npz that cannot be written is left out: exit 0, the same
    # outputs, no temporary file, and the manifest does not list it
    def full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    out, fresh = tmp_path / "out", tmp_path / "fresh"
    _run_csv_command(["test"], hetero_csv, fresh)
    monkeypatch.setattr(np, "savez", full)
    manifest = _run_csv_command(["test"], hetero_csv, out)
    assert {p.name for p in out.iterdir()} == {"hausman.json", "manifest.json"}
    assert manifest["outputs"] == [str(out / "hausman.json")]
    _assert_same_outputs(out, fresh, "test")


def test_csv_parsed_by_children_writes_the_same_outputs(hetero_csv, tmp_path, monkeypatch):
    # every output and manifest field but the timings is the same whether
    # this process parses the CSV or forked children parse runs of it
    import os

    from tmgpanel import panel

    def run(out, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(panel, "SPLIT_BYTES", 1)
        manifests = []
        for j, argv in enumerate((["estimate", "--te", "--dump-units"], ["test", "--te"], ["test"])):
            out_dir = out / str(j)
            assert main([argv[0], str(hetero_csv), *argv[1:], "--out", str(out_dir)]) == 0
            manifest = json.loads((out_dir / "manifest.json").read_text())
            manifest.pop("outputs")
            manifests.append((manifest.pop("timings")["read_processes"], manifest))
        return manifests

    whole, split = run(tmp_path / "whole", 1), run(tmp_path / "split", 2)
    assert [p for p, _ in whole] == [1, 1, 1] and [p for p, _ in split] == [2, 2, 2]
    assert [m for _, m in whole] == [m for _, m in split]
    for name in ("0/estimate.csv", "0/per_unit.csv", "1/hausman.json", "2/hausman.json"):
        assert (tmp_path / "whole" / name).read_bytes() == (tmp_path / "split" / name).read_bytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("te", [False, True])
def test_hausman_json_records_the_tmg_trimming(hetero_csv, tmp_path, monkeypatch, te):
    # the threshold a_n and trimmed fraction pi_n of the TMG fit the test
    # compared, read from the block's fit cache: TMG is fitted once
    import sys

    from tmgpanel import TrimConfig, tmg, tmg_te

    fit = tmg_te if te else tmg
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("tmgpanel"):
            for key, value in list(vars(mod).items()):
                if value is fit:
                    monkeypatch.setattr(mod, key, counted)
    argv = ["test", str(hetero_csv), "--alpha", "0.05", "--out", str(tmp_path)]
    assert main(argv + ["--te"] * te) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    panel, cfg = read_panel_csv(hetero_csv), TrimConfig(alpha=0.05)
    state = (tmg_te(panel, cfg)[0] if te else tmg(panel, cfg)).weighting.trim
    rec = json.loads((tmp_path / "hausman.json").read_text())
    assert list(rec) == ["variant", "statistic", "df", "p_value", "a_n", "pi_n"]
    assert (rec["a_n"], rec["pi_n"]) == (state.a_n, state.pi_n)
    assert 0.0 < rec["pi_n"] < 1.0


class TestHausmanCommand:
    def test_detects_correlated_heterogeneity(self, hetero_csv, tmp_path):
        rc = main(["test", str(hetero_csv), "--out", str(tmp_path)])
        assert rc == 0
        rec = json.loads((tmp_path / "hausman.json").read_text())
        assert rec["p_value"] < 0.05
        assert rec["variant"] == "no_te"

    def test_te_flag_routes_to_teqk(self, hetero_csv, tmp_path):
        rc = main(["test", str(hetero_csv), "--te", "--out", str(tmp_path)])
        assert rc == 0
        rec = json.loads((tmp_path / "hausman.json").read_text())
        assert rec["variant"] == "te_teqk"

    def test_homogeneous_fixture_large_p(self, tmp_path):
        cfg = DgpConfig(
            n=400, T=3, sigma2_alpha=0.2, sigma2_beta=0.0, rho_alpha=0.5,
            rho_beta=0.0, kappa2=8.0, seed=5,
        )
        panel, _ = generate_replication(cfg, 0)
        path = tmp_path / "homog.csv"
        write_panel_csv(path, panel)
        rc = main(["test", str(path), "--out", str(tmp_path)])
        assert rc == 0
        rec = json.loads((tmp_path / "hausman.json").read_text())
        assert rec["p_value"] > 0.05


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "{csv}", "--alpha", "1.5"], "--alpha: must be in (0, 1)"),
        (["test", "{csv}", "--alpha", "1.5"], "--alpha: must be in (0, 1)"),
        (["estimate", "{csv}", "--method", "gp", "--alpha-gp", "-1"], "--alpha-gp: must be"),
        (["power", "{scen}", "--grid-points", "0"], "--grid-points: must be at least 1"),
        (["simulate", "{scen}", "--jobs", "2"], "unrecognized arguments: --jobs"),
        (["calibrate", "{scen}", "--n-cal", "1"], "--n-cal: must be at least 2"),
        (["simulate", "{bad_trim}"], "alpha must be in (0,1)"),
        (["calibrate", "{scen}", "--n-cal", "10000000000000"], "--n-cal: must be at least 2"),
        (["power", "{scen}", "--grid-points", "10000000000000"],
         "--grid-points: must be at least 1"),
        (["simulate", "{scen}", "--reps", "1000000000000"], "--reps: must be at least 1"),
        (["calibrate", "{scen}", "--reps", "1000000000000"], "--reps: must be at least 1"),
    ],
)
def test_invalid_values_exit_2_with_message(hetero_csv, tmp_path, capsys, argv, message):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_payload(reps=4)))
    bad_trim = tmp_path / "bad_trim.json"
    bad_trim.write_text(json.dumps(scenario_payload(reps=4, trim_alpha=1.5)))
    paths = {"csv": hetero_csv, "scen": scen, "bad_trim": bad_trim}
    argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects a value before any command runs
        rc = exc.code
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


class TestSimulate:
    def test_results_csv_and_manifest(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(scenario_payload()))
        out = tmp_path / "run1"
        rc = main(["simulate", str(scen), "--out", str(out)])
        assert rc == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[0] == "estimator,metric,coefficient,value"
        assert any(r.startswith("tmg,bias,beta,") for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["reps"] == 12
        assert manifest["config_hash"]

    def test_jobs_do_not_change_bytes(self, tmp_path, monkeypatch):
        # one process on one core, and two on two cores with the split size
        # lowered to a fifth of the run's 8 x 120 units
        import os

        from tmgpanel import montecarlo

        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(scenario_payload(reps=8)))
        monkeypatch.setattr(montecarlo, "SPLIT_UNITS", 8 * 120 // 5)
        runs = []
        for cores in (1, 2):
            cpus = set(range(cores))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            out = tmp_path / f"cores{cores}"
            assert main(["simulate", str(scen), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            runs.append((manifest["processes"], (out / "results.csv").read_bytes()))
        assert [p for p, _ in runs] == [1, 2]
        assert runs[0][1] == runs[1][1]

    def test_results_parse_losslessly(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(scenario_payload(reps=6)))
        out = tmp_path / "run"
        main(["simulate", str(scen), "--out", str(out)])
        for line in (out / "results.csv").read_text().splitlines()[1:]:
            value = line.rsplit(",", 1)[1]
            parsed = float(value)
            assert format(parsed, ".17g") == value

    def test_seed_override_changes_results(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(scenario_payload(reps=6)))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(scen), "--out", str(out1)])
        main(["simulate", str(scen), "--seed", "8", "--out", str(out2)])
        assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()

    def test_invalid_scenario_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"n": 100, "T": 2, "bogus_field": 3}))
        rc = main(["simulate", str(scen), "--out", str(tmp_path)])
        assert rc == 2
        assert "bogus_field" in capsys.readouterr().err


class TestCalibrate:
    def test_kappa_record(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(
            json.dumps({"n": 1000, "T": 2, "rho_alpha": 0.5, "rho_beta": 0.5, "seed": 1})
        )
        out = tmp_path / "cal"
        rc = main(["calibrate", str(scen), "--reps", "40", "--n-cal", "1500",
                   "--out", str(out)])
        assert rc == 0
        rec = json.loads((out / "kappa2.json").read_text())
        assert rec["T"] == 2 and rec["r_kappa"] == 40
        assert 13.0 < rec["kappa2"] < 18.0  # near the known value for this design

    def test_rerun_byte_identical(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"n": 500, "T": 2, "seed": 3}))
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        main(["calibrate", str(scen), "--reps", "10", "--n-cal", "500", "--out", str(out1)])
        main(["calibrate", str(scen), "--reps", "10", "--n-cal", "500", "--out", str(out2)])
        assert (out1 / "kappa2.json").read_bytes() == (out2 / "kappa2.json").read_bytes()


class TestPower:
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--grid-points", "7"], "--grid-points"),
            (["--grid-min", "0.5", "--grid-max", "1.5"], "--grid-min, --grid-max"),
        ],
    )
    def test_scenario_grid_and_grid_flags_conflict(self, tmp_path, capsys, flags, named):
        # the grid has one source: a grid flag beside the scenario's
        # beta0_grid exits 2, naming both, before any output is written
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(scenario_payload(reps=4, beta0_grid=[0.9, 1.1])))
        out = tmp_path / "pow"
        assert main(["power", str(scen), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"the scenario's beta0_grid and {named} both set the power grid" in err
        assert not out.exists()
        # the scenario's grid alone still runs
        assert main(["power", str(scen), "--out", str(out)]) == 0
        assert len((out / "power.csv").read_text().splitlines()) == 1 + 2 * 2

    def test_tests_alone_have_no_power_curve(self, tmp_path, capsys, monkeypatch):
        # a test has no slope: a scenario whose tags are all tests exits 2,
        # naming them, before kappa^2 is calibrated or any output is written
        from tmgpanel import montecarlo

        def calibrate(*args, **kwargs):
            raise AssertionError("calibrated kappa^2")

        monkeypatch.setattr(montecarlo, "calibrate_kappa", calibrate)
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(scenario_payload(kappa2=None, estimators=["hausman"], reps=4)))
        out = tmp_path / "pow"
        assert main(["power", str(scen), "--out", str(out)]) == 2
        assert "estimators ['hausman'] are all tests" in capsys.readouterr().err
        assert not out.exists()

    def test_power_csv_columns(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(scenario_payload(estimators=["tmg"], reps=10)))
        out = tmp_path / "pow"
        rc = main(
            ["power", str(scen), "--grid-min", "0.8", "--grid-max", "1.2",
             "--grid-points", "5", "--out", str(out)]
        )
        assert rc == 0
        rows = (out / "power.csv").read_text().splitlines()
        assert rows[0] == "estimator,b0,rejection_rate,mc_se"
        assert len(rows) == 6
        b0s = [float(r.split(",")[1]) for r in rows[1:]]
        np.testing.assert_allclose(b0s, np.linspace(0.8, 1.2, 5))

    def test_default_grid_centers_on_true_slope(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(
            json.dumps(scenario_payload(estimators=["tmg"], reps=8, theta0=[1.0, 2.0]))
        )
        out = tmp_path / "pow2"
        rc = main(["power", str(scen), "--grid-points", "3", "--out", str(out)])
        assert rc == 0
        rows = (out / "power.csv").read_text().splitlines()
        b0s = [float(r.split(",")[1]) for r in rows[1:]]
        np.testing.assert_allclose(b0s, [1.5, 2.0, 2.5])


@pytest.mark.parametrize(
    "command, extra, payload, message",
    [
        ("calibrate", ["--reps", "0"], {}, "--reps: must be at least 1"),
        ("calibrate", ["--reps", "-1"], {}, "--reps: must be at least 1"),
        ("simulate", ["--reps", "0"], {}, "--reps: must be at least 1"),
        ("power", ["--reps", "0"], {}, "--reps: must be at least 1"),
        ("simulate", [], {"reps": 0}, "reps must be an integer >= 1"),
        ("calibrate", [], {"reps": 0}, "reps must be an integer >= 1"),
        ("simulate", [], {"n": 50.5}, "n must be an integer"),
        ("simulate", [], {"T": "2"}, "T must be an integer"),
        ("simulate", [], {"n": True}, "n must be an integer"),
        ("simulate", ["--seed", "-1"], {}, "seed must be non-negative"),
        ("simulate", [], {"theta0": [1]}, "theta0 must be two numbers"),
        ("simulate", [], {"estimators": "tmg"}, "estimators must be a list of tags"),
        ("power", [], {"beta0_grid": []}, "beta0_grid must be a non-empty list"),
        ("power", ["--grid-min", "nan"], {}, "--grid-min: must be finite"),
        ("power", ["--grid-max", "inf"], {}, "--grid-max: must be finite"),
        ("power", ["--grid-min=-inf", "--grid-max", "1"], {}, "--grid-min: must be finite"),
        ("simulate", [], {"trim_c_n": float("nan")}, "explicit C_n must be positive"),
        ("simulate", [], {"estimators": ["tmg", "bogus"]}, "unknown estimator tag 'bogus'"),
        ("power", [], {"estimators": ["tmg", "bogus"]}, "unknown estimator tag 'bogus'"),
        ("calibrate", [], {"estimators": ["tmg", "bogus"]}, "unknown estimator tag 'bogus'"),
        ("power", [], {"trim_alpha": 1.5}, "invalid trim_alpha/trim_c_n: alpha must be in (0,1)"),
        ("calibrate", [], {"trim_c_n": -1.0}, "explicit C_n must be positive"),
        ("simulate", [], {"alpha_gp": 0}, "alpha_gp must be a positive number"),
        ("power", [], {"alpha_gp": float("nan")}, "alpha_gp must be a positive number"),
        ("simulate", [], {"trim_c_n": float("inf")}, "explicit C_n must be positive and finite"),
        ("simulate", [], {"theta0": [1, float("nan")]}, "theta0 must be two numbers, both finite"),
        ("simulate", [], {"kappa2": float("nan")}, "kappa2 must be a finite number"),
        ("power", [], {"kappa2": float("inf")}, "kappa2 must be a finite number"),
        ("calibrate", [], {"sigma2_beta": float("inf")}, "sigma2_beta must be a finite number"),
        ("simulate", [], {"sigma2_alpha": float("nan")}, "sigma2_alpha must be a finite number"),
        ("simulate", [], {"rho_beta": float("nan")}, "rho_beta must be a finite number"),
        ("power", [], {"pr2": float("inf")}, "pr2 must be a finite number"),
        ("simulate", [], {"sigma2_beta": 10**400}, "sigma2_beta must be a finite number"),
        ("power", [], {"beta0_grid": [1, 10**400]}, "beta0_grid must be a non-empty list"),
        ("simulate", [], {"T": 10**30}, "T must be an integer from 2 to 10000,"),
        ("calibrate", [], {"T": 10**30}, "T must be an integer from 2 to 10000,"),
        ("simulate", [], {"n": 10**14}, "n must be an integer from 2 to 10000000,"),
        ("simulate", [], {"estimators": ["tmg", "gp"], "trim_c_n": 10**400},
         "trim_c_n must be a number"),
        ("power", [], {"estimators": ["tmg", "gp"], "alpha_gp": 10**400},
         "alpha_gp must be a positive number"),
        ("simulate", [], {"reps": 10**12}, "reps must be an integer >= 1 and at most 1000000,"),
        ("calibrate", [], {"reps": 10**12}, "reps must be an integer >= 1 and at most 1000000,"),
        ("simulate", [], {"estimators": []}, "estimators must be a list of tags, at least one"),
        ("calibrate", [], {"estimators": []}, "estimators must be a list of tags, at least one"),
        ("simulate", [], {"kappa2": -1.0}, "kappa2 must be a finite number >= 0, or null"),
        ("simulate", [], {"time_effects": 1}, "time_effects must be true or false"),
        ("simulate", [], {"heterosked": "none"}, "heterosked must be one of"),
    ],
)
def test_invalid_scenario_values_exit_2(
    tmp_path, capsys, monkeypatch, command, extra, payload, message
):
    # without kappa2 every command calibrates: a bad value must stop it first
    from tmgpanel import montecarlo

    def calibrate_kappa(*args, **kwargs):
        raise AssertionError("an invalid scenario reached the calibration")

    monkeypatch.setattr(montecarlo, "calibrate_kappa", calibrate_kappa)
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_payload(**{"reps": 4, "kappa2": None, **payload})))
    argv = [command, str(scen), *extra, "--out", str(tmp_path / "out")]
    if command == "calibrate":
        argv += ["--n-cal", "50"]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects a value before any command runs
        rc = exc.code
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("simulate", b'{"n": 100, "T": 2, "heterosked": "\xe9"}', "can't decode byte 0xe9"),
        ("calibrate", b'{"n": 1' + b"0" * 5000 + b', "T": 2}', "Exceeds the limit"),
        ("power", b"[" * 100_000, "maximum recursion depth"),
    ],
    ids=["not-utf8", "5001-digits", "deep-nesting"],
)
def test_unreadable_scenario_exits_2(tmp_path, capsys, command, content, message):
    scen = tmp_path / "scen.json"
    scen.write_bytes(content)
    assert main([command, str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"invalid JSON in {scen}" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "test", "simulate", "calibrate", "power"])
def test_directory_as_input_exits_2(tmp_path, capsys, command):
    assert main([command, str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert "Is a directory" in capsys.readouterr().err


def _scenario_bytes(**kw) -> bytes:
    return json.dumps(scenario_payload(**kw)).encode()


#: Every field a scenario may hold, and one it may not.
_SCENARIO_FIELDS = sorted(
    set(DgpConfig.__dataclass_fields__)
    | {"estimators", "reps", "trim_alpha", "trim_c_n", "alpha_gp", "beta0_grid", "bogus"}
)

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**600), max_value=10**600)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["tmg", "gaussian", "uniform095", "random"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

_scenario_files = st.one_of(
    st.builds(
        lambda k, v: _scenario_bytes(**{k: v}), st.sampled_from(_SCENARIO_FIELDS), _json_values
    ),
    st.binary(max_size=64),
)


#: What a stand-in for calibrate_kappa or run_experiment records in the
#: ``usage`` dict the CLI passes it, as the real ones do.
_STAND_IN_USAGE = {"processes": 1, "draw_threads": 0, "draw_seconds": 0.0, "fit_seconds": 0.0,
                   "draw_wait_seconds": 0.0, "consumer_fills": 0, "blocks": 0}


@settings(max_examples=150, deadline=None)
@given(content=_scenario_files)
@example(content=_scenario_bytes(T=10**30))
@example(content=_scenario_bytes(estimators=["tmg", "gp"], trim_c_n=10**400))
@example(content=b'{"n": 100, "T": 2, "heterosked": "\xe9"}')
def test_any_scenario_file_exits_0_2_or_3(content):
    # whatever the file holds, simulate, power and calibrate exit 0, 2 or 3
    # and never raise. No case calibrates or replicates: the stand-ins ask of
    # a scenario what every real run asks first, that n and T shape an array
    # and that the fit settings are doubles, and then return at once.
    from unittest import mock

    from tmgpanel import montecarlo

    def calibrate_kappa(cfg, *args, usage=None, **kwargs):
        np.empty((0, cfg.n, cfg.T))
        if usage is not None:
            usage.update(_STAND_IN_USAGE)
        return 15.5

    def run_experiment(cfg, estimators, reps, beta0_grid=None, trim_cfg=None, alpha_gp=None,
                       jobs=None, usage=None):
        np.empty((0, cfg.n, cfg.T))
        np.float64([alpha_gp, trim_cfg.alpha, trim_cfg.c_n or 0.0])
        if usage is not None:
            usage.update(_STAND_IN_USAGE)
        return []

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(montecarlo, "calibrate_kappa", calibrate_kappa), \
            mock.patch.object(montecarlo, "run_experiment", run_experiment):
        scen = Path(tmp) / "scen.json"
        scen.write_bytes(content)
        for command in ("simulate", "power", "calibrate"):
            argv = [command, str(scen), "--out", str(Path(tmp) / command)]
            assert main(argv) in (0, 2, 3)


def test_calibrate_draws_as_many_replications_as_simulate(tmp_path, monkeypatch):
    # the scenario's reps count Monte Carlo replications, not calibration
    # ones: calibrate without --reps gives the kappa^2 that simulate would use
    import inspect

    from tmgpanel import montecarlo

    real, seen = montecarlo.calibrate_kappa, []

    def spy(*args, **kwargs):
        call = inspect.signature(real).bind(*args, **kwargs)
        call.apply_defaults()
        seen.append((call.arguments["r_kappa"], call.arguments["n_cal"]))
        if call.arguments["usage"] is not None:
            call.arguments["usage"].update(_STAND_IN_USAGE)
        return 15.5

    monkeypatch.setattr(montecarlo, "calibrate_kappa", spy)
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"n": 100, "T": 2, "reps": 20}))
    assert main(["calibrate", str(scen), "--out", str(tmp_path / "cal")]) == 0
    assert main(["simulate", str(scen), "--out", str(tmp_path / "sim")]) == 0
    assert seen == [(1000, 5000)] * 2
    assert json.loads((tmp_path / "cal" / "kappa2.json").read_text())["r_kappa"] == 1000


@pytest.mark.parametrize(
    "flags, want",
    [
        (["--method", "tmg", "--te"], {"tmg_te": 1, "PanelDesign": 1}),
        (["--method", "fe"], {"tmg_te": 0, "PanelDesign": 0}),
    ],
)
def test_estimate_calls_the_fits_the_layer_trace_rebinds(
    hetero_csv, tmp_path, monkeypatch, flags, want
):
    # perfbench/layertrace.py rebinds every tmgpanel module attribute that
    # holds a traced function, and wraps PanelDesign.__init__. A fit table
    # holding functions captured at import would bypass it, and the trace
    # would read 0 calls without failing.
    import sys

    from tmgpanel.designs import PanelDesign
    from tmgpanel.timeeffects import tmg_te

    calls = {"tmg_te": 0, "PanelDesign": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, mod in list(sys.modules.items()):
        if name.startswith("tmgpanel"):
            for key, value in list(vars(mod).items()):
                if value is tmg_te:
                    monkeypatch.setattr(mod, key, counting("tmg_te", tmg_te))
    monkeypatch.setattr(
        PanelDesign, "__init__", counting("PanelDesign", PanelDesign.__init__)
    )
    assert main(["estimate", str(hetero_csv), *flags, "--out", str(tmp_path)]) == 0
    assert calls == want


@pytest.mark.parametrize("method", ["tmg", "gp"])
def test_per_unit_csv_bytes(hetero_csv, tmp_path, method):
    # the per-unit writer renders the bytes of the row-at-a-time _fmt writer:
    # every unit for TMG, the retained units' ids for GP
    from tmgpanel import gp, read_panel_csv, tmg
    from tmgpanel.cli import _fmt

    panel = read_panel_csv(hetero_csv)
    est = tmg(panel) if method == "tmg" else gp(panel, DEFAULT_ALPHA_GP)
    ids, rows = list(panel.unit_ids), est.per_unit
    if method == "gp":
        assert 0 < est.weighting.keep.sum() < panel.n
        ids = [uid for uid, kept in zip(ids, est.weighting.keep) if kept]
        rows = rows[est.weighting.keep]
    want = "unit_id,alpha,beta1\n" + "".join(
        str(uid) + "," + ",".join(_fmt(v) for v in row) + "\n" for uid, row in zip(ids, rows)
    )
    assert main(["estimate", str(hetero_csv), "--method", method, "--dump-units",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "per_unit.csv").read_bytes() == want.encode()


def _quoted(uid):
    if any(c in uid for c in ',"\r\n'):
        return '"' + uid.replace('"', '""') + '"'
    return uid


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("subset", [False, True])
def test_per_unit_writer_matches_row_by_row_format(tmp_path, extra, subset):
    # one % call per chunk renders the bytes of a "%s," + "%.17g"... row
    # format, around the chunk size, with special values, ids that need
    # quoting and a kept subset of units as GP has
    from types import SimpleNamespace

    from tmgpanel.cli import _WRITE_ROWS, _write_per_unit

    n = _WRITE_ROWS + extra
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308]
    rows.flat[rng.choice(rows.size, 64, replace=False)] = np.resize(special, 64)
    ids = [str(i) for i in range(n)]
    for i, uid in zip(rng.choice(n, 6, replace=False), ["a,b", 'q"x', "l\nf", "c\r", " 1", ""]):
        ids[i] = uid
    keep = rng.random(n) < 0.7 if subset else None
    _write_per_unit(
        tmp_path / "per_unit.csv", ("alpha", "beta1"), ids,
        SimpleNamespace(per_unit=rows, weighting=SimpleNamespace(keep=keep)),
    )
    kept = range(n) if keep is None else np.flatnonzero(keep)
    want = "unit_id,alpha,beta1\n" + "".join(
        ("%s," + ",".join(["%.17g"] * 2) + "\n") % (_quoted(ids[i]), *rows[i].tolist())
        for i in kept
    )
    assert (tmp_path / "per_unit.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("method", ["tmg", "tmgte", "gp", "gpte", "fe", "mg", "fete"])
def test_manifest_records_the_trimming_of_tmg_fits(hetero_csv, tmp_path, capsys, method):
    # TMG fits record a_n, pi_n and the trimmed count; GP fits (gpte is
    # gp --te) the squared bandwidth h_n^2, the kept count m and pi_n. The
    # line after the trimmed fraction prints the same record, less pi_n.
    # MG and the pooled fits trim nothing: no record, no trimmed fraction
    from tmgpanel import PanelBlock, tmg, tmg_te
    from tmgpanel.estimators import gp_threshold

    argv = ["--method", "gp", "--te"] if method == "gpte" else ["--method", method]
    assert main(["estimate", str(hetero_csv), *argv, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    lines = capsys.readouterr().out.splitlines()
    if method in ("fe", "mg", "fete"):
        assert "trimming" not in manifest
        assert not any(line.startswith("trimmed fraction") for line in lines)
        return
    keys = ["h_n2", "m"] if method in ("gp", "gpte") else ["a_n", "trimmed"]
    assert lines[-2].startswith("trimmed fraction pi_hat")
    assert lines[-1] == "  ".join(f"{key} = {manifest['trimming'][key]!r}" for key in keys)
    panel = read_panel_csv(hetero_csv)
    if method in ("gp", "gpte"):  # T = k: both keep the same units
        design = PanelBlock(y=panel.y[None], x=panel.x[None]).design
        h_n2 = gp_threshold(design, DEFAULT_ALPHA_GP)[0]
        m = int((design.d[0] > h_n2).sum())
        assert manifest["trimming"] == {"h_n2": h_n2, "m": m, "pi_n": 1.0 - m / panel.n}
        assert 0 < m < panel.n
        return
    state = (tmg(panel) if method == "tmg" else tmg_te(panel)[0]).weighting.trim
    assert manifest["trimming"] == {
        "a_n": state.a_n, "pi_n": state.pi_n, "trimmed": int(state.trimmed.sum())
    }
    assert 0 < manifest["trimming"]["trimmed"] < panel.n


def test_csv_with_a_byte_order_mark(hetero_csv, tmp_path):
    # Excel's "CSV UTF-8" starts with EF BB BF: it is skipped, and the
    # manifest still hashes the file's own bytes
    plain = hetero_csv.read_bytes()
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain)
    for path, out in ((hetero_csv, tmp_path / "plain"), (bom, tmp_path / "bom")):
        assert main(["estimate", str(path), "--dump-units", "--out", str(out)]) == 0
    for name in ("estimate.csv", "per_unit.csv"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    manifest = json.loads((tmp_path / "bom" / "manifest.json").read_text())
    assert manifest["parameters"]["csv_sha256"] == hashlib.sha256(bom.read_bytes()).hexdigest()
    # a text buffer that starts with U+FEFF is the same file
    text = io.StringIO("\ufeff" + plain.decode("utf-8"))
    assert read_panel_csv(text).unit_ids == read_panel_csv(hetero_csv).unit_ids


@pytest.mark.parametrize("command", ["simulate", "power", "calibrate"])
def test_monte_carlo_stage_timings(tmp_path, command):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_payload(reps=4, n=60)))
    argv = [command, str(scen), "--out", str(tmp_path)]
    argv += {"calibrate": ["--n-cal", "50"], "power": ["--grid-points", "3"]}.get(command, [])
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    timings = manifest["timings"]
    stages = [timings[k] for k in ("calibrate_seconds", "replicate_seconds", "write_seconds")]
    assert all(s >= 0.0 for s in stages)
    assert sum(stages) <= timings["wall_seconds"]
    if command == "calibrate":
        assert timings["calibrate_seconds"] > 0.0 and timings["replicate_seconds"] == 0.0
        run = timings["calibrate_seconds"]
    else:  # the scenario gives kappa^2
        assert timings["calibrate_seconds"] == 0.0 and timings["replicate_seconds"] > 0.0
        run = timings["replicate_seconds"]
    # one process: its draw and fit seconds lie within the stage they split
    assert manifest["processes"] == 1 and manifest["draw_threads"] in (0, 1)
    assert timings["draw_seconds"] > 0.0 and timings["fit_seconds"] > 0.0
    assert timings["draw_seconds"] + timings["fit_seconds"] <= run
    # the consumer's waits on the draw thread lie within its draw seconds
    assert 0.0 <= timings["draw_wait_seconds"] <= timings["draw_seconds"]
    reps = 1000 if command == "calibrate" else 4
    assert 0 <= manifest["consumer_fills"] <= reps
    if manifest["draw_threads"] == 0:  # inline, the consumer fills every replication
        assert manifest["consumer_fills"] == reps
    # no calibration ran before the run: no calibrate_ key beside the stage's
    assert [key for key in manifest if key.startswith("calibrate_")] == []
    assert [key for key in timings if key.startswith("calibrate_")] == ["calibrate_seconds"]
    # 4 replications of 60 units are one block; 1000 of 50 are five of 200
    assert manifest["blocks"] == (5 if command == "calibrate" else 1)


def _peak_rss(manifest) -> tuple:
    timings = manifest["timings"]
    return timings["peak_rss_mb"], timings["children_peak_rss_mb"]


def test_manifest_records_peak_memory_of_the_process_and_its_children(
    hetero_csv, tmp_path, monkeypatch
):
    # estimate on two cores, the CSV cut into two runs: the parse's forked
    # children are reaped, so their peak is recorded beside this process's;
    # simulate writes both keys too
    import os

    from tmgpanel import panel

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(panel, "SPLIT_BYTES", 1)
    manifest = _run_csv_command(["estimate"], hetero_csv, tmp_path / "estimate")
    assert manifest["timings"]["read_processes"] == 2
    own, children = _peak_rss(manifest)
    assert own > 0.0 and children > 0.0
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_payload(reps=4, n=60)))
    assert main(["simulate", str(scen), "--out", str(tmp_path / "simulate")]) == 0
    own, children = _peak_rss(json.loads((tmp_path / "simulate" / "manifest.json").read_text()))
    assert own > 0.0 and children >= 0.0


@pytest.mark.parametrize("command", ["simulate", "power"])
def test_calibration_before_a_run_recorded_apart(tmp_path, monkeypatch, command):
    # a scenario without kappa^2 calibrates it first, in one process; the
    # manifest records that stage's keys, prefixed, beside the run's
    from tmgpanel import montecarlo

    calibrate = montecarlo.calibrate_kappa
    monkeypatch.setattr(
        montecarlo, "calibrate_kappa",
        lambda cfg, usage: calibrate(cfg, r_kappa=5, n_cal=50, usage=usage),
    )
    payload = scenario_payload(reps=4, n=60)
    del payload["kappa2"]
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(payload))
    argv = [command, str(scen), "--out", str(tmp_path)]
    assert main(argv + (["--grid-points", "3"] if command == "power" else [])) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    timings = manifest["timings"]
    assert manifest["calibrate_processes"] == 1
    assert manifest["calibrate_draw_threads"] == montecarlo._draw_threads(1)
    assert timings["calibrate_draw_seconds"] > 0.0 and timings["calibrate_fit_seconds"] > 0.0
    assert (
        timings["calibrate_draw_seconds"] + timings["calibrate_fit_seconds"]
        <= timings["calibrate_seconds"]
    )
    assert 0.0 <= timings["calibrate_draw_wait_seconds"] <= timings["calibrate_draw_seconds"]
    assert 0 <= manifest["calibrate_consumer_fills"] <= 5
    assert manifest["calibrate_blocks"] == manifest["blocks"] == 1
    assert timings["draw_seconds"] + timings["fit_seconds"] <= timings["replicate_seconds"]


def test_calibration_splits_over_the_cores(tmp_path, monkeypatch):
    # a scenario without kappa^2 calibrates it over the cores: with the split
    # size at half the calibration's 5 x 50 units, two cores run it in two
    # processes and the smaller 4 x 60 run in one, and kappa^2 and
    # results.csv are those of one core
    import os

    from tmgpanel import montecarlo

    calibrate = montecarlo.calibrate_kappa
    monkeypatch.setattr(
        montecarlo, "calibrate_kappa",
        lambda cfg, usage: calibrate(cfg, r_kappa=5, n_cal=50, usage=usage),
    )
    monkeypatch.setattr(montecarlo, "SPLIT_UNITS", 5 * 50 // 2)
    payload = scenario_payload(reps=4, n=60)
    del payload["kappa2"]
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(payload))
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        out = tmp_path / f"cores{cores}"
        assert main(["simulate", str(scen), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["calibrate_blocks"] == cores
        runs.append((
            (manifest["calibrate_processes"], manifest["processes"]),
            manifest["parameters"]["scenario"]["kappa2"],
            (out / "results.csv").read_bytes(),
        ))
    assert [r[0] for r in runs] == [(1, 1), (2, 1)]
    assert runs[0][1:] == runs[1][1:]


def test_simulate_reports_failures_by_reason(tmp_path, capsys):
    # an absurd explicit threshold trims every unit of every replication
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_payload(reps=4, trim_alpha=0.5, trim_c_n=1e12)))
    assert main(["simulate", str(scen), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "results.csv").read_text().splitlines()
    tmg_rows = [r for r in rows if r.startswith("tmg,")]
    assert tmg_rows[-2:] == ["tmg,failures,,4", "tmg,failures.AllTrimmedError,,4"]
    assert not any(r.startswith("fe,failures.") for r in rows)
    assert "tmg: failures=4 (AllTrimmedError=4)" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failed_replications"] == {"fe": {}, "tmg": {"AllTrimmedError": [0, 1, 2, 3]}}


def test_simulate_fits_n_1000_in_blocks_of_ten(tmp_path):
    # with kappa^2 given, 20 replications of 1000 units are two blocks
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_payload(n=1000, reps=20)))
    assert main(["simulate", str(scen), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["blocks"] == 2 and "calibrate_blocks" not in manifest


def test_csv_commands_start_without_the_engine(tmp_path):
    # estimate and test read their tag table from tmgpanel.tags: neither they
    # nor a bare import load the Monte Carlo engine, which this process has.
    # No bytecode is written, so the child compiles what it imports, as a
    # command does where none can be written
    import os
    import subprocess
    import sys

    import tmgpanel

    assert "tmgpanel.montecarlo" in sys.modules
    csv_path = tmp_path / "small.csv"
    write_panel_csv(csv_path, random_panel(np.random.default_rng(3), n=40, T=3))
    script = (
        "import sys, tmgpanel\n"
        "bare = 'tmgpanel.montecarlo' in sys.modules\n"
        "from tmgpanel.cli import main\n"
        "csv, out = sys.argv[1:]\n"
        "codes = [main(['estimate', csv, '--te', '--dump-units', '--out', out]),\n"
        "         main(['test', csv, '--te', '--out', out])]\n"
        "print(bare, codes, 'tmgpanel.montecarlo' in sys.modules)\n"
    )
    src = str(Path(tmgpanel.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(csv_path), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "False [0, 0] False"
    assert (tmp_path / "out" / "per_unit.csv").exists()
    assert (tmp_path / "out" / "hausman.json").exists()
