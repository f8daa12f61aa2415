import json

import numpy as np
import pytest

from tmgpanel import BalancedPanel, DgpConfig, generate_replication
from tmgpanel.cli import main
from tmgpanel.estimators import DEFAULT_ALPHA_GP

import oracles


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

    def test_dump_units(self, hetero_csv, tmp_path):
        rc = main(
            ["estimate", str(hetero_csv), "--method", "tmg", "--dump-units",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        dump = (tmp_path / "per_unit.csv").read_text().splitlines()
        assert dump[0] == "unit_id,alpha,beta1"
        assert len(dump) == 5001

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

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("unit_id,time_id,y,x1\n1,1,0.0,1.0\n1,2,1.0,2.0\n2,1,0.5,1.0\n")
        rc = main(["test", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "missing cells" in capsys.readouterr().err

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
        (["simulate", "{scen}", "--jobs", "0"], "--jobs: must be at least 1"),
        (["calibrate", "{scen}", "--n-cal", "1"], "--n-cal: must be at least 2"),
        (["simulate", "{bad_trim}"], "alpha must be in (0,1)"),
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

    def test_jobs_do_not_change_bytes(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(scenario_payload(reps=8)))
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(["simulate", str(scen), "--jobs", "1", "--out", str(out1)]) == 0
        assert main(["simulate", str(scen), "--jobs", "2", "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

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
