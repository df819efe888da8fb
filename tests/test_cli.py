import json
import pathlib
import subprocess
import sys

import pytest

import qbnet
from qbnet.cli import cli_main


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSteady:
    def test_value_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "steady", "--family", "cascaded",
                           "--variant", "nr", "--n", "3", "--gb", "0.01",
                           "--gamma", "0.1", "--xi", "1")
        assert code == 0
        value = float(out.strip().split("=")[1])
        assert value == pytest.approx(0.2056756186979704, rel=1e-9)

    def test_parallel_prints_every_battery(self, capsys):
        code, out, _ = run(capsys, "steady", "--family", "parallel",
                           "--variant", "nr", "--n", "2", "--gb", "0.01",
                           "--gamma", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "[b_1]" in lines[0] and "[b_2]" in lines[1]

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "steady", "--family", "cascaded",
                           "--variant", "nr", "--n", "1", "--gb", "0.05",
                           "--gamma", "0.1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["battery", "E_over_omega"]

    def test_gamma_c_overrides_gamma(self, capsys):
        flags = ("steady", "--family", "cascaded", "--variant", "r1", "--n", "1",
                 "--gb", "0.05", "--gamma", "0.1")
        code, out, _ = run(capsys, *flags, "--gamma-c", "0.3")
        assert code == 0
        # the charger takes 0.3, the battery keeps --gamma
        assert float(out.strip().split("=")[1]) == qbnet.steady_energy(
            qbnet.TopologyParams("cascaded", "r1", 1, 0.05, 0.3, 0.1, 0.1, 1.0))

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "steady", "--family", "cascaded")
        assert code == 2
        assert "missing topology parameters" in err


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(capsys, "steady", "--frobnicate")[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "explode")[0] == 2

    @pytest.mark.parametrize("flags, message", [
        (("--t-max", "0"), "--t-max must be > 0, got 0.0"),
        (("--points", "1"), "--points must be >= 2, got 1"),
        (("--xi", "1+"), "not a complex number: '1+'"),
        (("--theta", "0,x"), "not a comma-separated angle list: '0,x'")],
        ids=["t-max", "points", "xi", "theta"])
    def test_bad_grid_or_flag(self, capsys, flags, message):
        code, _, err = run(capsys, "evolve", "--family", "cascaded", "--variant", "nr",
                           "--n", "2", "--gb", "0.01", "--gamma", "0.1",
                           "--t-max", "10", *flags)
        assert code == 2
        assert message in err

    def test_numeric_failure(self, capsys):
        # undamped direct chain: solvable algebraically but not decaying
        code, _, err = run(capsys, "steady", "--family", "cascaded",
                           "--variant", "r1", "--n", "1", "--gb", "0.05",
                           "--gamma", "0")
        assert code == 3
        assert "numeric error" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "sweep", "--config", "/nonexistent.json")
        assert code == 2


class TestConfigDriven:
    def topo(self):
        return {"family": "cascaded", "variant": "nr", "n": 2, "g_b": 0.01,
                "gamma_c": 0.1, "gamma_b": 0.1, "Gamma": 0.1, "xi": 1.0}

    def test_steady_from_config_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"topology": self.topo()}))
        code, out, _ = run(capsys, "steady", "--config", str(cfg))
        assert code == 0
        base = float(out.strip().split("=")[1])
        code, out, _ = run(capsys, "steady", "--config", str(cfg),
                           "--n", "3")
        assert code == 0
        assert float(out.strip().split("=")[1]) != pytest.approx(base)

    def test_sweep_end_to_end(self, tmp_path, capsys):
        doc = {"topology": self.topo(),
               "sweep": {"variable": "g_b", "values": [0.001, 0.01]},
               "observables": ["steady_energy"]}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "sweep", "--config", str(cfg),
                           "--out", str(out_dir), "--deterministic")
        assert code == 0
        csv = (out_dir / "sweep_g_b.csv").read_text()
        lines = [l for l in csv.splitlines() if not l.startswith("#")]
        assert lines[0] == "g_b,steady_energy"
        assert len(lines) == 3

    def test_sweep_to_stdout(self, tmp_path, capsys):
        doc = {"topology": self.topo(),
               "sweep": {"variable": "g_b", "values": [0.01]}}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert "g_b,steady_energy" in out

    def test_sweep_format_from_config(self, tmp_path, capsys):
        doc = {"topology": self.topo(),
               "sweep": {"variable": "g_b", "values": [0.01]},
               "format": "json"}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "sweep", "--config", str(cfg),
                           "--out", str(out_dir))
        assert code == 0
        assert out.strip() == str(out_dir / "sweep_g_b.json")
        assert json.loads((out_dir / "sweep_g_b.json").read_text())["rows"]
        code, out, _ = run(capsys, "sweep", "--config", str(cfg),
                           "--out", str(out_dir), "--format", "csv")
        assert code == 0
        assert out.strip() == str(out_dir / "sweep_g_b.csv")

    def test_sweep_writes_to_the_config_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "from_config"
        doc = {"topology": self.topo(),
               "sweep": {"variable": "g_b", "values": [0.01]},
               "out_dir": str(out_dir)}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert out.strip() == str(out_dir / "sweep_g_b.csv")
        assert "g_b,steady_energy" in (out_dir / "sweep_g_b.csv").read_text()
        # --out overrides the config's out_dir
        code, out, _ = run(capsys, "sweep", "--config", str(cfg),
                           "--out", str(tmp_path / "flag"))
        assert code == 0
        assert out.strip() == str(tmp_path / "flag" / "sweep_g_b.csv")
        assert (tmp_path / "flag" / "sweep_g_b.csv").exists()

    def test_sweep_json_to_stdout_lists_refused_points(self, tmp_path, capsys):
        topo = dict(self.topo(), variant="r1")
        doc = {"topology": topo,
               "sweep": {"variable": "gamma", "values": [0.1, 0.0]}}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg),
                           "--format", "json")
        assert code == 0
        printed = json.loads(out)
        assert len(printed["rows"]) == 1
        assert [(e["row_index"], e["point"]) for e in printed["errors"]] == [(1, 0.0)]
        assert printed["toolkit_version"]

    def test_schema_error_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"topology": self.topo(), "plots": True}))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "config.plots" in err


class TestValidate:
    def test_good_network(self, tmp_path, capsys):
        doc = {"modes": [{"id": "c", "role": "charger", "decay_rate": 0.1},
                         {"id": "a_1", "role": "intermediate", "decay_rate": 0.1},
                         {"id": "b_1", "role": "battery", "decay_rate": 0.1}],
               "couplings": [{"source": "c", "target": "a_1", "strength": 0.02},
                             {"source": "a_1", "target": "b_1", "strength": 0.02},
                             {"source": "c", "target": "b_1", "strength": 0.01,
                              "phase": -1.5707963267948966}],
               "drives": [{"mode": "c", "amplitude": [1.0, 0.5]}]}
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--config", str(cfg))
        assert code == 0
        assert out.strip() == "ok"

    def test_run_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"topology": {
            "family": "parallel", "variant": "custom", "n": 2, "g_b": 0.01,
            "gamma_c": 0.1, "gamma_b": 0.1, "Gamma": 0.1, "xi": 1.0,
            "thetas": [0.5, 4.0]}}))
        code, out, _ = run(capsys, "validate", "--config", str(cfg))
        assert code == 0
        assert out.strip() == "ok"

    def test_neither_network_nor_run_config(self, tmp_path, capsys):
        cfg = tmp_path / "other.json"
        cfg.write_text(json.dumps({"couplings": []}))
        code, _, err = run(capsys, "validate", "--config", str(cfg))
        assert code == 2
        assert "expected a 'modes' or 'topology' document" in err

    def test_bad_network(self, tmp_path, capsys):
        doc = {"modes": [{"id": "c", "role": "charger", "decay_rate": 0.1},
                         {"id": "c", "role": "battery", "decay_rate": 0.1}],
               "couplings": [], "drives": []}
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", "--config", str(cfg))
        assert code == 2
        assert "duplicate mode id" in err


class TestOtherCommands:
    def test_evolve(self, capsys):
        code, out, _ = run(capsys, "evolve", "--family", "parallel",
                           "--variant", "nr", "--n", "2", "--gb", "0.001",
                           "--gamma", "0.1", "--t-max", "100", "--points", "11")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "t,E_over_omega"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    def test_power(self, capsys):
        code, out, _ = run(capsys, "power", "--family", "cascaded",
                           "--variant", "nr", "--n", "1", "--gb", "0.05",
                           "--gamma", "0.1", "--t-max", "500", "--points", "21")
        assert code == 0
        assert "# p_max = " in out
        assert "# t_star = " in out

    def test_gains(self, capsys):
        code, out, _ = run(capsys, "gains", "--family", "parallel",
                           "--variant", "nr", "--n", "2", "--gb", "0.01",
                           "--gamma", "0.1")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "battery,E_nr,E_r1,E_r2,G1,G2"
        assert len(lines) == 3
        g1 = float(lines[2].split(",")[4])
        assert g1 == pytest.approx(1.653061224489796, rel=1e-8)

    def test_landscape(self, capsys):
        code, out, _ = run(capsys, "landscape", "--family", "cascaded",
                           "--variant", "custom", "--n", "2", "--gb", "0.01",
                           "--gamma", "0.1", "--theta", "0,0", "--points", "21")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "theta_1,theta_2,E_over_omega"
        assert len(lines) == 1 + 21 * 21

    def test_landscape_size_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(qbnet.nonreciprocity, "MAX_LANDSCAPE_POINTS", 1000)
        code, out, err = run(capsys, "landscape", "--family", "cascaded",
                             "--variant", "custom", "--n", "2", "--gb", "0.01",
                             "--gamma", "0.1", "--theta", "0,0", "--points", "41")
        assert code == 2
        assert out == "" and "landscape limit" in err

    def test_figure(self, tmp_path, capsys):
        code, out, _ = run(capsys, "figure", "fig2f", "--out", str(tmp_path),
                           "--deterministic")
        assert code == 0
        assert (tmp_path / "fig2f.csv").exists()


TOPOLOGY_FLAGS = ("--family", "cascaded", "--variant", "custom", "--n", "2",
                  "--gb", "0.01", "--gamma", "0.1", "--theta", "0,0")


@pytest.mark.parametrize("command", ["steady", "evolve", "power", "landscape",
                                     "sweep", "sweep-gains"])
def test_unknown_target_is_a_usage_error(command, tmp_path, capsys):
    if command.startswith("sweep"):
        cfg = tmp_path / "sweep.json"
        doc = {"topology": {"family": "cascaded", "variant": "nr", "n": 2,
                            "g_b": 0.01, "gamma_c": 0.1, "gamma_b": 0.1,
                            "Gamma": 0.1, "xi": 1.0},
               "sweep": {"variable": "g_b", "values": [0.01]}, "target": "zz"}
        if command == "sweep-gains":
            doc["observables"] = ["gains"]
        cfg.write_text(json.dumps(doc))
        argv = ("sweep", "--config", str(cfg))
    else:
        argv = (command, *TOPOLOGY_FLAGS, "--target", "zz")
        if command in ("evolve", "power"):
            argv += ("--t-max", "10", "--points", "5")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err == "error: unknown mode id 'zz'\n"


def test_console_entry_point():
    # run from the directory holding the package under test, so ``-m``
    # finds it whether or not it is installed or on PYTHONPATH
    src = pathlib.Path(qbnet.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "qbnet", "steady", "--family", "cascaded",
         "--variant", "nr", "--n", "1", "--gb", "0.05", "--gamma", "0.1"],
        capture_output=True, text=True, cwd=src)
    assert result.returncode == 0
    assert float(result.stdout.split("=")[1]) == pytest.approx(100.0, rel=1e-9)


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; no parsed state may carry
    # from one call into the next (the sweep takes its format from the
    # config, the figure after it must still write CSV)
    src = pathlib.Path(qbnet.__file__).resolve().parents[1]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "topology": {"family": "cascaded", "variant": "nr", "n": 2, "g_b": 0.01,
                     "gamma_c": 0.1, "gamma_b": 0.1, "Gamma": 0.1, "xi": 1.0},
        "sweep": {"variable": "gamma", "values": [0.1, 0.0, 0.2]},
        "observables": ["steady_energy", "gains"], "format": "json"}))
    calls = [["figure", "fig2f", "--out", str(tmp_path / "figs"), "--deterministic"],
             ["steady", "--family", "parallel", "--variant", "nr", "--n", "2",
              "--gb", "0.01", "--gamma", "0.1"],
             ["sweep", "--config", str(config)],
             ["figure", "fig2f", "--out", str(tmp_path / "figs"), "--deterministic"]]
    outputs = []
    for argv in calls:
        code = cli_main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "qbnet", *argv],
                               capture_output=True, text=True, cwd=src)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        outputs.append(captured.out)
    assert json.loads(outputs[2])["errors"]  # the undamped point is refused
    assert outputs[3].strip().endswith("fig2f.csv")
