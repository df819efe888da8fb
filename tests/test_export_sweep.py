import json
import math

import numpy as np
import pytest

from qbnet import SweepTable, parse_run_config, run_sweep
from qbnet.export import format_number, table_to_csv_text, write_table


def small_table():
    return SweepTable("demo", ("x", "y"), [[1.0, 2.5], [2.0, 1.0 / 3.0]],
                      {"alpha": "0.1"})


class TestExport:
    def test_seventeen_digits_round_trip(self):
        for value in (1 / 3, math.pi, 1e-300, 123456.789, 0.1 + 0.2):
            assert float(format_number(value)) == value

    def test_csv_layout(self, tmp_path):
        assert write_table(small_table(), str(tmp_path), deterministic=True) == [
            str(tmp_path / "demo.csv")]
        lines = (tmp_path / "demo.csv").read_text().splitlines()
        assert lines[0] == "# table = demo"
        assert lines[1].startswith("# toolkit_version = ")
        assert lines[2] == "# alpha = 0.1"
        assert lines[3] == "x,y"
        assert lines[4].split(",")[0] == "1"
        assert len(lines) == 6

    def test_timestamp_suppressed_only_when_deterministic(self, tmp_path):
        t = small_table()
        write_table(t, str(tmp_path / "a"), deterministic=False)
        write_table(t, str(tmp_path / "b"), deterministic=True)
        assert "# created = " in (tmp_path / "a" / "demo.csv").read_text()
        assert "# created = " not in (tmp_path / "b" / "demo.csv").read_text()

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        t = small_table()
        for fmt in ("csv", "json"):
            write_table(t, str(tmp_path / "a"), fmt, deterministic=True)
            write_table(t, str(tmp_path / "b"), fmt, deterministic=True)
            assert ((tmp_path / "a" / f"demo.{fmt}").read_bytes()
                    == (tmp_path / "b" / f"demo.{fmt}").read_bytes())

    def test_error_sidecar(self, tmp_path):
        t = small_table()
        t.errors.append((1, 0.5, "unstable point"))
        paths = write_table(t, str(tmp_path), "csv", deterministic=True)
        assert len(paths) == 2
        sidecar = (tmp_path / "demo_errors.csv").read_text()
        assert "unstable point" in sidecar
        main = (tmp_path / "demo.csv").read_text()
        assert "nan" not in main

    def test_json_mirrors_columns(self, tmp_path):
        paths = write_table(small_table(), str(tmp_path), "json",
                            deterministic=True)
        doc = json.loads((tmp_path / "demo.json").read_text())
        assert doc["columns"] == ["x", "y"]
        assert doc["rows"][0] == [1.0, 2.5]
        assert "created" not in doc

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            SweepTable("bad", ("x", "y"), [[1.0]])

    def test_csv_text(self):
        text = table_to_csv_text(small_table())
        assert text.startswith("# table = demo\n")
        assert "x,y\n" in text

    def test_csv_values_are_format_number(self):
        # rows are formatted a whole row at a time; every value must read
        # as format_number writes it, the special values included
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 7, 1e22,
                  1.0 / 3.0]
        table = SweepTable("edge", tuple(f"c{i}" for i in range(len(values))),
                           [values, values[::-1]])
        rows = table_to_csv_text(table).splitlines()[-2:]
        assert [row.split(",") for row in rows] == [
            [format_number(v) for v in values],
            [format_number(v) for v in values[::-1]]]


def config_doc(**over):
    doc = {
        "topology": {"family": "cascaded", "variant": "nr", "n": 2,
                     "g_b": 0.01, "gamma_c": 0.1, "gamma_b": 0.1,
                     "Gamma": 0.1, "xi": 1.0},
        "sweep": {"variable": "g_b", "values": [0.001, 0.005, 0.02]},
        "observables": ["steady_energy"],
    }
    doc.update(over)
    return doc


class TestRunSweep:
    def test_three_rows(self):
        table = run_sweep(parse_run_config(config_doc()))
        assert len(table.rows) == 3
        assert table.columns == ("g_b", "steady_energy")
        assert [row[0] for row in table.rows] == [0.001, 0.005, 0.02]

    def test_empty_range(self):
        doc = config_doc()
        doc["sweep"]["values"] = []
        table = run_sweep(parse_run_config(doc))
        assert table.rows == []
        assert table.errors == []

    def test_unstable_point_goes_to_sidecar(self):
        doc = config_doc()
        # an undamped direct chain has no attracting steady state; the
        # other points stay intact
        doc["topology"]["variant"] = "r1"
        doc["sweep"] = {"variable": "gamma", "values": [0.0, 0.1, 0.2]}
        table = run_sweep(parse_run_config(doc))
        assert len(table.rows) == 2
        assert len(table.errors) == 1
        assert table.errors[0][0] == 0
        assert not any(math.isnan(v) for row in table.rows for v in row)

    def test_gains_observable(self):
        doc = config_doc(observables=["gains"])
        table = run_sweep(parse_run_config(doc))
        assert table.columns == ("g_b", "E_nr", "E_r1", "E_r2", "G1", "G2")
        # weak-coupling gain ordering survives the sweep machinery
        assert table.rows[0][4] > table.rows[2][4]

    def test_undefined_gain_goes_to_sidecar(self):
        # at xi = 0 every energy vanishes and both gains are undefined
        doc = config_doc(observables=["gains"])
        doc["sweep"] = {"variable": "xi", "values": [0.0, 1.0]}
        table = run_sweep(parse_run_config(doc))
        assert [row[0] for row in table.rows] == [1.0]
        assert table.errors == [(0, 0.0, "undefined ratio: G1[b_2]; G2[b_2]")]

    def test_infinite_gain_goes_to_sidecar(self):
        # at xi = 1e160 the energies overflow to inf and inf / inf is NaN:
        # the point is refused, not written as a row holding NaN
        doc = config_doc(observables=["gains"])
        doc["sweep"] = {"variable": "xi", "values": [1.0, 1e160]}
        table = run_sweep(parse_run_config(doc))
        assert [row[0] for row in table.rows] == [1.0]
        assert table.errors == [(1, 1e160, "undefined ratio: G1[b_2]; G2[b_2]")]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("observables", [
        ["steady_energy"], ["steady_energy", "max_power"], ["steady_energy", "gains"],
        ["max_power", "steady_energy"]])
    def test_overflowing_energy_goes_to_sidecar(self, observables):
        # at xi = 1e160 the energy overflows to inf: the point is refused
        # naming the first observable that overflows, and nothing warns
        doc = config_doc(observables=observables)
        doc["sweep"] = {"variable": "xi", "values": [1.0, 1e160]}
        table = run_sweep(parse_run_config(doc))
        assert [row[0] for row in table.rows] == [1.0]
        [(i, value, message)] = table.errors
        first = "steady_energy" if observables[0] == "steady_energy" else "p_max"
        assert (i, value) == (1, 1e160) and message.startswith(f"{first} overflows")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("observables", [["max_power"], ["gains", "max_power"],
                                             ["max_power", "gains"]])
    def test_overflowing_peak_goes_to_sidecar(self, observables):
        # at xi = 1e160 p_max overflows to inf: whatever the order of the
        # observables, the point is refused naming p_max, and nothing warns
        doc = config_doc(observables=observables)
        doc["sweep"] = {"variable": "xi", "values": [1.0, 1e160]}
        table = run_sweep(parse_run_config(doc))
        assert [row[0] for row in table.rows] == [1.0]
        [(i, value, message)] = table.errors
        assert (i, value) == (1, 1e160) and message.startswith("p_max overflows")

    def test_theta_sweep(self):
        doc = config_doc()
        doc["topology"]["variant"] = "custom"
        doc["topology"]["thetas"] = [0.0, 0.0]
        doc["sweep"] = {"variable": "theta", "index": 2,
                        "values": [0.0, -math.pi / 2]}
        table = run_sweep(parse_run_config(doc))
        assert len(table.rows) == 2
        assert table.columns[0] == "theta_2"
        # the optimally phased link stores more energy
        assert table.rows[1][1] > table.rows[0][1]

    def test_n_sweep(self):
        doc = config_doc()
        doc["sweep"] = {"variable": "n", "values": [1, 2, 3]}
        table = run_sweep(parse_run_config(doc))
        assert [row[0] for row in table.rows] == [1.0, 2.0, 3.0]

    def test_max_power_observable(self):
        doc = config_doc(observables=["max_power"])
        doc["sweep"]["values"] = [0.01]
        table = run_sweep(parse_run_config(doc))
        assert table.columns == ("g_b", "t_star", "p_max")
        assert table.rows[0][2] > 0
