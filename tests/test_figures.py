import math
import pathlib

import numpy as np
import pytest

from qbnet import FIGURE_COLUMNS, FIGURE_IDS, figure_table, run_figure

# one shared computation per panel for all assertions below
_tables = {}


def table(fig_id):
    if fig_id not in _tables:
        _tables[fig_id] = figure_table(fig_id)
    return _tables[fig_id]


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_column_contract(fig_id):
    t = table(fig_id)
    assert t.columns == FIGURE_COLUMNS[fig_id]
    assert t.rows
    assert all(np.isfinite(v) for row in t.rows for v in row)
    assert not t.errors


def test_unknown_figure_id():
    with pytest.raises(ValueError, match="unknown figure id"):
        figure_table("fig9z")


class TestPanelContent:
    def test_fig2a_argmax_metadata(self):
        t = table("fig2a")
        assert len(t.rows) == 41 * 41
        assert "argmax" in t.metadata
        # maximum sits within one grid cell of (-pi/2, -pi/2)
        rows = np.asarray(t.rows)
        peak = rows[np.argmax(rows[:, 2])]
        cell = 2 * math.pi / 41
        assert abs(peak[0] + math.pi / 2) <= cell
        assert abs(peak[1] + math.pi / 2) <= cell

    def test_fig2b_weak_regime_ordering(self):
        rows = np.asarray(table("fig2b").rows)
        weak = rows[(rows[:, 0] >= 0.005) & (rows[:, 0] <= 0.1)]
        assert np.all(weak[:, 1] > weak[:, 3])  # E_nr > E_r2
        assert np.all(weak[:, 3] > weak[:, 2])  # E_r2 > E_r1

    def test_fig2d_gain_limits(self):
        rows = np.asarray(table("fig2d").rows)
        assert rows[0, 1] == pytest.approx(64.0, rel=0.05)
        assert rows[0, 2] == pytest.approx(8.0, rel=0.05)

    def test_fig2f_rows(self):
        rows = np.asarray(table("fig2f").rows)
        assert list(rows[:, 0]) == [1, 3, 5, 7, 9, 11, 13, 15]
        assert rows[0, 2] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(rows[:, 2]) > 0)
        k = float(table("fig2f").metadata["logfit_k"])
        assert 0.05 <= k <= 0.075

    def test_fig3d_dynamics(self):
        rows = np.asarray(table("fig3d").rows)
        assert rows.shape == (2001, 4)
        assert rows[0, 1:].max() == 0.0  # vacuum start
        assert rows[-1, 1] > rows[-1, 3] > rows[-1, 2]  # nr > r2 > r1 late

    def test_fig4a_power_positive_with_peak(self):
        rows = np.asarray(table("fig4a").rows)
        i = int(np.argmax(rows[:, 1]))
        assert 0 < i < rows.shape[0] - 1
        assert rows[-1, 1] < 0.2 * rows[i, 1]  # long-time decay

    def test_fig4c_eta_plateaus(self):
        rows = np.asarray(table("fig4c").rows)
        assert rows[0, 1] == pytest.approx(256.0, rel=0.1)
        assert np.all(np.abs(rows[:, 2] - 16.0) <= 0.2 * 16.0)

    def test_fig4d_eta_plateaus(self):
        rows = np.asarray(table("fig4d").rows)
        assert rows[0, 1] == pytest.approx(4.0, rel=0.1)
        assert np.all(np.abs(rows[:, 2] - 2.0) <= 0.2 * 2.0)


class TestRunFigure:
    def test_writes_csv(self, tmp_path):
        paths = run_figure("fig2f", str(tmp_path), deterministic=True)
        assert len(paths) == 1
        text = (tmp_path / "fig2f.csv").read_text()
        assert text.splitlines()[0] == "# table = fig2f"
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "N,gb_opt,ratio_Emax"

    def test_reruns_byte_identical(self, tmp_path):
        run_figure("fig2f", str(tmp_path / "a"), deterministic=True)
        run_figure("fig2f", str(tmp_path / "b"), deterministic=True)
        a = (tmp_path / "a" / "fig2f.csv").read_bytes()
        b = (tmp_path / "b" / "fig2f.csv").read_bytes()
        assert a == b

    def test_json_format(self, tmp_path):
        import json
        run_figure("fig2f", str(tmp_path), fmt="json", deterministic=True)
        doc = json.loads((tmp_path / "fig2f.json").read_text())
        assert doc["columns"] == list(FIGURE_COLUMNS["fig2f"])


#: the committed reference datasets, one CSV per panel
FIGURE_DATA = pathlib.Path(__file__).resolve().parents[1] / "figure_data"


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_committed_data_is_current(fig_id, tmp_path):
    # every committed panel is what the code writes now, byte for byte
    (path,) = run_figure(fig_id, str(tmp_path), deterministic=True)
    assert pathlib.Path(path).read_bytes() == (FIGURE_DATA / f"{fig_id}.csv").read_bytes()
