"""Charging curves by the contour sum, against 40-digit mpmath.

``evolve`` reads every isolated grid point off ``[alpha0; 1]`` under the
augmented matrix ``[[M, d], [0, 0]]``: a proved decade window of them,
one point or many, is one contour sum, an unproved one is one ``expm``
per point.  Neither cancels against ``alpha_ss``, so small early
energies keep their relative accuracy (the around-steady-state form read
0 for cascaded ``P_nr(1)`` on fig4a, against an exact 4.9e-39).
"""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qbnet import (TopologyParams, assemble, build_network, energy_curve, evolve,
                   figure_table, vacuum)
from qbnet.cli import cli_main
from qbnet.dynamics import _augmented, _contour_windows, _runs
from qbnet.figures import _DYNAMICS_CURVE, POWER_TIMES, _POWER_CURVE, _params

from oracles import mp_vacuum_amplitudes

pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

VARIANTS = ("nr", "r1", "r2")
#: t = 1, the last row of four of the six decade windows (where the
#: contour sum's rounding has grown most), and the end
SAMPLED_ROWS = [0, 188, 377, 566, 944, 1000]
#: fig4a's cascaded nr and r1 networks
CASCADED_NR = _params("cascaded", "nr", 4, *_POWER_CURVE[:3])
CASCADED_R1 = _params("cascaded", "r1", 4, *_POWER_CURVE[:3])


def relative(got, want):
    return np.abs(got / want - 1.0).max()


def mp_energy(params, times, target="b_4"):
    sys_ = assemble(build_network(params))
    return np.abs(mp_vacuum_amplitudes(sys_, times)[:, sys_.row(target)]) ** 2


@pytest.mark.parametrize("panel, family", [("fig4a", "cascaded"),
                                           ("fig4b", "parallel")])
def test_fig4_rows_match_mpmath(panel, family):
    table = figure_table(panel)
    assert table.metadata["method"] == "contour"
    rows = np.array(table.rows)[SAMPLED_ROWS]
    times = rows[:, 0]
    for column, variant in enumerate(VARIANTS, start=1):
        want = mp_energy(_params(family, variant, 4, *_POWER_CURVE[:3]), times)
        assert relative(rows[:, column] * times, want) <= 1e-11, variant


def test_fig3d_rows_match_mpmath():
    # the uniform grid is stepped around the steady state; its first
    # steps hold energies far below the steady one
    table = figure_table("fig3d")
    rows = np.array(table.rows)
    assert rows[0, 0] == 0.0 and not rows[0, 1:].any()
    picked = [1, 2, 3, 5, 10, 20, 100, 1000, 2000]
    times = rows[picked, 0]
    assert times.tolist() == picked
    for column, variant in enumerate(VARIANTS, start=1):
        want = mp_energy(_params("parallel", variant, 4, *_DYNAMICS_CURVE[:3]), times)
        assert relative(rows[picked, column], want) <= 1e-12, variant


@pytest.mark.parametrize("params, t", [
    (CASCADED_NR, 1.0), (CASCADED_NR, 2.0),
    *[(CASCADED_R1, t) for t in (1.0, 2.0, 3.0, 5.0)]],
    ids=["1.0", "2.0", "r1-1.0", "r1-2.0", "r1-3.0", "r1-5.0"])
def test_one_point_grid_is_exact(params, t):
    # a lone point is a window of its own, accurate relative to E itself
    # (nr: E(1) = 4.9e-39; r1: one augmented expm read E 2.2e-9 to 5.5e-8
    # off at t = 1 to 5)
    curve = energy_curve(params, "b_4", [t])
    assert curve.method == "contour"
    assert relative(curve.energy, mp_energy(params, [t])) <= 1e-12


class TestMethod:
    def test_log_grid_is_contour(self):
        curve = energy_curve(CASCADED_NR, "b_4", POWER_TIMES)
        assert curve.method == "contour"

    def test_mixed_grid(self):
        # a log decade of 20 points, then 3 sparse points, each a window
        times = np.concatenate([np.geomspace(1.0, 10.0, 20), [100.0, 1e3, 1e4]])
        curve = energy_curve(CASCADED_NR, "b_4", times)
        assert curve.method == "contour"
        want = mp_energy(CASCADED_NR, times[[0, 19, 20, 22]])
        assert relative(curve.energy[[0, 19, 20, 22]], want) <= 1e-11
        # eigenvalues at |Im| / |Re| ~ 100: the two early decades are
        # proved, the later ones are not
        params = TopologyParams("parallel", "r1", 2, 1.0, 0.01, 0.01, 0.01, 1.0)
        times = np.geomspace(1e-2, 1e3, 30)
        curve = energy_curve(params, "b_2", times)
        assert curve.method == "contour+expm"
        picked = [0, 5, 12, 20, 29]
        want = mp_energy(params, times[picked], "b_2")
        assert relative(curve.energy[picked], want) <= 1e-11

    def test_uniform_panel_records_expm(self):
        assert figure_table("fig3d").metadata["method"] == "expm"

    def test_cli_log_times_reads_contour(self, capsys):
        code = cli_main(["power", "--family", "cascaded", "--variant", "nr",
                         "--n", "4", "--gb", "5e-5", "--gamma", "5e-4",
                         "--big-gamma", "1", "--t-max", "2e5", "--log-times",
                         "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["method"] == "contour"

    def test_unprovable_spectrum_uses_expm(self):
        # eigenvalues at |Im| / |Re| ~ 100 sit right of every late contour
        params = TopologyParams("parallel", "r1", 2, 1.0, 0.01, 0.01, 0.01, 1.0)
        sys_ = assemble(build_network(params))
        times = np.geomspace(10.0, 1e3, 60)
        assert _contour_windows(sys_.matrix, times, list(_runs(times))) == []
        assert evolve(sys_, vacuum(sys_), times).method == "expm"

    def test_defective_matrix_is_not_proved(self):
        # a Jordan block: eig's eigenvectors are parallel, so the
        # Bauer-Fike margin covers the contour
        times = np.geomspace(1.0, 100.0, 40)
        jordan = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
        assert _contour_windows(jordan, times, list(_runs(times))) == []
        assert len(_contour_windows(-np.eye(2, dtype=complex), times,
                                    list(_runs(times)))) == 2


@st.composite
def networks(draw):
    family = draw(st.sampled_from(["cascaded", "parallel"]))
    variant = draw(st.sampled_from(["nr", "r1", "r2", "custom"]))
    n = draw(st.integers(1, 6))
    gamma = 10.0 ** draw(st.floats(-4.0, -1.0))
    rates = st.floats(-0.3, 0.3)
    thetas = (tuple(draw(st.floats(-math.pi, math.pi)) for _ in range(n))
              if variant == "custom" else None)
    return TopologyParams(
        family, variant, n, gamma * 10.0 ** draw(st.floats(-3.0, 1.0)),
        gamma * 10.0 ** draw(rates),
        tuple(gamma * 10.0 ** draw(rates) for _ in range(n)),
        gamma * 10.0 ** draw(st.floats(0.0, 4.0)),
        complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))), thetas)


@given(networks(), st.floats(-2.0, 1.0), st.integers(1, 4), st.integers(12, 40))
def test_contour_matches_augmented_expm(params, start, decades, per_decade):
    # every point against expm of the augmented matrix K, normwise
    # relative to |[alpha(t); 1]|, within 1e-11 + 4 eps |K|_F t.  The
    # second term is the reference's own error: scaling and squaring
    # loses about eps |K t| on stiff networks (6e-9 at |K t| = 5.5e7 on
    # a cascaded nr draw, where the contour was within 1e-14 of 40-digit
    # mpmath); over 600 draws the error stays below 0.55 eps |K|_F t
    # plus 1e-12.
    sys_ = assemble(build_network(params))
    scale = 1.0 / abs(np.linalg.eigvals(sys_.matrix).real.max())
    times = scale * np.geomspace(10.0 ** start, 10.0 ** (start + decades),
                                 decades * per_decade)
    traj = evolve(sys_, vacuum(sys_), times)
    augmented, y0 = _augmented(sys_), np.append(vacuum(sys_), 1.0)
    want = np.array([expm(augmented * t) @ y0 for t in times])
    err = np.linalg.norm(traj.amplitudes - want[:, :-1], axis=1)
    bound = 1e-11 + 4.0 * np.finfo(float).eps * np.linalg.norm(augmented) * times
    assert np.all(err <= bound * np.linalg.norm(want, axis=1)), traj.method
