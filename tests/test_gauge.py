"""Gauge invariance on loop-free networks, by Hypothesis.

A phase on a link of a tree (an ``r1`` chain, or an ``r1`` star) can be
moved onto a mode's amplitude, which does not change its modulus: every
battery's steady energy is independent of the direct-coupling phases, on
the dense route and on the closed route alike.
"""

import dataclasses
import math

import pytest

from qbnet import TopologyParams, effective_steady_energy, steady_energy

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402


@st.composite
def phased_r1(draw):
    """An r1 tree with random rates and drive, without and with phases."""
    family = draw(st.sampled_from(["cascaded", "parallel"]))
    n = draw(st.integers(1, 6))
    rate = st.floats(0.01, 1.0)
    base = TopologyParams(
        family, "r1", n, draw(st.floats(1e-3, 0.5)), draw(rate),
        tuple(draw(rate) for _ in range(n)), draw(rate),
        complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 2.0))),
        (0.0,) * n)
    thetas = tuple(draw(st.floats(-math.pi, math.pi)) for _ in range(n))
    return base, dataclasses.replace(base, thetas=thetas)


@given(phased_r1())
def test_r1_phases_leave_every_energy_unchanged(pair):
    base, phased = pair
    for k in range(1, base.n + 1):
        for energy in (lambda p: steady_energy(p, f"b_{k}"),
                       lambda p: effective_steady_energy(p, k)):
            assert energy(phased) == pytest.approx(energy(base), rel=1e-12), k
