"""The batched Pade ``expm`` against scipy's and 34-digit mpmath.

``qbnet.dynamics.expm`` is Al-Mohy & Higham's 2009 scaling and squaring,
scipy's own algorithm, written over a (P, n, n) stack, as the first of
the doublings ``e^{2^k A}`` that ``_doublings`` returns.  scipy's ``expm``,
its choice of degree and scaling where scipy exposes it, and mpmath's
``expm`` at 34 digits are the oracles; each doubling must equal ``expm``
of ``2^k A`` bit for bit.
"""

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import qbnet.dynamics as dynamics
from qbnet import TopologyParams, figure_table, gain_report, steady_state
from qbnet.dynamics import (_augmented, _doublings, _pade_structure, _powers, _prescale,
                            assemble_points, expm)
from qbnet.observables import _system

mp = pytest.importorskip("mpmath")

#: fig4c's first point: cascaded nr, n = 4, g_b / gamma = 1e-3, near its
#: exceptional point (eigenvector condition number 4.5e6)
NEAR_EP = TopologyParams("cascaded", "nr", 4, 5e-7, 5e-4, 5e-4, 1.0, 1.0)


def mp_expm(matrix, dps=34) -> np.ndarray:
    """``e^A`` of one matrix in ``dps``-digit mpmath, rounded to complex128."""
    with mp.workdps(dps):
        exact = mp.expm(mp.matrix([[mp.mpc(complex(x)) for x in row] for row in matrix]))
        return np.array(exact.tolist(), dtype=complex)


def relative(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def near_ep_stack(exponents) -> np.ndarray:
    """M of ``NEAR_EP`` times ``2^k`` for each of ``exponents``."""
    matrix = assemble_points(NEAR_EP)[0][0]
    return matrix * np.exp2(np.asarray(exponents, dtype=float))[:, None, None]


def structure(stack, count=1) -> tuple:
    """``(degree, squarings)`` of ``2^k A``, k < ``count``, per slice of A:
    (count, P) each, or (P,) each for ``count = 1``."""
    exponents = np.zeros((count, len(stack)), dtype=int) + np.arange(count)[:, None]
    found = _pade_structure(_powers(stack), exponents)
    return found if count > 1 else tuple(v[0] for v in found)


class TestStack:
    def test_slices_are_single_calls(self):
        # every degree and s = 0 .. 20, in a seeded order, with three
        # random matrices: each slice is bit-identical to its own call,
        # and to its place in either half of the stack
        rng = np.random.default_rng(7)
        noise = rng.normal(size=(3, 9, 9, 2)) @ [1.0, 1j]
        stack = np.concatenate((near_ep_stack(np.arange(-8, 24)), noise))
        stack = stack[rng.permutation(len(stack))]
        degree, scale = structure(stack)
        assert set(degree.tolist()) == {3, 5, 7, 9, 13}
        assert set(range(21)) <= set(scale.tolist())
        stacked = expm(stack)
        for i in range(len(stack)):
            assert np.array_equal(stacked[i], expm(stack[i:i + 1])[0])
        half = len(stack) // 2
        assert np.array_equal(stacked, np.concatenate((expm(stack[:half]),
                                                        expm(stack[half:]))))

    def test_zero_is_identity(self):
        assert np.array_equal(expm(np.zeros((2, 4, 4), dtype=complex)),
                              np.broadcast_to(np.eye(4), (2, 4, 4)))

    def test_empty_stack(self):
        assert expm(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3, 3)


class TestAgainstMpmath:
    @pytest.mark.parametrize("t", [1e-3, 0.01, 0.3, 1.0, 4.0, 30.0, 100.0])
    def test_jordan_block(self, t):
        # a defective 6 x 6 Jordan block: degrees 3, 5, 7 and 9, then 13
        # with s = 1, 4 and 6 (the worst reads 3.4e-15)
        jordan = np.diag(np.full(6, -0.4 + 0.3j)) + np.diag(np.ones(5), 1)
        assert relative(expm(jordan[None] * t)[0], mp_expm(jordan * t)) <= 1e-14

    @pytest.mark.parametrize("augmented, reach, bound", [(False, 16, 1e-12),
                                                         (True, 20, 1e-13)])
    def test_near_exceptional_point(self, augmented, reach, bound):
        # fig4c's first point at t = 1 .. 2^reach: M, up to where e^{M t}
        # has decayed to 1.6e-7 (both expms read 2.1e-13 there), and the
        # augmented [[M, d], [0, 0]] over the peak search's whole reach
        # (1.9e-14 at 2^20, where scipy reads 2.5e-11)
        sys_ = _system(NEAR_EP)
        matrix = _augmented(sys_) if augmented else sys_.matrix
        stack = matrix * np.exp2(np.arange(0.0, reach + 1.0, 4.0))[:, None, None]
        for slice_, want in zip(expm(stack), map(mp_expm, stack)):
            assert relative(slice_, want) <= bound


#: a fig4-regime ``gains --power`` network
GAINS_POWER = TopologyParams("parallel", "nr", 3, 5e-6, 5e-4, (5e-4, 7.5e-4, 3.5e-4), 1.0, 1.0)


@pytest.fixture(scope="module")
def power_stacks():
    """Every stack exponentiated for fig4c, fig4d and a fig4-regime
    ``gain_report(include_power=True)``: each ``expm`` stack, and each
    doubling ``2^k A`` of a ``_doublings`` call (``expm`` is one of those)."""
    stacks = []
    original = dynamics._doublings

    def recorded(matrices, count):
        stacks.extend(matrices * 2.0 ** k for k in range(count))
        return original(matrices, count)

    dynamics._doublings = recorded
    try:
        figure_table("fig4c")
        figure_table("fig4d")
        gain_report(GAINS_POWER, include_power=True)
    finally:
        dynamics._doublings = original
    return stacks


class TestPowerStacks:
    def test_sample_matches_mpmath(self, power_stacks):
        # 1e-12 normwise on a seeded sample of slices (scipy's own worst
        # on one power pass is 2.9e-13)
        slices = [(stack, i) for stack in power_stacks for i in range(len(stack))]
        rng = np.random.default_rng(21)
        for k in rng.choice(len(slices), 40, replace=False):
            stack, i = slices[k]
            assert relative(expm(stack)[i], mp_expm(stack[i])) <= 1e-12

    def test_every_slice_matches_scipy(self, power_stacks):
        for stack in power_stacks:
            got, want = expm(stack), scipy_expm(stack)
            assert (np.linalg.norm(got - want, axis=(1, 2))
                    <= 1e-12 * np.linalg.norm(want, axis=(1, 2))).all()

    def test_degree_and_scaling_are_scipys(self, power_stacks):
        matfuncs = pytest.importorskip("scipy.linalg._matfuncs_expm")
        if not hasattr(matfuncs, "pick_pade_structure"):
            pytest.skip("scipy does not expose its Pade structure")
        for stack in power_stacks:
            degree, scale = structure(stack)
            for matrix, m, s in zip(stack, degree.tolist(), scale.tolist()):
                work = np.empty((5,) + matrix.shape, dtype=complex)
                work[0] = matrix
                assert matfuncs.pick_pade_structure(work) == (m, s)


#: cascaded nr, n = 2, every decay 0.1: A^10 of its augmented K t
#: overflows from about t = 1e30 on
DECAYING = TopologyParams("cascaded", "nr", 2, 0.01, 0.1, 0.1, 0.1, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPrescale:
    def test_power_stacks_are_not_prescaled(self, power_stacks):
        # p = 0 on every slice of a power pass: the panels keep their bits
        assert all(_prescale(np.abs(stack), 1) is None for stack in power_stacks)

    def test_nilpotent_is_exact(self):
        # 1-norm 2^80, scaled by 2^-16: r_3 of the scaled A is I + A
        # exactly, and 16 squarings of it give I + A
        a = np.zeros((1, 2, 2), dtype=complex)
        a[0, 0, 1] = 2.0 ** 80
        assert np.array_equal(expm(a)[0], np.eye(2) + a[0])

    @pytest.mark.parametrize("t", [1e30, 1e50, 1e100, 1e300])
    def test_long_times_reach_the_steady_state(self, t):
        # e^{K t} of the augmented K: e^{M t} has decayed to nothing and
        # the drive column holds alpha_ss
        sys_ = _system(DECAYING)
        got = expm(_augmented(sys_)[None] * t)[0]
        assert np.isfinite(got).all()
        assert relative(got[:-1, -1], steady_state(sys_).amplitudes) <= 1e-13
        assert np.abs(got[:-1, :-1]).max() <= 1e-13

    def test_prescaled_slices_are_single_calls(self):
        stack = _augmented(_system(DECAYING)) * np.array([1e50, 1.0, 1e30, 1e300])[:, None, None]
        stacked = expm(stack)
        for i in range(len(stack)):
            assert np.array_equal(stacked[i], expm(stack[i:i + 1])[0])


class TestDoublings:
    """``_doublings``: ``e^{2^k A}`` for k < K, each doubling bit-identical
    to a fresh ``expm`` of ``2^k A``, and ``expm`` its K = 1 case."""

    COUNT = 27

    @staticmethod
    def stack() -> np.ndarray:
        # seeded dissipative networks (cascaded, every variant in one
        # layout) at times over ten decades; the first slice is prescaled
        # from its first doubling on (1-norm 2^70), the second from its
        # 22nd (1-norm 2^44)
        rng = np.random.default_rng(11)
        points = 12
        matrices = assemble_points(
            NEAR_EP, g_b=10.0 ** rng.uniform(-4, 0, points),
            Gamma=10.0 ** rng.uniform(-3, 1, points),
            variant=rng.choice(["nr", "r1", "r2"], points).tolist())[0].dense
        times = 10.0 ** rng.uniform(-6, 4, points)
        times[:2] = 2.0 ** np.array([70, 44]) / np.abs(matrices[:2]).sum(axis=1).max(axis=1)
        return matrices * times[:, None, None]

    def test_stack_needs_every_degree_scaling_and_prescale(self):
        stack = self.stack()
        prescale = _prescale(np.abs(stack), self.COUNT)
        assert prescale[:, 0].all() and prescale[:, 1].tolist() == [0] * 21 + [1, 2, 3, 4, 5, 6]
        degree, squarings = structure(stack, self.COUNT)
        plain = prescale == 0
        assert set(degree[plain].tolist()) == {3, 5, 7, 9, 13}
        assert set(range(21)) <= set(squarings[plain].tolist())

    def test_every_doubling_is_a_fresh_expm(self):
        stack = self.stack()
        doubled = _doublings(stack, self.COUNT)
        assert doubled.shape == (self.COUNT,) + stack.shape
        for k in range(self.COUNT):
            assert np.array_equal(doubled[k], expm(stack * 2.0 ** k)), k

    def test_expm_is_the_first_doubling(self):
        stack = self.stack()
        assert np.array_equal(expm(stack), _doublings(stack, 1)[0])
        assert np.array_equal(expm(stack), _doublings(stack, self.COUNT)[0])

    def test_chunks_are_single_calls(self, monkeypatch):
        # a stack taken in chunks of one slice gives the same bits
        stack = self.stack()
        whole = _doublings(stack, 8)
        monkeypatch.setattr(dynamics, "_EXPM_STACK_ENTRIES", 1)
        assert np.array_equal(_doublings(stack, 8), whole)
