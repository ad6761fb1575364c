import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsweep import (
    DiscretizedPotential,
    discretize,
    left_sweep,
    load_table,
    make_builtin,
    make_expression,
    mismatch,
    oracle,
    right_sweep,
    transmission,
)
from qsweep import recursion
from qsweep.errors import NumericalSingularityError
from qsweep.recursion import _left_coefficients, coefficients
from test_batched import cancelling_wavevectors, first_scalar_error, marked_potential


def flat_potential(x0=-5.0, xN=5.0, N=100):
    return discretize(make_expression("0"), x0, xN, N)


def random_structure(rng, N=120, span=3.0):
    """Random interior steps with flat zero ends."""
    u = np.zeros(N + 1)
    u[10 : N - 10] = rng.uniform(-0.6, 0.8, N - 20)
    x = np.linspace(-span, span, N + 1)
    dx = np.empty(N + 1)
    dx[:-1] = np.diff(x)
    dx[-1] = dx[-2]
    return DiscretizedPotential(x=x, u=u, dx=dx)


@st.composite
def step_tables_and_energy(draw, max_steps=40):
    """A random step table and an energy that propagates at both ends,
    kept 1e-9 eV from every step value (where the degeneracy nudge costs
    the recursion its last digits)."""
    N = draw(st.integers(1, max_steps))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=N + 1, max_size=N + 1)))
    widths = draw(st.lists(st.floats(0.01, 0.3), min_size=N, max_size=N))
    E = max(u[0], u[-1]) + draw(st.floats(0.01, 1.5)) + 1e-4 * math.pi
    assume(np.min(np.abs(E - u)) > 1e-9)
    dx = np.append(widths, widths[-1])
    x = np.concatenate([[0.0], np.cumsum(widths)])
    return DiscretizedPotential(x=x, u=u, dx=dx), E


def mirrored(dp):
    """The step table read from the right: every step keeps its width."""
    return DiscretizedPotential(x=-dp.x[::-1], u=dp.u[::-1], dx=dp.dx[::-1])


class TestLeftSweep:
    def test_free_particle(self, electron):
        dp = flat_potential()
        sw = left_sweep(dp, 0.5, electron)
        assert np.all(sw.R == 0)
        k = sw.k[0]
        expect_T = np.exp(1j * k * dp.dx[0])
        assert sw.T[1:] == pytest.approx(np.full(dp.n_steps, expect_T), rel=1e-12)
        assert abs(sw.A[-1]) == pytest.approx(1.0, abs=1e-12)
        assert sw.A[-1] == pytest.approx(np.exp(1j * k * (dp.x[-1] - dp.x[0])), rel=1e-10)

    def test_boundary_values_exact(self, electron):
        dp = random_structure(np.random.default_rng(3))
        sw = left_sweep(dp, 0.7, electron)
        assert sw.R[-1] == 0.0
        assert sw.A[0] == 1.0
        assert sw.B[-1] == 0.0

    def test_amplitude_recursion_invariants(self, electron):
        dp = random_structure(np.random.default_rng(5))
        sw = left_sweep(dp, 0.9, electron)
        for j in range(1, dp.n_steps + 1):
            assert sw.A[j] == pytest.approx(sw.A[j - 1] * sw.T[j], rel=1e-12)
        for j in range(dp.n_steps + 1):
            assert sw.B[j] == pytest.approx(sw.A[j] * sw.R[j + 1], rel=1e-12, abs=1e-300)

    def test_single_step_fresnel(self, electron):
        dp = discretize(load_table([(-1.0, 0.0), (0.0, 0.3), (1.0, 0.3)]), -1, 1, 200)
        E = 0.6
        sw = left_sweep(dp, E, electron)
        r2, _ = oracle.analytic_step_RT(E, 0.0, 0.3, electron)
        assert abs(sw.B[0] / sw.A[0]) ** 2 == pytest.approx(r2, rel=1e-10)

    def test_square_barrier_tunneling_vs_oracle(self, electron):
        spec = make_builtin("square_barrier", {"V0": 0.5, "center": 0.0, "width": 1.0})
        dp = discretize(spec, -2, 2, 400)  # barrier edges on grid nodes
        sw = left_sweep(dp, 0.25, electron)
        T = abs(sw.A[-1] / sw.A[0]) ** 2
        assert T == pytest.approx(
            oracle.analytic_square_barrier_T(0.25, 0.5, 1.0, electron), abs=1e-6
        )

    def test_purity(self, electron):
        dp = random_structure(np.random.default_rng(9))
        a = left_sweep(dp, 0.4, electron)
        b = left_sweep(dp, 0.4, electron)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.R, b.R)

    def test_deep_barrier_underflows_to_zero(self, electron):
        spec = make_builtin("square_barrier", {"V0": 2000.0, "center": 0.0, "width": 8.0})
        dp = discretize(spec, -5, 5, 500)
        sw = left_sweep(dp, 0.1, electron)
        assert abs(sw.A[-1]) == 0.0  # documented: T reports as 0, no error


class TestRightSweep:
    def test_free_particle(self, electron):
        dp = flat_potential()
        sw = right_sweep(dp, 0.5, electron)
        assert np.all(sw.Rbar == 0)
        assert abs(sw.D[1]) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_values_exact(self, electron):
        dp = random_structure(np.random.default_rng(13))
        sw = right_sweep(dp, 0.8, electron)
        assert sw.Rbar[0] == 0.0
        assert sw.D[-1] == 1.0
        assert sw.C[1] == 0.0

    def test_amplitude_recursion_invariants(self, electron):
        dp = random_structure(np.random.default_rng(17))
        sw = right_sweep(dp, 1.1, electron)
        for j in range(1, dp.n_steps + 1):
            assert sw.D[j] == pytest.approx(sw.D[j + 1] * sw.Tbar[j], rel=1e-12)
        for j in range(1, dp.n_steps + 2):
            assert sw.C[j] == pytest.approx(sw.D[j] * sw.Rbar[j - 1], rel=1e-12, abs=1e-300)

    def test_mirror_symmetry(self, electron):
        spec = make_builtin("square_barrier", {"V0": 0.5, "center": 0.0, "width": 1.0})
        dp = discretize(spec, -2, 2, 200)
        E = 0.3
        ls = left_sweep(dp, E, electron)
        rs = right_sweep(dp, E, electron)
        assert abs(rs.Rbar[-1]) == pytest.approx(abs(ls.R[1]), rel=1e-10)

    def test_single_step_fresnel(self, electron):
        dp = discretize(load_table([(-1.0, 0.0), (0.0, 0.3), (1.0, 0.3)]), -1, 1, 200)
        E = 0.6
        sw = right_sweep(dp, E, electron)
        r2, _ = oracle.analytic_step_RT(E, 0.3, 0.0, electron)
        assert abs(sw.C[-1] / sw.D[-1]) ** 2 == pytest.approx(r2, rel=1e-10)


class TestConservation:
    def test_current_conservation_and_reciprocity(self, electron):
        rng = np.random.default_rng(20260809)
        for _ in range(50):
            dp = random_structure(rng, N=int(rng.integers(40, 160)))
            E = float(rng.uniform(0.05, 2.0))
            ls = left_sweep(dp, E, electron)
            rs = right_sweep(dp, E, electron)
            ratio = ls.k[-1].real / ls.k[0].real
            assert ratio * abs(ls.A[-1]) ** 2 + abs(ls.B[0]) ** 2 == pytest.approx(
                abs(ls.A[0]) ** 2, abs=1e-10
            )
            t_left = ratio * abs(ls.A[-1] / ls.A[0]) ** 2
            t_right = (1.0 / ratio) * abs(rs.D[1] / rs.D[-1]) ** 2
            assert t_left == pytest.approx(t_right, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(case=step_tables_and_energy())
    def test_reciprocity_property(self, electron, case):
        dp, E = case
        t_left, _ = transmission(left_sweep(dp, E, electron))
        rs = right_sweep(dp, E, electron)
        t_right = (rs.k[0].real / rs.k[-1].real) * abs(rs.D[1] / rs.D[-1]) ** 2
        assert t_right == pytest.approx(t_left, rel=1e-9, abs=1e-300)

    @settings(max_examples=60, deadline=None)
    @given(case=step_tables_and_energy())
    def test_mirrored_potential_property(self, electron, case):
        dp, E = case
        t, _ = transmission(left_sweep(dp, E, electron))
        t_mirrored, _ = transmission(left_sweep(mirrored(dp), E, electron))
        assert t_mirrored == pytest.approx(t, rel=1e-9, abs=1e-300)

    def test_passive_reflection_bound(self, electron):
        rng = np.random.default_rng(77)
        for _ in range(20):
            dp = random_structure(rng)
            E = float(dp.u.max() + rng.uniform(0.05, 1.0))  # all steps propagating
            sw = left_sweep(dp, E, electron)
            assert np.all(np.abs(sw.R) <= 1.0 + 1e-12)


def test_singularity_guard_raises():
    # Crafted wavevectors (not reachable from the principal branch) that
    # cancel the first denominator exactly.
    with pytest.raises(NumericalSingularityError) as err:
        _left_coefficients([1.0 + 0j, -1.0 + 0j], [0.1, 0.1], 0.5, 1)
    assert err.value.step == 1


class TestCoefficients:
    """The half sweeps of `coefficients` against the full ones."""

    @settings(max_examples=25, deadline=None)  # each runs every (lo, hi), O(N^3) steps
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(20, 30), above=st.booleans(),
           gap=st.floats(1e-3, 1.0))
    def test_halves_equal_the_full_sweeps(self, electron, seed, N, above, gap):
        dp = random_structure(np.random.default_rng(seed), N=N)
        E = float(dp.u.max() + (gap if above else -1.4 * gap))
        k, R, T, Rbar, Tbar = coefficients(dp, E, electron)
        ls, rs = left_sweep(dp, E, electron), right_sweep(dp, E, electron)
        for full, sweep in ((R, ls.R), (T, ls.T), (Rbar, rs.Rbar), (Tbar, rs.Tbar)):
            assert np.array(full).tobytes() == sweep.tobytes()
        # Rbar and Tbar are the left recursion's R and T on the mirrored grid.
        _, Rm, Tm, _, _ = coefficients(mirrored(dp), E, electron)
        assert (Rbar, Tbar) == (Rm[:0:-1], [0j] + Tm[:0:-1])
        for lo in range(N + 1):
            for hi in range(lo, N + 1):
                kh, Rh, Th, Rbarh, Tbarh = coefficients(dp, E, electron, lo, hi)
                assert kh.tobytes() == k.tobytes()
                assert (Rh[lo + 1:], Th[lo + 1:]) == (R[lo + 1:], T[lo + 1:])
                assert (Rbarh[:hi + 1], Tbarh[:hi + 1]) == (Rbar[:hi + 1], Tbar[:hi + 1])
                assert Rh[:lo + 1] == Th[:lo + 1] == [0j] * (lo + 1)
                assert Rbarh[hi + 1:] == Tbarh[hi + 1:] == [0j] * (N - hi)

    # marked_potential(node) at E = 0.5 is singular in the left recursion at
    # step node + 1 (not with the barrier right of the node) and in the
    # right one at step node.  The left half runs steps h + 1..N of
    # the left recursion and the right half steps 1..h of the right one.
    @settings(max_examples=60, deadline=None)
    @given(node=st.integers(1, 28), barrier=st.booleans(), h=st.integers(0, 30))
    @example(node=7, barrier=False, h=3)   # inside the left half
    @example(node=7, barrier=False, h=8)   # left step 8 is not run, right step 7 is
    @example(node=7, barrier=True, h=7)    # inside the right half, at its top
    @example(node=7, barrier=True, h=6)    # outside both halves
    def test_singular_step_inside_a_half_is_reported(self, electron, node, barrier, h):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recursion, "step_wavevectors", cancelling_wavevectors([0.5]))
            dp = marked_potential(node, (0.2, 0.3) if barrier else ())
            left = first_scalar_error(lambda E: left_sweep(dp, E, electron), [0.5])
            right = first_scalar_error(lambda E: right_sweep(dp, E, electron), [0.5])
            assert right is not None and right.step == node
            if left is not None and left.step > h:
                expected = left
            elif right.step <= h:
                expected = right
            else:
                # A singular step outside both halves does not stop them;
                # the full sweep of f at the same energy still raises there.
                _, R, _, Rbar, _ = coefficients(dp, 0.5, electron, h, h)
                assert all(map(cmath.isfinite, R + Rbar))
                expected = left if left is not None else right
                with pytest.raises(NumericalSingularityError) as err:
                    mismatch(dp, 0.5, electron)
                assert (err.value.energy, err.value.step) == (0.5, expected.step)
                return
            with pytest.raises(NumericalSingularityError) as err:
                coefficients(dp, 0.5, electron, h, h)
            assert (err.value.energy, err.value.step) == (0.5, expected.step)
