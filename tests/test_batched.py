"""The energy-batched curves against the single-energy sweeps they replace."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsweep import (
    DiscretizedPotential,
    design_packet,
    discretize,
    eigenfunction,
    evolve,
    left_sweep,
    load_table,
    make_builtin,
    mismatch,
    mismatch_curve,
    precompute_modes,
    right_sweep,
    transmission,
    transmission_curve,
)
from qsweep import recursion
from qsweep.constants import step_wavevectors
from qsweep.errors import InvalidEnergyError, NumericalSingularityError, SolverError

# The batched recursion rounds differently from the scalar loop (numpy's
# complex division is not Python's); near an eigenvalue f is a sum of
# cancelling terms, hence the small absolute allowance next to the
# relative one.
REL = 1e-10
ABS_F = 1e-12
# At an energy equal to a step value the degeneracy nudge leaves a
# wavevector of ~5e-6 /nm, and the recursion amplifies rounding by about
# its inverse: there the two paths agree only to about 3e-9 (measured on
# 300 random tables), so the 1e-10 properties keep this far from it.
DEGENERATE_EV = 1e-9


def table_potential(u, widths):
    x = np.concatenate([[0.0], np.cumsum(widths)])
    dx = np.append(np.diff(x), widths[-1])
    return DiscretizedPotential(x=x, u=np.asarray(u, dtype=float), dx=dx)


@st.composite
def step_tables(draw, max_steps=40):
    N = draw(st.integers(1, max_steps))
    u = draw(st.lists(st.floats(-1.0, 1.0), min_size=N + 1, max_size=N + 1))
    widths = draw(st.lists(st.floats(0.01, 0.3), min_size=N, max_size=N))
    return table_potential(u, widths)


def scalar_curve(dp, grid, ctx):
    """t_amp = A_N and r_amp = B_0 of the single-energy left sweeps."""
    sweeps = [left_sweep(dp, float(E), ctx) for E in grid]
    return np.array([sw.A[-1] for sw in sweeps]), np.array([sw.B[0] for sw in sweeps])


def energies(lo, hi):
    # Offset so that the round values Hypothesis favours for energies and
    # step values do not coincide; assume() drops the rare draw that does.
    return st.lists(st.floats(lo, hi).map(lambda e: e + 1e-4 * math.pi),
                    min_size=1, max_size=12)


def not_degenerate(dp, grid):
    return np.min(np.abs(np.subtract.outer(grid, dp.u))) > DEGENERATE_EV


def assert_transmission_matches(dp, grid, ctx, rel=REL):
    curve = transmission_curve(dp, grid, ctx)
    t_ref, r_ref = scalar_curve(dp, grid, ctx)
    assert curve.t_amp == pytest.approx(t_ref, rel=rel, abs=1e-300)
    assert curve.r_amp == pytest.approx(r_ref, rel=rel, abs=1e-300)
    return curve


def assert_mismatch_matches(dp, grid, ctx, interval=None, rel=REL):
    curve = mismatch_curve(dp, grid, ctx, interval)
    ref = np.array([mismatch(dp, float(E), ctx, interval) for E in grid])
    assert np.array_equal(np.isinf(curve.f), np.isinf(ref))
    finite = np.isfinite(ref)
    assert curve.f[finite] == pytest.approx(ref[finite], rel=rel, abs=ABS_F)
    return curve


@settings(max_examples=60, deadline=None)
@given(dp=step_tables(), data=st.data())
def test_transmission_curve_matches_product(dp, data, electron):
    lo = float(dp.u[0]) + 1e-3
    grid = data.draw(energies(lo, lo + 2.0))
    assume(not_degenerate(dp, grid))
    curve = assert_transmission_matches(dp, grid, electron)
    both = np.asarray(grid) > dp.u[-1] + 1e-3  # far side propagating too
    assert (curve.T + curve.R)[both] == pytest.approx(np.ones(both.sum()), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(dp=step_tables(), data=st.data())
def test_mismatch_curve_matches_scalar(dp, data, electron):
    grid = data.draw(energies(-1.2, 1.5))
    assume(not_degenerate(dp, grid))
    assert_mismatch_matches(dp, grid, electron)
    a = data.draw(st.floats(dp.x[0], dp.x[-1]))
    b = data.draw(st.floats(a, dp.x[-1] + 1.0).filter(lambda v: v > a))
    assert_mismatch_matches(dp, grid, electron, (a, b))


@pytest.mark.parametrize("N", [1, 2, 3, 6, 10, 15, 48])
def test_small_and_ragged_grids(N, electron):
    # N = 6 leaves a one-node last segment (B = 3), N = 10 a three-node one
    # (B = 4); N = 15 and 48 fill their last segments exactly.
    rng = np.random.default_rng(N)
    dp = table_potential(rng.uniform(-0.5, 0.5, N + 1), rng.uniform(0.05, 0.3, N))
    assert_transmission_matches(dp, np.linspace(0.6, 2.0, 9), electron)
    assert_mismatch_matches(dp, np.linspace(-0.6, 1.0, 17), electron)


def test_more_energies_than_a_block_holds(electron):
    # one node per block in the transmission pass
    rng = np.random.default_rng(7)
    dp = table_potential(rng.uniform(-0.5, 0.5, 41), rng.uniform(0.05, 0.3, 40))
    grid = np.linspace(0.6, 2.0, recursion._BLOCK_VALUES + 7)
    assert_transmission_matches(dp, grid, electron)


def test_degenerate_energies_agree_to_their_conditioning(electron):
    rng = np.random.default_rng(5)
    for _ in range(40):
        N = int(rng.integers(1, 41))
        dp = table_potential(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], N + 1),
                             rng.choice([0.01, 0.1, 0.25], N))
        levels = np.unique(dp.u)
        assert_transmission_matches(dp, levels[levels > dp.u[0]], electron, rel=1e-7)
        assert_mismatch_matches(dp, levels, electron, rel=1e-7)


def test_energies_without_allowed_steps_are_inf_and_not_swept(electron, monkeypatch):
    spec = make_builtin("square_barrier", {"V0": -1.0, "center": 0.0, "width": 2.0})
    dp = discretize(spec, -2, 2, 400)
    grid = np.array([-1.5, -0.5, -1.2, -0.1, -1.0])  # floor at -1
    curve = assert_mismatch_matches(dp, grid, electron)
    assert np.isinf(curve.f).tolist() == [True, False, True, False, True]

    swept = []
    kernel = recursion.mismatch_sweep
    monkeypatch.setattr("qsweep.eigen.mismatch_sweep",
                        lambda dp, E, *a: swept.append(E.copy()) or kernel(dp, E, *a))
    mismatch_curve(dp, grid, electron)
    assert swept[0].tolist() == [-0.5, -0.1]
    assert np.isinf(mismatch_curve(dp, [-3.0, -2.0], electron).f).all()
    assert len(swept) == 1  # nothing to sweep, nothing swept


MARK = 0.123456  # u of the node whose wavevector the patch below flips


def cancelling_wavevectors(bad_energies):
    """step_wavevectors where, at bad_energies, the MARK node gets the
    negated wavevector of u = 0.

    Off the principal branch, k_j = -k_{j-1} cancels the denominator of
    the step that joins the node to a u = 0 neighbour whenever the
    reflection coming into that step is zero, in the batched and the
    scalar path alike.
    """
    def patched(E, u, phi):
        flip = (np.asarray(u) == MARK) & np.isin(E, bad_energies)
        return np.where(flip, -step_wavevectors(E, np.zeros_like(u), phi),
                        step_wavevectors(E, u, phi))
    return patched


def marked_potential(node, barrier=()):
    u = np.zeros(31)
    u[node] = MARK
    u[node + 1:node + 1 + len(barrier)] = barrier
    return table_potential(u, np.full(30, 0.1))


def first_scalar_error(fn, grid):
    """The error a loop over the grid stops at, or None."""
    for E in grid:
        try:
            fn(float(E))
        except SolverError as exc:
            return exc
    return None


@pytest.mark.parametrize("node, barrier, curves", [
    (30, (), ("T", "f")),         # left sweep fails at its first step
    (0, (), ("T", "f")),          # ... at its last step
    (7, (), ("T", "f")),
    (7, (0.2, 0.3), ("f",)),      # only the right sweep fails
])
def test_injected_singularity_names_the_scalar_energy_and_step(
        node, barrier, curves, electron, monkeypatch):
    grid = np.array([0.3, 0.5, 0.7, 0.9])
    monkeypatch.setattr(recursion, "step_wavevectors", cancelling_wavevectors([0.7, 0.5]))
    dp = marked_potential(node, barrier)
    pairs = {"T": (transmission_curve, lambda E: left_sweep(dp, E, electron)),
             "f": (mismatch_curve, lambda E: mismatch(dp, E, electron))}
    for name in curves:
        curve, single = pairs[name]
        expected = first_scalar_error(single, grid)
        with pytest.raises(NumericalSingularityError) as err:
            curve(dp, grid, electron)
        assert err.value.energy == expected.energy == 0.5
        assert err.value.step == expected.step
    # The right recursion runs forward from Rbar_0 = 0 over flat u = 0 and
    # meets the cancelling pair at step j = node, which joins nodes j - 1
    # and j (step 1, joining nodes 0 and 1, when the node is 0); the error
    # names that grid step, not the step of the mirrored grid.
    with pytest.raises(NumericalSingularityError) as err:
        right_sweep(dp, 0.5, electron)
    assert (err.value.energy, err.value.step) == (0.5, max(node, 1))


def test_errors_follow_grid_order(electron, monkeypatch):
    # E = 0.5 is below the entry level and E = 0.7 meets a singular
    # denominator; a loop over the grid stops at whichever comes first.
    dp = marked_potential(12)
    dp.u[0] = 0.6
    monkeypatch.setattr(recursion, "step_wavevectors", cancelling_wavevectors([0.7]))
    with pytest.raises(InvalidEnergyError, match="0.5"):
        transmission_curve(dp, [0.9, 0.5, 0.7], electron)
    with pytest.raises(NumericalSingularityError, match="0.7"):
        transmission_curve(dp, [0.9, 0.7, 0.5], electron)
    with pytest.raises(NumericalSingularityError, match="0.7"):
        transmission_curve(dp, [0.7, math.nan], electron)
    with pytest.raises(InvalidEnergyError, match="nan"):
        transmission_curve(dp, [math.nan, 0.7], electron)
    with pytest.raises(NumericalSingularityError, match="0.7"):
        mismatch_curve(dp, [0.7, math.nan], electron)
    with pytest.raises(InvalidEnergyError, match="nan"):
        mismatch_curve(dp, [math.nan, 0.7], electron)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_curve_errors_are_the_first_error_of_a_scalar_loop(data, electron):
    N = data.draw(st.integers(1, 24))
    u = data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, MARK, 0.4, -0.2]),
                           min_size=N + 1, max_size=N + 1))
    dp = table_potential(u, np.full(N, 0.1))
    levels = [0.1, 0.3, 0.5, 0.7, 0.9]
    grid = data.draw(st.lists(st.sampled_from(levels * 4 + [math.nan, math.inf, -math.inf]),
                              min_size=1, max_size=8))
    bad = sorted(data.draw(st.sets(st.sampled_from(levels))))
    pairs = [(transmission_curve, lambda E: transmission(left_sweep(dp, E, electron))),
             (mismatch_curve, lambda E: mismatch(dp, E, electron))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "step_wavevectors", cancelling_wavevectors(bad))
        for curve, single in pairs:
            expected = first_scalar_error(single, grid)
            if expected is None:
                curve(dp, grid, electron)
                continue
            with pytest.raises(SolverError) as err:
                curve(dp, grid, electron)
            assert type(err.value) is type(expected)
            assert str(err.value) == str(expected)  # names the energy and any step


def test_nan_denominator_is_singular(electron):
    # E - U overflows to inf at the -1.7e308 nodes, and the first step that
    # joins one of them to a finite wavevector has a NaN denominator.
    dp = discretize(load_table([(-1, 0), (0, -1.7e308), (0.5, 0)]), -1, 1, 8)
    E = 1e308
    for fn in (lambda: transmission(left_sweep(dp, E, electron)),
               lambda: transmission_curve(dp, [E], electron),
               lambda: mismatch(dp, E, electron),
               lambda: mismatch_curve(dp, [E], electron)):
        with pytest.raises(NumericalSingularityError) as err:
            fn()
        assert (err.value.energy, err.value.step) == (E, 6)


class TestNonFiniteEnergies:
    @pytest.fixture
    def dp(self):
        return discretize(make_builtin("square_barrier",
                                       {"V0": 0.5, "center": 0.0, "width": 1.0}), -2, 2, 100)

    def test_transmission_curve(self, dp, electron):
        with pytest.raises(InvalidEnergyError, match="nan"):
            transmission_curve(dp, [math.nan, math.inf, 0.5], electron)
        with pytest.raises(InvalidEnergyError, match="inf"):
            transmission_curve(dp, [0.5, math.inf], electron)

    def test_mismatch_curve(self, dp, electron):
        with pytest.raises(InvalidEnergyError, match="nan"):
            mismatch_curve(dp, [0.2, math.nan, 0.5], electron)
        with pytest.raises(InvalidEnergyError, match="-inf"):
            mismatch_curve(dp, [-math.inf], electron, interval=(-1.0, 1.0))

    def test_mismatch(self, dp, electron):
        with pytest.raises(InvalidEnergyError, match="nan"):
            mismatch(dp, math.nan, electron)
        with pytest.raises(InvalidEnergyError, match="inf"):
            mismatch(dp, math.inf, electron)

    def test_single_energy_sweeps(self, dp, electron):
        with pytest.raises(InvalidEnergyError, match="nan"):
            left_sweep(dp, math.nan, electron)
        with pytest.raises(InvalidEnergyError, match="inf"):
            right_sweep(dp, math.inf, electron)

    def test_packet_modes(self, dp, electron):
        packet = design_packet(0.3, dE=0.05, n_modes=5, x0=-1.0, ctx=electron)
        packet = dataclasses.replace(packet, E=np.append(packet.E[:-1], math.nan))
        with pytest.raises(InvalidEnergyError, match="nan"):
            precompute_modes(dp, packet, electron)

    def test_eigenfunction(self, dp, electron):
        with pytest.raises(InvalidEnergyError, match="nan"):
            eigenfunction(dp, math.nan, electron)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_evolve_time(self, dp, electron, t):
        packet = design_packet(0.3, dE=0.05, n_modes=5, x0=-1.0, ctx=electron)
        cache = precompute_modes(dp, packet, electron)
        with pytest.raises(ValueError, match="finite"):
            evolve(packet, cache, t, dp.x)
