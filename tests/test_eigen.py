import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import count_interior_nodes, derivative_mismatch_at_match
from qsweep import (
    DiscretizedPotential,
    cli,
    discretize,
    eigen,
    eigenfunction,
    find_eigenvalues,
    make_builtin,
    make_expression,
    mismatch,
    mismatch_curve,
    oracle,
)
from qsweep.eigen import _count
from qsweep.errors import InvalidEigenvalueError
from qsweep.recursion import coefficients

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def well(electron):
    spec = make_builtin("square_barrier", {"V0": -1.0, "center": 0.0, "width": 2.0})
    return discretize(spec, -2, 2, 400)


@pytest.fixture(scope="module")
def well_states(well, electron):
    return find_eigenvalues(well, -0.999, -1e-4, 300, electron, refine_tol=1e-9)


def config_run(name):
    """The grid, particle and task of configs/<name>.json."""
    path = CONFIGS / f"{name}.json"
    cfg = cli.parse_config(json.loads(path.read_text(encoding="utf-8")), path.parent)
    return discretize(cfg.spec, cfg.x0, cfg.xN, cfg.N), cfg.ctx, cfg.task


def config_levels(name):
    """find_eigenvalues run as the eigen task of configs/<name>.json runs it."""
    dp, ctx, task = config_run(name)
    return find_eigenvalues(dp, task["Emin"], task["Emax"], task["N_E"], ctx,
                            interval=task["interval"], refine_tol=task["refine_tol"])


def two_wells(right="-0.6", left="-1.0"):
    """Wells of depth `left` on [-3, -1] nm and `right` on [1, 3] nm behind a
    50 eV wall, on 501 nodes over [-5, 5] nm; the exp(-73) coupling through
    the wall leaves each well's levels those of the well alone."""
    pieces = [(-math.inf, -3.0, "0"), (-3.0, -1.0, left), (-1.0, 1.0, "50"),
              (1.0, 3.0, right), (3.0, math.inf, "0")]
    return discretize(make_expression(pieces), -5, 5, 500)


def finite_difference_count(dp, ctx, E):
    """The eigenvalues below E of the 3-point finite-difference Hamiltonian
    -psi''/phi^2 + U psi on the nodes of a uniform grid, with psi = 0 past
    its ends: the negative pivots of the LDL^T factors of H - E
    (Sylvester's law of inertia)."""
    c = 1.0 / (ctx.phi * dp.dx[0]) ** 2
    negative, coupling = 0, 0.0
    for u in dp.u:
        pivot = u + 2.0 * c - E - coupling
        negative += pivot < 0.0
        coupling = c * c / pivot
    return negative


@st.composite
def step_tables(draw):
    """6-11 steps of -0.5..0.3 eV between random cuts in [-3.5, 3.5] nm,
    U = 0 outside, on 201 nodes over [-5, 5] nm."""
    n = draw(st.integers(6, 11))
    cuts = sorted(draw(st.lists(st.floats(-3.5, 3.5), min_size=n + 1, max_size=n + 1)))
    values = draw(st.lists(st.floats(-0.5, 0.3), min_size=n, max_size=n))
    x = np.linspace(-5.0, 5.0, 201)
    u = np.zeros(201)
    for a, b, v in zip(cuts[:-1], cuts[1:], values):
        u[(x >= a) & (x < b)] = v
    return DiscretizedPotential(x=x, u=u, dx=np.full(201, 0.05))


def binary_square_well(V0, cells):
    """A well of depth V0 and half-width cells/64 nm, 1 nm of flat ground
    on either side, on a 1/64 nm grid: every node is exact in binary, so
    the well edges fall on nodes and the step table is the well itself."""
    half_width = cells / 64.0
    spec = make_builtin("square_barrier", {"V0": -V0, "center": 0.0, "width": 2.0 * half_width})
    return discretize(spec, -half_width - 1.0, half_width + 1.0, 2 * cells + 128), half_width


class TestMismatch:
    def test_below_global_minimum_is_inf(self, well, electron):
        assert mismatch(well, -1.5, electron) == math.inf

    def test_free_particle_never_dips(self, electron):
        dp = discretize(make_expression("0"), -5, 5, 100)
        curve = mismatch_curve(dp, np.linspace(0.1, 1.0, 40), electron)
        assert np.all(curve.f > 1.0)  # no confinement, no numerical zeros

    def test_interval_restriction_empty_is_inf(self, well, electron):
        assert mismatch(well, -0.5, electron, interval=(1.5, 1.9)) == math.inf

    def test_gauge_shift_invariance(self, well, electron):
        f0 = mismatch(well, -0.5, electron)
        shifted = DiscretizedPotential(x=well.x, u=well.u + 0.7, dx=well.dx)
        f1 = mismatch(shifted, -0.5 + 0.7, electron)
        assert f1 == pytest.approx(f0, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-5.0, 5.0))
    def test_gauge_shift_invariance_property(self, well, electron, c):
        f0 = mismatch(well, -0.43, electron)
        shifted = DiscretizedPotential(x=well.x, u=well.u + c, dx=well.dx)
        assert mismatch(shifted, -0.43 + c, electron) == pytest.approx(f0, rel=1e-9)

    def test_dips_at_the_well_levels(self, well, electron):
        exact = oracle.finite_well_eigenvalues(1.0, 1.0, electron)
        grid = np.linspace(-0.999, -1e-4, 400)
        curve = mismatch_curve(well, grid, electron)
        med = np.median(curve.f[np.isfinite(curve.f)])
        for e in exact:
            f_at = mismatch(well, e, electron)
            assert f_at < 1e-6 * med


class TestFindEigenvalues:
    def test_matches_transcendental_roots(self, well_states, electron):
        exact = oracle.finite_well_eigenvalues(1.0, 1.0, electron)
        assert len(well_states) == len(exact)
        for cand, e in zip(well_states, exact):
            assert cand.energy == pytest.approx(e, abs=1e-7)
            assert 0.0 < cand.uncertainty <= 0.5e-9  # half a bracket of at most refine_tol

    def test_harmonic_levels(self, electron):
        # U = mass * omega^2 x^2 / (2 c^2) with omega = 1/fs
        c2 = 511000.0 / (2.0 * 299.792458**2)
        dp = discretize(make_expression(f"{c2!r}*x^2"), -3.5, 3.5, 1400)
        found = find_eigenvalues(dp, 0.2, 3.8, 220, electron, refine_tol=1e-6)
        assert len(found) == 6
        for n, cand in enumerate(found):
            expect = oracle.reference_levels("harmonic", n, omega=1.0)
            assert cand.energy == pytest.approx(expect, rel=1e-3)

    def test_empty_result_is_valid(self, electron):
        dp = discretize(make_expression("0"), -5, 5, 100)
        assert find_eigenvalues(dp, 0.1, 1.0, 50, electron) == []

    def test_centrifugal_term_raises_levels(self):
        from qsweep import ParticleContext

        ctx = ParticleContext.for_mass(469.4e6)
        base = {"A": 0.124e-12, "B": 1.488e-6}
        dp0 = discretize(make_builtin("lennard_jones", base), 0.002, 0.2, 396)
        dp8 = discretize(
            make_builtin("lennard_jones", dict(base, J=8, mass=469.4e6)), 0.002, 0.2, 396
        )
        g0 = find_eigenvalues(dp0, -4.4, -2.2, 300, ctx)
        g8 = find_eigenvalues(dp8, -4.4, -2.2, 300, ctx)
        assert g0 and g8
        assert g8[0].energy > g0[0].energy

    def test_interval_split_matches_isolated_well(self, electron):
        # An interval sets the window floor and the f terms, not which well's
        # levels are listed: the search over the left well of two lists the
        # levels of both, each as the well solved alone has it.
        tol = 1e-8
        dp = two_wells()
        restricted = find_eigenvalues(
            dp, -0.99, -0.01, 300, electron, interval=(-5.0, -1.0), refine_tol=tol
        )
        alone = [find_eigenvalues(two_wells(**{side: "0"}), -0.99, -0.01, 300, electron,
                                  refine_tol=tol) for side in ("right", "left")]
        isolated = sorted(c.energy for found in alone for c in found)
        assert len(alone[0]) == 3 and len(alone[1]) == 2 and len(restricted) == 5
        for cand, e in zip(restricted, isolated):
            assert abs(cand.energy - e) <= 2 * tol
            assert math.isfinite(cand.residual)
        full = find_eigenvalues(dp, -0.99, -0.01, 300, electron, refine_tol=tol)
        assert len(full) == len(restricted)
        for a, b in zip(full, restricted):
            assert abs(a.energy - b.energy) <= 2 * tol

    def test_window_floor_is_the_lowest_potential_in_the_interval(self, electron):
        dp = two_wells()
        interval = (1.0, 5.0)  # the right well, floor -0.6 eV
        found = find_eigenvalues(dp, -0.99, -0.01, 300, electron, interval=interval,
                                 refine_tol=1e-8)
        everywhere = find_eigenvalues(dp, -0.99, -0.01, 300, electron, refine_tol=1e-8)
        above = [c.energy for c in everywhere if c.energy > -0.6]
        assert len(above) < len(everywhere)
        assert [c.energy for c in found] == pytest.approx(above, abs=2e-8)
        for cand in found:
            assert cand.energy > -0.6 and math.isfinite(cand.residual)
            pair = eigenfunction(dp, cand.energy, electron, interval=interval)
            assert float(np.sum(np.abs(pair.psi) ** 2 * dp.dx)) == pytest.approx(1.0)

    def test_validates_arguments(self, well, electron):
        with pytest.raises(ValueError):
            find_eigenvalues(well, -0.1, -0.5, 100, electron)
        with pytest.raises(ValueError):
            find_eigenvalues(well, -0.5, -0.1, 2, electron)
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                find_eigenvalues(well, -0.999, -1e-4, 300, electron, refine_tol=tol)
        with pytest.raises(ValueError, match="holds no grid node"):
            find_eigenvalues(well, -0.999, -1e-4, 300, electron, interval=(5.0, 6.0))

    def test_checks_tolerance_before_the_scan(self, well, electron, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(eigen, "mismatch_curve", no_scan)
        with pytest.raises(ValueError, match="tol"):
            find_eigenvalues(well, -0.999, -1e-4, 300, electron, refine_tol=0.0)

    def test_tolerance_below_float_spacing_returns(self, well, electron):
        found = find_eigenvalues(well, -0.999, -1e-4, 300, electron, refine_tol=1e-17)
        exact = oracle.finite_well_eigenvalues(1.0, 1.0, electron)
        assert len(found) == len(exact)
        for cand, e in zip(found, exact):
            assert cand.energy == pytest.approx(e, abs=1e-7)
            assert cand.uncertainty <= math.ulp(cand.energy)  # bracket at float spacing

    @settings(max_examples=12, deadline=None)
    @given(V0=st.floats(0.2, 1.5), cells=st.integers(32, 96))
    def test_phase_refinement_matches_oracle(self, electron, V0, cells):
        dp, half_width = binary_square_well(V0, cells)
        tol = 1e-9
        Emin, Emax, N_E = -V0 + 1e-3, -1e-4, 300
        grid = np.linspace(Emin, Emax, N_E)
        dE = grid[1] - grid[0]

        def in_window(e):  # away from the scan ends, where a dip cannot be bracketed
            return Emin + dE < e < Emax - dE

        found = [c for c in find_eigenvalues(dp, Emin, Emax, N_E, electron, refine_tol=tol)
                 if in_window(c.energy)]
        exact = [e for e in oracle.finite_well_eigenvalues(V0, half_width, electron)
                 if in_window(e)]
        assert len(found) == len(exact) > 0
        for cand, e in zip(found, exact):
            assert abs(cand.energy - e) <= tol

    def test_phase_refinement_runs_no_full_sweep(self, well, electron, monkeypatch):
        # Both recursions run in full once per level, for the residual f at
        # its root; theta and the eigenfunction run the half sweeps only, and
        # the count the right recursion only.
        full = []

        def counted(dp, E, ctx, lo=0, hi=None):
            if (lo, hi) in ((0, None), (0, dp.n_steps)):
                full.append(E)
            return coefficients(dp, E, ctx, lo, hi)

        monkeypatch.setattr(eigen, "coefficients", counted)
        found = find_eigenvalues(well, -0.999, -1e-4, 300, electron, refine_tol=1e-9)
        for cand in found:
            eigenfunction(well, cand.energy, electron)
        assert full == [c.energy for c in found] and len(found) == 4

    def test_double_well_level_without_phase_bracket(self, monkeypatch):
        # The right-well search of the double well also lists a left-well
        # level near -0.0626 eV.  theta at the right well's floor does not
        # change sign over its dip, so the count bisects the dip until a
        # cell of 1/512 of it brackets a root of theta.
        cells = []
        phase_root = eigen._phase_root

        def recorded(theta, a, b, tol):
            cells.append((a, b, phase_root(theta, a, b, tol)))
            return cells[-1][2]

        monkeypatch.setattr(eigen, "_phase_root", recorded)
        found = config_levels("eigen_double_well")
        assert [c.energy for c in found] == pytest.approx(
            [-0.06944749457, -0.06264675953, -0.05723919859, -0.05191707063,
             -0.04714639315], abs=1e-9)
        around = [(a, b, root) for a, b, root in cells if a <= found[1].energy <= b]
        assert all(root is None for _, _, root in around[:-1])
        (a0, b0, _), (a, b, root) = around[0], around[-1]
        assert b - a == pytest.approx((b0 - a0) / 512) and root[0] == found[1].energy
        assert found[1].residual < 1e-3

    def test_molecular_level_kept_by_the_fallback(self):
        # The top molecular level, at theta's root: f there is 0.062, and f
        # is lower (0.046) 9e-6 eV below it, where the count is still 4.
        dp, ctx, _ = config_run("eigen_molecular")
        found = config_levels("eigen_molecular")
        assert len(found) == 5
        assert found[-1].energy == pytest.approx(-0.05437467, abs=1e-8)
        assert found[-1].residual > 0.05
        assert _count(dp, found[-1].energy - 1e-5, ctx) == 4
        assert _count(dp, found[-1].energy + 1e-5, ctx) == 5

    @settings(max_examples=10, deadline=None)
    @given(dp=step_tables())
    def test_level_count_equals_finite_difference_count(self, electron, dp):
        # The finite-difference levels of the same nodes differ from the
        # step table's by O((k dx)^2), so the counts may differ where a level
        # lies within 1e-3 eV of a window end; such a table is rejected.
        Emin, Emax = -0.6, -0.03
        for end in (max(Emin, dp.u.min()), Emax):
            reference = [finite_difference_count(dp, electron, end + d) for d in (-1e-3, 1e-3)]
            assume(reference[0] == reference[1])
        found = find_eigenvalues(dp, Emin, Emax, 40, electron)
        assert len(found) == finite_difference_count(dp, electron, Emax)


class TestCount:
    def test_finite_well_oracle(self, well, electron):
        exact = oracle.finite_well_eigenvalues(1.0, 1.0, electron)
        between = np.concatenate(([-0.9999], (np.array(exact[1:]) + exact[:-1]) / 2, [-1e-4]))
        assert [_count(well, E, electron) for E in between] == list(range(len(exact) + 1))

    def test_harmonic_oracle(self, electron):
        c2 = 511000.0 / (2.0 * 299.792458**2)
        dp = discretize(make_expression(f"{c2!r}*x^2"), -3.5, 3.5, 1400)
        levels = [oracle.reference_levels("harmonic", n, omega=1.0) for n in range(7)]
        between = [0.1] + [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        assert [_count(dp, E, electron) for E in between] == list(range(7))

    def test_monotone_and_zero_under_the_wall(self):
        # Under the Lennard-Jones wall Rbar is exactly 0 and e^{-2 kappa dx}
        # underflows to 0: neither may read as a zero of the solution.
        dp, ctx, task = config_run("eigen_molecular")
        counts = [_count(dp, E, ctx) for E in np.linspace(task["Emin"], -1e-3, 300)]
        assert counts[0] == 0 and counts[-1] == 5
        assert np.all(np.diff(counts) >= 0)


class TestEigenfunction:
    def test_norm_and_residual(self, well, well_states, electron):
        for cand in well_states:
            pair = eigenfunction(well, cand.energy, electron)
            norm = float(np.sum(np.abs(pair.psi) ** 2 * well.dx))
            assert norm == pytest.approx(1.0, abs=1e-9)
            assert mismatch(well, pair.energy, electron) == cand.residual

    def test_sturm_node_counts(self, well, well_states, electron):
        for nu, cand in enumerate(well_states, start=1):
            pair = eigenfunction(well, cand.energy, electron)
            assert count_interior_nodes(pair.psi) == nu - 1

    def test_matching_point_independence(self, well, well_states, electron):
        for cand in well_states:
            pair = eigenfunction(well, cand.energy, electron)
            # the well floor is flat, so an interval starting one node later
            # moves the match there
            moved = eigenfunction(well, cand.energy, electron,
                                  interval=(well.x[pair.match_index + 1], well.x[-1]))
            assert moved.match_index == pair.match_index + 1
            scale = np.abs(pair.psi).max()
            assert np.abs(np.abs(pair.psi) - np.abs(moved.psi)).max() < 1e-6 * scale

    def test_derivative_continuity_at_match(self, well, well_states, electron):
        for cand in well_states:
            pair = eigenfunction(well, cand.energy, electron)
            assert derivative_mismatch_at_match(
                well, cand.energy, electron, pair.match_index
            ) < 1e-6

    def test_match_index_at_potential_minimum(self, well, well_states, electron):
        pair = eigenfunction(well, well_states[0].energy, electron)
        allowed = np.flatnonzero(well.u < well_states[0].energy)
        assert well.u[pair.match_index] == well.u[allowed].min()

    def test_no_allowed_region_raises(self, well, electron):
        with pytest.raises(InvalidEigenvalueError):
            eigenfunction(well, -1.5, electron)

    @settings(max_examples=15, deadline=None)
    @given(V0=st.floats(0.2, 1.5), cells=st.integers(32, 96))
    def test_every_level_is_normalized_with_n_minus_1_nodes(self, electron, V0, cells):
        # the step table is the well itself, so the oracle levels are its levels
        dp, half_width = binary_square_well(V0, cells)
        levels = oracle.finite_well_eigenvalues(V0, half_width, electron)
        assert levels
        for n, E in enumerate(levels, start=1):
            pair = eigenfunction(dp, E, electron)
            norm = float(np.sum(np.abs(pair.psi) ** 2 * dp.dx))
            assert abs(norm - 1.0) <= 1e-9
            assert count_interior_nodes(pair.psi) == n - 1  # Sturm oscillation


@pytest.mark.parametrize("text,x0,xN", [("0.5*x^2", -3.5, 3.5),
                                        ("0.5*x^2+0.1*x^3", -3.0, 3.5)])
def test_smooth_potential_levels_converge_at_second_order(electron, text, x0, xN):
    # Left-node sampling shifts a level by -(dx/2)<U'> to first order, and
    # <U'> = 0 in a bound state (Ehrenfest), so the error falls as dx^2.
    spec = make_expression(text)
    levels = []
    for N in (400, 800, 1600):
        found = find_eigenvalues(discretize(spec, x0, xN, N), 0.01, 0.9, 200, electron,
                                 refine_tol=1e-13)
        assert len(found) == 3
        levels.append(np.array([c.energy for c in found]))
    E_N, E_2N, E_4N = levels
    order = np.log2(np.abs(E_N - E_2N) / np.abs(E_2N - E_4N))
    assert np.all(np.abs(order - 2.0) <= 0.1), order
