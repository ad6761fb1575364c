import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from qsweep.eigen import golden_section_minimize
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


@pytest.fixture
def golden_calls(monkeypatch):
    """The results of every golden-section search find_eigenvalues runs."""
    results = []

    def recorded(*args):
        results.append(golden_section_minimize(*args))
        return results[-1]

    monkeypatch.setattr(eigen, "golden_section_minimize", recorded)
    return results


def config_levels(name):
    """find_eigenvalues run as the eigen task of configs/<name>.json runs it."""
    path = CONFIGS / f"{name}.json"
    cfg = cli.parse_config(json.loads(path.read_text(encoding="utf-8")), path.parent)
    task = cfg.task
    dp = discretize(cfg.spec, cfg.x0, cfg.xN, cfg.N)
    return find_eigenvalues(dp, task["Emin"], task["Emax"], task["N_E"], cfg.ctx,
                            interval=task["interval"], refine_tol=task["refine_tol"])


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


class TestGoldenSection:
    def test_finds_parabola_minimum(self):
        x, fx, half = golden_section_minimize(lambda x: (x - 0.3) ** 2, -1, 1, 1e-9)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert half <= 5e-10

    def test_handles_cusp(self):
        x, fx, _ = golden_section_minimize(lambda x: abs(x - 0.123), 0, 1, 1e-10)
        assert x == pytest.approx(0.123, abs=1e-9)

    def test_validates_bracket(self):
        with pytest.raises(ValueError):
            golden_section_minimize(lambda x: x, 1.0, 0.0, 1e-3)

    def test_tolerance_below_float_spacing_returns(self):
        # The bracket cannot shrink below the float spacing around 0.3;
        # the search stops there and reports the half-bracket it reached.
        x, fx, half = golden_section_minimize(lambda x: abs(x - 0.3), 0.2, 0.4, 1e-20)
        assert x == pytest.approx(0.3, abs=1e-15)
        assert 1e-20 < half <= math.ulp(0.3)


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
        # Two wells separated by an impenetrable wall: the interval-restricted
        # search of the composite must reproduce the spectrum of the left well
        # solved on its own (the exp(-73) coupling through the wall is far
        # below machine precision, so the wells are numerically independent).
        composite = [
            (-math.inf, -3.0, "0"),
            (-3.0, -1.0, "-1.0"),
            (-1.0, 1.0, "50"),
            (1.0, 3.0, "-0.6"),
            (3.0, math.inf, "0"),
        ]
        alone = [
            (-math.inf, -3.0, "0"),
            (-3.0, -1.0, "-1.0"),
            (-1.0, 1.0, "50"),
            (1.0, math.inf, "0"),
        ]
        tol = 1e-8
        dp = discretize(make_expression(composite), -5, 5, 500)
        dp_alone = discretize(make_expression(alone), -5, 5, 500)
        restricted = find_eigenvalues(
            dp, -0.99, -0.01, 300, electron, interval=(-5.0, -1.0), refine_tol=tol
        )
        isolated = find_eigenvalues(dp_alone, -0.99, -0.01, 300, electron, refine_tol=tol)
        assert len(restricted) == len(isolated) > 0
        for a, b in zip(restricted, isolated):
            assert abs(a.energy - b.energy) <= tol
        # Full-grid dips of the composite (those the left-well floor does not
        # drown) sit at the same energies as the restricted search finds.
        full = find_eigenvalues(dp, -0.99, -0.01, 300, electron, refine_tol=tol)
        for cand in full:
            assert min(abs(cand.energy - r.energy) for r in restricted) <= tol

    def test_validates_arguments(self, well, electron):
        with pytest.raises(ValueError):
            find_eigenvalues(well, -0.1, -0.5, 100, electron)
        with pytest.raises(ValueError):
            find_eigenvalues(well, -0.5, -0.1, 2, electron)
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                find_eigenvalues(well, -0.999, -1e-4, 300, electron, refine_tol=tol)

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
    def test_phase_refinement_matches_oracle_and_golden_section(self, electron, V0, cells):
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
            i = int(np.argmin(np.abs(grid - cand.energy)))
            e_golden, _, _ = golden_section_minimize(
                lambda E: mismatch(dp, E, electron), grid[i - 1], grid[i + 1], tol)
            assert abs(cand.energy - e_golden) <= tol

    def test_finite_well_needs_no_golden_section(self, well, electron, golden_calls):
        found = find_eigenvalues(well, -0.999, -1e-4, 300, electron, refine_tol=1e-9)
        assert len(found) == 4
        assert golden_calls == []

    def test_phase_refinement_runs_no_full_sweep(self, well, electron, golden_calls,
                                                 monkeypatch):
        # Both recursions run in full once per level, for the residual f at
        # its root; theta and the eigenfunction run the half sweeps only.
        full = []

        def counted(dp, E, ctx, lo=0, hi=None):
            if (lo, hi) in ((0, None), (0, dp.n_steps)):
                full.append(E)
            return coefficients(dp, E, ctx, lo, hi)

        monkeypatch.setattr(eigen, "coefficients", counted)
        found = find_eigenvalues(well, -0.999, -1e-4, 300, electron, refine_tol=1e-9)
        for cand in found:
            eigenfunction(well, cand.energy, electron)
        assert golden_calls == []
        assert full == [c.energy for c in found] and len(found) == 4

    def test_double_well_level_without_phase_bracket(self, golden_calls):
        # The right-well search of the double well also dips at a left-well
        # level near -0.0626 eV; theta does not change sign over that dip,
        # so golden section refines it.
        found = config_levels("eigen_double_well")
        assert len(found) == 5
        assert len(golden_calls) == 1
        assert found[1].energy == golden_calls[0][0] == pytest.approx(-0.0626, abs=1e-4)

    def test_molecular_level_kept_by_the_fallback(self, golden_calls):
        # The top molecular level: f at the theta root lies above the
        # acceptance threshold, golden section on f finds it below.
        found = config_levels("eigen_molecular")
        assert len(found) == 5
        assert found[-1].energy in [x for x, _, _ in golden_calls]


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
