import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_interior_nodes, derivative_mismatch_at_match
from qsweep import (
    DiscretizedPotential,
    discretize,
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


@pytest.fixture(scope="module")
def well(electron):
    spec = make_builtin("square_barrier", {"V0": -1.0, "center": 0.0, "width": 2.0})
    return discretize(spec, -2, 2, 400)


@pytest.fixture(scope="module")
def well_states(well, electron):
    return find_eigenvalues(well, -0.999, -1e-4, 300, electron, refine_tol=1e-9)


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


class TestFindEigenvalues:
    def test_matches_transcendental_roots(self, well_states, electron):
        exact = oracle.finite_well_eigenvalues(1.0, 1.0, electron)
        assert len(well_states) == len(exact)
        for cand, e in zip(well_states, exact):
            assert cand.energy == pytest.approx(e, abs=1e-7)
            assert cand.uncertainty <= 1e-9

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


class TestEigenfunction:
    def test_norm_and_residual(self, well, well_states, electron):
        for cand in well_states:
            pair = eigenfunction(well, cand.energy, electron)
            assert pair.norm_check == pytest.approx(1.0, abs=1e-9)
            assert pair.residual == pytest.approx(cand.residual, rel=1e-6, abs=1e-12)

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
