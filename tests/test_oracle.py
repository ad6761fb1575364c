import math
from pathlib import Path

import pytest

from qsweep import ParticleContext, oracle


class TestStepRT:
    def test_no_step_is_transparent(self, electron):
        r2, tc = oracle.analytic_step_RT(0.5, 0.1, 0.1, electron)
        assert r2 == 0.0
        assert tc == 1.0

    def test_half_height_step(self, electron):
        # E = 2*U_right, U_left = 0: k ratio sqrt(2), so |r|^2 = ((s2-1)/(s2+1))^2
        r2, _ = oracle.analytic_step_RT(0.4, 0.0, 0.2, electron)
        s2 = math.sqrt(2.0)
        assert r2 == pytest.approx(((s2 - 1) / (s2 + 1)) ** 2, rel=1e-14)

    def test_sum_rule(self, electron):
        r2, tc = oracle.analytic_step_RT(0.9, 0.1, 0.55, electron)
        assert r2 + tc == pytest.approx(1.0, abs=1e-14)

    def test_total_reflection_between_levels(self, electron):
        assert oracle.analytic_step_RT(0.3, 0.0, 0.5, electron) == (1.0, 0.0)

    def test_below_both_levels_rejected(self, electron):
        with pytest.raises(ValueError):
            oracle.analytic_step_RT(0.05, 0.1, 0.5, electron)


class TestSquareBarrierT:
    def test_vanishing_barrier(self, electron):
        assert oracle.analytic_square_barrier_T(0.5, 0.0, 1.0, electron) == pytest.approx(1.0)

    def test_over_barrier_transparency(self, electron):
        E, V0 = 1.0, 0.5
        k2 = electron.phi * math.sqrt(E - V0)
        for m in (1, 2, 3):
            w = m * math.pi / k2
            assert oracle.analytic_square_barrier_T(E, V0, w, electron) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_deep_tunneling_log_slope(self, electron):
        E, V0 = 0.05, 1.0
        kappa = electron.phi * math.sqrt(V0 - E)
        t1 = oracle.analytic_square_barrier_T(E, V0, 1.0, electron)
        t2 = oracle.analytic_square_barrier_T(E, V0, 2.0, electron)
        assert math.log(t1 / t2) == pytest.approx(2.0 * kappa, rel=1e-3)

    def test_equal_energy_limit(self, electron):
        direct = oracle.analytic_square_barrier_T(0.5, 0.5, 1.0, electron)
        limit = 1.0 / (1.0 + electron.phi**2 * 0.5 * 1.0 / 4.0)
        assert direct == pytest.approx(limit, rel=1e-12)
        near = oracle.analytic_square_barrier_T(0.5 * (1 + 1e-9), 0.5, 1.0, electron)
        assert near == pytest.approx(limit, rel=1e-6)

    def test_rejects_nonpositive_energy(self, electron):
        with pytest.raises(ValueError):
            oracle.analytic_square_barrier_T(0.0, 0.5, 1.0, electron)


class TestFiniteWell:
    def test_shallow_well_single_even_state(self, electron):
        levels = oracle.finite_well_eigenvalues(0.001, 1.0, electron)
        assert len(levels) == 1
        assert -0.001 < levels[0] < 0.0

    def test_deep_well_approaches_infinite_well(self, electron):
        V0, a = 2000.0, 1.0
        levels = oracle.finite_well_eigenvalues(V0, a, electron)
        for n in (1, 2, 3):
            kinetic = levels[n - 1] + V0
            infinite = (math.pi * n / (2.0 * a * electron.phi)) ** 2
            assert kinetic == pytest.approx(infinite, rel=0.01)

    def test_levels_sorted_and_negative(self, electron):
        levels = oracle.finite_well_eigenvalues(1.0, 1.0, electron)
        assert levels == sorted(levels)
        assert all(-1.0 < e < 0.0 for e in levels)

    def test_parity_alternation(self, electron):
        # states alternate even/odd with energy order, so the count of
        # states of a half-depth well interleaves consistently
        V0, a = 1.0, 1.0
        z0 = electron.phi * a * math.sqrt(V0)
        levels = oracle.finite_well_eigenvalues(V0, a, electron)
        # state nu lives on the z branch [(nu-1) pi/2, nu pi/2): even branches
        # for odd nu, odd branches for even nu
        for nu, e in enumerate(levels, start=1):
            z = electron.phi * a * math.sqrt(e + V0)
            assert (nu - 1) * math.pi / 2 < z < nu * math.pi / 2
        assert len(levels) == math.floor(z0 / (math.pi / 2)) + 1

    def test_validates_arguments(self, electron):
        with pytest.raises(ValueError):
            oracle.finite_well_eigenvalues(-1.0, 1.0, electron)


class TestReferenceLevels:
    def test_harmonic_ground_state(self):
        assert oracle.reference_levels("harmonic", 0, omega=2.0) == pytest.approx(
            0.6582119569
        )

    def test_rydberg_electron(self, electron):
        e1 = oracle.reference_levels("rydberg", 1, ctx=electron)
        # mass * e2^2 / (2 hbar_c^2) with the tabulated e2 = 1.44 eV nm
        assert e1 == pytest.approx(-13.6064, abs=1e-3)
        assert e1 == pytest.approx(-13.6057, rel=1e-3)  # CODATA Rydberg, to rounding

    def test_rydberg_scaling(self, electron):
        e1 = oracle.reference_levels("rydberg", 1, ctx=electron)
        e2 = oracle.reference_levels("rydberg", 2, ctx=electron)
        assert e2 / e1 == pytest.approx(0.25, rel=1e-14)

    def test_validates_arguments(self, electron):
        with pytest.raises(ValueError):
            oracle.reference_levels("harmonic", -1, omega=1.0)
        with pytest.raises(ValueError):
            oracle.reference_levels("rydberg", 0, ctx=electron)
        with pytest.raises(ValueError):
            oracle.reference_levels("morse", 1)
        with pytest.raises(ValueError):
            oracle.reference_levels("harmonic", 1)
        with pytest.raises(ValueError):
            oracle.reference_levels("rydberg", 1)


def test_oracles_do_not_import_the_engine():
    import qsweep.oracle as module

    source = Path(module.__file__).read_text()
    for name in ("recursion", "scattering", "eigen"):
        assert f"from .{name}" not in source and f"import {name}" not in source


def test_oracle_determinism(electron):
    a = oracle.finite_well_eigenvalues(1.0, 1.0, electron)
    b = oracle.finite_well_eigenvalues(1.0, 1.0, electron)
    assert a == b
