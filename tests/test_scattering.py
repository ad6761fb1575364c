import numpy as np
import pytest

from qsweep import (
    discretize,
    left_sweep,
    load_table,
    make_builtin,
    make_expression,
    oracle,
    sample_wavefunction,
    transmission,
    transmission_curve,
)
from qsweep.errors import InvalidEnergyError


@pytest.fixture(scope="module")
def barrier(electron):
    spec = make_builtin("square_barrier", {"V0": 0.5, "center": 0.0, "width": 1.0})
    return discretize(spec, -2, 2, 400)


class TestTransmission:
    def test_free_particle(self, electron):
        dp = discretize(make_expression("0"), -5, 5, 100)
        t, r = transmission(left_sweep(dp, 0.5, electron))
        assert t == pytest.approx(1.0, abs=1e-12)
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_square_barrier_vs_oracle(self, barrier, electron):
        t, r = transmission(left_sweep(barrier, 0.25, electron))
        assert t == pytest.approx(
            oracle.analytic_square_barrier_T(0.25, 0.5, 1.0, electron), abs=1e-6
        )
        assert t + r == pytest.approx(1.0, abs=1e-9)

    def test_semiclassical_transparency(self, electron):
        spec = make_builtin("square_barrier", {"V0": 0.3, "center": 0.0, "width": 1.0})
        dp = discretize(spec, -2, 2, 400)
        t, _ = transmission(left_sweep(dp, 3.0, electron))
        assert t >= 0.9

    def test_evanescent_incidence_rejected(self, electron):
        dp = discretize(load_table([(-1.0, 0.5), (0.0, 0.0), (1.0, 0.0)]), -1, 1, 100)
        with pytest.raises(InvalidEnergyError):
            transmission(left_sweep(dp, 0.2, electron))

    def test_evanescent_exit_reports_zero(self, electron):
        dp = discretize(load_table([(-1.0, 0.0), (0.0, 0.5), (1.0, 0.5)]), -1, 1, 100)
        t, r = transmission(left_sweep(dp, 0.2, electron))
        assert t == 0.0
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_unequal_ends_current_ratio(self, electron):
        # downhill step: T uses the k_N/k_0 current ratio and conserves flux
        dp = discretize(load_table([(-1.0, 0.0), (0.0, -0.4), (1.0, -0.4)]), -1, 1, 100)
        E = 0.3
        t, r = transmission(left_sweep(dp, E, electron))
        r2, tc = oracle.analytic_step_RT(E, 0.0, -0.4, electron)
        assert r == pytest.approx(r2, rel=1e-10)
        assert t == pytest.approx(tc, rel=1e-10)
        assert t + r == pytest.approx(1.0, abs=1e-9)


class TestTransmissionCurve:
    def test_free_particle_all_ones(self, electron):
        dp = discretize(make_expression("0"), -5, 5, 50)
        curve = transmission_curve(dp, np.linspace(0.1, 1.0, 20), electron)
        assert curve.T == pytest.approx(np.ones(20), abs=1e-12)
        assert curve.R == pytest.approx(np.zeros(20), abs=1e-12)

    def test_product_form_matches_amplitude_form(self, barrier, electron):
        grid = np.linspace(0.05, 2.0, 30)
        curve = transmission_curve(barrier, grid, electron)
        for E, t in zip(grid, curve.T):
            t_amp, _ = transmission(left_sweep(barrier, float(E), electron))
            assert t == pytest.approx(t_amp, rel=1e-12)

    def test_t_plus_r_identity(self, barrier, electron):
        curve = transmission_curve(barrier, np.linspace(0.05, 2.0, 50), electron)
        assert curve.T + curve.R == pytest.approx(np.ones(50), abs=1e-9)
        assert np.all(curve.T <= 1.0 + 1e-9)
        assert np.all(curve.T >= 0.0)

    def test_monotone_above_step(self, electron):
        dp = discretize(load_table([(-2.0, 0.0), (0.0, 0.4), (2.0, 0.4)]), -2, 2, 200)
        curve = transmission_curve(dp, np.linspace(0.45, 2.0, 40), electron)
        assert np.all(np.diff(curve.T) > 0)

    def test_error_carries_offending_energy(self, electron):
        dp = discretize(load_table([(-1.0, 0.5), (0.0, 0.0), (1.0, 0.0)]), -1, 1, 100)
        with pytest.raises(InvalidEnergyError, match="0.2"):
            transmission_curve(dp, [0.7, 0.2], electron)

    def test_refinement_convergence(self, electron):
        spec = make_expression("0.45*exp(-(x-0.5)^2/4)")
        E = 0.55
        Ts = []
        for N in (250, 500, 1000):
            dp = discretize(spec, -5, 5, N)
            t, _ = transmission(left_sweep(dp, E, electron))
            Ts.append(t)
        d1, d2 = abs(Ts[1] - Ts[0]), abs(Ts[2] - Ts[1])
        assert d2 < d1 / 1.9  # at least first-order convergence in dx


class TestSampleWavefunction:
    def test_free_particle_unit_modulus(self, electron):
        dp = discretize(make_expression("0"), -5, 5, 100)
        sw = left_sweep(dp, 0.5, electron)
        field = sample_wavefunction(sw, dp, dp.x)
        k = sw.k[0]
        expect = np.exp(1j * k * (dp.x - dp.x[0]))
        assert field.psi == pytest.approx(expect, rel=1e-10)
        assert np.abs(field.psi) == pytest.approx(np.ones(101), abs=1e-12)

    def test_node_samples_equal_amplitude_sums(self, barrier, electron):
        sw = left_sweep(barrier, 0.3, electron)
        field = sample_wavefunction(sw, barrier, barrier.x)
        assert field.psi == pytest.approx(sw.A + sw.B, rel=1e-12)

    def test_continuity_at_nodes(self, barrier, electron):
        sw = left_sweep(barrier, 0.3, electron)
        eps = 1e-12
        left = sample_wavefunction(sw, barrier, barrier.x[1:-1] - eps)
        right = sample_wavefunction(sw, barrier, barrier.x[1:-1] + eps)
        scale = np.abs(right.psi).max()
        assert np.abs(left.psi - right.psi).max() < 1e-9 * scale

    def test_rejects_outside_grid(self, barrier, electron):
        sw = left_sweep(barrier, 0.3, electron)
        for bad in ([2.5], [0.0, np.nan]):
            with pytest.raises(ValueError, match="samples must lie in"):
                sample_wavefunction(sw, barrier, bad)

    def test_resonant_intrawell_amplification(self, electron):
        from qsweep import REFERENCE_DOUBLE_BARRIER
        from qsweep.eigen import golden_section_minimize

        spec = make_builtin("double_barrier_vwell", REFERENCE_DOUBLE_BARRIER)
        dp = discretize(spec, -5, 5, 500)

        def neg_t(E):
            return -transmission(left_sweep(dp, E, electron))[0]

        e_res, _, _ = golden_section_minimize(neg_t, 0.06, 0.075, 1e-9)
        sw = left_sweep(dp, e_res, electron)
        field = sample_wavefunction(sw, dp, np.linspace(-1.2, 1.2, 481))
        assert np.abs(field.psi).max() > 2.0 * abs(sw.A[0])
