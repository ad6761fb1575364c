import math

import numpy as np
import pytest

import qsweep.recursion as recursion
import qsweep.wavepacket as wp
from qsweep import (
    C_LIGHT,
    HBAR,
    design_packet,
    discretize,
    evolve,
    fit_lifetime,
    group_velocity,
    make_expression,
    precompute_modes,
    region_probability,
)
from qsweep.errors import InvalidDesignError


@pytest.fixture(scope="module")
def narrow_band_packet(electron):
    return design_packet(0.406, dE=0.058, n_modes=101, x0=-40.0, ctx=electron)


@pytest.fixture(scope="module")
def free_run(electron, narrow_band_packet):
    dp = discretize(make_expression("0"), -120.0, 120.0, 2400)
    cache = precompute_modes(dp, narrow_band_packet, electron)
    xs = np.linspace(-120.0, 120.0, 4801)
    return dp, cache, xs


class TestDesign:
    def test_energy_width_layout(self, narrow_band_packet):
        pk = narrow_band_packet
        assert pk.kappa0 == pytest.approx(3.264, abs=1e-3)
        assert pk.sigma_k == pytest.approx(0.0666, abs=2e-4)
        assert pk.sigma_x == pytest.approx(15.0, abs=0.02)
        assert pk.fwhm == pytest.approx(25.0, abs=0.1)
        assert pk.t_max == pytest.approx(1654.0, rel=0.01)

    def test_group_velocity(self, narrow_band_packet, electron):
        assert group_velocity(narrow_band_packet, electron) == pytest.approx(0.378, abs=1e-3)

    def test_spacing_and_span(self, narrow_band_packet):
        pk = narrow_band_packet
        gaps = np.diff(pk.kappa)
        assert gaps == pytest.approx(np.full(100, pk.dkappa), rel=1e-12)
        assert pk.kappa[0] == pytest.approx(pk.kappa0 - 3.5 * pk.sigma_k, rel=1e-12)
        assert pk.kappa[-1] == pytest.approx(pk.kappa0 + 3.5 * pk.sigma_k, rel=1e-12)

    def test_coefficients_normalized(self, narrow_band_packet):
        pk = narrow_band_packet
        assert float(np.sum(pk.c**2) * pk.dkappa) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_x_form(self, electron):
        pk = design_packet(0.5, sigma_x=2.0, n_modes=51, x0=0.0, ctx=electron)
        assert pk.sigma_k == pytest.approx(0.5)
        assert pk.E == pytest.approx((pk.kappa / electron.phi) ** 2, rel=1e-14)

    def test_momentum_range_crossing_zero_rejected(self, electron):
        with pytest.raises(InvalidDesignError):
            design_packet(0.01, sigma_x=2.0, n_modes=51, x0=0.0, ctx=electron)

    def test_validates_arguments(self, electron):
        with pytest.raises(ValueError):
            design_packet(-1.0, sigma_x=1.0, n_modes=11, x0=0.0, ctx=electron)
        with pytest.raises(ValueError):
            design_packet(0.5, sigma_x=1.0, dE=0.1, n_modes=11, x0=0.0, ctx=electron)
        with pytest.raises(ValueError):
            design_packet(0.5, n_modes=11, x0=0.0, ctx=electron)
        with pytest.raises(ValueError):
            design_packet(0.5, sigma_x=1.0, n_modes=2, x0=0.0, ctx=electron)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="E0"):
                design_packet(bad, dE=0.05, n_modes=11, x0=0.0, ctx=electron)
            with pytest.raises(ValueError, match="dE"):
                design_packet(0.5, dE=bad, n_modes=11, x0=0.0, ctx=electron)
            with pytest.raises(ValueError, match="sigma_x"):
                design_packet(0.5, sigma_x=bad, n_modes=11, x0=0.0, ctx=electron)
            with pytest.raises(ValueError, match="x0"):
                design_packet(0.5, dE=0.05, n_modes=11, x0=bad, ctx=electron)

    def test_energy_centroid_matches_continuous_envelope(self, electron):
        pk = design_packet(0.406, dE=0.058, n_modes=101, x0=0.0, ctx=electron)
        kk = np.linspace(pk.kappa[0], pk.kappa[-1], 100001)
        weight = np.exp(-((kk - pk.kappa0) ** 2) / pk.sigma_k**2)
        oracle = np.trapezoid(weight * (kk / electron.phi) ** 2, kk) / np.trapezoid(weight, kk)
        discrete = float(np.sum(pk.c**2 * pk.E) * pk.dkappa)
        assert discrete == pytest.approx(oracle, abs=1e-7)
        # first-order: the centroid sits sigma_k^2/(2 phi^2) above E0
        assert discrete - 0.406 == pytest.approx(
            pk.sigma_k**2 / (2 * electron.phi**2), rel=1e-3
        )


class TestModeCache:
    def test_free_cache_has_no_reflections(self, free_run):
        _, cache, _ = free_run
        assert np.all(cache.B == 0)  # B_j = A_j R_{j+1}

    def test_cache_size(self, free_run, narrow_band_packet):
        dp, cache, _ = free_run
        shape = (dp.n_steps + 1, len(narrow_band_packet.kappa))
        assert cache.k.shape == cache.A.shape == cache.B.shape == shape

    def test_evolve_reuses_cache(self, electron, monkeypatch):
        calls = {"n": 0}

        def counting(real):
            def wrapper(*args, **kwargs):
                calls["n"] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("left_sweep", "_steps", "step_wavevectors"):
            monkeypatch.setattr(recursion, name, counting(getattr(recursion, name)))
        dp = discretize(make_expression("0"), -50, 50, 200)
        pk = design_packet(0.5, sigma_x=5.0, n_modes=21, x0=0.0, ctx=electron)
        cache = precompute_modes(dp, pk, electron)
        assert calls["n"] == 2  # one wavevector block, one batched sweep
        xs = np.linspace(-40, 40, 100)
        evolve(pk, cache, 0.0, xs)
        evolve(pk, cache, [10.0, 20.0], xs)
        assert calls["n"] == 2  # no recomputation during evolution


class TestEvolve:
    def test_initial_gaussian_centered_at_x0(self, free_run, narrow_band_packet):
        _, cache, xs = free_run
        field = evolve(narrow_band_packet, cache, 0.0, xs)
        dens = np.abs(field.psi) ** 2
        peak = np.argmax(dens)
        assert xs[peak] == pytest.approx(-40.0, abs=0.1)
        half = dens[peak] / 2.0
        li = np.flatnonzero(dens[:peak] < half)[-1]
        ri = peak + np.flatnonzero(dens[peak:] < half)[0]
        xl = np.interp(half, [dens[li], dens[li + 1]], [xs[li], xs[li + 1]])
        xr = np.interp(half, [dens[ri], dens[ri - 1]], [xs[ri], xs[ri - 1]])
        assert xr - xl == pytest.approx(25.0, rel=0.02)

    def test_initial_norm(self, free_run, narrow_band_packet):
        _, cache, xs = free_run
        field = evolve(narrow_band_packet, cache, 0.0, xs)
        assert region_probability(field, -120, 120) == pytest.approx(1.0, abs=0.01)

    def test_centroid_moves_at_group_velocity(self, free_run, narrow_band_packet, electron):
        _, cache, xs = free_run

        def centroid(t):
            f = evolve(narrow_band_packet, cache, t, xs)
            d = np.abs(f.psi) ** 2
            return float(np.sum(xs * d) / np.sum(d))

        v = (centroid(100.0) - centroid(0.0)) / 100.0
        assert v == pytest.approx(0.378, abs=0.005)

    def test_norm_conserved_in_time(self, free_run, narrow_band_packet):
        # Truncating the coefficient envelope at 3.5 sigma_k leaves ~1e-4
        # relative ringing in the far tails, so "quiet boundary" means well
        # below the packet, not below machine noise.
        _, cache, xs = free_run
        norms = []
        for t in (0.0, 60.0, 120.0):
            f = evolve(narrow_band_packet, cache, t, xs)
            edge = max(abs(f.psi[0]), abs(f.psi[-1]))
            assert edge < 1e-3 * np.abs(f.psi).max()
            norms.append(region_probability(f, -120, 120))
        assert max(norms) - min(norms) < 1e-6

    def test_free_dispersion_law(self, electron):
        dp = discretize(make_expression("0"), -60, 60, 1200)
        pk = design_packet(0.5, sigma_x=2.0, n_modes=201, x0=-20.0, ctx=electron)
        cache = precompute_modes(dp, pk, electron)
        xs = np.linspace(-60, 60, 4801)

        def width(t):
            f = evolve(pk, cache, t, xs)
            d = np.abs(f.psi) ** 2
            w = d / np.sum(d)
            m = np.sum(xs * w)
            return math.sqrt(float(np.sum((xs - m) ** 2 * w)))

        w0 = width(0.0)
        for t in (25.0, 50.0):
            grow = math.sqrt(
                1.0 + (HBAR * C_LIGHT**2 * t / (electron.mass * pk.sigma_x**2)) ** 2
            )
            assert width(t) / w0 == pytest.approx(grow, rel=0.02)

    def test_time_bounds(self, free_run, narrow_band_packet):
        _, cache, xs = free_run
        with pytest.raises(ValueError):
            evolve(narrow_band_packet, cache, -1.0, xs)
        with pytest.warns(RuntimeWarning):
            evolve(narrow_band_packet, cache, narrow_band_packet.t_max * 1.5, xs[:50])

    def test_rejects_samples_outside_grid(self, free_run, narrow_band_packet):
        _, cache, _ = free_run
        for bad in ([130.0], [0.0, math.nan]):
            with pytest.raises(ValueError, match="samples must lie in"):
                evolve(narrow_band_packet, cache, 0.0, bad)


class TestEvolveTimes:
    def test_sequence_matches_single_times(self, free_run, narrow_band_packet):
        _, cache, xs = free_run
        times = [0.0, 60.0, 120.0, 60.0]
        fields = evolve(narrow_band_packet, cache, times, xs)
        assert isinstance(fields, list) and len(fields) == len(times)
        for t, field in zip(times, fields):
            one = evolve(narrow_band_packet, cache, t, xs)
            assert np.array_equal(field.x, one.x) and field.E == one.E
            scale = np.abs(one.psi).max()
            assert np.abs(field.psi - one.psi).max() <= 1e-13 * scale

    def test_one_warning_per_time_beyond_t_max(self, free_run, narrow_band_packet):
        _, cache, xs = free_run
        late = [narrow_band_packet.t_max * 1.5, narrow_band_packet.t_max * 2.0]
        with pytest.warns(RuntimeWarning) as record:
            evolve(narrow_band_packet, cache, [0.0, late[0], 10.0, late[1]], xs[:50])
        assert [str(w.message).split(" fs")[0] for w in record] == [f"t={t!r}" for t in late]

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_bad_time_anywhere_fails_before_any_work(self, free_run, narrow_band_packet,
                                                     monkeypatch, bad):
        _, cache, xs = free_run

        def no_work(*args):
            raise AssertionError("fields formed before the times were checked")

        monkeypatch.setattr(wp, "field_sampler", no_work)
        late = narrow_band_packet.t_max * 2.0  # would warn, as an error, if checked first
        for times in ([bad, 0.0], [0.0, late, bad], np.array([late, 5.0, bad])):
            with pytest.raises(ValueError, match="finite t >= 0"):
                evolve(narrow_band_packet, cache, times, xs)

    def test_fields_keep_the_shape_of_xs(self, free_run, narrow_band_packet):
        _, cache, xs = free_run
        for shaped in (xs[:12].reshape(3, 4), xs[5]):
            flat = evolve(narrow_band_packet, cache, [0.0, 60.0], np.ravel(shaped))
            for one, field in zip(flat, evolve(narrow_band_packet, cache, [0.0, 60.0], shaped)):
                assert field.x.shape == field.psi.shape == np.shape(shaped)
                assert np.array_equal(field.psi.ravel(), one.psi)

    def test_empty_sequence(self, free_run, narrow_band_packet):
        _, cache, xs = free_run
        assert evolve(narrow_band_packet, cache, [], xs) == []


class TestRegionProbability:
    def test_whole_grid_is_unity(self, free_run, narrow_band_packet):
        _, cache, xs = free_run
        f = evolve(narrow_band_packet, cache, 0.0, xs)
        assert region_probability(f, -120, 120) == pytest.approx(1.0, abs=0.01)

    def test_far_region_is_negligible(self, free_run, narrow_band_packet):
        _, cache, xs = free_run
        f = evolve(narrow_band_packet, cache, 0.0, xs)
        assert region_probability(f, 60, 120) < 1e-6

    def test_validates_interval(self, free_run, narrow_band_packet):
        _, cache, xs = free_run
        f = evolve(narrow_band_packet, cache, 0.0, xs)
        with pytest.raises(ValueError):
            region_probability(f, 2.0, 1.0)
        with pytest.raises(ValueError):
            region_probability(f, 300.0, 400.0)


class TestFitLifetime:
    def test_exact_exponential(self):
        ts = np.linspace(0.0, 1000.0, 40)
        samples = list(zip(ts, np.exp(-ts / 200.0)))
        tau, r2 = fit_lifetime(samples, 0.0)
        assert tau == pytest.approx(200.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_noisy_exponential(self):
        rng = np.random.default_rng(42)
        ts = np.arange(240.0, 1100.0, 20.0)
        P = 0.5 * np.exp(-ts / 184.5) * (1.0 + 0.01 * rng.standard_normal(len(ts)))
        tau, r2 = fit_lifetime(list(zip(ts, P)), 232.3)
        assert tau == pytest.approx(184.5, abs=5.0)
        assert r2 > 0.999

    def test_constant_gives_infinite_tau(self):
        samples = [(t, 0.25) for t in (0.0, 10.0, 20.0, 30.0)]
        tau, r2 = fit_lifetime(samples, 0.0)
        assert math.isinf(tau)

    def test_start_cut_applies(self):
        ts = np.linspace(0.0, 500.0, 26)
        P = np.where(ts < 200.0, 0.3, 0.3 * np.exp(-(ts - 200.0) / 150.0))
        tau, _ = fit_lifetime(list(zip(ts, P)), 200.0)
        assert tau == pytest.approx(150.0, rel=1e-9)

    def test_validates_input(self):
        with pytest.raises(ValueError):
            fit_lifetime([(0.0, 1.0), (1.0, 0.9)], 0.0)
        with pytest.raises(ValueError):
            fit_lifetime([(0.0, 1.0), (1.0, -0.5), (2.0, 0.2)], 0.0)
        with pytest.raises(ValueError):
            fit_lifetime([(1.0, 0.5), (1.0, 0.5), (1.0, 0.5)], 0.0)
