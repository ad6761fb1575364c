"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see the lines for passing criteria)."""

import math
import time

import numpy as np
import pytest

from conftest import count_interior_nodes, derivative_mismatch_at_match, transmission_peak
from qsweep import (
    REFERENCE_DOUBLE_BARRIER,
    DiscretizedPotential,
    ParticleContext,
    design_packet,
    discretize,
    eigenfunction,
    evolve,
    find_eigenvalues,
    fit_lifetime,
    left_sweep,
    make_builtin,
    make_expression,
    mismatch_curve,
    oracle,
    precompute_modes,
    region_probability,
    right_sweep,
    sample_wavefunction,
    transmission,
    transmission_curve,
)
from qsweep.constants import HBAR, phi_factor


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------
# shared heavy computations

@pytest.fixture(scope="module")
def molecular_run():
    ctx = ParticleContext.for_mass(469.4e6)
    spec = make_builtin("lennard_jones", {"A": 0.124e-12, "B": 1.488e-6, "J": 0})
    dp = discretize(spec, 0.002, 0.2, 396)
    start = time.perf_counter()
    found = find_eigenvalues(dp, -4.4, 0.0, 1000, ctx, refine_tol=1e-7)
    elapsed = time.perf_counter() - start
    return dp, ctx, found, elapsed


@pytest.fixture(scope="module")
def double_well_run():
    ctx = ParticleContext.for_mass(1.022e6)
    spec = make_builtin(
        "double_well",
        {"A_left": 4.0e-3, "A_right": 2.4e-3, "B": 0.450, "C": -0.500,
         "delta": 0.5, "alpha": 10.0},
    )
    dp = discretize(spec, -20.0, 20.0, 400)
    grid = (-0.070, -0.045, 201)
    right = find_eigenvalues(dp, *grid, ctx, interval=(0.0, 20.0), refine_tol=1e-12)
    left = find_eigenvalues(dp, *grid, ctx, interval=(-20.0, 0.0), refine_tol=1e-12)
    scan_step = (grid[1] - grid[0]) / (grid[2] - 1)
    return dp, ctx, right, left, scan_step


@pytest.fixture(scope="module")
def finite_well_run(electron):
    spec = make_builtin("square_barrier", {"V0": -1.0, "center": 0.0, "width": 2.0})
    dp = discretize(spec, -2.0, 2.0, 400)
    found = find_eigenvalues(dp, -0.999, -1e-4, 300, electron, refine_tol=1e-9)
    return dp, found


@pytest.fixture(scope="module")
def harmonic_run(electron):
    c2 = 511000.0 / (2.0 * 299.792458**2)
    dp = discretize(make_expression(f"{c2!r}*x^2"), -3.5, 3.5, 1400)
    found = find_eigenvalues(dp, 0.2, 3.8, 220, electron, refine_tol=1e-9)
    return dp, found


@pytest.fixture(scope="module")
def resonance_run(electron):
    spec = make_builtin("double_barrier_vwell", REFERENCE_DOUBLE_BARRIER)
    dp = discretize(spec, -5.0, 5.0, 500)

    def t_of(E: float) -> float:
        return transmission(left_sweep(dp, E, electron))[0]

    e_res, t_peak = transmission_peak(dp, 0.06, 0.075, electron)
    return dp, t_of, e_res, t_peak


@pytest.fixture(scope="module")
def resonance_lifetime(resonance_run, electron):
    """Decay time and r^2 of the well probability of a packet launched at
    the resonance."""
    dp, _, e_res, _ = resonance_run
    packet = design_packet(e_res, dE=0.045, n_modes=257, x0=-25.0, ctx=electron)
    cache = precompute_modes(dp, packet, electron)
    well = np.linspace(-1.2, 1.2, 241)
    times = np.arange(0.0, 1241.0, 40.0)
    samples = [
        (float(t), region_probability(evolve(packet, cache, float(t), well), -1.2, 1.2))
        for t in times
    ]
    return fit_lifetime(samples, t_start=450.0)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_molecular_vibrational_levels(molecular_run):
    dp, ctx, found, elapsed = molecular_run
    published = [-3.4416, -1.8793, -0.8660, -0.2991]
    ok = len(found) >= 4
    detail = f"found {len(found)} levels in {elapsed:.1f}s:"
    for cand, target in zip(found, published):
        diff = abs(cand.energy - target)
        detail += f" {cand.energy:+.4f} (|d|={diff:.4f})"
        ok &= diff <= 0.0022
    ok &= elapsed < 60.0
    report("1 molecular vibrational levels (+-0.0022 eV)", ok, detail)


def test_criterion_2_double_well_split_interval(double_well_run):
    dp, ctx, right, left, scan_step = double_well_run
    published = [-62.68e-3, -57.27e-3, -51.86e-3]
    ok = True
    detail = ""
    for target in published:
        near_right = min(right, key=lambda c: abs(c.energy - target))
        diff = abs(near_right.energy - target)
        ok &= diff <= 0.13e-3
        near_left = min(left, key=lambda c: abs(c.energy - near_right.energy))
        coincide = abs(near_left.energy - near_right.energy)
        ok &= coincide <= scan_step
        detail += (f" {near_right.energy * 1e3:.2f}meV"
                   f" (|d|={diff * 1e3:.3f}, split={coincide * 1e3:.4f})")
    report("2 double-well energies (+-0.13 meV, coincident dips)", ok, detail)


def test_criterion_3_packet_kinematics(electron):
    packet = design_packet(0.406, dE=0.058, n_modes=101, x0=-60.0, ctx=electron)
    from qsweep import group_velocity

    v = group_velocity(packet, electron)
    checks = [
        ("kappa0", packet.kappa0, 3.264, 0.001),
        ("sigma_k", packet.sigma_k, 0.0666, 0.0002),
        ("fwhm", packet.fwhm, 25.0, 0.1),
        ("v_g", v, 0.378, 0.001),
        ("t_max", packet.t_max, 1654.0, 16.54),
    ]
    ok = all(abs(value - target) <= tol for _, value, target, tol in checks)
    detail = " ".join(f"{name}={value:.6g}" for name, value, _, _ in checks)
    report("3 packet kinematics", ok, detail)


def test_criterion_4_wavevector_constant():
    value = phi_factor(511000.0)
    report("4 electron wavevector factor", abs(value - 5.1232) <= 1e-4,
           f"phi={value:.6f}")


def test_criterion_5_oracle_equivalence(electron, finite_well_run, harmonic_run):
    # square barrier against the closed form, on a barrier-edge-aligned grid
    spec = make_builtin("square_barrier", {"V0": 0.5, "center": 0.0, "width": 1.0})
    dp = discretize(spec, -2.0, 2.0, 400)  # dx = 0.01 <= lambda/40 up to 2 eV
    worst_t = 0.0
    for E in np.linspace(0.05, 2.0, 50):
        t, _ = transmission(left_sweep(dp, float(E), electron))
        worst_t = max(worst_t, abs(t - oracle.analytic_square_barrier_T(
            float(E), 0.5, 1.0, electron)))
    ok = worst_t <= 1e-6

    _, well_found = finite_well_run
    exact = oracle.finite_well_eigenvalues(1.0, 1.0, electron)
    worst_well = max(abs(c.energy - e) for c, e in zip(well_found, exact))
    ok &= len(well_found) == len(exact) and worst_well <= 1e-6

    _, harmonic_found = harmonic_run
    worst_h = 0.0
    ok &= len(harmonic_found) == 6
    for n, cand in enumerate(harmonic_found):
        expect = oracle.reference_levels("harmonic", n, omega=1.0)
        worst_h = max(worst_h, abs(cand.energy - expect) / expect)
    ok &= worst_h <= 1e-3
    report("5 oracle equivalence", ok,
           f"barrier |dT|={worst_t:.2e} well |dE|={worst_well:.2e} "
           f"harmonic rel={worst_h:.2e}")


def test_criterion_6_truncated_coulomb_odd_modes(electron):
    spec = make_builtin("coulomb_trunc", {"e2": 1.44, "eps": 2.5e-4})
    dp = discretize(spec, -1.6, 1.6, 6400)
    found = find_eigenvalues(dp, -16.0, -2.0, 300, electron, refine_tol=1e-5)
    odd = []
    center = int(np.argmin(np.abs(dp.x)))
    for cand in found:
        pair = eigenfunction(dp, cand.energy, electron)
        if abs(pair.psi[center]) < 0.05 * np.abs(pair.psi).max():
            odd.append(cand.energy)
    ok = len(odd) >= 2
    detail = f"odd modes: {[f'{e:.3f}' for e in odd]}"
    for value, target in zip(odd[:2], (-13.6057, -3.4014)):
        rel = abs(value - target) / abs(target)
        detail += f" rel={rel:.3f}"
        ok &= rel <= 0.05
    report("6 truncated-Coulomb odd modes (5%)", ok, detail)


def test_criterion_7_conservation_suite(electron):
    rng = np.random.default_rng(20260809)
    worst_sum = worst_form = worst_recip = 0.0
    for _ in range(1000):
        N = int(rng.integers(40, 160))
        u = np.zeros(N + 1)
        u[10 : N - 10] = rng.uniform(-0.6, 0.8, N - 20)
        x = np.linspace(-3.0, 3.0, N + 1)
        dx = np.empty(N + 1)
        dx[:-1] = np.diff(x)
        dx[-1] = dx[-2]
        dp = DiscretizedPotential(x=x, u=u, dx=dx)
        E = float(rng.uniform(0.05, 2.0))
        ls = left_sweep(dp, E, electron)
        rs = right_sweep(dp, E, electron)
        t, r = transmission(ls)
        worst_sum = max(worst_sum, abs(t + r - 1.0))
        t_prod = transmission_curve(dp, [E], electron).T[0]
        worst_form = max(worst_form, abs(t_prod - t) / max(t, 1e-300))
        t_right = (ls.k[0].real / ls.k[-1].real) * abs(rs.D[1] / rs.D[-1]) ** 2
        worst_recip = max(worst_recip, abs(t - t_right))
    ok = worst_sum <= 1e-9 and worst_form <= 1e-12 and worst_recip <= 1e-10
    report("7 conservation suite (1000 random pairs)", ok,
           f"|T+R-1|={worst_sum:.2e} |forms|={worst_form:.2e} |recip|={worst_recip:.2e}")


def test_criterion_8_resonance_behavior(resonance_run, resonance_lifetime, electron):
    dp, t_of, e_res, t_peak = resonance_run
    ok = t_peak > 0.9
    # floor: everywhere in the scan band at least 5 linewidths off resonance
    floor = max(
        t_of(float(E))
        for E in np.linspace(0.02, 0.2, 100)
        if abs(float(E) - e_res) > 0.02
    )
    ok &= floor < 0.1

    sweep = left_sweep(dp, e_res, electron)
    xs = np.linspace(-1.2, 1.2, 961)
    amp = np.abs(sample_wavefunction(sweep, dp, xs).psi)
    antinodes = [
        i for i in range(1, len(amp) - 1)
        if amp[i] > amp[i - 1] and amp[i] > amp[i + 1] and amp[i] > 0.2 * amp.max()
    ]
    ok &= len(antinodes) == 2
    ok &= amp.max() > 2.0 * abs(sweep.A[0])

    tau, r2 = resonance_lifetime
    ok &= r2 > 0.99 and tau > 0
    report("8 resonance behavior", ok,
           f"E_res={e_res:.4f} T_peak={t_peak:.4f} floor={floor:.4f} "
           f"antinodes={len(antinodes)} gain={amp.max():.2f} tau={tau:.1f}fs r2={r2:.6f}")


def test_criterion_9_eigenfunction_integrity(molecular_run, double_well_run,
                                             finite_well_run, harmonic_run, electron):
    runs = [
        ("molecular", molecular_run[0], molecular_run[1], molecular_run[2][:4], None, True),
        ("double-well", double_well_run[0], double_well_run[1],
         double_well_run[2], (0.0, 20.0), False),
        ("finite-well", finite_well_run[0], electron, finite_well_run[1], None, True),
        ("harmonic", harmonic_run[0], electron, harmonic_run[1], None, True),
    ]
    ok = True
    worst_norm = worst_cont = 0.0
    node_fail = []
    for label, dp, ctx, found, interval, single_well in runs:
        for nu, cand in enumerate(found, start=1):
            pair = eigenfunction(dp, cand.energy, ctx, interval=interval)
            norm = float(np.sum(np.abs(pair.psi) ** 2 * dp.dx))
            worst_norm = max(worst_norm, abs(norm - 1.0))
            cont = derivative_mismatch_at_match(dp, cand.energy, ctx, pair.match_index)
            worst_cont = max(worst_cont, cont)
            if single_well:
                nodes = count_interior_nodes(pair.psi)
                if nodes != nu - 1:
                    node_fail.append(f"{label} state {nu}: {nodes} nodes")
    ok &= worst_norm <= 1e-9 and worst_cont <= 1e-6 and not node_fail
    report("9 eigenfunction integrity", ok,
           f"|norm-1|={worst_norm:.2e} continuity={worst_cont:.2e} "
           f"node failures={node_fail or 'none'}")


def test_criterion_10_resonance_lifetime_is_hbar_over_linewidth(resonance_run,
                                                                 resonance_lifetime):
    # Breit-Wigner: the packet engine's trapped-mode lifetime and the
    # scattering engine's T(E) linewidth are one number, tau = hbar / Gamma.
    _, t_of, e_res, t_peak = resonance_run

    def half_peak(inside, outside):
        """Bisect for T = T_peak / 2 between an energy above it and one below."""
        while abs(outside - inside) > 1e-12:
            mid = 0.5 * (inside + outside)
            if t_of(mid) > 0.5 * t_peak:
                inside = mid
            else:
                outside = mid
        return 0.5 * (inside + outside)

    gamma = half_peak(e_res, e_res + 0.01) - half_peak(e_res, e_res - 0.01)
    tau, _ = resonance_lifetime
    expected = HBAR / gamma
    report("10 resonance lifetime", abs(tau - expected) <= 0.01 * expected,
           f"Gamma={1e3 * gamma:.4f}meV hbar/Gamma={expected:.2f}fs tau={tau:.2f}fs")
