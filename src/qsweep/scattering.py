"""Transmission coefficients and stationary wave-function sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import ParticleContext
from .errors import InvalidEnergyError
from .potential import DiscretizedPotential
from .recursion import (
    LeftSweep,
    finite_prefix,
    left_sweep,
    nonfinite_energy,
    raise_singular,
    transmission_sweep,
)


@dataclass(frozen=True)
class TransmissionCurve:
    """Transmission/reflection probabilities over an energy grid, with the
    endpoint amplitude ratios t_amp = A_N/A_0 and r_amp = B_0/A_0."""

    E: np.ndarray
    T: np.ndarray
    R: np.ndarray
    t_amp: np.ndarray
    r_amp: np.ndarray


@dataclass(frozen=True)
class WaveField:
    """Complex wave-function samples at positions x."""

    x: np.ndarray
    psi: np.ndarray
    E: float


def _probabilities(E, t_amp, r_amp, k0, kN, singular):
    """Transmission and reflection probabilities from endpoint amplitudes.

    R = |r_amp|^2 and T = (Re k_N / Re k_0)|t_amp|^2; the current ratio
    handles unequal asymptotic potentials and reduces to the plain
    amplitude ratio when U(x_0) = U(x_N).  If the far side is evanescent
    (Re k_N = 0) there is no transmitted current and T = 0.  Evanescent
    incidence is an error.  Errors name the first failing energy in grid
    order; at one energy a singular sweep (`singular`, as returned by
    transmission_sweep) comes first, as in the single-energy path.
    """
    failed = (k0.real <= 0.0) | (singular > 0)
    if failed.any():
        m = int(np.argmax(failed))
        raise_singular(E[m:m + 1], singular[m:m + 1])
        raise InvalidEnergyError(
            f"evanescent incidence at E={float(E[m])!r} eV (E below the entry potential)"
        )
    R = np.abs(r_amp) ** 2
    T = np.where(kN.real > 0.0, (kN.real / k0.real) * np.abs(t_amp) ** 2, 0.0)
    return T, R


def transmission(sweep: LeftSweep, dp: DiscretizedPotential) -> tuple[float, float]:
    """Transmission and reflection probabilities from a left sweep."""
    a0 = sweep.A[0]
    T, R = _probabilities(np.array([sweep.E]), sweep.A[-1:] / a0, sweep.B[:1] / a0,
                          sweep.k[:1], sweep.k[-1:], np.zeros(1, dtype=int))
    return float(T[0]), float(R[0])


def transmission_curve(dp: DiscretizedPotential, Egrid, ctx: ParticleContext) -> TransmissionCurve:
    """T(E) and R(E) over an energy grid, in one energy-batched streaming pass.

    Errors name the first failing energy in grid order, as a loop over the
    energies would: a non-finite energy, a singular recursion denominator
    (the error also names the step) or evanescent incidence.
    """
    E = np.asarray(Egrid, dtype=float)
    n = finite_prefix(E)
    t_amp, r_amp, k0, kN, fail = transmission_sweep(dp, E[:n], ctx)
    T, R = _probabilities(E[:n], t_amp, r_amp, k0, kN, fail)
    if n < len(E):
        raise nonfinite_energy(E[n])
    return TransmissionCurve(E=E, T=T, R=R, t_amp=t_amp, r_amp=r_amp)


def field_sampler(dp: DiscretizedPotential, xs):
    """Check and locate sample positions xs on the grid, once.

    Returns (xs as an array, field), where field(sweep) evaluates a swept
    solution at xs: within step j it is A_j e^{ik_j(x-x_j)} +
    B_j e^{-ik_j(x-x_j)}, at the nodes themselves A_j + B_j.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("no sample positions given")
    if xs.min() < dp.x[0] or xs.max() > dp.x[-1]:
        raise ValueError(
            f"samples must lie in [{dp.x[0]!r}, {dp.x[-1]!r}] nm"
        )
    j = np.searchsorted(dp.x, xs, side="right") - 1
    np.clip(j, 0, dp.n_steps, out=j)
    rel = xs - dp.x[j]

    def field(sweep: LeftSweep) -> np.ndarray:
        kj = sweep.k[j]
        return sweep.A[j] * np.exp(1j * kj * rel) + sweep.B[j] * np.exp(-1j * kj * rel)

    return xs, field


def sample_wavefunction(sweep: LeftSweep, dp: DiscretizedPotential, xs) -> WaveField:
    """Evaluate the swept solution at arbitrary positions inside the grid."""
    xs, field = field_sampler(dp, xs)
    return WaveField(x=xs, psi=field(sweep), E=sweep.E)


def wavefunction_at_nodes(dp: DiscretizedPotential, E: float, ctx: ParticleContext) -> WaveField:
    """Left-incidence stationary field sampled at the grid nodes."""
    sweep = left_sweep(dp, E, ctx)
    return WaveField(x=dp.x.copy(), psi=sweep.A + sweep.B, E=E)
