"""Transmission coefficients and stationary wave-function sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import ParticleContext
from .errors import InvalidEnergyError
from .potential import DiscretizedPotential
from .recursion import LeftSweep, left_sweep, transmission_sweep


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


def _probabilities(t_amp, r_amp, k0, kN):
    """Transmission and reflection probabilities from endpoint amplitudes.

    R = |r_amp|^2 and T = (Re k_N / Re k_0)|t_amp|^2; the current ratio
    handles unequal asymptotic potentials and reduces to the plain
    amplitude ratio when U(x_0) = U(x_N).  If the far side is evanescent
    (Re k_N = 0) there is no transmitted current and T = 0.
    """
    R = np.abs(r_amp) ** 2
    T = np.where(kN.real > 0.0, (kN.real / k0.real) * np.abs(t_amp) ** 2, 0.0)
    return T, R


def transmission(sweep: LeftSweep) -> tuple[float, float]:
    """Transmission and reflection probabilities from a left sweep.

    Evanescent incidence (E below the entry potential) is an error.
    """
    if not sweep.k[0].real > 0.0:
        raise InvalidEnergyError(
            f"evanescent incidence at E={sweep.E!r} eV (E below the entry potential)"
        )
    a0 = sweep.A[0]
    T, R = _probabilities(sweep.A[-1:] / a0, sweep.B[:1] / a0, sweep.k[:1], sweep.k[-1:])
    return float(T[0]), float(R[0])


def transmission_curve(dp: DiscretizedPotential, Egrid, ctx: ParticleContext) -> TransmissionCurve:
    """T(E) and R(E) over an energy grid, in one energy-batched streaming pass.

    Energies the pass cannot serve (non-finite, evanescent incidence or a
    singular denominator) are rerun in grid order by `transmission` of a
    `left_sweep`, so the curve raises what a loop over the energies would.
    """
    E = np.asarray(Egrid, dtype=float)
    t_amp, r_amp, k0, kN, failed = transmission_sweep(dp, E, ctx)
    for m in np.flatnonzero(failed | ~np.isfinite(E) | (k0.real <= 0.0)):
        sweep = left_sweep(dp, float(E[m]), ctx)
        transmission(sweep)  # raises where the loop would
        t_amp[m], r_amp[m], k0[m], kN[m] = sweep.A[-1], sweep.B[0], sweep.k[0], sweep.k[-1]
    T, R = _probabilities(t_amp, r_amp, k0, kN)
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
