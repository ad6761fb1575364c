"""Gaussian wave packets built from cached stationary solutions.

A packet is a superposition of left-incidence stationary fields on an
equally spaced wavevector grid.  Each mode is solved once; evolution in
time is then pure phase accumulation:

    Psi(x, t) = (dk/sqrt(2 pi)) sum_n c_n Psi(x, E_n) e^{-i E_n t / hbar}

The discrete sum needs the dk measure factor to reproduce a unit-norm
packet, and each mode carries a phase e^{-i kappa_n (x0 - x_left)} so the
superposition is centered at x0 rather than at the left grid edge.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, PLANCK_H, ParticleContext
from .errors import InvalidDesignError
from .potential import DiscretizedPotential
from .recursion import LeftSweep, left_sweep
from .scattering import WaveField, field_sampler

# The Gaussian coefficient envelope is negligible beyond this many widths.
KAPPA_HALF_RANGE_SIGMAS = 3.5

FWHM_FACTOR = math.sqrt(2.0 * math.log(4.0))  # FWHM of |psi|^2 = sigma_x * this


@dataclass(frozen=True)
class WavePacket:
    """Gaussian mode coefficients on an equally spaced wavevector grid."""

    kappa: np.ndarray    # mode wavevectors, nm^-1
    dkappa: float        # mode spacing
    c: np.ndarray        # real Gaussian coefficients, sum c^2 dkappa = 1
    E: np.ndarray        # mode energies (kappa/phi)^2, eV
    x0: float            # initial packet center, nm
    sigma_x: float       # spatial width, nm
    sigma_k: float       # 1/sigma_x, nm^-1
    kappa0: float        # center wavevector, nm^-1
    t_max: float         # evolution validity bound, fs

    @property
    def fwhm(self) -> float:
        return self.sigma_x * FWHM_FACTOR


@dataclass(frozen=True)
class ModeCache:
    """One left sweep per packet mode, all on the same grid."""

    dp: DiscretizedPotential
    sweeps: tuple[LeftSweep, ...]


def design_packet(E0: float, *, sigma_x: float | None = None, dE: float | None = None,
                  n_modes: int, x0: float, ctx: ParticleContext) -> WavePacket:
    """Lay out a Gaussian packet around central energy E0.

    The width is set either directly by sigma_x (nm) or by an energy
    half-range dE (eV) via sigma_k = phi*dE/(7*sqrt(E0)), which makes the
    wavevector grid kappa0 +- 3.5 sigma_k span the energies E0 +- dE.
    Coefficients follow the Gaussian envelope and are renormalized so
    sum c_n^2 dkappa = 1 exactly.  The validity bound t_max is set by the
    widest adjacent-mode energy gap: h/(2*(E_last - E_prev)).
    """
    if not 0.0 < E0 < math.inf:
        raise ValueError(f"need a finite E0 > 0, got {E0!r}")
    if not math.isfinite(x0):
        raise ValueError(f"need a finite x0, got {x0!r}")
    if n_modes < 3:
        raise ValueError(f"need n_modes >= 3, got {n_modes!r}")
    if (sigma_x is None) == (dE is None):
        raise ValueError("give exactly one of sigma_x or dE")
    if sigma_x is not None:
        if not 0.0 < sigma_x < math.inf:
            raise ValueError(f"need a finite sigma_x > 0, got {sigma_x!r}")
        sigma_k = 1.0 / sigma_x
    else:
        if not 0.0 < dE < math.inf:
            raise ValueError(f"need a finite dE > 0, got {dE!r}")
        sigma_k = ctx.phi * dE / (7.0 * math.sqrt(E0))
    sigma_x = 1.0 / sigma_k

    kappa0 = ctx.phi * math.sqrt(E0)
    half = KAPPA_HALF_RANGE_SIGMAS * sigma_k
    if kappa0 - half <= 0.0:
        raise InvalidDesignError(
            f"wavevector range {kappa0 - half:.4g}..{kappa0 + half:.4g} nm^-1 "
            "crosses zero; narrow the packet or raise E0"
        )
    kappa = np.linspace(kappa0 - half, kappa0 + half, n_modes)
    dkappa = float(kappa[1] - kappa[0])

    c = np.exp(-((kappa - kappa0) ** 2) / (2.0 * sigma_k**2)) / math.sqrt(
        sigma_k * math.sqrt(math.pi)
    )
    c /= math.sqrt(float(np.sum(c**2)) * dkappa)

    E = (kappa / ctx.phi) ** 2
    t_max = PLANCK_H / (2.0 * (E[-1] - E[-2]))
    return WavePacket(kappa=kappa, dkappa=dkappa, c=c, E=E, x0=x0,
                      sigma_x=sigma_x, sigma_k=sigma_k, kappa0=kappa0,
                      t_max=float(t_max))


def group_velocity(packet: WavePacket, ctx: ParticleContext) -> float:
    """Envelope speed hbar*kappa0/mass in nm/fs."""
    return HBAR * C_LIGHT**2 * packet.kappa0 / ctx.mass


def precompute_modes(dp: DiscretizedPotential, packet: WavePacket,
                     ctx: ParticleContext) -> ModeCache:
    """Solve every packet mode once; evolution reuses these sweeps."""
    sweeps = tuple(left_sweep(dp, float(E), ctx) for E in packet.E)
    return ModeCache(dp=dp, sweeps=sweeps)


def evolve(packet: WavePacket, cache: ModeCache, t: float, xs):
    """Superpose the cached modes at time t over sample positions xs.

    Positions must lie inside the cached grid and t must be finite and
    nonnegative.  Times beyond the packet's t_max only trigger a warning:
    adjacent-mode phases have then wrapped and the superposition gradually
    loses meaning rather than failing.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"need a finite t >= 0, got {t!r}")
    if t > packet.t_max:
        warnings.warn(
            f"t={t!r} fs exceeds the packet validity bound t_max={packet.t_max:.4g} fs",
            RuntimeWarning,
            stacklevel=2,
        )
    xs, field = field_sampler(cache.dp, xs)
    total = np.zeros(xs.shape, dtype=complex)
    shift = packet.x0 - float(cache.dp.x[0])
    for cn, kap, En, sw in zip(packet.c, packet.kappa, packet.E, cache.sweeps):
        phase = cmath.exp(-1j * (En * t / HBAR + kap * shift))
        total += (cn * phase) * field(sw)
    total *= packet.dkappa / math.sqrt(2.0 * math.pi)
    central = float(packet.kappa0**2 * packet.E[0] / packet.kappa[0] ** 2)
    return WaveField(x=xs, psi=total, E=central)


def region_probability(field, a: float, b: float) -> float:
    """sum |psi|^2 * (local sample spacing) over samples with a <= x <= b."""
    if not a < b:
        raise ValueError(f"need a < b, got {a!r} >= {b!r}")
    x = np.asarray(field.x)
    inside = (x >= a) & (x <= b)
    if not inside.any():
        raise ValueError(f"no samples inside [{a!r}, {b!r}]")
    spacing = np.empty(len(x))
    spacing[:-1] = np.diff(x)
    spacing[-1] = spacing[-2] if len(x) > 1 else 0.0
    dens = np.abs(np.asarray(field.psi)) ** 2
    return float(np.sum(dens[inside] * spacing[inside]))


def fit_lifetime(samples, t_start: float) -> tuple[float, float]:
    """Decay constant from a log-linear least-squares fit of P(t).

    Only samples with t >= t_start enter the fit; all of their P values
    must be positive.  Returns (tau, r_squared) with tau = -1/slope; a
    perfectly flat P gives tau = inf.
    """
    pts = [(float(t), float(p)) for t, p in samples if float(t) >= t_start]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 samples with t >= {t_start!r}, got {len(pts)}")
    bad = [p for _, p in pts if p <= 0.0]
    if bad:
        raise ValueError(f"probabilities must be positive for a log fit, got {bad[0]!r}")
    t = np.array([p[0] for p in pts])
    y = np.log(np.array([p[1] for p in pts]))
    if np.ptp(t) == 0.0:
        raise ValueError("all sample times are equal")
    tm = t - t.mean()
    slope = float(np.dot(tm, y - y.mean()) / np.dot(tm, tm))
    intercept = float(y.mean() - slope * t.mean())
    resid = y - (slope * t + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    tau = math.inf if slope == 0.0 else -1.0 / slope
    return tau, r_squared
