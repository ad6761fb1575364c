"""Physical constants, particle context, and energy-to-wavevector conversion.

Every module shares one unit system: energies in eV, lengths in nm, times
in fs, and particle masses given as rest energies m*c^2 in eV.  The factor
phi = sqrt(2*m*c^2)/(hbar*c) converts sqrt(energy) to a spatial wavevector,
so k = phi*sqrt(E - U) is in nm^-1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

HBAR = 0.6582119569        # reduced Planck constant, eV fs
HBAR_C = 197.3269804       # hbar * c, eV nm
C_LIGHT = 299.792458       # speed of light, nm / fs
PLANCK_H = 2.0 * math.pi * HBAR  # Planck constant h, eV fs

ELECTRON_MASS = 511_000.0  # electron rest energy, eV

# Steps whose potential is this close to the scan energy are nudged so two
# adjacent wavevectors can never vanish together (0/0 in the recursion
# denominators).
DEGENERACY_NUDGE_EV = 1e-12


def phi_factor(mass: float) -> float:
    """Wavevector factor sqrt(2*mass)/(hbar*c) in eV^-1/2 nm^-1.

    `mass` is the particle rest energy m*c^2 in eV; 511 keV gives the
    electron value 5.1232.
    """
    if mass <= 0.0:
        raise ValueError(f"mass must be positive, got {mass!r}")
    return math.sqrt(2.0 * mass) / HBAR_C


def wavevector(E: float, U: float, phi: float) -> complex:
    """Complex wavevector phi*sqrt(E - U), principal branch.

    For E > U the result is real positive; for E < U it is purely
    imaginary with positive imaginary part, so exp(+ik*(x - x_j)) is the
    component that decays to the right inside a barrier.
    """
    return phi * cmath.sqrt(complex(E - U, 0.0))


def step_wavevectors(E, u, phi: float) -> np.ndarray:
    """Wavevectors phi*sqrt(E - u) for every potential step, broadcast over E.

    E and u broadcast against each other, so a column of step values
    against a row of energies gives a (steps, energies) block in one call.
    Same branch as `wavevector`: real positive for E > u, positive
    imaginary for E < u.  Steps degenerate with E (|E - U_j| <
    DEGENERACY_NUDGE_EV) are treated as U_j = E - DEGENERACY_NUDGE_EV,
    giving a tiny real wavevector instead of an exact zero.
    """
    k = np.zeros(np.broadcast_shapes(np.shape(E), np.shape(u)), dtype=complex)
    root = k.real  # holds E - u until it becomes phi*sqrt|E - u|
    np.subtract(E, u, out=root)
    root[np.abs(root) < DEGENERACY_NUDGE_EV] = DEGENERACY_NUDGE_EV
    forbidden = root < 0.0
    np.abs(root, out=root)
    np.sqrt(root, out=root)
    root *= phi
    np.copyto(k.imag, root, where=forbidden)
    np.copyto(root, 0.0, where=forbidden)
    return k


@dataclass(frozen=True)
class ParticleContext:
    """A particle of fixed rest energy plus the unit-system constants.

    `phi` must equal sqrt(2*mass)/hbar_c; use `for_mass` instead of
    spelling the factor out by hand.
    """

    mass: float                # rest energy m*c^2, eV
    phi: float                 # sqrt(2*mass)/hbar_c, eV^-1/2 nm^-1
    hbar: float = HBAR         # eV fs
    hbar_c: float = HBAR_C     # eV nm
    c: float = C_LIGHT         # nm / fs

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass!r}")
        expected = math.sqrt(2.0 * self.mass) / self.hbar_c
        if not math.isclose(self.phi, expected, rel_tol=1e-12):
            raise ValueError(
                f"phi={self.phi!r} inconsistent with mass={self.mass!r} "
                f"(expected {expected!r})"
            )

    @classmethod
    def for_mass(cls, mass: float) -> "ParticleContext":
        return cls(mass=mass, phi=phi_factor(mass))
