"""Recursive step solver for one-dimensional quantum potentials.

Discretizes an arbitrary U(x) into constant steps and accumulates the
reflection/transmission action of every step recursively, giving exact
piecewise solutions for scattering, resonant, and bound states, plus
Gaussian wave-packet dynamics by phase superposition of cached modes.
"""

__version__ = "0.1.0"

from . import errors, oracle
from .constants import (
    C_LIGHT,
    ELECTRON_MASS,
    HBAR,
    HBAR_C,
    PLANCK_H,
    ParticleContext,
)
from .eigen import (
    Eigenpair,
    EigenvalueCandidate,
    MismatchCurve,
    eigenfunction,
    find_eigenvalues,
    mismatch,
    mismatch_curve,
)
from .potential import (
    REFERENCE_DOUBLE_BARRIER,
    DiscretizedPotential,
    ExpressionError,
    PotentialEvalError,
    PotentialSpec,
    discretize,
    load_table,
    make_builtin,
    make_expression,
    read_table,
)
from .recursion import (
    LeftSweep,
    RightSweep,
    left_sweep,
    right_sweep,
)
from .scattering import (
    TransmissionCurve,
    WaveField,
    sample_wavefunction,
    transmission,
    transmission_curve,
)
from .wavepacket import (
    ModeCache,
    WavePacket,
    design_packet,
    evolve,
    fit_lifetime,
    group_velocity,
    precompute_modes,
    region_probability,
)

__all__ = [
    "C_LIGHT",
    "ELECTRON_MASS",
    "HBAR",
    "HBAR_C",
    "PLANCK_H",
    "REFERENCE_DOUBLE_BARRIER",
    "DiscretizedPotential",
    "Eigenpair",
    "EigenvalueCandidate",
    "ExpressionError",
    "LeftSweep",
    "MismatchCurve",
    "ModeCache",
    "ParticleContext",
    "PotentialEvalError",
    "PotentialSpec",
    "RightSweep",
    "TransmissionCurve",
    "WaveField",
    "WavePacket",
    "design_packet",
    "discretize",
    "eigenfunction",
    "errors",
    "evolve",
    "find_eigenvalues",
    "fit_lifetime",
    "group_velocity",
    "left_sweep",
    "load_table",
    "make_builtin",
    "make_expression",
    "mismatch",
    "mismatch_curve",
    "oracle",
    "precompute_modes",
    "read_table",
    "region_probability",
    "right_sweep",
    "sample_wavefunction",
    "transmission",
    "transmission_curve",
]
