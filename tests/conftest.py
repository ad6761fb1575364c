import numpy as np
import pytest

from qsweep import ParticleContext, transmission_curve


@pytest.fixture(scope="session")
def electron():
    return ParticleContext.for_mass(511000.0)


def count_interior_nodes(psi: np.ndarray) -> int:
    """Sign changes of the phase-aligned real part, ignoring tail noise."""
    amp = np.abs(psi)
    anchor = psi[np.argmax(amp)]
    aligned = (psi * np.conj(anchor / abs(anchor))).real
    significant = aligned[amp > 1e-6 * amp.max()]
    signs = np.sign(significant)
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def derivative_mismatch_at_match(dp, energy, ctx, h):
    """Relative jump of psi' across the matching node for A_h = 1."""
    from qsweep import left_sweep, right_sweep

    ls = left_sweep(dp, energy, ctx)
    rs = right_sweep(dp, energy, ctx)
    d_right = 1j * ls.k[h] * (1.0 - ls.R[h + 1])
    dh = (1.0 + ls.R[h + 1]) / (1.0 + rs.Rbar[h - 1])
    d_left = 1j * ls.k[h - 1] * dh * (rs.Rbar[h - 1] - 1.0)
    return abs(d_right - d_left) / max(abs(d_right), abs(d_left))


def transmission_peak(dp, lo, hi, ctx, tol=1e-9):
    """(E, T) at the largest transmission in [lo, hi]: a 101-energy
    transmission_curve grid is zoomed onto its argmax and that point's
    neighbors until the bracket is at most tol wide."""
    while True:
        curve = transmission_curve(dp, np.linspace(lo, hi, 101), ctx)
        i = int(np.argmax(curve.T))
        if hi - lo <= tol:
            return float(curve.E[i]), float(curve.T[i])
        lo, hi = curve.E[max(i - 1, 0)], curve.E[min(i + 1, 100)]
