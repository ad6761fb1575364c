import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsweep import HBAR_C, ParticleContext
from qsweep.constants import DEGENERACY_NUDGE_EV, phi_factor, step_wavevectors


def test_phi_electron():
    assert phi_factor(511000.0) == pytest.approx(5.1232, abs=1e-4)


def test_phi_molecular_mass():
    # sqrt(2 * 469.4e6) / 197.3269804, evaluated independently
    assert phi_factor(469.4e6) == pytest.approx(155.2745, abs=5e-4)


def test_phi_rejects_nonpositive_mass():
    for mass in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            phi_factor(mass)


def test_wavevector_propagating():
    k = step_wavevectors(0.406, 0.0, 5.1232)
    assert k.real == pytest.approx(3.264, abs=1e-3)
    assert k.imag == 0.0


def test_wavevector_degenerate_is_nudged():
    # |E - U| below the nudge is treated as E - U = DEGENERACY_NUDGE_EV
    k = step_wavevectors(0.45, np.array([0.45, 0.45 + 0.5e-12, 0.45 - 0.5e-12]), 5.1232)
    assert np.all(k == 5.1232 * math.sqrt(DEGENERACY_NUDGE_EV))


def test_wavevector_evanescent():
    # phi * sqrt(0.25) on the imaginary axis
    k = step_wavevectors(0.2, 0.45, 5.1232)
    assert k.real == 0.0
    assert k.imag == pytest.approx(2.5616, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    E=st.floats(-50.0, 50.0),
    U=st.floats(-50.0, 50.0),
    phi=st.floats(1e-3, 1e3),
)
def test_wavevector_square_identity_and_branch(E, U, phi):
    assume(abs(E - U) >= DEGENERACY_NUDGE_EV)
    k = complex(step_wavevectors(E, U, phi))
    assert k.imag >= 0.0
    expect = phi**2 * (E - U)
    scale = max(abs(expect), 1e-30)
    assert abs((k * k).real - expect) / scale < 1e-14
    assert abs((k * k).imag) / scale < 1e-14


def test_phi_monotone_in_mass():
    masses = [1.0, 10.0, 511000.0, 469.4e6]
    values = [phi_factor(m) for m in masses]
    assert values == sorted(values)


def test_context_derives_phi_from_mass():
    ctx = ParticleContext.for_mass(511000.0)
    assert ctx == ParticleContext(511000.0)
    assert ctx.phi == math.sqrt(2 * 511000.0) / HBAR_C
    with pytest.raises(TypeError):
        ParticleContext(mass=511000.0, phi=5.0)
    for mass in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ParticleContext(mass=mass)
