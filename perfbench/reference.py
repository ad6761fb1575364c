"""Independent numpy references for the benchmark's output checker.

Nothing here imports qsweep: the potentials are re-evaluated from the
generator's parameters, the scattering amplitudes and packet fields come
from a plain transfer-matrix walk (not the program's reflection
recursion), f(E) from walks of amplitude ratios through the same matching
conditions, and the finite-well levels used to place energy windows come
from a bisection of the textbook matching conditions.
"""

from __future__ import annotations

import math

import numpy as np

HBAR = 0.6582119569        # eV fs
HBAR_C = 197.3269804       # eV nm
C_LIGHT = 299.792458       # nm / fs
PLANCK_H = 2.0 * math.pi * HBAR
DEGENERACY_NUDGE_EV = 1e-12


def phi(mass: float) -> float:
    """Wavevector factor sqrt(2 m c^2)/(hbar c) in eV^-1/2 nm^-1."""
    return math.sqrt(2.0 * mass) / HBAR_C


def grid(x0: float, xN: float, N: int) -> np.ndarray:
    return np.linspace(x0, xN, N + 1)


def potential_values(pot: dict, x: np.ndarray) -> np.ndarray:
    """U at positions x for a generator potential description.

    `pot` is the benchmark's own record ({"family": ..., params}), not the
    config document, so this evaluation shares no code with the program.
    """
    fam = pot["family"]
    if fam == "square_barrier":
        lo = pot["center"] - pot["width"] / 2.0
        hi = pot["center"] + pot["width"] / 2.0
        return np.where((x >= lo) & (x < hi), pot["V0"], 0.0)
    if fam == "double_barrier_vwell":
        hl, hr = pot["heights"]
        wb, ww = pot["widths"]
        half = ww / 2.0
        ax = np.abs(x)
        barrier = np.where(x < 0, hl, hr)
        return np.where(ax < half, pot["depth"] * (ax / half - 1.0),
                        np.where(ax < half + wb, barrier, 0.0))
    if fam == "gaussians":
        u = np.zeros_like(x)
        for a, c, w in pot["bumps"]:
            u = u + a * np.exp(-((x - c) / w) ** 2)
        return u
    if fam == "ramp":
        a, b, h = pot["a"], pot["b"], pot["h"]
        return np.where(x < a, 0.0, np.where(x < b, h * (x - a) / (b - a), 0.0))
    if fam == "harmonic":
        return pot["coef"] * (x - pot["a"]) ** 2 + pot["u0"]
    if fam == "lennard_jones":
        return pot["A"] / x ** 12 - pot["B"] / x ** 6
    if fam == "table":
        xs = np.asarray(pot["x"], dtype=float)
        us = np.asarray(pot["u"], dtype=float)
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, None)
        return us[i]
    raise ValueError(f"no reference evaluator for family {fam!r}")


def wavevectors(E: np.ndarray, u: np.ndarray, ph: float) -> np.ndarray:
    """(N+1, M) principal-branch wavevectors with the degeneracy nudge."""
    d = E[None, :] - u[:, None]
    d = np.where(np.abs(d) < DEGENERACY_NUDGE_EV, DEGENERACY_NUDGE_EV, d)
    return ph * np.sqrt(d.astype(complex))


def amplitudes(x: np.ndarray, u: np.ndarray, E, mass: float):
    """Transfer-matrix amplitudes for unit incidence from the left.

    Region j is the step [x_j, x_{j+1}) with value u_j, where the wave is
    A_j e^{ik_j(x-x_j)} + B_j e^{-ik_j(x-x_j)}; region N extends to the
    right.  Walks from the right end (A_N, B_N) = (1, 0) to the left through
    the interface matching conditions, then scales to A_0 = 1, so A_N is the
    transmitted amplitude t at x_N and B_0 the reflected amplitude r at x_0.
    Returns (A, B, k), each of shape (N+1, M) for M energies.
    """
    E = np.atleast_1d(np.asarray(E, dtype=float))
    k = wavevectors(E, u, phi(mass))
    d = np.diff(x)
    A = np.empty_like(k)
    B = np.empty_like(k)
    A[-1], B[-1] = 1.0, 0.0
    for j in range(len(x) - 2, -1, -1):
        p = np.exp(1j * k[j] * d[j])
        s = A[j + 1] + B[j + 1]
        q = (k[j + 1] / k[j]) * (A[j + 1] - B[j + 1])
        A[j], B[j] = (s + q) / (2.0 * p), p * (s - q) / 2.0
    a0 = A[0].copy()
    return A / a0, B / a0, k


def field(x: np.ndarray, A, B, k, xs: np.ndarray) -> np.ndarray:
    """Wave A_j e^{ik_j(x-x_j)} + B_j e^{-ik_j(x-x_j)} at positions xs
    (region j holds x_j <= x < x_{j+1}); shape (len(xs),) + A.shape[1:]."""
    j = np.clip(np.searchsorted(x, xs, side="right") - 1, 0, len(x) - 1)
    rel = (xs - x[j]).reshape((-1,) + (1,) * (np.ndim(A) - 1))
    return A[j] * np.exp(1j * k[j] * rel) + B[j] * np.exp(-1j * k[j] * rel)


def mismatch(x: np.ndarray, u: np.ndarray, E, mass: float) -> np.ndarray:
    """f(E) = sum over allowed steps of |Rbar_j R_{j+1} - e^{2ik_j dx_j}|.

    R_{j+1} = B_j/A_j of the solution that decays (or leaves) at the right
    end, Rbar_j = C_{j+1}/D_{j+1} of the one that does so at the left end,
    referenced to x_{j+1}.  Both come from walking the ratio of the two
    plane-wave amplitudes through the matching conditions: the left one
    from B_N = 0, the right one from A_0 = 0, as sigma_j = A_j/B_j with
    Rbar_j = sigma_j e^{2ik_j dx_j}.  Ratios stay bounded where amplitudes
    would overflow (the Lennard-Jones wall).  inf where no step is allowed.
    """
    E = np.atleast_1d(np.asarray(E, dtype=float))
    k = wavevectors(E, u, phi(mass))
    d = np.diff(x)
    p2 = np.exp(2j * k * np.append(d, d[-1])[:, None])      # region N repeats the last width
    n = len(x)
    rho = np.zeros_like(k)
    for j in range(n - 2, -1, -1):
        s = 1.0 + rho[j + 1]
        q = (k[j + 1] / k[j]) * (1.0 - rho[j + 1])
        rho[j] = p2[j] * (s - q) / (s + q)
    sigma = np.zeros_like(k)
    for j in range(n - 1):
        g = sigma[j] * p2[j]
        q = (k[j] / k[j + 1]) * (g - 1.0)
        sigma[j + 1] = (1.0 + g + q) / (1.0 + g - q)
    allowed = u[:, None] < E[None, :]
    terms = np.abs(p2) * np.abs(sigma * rho - 1.0)
    f = np.where(allowed, terms, 0.0).sum(axis=0)
    return np.where(allowed.any(axis=0), f, np.inf)


def finite_well_levels(V0: float, half_width: float, mass: float) -> list[float]:
    """Bound energies of U = -V0 on |x| < half_width (0 outside), ascending."""
    scale = phi(mass) * half_width
    z0 = scale * math.sqrt(V0)

    def cond(z, n):
        rhs = math.sqrt(max(z0 * z0 - z * z, 0.0))
        return (z * math.tan(z) if n % 2 == 0 else -z / math.tan(z)) - rhs

    levels = []
    n = 0
    while n * math.pi / 2.0 < z0:
        lo = n * math.pi / 2.0 + 1e-12
        hi = min((n + 1) * math.pi / 2.0, z0) - 1e-12
        if lo < hi and cond(lo, n) < 0.0 < cond(hi, n):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if cond(mid, n) > 0.0:
                    hi = mid
                else:
                    lo = mid
            levels.append((0.5 * (lo + hi) / scale) ** 2 - V0)
        n += 1
    return levels


def packet_modes(E0: float, dE: float, n_modes: int, mass: float):
    """Wavevectors kappa_n, spacing, Gaussian coefficients c_n (sum c^2 dkappa
    = 1) and energies E_n of the packet the program builds for (E0, dE,
    n_modes): sigma_k = phi dE / (7 sqrt(E0)), kappa0 +- 3.5 sigma_k."""
    ph = phi(mass)
    sigma_k = ph * dE / (7.0 * math.sqrt(E0))
    kappa0 = ph * math.sqrt(E0)
    kappa = np.linspace(kappa0 - 3.5 * sigma_k, kappa0 + 3.5 * sigma_k, n_modes)
    dkappa = float(kappa[1] - kappa[0])
    c = np.exp(-((kappa - kappa0) ** 2) / (2.0 * sigma_k ** 2))
    c /= math.sqrt(float(np.sum(c ** 2)) * dkappa)
    return {"kappa": kappa, "dkappa": dkappa, "c": c, "E": (kappa / ph) ** 2,
            "sigma_k": sigma_k}


def packet_kinematics(E0: float, dE: float, n_modes: int, mass: float):
    """Width sigma_x (nm), validity bound t_max (fs), largest wavevector
    kappa_max (1/nm) and fastest mode speed v_max (nm/fs) of the Gaussian
    packet the program builds for (E0, dE, n_modes)."""
    m = packet_modes(E0, dE, n_modes, mass)
    t_max = PLANCK_H / (2.0 * (m["E"][-1] - m["E"][-2]))
    speed = HBAR * C_LIGHT ** 2 / mass
    return {"sigma_x": 1.0 / m["sigma_k"], "t_max": float(t_max),
            "kappa_max": float(m["kappa"][-1]), "v_max": speed * float(m["kappa"][-1])}


def packet_field(x: np.ndarray, u: np.ndarray, task: dict, mass: float, t: float,
                 xs: np.ndarray) -> np.ndarray:
    """Psi(xs, t) = dkappa/sqrt(2 pi) sum_n c_n psi_n(xs) e^{-i(E_n t/hbar +
    kappa_n (x0 - x_0))}: the left-incidence modes superposed so that the
    packet starts centred at the task's x0."""
    m = packet_modes(task["E0"], task["dE"], task["N_E"], mass)
    A, B, k = amplitudes(x, u, m["E"], mass)
    phase = np.exp(-1j * (m["E"] * t / HBAR + m["kappa"] * (task["x0"] - x[0])))
    modes = field(x, A, B, k, xs)
    return modes @ (m["c"] * phase) * (m["dkappa"] / math.sqrt(2.0 * math.pi))
