"""Bound states: mismatch functional, eigenvalue search, eigenfunctions.

A confined stationary state must support left- and right-incidence
solutions simultaneously, which forces Rbar_j * R_{j+1} = e^{2ik_j dx_j} on
every classically allowed step.  The mismatch functional

    f(E) = sum_j |Rbar_j R_{j+1} - e^{2ik_j dx_j}|,  over j with U(x_j) < E,

is nonnegative and dips to zero exactly at the eigenvalues.  Restricting
the sum to a sub-interval confines the search to one well of a multi-well
potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ParticleContext
from .errors import InvalidEigenvalueError
from .potential import DiscretizedPotential
from .recursion import (
    finite_prefix,
    left_sweep,
    mismatch_sweep,
    nonfinite_energy,
    raise_singular,
    reflection_coefficients,
    right_sweep,
)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# A refined dip counts as an eigenvalue when its f value is this far below
# the typical (median) f of the scan: true dips are orders of magnitude
# deep, and a relative criterion is grid- and potential-independent.
ACCEPT_FRACTION_OF_MEDIAN = 1e-3


@dataclass(frozen=True)
class MismatchCurve:
    """Sampled f(E), optionally restricted to a position interval."""

    E: np.ndarray
    f: np.ndarray
    interval: tuple[float, float] | None = None


@dataclass(frozen=True)
class EigenvalueCandidate:
    """A refined dip: energy, residual f value, half-bracket uncertainty."""

    energy: float
    residual: float
    uncertainty: float


@dataclass(frozen=True)
class Eigenpair:
    """Matched, normalized eigenfunction samples at the grid nodes."""

    energy: float
    residual: float
    match_index: int
    psi: np.ndarray
    norm_check: float


def _interval_nodes(dp: DiscretizedPotential, interval) -> np.ndarray:
    if interval is None:
        return np.ones(len(dp.x), dtype=bool)
    a, b = interval
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got ({a!r}, {b!r})")
    return (dp.x >= a) & (dp.x <= b)


def _allowed_mask(dp: DiscretizedPotential, E: float, interval) -> np.ndarray:
    if not math.isfinite(E):
        raise nonfinite_energy(E)
    return (dp.u < E) & _interval_nodes(dp, interval)


def _mismatch_sum(k, R, Rbar, dp: DiscretizedPotential, mask) -> float:
    """sum over the masked steps of |Rbar_j R_{j+1} - e^{2ik_j dx_j}|."""
    terms = np.abs(Rbar * R[1:] - np.exp(2j * k * dp.dx))
    return float(terms[mask].sum())


def mismatch(dp: DiscretizedPotential, E: float, ctx: ParticleContext,
             interval=None) -> float:
    """f(E) over the classically allowed steps (inf if there are none)."""
    mask = _allowed_mask(dp, E, interval)
    if not mask.any():
        return math.inf
    return _mismatch_sum(*reflection_coefficients(dp, E, ctx), dp, mask)


def mismatch_curve(dp: DiscretizedPotential, Egrid, ctx: ParticleContext,
                   interval=None) -> MismatchCurve:
    """`mismatch` over an energy grid, in two energy-batched passes.

    Energies with no allowed step are inf and are not swept.  Errors name
    the first failing energy in grid order, as a loop over the energies
    would: a non-finite energy or a singular recursion denominator.
    """
    inside = _interval_nodes(dp, interval)
    E = np.asarray(Egrid, dtype=float)
    n = finite_prefix(E)
    f = np.full(n, math.inf)
    swept = E[:n] > dp.u[inside].min(initial=math.inf)
    if swept.any():
        Es = E[:n][swept]
        f[swept], fail = mismatch_sweep(dp, Es, ctx, inside)
        raise_singular(Es, fail)
    if n < len(E):
        raise nonfinite_energy(E[n])
    return MismatchCurve(E=E, f=f, interval=tuple(interval) if interval else None)


def golden_section_minimize(fn, a: float, b: float, tol: float):
    """Golden-section search for the minimum of a unimodal fn on [a, b].

    Derivative-free, so it handles the cusp-shaped dips of the mismatch
    functional.  Returns (best_x, best_f, half_bracket) where half_bracket
    is half the final bracket width.
    """
    if not a < b:
        raise ValueError(f"need a < b, got {a!r} >= {b!r}")
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = fn(c)
    fd = fn(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f, 0.5 * (b - a)


def find_eigenvalues(dp: DiscretizedPotential, Emin: float, Emax: float, N_E: int,
                     ctx: ParticleContext, interval=None,
                     refine_tol: float | None = None) -> list[EigenvalueCandidate]:
    """Scan f(E) on a uniform grid, refine every dip, keep the deep ones.

    Strict local minima of the sampled curve are bracketed by their
    neighbors and refined by golden-section search to `refine_tol`
    (default: one hundredth of the scan step).  Both neighbors must be
    finite: a minimum against the empty-allowed-set sentinel marks the
    opening of the classically allowed region, where the functional is
    discontinuous, not a bound state.  A refined dip is accepted when its
    f value falls below ACCEPT_FRACTION_OF_MEDIAN times the median finite
    f of the scan.  Near-coincident dips (closer than twice the refinement
    tolerance) are merged unless a scan point between them rises at least
    10x above both.
    """
    if not Emin < Emax:
        raise ValueError(f"need Emin < Emax, got {Emin!r} >= {Emax!r}")
    if N_E < 3:
        raise ValueError(f"need N_E >= 3, got {N_E!r}")
    grid = np.linspace(Emin, Emax, N_E)
    dE = grid[1] - grid[0]
    tol = refine_tol if refine_tol is not None else dE / 100.0
    curve = mismatch_curve(dp, grid, ctx, interval)
    f = curve.f

    finite = f[np.isfinite(f)]
    if finite.size == 0:
        return []
    threshold = ACCEPT_FRACTION_OF_MEDIAN * float(np.median(finite))

    candidates = []
    for i in range(1, N_E - 1):
        if not (math.isfinite(f[i - 1]) and math.isfinite(f[i + 1])):
            continue
        if f[i] < f[i - 1] and f[i] < f[i + 1]:
            e_best, f_best, half = golden_section_minimize(
                lambda E: mismatch(dp, E, ctx, interval), grid[i - 1], grid[i + 1], tol
            )
            if f_best < threshold:
                candidates.append(EigenvalueCandidate(e_best, f_best, half))
    candidates.sort(key=lambda c: c.energy)

    # Merge refinements that collapsed onto (numerically) the same dip.
    merged: list[EigenvalueCandidate] = []
    for cand in candidates:
        if merged and cand.energy - merged[-1].energy < 2.0 * tol:
            prev = merged[-1]
            between = f[(grid > prev.energy) & (grid < cand.energy)]
            ceiling = 10.0 * max(prev.residual, cand.residual)
            if between.size and between.max() >= ceiling:
                merged.append(cand)  # genuine twin dips with a ridge between
            elif cand.residual < prev.residual:
                merged[-1] = cand
            continue
        merged.append(cand)
    return merged


def eigenfunction(dp: DiscretizedPotential, energy: float, ctx: ParticleContext,
                  interval=None, match_index: int | None = None) -> Eigenpair:
    """Assemble the normalized eigenfunction at the grid nodes.

    The left- and right-incidence fields are stitched at a matching step h
    inside the classically allowed region (default: the step of minimum
    potential there, where both components propagate and the matching
    relation D_h = A_h (1 + R_{h+1})/(1 + Rbar_{h-1}) is best conditioned).
    With A_h = 1 the nodes j >= h take A_j + B_j from the left-incidence
    coefficients and the nodes j < h take C_j + D_j from the right-incidence
    ones; the result is then normalized so sum |psi_j|^2 dx_j = 1.
    """
    mask = _allowed_mask(dp, energy, interval)
    if not mask.any():
        raise InvalidEigenvalueError(
            f"no classically allowed grid point at E={energy!r} eV"
        )
    if match_index is None:
        allowed = np.flatnonzero(mask)
        h = int(allowed[np.argmin(dp.u[allowed])])
    else:
        h = int(match_index)
        if not mask[h]:
            raise InvalidEigenvalueError(
                f"match_index {h} is not classically allowed at E={energy!r} eV"
            )

    ls = left_sweep(dp, energy, ctx)
    rs = right_sweep(dp, energy, ctx)
    residual = _mismatch_sum(ls.k, ls.R, rs.Rbar, dp, mask)

    N = dp.n_steps
    psi = np.zeros(N + 1, dtype=complex)

    # Right of the match: rescale the left-incidence solution to A_h = 1.
    a = 1.0 + 0j
    psi[h] = a * (1.0 + ls.R[h + 1])
    for j in range(h + 1, N + 1):
        a = a * ls.T[j]
        psi[j] = a * (1.0 + ls.R[j + 1])

    # Left of the match: right-incidence solution scaled by the matching
    # relation, walked outward with D_j = D_{j+1} Tbar_j.
    if h > 0:
        d = (1.0 + ls.R[h + 1]) / (1.0 + rs.Rbar[h - 1])
        for j in range(h - 1, 0, -1):
            d = d * rs.Tbar[j]
            psi[j] = d * (1.0 + rs.Rbar[j - 1])
        # Node x_0 sits at the far edge of step 0, referenced to x_1:
        # psi_0(x_0) = C_1 e^{-ik_0 dx_0} + D_1 e^{ik_0 dx_0} with C_1 = 0.
        psi[0] = d * np.exp(1j * ls.k[0] * dp.dx[0])

    S = float(np.sum(np.abs(psi) ** 2 * dp.dx))
    if S <= 0.0:
        raise InvalidEigenvalueError(f"eigenfunction vanished everywhere at E={energy!r} eV")
    psi /= math.sqrt(S)
    norm_check = float(np.sum(np.abs(psi) ** 2 * dp.dx))
    return Eigenpair(energy=energy, residual=residual, match_index=h,
                     psi=psi, norm_check=norm_check)
