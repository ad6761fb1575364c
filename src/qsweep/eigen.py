"""Bound states: mismatch functional, eigenvalue search, eigenfunctions.

A confined stationary state must support left- and right-incidence
solutions simultaneously, which forces Rbar_j * R_{j+1} = e^{2ik_j dx_j} on
every classically allowed step.  The mismatch functional

    f(E) = sum_j |Rbar_j R_{j+1} - e^{2ik_j dx_j}|,  over j with U(x_j) < E,

is nonnegative and dips to zero exactly at the eigenvalues.  Restricting
the sum to a sub-interval drops other wells' terms, but does not confine
the search to one well: a level of any well zeroes every term of f.
A scan of f(E) finds the dips; each is refined on the matching
phase at one step h,

    theta(E) = arg(Rbar_h R_{h+1} e^{-2ik_h dx_h}),

which crosses zero at the level, by Illinois regula falsi (Dowell &
Jarratt, BIT 11, 1971).  theta needs only R_{h+1} and Rbar_h, so it comes
from two half sweeps, N steps in all.  Golden-section search on f is the
fallback for a dip where theta cannot bracket a level.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import ParticleContext
from .errors import InvalidEigenvalueError
from .potential import DiscretizedPotential
from .recursion import coefficients, mismatch_sweep, nonfinite_energy

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
    match_index: int
    psi: np.ndarray


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


def _match_step(dp: DiscretizedPotential, mask) -> int:
    """The first node of minimum potential among the masked ones."""
    nodes = np.flatnonzero(mask)
    return int(nodes[np.argmin(dp.u[nodes])])


def mismatch(dp: DiscretizedPotential, E: float, ctx: ParticleContext,
             interval=None) -> float:
    """f(E) over the classically allowed steps (inf if there are none)."""
    mask = _allowed_mask(dp, E, interval)
    if not mask.any():
        return math.inf
    k, R, _, Rbar, _ = coefficients(dp, E, ctx)
    terms = np.abs(np.array(Rbar) * np.array(R[1:]) - np.exp(2j * k * dp.dx))
    return float(terms[mask].sum())


def mismatch_curve(dp: DiscretizedPotential, Egrid, ctx: ParticleContext,
                   interval=None) -> MismatchCurve:
    """`mismatch` over an energy grid, in two energy-batched passes.

    Energies with no allowed step are inf and are not swept.  Energies the
    passes cannot serve (non-finite or a singular denominator) are rerun in
    grid order by `mismatch`, so the curve raises what a loop over the
    energies would.
    """
    inside = _interval_nodes(dp, interval)
    E = np.asarray(Egrid, dtype=float)
    f = np.full(len(E), math.inf)
    flagged = ~np.isfinite(E)
    swept = E > dp.u[inside].min(initial=math.inf)
    if swept.any():
        f[swept], failed = mismatch_sweep(dp, E[swept], ctx, inside)
        flagged[swept] |= failed
    for m in np.flatnonzero(flagged):
        f[m] = mismatch(dp, float(E[m]), ctx, interval)
    return MismatchCurve(E=E, f=f, interval=tuple(interval) if interval else None)


def _check_tol(tol) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def golden_section_minimize(fn, a: float, b: float, tol: float):
    """Golden-section search for the minimum of a unimodal fn on [a, b].

    Derivative-free, so it handles the cusp-shaped dips of the mismatch
    functional.  Stops when the bracket is at most tol wide, or when
    rounding no longer puts both interior points strictly inside it (a tol
    below the float spacing).  Returns (best_x, best_f, half_bracket) where
    half_bracket is half the final bracket width.
    """
    if not a < b:
        raise ValueError(f"need a < b, got {a!r} >= {b!r}")
    _check_tol(tol)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = fn(c)
    fd = fn(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    while b - a > tol and a < c < d < b:
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


def _phase_root(theta, a: float, b: float, tol: float):
    """Illinois regula falsi for the zero of theta on [a, b].

    Returns None unless theta changes sign over the bracket by less than
    pi in all (a jump across the +-pi branch cut is no root).  A secant
    point that rounds onto an end of the bracket is replaced by the
    midpoint.  Stops when the bracket is at most tol wide, or when not even
    the midpoint lies strictly inside it, and returns (x, half_bracket):
    the end of the final bracket where |theta| is smaller, and half its
    width.
    """
    ta, tb = theta(a), theta(b)
    if not (ta * tb < 0.0 and abs(ta - tb) < math.pi):
        return None
    fa, fb = ta, tb  # the secant values; Illinois halves a stale one
    side = 0
    while b - a > tol:
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:  # the secant step rounded onto an end: bisect
            c = 0.5 * (a + b)
            if not a < c < b:
                break
        tc = theta(c)
        if (tc < 0.0) == (tb < 0.0):
            b, tb, fb = c, tc, tc
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, ta, fa = c, tc, tc
            if side == 1:
                fb *= 0.5
            side = 1
    return (a if abs(ta) < abs(tb) else b), 0.5 * (b - a)


def _theta(dp: DiscretizedPotential, E: float, ctx: ParticleContext, h: int) -> float:
    """The matching phase at step h, from two half sweeps that meet there."""
    k, R, _, Rbar, _ = coefficients(dp, E, ctx, h, h)
    return cmath.phase(Rbar[h] * R[h + 1] * cmath.exp(-2j * k[h] * dp.dx[h]))


def find_eigenvalues(dp: DiscretizedPotential, Emin: float, Emax: float, N_E: int,
                     ctx: ParticleContext, interval=None,
                     refine_tol: float | None = None) -> list[EigenvalueCandidate]:
    """Scan f(E) on a uniform grid, refine every dip, keep the deep ones.

    Strict local minima of the sampled curve are bracketed by their
    neighbors.  Both neighbors must be finite: a minimum against the
    empty-allowed-set sentinel marks the opening of the classically allowed
    region, where the functional is discontinuous, not a bound state.  Each
    bracket is refined to `refine_tol` (default: one hundredth of the scan
    step) on the matching phase theta(E) at the step h of minimum potential
    inside the interval, the step `eigenfunction` matches at; theta comes
    from two half sweeps that meet at h.  Where theta does not change sign
    over the bracket, or f at its root is not deep enough, golden-section
    search on f refines the bracket instead.  A refined dip is accepted
    when its f value falls below ACCEPT_FRACTION_OF_MEDIAN times the
    median finite f of the scan.
    """
    if not Emin < Emax:
        raise ValueError(f"need Emin < Emax, got {Emin!r} >= {Emax!r}")
    if N_E < 3:
        raise ValueError(f"need N_E >= 3, got {N_E!r}")
    if refine_tol is not None:
        _check_tol(refine_tol)
    grid = np.linspace(Emin, Emax, N_E)
    dE = grid[1] - grid[0]
    tol = refine_tol if refine_tol is not None else dE / 100.0
    curve = mismatch_curve(dp, grid, ctx, interval)
    f = curve.f

    finite = f[np.isfinite(f)]
    if finite.size == 0:
        return []
    threshold = ACCEPT_FRACTION_OF_MEDIAN * float(np.median(finite))
    h = _match_step(dp, _interval_nodes(dp, interval))

    # Successive strict minima have brackets that at most touch, so the
    # levels come out in energy order.
    candidates = []
    for i in range(1, N_E - 1):
        if not (math.isfinite(f[i - 1]) and math.isfinite(f[i + 1])):
            continue
        if f[i] < f[i - 1] and f[i] < f[i + 1]:
            a, b = grid[i - 1], grid[i + 1]
            root = _phase_root(lambda E: _theta(dp, E, ctx, h), a, b, tol)
            if root is not None:
                e_best, half = root
                f_best = mismatch(dp, e_best, ctx, interval)
            if root is None or not f_best < threshold:
                e_best, f_best, half = golden_section_minimize(
                    lambda E: mismatch(dp, E, ctx, interval), a, b, tol
                )
            if f_best < threshold:
                candidates.append(EigenvalueCandidate(e_best, f_best, half))
    return candidates


def eigenfunction(dp: DiscretizedPotential, energy: float, ctx: ParticleContext,
                  interval=None) -> Eigenpair:
    """Assemble the normalized eigenfunction at the grid nodes.

    The left- and right-incidence fields are stitched at the matching step
    h of minimum potential inside the classically allowed region, where
    both components propagate and the matching relation
    D_h = A_h (1 + R_{h+1})/(1 + Rbar_{h-1}) is best conditioned.  With
    A_h = 1 the nodes j >= h take A_j + B_j from the left-incidence
    coefficients and the nodes j < h take C_j + D_j from the right-incidence
    ones; the result is then normalized so sum |psi_j|^2 dx_j = 1.  Each
    side reads only its own half, so two half sweeps that meet at h serve.
    """
    mask = _allowed_mask(dp, energy, interval)
    if not mask.any():
        raise InvalidEigenvalueError(
            f"no classically allowed grid point at E={energy!r} eV"
        )
    h = _match_step(dp, mask)

    k, R, T, Rbar, Tbar = coefficients(dp, energy, ctx, h, h)

    N = dp.n_steps
    psi = np.zeros(N + 1, dtype=complex)

    # Right of the match: rescale the left-incidence solution to A_h = 1.
    a = 1.0 + 0j
    psi[h] = a * (1.0 + R[h + 1])
    for j in range(h + 1, N + 1):
        a = a * T[j]
        psi[j] = a * (1.0 + R[j + 1])

    # Left of the match: right-incidence solution scaled by the matching
    # relation, walked outward with D_j = D_{j+1} Tbar_j.
    if h > 0:
        # numpy's complex division: Python's rounds differently.
        d = np.complex128(1.0 + R[h + 1]) / (1.0 + Rbar[h - 1])
        for j in range(h - 1, 0, -1):
            d = d * Tbar[j]
            psi[j] = d * (1.0 + Rbar[j - 1])
        # Node x_0 sits at the far edge of step 0, referenced to x_1:
        # psi_0(x_0) = C_1 e^{-ik_0 dx_0} + D_1 e^{ik_0 dx_0} with C_1 = 0.
        psi[0] = d * np.exp(1j * k[0] * dp.dx[0])

    S = float(np.sum(np.abs(psi) ** 2 * dp.dx))
    if S <= 0.0:
        raise InvalidEigenvalueError(f"eigenfunction vanished everywhere at E={energy!r} eV")
    psi /= math.sqrt(S)
    return Eigenpair(energy=energy, match_index=h, psi=psi)
