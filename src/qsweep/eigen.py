"""Bound states: mismatch functional, eigenvalue search, eigenfunctions.

A confined stationary state must support left- and right-incidence
solutions simultaneously, which forces Rbar_j * R_{j+1} = e^{2ik_j dx_j} on
every classically allowed step.  The mismatch functional

    f(E) = sum_j |Rbar_j R_{j+1} - e^{2ik_j dx_j}|,  over j with U(x_j) < E,

is nonnegative and dips to zero exactly at the eigenvalues.  Restricting
the sum to a sub-interval drops other wells' terms, but does not confine
the search to one well: a level of any well zeroes every term of f.
Sturm's oscillation theorem decides what a level is: the zeros of the
solution that decays to the left number the levels below E, and each step
gives its share from Rbar_j alone (`_count`).  The count at the edges of
the cells that a scan of f(E) marks out says how many levels each cell
holds.  A cell with one level is refined on the matching phase at one
step h,

    theta(E) = arg(Rbar_h R_{h+1} e^{-2ik_h dx_h}),

which crosses zero at the level, by Illinois regula falsi (Dowell &
Jarratt, BIT 11, 1971); theta needs only R_{h+1} and Rbar_h, so it comes
from two half sweeps, N steps in all.  Any other cell is bisected on the
count.  The search window starts at the lowest U inside the interval.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .constants import DEGENERACY_NUDGE_EV, ParticleContext
from .errors import InvalidEigenvalueError
from .potential import DiscretizedPotential
from .recursion import coefficients, mismatch_sweep, nonfinite_energy


@dataclass(frozen=True)
class MismatchCurve:
    """Sampled f(E), optionally restricted to a position interval."""

    E: np.ndarray
    f: np.ndarray
    interval: tuple[float, float] | None = None


@dataclass(frozen=True)
class EigenvalueCandidate:
    """A level: energy, residual f value there, half-bracket uncertainty."""

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
    inside = (dp.x >= a) & (dp.x <= b)
    if not inside.any():
        raise ValueError(f"interval ({a!r}, {b!r}) holds no grid node")
    return inside


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


def _count(dp: DiscretizedPotential, E: float, ctx: ParticleContext) -> int:
    """Sturm's count: the zeros of the solution that decays to the left,
    which number the levels below E (Pruess & Fulton, ACM TOMS 19, 1993).

    On step j that solution is Rbar_j e^{ik_j s} + e^{-ik_j s} with s in
    [-dx_j, 0).  An allowed step holds floor((2k dx + pi - arg Rbar)/2pi)
    zeros; a forbidden one (k = i kappa) holds one if -Re Rbar lies in
    [e^{-2 kappa dx}, 1), and the right half-space, step N, one if it is at
    least e^{-2 kappa dx}.  -Re Rbar must also be > 0: under a steep wall
    Rbar is exactly 0 and e^{-2 kappa dx} underflows to 0.  Step 0, the left
    half-space, holds none.  Valid below both ends of the potential.
    """
    N = dp.n_steps
    k, _, _, Rbar, _ = coefficients(dp, E, ctx, N, N)
    kdx = k[1:] * dp.dx[1:]
    rbar = np.array(Rbar[1:])
    waves = np.floor((2.0 * kdx.real + math.pi - np.angle(rbar)) / (2.0 * math.pi))
    q = -rbar.real
    decays = (q > 0.0) & (q >= np.exp(-2.0 * kdx.imag))
    decays[:-1] &= q[:-1] < 1.0
    return int(np.where(kdx.imag > 0.0, decays, waves).sum())


def find_eigenvalues(dp: DiscretizedPotential, Emin: float, Emax: float, N_E: int,
                     ctx: ParticleContext, interval=None,
                     refine_tol: float | None = None) -> list[EigenvalueCandidate]:
    """Every level in the window, found by Sturm's count and refined.

    The window is [Emin, Emax] clipped from below to the lowest U inside the
    interval, so every level has an allowed node there, and from above to
    just under both ends of the potential, where the count holds.  A scan
    of f(E) on a uniform grid of N_E energies marks the strict minima; the
    window ends and the scan neighbors of every minimum cut the window into
    cells, and `_count` at the cell edges says how many levels each holds.
    A cell with one level, narrower than three scan steps, is refined to
    `refine_tol` (default: one hundredth of the scan step) on the matching
    phase theta(E) at the step h of minimum potential inside the interval,
    the step `eigenfunction` matches at.  A root is kept only where
    |theta| < pi/2: a jump across the +-pi cut is no level.  Every other
    cell with levels is bisected on the count down to `refine_tol`.
    """
    if not Emin < Emax:
        raise ValueError(f"need Emin < Emax, got {Emin!r} >= {Emax!r}")
    if N_E < 3:
        raise ValueError(f"need N_E >= 3, got {N_E!r}")
    if refine_tol is not None and not 0.0 < refine_tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {refine_tol!r}")
    inside = _interval_nodes(dp, interval)
    grid = np.linspace(Emin, Emax, N_E)
    dE = grid[1] - grid[0]
    tol = refine_tol if refine_tol is not None else dE / 100.0
    lo = max(Emin, float(dp.u[inside].min()))
    top = min(Emax, min(dp.u[0], dp.u[-1]) - 2.0 * DEGENERACY_NUDGE_EV)
    if not lo < top:
        return []
    f = mismatch_curve(dp, grid, ctx, interval).f
    dips = np.flatnonzero((f[1:-1] < f[:-2]) & (f[1:-1] < f[2:]))
    edges = np.concatenate(([lo, top], grid[dips], grid[dips + 2]))
    edges = np.unique(edges[(lo <= edges) & (edges <= top)])
    h = _match_step(dp, inside)
    count = cache(lambda E: _count(dp, E, ctx))
    theta = cache(lambda E: _theta(dp, E, ctx, h))
    levels = []

    def search(a, b):
        rise = count(b) - count(a)
        if rise <= 0:
            return
        if rise == 1 and b - a < 3.0 * dE:
            root = _phase_root(theta, a, b, tol)
            if root is not None and abs(theta(root[0])) < math.pi / 2:
                levels.append(root)
                return
        m = 0.5 * (a + b)
        if b - a > tol and a < m < b:
            search(a, m)
            search(m, b)
        else:  # the bracket is down to tol or to the float spacing
            levels.extend([(m, 0.5 * (b - a))] * rise)

    for a, b in zip(edges[:-1], edges[1:]):
        search(float(a), float(b))
    return [EigenvalueCandidate(E, mismatch(dp, E, ctx, interval), half)
            for E, half in levels]


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
