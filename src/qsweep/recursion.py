"""Directional sweeps over a step potential.

Each step j of a discretized potential reflects and transmits plane waves.
Accumulating those elementary events from one boundary inward gives, per
energy, the reflection/transmission coefficients of every step and the wave
amplitudes on every step, for incidence from either side.

Index conventions (N steps, nodes x_0..x_N, step j = [x_j, x_{j+1})):

  left-hand solution  psi_j = A_j e^{ik_j(x-x_j)}   + B_j e^{-ik_j(x-x_j)}
  right-hand solution psi_j = C_{j+1} e^{ik_j(x-x_{j+1})} + D_{j+1} e^{-ik_j(x-x_{j+1})}

  LeftSweep:  R[j] for j = 1..N+1 (R[N+1] = 0), T[j] for j = 1..N,
              A[j], B[j] for j = 0..N with A[0] = 1 and B[N] = 0.
  RightSweep: Rbar[j] for j = 0..N (Rbar[0] = 0), Tbar[j] for j = 1..N,
              C[j], D[j] for j = 1..N+1 with C[1] = 0 and D[N+1] = 1.

Unused slots (R[0], T[0], Tbar[0], C[0], D[0]) are kept zero so arrays can
be indexed exactly as written above.

The branch convention Im k >= 0 makes every exponential in the recursion
bounded, so nothing overflows; amplitudes under wide classically forbidden
regions instead decay multiplicatively and may underflow to exactly zero.
That is accepted: a transmission probability then reports as 0.

The right recursion is the left one on the mirrored grid (k and dx
reversed), so one step update serves both directions.  The curve functions
and packet modes use the energy-batched sweeps at the end of this module:
the recursion is sequential in the step but independent across energies,
so they carry (M,) vectors, one entry per energy, through the step loop.
Single-energy callers share `coefficients`, a scalar loop (faster for one
energy) run in each direction only as far as the caller reads.

A denominator below _SINGULARITY_FLOOR in magnitude, or NaN, is singular.
The scalar loop raises NumericalSingularityError naming the energy and the
grid step.  The batched sweeps only flag the energies that met one; the
curves and left_sweeps rerun those through the single-energy functions,
so every error they raise is the one a loop over the energies would raise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from .constants import ParticleContext, step_wavevectors
from .errors import InvalidEnergyError, NumericalSingularityError
from .potential import DiscretizedPotential

# Denominators below this magnitude mean two adjacent wavevectors cancelled
# against the accumulated reflection; genuine 0/0 is already excluded by the
# degeneracy nudge, so treat it as a hard numerical failure.
_SINGULARITY_FLOOR = 1e-300


@dataclass(frozen=True)
class LeftSweep:
    """Coefficients of the unit-incidence solution from the left."""

    E: float
    k: np.ndarray
    R: np.ndarray
    T: np.ndarray
    A: np.ndarray
    B: np.ndarray


@dataclass(frozen=True)
class RightSweep:
    """Coefficients of the unit-incidence solution from the right."""

    E: float
    k: np.ndarray
    Rbar: np.ndarray
    Tbar: np.ndarray
    C: np.ndarray
    D: np.ndarray


def _left_coefficients(k, dx, E, steps):
    """Backward recursion for step coefficients R_j, T_j over the last
    `steps` steps (j = N..N + 1 - steps); the rest stay 0."""
    N = len(k) - 1
    R = [0j] * (N + 2)
    T = [0j] * (N + 1)
    exp = cmath.exp
    for j in range(N, N - steps, -1):
        ka = k[j - 1]
        kb = k[j]
        rnext = R[j + 1]
        den = (ka - kb) * rnext + (ka + kb)
        if not abs(den) >= _SINGULARITY_FLOOR:  # NaN included
            raise NumericalSingularityError(E, j)
        ph = exp(1j * (ka * dx[j - 1]))
        T[j] = (2.0 * ka / den) * ph
        R[j] = (((ka + kb) * rnext + (ka - kb)) / den) * ph * ph
    return R, T


def coefficients(dp: DiscretizedPotential, E: float, ctx: ParticleContext,
                 lo: int = 0, hi: int | None = None):
    """Step coefficients of both directions at energy E, as lists.

    Runs the left recursion down to step lo + 1 and the right one up to
    step hi (default N).  Returns (k, R, T, Rbar, Tbar) indexed as in
    LeftSweep and RightSweep, k as an array; entries not reached are 0.
    A singular step is reported under its grid number where one runs.
    """
    if not math.isfinite(E):
        raise nonfinite_energy(E)
    N = dp.n_steps
    hi = N if hi is None else hi
    k = step_wavevectors(E, dp.u, ctx.phi)
    kl, dx = k.tolist(), dp.dx.tolist()
    R, T = _left_coefficients(kl, dx, E, N - lo)
    if hi == 0:
        return k, R, T, [0j] * (N + 1), [0j] * (N + 1)
    # The right recursion: the left one on the mirrored grid, whose step j is N + 1 - j.
    try:
        Rm, Tm = _left_coefficients(kl[::-1], dx[::-1], E, hi)
    except NumericalSingularityError as exc:
        raise NumericalSingularityError(E, N + 1 - exc.step) from None
    Rbar, Tbar = (v[:0:-1] for v in (Rm, Tm + [0j]))  # Tbar_0 = 0
    return k, R, T, Rbar, Tbar


def _walk(T, R):
    """Amplitudes A_0 = 1, A_j = A_{j-1} T_j and B_j = A_j R_{j+1}, with T
    and R in walk order from the incidence side."""
    A = list(accumulate(T, mul, initial=1.0 + 0j))
    return A, [a * r for a, r in zip(A, R)]


def left_sweep(dp: DiscretizedPotential, E: float, ctx: ParticleContext) -> LeftSweep:
    """Full left-incidence solution at energy E.

    Computes R_j, T_j backward from the right boundary (R_{N+1} = 0), then
    the amplitudes forward: A_j = A_{j-1} T_j with A_0 = 1, B_j = A_j R_{j+1}.
    """
    k, R, T, _, _ = coefficients(dp, E, ctx, 0, 0)
    A, B = _walk(T[1:], R[1:])
    return LeftSweep(E=E, k=k, R=np.array(R), T=np.array(T),
                     A=np.array(A), B=np.array(B))


def right_sweep(dp: DiscretizedPotential, E: float, ctx: ParticleContext) -> RightSweep:
    """Full right-incidence solution at energy E.

    Rbar_j, Tbar_j run forward from the left boundary (Rbar_0 = 0), the
    amplitudes backward: D_j = D_{j+1} Tbar_j with D_{N+1} = 1,
    C_j = D_j Rbar_{j-1}.
    """
    N = dp.n_steps
    k, _, _, Rbar, Tbar = coefficients(dp, E, ctx, N, N)
    D, C = _walk(reversed(Tbar[1:]), reversed(Rbar))
    return RightSweep(E=E, k=k, Rbar=np.array(Rbar), Tbar=np.array(Tbar),
                      C=np.array([0j] + C[::-1]), D=np.array([0j] + D[::-1]))


# ---------------------------------------------------------------------------
# Energy-batched sweeps
#
# The sweeps walk the grid in blocks of nodes.  A block's wavevectors are
# one (rows, M) numpy call, dropped before the next block is made, so no
# (N, M) array is ever stored; everything else a step needs, its phase
# included, is formed per step from two rows of k.  The f(E) blocks are its
# checkpoint segments of ceil(sqrt(N+1)) nodes.  The streaming transmission
# pass uses the same length but at most _BLOCK_VALUES values per block:
# smaller blocks cost it no speed (measured at 60 to 2000 energies), while
# at 2000 energies a sqrt(N)-row block of 480 KiB raised the peak memory of
# a benchmark scan by 0.4 MB, past that of writing the output.
_BLOCK_VALUES = 4096  # 64 KiB of complex values


def _block_rows(n_nodes: int) -> int:
    """ceil(sqrt(n_nodes)), the number of nodes per block."""
    return math.isqrt(n_nodes - 1) + 1


def _steps(k, jdx, r, failed, out=None, t=None, T=None):
    """Carry the left recursion through the steps of one block.

    Rows of k are consecutive nodes and jdx holds i dx of the same nodes.
    Step p joins rows p and p+1 and maps R_{j+1} to R_j with ka = k[p] and
    kb = k[p+1]; steps run from the last row to the first, starting from
    r, the coefficient to the right of the block.  Rows passed in reverse
    order run the right recursion instead: Rbar is the left recursion on
    the mirrored grid.  failed, a bool (M,) array, is set at the energies
    where a step's denominator was singular (skipped when failed is None);
    which step it was is left to the single-energy sweep.  R and T after
    step p go to out[p] and T[p] when given; t, when given, is multiplied
    in place by every T_j.  Returns R at the first row.
    """
    ok = None if failed is None else np.empty((len(k) - 1, k.shape[1]), dtype=bool)
    for p in range(len(k) - 2, -1, -1):
        ka = k[p]
        kb = k[p + 1]
        ph = np.multiply(ka, jdx[p])
        np.exp(ph, out=ph)
        sm = ka + kb
        dif = ka - kb
        den = dif * r
        den += sm
        if ok is not None:
            np.greater_equal(np.abs(den), _SINGULARITY_FLOOR, out=ok[p])  # False for NaN
        r = np.multiply(sm, r, out=None if out is None else out[p])
        r += dif
        r /= den
        r *= ph
        r *= ph
        if t is not None or T is not None:
            tj = np.add(ka, ka, out=None if T is None else T[p])
            tj /= den
            if t is not None:
                t *= tj
                t *= ph
            if T is not None:
                tj *= ph
    if ok is not None:
        failed |= ~ok.all(axis=0)
    return r


def nonfinite_energy(E) -> InvalidEnergyError:
    return InvalidEnergyError(f"energy must be finite, got E={float(E)!r} eV")


# A singular denominator or a non-finite energy turns the rest of that
# energy's sweep into inf and nan; the sweeps flag it in `failed` or the
# caller flags the energy, so numpy need not warn as well.
@np.errstate(divide="ignore", invalid="ignore")
def transmission_sweep(dp: DiscretizedPotential, E: np.ndarray, ctx: ParticleContext):
    """Endpoint amplitudes t_amp = A_N/A_0 = prod_j T_j and r_amp = B_0/A_0
    for an array of energies at once.

    One streaming backward pass carries t_amp and r as (M,) vectors, so no
    per-step array is stored.
    Returns (t_amp, r_amp, k_left, k_right, failed), each of shape (M,);
    failed[m] says a denominator was singular at E[m].
    """
    N = dp.n_steps
    B = max(1, min(_block_rows(N + 1), _BLOCK_VALUES // max(len(E), 1)))
    jdx = 1j * dp.dx
    r = np.zeros(len(E), dtype=complex)
    t = np.ones(len(E), dtype=complex)
    failed = np.zeros(len(E), dtype=bool)
    for hi in range(N, 0, -B):
        lo = max(hi - B, 0)
        r = _steps(step_wavevectors(E, dp.u[lo:hi + 1, None], ctx.phi), jdx[lo:hi + 1],
                   r, failed, t=t)
    k0, kN = step_wavevectors(E, dp.u[[0, -1], None], ctx.phi)
    return t, r, k0, kN, failed


# A mode that turns inf or nan is flagged and rerun, so numpy need not warn.
@np.errstate(divide="ignore", invalid="ignore")
def left_sweeps(dp: DiscretizedPotential, E: np.ndarray, ctx: ParticleContext):
    """k, A and B of left_sweep for an array of energies at once, as
    (N+1, M) arrays with one column per energy.

    One sweep over the (N+1, M) wavevector block writes R_{j+1} into B and
    T_j into A, then A = cumprod(T) and B = A R_{j+1} are formed in place.
    Energies that are non-finite or met a singular denominator are rerun
    through left_sweep, which raises what a loop over them would.
    """
    k = step_wavevectors(E, dp.u[:, None], ctx.phi)
    A, B = np.empty((2, *k.shape), dtype=complex)
    A[0], B[-1] = 1.0, 0.0
    failed = np.zeros(len(E), dtype=bool)
    _steps(k, 1j * dp.dx, B[-1], failed, out=B[:-1], T=A[1:])
    np.multiply.accumulate(A, axis=0, out=A)
    B *= A
    for m in np.flatnonzero(failed | ~np.isfinite(E)):
        sweep = left_sweep(dp, float(E[m]), ctx)
        k[:, m], A[:, m], B[:, m] = sweep.k, sweep.A, sweep.B
    return k, A, B


def _segment_mismatch(k, jdx, a_row, r_top, rbar, allowed, failed):
    """Sum of |Rbar_j R_{j+1} - e^{2ik_j dx_j}| over one segment's nodes.

    k and jdx hold the segment's rows, from a_row on, plus at most one row
    below it (a_row = 1) that joins it to the segment below.  r_top is
    R_{j+1} at the segment's top node, rbar is Rbar at the node below the
    segment (ignored when there is none) and `allowed` masks the terms
    that count.  The right recursion sets `failed` as in _steps; the left
    one is a recomputation the backward pass has checked already.  Returns
    (the sum, Rbar at the top node).
    """
    terms = np.empty((len(k) - a_row, k.shape[1]), dtype=complex)  # R_{j+1} for now
    terms[-1] = r_top
    _steps(k[a_row:], jdx[a_row:], r_top, None, out=terms[:-1])
    Rbar = np.zeros_like(terms)
    rbar = _steps(k[::-1], jdx[::-1], rbar, failed, out=Rbar[1 - a_row:][::-1])
    rbar = rbar.copy()  # a view would keep Rbar alive into the next segment
    terms *= Rbar
    del Rbar  # free before e2 is made
    e2 = np.multiply(k[a_row:], 2.0 * jdx[a_row:, None])
    terms -= np.exp(e2, out=e2)
    return np.abs(terms).sum(axis=0, where=allowed), rbar


@np.errstate(divide="ignore", invalid="ignore")
def mismatch_sweep(dp: DiscretizedPotential, E: np.ndarray, ctx: ParticleContext,
                   inside: np.ndarray):
    """f(E) for an array of energies at once, summed over the nodes
    where `inside` holds and U < E.

    Each term |Rbar_j R_{j+1} - e^{2ik_j dx_j}| needs the left recursion,
    which runs down from R_{N+1} = 0, and the right one, which runs up from
    Rbar_0 = 0.  A backward pass keeps R only at the top of every segment
    of B = ceil(sqrt(N+1)) nodes; the forward pass then walks the segments
    upward, recomputes each one's R from its checkpoint and adds its terms
    (Griewank & Walther, ACM TOMS 26, 2000).  Memory is a few times
    sqrt(N) M complex values.  Returns (f, failed) with failed as in
    transmission_sweep, set by either recursion.
    """
    N = dp.n_steps
    B = _block_rows(N + 1)
    M = len(E)
    jdx = 1j * dp.dx
    starts = range(0, N + 1, B)
    failed = np.zeros(M, dtype=bool)

    # Segment s holds nodes a..b-1; its block starts one node lower, at lo,
    # for the step that joins it to the segment below.
    checkpoints = [None] * len(starts)
    r = np.zeros(M, dtype=complex)
    for s in reversed(range(len(starts))):
        a = starts[s]
        b = min(a + B, N + 1)
        lo = max(a - 1, 0)
        checkpoints[s] = r  # R_b
        r = _steps(step_wavevectors(E, dp.u[lo:b, None], ctx.phi), jdx[lo:b], r, failed)

    f = np.zeros(M)
    rbar = np.zeros(M, dtype=complex)
    for s, a in enumerate(starts):
        b = min(a + B, N + 1)
        lo = max(a - 1, 0)
        fs, rbar = _segment_mismatch(step_wavevectors(E, dp.u[lo:b, None], ctx.phi),
                                     jdx[lo:b], a - lo, checkpoints[s], rbar,
                                     (dp.u[a:b, None] < E) & inside[a:b, None], failed)
        f += fs
    return f, failed
