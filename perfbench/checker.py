"""Output checker: runs outside the timed region, one job at a time.

`check(entry)` returns a list of problems; an empty list means the job's
outputs are correct.  References are independent of the sweep engine: a
numpy transfer-matrix walk (reference.py) and the closed forms in
`qsweep.oracle`, which never touches the recursion.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference

T_SUM_TOL = 1e-9        # |T + R - 1| where both ends propagate
REF_RTOL = 1e-7         # transfer-matrix reference, relative
REF_ATOL = 1e-10        # ... and absolute (T near 0)
MISMATCH_ATOL = 1e-10   # f(E) vs the reference ratio walks, per grid node: near
                        # a dip f is a sum of small terms with rounding in each
ORACLE_T_TOL = 1e-8     # square barrier vs closed form
NORM_TOL = 1e-6         # sum |psi|^2 dx of an eigenfunction file
WELL_TOL = 1e-6         # finite-well levels, eV (acceptance criterion 5)
HARMONIC_RTOL = 1e-3    # harmonic levels relative to hbar w (n + 1/2) (criterion 5)
PACKET_TOL = 1e-3       # drift of the packet's total probability from t = 0
SUBSAMPLE = 16          # rows per curve compared with the reference


def load(outdir: Path, name: str, fmt: str):
    """(columns, rows array) of one artifact in either output format."""
    if fmt == "json":
        doc = json.loads((outdir / f"{name}.json").read_text(encoding="utf-8"))
        return doc["columns"], np.array(doc["rows"], dtype=float).reshape(-1, len(doc["columns"]))
    lines = [ln for ln in (outdir / f"{name}.csv").read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    columns = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
    return columns, rows.reshape(-1, len(columns))


def _expect_columns(problems, name, got, want):
    if list(got) != want:
        problems.append(f"{name}: columns {got} != {want}")
        return False
    return True


def _grid(cfg):
    g = cfg["grid"]
    return reference.grid(g["x0"], g["xN"], g["N"])


def _well_width(x, u) -> float:
    """Width of the steps that carry the nonzero part of a square barrier
    or well: the discretized structure, which the closed forms describe
    exactly."""
    inside = np.flatnonzero(u != 0.0)
    if inside.size == 0 or inside[-1] + 1 >= len(x):
        raise ValueError("the barrier or well does not lie inside the grid")
    return float(x[inside[-1] + 1] - x[inside[0]])


def _subsample(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(SUBSAMPLE, n)).round().astype(int))


def _close(a, b, rtol, atol):
    return np.abs(np.asarray(a) - np.asarray(b)) <= atol + rtol * np.abs(np.asarray(b))


def _check_transmit(entry, outdir, fmt, problems):
    cfg, chk = entry["config"], entry["check"]
    task = cfg["task"]
    cols, rows = load(outdir, "transmission", fmt)
    if not _expect_columns(problems, "transmission", cols, ["E_eV", "T", "R"]):
        return
    E, T, R = rows.T
    if len(E) != task["N_E"] or not np.allclose(
            E, np.linspace(task["Emin"], task["Emax"], task["N_E"]), rtol=1e-10, atol=1e-12):
        problems.append("transmission: energy grid differs from the config")
        return
    if not (np.all(np.isfinite(rows)) and np.all(T >= 0) and np.all(R >= 0)):
        problems.append("transmission: T or R negative or not finite")
        return
    x = _grid(cfg)
    u = reference.potential_values(chk["potential"], x)
    both = (E > u[0]) & (E > u[-1])
    worst = float(np.max(np.abs(T + R - 1.0)[both], initial=0.0))
    if worst > T_SUM_TOL:
        problems.append(f"transmission: |T+R-1| = {worst:.3g} > {T_SUM_TOL:g}")
    idx = _subsample(len(E))
    A, B, k = reference.amplitudes(x, u, E[idx], chk["mass"])
    t_ref, r_ref, k0, kN = A[-1], B[0], k[0], k[-1]
    T_ref = np.where(kN.real > 0, kN.real / k0.real * np.abs(t_ref) ** 2, 0.0)
    bad = ~_close(T[idx], T_ref, REF_RTOL, REF_ATOL)
    if bad.any():
        i = idx[np.argmax(bad)]
        problems.append(f"transmission: T({E[i]:.6g}) = {T[i]:.12g} but the transfer-matrix "
                        f"reference gives {T_ref[np.argmax(bad)]:.12g}")
    if chk["potential"]["family"] == "square_barrier":
        _check_square_barrier(chk, x, u, E, T, problems)
    if "--dump-coefficients" in entry["argv"]:
        cols, coef = load(outdir, "coefficients", fmt)
        if _expect_columns(problems, "coefficients", cols,
                           ["E_eV", "re_t_amp", "im_t_amp", "re_r_amp", "im_r_amp"]):
            t = coef[idx, 1] + 1j * coef[idx, 2]
            r = coef[idx, 3] + 1j * coef[idx, 4]
            if not (np.all(_close(t, t_ref, REF_RTOL, REF_ATOL))
                    and np.all(_close(r, r_ref, REF_RTOL, REF_ATOL))):
                problems.append("coefficients: amplitudes differ from the transfer-matrix reference")


def _check_square_barrier(chk, x, u, E, T, problems):
    from qsweep import oracle
    from qsweep.constants import ParticleContext

    width = _well_width(x, u)
    ctx = ParticleContext.for_mass(chk["mass"])
    V0 = chk["potential"]["V0"]
    exact = np.array([oracle.analytic_square_barrier_T(float(e), V0, width, ctx) for e in E])
    worst = float(np.max(np.abs(T - exact)))
    if worst > ORACLE_T_TOL:
        problems.append(f"square barrier: |T - analytic| = {worst:.3g} > {ORACLE_T_TOL:g}")


def _check_fofe(entry, outdir, fmt, problems):
    cfg, chk = entry["config"], entry["check"]
    task = cfg["task"]
    cols, rows = load(outdir, "mismatch", fmt)
    if not _expect_columns(problems, "mismatch", cols, ["E_eV", "f"]):
        return
    if len(rows) != task["N_E"]:
        problems.append(f"mismatch: {len(rows)} rows, expected {task['N_E']}")
        return
    E, f = rows.T
    if np.isnan(f).any() or (f < 0).any():
        problems.append("mismatch: f(E) < 0 or NaN")
    idx = _subsample(len(E))
    x = _grid(cfg)
    u = reference.potential_values(chk["potential"], x)
    f_ref = reference.mismatch(x, u, E[idx], chk["mass"])
    # inf (no allowed step at E) must match inf
    bad = ~(_close(f[idx], f_ref, REF_RTOL, MISMATCH_ATOL * len(x))
            | (np.isinf(f[idx]) & np.isinf(f_ref)))
    if bad.any():
        i = np.argmax(bad)
        problems.append(f"mismatch: f({E[idx[i]]:.6g}) = {f[idx[i]]:.12g} but the reference "
                        f"ratio walks give {f_ref[i]:.12g}")


def _oracle_levels(chk, cfg, lo, hi):
    from qsweep import oracle
    from qsweep.constants import ParticleContext

    spec = chk["oracle"]
    ctx = ParticleContext.for_mass(chk["mass"])
    if spec["kind"] == "finite_well":
        x = _grid(cfg)
        pot = {"family": "square_barrier", "V0": -spec["V0"], "center": spec["center"],
               "width": spec["width"]}
        half = _well_width(x, reference.potential_values(pot, x)) / 2.0
        levels = [e for e in oracle.finite_well_eigenvalues(spec["V0"], half, ctx) if lo < e < hi]
        return levels, [WELL_TOL] * len(levels)
    out, tols = [], []
    n = 0
    while True:
        quantum = oracle.reference_levels("harmonic", n, omega=spec["omega"])
        e = spec["offset"] + quantum
        if e >= hi:
            return out, tols
        if e > lo:
            out.append(e)
            tols.append(HARMONIC_RTOL * quantum)
        n += 1


def _check_eigen(entry, outdir, fmt, problems):
    cfg, chk = entry["config"], entry["check"]
    task = cfg["task"]
    cols, rows = load(outdir, "eigenvalues", fmt)
    if not _expect_columns(problems, "eigenvalues", cols,
                           ["index", "E_eV", "uncertainty_eV", "residual"]):
        return
    energies = rows[:, 1]
    if not np.all(np.isfinite(rows)) or (rows[:, 3] < 0).any():
        problems.append("eigenvalues: non-finite value or negative residual")
    if len(rows) == 0:
        problems.append("eigenvalues: no level found")
    if ((energies <= task["Emin"]) | (energies >= task["Emax"])).any():
        problems.append("eigenvalues: level outside the scan window")
    if (rows[:, 2] > task["refine_tol"]).any():
        problems.append("eigenvalues: uncertainty above refine_tol")
    for i in range(1, len(rows) + 1):
        cols, psi = load(outdir, f"eigenfunction_{i}", fmt)
        if not _expect_columns(problems, f"eigenfunction_{i}", cols,
                               ["x_nm", "re_psi", "im_psi", "abs2"]):
            continue
        x = psi[:, 0]
        dx = np.append(np.diff(x), x[-1] - x[-2])
        norm = float(np.sum(psi[:, 3] * dx))
        if abs(norm - 1.0) > NORM_TOL:
            problems.append(f"eigenfunction_{i}: sum |psi|^2 dx = {norm:.9g}")
    extra = sorted(p.name for p in outdir.glob(f"eigenfunction_*.{fmt}"))
    if len(extra) != len(rows):
        problems.append(f"{len(extra)} eigenfunction files for {len(rows)} eigenvalues")
    if "oracle" in chk:
        expected, tols = _oracle_levels(chk, cfg, task["Emin"], task["Emax"])
        if len(expected) != len(energies):
            problems.append(f"eigenvalues: {len(energies)} levels in the window, "
                            f"the {chk['oracle']['kind']} oracle has {len(expected)}")
        else:
            for got, want, tol in zip(energies, expected, tols):
                if abs(got - want) > tol:
                    problems.append(f"eigenvalues: {got:.10g} vs oracle {want:.10g} "
                                    f"(tolerance {tol:.2g} eV)")


def _check_packet(entry, outdir, fmt, problems):
    cfg, chk = entry["config"], entry["check"]
    task = cfg["task"]
    kin = reference.packet_kinematics(task["E0"], task["dE"], task["N_E"], chk["mass"])
    cols, summary = load(outdir, "packet_summary", fmt)
    if not _expect_columns(problems, "packet_summary", cols, ["t_fs", "total_prob", "region_prob"]):
        return
    if len(summary) != len(task["times"]):
        problems.append("packet_summary: one row per time expected")
        return
    valid = summary[:, 0] <= kin["t_max"]
    drift = float(np.max(np.abs(summary[valid, 1] - summary[0, 1])))
    if drift > PACKET_TOL:
        problems.append(f"packet: total probability drifts by {drift:.3g} > {PACKET_TOL:g}")
    for t, total in summary[:, :2]:
        cols, field = load(outdir, f"packet_t{t:g}", fmt)
        if len(field) != task["samples"]["n"]:
            problems.append(f"packet_t{t:g}: {len(field)} rows, expected {task['samples']['n']}")
            continue
        x = field[:, 0]
        spacing = np.append(np.diff(x), x[-1] - x[-2])
        prob = float(np.sum(field[:, 3] * spacing))
        if not math.isclose(prob, total, rel_tol=1e-8, abs_tol=1e-12):
            problems.append(f"packet_t{t:g}: field integrates to {prob:.10g}, "
                            f"summary says {total:.10g}")
    # The superposition itself, at the first and the last time, on evenly
    # spread samples plus samples where the packet is, its peak included.
    x = _grid(cfg)
    u = reference.potential_values(chk["potential"], x)
    lo, hi, n = task["samples"]["xmin"], task["samples"]["xmax"], task["samples"]["n"]
    xs = np.linspace(lo, hi, n)
    for t in (task["times"][0], task["times"][-1]):
        _, field = load(outdir, f"packet_t{t:g}", fmt)
        inside = np.flatnonzero(field[:, 3] > 1e-3 * field[:, 3].max())
        idx = np.union1d(_subsample(n), inside[_subsample(len(inside))])
        idx = np.union1d(idx, [field[:, 3].argmax()])
        want = reference.packet_field(x, u, task, chk["mass"], t, xs[idx])
        got = field[idx, 1] + 1j * field[idx, 2]
        err = float(np.max(np.abs(got - want)))
        if err > REF_RTOL * float(np.max(np.abs(want))):
            problems.append(f"packet_t{t:g}: psi differs from the reference superposition "
                            f"by {err:.3g}")


def _check_wavefunc(entry, outdir, fmt, problems):
    cfg, chk = entry["config"], entry["check"]
    task = cfg["task"]
    x = _grid(cfg)
    u = reference.potential_values(chk["potential"], x)
    A, B, k = reference.amplitudes(x, u, task["energies"], chk["mass"])
    n_rows = cfg["grid"]["N"] * task["oversample"] + 1
    xs = np.linspace(x[0], x[-1], n_rows)
    # Both ends, evenly spread rows and the row after each (between nodes
    # when oversampling).
    idx = _subsample(n_rows)
    idx = np.union1d(idx, np.minimum(idx + 1, n_rows - 1))
    want = reference.field(x, A, B, k, xs[idx])
    for m, E in enumerate(task["energies"]):
        name = f"wavefunction_E{E:g}"
        cols, rows = load(outdir, name, fmt)
        if not _expect_columns(problems, name, cols, ["x_nm", "re_psi", "im_psi", "abs2"]):
            continue
        if len(rows) != n_rows:
            problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
            continue
        psi = rows[:, 1] + 1j * rows[:, 2]
        if not np.allclose(rows[:, 0], xs, rtol=0.0, atol=1e-9):
            problems.append(f"{name}: sample positions differ from the config's grid")
        bad = ~_close(psi[idx], want[:, m], REF_RTOL, REF_ATOL)
        if bad.any():
            problems.append(f"{name}: psi({xs[idx][np.argmax(bad)]:.6g}) differs from the "
                            "transfer-matrix reference")
        if not np.allclose(rows[:, 3], np.abs(psi) ** 2, rtol=1e-9, atol=1e-15):
            problems.append(f"{name}: abs2 column is not |psi|^2")


CHECKS = {"transmit": _check_transmit, "fofe": _check_fofe, "eigen": _check_eigen,
          "packet": _check_packet, "wavefunc": _check_wavefunc}


def check(entry: dict) -> list[str]:
    """Problems found in one job's outputs (empty when they are correct)."""
    problems: list[str] = []
    outdir = Path(entry["outdir"])
    try:
        CHECKS[entry["check"]["kind"]](entry, outdir, entry["config"]["output"]["format"], problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"could not check outputs: {type(exc).__name__}: {exc}")
    return problems
