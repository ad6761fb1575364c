"""Seeded generator of the benchmark's run configurations.

Each workload is a fixed list of job slots.  A slot fixes what sets the
cost of a job: task type, grid steps N, number of energies or modes,
refinement tolerance, number of levels in the window, output format.  The
seed draws everything else: potential family where several cost the same,
shapes, heights, offsets, energy windows, packet centres.  So every seed
gives different configs of nearly the same total work, and the same seed
gives byte-identical files.  The program sees only the config and table
files; the manifest (job list plus what the checker needs) stays with the
benchmark.

Why each workload exists:

scan    transmit and fofe jobs, N ~ 200..2000, N_E ~ 50..2000, two with
        --dump-coefficients.  Every energy is independent and nearly all of
        the time is the single-energy step recursion, so an energy-batched
        kernel shows its full effect here and the writer shows almost
        nothing.  The energy x step working set (16 B each) runs from
        0.2 MB, below one core's 2 MiB L2, to 12 MB, above both cores'
        4 MiB of L2; above the 105 MiB L3 would take minutes per job at the
        seed's speed and is left out.
bound   eigen jobs with tight refine_tol (1e-7..1e-9) on larger grids, up to
        the N = 6400 truncated Coulomb: finite well and harmonic oscillator
        (both with oracles), Lennard-Jones, double well with interval.
        Refinement is a chain of ~30-40 dependent single-energy sweeps per
        dip, so lockstep refinement and a faster long-grid sweep show here.
fields  packet jobs (129..513 modes, 5..20 times, 1000..4000 samples, csv
        and json) and wavefunc jobs (N up to 20000, oversample 1..4).  They
        use the full-amplitude sweep, mode caching, evolution and the
        writer, which no other workload stresses.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from reference import HBAR, C_LIGHT, finite_well_levels, packet_kinematics, phi

ELECTRON = 511000.0        # particle rest energies, eV
MOLECULE = 469.4e6         # the vibrational example's reduced mass
PAIR = 1.022e6             # the double-well example's particle
WORKLOADS = ("scan", "bound", "fields")


def _r(v: float) -> float:
    """Round a drawn parameter to 6 significant digits (readable configs)."""
    return float(f"{v:.6g}")


def _config(source: dict, x0, xN, N, mass, task, fmt="csv"):
    return {"potential": source,
            "grid": {"x0": x0, "xN": xN, "N": N},
            "particle": {"mass": mass},
            "task": task,
            "output": {"dir": None, "format": fmt}}


# ---------------------------------------------------------------------------
# potential families: each returns (config potential section, reference
# record for the checker, extra files, grid half-range or (x0, xN))

def _square_barrier(rng, V0):
    width = _r(rng.uniform(0.5, 1.5))
    center = _r(rng.uniform(-0.5, 0.5))
    rec = {"family": "square_barrier", "V0": V0, "center": center, "width": width}
    src = {"builtin": {"name": "square_barrier",
                       "params": {"V0": V0, "center": center, "width": width}}}
    return src, rec, {}, (-3.0, 3.0)


def _double_barrier(rng):
    heights = [_r(rng.uniform(0.3, 0.6)), _r(rng.uniform(0.3, 0.6))]
    widths = [_r(rng.uniform(0.3, 0.7)), _r(rng.uniform(1.5, 3.0))]
    depth = _r(rng.uniform(0.1, 0.3))
    rec = {"family": "double_barrier_vwell", "heights": heights, "widths": widths,
           "depth": depth}
    src = {"builtin": {"name": "double_barrier_vwell",
                       "params": {"heights": heights, "widths": widths, "depth": depth}}}
    return src, rec, {}, (-5.0, 5.0)


def _gaussians(rng):
    bumps = [(_r(rng.uniform(-0.3, 0.5)), _r(rng.uniform(-2.0, 2.0)),
              _r(rng.uniform(0.3, 1.0))) for _ in range(rng.randint(1, 3))]
    text = "+".join(f"({a!r})*exp(-((x-({c!r}))/{w!r})^2)" for a, c, w in bumps)
    rec = {"family": "gaussians", "bumps": bumps}
    return {"expression": text}, rec, {}, (-7.0, 7.0)


def _ramp(rng):
    a = _r(rng.uniform(-2.0, -0.5))
    b = _r(a + rng.uniform(1.0, 3.0))
    h = _r(rng.uniform(0.2, 0.6))
    pieces = [{"xmin": "-inf", "xmax": a, "expr": "0"},
              {"xmin": a, "xmax": b, "expr": f"{h!r}*(x-({a!r}))/({b!r}-({a!r}))"},
              {"xmin": b, "xmax": "inf", "expr": "0"}]
    rec = {"family": "ramp", "a": a, "b": b, "h": h}
    return {"expression": pieces}, rec, {}, (-4.0, 4.0)


def _step_table(rng, name, lo, hi):
    """Zero-order-hold table of 6..12 steps with values in (lo, hi) eV and
    0 at both ends."""
    xs = sorted({_r(rng.uniform(-3.0, 3.0)) for _ in range(rng.randint(6, 12))})
    us = [_r(rng.uniform(lo, hi)) for _ in xs]
    xs = [-4.0] + xs + [4.0]
    us = [0.0] + us + [0.0]
    text = "# x_nm U_eV\n" + "".join(f"{x!r} {u!r}\n" for x, u in zip(xs, us))
    rec = {"family": "table", "x": xs, "u": us}
    return {"table": name}, rec, {name: text}, (-5.0, 5.0)


def _scattering_potential(rng, family, table_name):
    if family == "square_barrier":
        return _square_barrier(rng, _r(rng.uniform(0.2, 0.6)))
    if family == "double_barrier_vwell":
        return _double_barrier(rng)
    if family == "gaussians":
        return _gaussians(rng)
    if family == "ramp":
        return _ramp(rng)
    return _step_table(rng, table_name, -0.2, 0.5)


SCATTER_FAMILIES = ("double_barrier_vwell", "gaussians", "ramp", "table")


# ---------------------------------------------------------------------------
# bound-state potentials with windows that hold a fixed number of levels

def _harmonic(rng, levels):
    """U0 + (m/2c^2) w^2 (x-a)^2, with exactly `levels` levels in the window."""
    omega = _r(rng.uniform(0.9, 1.1))
    a = _r(rng.uniform(-0.2, 0.2))
    u0 = _r(rng.uniform(-0.5, 0.5))
    coef = _r(ELECTRON / (2.0 * C_LIGHT ** 2) * omega ** 2)
    omega = math.sqrt(coef * 2.0 * C_LIGHT ** 2 / ELECTRON)
    quantum = HBAR * omega
    src = {"expression": f"({coef!r})*(x-({a!r}))^2+({u0!r})"}
    rec = {"family": "harmonic", "coef": coef, "a": a, "u0": u0}
    window = (_r(u0 + 0.15 * quantum), _r(u0 + levels * quantum))
    oracle = {"kind": "harmonic", "omega": omega, "offset": u0}
    return src, rec, (-3.5, 3.5), window, oracle


def _finite_well(rng, levels, n_energies):
    """Square well -V0 with exactly `levels` levels, none within three scan
    steps of each other or of the window edges."""
    ph = phi(ELECTRON)
    while True:
        V0 = _r(rng.uniform(0.8, 1.2))
        z0 = rng.uniform((levels - 1) * math.pi / 2 + 0.3, levels * math.pi / 2 - 0.3)
        width = _r(2.0 * z0 / (ph * math.sqrt(V0)))
        center = _r(rng.uniform(-0.3, 0.3))
        lv = finite_well_levels(V0, width / 2.0, ELECTRON)
        if len(lv) != levels:
            continue
        lo = _r(-V0 + 0.5 * (lv[0] + V0))
        hi = _r(0.5 * lv[-1])
        step = (hi - lo) / (n_energies - 1)
        gaps = [lv[0] - lo, hi - lv[-1]] + [b - a for a, b in zip(lv, lv[1:])]
        if min(gaps) > 3.0 * step:
            break
    half = width / 2.0 + 1.0
    src = {"builtin": {"name": "square_barrier",
                       "params": {"V0": -V0, "center": center, "width": width}}}
    rec = {"family": "square_barrier", "V0": -V0, "center": center, "width": width}
    oracle = {"kind": "finite_well", "V0": V0, "center": center, "width": width}
    return src, rec, (_r(center - half), _r(center + half)), (lo, hi), oracle


def _lennard_jones(rng):
    """Four vibrational levels: the window stops between the 4th and 5th.

    It starts at 0.83 of the floor, between the lowest level (near 0.77)
    and the one or two dips where the allowed region opens (0.87-0.9).  How
    many of those a window reaching the floor holds depends on A and B, so
    such a window would change the job's refinement work with the seed."""
    A = _r(0.124e-12 * rng.uniform(0.97, 1.03))
    B = _r(1.488e-6 * rng.uniform(0.97, 1.03))
    floor = -B * B / (4.0 * A)
    src = {"builtin": {"name": "lennard_jones", "params": {"A": A, "B": B, "J": 0}}}
    rec = {"family": "lennard_jones", "A": A, "B": B}
    return src, rec, (0.002, 0.2), (_r(0.83 * floor), -0.15)


def _double_well(rng):
    """The two-well example shifted rigidly: three right-well levels."""
    shift = _r(rng.uniform(-0.05, 0.05))
    params = {"A_left": 4.0e-3, "A_right": 2.4e-3, "B": 0.450, "C": _r(-0.5 + shift),
              "delta": 0.5, "alpha": 10.0}
    src = {"builtin": {"name": "double_well", "params": params}}
    return src, (-20.0, 20.0), (_r(-0.070 + shift), _r(-0.045 + shift))


def _coulomb(rng):
    e2 = _r(rng.uniform(1.40, 1.48))
    eps = _r(rng.uniform(2.2e-4, 2.8e-4))
    s = (e2 / 1.44) ** 2
    src = {"builtin": {"name": "coulomb_trunc", "params": {"e2": e2, "eps": eps}}}
    return src, (-1.6, 1.6), (_r(-16.0 * s), _r(-6.0 * s))


def _fofe_potential(rng, family, N_E, table_name):
    """Potential, reference record, grid and an energy window that lies
    wholly above the floor, so that every scan energy sweeps."""
    if family == "harmonic":
        src, rec, ends, window, _ = _harmonic(rng, 5)
        return src, rec, ends, window, ELECTRON, {}
    if family == "finite_well":
        src, rec, ends, window, _ = _finite_well(rng, 3, N_E)
        return src, rec, ends, window, ELECTRON, {}
    if family == "lennard_jones":
        src, rec, ends, window = _lennard_jones(rng)
        return src, rec, ends, window, MOLECULE, {}
    depth = rng.uniform(0.5, 1.0)
    src, rec, files, ends = _step_table(rng, table_name, -depth, -0.6 * depth)
    window = (_r(min(rec["u"]) + 0.01), -0.01)
    return src, rec, ends, window, ELECTRON, files


FOFE_FAMILIES = ("harmonic", "finite_well", "lennard_jones", "table")


# ---------------------------------------------------------------------------
# slots

def _scan(rng):
    jobs = []
    # (task, N, N_E, dump, format, smoke)
    # Cost is about N x N_E step updates per sweep, two sweeps for fofe and
    # for --dump-coefficients.  Slots 3-6 cost about the same (2.4-3.2e5), so
    # the median job is the middle of a cluster, not one short job whose
    # latency follows the machine's load; a pass is short enough for several
    # passes in a run.
    slots = [("transmit", 200, 50, False, "csv", True),
             ("fofe", 200, 60, False, "json", True),
             ("transmit", 2000, 60, False, "json", False),
             ("fofe", 300, 400, False, "csv", False),
             ("transmit", 400, 400, True, "csv", False),
             ("fofe", 1000, 150, False, "csv", False),
             ("transmit", 600, 500, False, "csv", False),
             ("fofe", 800, 400, False, "json", False),
             ("transmit", 1500, 500, False, "csv", False),
             ("transmit", 200, 2000, True, "csv", False)]
    for i, (task, N, N_E, dump, fmt, smoke) in enumerate(slots):
        jid = f"scan{i:02d}-{task}"
        table = f"{jid}.table.txt"
        if task == "transmit":
            family = "square_barrier" if i == 0 else rng.choice(SCATTER_FAMILIES)
            src, rec, files, (x0, xN) = _scattering_potential(rng, family, table)
            Emin = _r(rng.uniform(0.01, 0.05))
            Emax = _r(rng.uniform(1.0, 2.0))
            cfg = _config(src, x0, xN, N, ELECTRON,
                          {"type": "transmit", "Emin": Emin, "Emax": Emax, "N_E": N_E}, fmt)
            check = {"kind": "transmit", "potential": rec, "mass": ELECTRON}
            flags = ["--dump-coefficients"] if dump else []
        else:
            family = rng.choice(FOFE_FAMILIES)
            src, rec, (x0, xN), (Emin, Emax), mass, files = _fofe_potential(
                rng, family, N_E, table)
            cfg = _config(src, x0, xN, N, mass,
                          {"type": "fofe", "Emin": Emin, "Emax": Emax, "N_E": N_E}, fmt)
            check = {"kind": "fofe", "potential": rec, "mass": mass}
            flags = []
        jobs.append(_job(jid, cfg, flags, files, check, smoke))
    return jobs


def _bound(rng):
    # Lennard-Jones, finite well and double well cost about the same, so the
    # median job is the middle of three; the harmonic job is dearer and the
    # Coulomb job, refined on the long grid, is the largest.
    jobs = []
    # finite well (oracle)
    N, N_E = 800, 120
    src, _, (x0, xN), (lo, hi), oracle = _finite_well(rng, 4, N_E)
    cfg = _config(src, x0, xN, N, ELECTRON,
                  {"type": "eigen", "Emin": lo, "Emax": hi, "N_E": N_E, "refine_tol": 1e-9})
    jobs.append(_job("bound00-finite_well", cfg, [], {},
                     {"kind": "eigen", "oracle": oracle, "mass": ELECTRON}, True))
    # harmonic oscillator (oracle)
    src, _, (x0, xN), (lo, hi), oracle = _harmonic(rng, 5)
    cfg = _config(src, x0, xN, 1000, ELECTRON,
                  {"type": "eigen", "Emin": lo, "Emax": hi, "N_E": 60, "refine_tol": 1e-9},
                  "json")
    jobs.append(_job("bound01-harmonic", cfg, [], {},
                     {"kind": "eigen", "oracle": oracle, "mass": ELECTRON}, False))
    # Lennard-Jones vibrational levels; 100 scan energies, because denser scans
    # of this window catch shallow bumps between levels as extra dips, and how
    # many depends on the seed
    src, _, (x0, xN), (lo, hi) = _lennard_jones(rng)
    cfg = _config(src, x0, xN, 800, MOLECULE,
                  {"type": "eigen", "Emin": lo, "Emax": hi, "N_E": 100, "refine_tol": 1e-8})
    jobs.append(_job("bound02-lennard_jones", cfg, [], {}, {"kind": "eigen"}, False))
    # double well, right-well interval
    src, (x0, xN), (lo, hi) = _double_well(rng)
    cfg = _config(src, x0, xN, 1000, PAIR,
                  {"type": "eigen", "Emin": lo, "Emax": hi, "N_E": 100,
                   "interval": [0.0, 20.0], "refine_tol": 1e-9})
    jobs.append(_job("bound03-double_well", cfg, [], {}, {"kind": "eigen"}, False))
    # truncated Coulomb on the long grid
    src, (x0, xN), (lo, hi) = _coulomb(rng)
    cfg = _config(src, x0, xN, 6400, ELECTRON,
                  {"type": "eigen", "Emin": lo, "Emax": hi, "N_E": 30, "refine_tol": 1e-7})
    jobs.append(_job("bound04-coulomb", cfg, [], {}, {"kind": "eigen"}, False))
    return jobs


def _packet_task(rng, n_modes, n_times, n_samples, half):
    """Packet that starts at -half/2 and stays inside [-half, half] (and
    below t_max) for every requested time, sampled finely enough (8 samples
    per period pi/kappa of the |psi|^2 fringes) that summing |psi|^2 over the
    samples measures its total probability."""
    spacing = 2.0 * half / (n_samples - 1)
    while True:
        E0 = _r(rng.uniform(0.04, 0.12))
        sigma_x = rng.uniform(5.0, 8.0)
        dE = _r(7.0 * math.sqrt(E0) / (phi(ELECTRON) * sigma_x))
        kin = packet_kinematics(E0, dE, n_modes, ELECTRON)
        if spacing <= math.pi / (8.0 * kin["kappa_max"]):
            break
    t_end = min(0.8 * kin["t_max"], 0.9 * (1.5 * half - 4.0 * kin["sigma_x"]) / kin["v_max"])
    times = [_r(t_end * i / (n_times - 1)) for i in range(n_times)]
    return {"type": "packet", "E0": E0, "dE": dE, "N_E": n_modes, "x0": -half / 2.0,
            "times": times, "samples": {"xmin": -half, "xmax": half, "n": n_samples},
            "region": [-1.5, 1.5]}


def _fields(rng):
    jobs = []
    # The family is fixed per slot: on these long grids evaluating the potential
    # at every node is a visible part of a job, and its cost depends on the family.
    # The median job is the smallest packet job, well clear of its neighbours in
    # cost and long enough (~0.5 s) that sub-second swings of the machine's
    # speed average out within it: jobs that mostly format rows vary more
    # with the machine's load.
    # (task, N, modes or energies, times or oversample, samples, format, family, smoke)
    slots = [("packet", 600, 129, 10, 1500, "csv", "double_barrier_vwell", True),
             ("wavefunc", 2000, 1, 4, None, "json", "table", True),
             ("packet", 800, 257, 12, 2000, "json", "square_barrier", False),
             ("wavefunc", 20000, 1, 1, None, "csv", "double_barrier_vwell", False),
             ("packet", 1000, 513, 8, 1500, "csv", "ramp", False),
             ("wavefunc", 5000, 2, 2, None, "csv", "table", False),
             ("packet", 500, 193, 20, 4000, "csv", "gaussians", False)]
    for i, (task, N, count, reps, samples, fmt, family, smoke) in enumerate(slots):
        jid = f"fields{i:02d}-{task}"
        src, rec, files, (x0, xN) = _scattering_potential(rng, family, f"{jid}.table.txt")
        if task == "packet":
            half = _r(rng.uniform(60.0, 80.0))
            x0, xN = -half, half
            tk = _packet_task(rng, count, reps, samples, half)
            check = {"kind": "packet", "potential": rec, "mass": ELECTRON}
        else:
            energies = sorted(_r(rng.uniform(0.02, 1.5)) for _ in range(count))
            tk = {"type": "wavefunc", "energies": energies, "oversample": reps}
            check = {"kind": "wavefunc", "potential": rec, "mass": ELECTRON}
        cfg = _config(src, x0, xN, N, ELECTRON, tk, fmt)
        jobs.append(_job(jid, cfg, [], files, check, smoke))
    return jobs


def _job(jid, cfg, flags, files, check, smoke):
    cfg["output"]["dir"] = f"out/{jid}"
    return {"id": jid, "config": cfg, "flags": flags, "files": files,
            "check": check, "smoke": smoke}


def generate(workload: str, seed: int, *, smoke: bool = False) -> list[dict]:
    """Job list for one workload and seed (the smoke subset if asked)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"scan": _scan, "bound": _bound, "fields": _fields}[workload](rng)
    return [j for j in jobs if j["smoke"]] if smoke else jobs


def write(jobs: list[dict], directory: Path) -> list[dict]:
    """Write config and table files; return the manifest entries with the
    argv each job is run with."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for job in jobs:
        cfg_path = directory / f"{job['id']}.json"
        cfg_path.write_text(json.dumps(job["config"], indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        for name, text in job["files"].items():
            (directory / name).write_text(text, encoding="utf-8")
        manifest.append({"id": job["id"], "argv": [str(cfg_path), "--quiet"] + job["flags"],
                         "config": job["config"], "outdir": str(directory / job["config"]["output"]["dir"]),
                         "check": job["check"]})
    return manifest
