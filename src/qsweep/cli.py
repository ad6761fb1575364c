"""Config-driven command-line runner.

One JSON run-configuration file selects a potential, a grid, a particle,
and exactly one task:

  transmit  T(E)/R(E) curve over an energy grid
  wavefunc  stationary wave functions at chosen energies
  fofe      bound-state mismatch curve f(E)
  eigen     eigenvalues plus matched eigenfunctions
  packet    Gaussian wave-packet snapshots and region probabilities

Artifacts are written atomically (temp file + rename) as CSV or JSON with
a reproducible 12-significant-digit number format, so rerunning a config
produces byte-identical data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .constants import ParticleContext
from .eigen import eigenfunction, find_eigenvalues, mismatch_curve
from .errors import ConfigError, SolverError
from .potential import (
    DiscretizedPotential,
    PotentialSpec,
    _is_finite,
    discretize,
    make_builtin,
    make_expression,
    read_table,
)
from .recursion import left_sweep
from .scattering import sample_wavefunction, transmission_curve
from .wavepacket import design_packet, evolve, precompute_modes, region_probability

@dataclass
class RunConfig:
    spec: PotentialSpec
    x0: float
    xN: float
    N: int
    ctx: ParticleContext
    task: dict
    outdir: Path
    fmt: str
    doc: dict


# ---------------------------------------------------------------------------
# validation
#
# A rule checks one key: "number" (finite), "positive", an int n (integer
# >= n) or "pair" ([a, b] with a < b).  Keys without a rule (None) are
# checked by hand in _parse_task.

TASKS = {
    "transmit": {"Emin": "number", "Emax": "number", "N_E": 2},
    "wavefunc": {"energies": None, "oversample": 1},
    "fofe": {"Emin": "number", "Emax": "number", "N_E": 3, "interval": "pair"},
    "eigen": {"Emin": "number", "Emax": "number", "N_E": 3, "interval": "pair",
              "refine_tol": "positive"},
    "packet": {"E0": "positive", "dE": "positive", "sigma_x": "positive", "N_E": 3,
               "x0": "number", "times": None, "samples": None, "region": "pair"},
}
# task keys that may be left out, with the value they then take
OPTIONAL = {"oversample": 1, "interval": None, "refine_tol": None, "dE": None,
            "sigma_x": None, "samples": None, "region": None}
GRID = {"x0": "number", "xN": "number", "N": 2}
SAMPLES = {"xmin": "number", "xmax": "number", "n": 2}
# the sections of a config, each with its allowed keys (task: see TASKS)
SECTIONS = {"potential": ("builtin", "expression", "table"), "grid": GRID,
            "particle": ("mass",), "task": None, "output": ("dir", "format")}
PIECE = ("xmin", "xmax", "expr")
# the file each entry of a list writes; no two entries may share one
ENTRY_NAMES = {"energies": "wavefunction_E{:g}", "times": "packet_t{:g}"}


def _check_keys(section: dict, where: str, allowed, problems: list):
    for key in section:
        if key not in allowed:
            problems.append(f"unknown key '{where}.{key}'")


def _value(section: dict, where: str, key: str, rule, problems: list, optional=False):
    """section[key] checked against its rule; None when absent or bad."""
    if key not in section:
        if not optional:
            problems.append(f"missing key '{where}.{key}'")
        return None
    v = section[key]
    if rule == "pair":
        if isinstance(v, list) and len(v) == 2 and all(map(_is_finite, v)) and v[0] < v[1]:
            return (float(v[0]), float(v[1]))
        problems.append(f"'{where}.{key}' must be [a, b] with a < b, got {v!r}")
    elif isinstance(rule, int):
        if not isinstance(v, int) or isinstance(v, bool) or v < rule:
            problems.append(f"'{where}.{key}' must be an integer >= {rule}, got {v!r}")
        elif v > sys.maxsize:
            problems.append(f"'{where}.{key}' must be at most {sys.maxsize}, got {v!r}")
        else:
            return v
    elif not _is_finite(v):
        problems.append(f"'{where}.{key}' must be a finite number, got {v!r}")
    elif rule == "positive" and not v > 0:
        problems.append(f"'{where}.{key}' must be positive, got {v!r}")
    else:
        return float(v)
    return None


def _values(section: dict, where: str, rules: dict, problems: list) -> dict:
    """Every key of a section checked by its rule; absent or bad ones, and
    those without a rule, take their OPTIONAL default (else None)."""
    out = {}
    for key, rule in rules.items():
        v = None if rule is None else _value(section, where, key, rule, problems,
                                             key in OPTIONAL)
        out[key] = OPTIONAL.get(key) if v is None else v
    return out


def _ascending(where: str, lo: str, hi: str, values: dict, problems: list):
    a, b = values[lo], values[hi]
    if a is not None and b is not None and not a < b:
        problems.append(f"'{where}' must satisfy {lo} < {hi}, got {a!r} >= {b!r}")


def _object(doc, key, where: str, problems: list, allowed=None) -> dict | None:
    """doc[key] if it is an object (reporting its unknown keys), else None."""
    section = doc[key]
    if not isinstance(section, dict):
        problems.append(f"'{where}' must be an object")
        return None
    if allowed is not None:
        _check_keys(section, where, allowed, problems)
    return section


def _parse_potential(section: dict, base_dir: Path, problems: list) -> PotentialSpec | None:
    sources = [k for k in SECTIONS["potential"] if k in section]
    if len(sources) != 1:
        problems.append(
            "'potential' must contain exactly one of 'builtin', 'expression', 'table'"
        )
        return None
    try:
        if sources[0] == "builtin":
            blk = _object(section, "builtin", "potential.builtin", problems, ("name", "params"))
            if blk is None:
                return None
            if not isinstance(blk.get("name"), str):
                problems.append("'potential.builtin.name' must be a string")
                return None
            params = _object(blk, "params", "potential.builtin.params", problems) \
                if "params" in blk else {}
            return None if params is None else make_builtin(blk["name"], params)
        if sources[0] == "expression":
            blk = section["expression"]
            if isinstance(blk, str):
                return make_expression(blk)
            if not isinstance(blk, list):
                problems.append("'potential.expression' must be a string or a list of pieces")
                return None
            pieces = []
            for i in range(len(blk)):
                where = f"potential.expression[{i}]"
                piece = _object(blk, i, where, problems, PIECE)
                if piece is None:
                    return None
                missing = [k for k in PIECE if k not in piece]
                if missing:
                    problems.append(f"'{where}' missing {', '.join(missing)}")
                    return None
                lo = _to_bound(piece["xmin"], where + ".xmin", problems)
                hi = _to_bound(piece["xmax"], where + ".xmax", problems)
                if not isinstance(piece["expr"], str):
                    problems.append(f"'{where}.expr' must be a string")
                    return None
                if lo is None or hi is None:
                    return None
                pieces.append((lo, hi, piece["expr"]))
            return make_expression(pieces)
        path = section["table"]
        if not isinstance(path, str):
            problems.append("'potential.table' must be a file path string")
            return None
        return read_table(base_dir / path)
    except (ValueError, OSError) as exc:
        problems.append(f"potential: {exc}")
        return None


def _to_bound(v, where: str, problems: list):
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if _is_finite(v):
        return float(v)
    problems.append(f"'{where}' must be a number or 'inf'/'-inf', got {v!r}")
    return None


def _entry_list(section: dict, key: str, least: float, what: str, problems: list):
    """section[key] as floats: finite numbers >= least, each naming its own file."""
    v = section.get(key)
    if not isinstance(v, list) or not v or not all(_is_finite(e) and e >= least for e in v):
        problems.append(f"'task.{key}' must be a nonempty list of {what}")
        return None
    groups: dict[str, list] = {}
    for e in map(float, v):
        groups.setdefault(ENTRY_NAMES[key].format(e), []).append(e)
    problems += [f"'task.{key}' values {es} share the output name '{name}'"
                 for name, es in groups.items() if len(es) > 1]
    return [float(e) for e in v]


def _parse_task(section: dict, problems: list) -> dict | None:
    ttype = section.get("type")
    if not isinstance(ttype, str) or ttype not in TASKS:
        problems.append(f"'task.type' must be one of {', '.join(TASKS)}, got {ttype!r}")
        return None
    rules = TASKS[ttype]
    _check_keys(section, "task", ("type", *rules), problems)
    task = {"type": ttype, **_values(section, "task", rules, problems)}
    if ttype == "eigen":
        _ascending("task", "Emin", "Emax", task, problems)
    if ttype == "wavefunc":
        task["energies"] = _entry_list(section, "energies", -math.inf, "numbers", problems)
    if ttype != "packet":
        return task
    if ("dE" in section) == ("sigma_x" in section):
        problems.append("'task' must contain exactly one of 'dE' or 'sigma_x'")
    task["times"] = _entry_list(section, "times", 0.0, "times >= 0 (fs)", problems)
    if "samples" in section:
        blk = section["samples"]
        if isinstance(blk, dict):
            _check_keys(blk, "task.samples", SAMPLES, problems)
            s = _values(blk, "task.samples", SAMPLES, problems)
            if None not in s.values() and s["xmin"] < s["xmax"]:
                task["samples"] = (s["xmin"], s["xmax"], s["n"])
        if task["samples"] is None:
            problems.append("'task.samples' must be {xmin, xmax, n} with xmin < xmax")
    return task


def parse_config(doc, base_dir: Path) -> RunConfig:
    """Validate a configuration document, reporting every problem at once."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_keys(doc, "config", SECTIONS, problems)
    problems += [f"missing section '{key}'" for key in SECTIONS if key not in doc]

    def section(key):
        return _object(doc, key, key, problems, SECTIONS[key]) if key in doc else None

    spec = ctx = task = outdir = fmt = None
    grid = dict.fromkeys(GRID)
    if (potential := section("potential")) is not None:
        spec = _parse_potential(potential, base_dir, problems)
    if (blk := section("grid")) is not None:
        grid = _values(blk, "grid", GRID, problems)
        _ascending("grid", "x0", "xN", grid, problems)
    if (blk := section("particle")) is not None:
        mass = _value(blk, "particle", "mass", "positive", problems)
        if mass is not None:
            ctx = ParticleContext.for_mass(mass)
    if (blk := section("task")) is not None:
        task = _parse_task(blk, problems)
    if (output := section("output")) is not None:
        if not isinstance(output.get("dir"), str):
            problems.append("'output.dir' must be a directory path string")
        else:
            outdir = base_dir / output["dir"]
        fmt = output.get("format", "csv")
        if fmt not in ("csv", "json"):
            problems.append(f"'output.format' must be 'csv' or 'json', got {fmt!r}")

    if problems:
        raise ConfigError(problems)
    return RunConfig(spec=spec, x0=grid["x0"], xN=grid["xN"], N=grid["N"], ctx=ctx,
                     task=task, outdir=outdir, fmt=fmt, doc=doc)


# ---------------------------------------------------------------------------
# output writers

def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class Writer:
    def __init__(self, cfg: RunConfig, quiet: bool):
        self.cfg = cfg
        self.quiet = quiet
        self.written: list[Path] = []

    def _meta(self) -> dict:
        dx = (self.cfg.xN - self.cfg.x0) / self.cfg.N
        return {
            "engine": f"qsweep {__version__}",
            "config": self.cfg.doc,
            "grid": f"x0={self.cfg.x0:.12g} xN={self.cfg.xN:.12g} N={self.cfg.N} dx={dx:.12g}",
            "particle": f"mass={self.cfg.ctx.mass:.12g} phi={self.cfg.ctx.phi:.12g}",
            "potential": self.cfg.spec.label,
        }

    def emit(self, name: str, columns: list[str], rows):
        rows = list(rows)
        self.cfg.outdir.mkdir(parents=True, exist_ok=True)
        meta = self._meta()
        if self.cfg.fmt == "csv":
            path = self.cfg.outdir / f"{name}.csv"
            lines = [f"# {key}: {json.dumps(val, sort_keys=True) if isinstance(val, dict) else val}"
                     for key, val in meta.items()]
            lines.append(",".join(columns))
            # every value is a float but the eigenvalue index, a small int that
            # "%.12g" writes as str() does
            template = ",".join(["%.12g"] * len(columns))
            lines.extend(template % tuple(row) for row in rows)
            _atomic_write(path, "\n".join(lines) + "\n")
        else:
            path = self.cfg.outdir / f"{name}.json"
            doc = {"meta": meta, "columns": columns, "rows": rows}
            _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        self.written.append(path)
        if not self.quiet:
            print(f"wrote {path} ({len(rows)} rows)")


# ---------------------------------------------------------------------------
# task pipelines

# Packet field values held at once (16 MiB): evolve takes the times in groups
# this large, so memory stays flat; each call rebuilds the mode field blocks.
_FIELD_VALUES = 1 << 20


def _field_rows(x, psi):
    return [(xj, p.real, p.imag, abs(p) ** 2) for xj, p in zip(x.tolist(), psi.tolist())]


def _run_transmit(cfg: RunConfig, dp: DiscretizedPotential, writer: Writer,
                  dump_coefficients: bool):
    task = cfg.task
    grid = np.linspace(task["Emin"], task["Emax"], task["N_E"])
    curve = transmission_curve(dp, grid, cfg.ctx)
    writer.emit("transmission", ["E_eV", "T", "R"],
                zip(curve.E.tolist(), curve.T.tolist(), curve.R.tolist()))
    if dump_coefficients:
        t_amp, r_amp = curve.t_amp, curve.r_amp
        writer.emit("coefficients",
                    ["E_eV", "re_t_amp", "im_t_amp", "re_r_amp", "im_r_amp"],
                    zip(curve.E.tolist(), t_amp.real.tolist(), t_amp.imag.tolist(),
                        r_amp.real.tolist(), r_amp.imag.tolist()))


def _run_wavefunc(cfg: RunConfig, dp: DiscretizedPotential, writer: Writer):
    xs = np.linspace(dp.x[0], dp.x[-1], dp.n_steps * cfg.task["oversample"] + 1)
    for E in cfg.task["energies"]:
        sweep = left_sweep(dp, E, cfg.ctx)
        field = sample_wavefunction(sweep, dp, xs)
        writer.emit(ENTRY_NAMES["energies"].format(E), ["x_nm", "re_psi", "im_psi", "abs2"],
                    _field_rows(field.x, field.psi))


def _run_fofe(cfg: RunConfig, dp: DiscretizedPotential, writer: Writer):
    task = cfg.task
    grid = np.linspace(task["Emin"], task["Emax"], task["N_E"])
    curve = mismatch_curve(dp, grid, cfg.ctx, task["interval"])
    writer.emit("mismatch", ["E_eV", "f"], zip(curve.E.tolist(), curve.f.tolist()))


def _run_eigen(cfg: RunConfig, dp: DiscretizedPotential, writer: Writer):
    task = cfg.task
    found = find_eigenvalues(dp, task["Emin"], task["Emax"], task["N_E"], cfg.ctx,
                             interval=task["interval"], refine_tol=task["refine_tol"])
    writer.emit("eigenvalues", ["index", "E_eV", "uncertainty_eV", "residual"],
                [(i + 1, c.energy, c.uncertainty, c.residual)
                 for i, c in enumerate(found)])
    for i, cand in enumerate(found):
        pair = eigenfunction(dp, cand.energy, cfg.ctx, interval=task["interval"])
        writer.emit(f"eigenfunction_{i + 1}", ["x_nm", "re_psi", "im_psi", "abs2"],
                    _field_rows(dp.x, pair.psi))


def _run_packet(cfg: RunConfig, dp: DiscretizedPotential, writer: Writer):
    task = cfg.task
    packet = design_packet(task["E0"], sigma_x=task["sigma_x"], dE=task["dE"],
                           n_modes=task["N_E"], x0=task["x0"], ctx=cfg.ctx)
    cache = precompute_modes(dp, packet, cfg.ctx)
    xs = dp.x if task["samples"] is None else np.linspace(*task["samples"])
    times, per_call = task["times"], max(1, _FIELD_VALUES // len(xs))
    summary = []
    for lo in range(0, len(times), per_call):
        group = times[lo:lo + per_call]
        for t, field in zip(group, evolve(packet, cache, group, xs)):
            writer.emit(ENTRY_NAMES["times"].format(t), ["x_nm", "re_psi", "im_psi", "abs2"],
                        _field_rows(field.x, field.psi))
            total = region_probability(field, float(xs[0]) - 1e-9, float(xs[-1]) + 1e-9)
            row = [t, total]
            if task["region"] is not None:
                row.append(region_probability(field, *task["region"]))
            summary.append(tuple(row))
    columns = ["t_fs", "total_prob"] + (["region_prob"] if task["region"] else [])
    writer.emit("packet_summary", columns, summary)


# ---------------------------------------------------------------------------
# entry points

def run(config_path, *, quiet: bool = False,
        validate_only: bool = False, dump_coefficients: bool = False) -> int:
    """Execute one run configuration; returns the process exit status."""
    path = Path(config_path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = parse_config(doc, path.parent)
    if validate_only:
        if not quiet:
            print(f"config OK: {path}")
        return 0

    dp = discretize(cfg.spec, cfg.x0, cfg.xN, cfg.N)
    writer = Writer(cfg, quiet)
    ttype = cfg.task["type"]
    if ttype == "transmit":
        _run_transmit(cfg, dp, writer, dump_coefficients)
    elif ttype == "wavefunc":
        _run_wavefunc(cfg, dp, writer)
    elif ttype == "fofe":
        _run_fofe(cfg, dp, writer)
    elif ttype == "eigen":
        _run_eigen(cfg, dp, writer)
    else:
        _run_packet(cfg, dp, writer)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qsweep",
        description="Solve a 1D quantum potential as described by a JSON run configuration.",
    )
    parser.add_argument("config", help="path to the run-configuration file")
    parser.add_argument("--quiet", action="store_true", help="suppress per-artifact summaries")
    parser.add_argument("--validate-only", action="store_true",
                        help="check the configuration and exit without computing")
    parser.add_argument("--dump-coefficients", action="store_true",
                        help="with the transmit task, also write endpoint amplitude "
                             "coefficients per energy")
    args = parser.parse_args(argv)
    try:
        return run(args.config, quiet=args.quiet,
                   validate_only=args.validate_only,
                   dump_coefficients=args.dump_coefficients)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (SolverError, ValueError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
