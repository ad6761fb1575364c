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
    ExpressionError,
    PotentialEvalError,
    PotentialSpec,
    discretize,
    make_builtin,
    make_expression,
    read_table,
)
from .recursion import left_sweep
from .scattering import sample_wavefunction, transmission_curve
from .wavepacket import design_packet, evolve, precompute_modes, region_probability

TASK_TYPES = ("transmit", "wavefunc", "fofe", "eigen", "packet")


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

def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_keys(section: dict, where: str, allowed, problems: list):
    for key in section:
        if key not in allowed:
            problems.append(f"unknown key '{where}.{key}'")


def _require_num(section: dict, where: str, key: str, problems: list, cond=None, desc=""):
    if key not in section:
        problems.append(f"missing key '{where}.{key}'")
        return None
    v = section[key]
    if not _is_num(v):
        problems.append(f"'{where}.{key}' must be a finite number, got {v!r}")
        return None
    if cond is not None and not cond(v):
        problems.append(f"'{where}.{key}' must be {desc}, got {v!r}")
        return None
    return float(v)


def _require_int(section: dict, where: str, key: str, problems: list, minimum: int):
    if key not in section:
        problems.append(f"missing key '{where}.{key}'")
        return None
    v = section[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        problems.append(f"'{where}.{key}' must be an integer >= {minimum}, got {v!r}")
        return None
    return v


def _parse_potential(section, base_dir: Path, problems: list) -> PotentialSpec | None:
    if not isinstance(section, dict):
        problems.append("'potential' must be an object")
        return None
    sources = [k for k in ("builtin", "expression", "table") if k in section]
    _check_keys(section, "potential", ("builtin", "expression", "table"), problems)
    if len(sources) != 1:
        problems.append(
            "'potential' must contain exactly one of 'builtin', 'expression', 'table'"
        )
        return None
    try:
        if sources[0] == "builtin":
            blk = section["builtin"]
            if not isinstance(blk, dict):
                problems.append("'potential.builtin' must be an object")
                return None
            _check_keys(blk, "potential.builtin", ("name", "params"), problems)
            if "name" not in blk or not isinstance(blk["name"], str):
                problems.append("'potential.builtin.name' must be a string")
                return None
            params = blk.get("params", {})
            if not isinstance(params, dict):
                problems.append("'potential.builtin.params' must be an object")
                return None
            return make_builtin(blk["name"], params)
        if sources[0] == "expression":
            blk = section["expression"]
            if isinstance(blk, str):
                return make_expression(blk)
            if isinstance(blk, list):
                pieces = []
                for i, piece in enumerate(blk):
                    where = f"potential.expression[{i}]"
                    if not isinstance(piece, dict):
                        problems.append(f"'{where}' must be an object")
                        return None
                    _check_keys(piece, where, ("xmin", "xmax", "expr"), problems)
                    missing = [k for k in ("xmin", "xmax", "expr") if k not in piece]
                    if missing:
                        problems.append(f"'{where}' missing {', '.join(missing)}")
                        return None
                    lo = _to_bound(piece["xmin"], where + ".xmin", problems)
                    hi = _to_bound(piece["xmax"], where + ".xmax", problems)
                    if lo is None or hi is None or not isinstance(piece["expr"], str):
                        if not isinstance(piece["expr"], str):
                            problems.append(f"'{where}.expr' must be a string")
                        return None
                    pieces.append((lo, hi, piece["expr"]))
                return make_expression(pieces)
            problems.append("'potential.expression' must be a string or a list of pieces")
            return None
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
    if _is_num(v):
        return float(v)
    problems.append(f"'{where}' must be a number or 'inf'/'-inf', got {v!r}")
    return None


def _parse_interval(task: dict, problems: list):
    if "interval" not in task:
        return None
    iv = task["interval"]
    if (not isinstance(iv, list) or len(iv) != 2 or not all(_is_num(v) for v in iv)
            or not iv[0] < iv[1]):
        problems.append(f"'task.interval' must be [a, b] with a < b, got {iv!r}")
        return None
    return (float(iv[0]), float(iv[1]))


def _parse_task(section, problems: list) -> dict | None:
    if not isinstance(section, dict):
        problems.append("'task' must be an object")
        return None
    ttype = section.get("type")
    if ttype not in TASK_TYPES:
        problems.append(f"'task.type' must be one of {', '.join(TASK_TYPES)}, got {ttype!r}")
        return None
    task: dict = {"type": ttype}
    if ttype == "transmit":
        _check_keys(section, "task", ("type", "Emin", "Emax", "N_E"), problems)
        task["Emin"] = _require_num(section, "task", "Emin", problems)
        task["Emax"] = _require_num(section, "task", "Emax", problems)
        task["N_E"] = _require_int(section, "task", "N_E", problems, 2)
    elif ttype == "wavefunc":
        _check_keys(section, "task", ("type", "energies", "oversample"), problems)
        energies = section.get("energies")
        if not isinstance(energies, list) or not energies or not all(
            _is_num(e) for e in energies
        ):
            problems.append("'task.energies' must be a nonempty list of numbers")
        else:
            task["energies"] = [float(e) for e in energies]
        over = section.get("oversample", 1)
        if not isinstance(over, int) or isinstance(over, bool) or over < 1:
            problems.append(f"'task.oversample' must be an integer >= 1, got {over!r}")
        task["oversample"] = over if isinstance(over, int) else 1
    elif ttype in ("fofe", "eigen"):
        allowed = ("type", "Emin", "Emax", "N_E", "interval")
        if ttype == "eigen":
            allowed += ("refine_tol",)
        _check_keys(section, "task", allowed, problems)
        task["Emin"] = _require_num(section, "task", "Emin", problems)
        task["Emax"] = _require_num(section, "task", "Emax", problems)
        task["N_E"] = _require_int(section, "task", "N_E", problems, 3)
        task["interval"] = _parse_interval(section, problems)
        if ttype == "eigen" and "refine_tol" in section:
            task["refine_tol"] = _require_num(
                section, "task", "refine_tol", problems, lambda v: v > 0, "positive"
            )
        else:
            task["refine_tol"] = None
    else:  # packet
        allowed = ("type", "E0", "dE", "sigma_x", "N_E", "x0", "times", "samples", "region")
        _check_keys(section, "task", allowed, problems)
        task["E0"] = _require_num(section, "task", "E0", problems, lambda v: v > 0, "positive")
        has_de, has_sx = "dE" in section, "sigma_x" in section
        if has_de == has_sx:
            problems.append("'task' must contain exactly one of 'dE' or 'sigma_x'")
        elif has_de:
            task["dE"] = _require_num(section, "task", "dE", problems, lambda v: v > 0, "positive")
            task["sigma_x"] = None
        else:
            task["sigma_x"] = _require_num(
                section, "task", "sigma_x", problems, lambda v: v > 0, "positive"
            )
            task["dE"] = None
        task["N_E"] = _require_int(section, "task", "N_E", problems, 3)
        task["x0"] = _require_num(section, "task", "x0", problems)
        times = section.get("times")
        if not isinstance(times, list) or not times or not all(
            _is_num(t) and t >= 0 for t in times
        ):
            problems.append("'task.times' must be a nonempty list of times >= 0 (fs)")
        else:
            task["times"] = [float(t) for t in times]
        if "samples" in section:
            blk = section["samples"]
            ok = isinstance(blk, dict)
            if ok:
                _check_keys(blk, "task.samples", ("xmin", "xmax", "n"), problems)
                lo = _require_num(blk, "task.samples", "xmin", problems)
                hi = _require_num(blk, "task.samples", "xmax", problems)
                n = _require_int(blk, "task.samples", "n", problems, 2)
                ok = lo is not None and hi is not None and n is not None and lo < hi
                if ok:
                    task["samples"] = (lo, hi, n)
            if not ok:
                problems.append("'task.samples' must be {xmin, xmax, n} with xmin < xmax")
        else:
            task["samples"] = None
        if "region" in section:
            region = section["region"]
            if (not isinstance(region, list) or len(region) != 2
                    or not all(_is_num(v) for v in region) or not region[0] < region[1]):
                problems.append(f"'task.region' must be [a, b] with a < b, got {region!r}")
            else:
                task["region"] = (float(region[0]), float(region[1]))
        else:
            task["region"] = None
    return task


def parse_config(doc, base_dir: Path) -> RunConfig:
    """Validate a configuration document, reporting every problem at once."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_keys(doc, "config", ("potential", "grid", "particle", "task", "output"), problems)
    for key in ("potential", "grid", "particle", "task", "output"):
        if key not in doc:
            problems.append(f"missing section '{key}'")
    spec = _parse_potential(doc.get("potential", {}), base_dir, problems) \
        if "potential" in doc else None

    x0 = xN = None
    N = None
    grid = doc.get("grid")
    if isinstance(grid, dict):
        _check_keys(grid, "grid", ("x0", "xN", "N"), problems)
        x0 = _require_num(grid, "grid", "x0", problems)
        xN = _require_num(grid, "grid", "xN", problems)
        N = _require_int(grid, "grid", "N", problems, 2)
        if x0 is not None and xN is not None and not x0 < xN:
            problems.append(f"'grid' must satisfy x0 < xN, got {x0!r} >= {xN!r}")
    elif "grid" in doc:
        problems.append("'grid' must be an object")

    ctx = None
    particle = doc.get("particle")
    if isinstance(particle, dict):
        _check_keys(particle, "particle", ("mass",), problems)
        mass = _require_num(particle, "particle", "mass", problems,
                            lambda v: v > 0, "positive")
        if mass is not None:
            ctx = ParticleContext.for_mass(mass)
    elif "particle" in doc:
        problems.append("'particle' must be an object")

    task = _parse_task(doc.get("task"), problems) if "task" in doc else None

    outdir = None
    fmt = None
    output = doc.get("output")
    if isinstance(output, dict):
        _check_keys(output, "output", ("dir", "format"), problems)
        if not isinstance(output.get("dir"), str):
            problems.append("'output.dir' must be a directory path string")
        else:
            outdir = base_dir / output["dir"]
        fmt = output.get("format", "csv")
        if fmt not in ("csv", "json"):
            problems.append(f"'output.format' must be 'csv' or 'json', got {fmt!r}")
    elif "output" in doc:
        problems.append("'output' must be an object")

    if problems:
        raise ConfigError(problems)
    return RunConfig(spec=spec, x0=x0, xN=xN, N=N, ctx=ctx, task=task,
                     outdir=outdir, fmt=fmt, doc=doc)


# ---------------------------------------------------------------------------
# output writers

def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


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
            "grid": f"x0={_fmt(self.cfg.x0)} xN={_fmt(self.cfg.xN)} N={self.cfg.N} dx={_fmt(dx)}",
            "particle": f"mass={_fmt(self.cfg.ctx.mass)} phi={_fmt(self.cfg.ctx.phi)}",
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
            lines.extend(",".join(_fmt(v) for v in row) for row in rows)
            _atomic_write(path, "\n".join(lines) + "\n")
        else:
            path = self.cfg.outdir / f"{name}.json"
            doc = {"meta": meta, "columns": columns,
                   "rows": [[float(v) if isinstance(v, float) else v for v in row]
                            for row in rows]}
            _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        self.written.append(path)
        if not self.quiet:
            print(f"wrote {path} ({len(rows)} rows)")


# ---------------------------------------------------------------------------
# task pipelines

def _field_rows(x, psi):
    return [
        (float(xj), p.real, p.imag, abs(p) ** 2)
        for xj, p in zip(x, psi)
    ]


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
    over = cfg.task["oversample"]
    if over > 1:
        xs = np.linspace(dp.x[0], dp.x[-1], dp.n_steps * over + 1)
    else:
        xs = dp.x
    for E in cfg.task["energies"]:
        sweep = left_sweep(dp, E, cfg.ctx)
        field = sample_wavefunction(sweep, dp, xs)
        writer.emit(f"wavefunction_E{E:g}", ["x_nm", "re_psi", "im_psi", "abs2"],
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
    if task["samples"] is not None:
        lo, hi, n = task["samples"]
        xs = np.linspace(lo, hi, n)
    else:
        xs = dp.x
    summary = []
    for t in task["times"]:
        field = evolve(packet, cache, t, xs)
        writer.emit(f"packet_t{t:g}", ["x_nm", "re_psi", "im_psi", "abs2"],
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
    except (SolverError, PotentialEvalError, ExpressionError, ValueError,
            ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
