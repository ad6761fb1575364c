"""Outside-in tracer: spans around the public functions of each layer.

The program is not edited.  `Tracer.install` replaces each traced function
in every qsweep module that imported it (so `cli.find_eigenvalues` and
`eigen.find_eigenvalues` both record) and `uninstall` puts the originals
back.  A span is [name, start, end, parent index, job id]; spans stay in
memory until the pass ends.  Counters are taken from call arguments and
results at the same boundaries.  A traced name that no longer exists is
reported as absent rather than failing the run.

`summarize` turns the spans and counters of one pass into the per-layer
metrics.  `.s` is the time inside a function's spans (children included),
`.self_s` subtracts the time of its direct child spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
import time

import numpy as np

GOLDEN = "eigen.golden_section_minimize"


def _n_steps(dp) -> int:
    return len(dp.x) - 1


def _energies(args, kwargs) -> int:
    return int(np.size(args[1] if len(args) > 1 else kwargs.get("E", 1)))


def _count_updates(directions):
    def hook(tr, args, kwargs, result):
        tr.counts["recursion.step_updates"] += directions * _n_steps(args[0]) * _energies(args, kwargs)
    return hook


def _count_nodes(tr, args, kwargs, result):
    N = args[3] if len(args) > 3 else kwargs["N"]
    tr.counts["potential.discretize.nodes"] += N + 1


def _count_accepted(tr, args, kwargs, result):
    tr.counts["eigen.accepted"] += len(result)


def _nbytes(obj, skip, seen) -> int:
    """Array bytes reachable from obj (dataclasses, tuples, lists, dicts),
    ignoring the objects in `skip` (the call's own inputs)."""
    if id(obj) in seen or any(obj is s for s in skip):
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o, skip, seen) for o in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(o, skip, seen) for o in obj.values())
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_nbytes(getattr(obj, f), skip, seen) for f in obj.__dataclass_fields__)
    return 0


def _count_cache(tr, args, kwargs, result):
    tr.counts["wavepacket.cache_bytes"] += _nbytes(result, list(args) + list(kwargs.values()), set())


def _count_mode_samples(tr, args, kwargs, result):
    packet, xs = args[0], (args[3] if len(args) > 3 else kwargs["xs"])
    tr.counts["wavepacket.evolve.mode_samples"] += np.size(packet.c) * np.size(xs)


def _prepare_rows(args, kwargs):
    # emit() starts with list(rows); doing it first lets the row count be read
    # without consuming a generator the writer still needs.
    if len(args) > 3:
        args = args[:3] + (list(args[3]),) + args[4:]
    else:
        kwargs = dict(kwargs, rows=list(kwargs["rows"]))
    return args, kwargs


def _count_written(tr, args, kwargs, result):
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    tr.counts["cli.rows_written"] += len(rows)
    written = getattr(args[0], "written", None)
    if written:
        tr.counts["cli.bytes_written"] += os.path.getsize(written[-1])


def _count_refine_eval(tr, args, kwargs, result):
    if any(tr.spans[i][0] == GOLDEN for i in tr.stack):
        tr.counts["eigen.refine_evals"] += 1


# (module, attribute path, counter hook, records a span, argument preparation)
TARGETS = [
    ("potential", "discretize", _count_nodes, True, None),
    ("constants", "step_wavevectors", None, True, None),
    ("recursion", "left_sweep", _count_updates(1), True, None),
    ("recursion", "right_sweep", _count_updates(1), True, None),
    ("recursion", "reflection_coefficients", _count_updates(2), True, None),
    ("recursion", "transmission_product", _count_updates(1), True, None),
    ("scattering", "transmission_curve", None, True, None),
    ("scattering", "sample_wavefunction", None, True, None),
    ("eigen", "mismatch", _count_refine_eval, False, None),
    ("eigen", "mismatch_curve", None, True, None),
    ("eigen", "golden_section_minimize", None, True, None),
    ("eigen", "find_eigenvalues", _count_accepted, True, None),
    ("eigen", "eigenfunction", None, True, None),
    ("wavepacket", "design_packet", None, True, None),
    ("wavepacket", "precompute_modes", _count_cache, True, None),
    ("wavepacket", "evolve", _count_mode_samples, True, None),
    ("wavepacket", "region_probability", None, True, None),
    ("cli", "parse_config", None, True, None),
    ("cli", "Writer.emit", _count_written, True, _prepare_rows),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = collections.defaultdict(float)
        self.absent: list[str] = []
        self.job = None
        self._undo: list[tuple] = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def _wrapper(self, name, fn, hook, record, prepare):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            if record:
                result = tracer.span(name, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, path, hook, record, prepare in TARGETS:
            name = f"{module}.{path}"
            try:
                mod = importlib.import_module(f"qsweep.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            *owner_path, attr = path.split(".")
            owner = mod
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self._wrapper(name, fn, hook, record, prepare)
            if owner_path:
                sites = [(owner, attr)]
            else:
                sites = [(m, key) for mname, m in list(sys.modules.items())
                         if m is not None and (mname == "qsweep" or mname.startswith("qsweep."))
                         for key, value in list(vars(m).items()) if value is fn]
            for site, key in sites:
                setattr(site, key, wrapped)
                self._undo.append((site, key, fn))

    def uninstall(self):
        for site, key, fn in reversed(self._undo):
            setattr(site, key, fn)
        self._undo.clear()

    def dump(self) -> dict:
        counts = dict(self.counts)
        calls = collections.Counter(s[0] for s in self.spans)
        counts.update((name + ".calls", n) for name, n in calls.items())
        return {"spans": self.spans, "counts": counts, "absent": self.absent}


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = trace["spans"]
    counts = trace["counts"]
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def covered(pred) -> float:
        """Time inside spans matching pred, counting nested matches once."""
        total = 0.0
        for i, s in enumerate(spans):
            if not pred(s[0]):
                continue
            p = s[3]
            while p >= 0 and not pred(spans[p][0]):
                p = spans[p][3]
            if p < 0:
                total += dur[i]
        return total

    def inclusive(name):
        return covered(lambda n: n == name)

    def self_time(name):
        return sum(dur[i] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    jobs = inclusive("cli.main")
    recursion = covered(lambda n: n.startswith("recursion."))
    updates = counts.get("recursion.step_updates", 0)
    dips = counts.get(GOLDEN + ".calls", 0)

    def share(value):
        return value / jobs if jobs > 0 else 0.0

    m = {
        "trace.job_s": jobs,
        "cli.main.self_s": self_time("cli.main"),
        "cli.parse_config.s": inclusive("cli.parse_config"),
        "cli.Writer.emit.s": inclusive("cli.Writer.emit"),
        "cli.rows_written": counts.get("cli.rows_written", 0),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "potential.discretize.s": inclusive("potential.discretize"),
        "potential.discretize.nodes": counts.get("potential.discretize.nodes", 0),
        "constants.step_wavevectors.s": inclusive("constants.step_wavevectors"),
        "recursion.step_updates": updates,
        "recursion.step_updates_per_s": updates / recursion if recursion > 0 else 0.0,
        "eigen.mismatch_curve.self_s": self_time("eigen.mismatch_curve"),
        "eigen.find_eigenvalues.self_s": self_time("eigen.find_eigenvalues"),
        "eigen.eigenfunction.s": inclusive("eigen.eigenfunction"),
        GOLDEN + ".s": inclusive(GOLDEN),
        GOLDEN + ".calls": dips,
        "eigen.refine_evals_per_dip": counts.get("eigen.refine_evals", 0) / dips if dips else 0.0,
        "eigen.accepted_per_dip": counts.get("eigen.accepted", 0) / dips if dips else 0.0,
        "wavepacket.precompute_modes.s": inclusive("wavepacket.precompute_modes"),
        "wavepacket.cache_bytes": counts.get("wavepacket.cache_bytes", 0),
        "wavepacket.evolve.s": inclusive("wavepacket.evolve"),
        "wavepacket.evolve.mode_samples": counts.get("wavepacket.evolve.mode_samples", 0),
        "wavepacket.region_probability.s": inclusive("wavepacket.region_probability"),
        "scattering.sample_wavefunction.s": inclusive("scattering.sample_wavefunction"),
        "share.recursion_constants": share(
            covered(lambda n: n.startswith(("recursion.", "constants.")))),
        "share.golden_section_minimize": share(inclusive(GOLDEN)),
        "share.precompute_modes": share(inclusive("wavepacket.precompute_modes")),
        "share.evolve": share(inclusive("wavepacket.evolve")),
        "share.Writer.emit": share(inclusive("cli.Writer.emit")),
    }
    for name in ("transmission_product", "reflection_coefficients", "left_sweep", "right_sweep"):
        m[f"recursion.{name}.s"] = inclusive(f"recursion.{name}")
        m[f"recursion.{name}.calls"] = counts.get(f"recursion.{name}.calls", 0)
    return m
