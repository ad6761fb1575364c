"""qsweep benchmark: seeded workloads run through the public CLI entry point.

    python3 perfbench/run.py --workload scan|bound|fields --seed N
                             [--seconds S] [--trace 0|1] [--smoke]

BENCHMARK.json, beside this directory, names every metric printed and its
unit, and fixes the measuring time as its run_seconds.  --seconds is
accepted only with that value, so two commits are always measured alike.

Run from the root of a checkout; the program is imported from ./src.  The
seed generates the workload's config files (workloads.py) in a scratch
directory under ./.perfbench, which is removed at the end.  The load is a
closed loop with one client: a child process runs one pass, meaning every
job of the workload once, back to back, each job being one
`qsweep.cli.main([config, ...])` call.  Each pass gets a fresh interpreter,
so no result can be cached across passes, and no config repeats within a
pass.  Passes repeat while another pass still fits in run_seconds of
measuring.

--trace 0 prints the end-to-end metrics:
  wall_s       wall time of one pass (median over passes)
  job_p50_s    median job latency: each job's median over passes, then the
               median over the workload's jobs
  setup_s      fresh interpreter: import qsweep.cli and --validate-only every
               config (median of three per pass, after one uncounted warm-up)
  peak_rss_mb  peak resident memory of the process running a pass, less
               its file-backed pages (libraries), which vary with the
               machine's page cache
The three times are given at the reference speed.  On a shared host the
speed at which a core runs the same code swings by 20-60 % over seconds to
minutes, with the load of other tenants, and a run's median follows it.
So every job and every set-up is timed next to a fixed pure-Python loop
(worker.calibrate: before the first job, after each job, after each
set-up), and its time is rescaled by CAL_REF_S / (the loop's time around
it).  The loop shares nothing with the program, so a slower program reads
slower by the same factor; the raw wall-clock times are printed beside
them and kept in the report.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (tracer.py); trace.overhead_s is traced minus
untraced wall_s.  Outputs of the first pass are checked (checker.py); later
passes must reproduce them byte for byte.  A job that exits nonzero, raises,
or fails a check counts as failed.  No queue or inter-process wait exists
in the program, so there is no waiting-time metric.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A fuller report (percentiles, environment, spans) goes to
.perfbench/report-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checker import check  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import WORKLOADS, generate, write  # noqa: E402

SETUPS_PER_PASS = 3
CHILD_TIMEOUT_S = 120       # keeps a stuck run within 180 s
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
# Median time of worker.calibrate() on the machine the bounds were set on
# (2-vCPU Intel Xeon VM, Python 3.11).  It only scales the gated times back
# to seconds; any constant would do, as long as both commits use the same.
CAL_REF_S = 0.024

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# What each workload's rationale says it stresses, as traced shares of job time.
STRESS = {"scan": [("share.recursion_constants", 0.8)],
          "bound": [("share.golden_section_minimize", 1 / 3)],
          "fields": [("share.precompute_modes", 0.1), ("share.evolve", 0.1),
                     ("share.Writer.emit", 0.1)]}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


# ---------------------------------------------------------------------------
# environment record

def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu() -> dict:
    info = {"model": platform.processor() or "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                info[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def environment(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = root / "src" / "qsweep"
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py"))}
    return {"git_sha": _git_sha(root), "nproc": os.cpu_count(), "cpu": _cpu(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": int(BLAS_THREADS),
            "src_lines": {"total": sum(lines.values()), **lines}}


# ---------------------------------------------------------------------------
# statistics

def tail(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it,
    or None when no percentile above the median has that many."""
    n = len(values)
    if n == 0:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    if p <= 50:
        return None
    ordered = sorted(values)
    return p, ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]


def timing_line(name, values, unit):
    med = statistics.median(values)
    t = tail(values)
    pct = (f"p{t[0]} {t[1]:.6g} {unit}" if t else
           "no percentile above the median has 10 samples beyond it")
    return f"{name:<12} median {med:.6g} {unit}   {pct}   (n={len(values)})"


# ---------------------------------------------------------------------------
# running

class Bench:
    def __init__(self, workload, seed, trace, smoke):
        self.workload, self.seed = workload, seed
        self.trace, self.smoke = trace, smoke
        self.base = ROOT / ".perfbench"
        self.base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=self.base))
        self.calls = 0
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def child(self, mode, *extra) -> dict:
        self.calls += 1
        result = self.work / f"result-{self.calls}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, str(ROOT),
               str(self.manifest_path), str(result), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stdout[-4000:]}")
        data = json.loads(result.read_text(encoding="utf-8"))
        if not Path(data["qsweep_file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"qsweep was imported from {data['qsweep_file']}, not ./src")
        return data

    def prepare(self):
        self.manifest = write(generate(self.workload, self.seed, smoke=self.smoke),
                              self.work / "configs")
        self.manifest_path = self.work / "manifest.json"
        self.manifest_path.write_text(json.dumps(self.manifest), encoding="utf-8")

    def outputs(self) -> dict:
        """sha256 of every output file per job, then clear the outputs."""
        digests = {}
        for job in self.manifest:
            outdir = Path(job["outdir"])
            digests[job["id"]] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in sorted(outdir.glob("*"))} if outdir.is_dir() else {}
        shutil.rmtree(self.work / "configs" / "out", ignore_errors=True)
        return digests

    def run(self):
        self.prepare()
        setups = []
        if not self.trace:
            self.child("setup")     # warms the file cache and bytecode; not counted
        passes = []
        reference = None
        wrong = {}          # job id -> checker problems in the first pass's outputs
        problems = {}
        measured = 0.0
        while True:
            traced = bool(self.trace) and len(passes) % 2 == 1
            if not self.trace:
                # spread over the run, so a slow spell of the machine hits few samples
                setups += [self.child("setup") for _ in range(1 if self.smoke else SETUPS_PER_PASS)]
            t0 = time.perf_counter()
            data = self.child("pass", *(["--trace"] if traced else []))
            elapsed = time.perf_counter() - t0
            measured += elapsed
            if reference is None:
                for job in self.manifest:
                    found = check(job)
                    if found:
                        wrong[job["id"]] = found
                        problems[job["id"]] = list(found)
            digests = self.outputs()
            reference = reference or digests
            data["traced"] = traced
            data["failed"] = []
            for j in data["jobs"]:
                if j["status"] != 0:
                    why = f"exit status {j['status']} {j['error'] or ''}".strip()
                elif digests[j["id"]] != reference[j["id"]]:
                    why = "outputs differ from the first pass"
                elif j["id"] in wrong:
                    why = None
                else:
                    continue
                data["failed"].append(j["id"])
                if why:
                    problems.setdefault(j["id"], []).append(why)
            passes.append(data)
            need = 2 if self.trace else 1
            if len(passes) >= need and (self.smoke or measured + elapsed > SPEC["run_seconds"]):
                break
        for s in setups:
            for p in s["problems"]:
                problems.setdefault("setup", []).append(p)
        return setups, passes, problems


def at_reference_speed(seconds: float, cal_s: float) -> float:
    """A time measured beside a calibration loop of cal_s seconds, rescaled
    to the machine running that loop in CAL_REF_S."""
    return seconds * CAL_REF_S / cal_s


def end_to_end(setups, passes) -> tuple[dict, list[str]]:
    plain = [p for p in passes if not p["traced"]]
    # Typical latency of each job (its median over passes), then the median job:
    # one noisy pass cannot pick which job sits in the middle.
    by_job, raw_by_job = {}, {}
    for p in plain:
        for j in p["jobs"]:
            by_job.setdefault(j["id"], []).append(at_reference_speed(j["seconds"], j["cal_s"]))
            raw_by_job.setdefault(j["id"], []).append(j["seconds"])
    walls = [sum(at_reference_speed(j["seconds"], j["cal_s"]) for j in p["jobs"]) for p in plain]
    raw_walls = [p["wall_s"] for p in plain]
    job_p50 = statistics.median(statistics.median(v) for v in by_job.values())
    raw_job_p50 = statistics.median(statistics.median(v) for v in raw_by_job.values())
    all_jobs = [t for v in by_job.values() for t in v]
    setup = [at_reference_speed(s["setup_s"], s["cal_s"]) for s in setups]
    raw_setup = [s["setup_s"] for s in setups]
    speed = [CAL_REF_S / j["cal_s"] for p in plain for j in p["jobs"]]
    rss = [p["peak_rss_mb"] for p in plain]
    values = {"wall_s": statistics.median(walls), "job_p50_s": job_p50,
              "setup_s": statistics.median(setup), "peak_rss_mb": statistics.median(rss)}
    lines = ["times below are at the reference speed (see CAL_REF_S); raw wall-clock in brackets",
             timing_line("wall_s", walls, UNITS["wall_s"])
             + f"  [raw median {statistics.median(raw_walls):.6g} s]",
             f"{'job_p50_s':<12} median {job_p50:.6g} {UNITS['job_p50_s']}   (median over jobs "
             f"of each job's median over passes; {len(by_job)} jobs x {len(plain)} passes)"
             f"  [raw {raw_job_p50:.6g} s]",
             timing_line("job latency", all_jobs, "s") + "  (every job of every pass)",
             timing_line("setup_s", setup, UNITS["setup_s"])
             + f"  [raw median {statistics.median(raw_setup):.6g} s]",
             f"{'peak_rss_mb':<12} median {values['peak_rss_mb']:.6g} {UNITS['peak_rss_mb']}"
             f"   (n={len(rss)})",
             f"{'speed':<12} machine speed / reference speed: median {statistics.median(speed):.4g}, "
             f"range {min(speed):.4g}..{max(speed):.4g} (n={len(speed)})"]
    return values, lines


def per_layer(passes) -> tuple[dict, list[str], list]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    summaries = [summarize(p["trace"]) for p in traced]
    values = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    absent = sorted({a for p in traced for a in p["trace"]["absent"]})
    lines = [f"{name:<36} {values[name]:.6g} {UNITS[name]}"
             + ("  (computed from array sizes)" if name == "wavepacket.cache_bytes" else "")
             for name in sorted(values)]
    if absent:
        lines.append("absent (no longer in the program, reported as 0): " + ", ".join(absent))
    return values, lines, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measuring time; must be run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two small jobs, one pass: a quick check that everything runs")
    args = parser.parse_args(argv)
    if args.seconds != SPEC["run_seconds"]:
        parser.error(f"--seconds must be {SPEC['run_seconds']}, the run_seconds of BENCHMARK.json")
    if not (ROOT / "src" / "qsweep" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'qsweep'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    metrics = SPEC["per_layer" if args.trace else "end_to_end"]

    bench = Bench(args.workload, args.seed, args.trace, args.smoke)
    try:
        setups, passes, problems = bench.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(ROOT), "passes": len(passes),
              "jobs_per_pass": len(bench.manifest), "problems": problems}
    print(f"qsweep benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} jobs/pass={len(bench.manifest)} (closed loop, one client)")
    if args.trace:
        values, lines, report["absent"] = per_layer(passes)
        lines += [f"rationale: {name} = {values[name]:.3f}, expected >= {low:.3f}: "
                  f"{'holds' if values[name] >= low else 'DOES NOT HOLD'}"
                  for name, low in STRESS[args.workload]]
        report["spans"] = [p["trace"]["spans"] for p in passes if p["traced"]][-1]
    else:
        values, lines = end_to_end(setups, passes)
    print("\n".join(lines))
    print(f"{'fail_frac':<12} {failed}/{attempted} = {failed / attempted:.6g} (fraction)")
    print("waiting time: none measured (the program has no queue and waits on no other process)")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    for job, found in sorted(problems.items()):
        for p in found:
            print(f"FAILED {job}: {p}", file=sys.stderr)
    report.update(values=values, setups=[s["setup_s"] for s in setups],
                  setup_cals=[s["cal_s"] for s in setups],
                  job_cals=[{j["id"]: j["cal_s"] for j in p["jobs"]} for p in passes],
                  pass_walls=[p["wall_s"] for p in passes],
                  job_seconds=[{j["id"]: j["seconds"] for j in p["jobs"]} for p in passes])
    path = bench.base / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
