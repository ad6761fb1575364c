"""Child process of the benchmark: one set-up measurement or one pass.

    python3 worker.py setup ROOT MANIFEST RESULT
    python3 worker.py pass  ROOT MANIFEST RESULT [--trace]

`setup` times, in this fresh interpreter, `import qsweep.cli` plus the
--validate-only run of every config.  `pass` runs every job once, back to
back, through `qsweep.cli.main(argv)` and records each job's wall time and
exit status and the process's peak resident memory (less file-backed
pages); with --trace it also records layer spans (see tracer.py).  The
result is written as JSON.

Both modes also time a fixed pure-Python loop (`calibrate`): in `pass`
before the first job and after every job, in `setup` twice after the timed
part.  The loop's time measures how fast the shared machine runs the
interpreter at that moment; run.py divides by it so that minutes-long
swings of the host's speed cancel out of the gated metrics.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


CAL_LOOPS = 200_000


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that touches no memory
    beyond a few objects, so the program's work cannot change its speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def _run(main, argv):
    """Exit status of one CLI call; an exception counts as a failure."""
    try:
        return main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:
        return None, traceback.format_exc()


def setup(manifest):
    import qsweep.cli

    problems = []
    for job in manifest:
        status, error = _run(qsweep.cli.main, job["argv"] + ["--validate-only"])
        if status != 0:
            problems.append(f"{job['id']}: validate-only exit {status} {error or ''}")
    elapsed = time.perf_counter() - T_START
    return {"setup_s": elapsed, "cal_s": (calibrate() + calibrate()) / 2.0,
            "problems": problems}


def peak_rss_mb() -> float:
    """Peak resident memory less the file-backed pages resident now.

    The file-backed part (interpreter, numpy and BLAS libraries) is a few
    MB that vary with what the machine's page cache holds, not with the
    program; the rest is the memory the program's work allocates.
    """
    status = dict(line.split(":", 1) for line in
                  Path("/proc/self/status").read_text().splitlines() if ":" in line)
    kb = {key: int(status[key].split()[0]) for key in ("VmHWM", "RssFile")}
    return (kb["VmHWM"] - kb["RssFile"]) / 1024.0


def run_pass(manifest, trace):
    import qsweep.cli

    tracer = None
    main = qsweep.cli.main
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = []
    cal = calibrate()
    for job in manifest:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.job = job["id"]
            status, error = tracer.span("cli.main", _run, main, job["argv"])
        else:
            status, error = _run(main, job["argv"])
        seconds = time.perf_counter() - t0
        before, cal = cal, calibrate()
        jobs.append({"id": job["id"], "seconds": seconds, "cal_s": (before + cal) / 2.0,
                     "status": status, "error": error})
    # the pass is its jobs back to back; the calibration loops between them are not in it
    wall = sum(j["seconds"] for j in jobs)
    if tracer is not None:
        tracer.uninstall()
    return {"wall_s": wall, "jobs": jobs,
            "peak_rss_mb": peak_rss_mb(),
            "trace": tracer.dump() if tracer is not None else None}


def main():
    mode, root, manifest_path, result_path = sys.argv[1:5]
    sys.path.insert(0, str(Path(root) / "src"))
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if mode == "setup":
        result = setup(manifest)
    else:
        result = run_pass(manifest, "--trace" in sys.argv[5:])
    import qsweep

    result["qsweep_file"] = qsweep.__file__
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
