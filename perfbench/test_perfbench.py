"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import workloads  # noqa: E402
from qsweep.cli import main as qsweep_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def scratch():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".perfbench"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def test_generator_reproduces_its_output(scratch):
    for name in workloads.WORKLOADS:
        workloads.write(workloads.generate(name, 7), scratch / f"{name}-a")
        workloads.write(workloads.generate(name, 7), scratch / f"{name}-b")
        workloads.write(workloads.generate(name, 8), scratch / f"{name}-c")
        first = _files(scratch / f"{name}-a")
        assert first == _files(scratch / f"{name}-b")
        assert first != _files(scratch / f"{name}-c")


def _run_job(directory, workload, kind):
    job = next(j for j in workloads.write(workloads.generate(workload, 3, smoke=True), directory)
               if j["check"]["kind"] == kind)
    assert qsweep_main(job["argv"]) == 0
    assert checker.check(job) == []
    return job, Path(job["outdir"])


def _rewrite_csv(path: Path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    edit(lines, body)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corrupt(path: Path, row: int, col: int):
    """Scale one value of an output file by 1 + 1e-4 and shift it by 1e-6."""
    def bump(v):
        return float(v) * (1 + 1e-4) + 1e-6

    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["rows"][row][col] = bump(doc["rows"][row][col])
        path.write_text(json.dumps(doc), encoding="utf-8")
        return

    def edit(lines, body):
        values = lines[body[row]].split(",")
        values[col] = repr(bump(values[col]))
        lines[body[row]] = ",".join(values)

    _rewrite_csv(path, edit)


# (workload, job kind, output file, row or "peak" (largest |psi|^2), column,
#  words the checker's complaint must contain)
CORRUPTIONS = [
    ("scan", "transmit", "transmission", 0, 1, "transfer-matrix reference"),
    ("scan", "transmit", "transmission", 1, 1, ""),
    ("scan", "fofe", "mismatch", 0, 1, "reference ratio walks"),
    ("fields", "wavefunc", "wavefunction_E*", 0, 1, "transfer-matrix reference"),
    ("fields", "packet", "packet_t0", "peak", 1, "reference superposition"),
]


@pytest.mark.parametrize("workload,kind,name,row,col,words", CORRUPTIONS,
                         ids=[f"{c[2].rstrip('*')}-row{c[3]}" for c in CORRUPTIONS])
def test_checker_rejects_a_corrupted_value(scratch, workload, kind, name, row, col, words):
    job, outdir = _run_job(scratch, workload, kind)
    path = next(outdir.glob(f"{name}.{job['config']['output']['format']}"))
    if row == "peak":
        _, rows = checker.load(outdir, path.stem, path.suffix[1:])
        row = int(rows[:, 3].argmax())
    _corrupt(path, row, col)
    assert any(words in p for p in checker.check(job))


def test_checker_rejects_a_dropped_eigenvalue(scratch):
    job, outdir = _run_job(scratch, "bound", "eigen")
    last = {}

    def drop(lines, body):
        last["index"] = lines[body[-1]].split(",")[0]
        del lines[body[-1]]

    _rewrite_csv(outdir / "eigenvalues.csv", drop)
    (outdir / f"eigenfunction_{last['index']}.csv").unlink()
    assert any("oracle" in p for p in checker.check(job))


@pytest.fixture(scope="module")
def smoke_runs():
    runs = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", "5", "--trace", str(trace), "--smoke"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=120)
            runs[name, trace] = (proc, time.perf_counter() - start)
    return runs


def test_every_metric_is_printed_with_its_unit(smoke_runs):
    for (name, trace), (proc, _) in smoke_runs.items():
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert [m["name"] for m in wanted] == list(result["metrics"])
        report = "\n".join(lines[:-1])
        for m in wanted:
            assert f"{m['name']} " in report and f" {m['unit']}" in report
        assert "fail_frac" in report


def test_smoke_mode_finishes_in_seconds(smoke_runs):
    for (proc, seconds) in smoke_runs.values():
        assert seconds < 30.0


def test_missing_program_is_an_error(scratch):
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1"], cwd=scratch, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_run_length_is_fixed_by_the_benchmark():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "scan",
                           "--seed", "1", "--seconds", str(SPEC["run_seconds"] + 1)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "run_seconds" in proc.stderr


def test_gated_times_follow_the_program_not_the_machine():
    import run

    def bench(job_s, cal_s):
        passes = [{"traced": False, "wall_s": 3 * job_s, "peak_rss_mb": 1.0,
                   "jobs": [{"id": f"j{i}", "seconds": job_s, "cal_s": cal_s} for i in range(3)]}]
        setups = [{"setup_s": job_s / 10, "cal_s": cal_s}]
        return run.end_to_end(setups, passes)[0]

    steady = bench(1.0, run.CAL_REF_S)
    assert steady["wall_s"] == pytest.approx(3.0) and steady["setup_s"] == pytest.approx(0.1)
    # the whole machine running at half speed: the program reads the same
    slow_machine = bench(2.0, 2 * run.CAL_REF_S)
    assert all(slow_machine[k] == pytest.approx(steady[k]) for k in steady)
    # the program twice as slow on the same machine: every time doubles
    slow_program = bench(2.0, run.CAL_REF_S)
    assert all(slow_program[k] == pytest.approx(2 * steady[k])
               for k in ("wall_s", "job_p50_s", "setup_s"))
