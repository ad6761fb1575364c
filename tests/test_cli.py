import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from qsweep import (
    HBAR,
    cli,
    design_packet,
    discretize,
    evolve,
    left_sweep,
    oracle,
    sample_wavefunction,
)
from qsweep.errors import ConfigError


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, rows


def base_config(outdir, task):
    return {
        "potential": {"expression": "0"},
        "grid": {"x0": -5.0, "xN": 5.0, "N": 100},
        "particle": {"mass": 511000.0},
        "task": task,
        "output": {"dir": str(outdir), "format": "csv"},
    }


class TestValidation:
    def test_unknown_keys_reported_together(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out", {"type": "transmit", "Emin": 0.1,
                                             "Emax": 1.0, "N_E": 5})
        doc["grid"]["dx"] = 0.1
        doc["task"]["Emni"] = 0.1
        doc["colour"] = "blue"
        code = cli.main([str(write_config(tmp_path, doc))])
        assert code == 2
        err = capsys.readouterr().err
        assert "grid.dx" in err
        assert "task.Emni" in err
        assert "config.colour" in err

    def test_missing_sections_enumerated(self, tmp_path):
        path = write_config(tmp_path, {"potential": {"expression": "0"}})
        with pytest.raises(ConfigError) as errinfo:
            cli.run(path)
        joined = "\n".join(errinfo.value.problems)
        for section in ("grid", "particle", "task", "output"):
            assert section in joined

    def test_exactly_one_potential_source(self, tmp_path):
        doc = base_config(tmp_path / "out", {"type": "transmit", "Emin": 0.1,
                                             "Emax": 1.0, "N_E": 5})
        doc["potential"] = {"expression": "0", "table": "t.txt"}
        code = cli.main([str(write_config(tmp_path, doc))])
        assert code == 2

    def test_bad_expression_is_config_error(self, tmp_path):
        doc = base_config(tmp_path / "out", {"type": "transmit", "Emin": 0.1,
                                             "Emax": 1.0, "N_E": 5})
        doc["potential"] = {"expression": "2*y"}
        assert cli.main([str(write_config(tmp_path, doc))]) == 2

    def test_validate_only_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, {"type": "transmit", "Emin": 0.1, "Emax": 1.0, "N_E": 5})
        code = cli.main([str(write_config(tmp_path, doc)), "--validate-only"])
        assert code == 0
        assert not out.exists()

    def test_not_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("not json {")
        assert cli.main([str(path)]) == 2

    def test_packet_needs_one_width(self, tmp_path):
        doc = base_config(tmp_path / "out", {
            "type": "packet", "E0": 0.4, "dE": 0.05, "sigma_x": 10.0,
            "N_E": 11, "x0": 0.0, "times": [0.0],
        })
        assert cli.main([str(write_config(tmp_path, doc))]) == 2


class TestTransmitTask:
    def test_free_particle_all_ones(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, {"type": "transmit", "Emin": 0.1, "Emax": 1.0, "N_E": 7})
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        meta, header, rows = read_csv(out / "transmission.csv")
        assert header == ["E_eV", "T", "R"]
        assert len(rows) == 7
        assert all(row[1] == pytest.approx(1.0, abs=1e-9) for row in rows)
        assert any("engine" in line for line in meta)

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, {"type": "transmit", "Emin": 0.1, "Emax": 1.0, "N_E": 9})
        doc["potential"] = {"builtin": {"name": "square_barrier",
                                        "params": {"V0": 0.5, "center": 0.0, "width": 1.0}}}
        path = write_config(tmp_path, doc)
        assert cli.main([str(path), "--quiet"]) == 0
        first = (out / "transmission.csv").read_bytes()
        assert cli.main([str(path), "--quiet"]) == 0
        assert (out / "transmission.csv").read_bytes() == first

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config(out, {"type": "transmit", "Emin": 0.2, "Emax": 0.4, "N_E": 3})
        doc["potential"] = {"expression": "0.5"}  # E below the entry level
        code = cli.main([str(write_config(tmp_path, doc))])
        assert code == 3
        assert "E=" in capsys.readouterr().err

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "discretize", no_memory)
        doc = base_config(tmp_path / "out", {"type": "transmit", "Emin": 0.2, "Emax": 0.4,
                                             "N_E": 3})
        assert cli.main([str(write_config(tmp_path, doc))]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "out of memory: Unable to allocate 7.28 TiB for an array"]

    def test_dump_coefficients_flag(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, {"type": "transmit", "Emin": 0.1, "Emax": 1.0, "N_E": 5})
        doc["potential"] = {"expression": "0.45*exp(-x^2)"}
        path = write_config(tmp_path, doc)
        assert cli.main([str(path), "--quiet", "--dump-coefficients"]) == 0
        _, header, rows = read_csv(out / "coefficients.csv")
        assert header == ["E_eV", "re_t_amp", "im_t_amp", "re_r_amp", "im_r_amp"]
        assert len(rows) == 5
        # equal asymptotic levels: T = |t_amp|^2 and R = |r_amp|^2 row by row
        _, _, probs = read_csv(out / "transmission.csv")
        for (E, tr, ti, rr, ri), (E2, T, R) in zip(rows, probs):
            assert E == E2
            assert tr ** 2 + ti ** 2 == pytest.approx(T, rel=1e-9)
            assert rr ** 2 + ri ** 2 == pytest.approx(R, rel=1e-9)

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, {"type": "transmit", "Emin": 0.1, "Emax": 1.0, "N_E": 4})
        doc["output"]["format"] = "json"
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        payload = json.loads((out / "transmission.json").read_text())
        assert payload["columns"] == ["E_eV", "T", "R"]
        assert len(payload["rows"]) == 4
        assert payload["rows"][0][1] == pytest.approx(1.0, abs=1e-9)


class TestWavefuncTask:
    def test_writes_one_file_per_energy(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, {"type": "wavefunc", "energies": [0.3, 0.6]})
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        for E in (0.3, 0.6):
            _, header, rows = read_csv(out / f"wavefunction_E{E:g}.csv")
            assert header == ["x_nm", "re_psi", "im_psi", "abs2"]
            assert len(rows) == 101
            assert all(row[3] == pytest.approx(1.0, abs=1e-9) for row in rows)

    def test_oversample(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, {"type": "wavefunc", "energies": [0.3], "oversample": 4})
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        _, _, rows = read_csv(out / "wavefunction_E0.3.csv")
        assert len(rows) == 401


class TestFofeAndEigenTasks:
    def well_config(self, out, task):
        doc = base_config(out, task)
        doc["potential"] = {"builtin": {"name": "square_barrier",
                                        "params": {"V0": -1.0, "center": 0.0, "width": 2.0}}}
        doc["grid"] = {"x0": -2.0, "xN": 2.0, "N": 200}
        return doc

    def test_fofe_curve(self, tmp_path):
        out = tmp_path / "out"
        doc = self.well_config(out, {"type": "fofe", "Emin": -0.99, "Emax": -0.01,
                                     "N_E": 60})
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        _, header, rows = read_csv(out / "mismatch.csv")
        assert header == ["E_eV", "f"]
        assert len(rows) == 60
        assert all(row[1] >= 0.0 for row in rows)

    def test_fofe_inf_serializes(self, tmp_path):
        out = tmp_path / "out"
        doc = self.well_config(out, {"type": "fofe", "Emin": -2.0, "Emax": -1.5,
                                     "N_E": 3})
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        _, _, rows = read_csv(out / "mismatch.csv")
        assert all(math.isinf(row[1]) for row in rows)

    def test_eigen_pipeline(self, tmp_path, electron):
        out = tmp_path / "out"
        doc = self.well_config(out, {"type": "eigen", "Emin": -0.99, "Emax": -0.01,
                                     "N_E": 120, "refine_tol": 1e-7})
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        _, header, rows = read_csv(out / "eigenvalues.csv")
        assert header == ["index", "E_eV", "uncertainty_eV", "residual"]
        exact = oracle.finite_well_eigenvalues(1.0, 1.0, electron)
        assert len(rows) == len(exact)
        for row, e in zip(rows, exact):
            assert row[1] == pytest.approx(e, abs=1e-6)
        for i in range(1, len(rows) + 1):
            _, wf_header, wf_rows = read_csv(out / f"eigenfunction_{i}.csv")
            assert wf_header == ["x_nm", "re_psi", "im_psi", "abs2"]
            assert len(wf_rows) == 201
            norm = sum(r[3] for r in wf_rows) * (4.0 / 200)
            assert norm == pytest.approx(1.0, abs=1e-6)

    def test_eigen_interval_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = self.well_config(out, {"type": "eigen", "Emin": -0.99, "Emax": -0.01,
                                     "N_E": 120, "interval": [-2.0, 0.5]})
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        assert (out / "eigenvalues.csv").exists()
        for ttype in ("eigen", "fofe"):  # past the grid's end: no node inside
            doc["task"].update(type=ttype, interval=[5.0, 6.0])
            assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 3
            assert capsys.readouterr().err == (
                "numerical error: interval (5.0, 6.0) holds no grid node\n")


class TestPacketTask:
    def test_snapshots_and_summary(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, {
            "type": "packet", "E0": 0.406, "dE": 0.058, "N_E": 51, "x0": -20.0,
            "times": [0.0, 40.0], "region": [-10.0, 10.0],
        })
        doc["grid"] = {"x0": -80.0, "xN": 80.0, "N": 800}
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        _, header, rows = read_csv(out / "packet_summary.csv")
        assert header == ["t_fs", "total_prob", "region_prob"]
        assert rows[0][1] == pytest.approx(1.0, abs=0.01)
        for t in (0, 40):
            _, snap_header, snap_rows = read_csv(out / f"packet_t{t:g}.csv")
            assert snap_header == ["x_nm", "re_psi", "im_psi", "abs2"]
            assert len(snap_rows) == 801

    def test_custom_samples(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, {
            "type": "packet", "E0": 0.406, "sigma_x": 10.0, "N_E": 31, "x0": 0.0,
            "times": [0.0], "samples": {"xmin": -4.0, "xmax": 4.0, "n": 33},
        })
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        _, _, rows = read_csv(out / "packet_t0.csv")
        assert len(rows) == 33


class TestPacketOutput:
    """The packet rows against a loop over the modes, and the CSV writer's
    fast path against the per-value join."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        doc = json.loads((REPO / "configs" / "packet_double_barrier.json").read_text())
        dirs = []
        for name in ("a", "b"):
            d = tmp_path_factory.mktemp(name)
            assert cli.run(write_config(d, doc), quiet=True) == 0
            dirs.append(d / doc["output"]["dir"])
        return doc, dirs

    def test_reruns_are_byte_identical(self, runs):
        _, (a, b) = runs
        names = sorted(p.name for p in a.glob("packet_*.csv"))
        assert len(names) == 6 and names == sorted(p.name for p in b.glob("packet_*.csv"))
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_psi_matches_a_loop_over_the_modes(self, runs):
        doc, (out, _) = runs
        cfg = cli.parse_config(doc, REPO / "configs")
        dp = discretize(cfg.spec, cfg.x0, cfg.xN, cfg.N)
        task = cfg.task
        packet = design_packet(task["E0"], dE=task["dE"], n_modes=task["N_E"],
                               x0=task["x0"], ctx=cfg.ctx)
        xs = np.linspace(*task["samples"])
        modes = np.array([sample_wavefunction(left_sweep(dp, float(E), cfg.ctx), dp, xs).psi
                          for E in packet.E])
        shift = packet.x0 - dp.x[0]
        for t in task["times"]:
            phase = np.exp(-1j * (packet.E * t / HBAR + packet.kappa * shift))
            ref = (packet.c * phase) @ modes * (packet.dkappa / math.sqrt(2.0 * math.pi))
            _, _, rows = read_csv(out / f"packet_t{t:g}.csv")
            rows = np.array(rows)
            assert rows[:, 0] == pytest.approx(xs, rel=1e-11, abs=1e-12)
            psi = rows[:, 1] + 1j * rows[:, 2]
            assert np.abs(psi - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_times_split_across_evolve_calls(self, runs, tmp_path, monkeypatch):
        doc, (whole, _) = runs
        calls = []

        def counting(packet, cache, times, xs):
            calls.append(len(times))
            return evolve(packet, cache, times, xs)

        monkeypatch.setattr(cli, "evolve", counting)
        monkeypatch.setattr(cli, "_FIELD_VALUES", 2 * 501)  # two fields of 501 samples
        assert cli.run(write_config(tmp_path, doc), quiet=True) == 0
        assert calls == [2, 2, 1]
        split = tmp_path / doc["output"]["dir"]
        for path in sorted(whole.glob("packet_*.csv")):
            want, got = (np.array(read_csv(d / path.name)[2]) for d in (whole, split))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), path.name

    def test_csv_template_writes_what_the_join_writes(self, tmp_path):
        cfg = cli.parse_config(bad_doc("transmit", {}), tmp_path)
        cfg.outdir = tmp_path
        writer = cli.Writer(cfg, quiet=True)
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, -123456.789]
        tables = {"floats": [(v, -v, v * 3.0) for v in special],
                  "with_int": [(i + 1, v, 2.0 * v) for i, v in enumerate(special)]}

        def join(row):  # the per-value format the template replaced
            return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)

        for name, rows in tables.items():
            writer.emit(name, ["a", "b", "c"], rows)
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            assert lines[-len(rows):] == [join(row) for row in rows]


class TestTablePotential:
    def test_table_path_relative_to_config(self, tmp_path):
        (tmp_path / "step.txt").write_text("# x U\n-5 0.0\n0 0.2\n5 0.2\n")
        out = tmp_path / "out"
        doc = base_config(out, {"type": "transmit", "Emin": 0.3, "Emax": 1.0, "N_E": 5})
        doc["potential"] = {"table": "step.txt"}
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        _, _, rows = read_csv(out / "transmission.csv")
        assert all(0.0 < row[1] <= 1.0 for row in rows)

    def test_missing_table_is_config_error(self, tmp_path):
        doc = base_config(tmp_path / "out", {"type": "transmit", "Emin": 0.3,
                                             "Emax": 1.0, "N_E": 5})
        doc["potential"] = {"table": "nope.txt"}
        assert cli.main([str(write_config(tmp_path, doc))]) == 2


def test_threads_flag_refused(tmp_path, capsys):
    doc = base_config(tmp_path / "out", {"type": "transmit", "Emin": 0.1,
                                         "Emax": 1.0, "N_E": 5})
    path = write_config(tmp_path, doc)
    with pytest.raises(SystemExit) as exc:
        cli.main([str(path), "--threads", "4", "--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_summary_lines_name_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    doc = base_config(out, {"type": "transmit", "Emin": 0.1, "Emax": 1.0, "N_E": 5})
    assert cli.main([str(write_config(tmp_path, doc))]) == 0
    stdout = capsys.readouterr().out
    assert "transmission.csv" in stdout
    assert "5 rows" in stdout


# ---------------------------------------------------------------------------
# pinned problem messages: one bad config per message parse_config can emit

DROP = object()  # marks a key to delete

VALID_TASKS = {
    "transmit": {"type": "transmit", "Emin": 0.1, "Emax": 1.0, "N_E": 5},
    "wavefunc": {"type": "wavefunc", "energies": [0.3], "oversample": 2},
    "fofe": {"type": "fofe", "Emin": -0.9, "Emax": -0.1, "N_E": 5,
             "interval": [-1.0, 1.0]},
    "eigen": {"type": "eigen", "Emin": -0.9, "Emax": -0.1, "N_E": 5,
              "interval": [-1.0, 1.0], "refine_tol": 1e-6},
    "packet": {"type": "packet", "E0": 0.4, "dE": 0.05, "N_E": 11, "x0": 0.0,
               "times": [0.0], "samples": {"xmin": -4.0, "xmax": 4.0, "n": 9},
               "region": [-1.0, 1.0]},
}

TABLE_FILES = {
    "one_row.txt": "0 1\n",
    "three_cols.txt": "0 1 2\n1 1\n",
    "words.txt": "0 one\n1 1\n",
    "unsorted.txt": "1 0\n0 0\n",
}

SQUARE = {"V0": 0.5, "center": 0.0, "width": 1.0}
VWELL = {"heights": 0.5, "widths": [0.5, 2.4], "depth": 0.25}


def builtin(name, **params):
    return {"builtin": {"name": name, "params": params}}


def piece(xmin="-inf", xmax="inf", expr="0", **extra):
    return dict({"xmin": xmin, "xmax": xmax, "expr": expr}, **extra)


def bad_doc(ttype, changes):
    """The valid config of a task type with dotted paths set (DROP deletes;
    the empty path replaces the whole document)."""
    doc = json.loads(json.dumps({
        "potential": {"expression": "0"},
        "grid": {"x0": -5.0, "xN": 5.0, "N": 100},
        "particle": {"mass": 511000.0},
        "task": VALID_TASKS[ttype],
        "output": {"dir": "out", "format": "csv"},
    }))
    for path, value in changes.items():
        if path == "":
            doc = value
            continue
        *parents, last = path.split(".")
        node = doc
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return doc


# (id, task type, changes, exact problems; <dir> is the config directory)
PROBLEM_CASES = [
    # document and sections
    ("root-list", "transmit", {"": [1, 2]}, ["configuration root must be a JSON object"]),
    ("unknown-section", "transmit", {"colour": "blue"}, ["unknown key 'config.colour'"]),
    ("missing-section", "transmit", {"grid": DROP}, ["missing section 'grid'"]),
    ("missing-potential", "transmit", {"potential": DROP}, ["missing section 'potential'"]),
    # potential
    ("potential-string", "transmit", {"potential": "0"}, ["'potential' must be an object"]),
    ("potential-empty", "transmit", {"potential": {}},
     ["'potential' must contain exactly one of 'builtin', 'expression', 'table'"]),
    ("potential-two-sources", "transmit", {"potential.table": "t.txt"},
     ["'potential' must contain exactly one of 'builtin', 'expression', 'table'"]),
    ("potential-unknown-key", "transmit", {"potential.file": "t.txt"},
     ["unknown key 'potential.file'"]),
    ("builtin-string", "transmit", {"potential": {"builtin": "square_barrier"}},
     ["'potential.builtin' must be an object"]),
    ("builtin-unknown-key", "transmit",
     {"potential": {"builtin": {"name": "square_barrier", "params": SQUARE, "kind": 1}}},
     ["unknown key 'potential.builtin.kind'"]),
    ("builtin-no-name", "transmit", {"potential": {"builtin": {"params": SQUARE}}},
     ["'potential.builtin.name' must be a string"]),
    ("builtin-name-number", "transmit", {"potential": {"builtin": {"name": 3}}},
     ["'potential.builtin.name' must be a string"]),
    ("builtin-params-list", "transmit",
     {"potential": {"builtin": {"name": "coulomb_trunc", "params": [1.44, 0.01]}}},
     ["'potential.builtin.params' must be an object"]),
    ("builtin-unknown-name", "transmit", {"potential": builtin("morse")},
     ["potential: unknown builtin potential 'morse'"]),
    ("builtin-missing-param", "transmit",
     {"potential": builtin("square_barrier", V0=0.5, center=0.0)},
     ["potential: builtin 'square_barrier' missing parameter(s): width"]),
    ("builtin-unknown-param", "transmit",
     {"potential": builtin("coulomb_trunc", e2=1.44, eps=0.01, Z=2)},
     ["potential: builtin 'coulomb_trunc' got unknown parameter(s): Z"]),
    ("builtin-zero-width", "transmit",
     {"potential": builtin("square_barrier", **dict(SQUARE, width=0.0))},
     ["potential: builtin 'square_barrier' needs width > 0"]),
    ("builtin-lj-needs-mass", "transmit",
     {"potential": builtin("lennard_jones", A=1e-12, B=1e-6, J=2)},
     ["potential: builtin 'lennard_jones' needs 'mass' when J != 0"]),
    ("builtin-widths-scalar", "transmit",
     {"potential": builtin("double_barrier_vwell", **dict(VWELL, widths=0.5))},
     ["potential: builtin 'double_barrier_vwell' needs widths=(barrier_width, well_width)"]),
    ("builtin-widths-negative", "transmit",
     {"potential": builtin("double_barrier_vwell", **dict(VWELL, widths=[-0.5, 2.4]))},
     ["potential: builtin 'double_barrier_vwell' needs positive widths"]),
    ("builtin-heights-triple", "transmit",
     {"potential": builtin("double_barrier_vwell", **dict(VWELL, heights=[1, 2, 3]))},
     ["potential: expected a scalar or a pair, got [1, 2, 3]"]),
    ("expression-unknown-identifier", "transmit", {"potential.expression": "2*y"},
     ["potential: unknown identifier 'y' (character 2)"]),
    ("expression-unknown-function", "transmit", {"potential.expression": "sin(x)"},
     ["potential: unknown function 'sin' (character 0)"]),
    ("expression-bad-character", "transmit", {"potential.expression": "x $ 1"},
     ["potential: unexpected character '$' (character 2)"]),
    ("expression-unclosed", "transmit", {"potential.expression": "(x"},
     ["potential: expected ')' (character 2)"]),
    ("expression-truncated", "transmit", {"potential.expression": "x +"},
     ["potential: unexpected end of expression (character 3)"]),
    ("expression-unexpected", "transmit", {"potential.expression": "*x"},
     ["potential: unexpected '*' (character 0)"]),
    ("expression-trailing", "transmit", {"potential.expression": "x x"},
     ["potential: trailing input 'x' (character 2)"]),
    ("expression-number", "transmit", {"potential.expression": 5},
     ["'potential.expression' must be a string or a list of pieces"]),
    ("piece-not-object", "transmit", {"potential.expression": [5]},
     ["'potential.expression[0]' must be an object"]),
    ("piece-unknown-key", "transmit", {"potential.expression": [piece(note=1)]},
     ["unknown key 'potential.expression[0].note'"]),
    ("piece-missing-expr", "transmit",
     {"potential.expression": [{"xmin": "-inf", "xmax": "inf"}]},
     ["'potential.expression[0]' missing expr"]),
    ("piece-missing-bounds", "transmit", {"potential.expression": [{"expr": "0"}]},
     ["'potential.expression[0]' missing xmin, xmax"]),
    ("piece-bad-bound", "transmit",
     {"potential.expression": [piece(), piece(xmin="-infinity")]},
     ["'potential.expression[1].xmin' must be a number or 'inf'/'-inf', got '-infinity'"]),
    ("piece-nan-bound", "transmit", {"potential.expression": [piece(xmax=math.nan)]},
     ["'potential.expression[0].xmax' must be a number or 'inf'/'-inf', got nan"]),
    ("piece-expr-number", "transmit", {"potential.expression": [piece(expr=0)]},
     ["'potential.expression[0].expr' must be a string"]),
    ("piece-empty-range", "transmit",
     {"potential.expression": [piece(xmin=1, xmax=1)]},
     ["potential: empty piece range [1.0, 1.0)"]),
    ("piece-gap", "transmit",
     {"potential.expression": [piece(xmax=0), piece(xmin=1)]},
     ["potential: expression pieces must tile a connected range; "
      "piece ending at 0.0 is followed by one starting at 1.0"]),
    ("piece-bad-expr", "transmit", {"potential.expression": [piece(expr="x +")]},
     ["potential: unexpected end of expression (character 3)"]),
    ("table-number", "transmit", {"potential": {"table": 3}},
     ["'potential.table' must be a file path string"]),
    ("table-missing-file", "transmit", {"potential": {"table": "nope.txt"}},
     ["potential: [Errno 2] No such file or directory: '<dir>/nope.txt'"]),
    ("table-one-row", "transmit", {"potential": {"table": "one_row.txt"}},
     ["potential: table needs at least 2 rows"]),
    ("table-three-columns", "transmit", {"potential": {"table": "three_cols.txt"}},
     ["potential: <dir>/three_cols.txt:1: expected two columns, got 3"]),
    ("table-not-numeric", "transmit", {"potential": {"table": "words.txt"}},
     ["potential: <dir>/words.txt:1: not numeric: '0 one'"]),
    ("table-unsorted", "transmit", {"potential": {"table": "unsorted.txt"}},
     ["potential: table x values must be strictly increasing (1.0 then 0.0)"]),
    # grid
    ("grid-list", "transmit", {"grid": [-5.0, 5.0, 100]}, ["'grid' must be an object"]),
    ("grid-unknown-key", "transmit", {"grid.dx": 0.1}, ["unknown key 'grid.dx'"]),
    ("grid-missing-x0", "transmit", {"grid.x0": DROP}, ["missing key 'grid.x0'"]),
    ("grid-x0-string", "transmit", {"grid.x0": "-5"},
     ["'grid.x0' must be a finite number, got '-5'"]),
    ("grid-xN-nan", "transmit", {"grid.xN": math.nan},
     ["'grid.xN' must be a finite number, got nan"]),
    ("grid-xN-inf", "transmit", {"grid.xN": math.inf},
     ["'grid.xN' must be a finite number, got inf"]),
    ("grid-x0-bool", "transmit", {"grid.x0": True},
     ["'grid.x0' must be a finite number, got True"]),
    ("grid-x0-null", "transmit", {"grid.x0": None},
     ["'grid.x0' must be a finite number, got None"]),
    ("grid-N-one", "transmit", {"grid.N": 1}, ["'grid.N' must be an integer >= 2, got 1"]),
    ("grid-N-float", "transmit", {"grid.N": 100.0},
     ["'grid.N' must be an integer >= 2, got 100.0"]),
    ("grid-N-bool", "transmit", {"grid.N": True},
     ["'grid.N' must be an integer >= 2, got True"]),
    ("grid-N-beyond-maxsize", "transmit", {"grid.N": sys.maxsize + 1},
     [f"'grid.N' must be at most {sys.maxsize}, got {sys.maxsize + 1}"]),
    ("grid-reversed", "transmit", {"grid.x0": 5, "grid.xN": -5},
     ["'grid' must satisfy x0 < xN, got 5.0 >= -5.0"]),
    ("grid-empty", "transmit", {"grid.xN": -5.0},
     ["'grid' must satisfy x0 < xN, got -5.0 >= -5.0"]),
    # particle
    ("particle-number", "transmit", {"particle": 511000.0}, ["'particle' must be an object"]),
    ("particle-unknown-key", "transmit", {"particle.charge": -1},
     ["unknown key 'particle.charge'"]),
    ("particle-missing-mass", "transmit", {"particle.mass": DROP},
     ["missing key 'particle.mass'"]),
    ("particle-zero-mass", "transmit", {"particle.mass": 0},
     ["'particle.mass' must be positive, got 0"]),
    ("particle-negative-mass", "transmit", {"particle.mass": -1.5},
     ["'particle.mass' must be positive, got -1.5"]),
    ("particle-mass-list", "transmit", {"particle.mass": [1.0]},
     ["'particle.mass' must be a finite number, got [1.0]"]),
    # task
    ("task-list", "transmit", {"task": ["transmit"]}, ["'task' must be an object"]),
    ("task-no-type", "transmit", {"task.type": DROP},
     ["'task.type' must be one of transmit, wavefunc, fofe, eigen, packet, got None"]),
    ("task-bad-type", "transmit", {"task.type": "scan"},
     ["'task.type' must be one of transmit, wavefunc, fofe, eigen, packet, got 'scan'"]),
    ("transmit-unknown-key", "transmit", {"task.Emni": 0.1}, ["unknown key 'task.Emni'"]),
    ("transmit-interval", "transmit", {"task.interval": [0, 1]},
     ["unknown key 'task.interval'"]),
    ("transmit-missing-Emin", "transmit", {"task.Emin": DROP}, ["missing key 'task.Emin'"]),
    ("transmit-Emax-string", "transmit", {"task.Emax": "1"},
     ["'task.Emax' must be a finite number, got '1'"]),
    ("transmit-Emax-neg-inf", "transmit", {"task.Emax": -math.inf},
     ["'task.Emax' must be a finite number, got -inf"]),
    ("transmit-missing-N_E", "transmit", {"task.N_E": DROP}, ["missing key 'task.N_E'"]),
    ("transmit-N_E-one", "transmit", {"task.N_E": 1},
     ["'task.N_E' must be an integer >= 2, got 1"]),
    ("transmit-N_E-string", "transmit", {"task.N_E": "5"},
     ["'task.N_E' must be an integer >= 2, got '5'"]),
    ("wavefunc-unknown-key", "wavefunc", {"task.N_E": 5}, ["unknown key 'task.N_E'"]),
    ("wavefunc-missing-energies", "wavefunc", {"task.energies": DROP},
     ["'task.energies' must be a nonempty list of numbers"]),
    ("wavefunc-empty-energies", "wavefunc", {"task.energies": []},
     ["'task.energies' must be a nonempty list of numbers"]),
    ("wavefunc-energy-nan", "wavefunc", {"task.energies": [0.3, math.nan]},
     ["'task.energies' must be a nonempty list of numbers"]),
    ("wavefunc-energies-number", "wavefunc", {"task.energies": 0.3},
     ["'task.energies' must be a nonempty list of numbers"]),
    ("wavefunc-energies-one-name", "wavefunc", {"task.energies": [0.5000001, 0.5000002]},
     ["'task.energies' values [0.5000001, 0.5000002] share the output name "
      "'wavefunction_E0.5'"]),
    ("wavefunc-oversample-zero", "wavefunc", {"task.oversample": 0},
     ["'task.oversample' must be an integer >= 1, got 0"]),
    ("wavefunc-oversample-float", "wavefunc", {"task.oversample": 1.5},
     ["'task.oversample' must be an integer >= 1, got 1.5"]),
    ("wavefunc-oversample-null", "wavefunc", {"task.oversample": None},
     ["'task.oversample' must be an integer >= 1, got None"]),
    ("fofe-unknown-key", "fofe", {"task.refine_tol": 1e-6}, ["unknown key 'task.refine_tol'"]),
    ("fofe-missing-Emax", "fofe", {"task.Emax": DROP}, ["missing key 'task.Emax'"]),
    ("fofe-N_E-two", "fofe", {"task.N_E": 2}, ["'task.N_E' must be an integer >= 3, got 2"]),
    ("fofe-interval-reversed", "fofe", {"task.interval": [1.0, -1.0]},
     ["'task.interval' must be [a, b] with a < b, got [1.0, -1.0]"]),
    ("fofe-interval-string", "fofe", {"task.interval": [0, "1"]},
     ["'task.interval' must be [a, b] with a < b, got [0, '1']"]),
    ("fofe-interval-triple", "fofe", {"task.interval": [0, 1, 2]},
     ["'task.interval' must be [a, b] with a < b, got [0, 1, 2]"]),
    ("fofe-interval-null", "fofe", {"task.interval": None},
     ["'task.interval' must be [a, b] with a < b, got None"]),
    ("eigen-unknown-key", "eigen", {"task.energies": [0.1]}, ["unknown key 'task.energies'"]),
    ("eigen-Emin-bool", "eigen", {"task.Emin": False},
     ["'task.Emin' must be a finite number, got False"]),
    ("eigen-N_E-two", "eigen", {"task.N_E": 2}, ["'task.N_E' must be an integer >= 3, got 2"]),
    ("eigen-interval-empty", "eigen", {"task.interval": [0.5, 0.5]},
     ["'task.interval' must be [a, b] with a < b, got [0.5, 0.5]"]),
    ("eigen-refine-tol-zero", "eigen", {"task.refine_tol": 0},
     ["'task.refine_tol' must be positive, got 0"]),
    ("eigen-refine-tol-string", "eigen", {"task.refine_tol": "1e-6"},
     ["'task.refine_tol' must be a finite number, got '1e-6'"]),
    ("packet-unknown-key", "packet", {"task.t": [0.0]}, ["unknown key 'task.t'"]),
    ("packet-missing-E0", "packet", {"task.E0": DROP}, ["missing key 'task.E0'"]),
    ("packet-E0-negative", "packet", {"task.E0": -0.4},
     ["'task.E0' must be positive, got -0.4"]),
    ("packet-E0-string", "packet", {"task.E0": "0.4"},
     ["'task.E0' must be a finite number, got '0.4'"]),
    ("packet-no-width", "packet", {"task.dE": DROP},
     ["'task' must contain exactly one of 'dE' or 'sigma_x'"]),
    ("packet-two-widths", "packet", {"task.sigma_x": 10.0},
     ["'task' must contain exactly one of 'dE' or 'sigma_x'"]),
    ("packet-dE-zero", "packet", {"task.dE": 0.0}, ["'task.dE' must be positive, got 0.0"]),
    ("packet-sigma_x-negative", "packet", {"task.dE": DROP, "task.sigma_x": -10},
     ["'task.sigma_x' must be positive, got -10"]),
    ("packet-sigma_x-null", "packet", {"task.dE": DROP, "task.sigma_x": None},
     ["'task.sigma_x' must be a finite number, got None"]),
    ("packet-N_E-two", "packet", {"task.N_E": 2},
     ["'task.N_E' must be an integer >= 3, got 2"]),
    ("packet-missing-x0", "packet", {"task.x0": DROP}, ["missing key 'task.x0'"]),
    ("packet-x0-nan", "packet", {"task.x0": math.nan},
     ["'task.x0' must be a finite number, got nan"]),
    ("packet-missing-times", "packet", {"task.times": DROP},
     ["'task.times' must be a nonempty list of times >= 0 (fs)"]),
    ("packet-negative-time", "packet", {"task.times": [0.0, -1.0]},
     ["'task.times' must be a nonempty list of times >= 0 (fs)"]),
    ("packet-empty-times", "packet", {"task.times": []},
     ["'task.times' must be a nonempty list of times >= 0 (fs)"]),
    ("packet-times-one-name", "packet", {"task.times": [10.0000001, 10.0000002, 10.0000002]},
     ["'task.times' values [10.0000001, 10.0000002, 10.0000002] share the output name "
      "'packet_t10'"]),
    ("packet-samples-list", "packet", {"task.samples": [-4.0, 4.0, 9]},
     ["'task.samples' must be {xmin, xmax, n} with xmin < xmax"]),
    ("packet-samples-unknown-key", "packet", {"task.samples.dx": 1.0},
     ["unknown key 'task.samples.dx'"]),
    ("packet-samples-missing-n", "packet", {"task.samples.n": DROP},
     ["missing key 'task.samples.n'",
      "'task.samples' must be {xmin, xmax, n} with xmin < xmax"]),
    ("packet-samples-n-one", "packet", {"task.samples.n": 1},
     ["'task.samples.n' must be an integer >= 2, got 1",
      "'task.samples' must be {xmin, xmax, n} with xmin < xmax"]),
    ("packet-samples-xmin-string", "packet", {"task.samples.xmin": "a"},
     ["'task.samples.xmin' must be a finite number, got 'a'",
      "'task.samples' must be {xmin, xmax, n} with xmin < xmax"]),
    ("packet-samples-reversed", "packet", {"task.samples.xmin": 4.0, "task.samples.xmax": -4.0},
     ["'task.samples' must be {xmin, xmax, n} with xmin < xmax"]),
    ("packet-region-reversed", "packet", {"task.region": [1.0, -1.0]},
     ["'task.region' must be [a, b] with a < b, got [1.0, -1.0]"]),
    ("packet-region-inf", "packet", {"task.region": [-1.0, math.inf]},
     ["'task.region' must be [a, b] with a < b, got [-1.0, inf]"]),
    # output
    ("output-string", "transmit", {"output": "out"}, ["'output' must be an object"]),
    ("output-unknown-key", "transmit", {"output.name": "run"}, ["unknown key 'output.name'"]),
    ("output-missing-dir", "transmit", {"output.dir": DROP},
     ["'output.dir' must be a directory path string"]),
    ("output-dir-number", "transmit", {"output.dir": 5},
     ["'output.dir' must be a directory path string"]),
    ("output-format", "transmit", {"output.format": "xml"},
     ["'output.format' must be 'csv' or 'json', got 'xml'"]),
    ("output-format-null", "transmit", {"output.format": None},
     ["'output.format' must be 'csv' or 'json', got None"]),
]


@pytest.fixture
def table_dir(tmp_path):
    for name, text in TABLE_FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def problems_of(doc, base_dir):
    with pytest.raises(ConfigError) as errinfo:
        cli.parse_config(doc, base_dir)
    return errinfo.value.problems


@pytest.mark.parametrize("ttype,changes,expected",
                         [case[1:] for case in PROBLEM_CASES],
                         ids=[case[0] for case in PROBLEM_CASES])
def test_problem_messages(table_dir, ttype, changes, expected):
    expected = [p.replace("<dir>", str(table_dir)) for p in expected]
    assert problems_of(bad_doc(ttype, changes), table_dir) == expected


def test_valid_task_configs_parse(table_dir):
    for ttype in VALID_TASKS:
        cli.parse_config(bad_doc(ttype, {}), table_dir)


@pytest.mark.parametrize("ttype,changes,expected", [
    ("transmit",
     {"colour": "blue", "grid.dx": 0.1, "particle.mass": -1, "task.Emni": 0.1,
      "task.N_E": 1, "output.format": "xml", "potential.expression": "2*y"},
     ["unknown key 'config.colour'", "unknown key 'grid.dx'",
      "'particle.mass' must be positive, got -1", "unknown key 'task.Emni'",
      "'task.N_E' must be an integer >= 2, got 1",
      "'output.format' must be 'csv' or 'json', got 'xml'",
      "potential: unknown identifier 'y' (character 2)"]),
    ("packet",
     {"particle": DROP, "grid.x0": 6.0, "task.E0": DROP, "task.times": [-1.0],
      "task.region": [1.0], "task.samples": {"xmin": 1.0, "xmax": 0.0, "n": 9},
      "output.dir": None},
     ["missing section 'particle'", "'grid' must satisfy x0 < xN, got 6.0 >= 5.0",
      "missing key 'task.E0'", "'task.times' must be a nonempty list of times >= 0 (fs)",
      "'task.samples' must be {xmin, xmax, n} with xmin < xmax",
      "'task.region' must be [a, b] with a < b, got [1.0]",
      "'output.dir' must be a directory path string"]),
], ids=["transmit-seven-faults", "packet-seven-faults"])
def test_every_fault_reported(table_dir, ttype, changes, expected):
    assert sorted(problems_of(bad_doc(ttype, changes), table_dir)) == sorted(expected)


# problems for inputs that used to pass validation or crash it
BEYOND_FLOAT = int("1" * 400)  # a JSON integer that no float can hold
NEW_PROBLEM_CASES = [
    ("task-N_E-beyond-maxsize", {"task.N_E": 10**30},
     [f"'task.N_E' must be at most {sys.maxsize}, got {10**30}"]),
    ("grid-x0-int-beyond-float", {"grid.x0": -BEYOND_FLOAT},
     [f"'grid.x0' must be a finite number, got -{BEYOND_FLOAT}"]),
    ("builtin-param-int-beyond-float",
     {"potential": builtin("square_barrier", **dict(SQUARE, V0=BEYOND_FLOAT))},
     ["potential: builtin 'square_barrier' parameter 'V0' must be a finite number, "
      f"got {BEYOND_FLOAT}"]),
    ("builtin-param-list", {"potential": builtin("square_barrier", **dict(SQUARE, V0=[0.5]))},
     ["potential: builtin 'square_barrier' parameter 'V0' must be a finite number, "
      "got [0.5]"]),
    ("builtin-param-null", {"potential": builtin("square_barrier", **dict(SQUARE, V0=None))},
     ["potential: builtin 'square_barrier' parameter 'V0' must be a finite number, got None"]),
    ("builtin-param-nan", {"potential": builtin("square_barrier", **dict(SQUARE, V0=math.nan))},
     ["potential: builtin 'square_barrier' parameter 'V0' must be a finite number, got nan"]),
    ("builtin-param-bool", {"potential": builtin("square_barrier", **dict(SQUARE, V0=True))},
     ["potential: builtin 'square_barrier' parameter 'V0' must be a finite number, got True"]),
    ("builtin-heights-object",
     {"potential": builtin("double_barrier_vwell", **dict(VWELL, heights={"a": 1}))},
     ["potential: builtin 'double_barrier_vwell' parameter 'heights' must be a finite "
      "number or a list of them, got {'a': 1}"]),
    ("table-nan", {"potential": {"table": "nan.txt"}},
     ["potential: table values must be finite, got x=1.0, U=nan"]),
]


@pytest.mark.parametrize("changes,expected", [case[1:] for case in NEW_PROBLEM_CASES],
                         ids=[case[0] for case in NEW_PROBLEM_CASES])
def test_bad_values_are_config_errors(table_dir, capsys, changes, expected):
    (table_dir / "nan.txt").write_text("0 0\n1 nan\n2 0\n")
    path = write_config(table_dir, bad_doc("transmit", changes))
    assert cli.main([str(path), "--validate-only"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {p}" for p in expected]


@pytest.mark.parametrize("case", ["wavefunc-energies-one-name", "packet-times-one-name"])
def test_output_name_collisions_fail_validation(table_dir, capsys, case):
    _, ttype, changes, [problem] = next(c for c in PROBLEM_CASES if c[0] == case)
    path = write_config(table_dir, bad_doc(ttype, changes))
    assert cli.main([str(path), "--validate-only"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {problem}"]
    assert cli.main([str(path)]) == 2
    assert not (table_dir / "out").exists()


def test_eigen_needs_ascending_energies(tmp_path):
    doc = bad_doc("eigen", {"task.Emin": -0.1, "task.Emax": -0.5})
    assert problems_of(doc, tmp_path) == ["'task' must satisfy Emin < Emax, got -0.1 >= -0.5"]


@pytest.mark.parametrize("ttype", ["transmit", "fofe"])
def test_descending_energy_grids_accepted(tmp_path, ttype):
    doc = bad_doc(ttype, {"task.Emin": VALID_TASKS[ttype]["Emax"],
                          "task.Emax": VALID_TASKS[ttype]["Emin"]})
    cli.parse_config(doc, tmp_path)


# ---------------------------------------------------------------------------
# docs and shipped configs stay in step with the validator

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    assert cli.main([str(path), "--validate-only", "--quiet"]) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_configs_rerun_byte_identical(tmp_path, path, fmt):
    doc = json.loads(path.read_text())
    doc["output"]["format"] = fmt
    outs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert cli.run(write_config(tmp_path / name, doc), quiet=True) == 0
        outs.append(tmp_path / name / doc["output"]["dir"])
    names = sorted(p.name for p in outs[0].iterdir())
    assert names and all(n.endswith("." + fmt) for n in names)
    assert names == sorted(p.name for p in outs[1].iterdir())
    for n in names:
        assert (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes(), n


def test_readme_task_table_matches_validator():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    table = readme.split("\nTasks:\n", 1)[1].strip().split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        ttype, params, _ = [c.strip() for c in line.strip().strip("|").split("|")]
        rows[ttype.strip("`")] = re.findall(r"`(\w+)`", params)
    assert set(rows) == set(cli.TASKS)
    for ttype, params in rows.items():
        assert sorted(params) == sorted(cli.TASKS[ttype]), ttype
