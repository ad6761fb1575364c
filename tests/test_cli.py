import json
import math

import numpy as np
import pytest

from qsweep import cli, oracle
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

    def test_eigen_interval_key(self, tmp_path):
        out = tmp_path / "out"
        doc = self.well_config(out, {"type": "eigen", "Emin": -0.99, "Emax": -0.01,
                                     "N_E": 120, "interval": [-2.0, 0.5]})
        assert cli.main([str(write_config(tmp_path, doc)), "--quiet"]) == 0
        assert (out / "eigenvalues.csv").exists()


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
