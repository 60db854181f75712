import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import dqdnoise
from dqdnoise import checks, cli
from dqdnoise.checks import CheckResult
from dqdnoise.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NUMERICAL,
    EXIT_OK,
    parse_config,
    serialize_config,
)
from dqdnoise.errors import ConfigError
from dqdnoise.model import ModelParams
from dqdnoise.noise import TransportPoint, compute_spectrum
from dqdnoise.superop import DENSE_MAX_DIM, generator_plan
from dqdnoise.sweep import preset


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestBlasThreads:
    @pytest.mark.parametrize("setting,seen", [(None, "1"), ("2", "2")], ids=["unset", "set"])
    def test_import_defaults_to_one_thread(self, setting, seen):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        src = str(Path(dqdnoise.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import os, dqdnoise; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == seen


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, "model.delta = 0.5\n"))
        assert cfg.model.delta == 0.5
        assert cfg.model.omega_b == 1.0
        assert cfg.workers == 1 and cfg.output_format == "csv"

    def test_json_encoding(self, tmp_path):
        payload = {"model.delta": 0.5, "model.g": 0.2, "workers": 3}
        cfg = parse_config(write(tmp_path, json.dumps(payload), "run.json"))
        assert cfg.model.g == 0.2 and cfg.workers == 3

    def test_axis_count_constraint(self, tmp_path):
        text = ("sweep.axis1.name = g\nsweep.axis1.start = 0\n"
                "sweep.axis1.stop = 1\nsweep.axis1.count = 1\n"
                "sweep.quantities = I_e\n")
        with pytest.raises(ConfigError, match="counts >= 2"):
            parse_config(write(tmp_path, text))

    def test_preset_model_conflict(self, tmp_path):
        text = "sweep.preset = fig2\nmodel.delta = 0.4\n"
        with pytest.raises(ConfigError, match="single source of truth"):
            parse_config(write(tmp_path, text))

    def test_unknown_key_reports_line(self, tmp_path):
        text = "model.delta = 0.5\nmodel.bogus = 1\n"
        with pytest.raises(ConfigError, match=r"model.bogus \(line 2\)"):
            parse_config(write(tmp_path, text))

    def test_type_error_reports_key(self, tmp_path):
        with pytest.raises(ConfigError, match="model.delta"):
            parse_config(write(tmp_path, "model.delta = fast\n"))

    def test_constraint_violation(self, tmp_path):
        with pytest.raises(ConfigError, match="n_fock"):
            parse_config(write(tmp_path, "model.n_fock = 0\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write(tmp_path, "workers = 1\nworkers = 2\n"))

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# a comment\n\nmodel.delta = 0.25  # trailing\n"
        assert parse_config(write(tmp_path, text)).model.delta == 0.25

    def test_round_trip(self, tmp_path):
        # every table setting away from its default, fock_cutoff both ways
        for cutoff in ("auto", "7"):
            text = ("model.delta = 0.5\nmodel.g = 0.3\nworkers = 2\n"
                    "sweep.axis1.name = g\nsweep.axis1.values = 0,0.1,0.2\n"
                    "sweep.quantities = I_e,F_Q\nsweep.hamiltonian = jc\n"
                    "methods = resolvent,macdonald\noutput.format = json\n"
                    "output.path = out/run.json\ncheck.level = full\n"
                    f"fock_cutoff = {cutoff}\nmacdonald.t_max = 250.5\n"
                    "macdonald.dt = 0.01\nspectrum.pair = eb\n"
                    "spectrum.omega_start = 0.75\nspectrum.omega_stop = 1.25\n"
                    "spectrum.omega_count = 41\nspectrum.normalization = raw\n"
                    "spectrum.hamiltonian = jc\n")
            cfg = parse_config(write(tmp_path, text))
            cfg2 = parse_config(write(tmp_path, serialize_config(cfg), "round.cfg"))
            assert cfg2 == cfg
            for key, name, _, _ in cli._SETTINGS:
                assert getattr(cfg, name) != getattr(cli.RunConfig(), name), key

    def test_settings_table_covers_run_config(self):
        # one row per RunConfig field; model.* and sweep.* are parsed apart
        names = [name for _, name, _, _ in cli._SETTINGS]
        assert sorted(names) == sorted({f.name for f in fields(cli.RunConfig)}
                                       - {"model", "sweep_spec"})

    @pytest.mark.parametrize("text", [
        "sweep.preset = fig5a\nsweep.hamiltonian = jc\n",
        "model.delta = 0.5\nsweep.hamiltonian = jc\n",
    ], ids=["with-preset", "without-axes"])
    def test_sweep_hamiltonian_needs_manual_axes(self, tmp_path, text):
        with pytest.raises(ConfigError, match=r"sweep.hamiltonian \(line 2\)"):
            parse_config(write(tmp_path, text))

    def test_preset_round_trip(self, tmp_path):
        # fig4b has an omega axis, so its serialized form drops every spectrum.omega_* key
        for name in ("fig6b", "fig4b"):
            cfg = parse_config(write(tmp_path, f"sweep.preset = {name}\n"))
            cfg2 = parse_config(write(tmp_path, serialize_config(cfg), "round.cfg"))
            assert cfg2.sweep_spec == cfg.sweep_spec


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        path = write(tmp_path, "model.bogus = 1\n")
        assert cli.main(["steady", "--config", path]) == EXIT_CONFIG

    def test_missing_config_is_2(self, tmp_path):
        assert cli.main(["steady", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_numerical_error_is_3(self, tmp_path):
        # all rates zero: degenerate stationary subspace
        text = ("model.gamma_L = 0\nmodel.gamma_R = 0\nmodel.gamma_b = 0\n"
                "model.delta = 0.5\nmodel.n_fock = 2\n")
        path = write(tmp_path, text)
        out = tmp_path / "steady.json"
        assert cli.main(["steady", "--config", path, "--out", str(out)]) == EXIT_NUMERICAL

    def test_overflowing_generator_is_3(self, tmp_path, capsys):
        path = write(tmp_path, "model.epsilon = 1e308\nmodel.n_fock = 2\n")
        out = tmp_path / "steady.json"
        assert cli.main(["steady", "--config", path, "--out", str(out)]) == EXIT_NUMERICAL
        assert "non-finite" in capsys.readouterr().err

    def test_invariant_failure_is_4(self, monkeypatch):
        monkeypatch.setattr(
            cli, "run_checks",
            lambda level: [CheckResult("forced", "unit-test", False, 1.0, 0.0)],
        )
        assert cli.main(["check", "--check", "fast"]) == EXIT_INVARIANT

    @pytest.mark.parametrize("passed, code", [(True, EXIT_OK), (False, EXIT_INVARIANT)],
                             ids=["pass", "fail"])
    def test_check_writes_out(self, tmp_path, monkeypatch, capsys, passed, code):
        monkeypatch.setattr(
            cli, "run_checks",
            lambda level: [CheckResult("a", "unit-test", True, 0.0, 1.0),
                           CheckResult("b", "unit-test", passed, 1.0, 0.0)],
        )
        assert cli.main(["check", "--check", "fast"]) == code
        stdout = capsys.readouterr().out
        out = tmp_path / "check.txt"
        assert cli.main(["check", "--check", "fast", "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout

    @pytest.mark.parametrize("argv, config, env, key, origin", [
        (["steady", "--fock-cutoff", "abc"], None, None, "fock_cutoff", "--fock-cutoff"),
        (["steady", "--fock-cutoff", "0"], None, None, "fock_cutoff", "--fock-cutoff"),
        (["steady"], "fock_cutoff = -3\n", None, "fock_cutoff", "line 2"),
        (["sweep", "--preset", "fig2", "--fock-cutoff", "0"], None, None,
         "fock_cutoff", "--fock-cutoff"),
        (["spectrum", "--methods", "macdonald"], "macdonald.dt = -1\n", None,
         "macdonald.dt", "line 2"),
        (["spectrum", "--methods", "macdonald"], "macdonald.t_max = 0\n", None,
         "macdonald.t_max", "line 2"),
        (["steady"], None, "0", "workers", "DQDNOISE_WORKERS"),
        (["steady"], '{"model.n_fock": 2, "workers": 0}', None, "workers", "JSON key"),
        (["spectrum", "--preset", "fig2"], "spectrum.omega_start = 0.5\n", None,
         "spectrum.omega_start", "line 2"),
        (["spectrum", "--preset", "fig2"], "spectrum.omega_stop = 1.5\n", None,
         "spectrum.omega_stop", "line 2"),
        (["spectrum", "--preset", "fig2"], "spectrum.omega_count = 3\n", None,
         "spectrum.omega_count", "line 2"),
        (["spectrum", "--preset", "fig2"], "spectrum.hamiltonian = full\n", None,
         "spectrum.hamiltonian", "line 2"),
        (["steady", "--preset", "fig4b"], "model.delta = 0.3\nmodel.g = 0.25\n", None,
         "model.g", "line 3"),
        (["steady", "--preset", "fig4b"],
         "sweep.axis1.name = g\nsweep.axis1.values = 0.1,0.2\nsweep.quantities = I_e\n",
         None, "sweep.quantities", "line 4"),
        (["steady", "--preset", "fig4b"], "sweep.preset = fig2\n", None,
         "sweep.preset", "line 2"),
    ], ids=["flag-cutoff-text", "flag-cutoff-0", "file-cutoff-negative",
            "preset-sweep-cutoff-0", "file-dt-negative", "file-t_max-0", "env-workers-0",
            "json-workers-0", "preset-omega_start", "preset-omega_stop", "preset-omega_count",
            "preset-hamiltonian", "preset-flag-model", "preset-flag-manual-sweep",
            "preset-flag-other-preset"])
    def test_bad_setting_is_2(self, tmp_path, monkeypatch, capsys,
                              argv, config, env, key, origin):
        monkeypatch.delenv("DQDNOISE_WORKERS", raising=False)
        if env is not None:
            monkeypatch.setenv("DQDNOISE_WORKERS", env)
        if config is not None:
            text = config if config.startswith("{") else "model.n_fock = 2\n" + config
            argv = argv + ["--config", write(tmp_path, text)]
        out = str(tmp_path / "out.txt")
        assert cli.main(argv + ["--out", out]) == EXIT_CONFIG
        assert f"{key} ({origin})" in capsys.readouterr().err

    def test_macdonald_above_dense_cap_is_2_without_eigvals(self, tmp_path, monkeypatch, capsys):
        calls = []
        eigvals = scipy.linalg.eigvals
        monkeypatch.setattr(scipy.linalg, "eigvals",
                            lambda *a, **k: calls.append(a[0].shape) or eigvals(*a, **k))
        n_fock = 16
        assert generator_plan(n_fock, "full").blocks[0].size == 1445 > DENSE_MAX_DIM
        path = write(tmp_path, f"model.delta = 0.5\nmodel.n_fock = {n_fock}\n"
                               "spectrum.omega_count = 2\n")
        rc = cli.main(["spectrum", "--config", path, "--methods", "macdonald",
                       "--out", str(tmp_path / "out.csv")])
        assert rc == EXIT_CONFIG
        assert "macdonald.t_max required" in capsys.readouterr().err
        assert calls == []

    def test_eigen_above_dense_cap_is_2_without_eig(self, tmp_path, monkeypatch, capsys):
        def no_eig(*args, **kwargs):
            raise AssertionError("dense eig of a kept block above DENSE_MAX_DIM")

        monkeypatch.setattr(scipy.linalg, "eig", no_eig)
        n_fock = 16
        assert generator_plan(n_fock, "full").blocks[0].size == 1445 > DENSE_MAX_DIM
        path = write(tmp_path, f"model.delta = 0.5\nmodel.n_fock = {n_fock}\n"
                               "spectrum.omega_count = 2\n")
        out = tmp_path / "out.csv"
        rc = cli.main(["spectrum", "--config", path, "--methods", "eigen", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert f"DENSE_MAX_DIM = {DENSE_MAX_DIM}" in capsys.readouterr().err
        assert not out.exists()

    def test_eigen_cross_pair_is_2_before_any_factorization(self, tmp_path, monkeypatch,
                                                              capsys):
        calls = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: calls.append(1) or splu(*a, **k))
        path = write(tmp_path, "model.delta = 0.5\nmodel.n_fock = 4\nspectrum.pair = eb\n")
        out = tmp_path / "out.csv"
        rc = cli.main(["spectrum", "--config", path, "--methods", "resolvent,eigen",
                       "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "spectrum.pair = eb: the eigen method" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_bad_method_flag(self, tmp_path):
        path = write(tmp_path, "model.delta = 0.5\n")
        assert cli.main(["spectrum", "--config", path, "--methods", "magic"]) == EXIT_CONFIG


class TestSpectrumCommand:
    def test_csv_schema_and_stability(self, tmp_path):
        cfg = write(tmp_path, "model.delta = 0.5\nmodel.g = 0.1\nmodel.n_fock = 3\n"
                              "spectrum.omega_start = 0.9\nspectrum.omega_stop = 1.1\n"
                              "spectrum.omega_count = 5\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        head = b1.decode().splitlines()[0]
        assert head.startswith("#schema=dqdnoise.spectrum.v1")

    def test_multiple_methods_in_one_file(self, tmp_path):
        cfg = write(tmp_path, "model.delta = 0.5\nmodel.g = 0.1\nmodel.n_fock = 3\n"
                              "spectrum.omega_start = 0.9\nspectrum.omega_stop = 1.1\n"
                              "spectrum.omega_count = 4\n")
        out = tmp_path / "two.csv"
        rc = cli.main(["spectrum", "--config", cfg, "--out", str(out),
                       "--methods", "resolvent,macdonald"])
        assert rc == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        methods = {r[2] for r in rows}
        assert methods == {"resolvent", "macdonald"}
        by = {}
        for w, v, m, *_ in rows:
            by.setdefault(m, {})[w] = float(v)
        worst = max(abs(by["resolvent"][w] - by["macdonald"][w])
                    / abs(by["resolvent"][w]) for w in by["resolvent"])
        assert worst <= 1e-5

    def test_preset_supplies_parameters_and_grid(self, tmp_path):
        out = tmp_path / "fig2.csv"
        rc = cli.main(["spectrum", "--preset", "fig2", "--out", str(out)])
        assert rc == EXIT_OK
        rows = [r for r in out.read_text().splitlines()[2:]]
        assert len(rows) == 161  # the preset's frequency axis
        first = float(rows[0].split(",")[0])
        assert first == pytest.approx(0.2)

    def test_json_format(self, tmp_path):
        cfg = write(tmp_path, "model.delta = 0.5\nmodel.n_fock = 2\n"
                              "spectrum.omega_count = 3\n")
        out = tmp_path / "spec.json"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out),
                         "--format", "json"]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["schema"] == "dqdnoise.spectrum.v1"
        assert len(data["curves"][0]["omega"]) == 3

    def test_macdonald_column_does_not_depend_on_the_other_methods(self, tmp_path):
        """MacDonald's automatic t_max reads the generator's eigenvalues alone,
        so an eigen or resolvent run before it leaves its bits as they are."""
        cfg = write(tmp_path, "model.delta = 0.3\nmodel.g = 0\nmodel.temperature = 0.5\n"
                              "model.n_fock = 6\nspectrum.hamiltonian = jc\n")
        columns = []
        for k, methods in enumerate(["macdonald", "eigen,macdonald",
                                     "resolvent,eigen,macdonald"]):
            out = tmp_path / f"{k}.csv"
            assert cli.main(["spectrum", "--config", cfg, "--methods", methods,
                             "--out", str(out)]) == EXIT_OK
            rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
            columns.append([(w, v) for w, v, m, *_ in rows if m == "macdonald"])
        assert len(columns[0]) == 300
        assert columns[0] == columns[1] == columns[2]


class TestSteadyCommand:
    def test_thermal_fano_reference(self, tmp_path):
        cfg = write(tmp_path, "model.delta = 0.5\nmodel.g = 0\n"
                              "model.temperature = 1\nmodel.n_fock = 30\n")
        out = tmp_path / "steady.json"
        assert cli.main(["steady", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())["report"]
        assert report["fano_q"] == pytest.approx(1.5819767, abs=1e-6)

    def test_17_digit_output(self, tmp_path):
        cfg = write(tmp_path, "model.delta = 0.5\nmodel.n_fock = 2\n")
        out = tmp_path / "steady.json"
        cli.main(["steady", "--config", cfg, "--out", str(out)])
        # every float round-trips exactly through the printed text
        payload = json.loads(out.read_text())
        assert payload["params"]["delta"] == 0.5

    def test_preset_supplies_model_and_hamiltonian(self, tmp_path):
        out = tmp_path / "steady.json"
        assert cli.main(["steady", "--preset", "fig4b", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        spec = preset("fig4b")
        assert payload["params"] == {k: getattr(spec.base, k)
                                     for k in ModelParams.__dataclass_fields__}
        expected = TransportPoint(spec.base, spec.hamiltonian).report.current_e
        assert payload["report"]["current_e"] == expected


class TestSweepCommand:
    def test_csv_output_and_worker_stability(self, tmp_path):
        cfg = write(tmp_path, "model.delta = 0.5\nmodel.n_fock = 3\n"
                              "sweep.axis1.name = g\nsweep.axis1.values = 0,0.1\n"
                              "sweep.quantities = I_e\n")
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out1),
                         "--workers", "1"]) == EXIT_OK
        assert cli.main(["sweep", "--config", cfg, "--out", str(out2),
                         "--workers", "3"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_preset_flag(self, tmp_path):
        out = tmp_path / "grid.json"
        rc = cli.main(["sweep", "--preset", "fig6b", "--out", str(out),
                       "--format", "json", "--fock-cutoff", "4"])
        assert rc == EXIT_OK
        data = json.loads(out.read_text())
        assert data["preset"] == "fig6b"
        assert data["cutoff_used"] == 4

    def test_gaps_serialized_as_null(self, tmp_path):
        cfg = write(tmp_path, "model.delta = 0\nmodel.g = 0\nmodel.n_fock = 2\n"
                              "sweep.axis1.name = epsilon\n"
                              "sweep.axis1.values = 0,0.5\n"
                              "sweep.quantities = S_ee\n")
        out = tmp_path / "gaps.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()[2:]
        assert all(row.endswith(",") for row in rows)  # empty value markers


    def test_unsolvable_point_is_a_null_gap_in_json(self, tmp_path, capsys):
        # epsilon = 1e308 overflows the generator, so that point fails at every omega
        cfg = write(tmp_path, "model.delta = 0.5\nmodel.g = 0.2\nmodel.n_fock = 3\n"
                              "sweep.axis1.name = epsilon\nsweep.axis1.values = 0,1e308\n"
                              "sweep.axis2.name = omega\nsweep.axis2.values = 0.5,1\n"
                              "sweep.quantities = S_ee,I_e\n")
        out = tmp_path / "gaps.json"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                         "--format", "json"]) == EXIT_OK
        assert "warning: 2 grid point(s) failed and were recorded as gaps" in \
            capsys.readouterr().err
        data = json.loads(out.read_text())
        assert [g["index"] for g in data["gaps"]] == [[1, 0], [1, 1]]
        assert all(g["error"].startswith("generator has non-finite entries")
                   for g in data["gaps"])
        for q in ("S_ee", "I_e"):
            assert data["data"][q][1] == [None, None]
            assert all(isinstance(v, float) for v in data["data"][q][0])


class TestFockCutoffAuto:
    def test_steady_and_one_point_sweep_agree(self, tmp_path):
        # the ladder alone gives 5 here; "auto" never goes below model.n_fock
        cfg = write(tmp_path, "model.delta = 0.5\nmodel.g = 0.2\nmodel.n_fock = 20\n"
                              "sweep.axis1.name = omega\nsweep.axis1.values = 0,1\n"
                              "sweep.quantities = I_e\nfock_cutoff = auto\n")
        steady, grid = tmp_path / "steady.json", tmp_path / "grid.json"
        assert cli.main(["steady", "--config", cfg, "--out", str(steady)]) == EXIT_OK
        assert cli.main(["sweep", "--config", cfg, "--out", str(grid),
                         "--format", "json"]) == EXIT_OK
        sweep = json.loads(grid.read_text())
        assert sweep["convergence_report"] == {"mode": "auto", "corners": 1, "cutoff": 20}
        assert json.loads(steady.read_text())["params"]["n_fock"] == sweep["cutoff_used"] == 20


class TestTruncationWarning:
    FIG5 = ("model.delta = 0.1\nmodel.gamma_L = 0.1\nmodel.gamma_R = 0.001\n"
            "model.gamma_b = 0.01\n")

    def run(self, tmp_path, capsys, command, text):
        out = tmp_path / "out"
        assert cli.main([command, "--config", write(tmp_path, self.FIG5 + text),
                         "--out", str(out)]) == EXIT_OK
        return capsys.readouterr().err

    def test_fig5b_point_warns(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "steady",
                       "model.epsilon = 2\nmodel.g = 0.4\nmodel.n_fock = 8\n")
        assert err.count("warning") == 1
        assert "warning: 1 point(s) hold more than 1e-05 of their population in the top " \
               "Fock level (worst 2.432e-04)" in err

    def test_fig5a_point_is_quiet(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "steady",
                       "model.g = 0.0008\nmodel.temperature = 2\nmodel.n_fock = 25\n")
        assert "top Fock" not in err

    def test_sweep_counts_points_and_names_the_worst(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "sweep",
                       "model.n_fock = 8\nsweep.axis1.name = epsilon\n"
                       "sweep.axis1.values = 0,1,2\nsweep.axis2.name = g\n"
                       "sweep.axis2.values = 0,0.4\nsweep.quantities = I_e\n")
        assert "warning: 2 point(s) hold more than 1e-05" in err
        assert "(worst 2.432e-04 at grid index [2, 1])" in err


class TestCheckCommand:
    def test_eigenvalue_checks_solve_every_block(self, monkeypatch):
        sizes = []
        eigvals = scipy.linalg.eigvals
        monkeypatch.setattr(scipy.linalg, "eigvals",
                            lambda a, *r, **k: sizes.append(a.shape[0]) or eigvals(a, *r, **k))
        liouv = TransportPoint(ModelParams(delta=0.5, g=0.2, temperature=1.0, n_fock=4)).liouv
        results = checks._eigenvalue_checks(liouv, "unit-test")
        d2 = liouv.dim_rho**2
        assert sum(sizes) == d2  # the kept block and both coherence halves
        assert sorted(sizes) == [2 * d2 // 9, 2 * d2 // 9, 5 * d2 // 9]
        assert [r.passed for r in results] == [True, True, True]

    def test_spectrum_solves_each_coherence_half_once(self, monkeypatch):
        calls = []
        eig = scipy.linalg.eig
        monkeypatch.setattr(scipy.linalg, "eig", lambda a, *r, **k:
                            calls.append((a.shape[0], a.dtype.kind)) or eig(a, *r, **k))
        point = TransportPoint(ModelParams(delta=0.5, g=0.2, temperature=1.0, n_fock=4))
        compute_spectrum(point.liouv, point.ss, [(("e", "e"), "fano")], 0.5, method="eigen")
        d2 = point.liouv.dim_rho**2
        # the eigen method: the kept block's real eig, then one complex eig per coherence half
        assert calls == [(5 * d2 // 9, "f"), (2 * d2 // 9, "c"), (2 * d2 // 9, "c")]

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_conjugate_pair_check_sees_one_perturbed_coherence_entry(self, temperature):
        """The mirrored halves are exact conjugates, so a true generator's pairing
        defect can read 0; the check must still see one (0, X) entry moved by 1e-6."""
        liouv = TransportPoint(ModelParams(delta=0.5, g=0.2, temperature=temperature,
                                           n_fock=4)).liouv
        assert all(r.passed for r in checks._eigenvalue_checks(liouv, "unit-test"))
        k = liouv.blocks[1][0]  # a diagonal entry of the (0, X) half
        indices, indptr = liouv.pattern
        data = liouv.data.copy()
        data[indptr[k] + np.flatnonzero(indices[indptr[k]:indptr[k + 1]] == k)] *= 1 + 1e-6
        results = {r.name: r for r in checks._eigenvalue_checks(replace(liouv, data=data),
                                                                "unit-test")}
        assert not results["conjugate-pair-symmetry"].passed
        assert results["eigenvalue-half-plane"].passed
        assert results["unique-stationary-state"].passed

    def test_fast_suite_passes(self, capsys):
        assert cli.main(["check", "--check", "fast"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "invariants passed" in out
        assert "FAIL" not in out
