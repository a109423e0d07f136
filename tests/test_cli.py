from __future__ import annotations

import json
import logging
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qrff
from qrff import qsim
from qrff.cli import (
    RunConfig,
    emit_outputs,
    generate_dataset,
    load_config,
    main,
    run_experiment,
)
from qrff.errors import ConfigError
from qrff.rff import build_feature_model, rff_posterior, sample_frequencies

SMALL = dict(n_points=4, n_frequencies=2, tau=8, grid_count=6, seed_freq=1)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.n_points == 16 and cfg.tau == 13 and cfg.shots == 1_000_000

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_points": 8, "bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(path), {})

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tau": 9, "shots": 5}))
        cfg = load_config(str(path), {"tau": 11, "mode": None})
        assert cfg.tau == 11 and cfg.shots == 5

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            RunConfig(n_points=0)
        with pytest.raises(ConfigError):
            RunConfig(grid_count=0)
        with pytest.raises(ConfigError):
            RunConfig(mode="banana")
        with pytest.raises(ConfigError):
            RunConfig(dim=2)
        with pytest.raises(ConfigError):
            RunConfig(noise_std=-1.0)

    def test_unreadable_file(self):
        with pytest.raises(ConfigError):
            load_config("/definitely/not/here.json", {})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path), {})


class TestGenerateDataset:
    def test_zero_noise_exact_sine(self):
        ds = generate_dataset(RunConfig(**{**SMALL, "noise_std": 0.0}))
        assert np.array_equal(ds.targets, np.sin(ds.inputs[:, 0]))

    def test_deterministic(self):
        a = generate_dataset(RunConfig(**SMALL))
        b = generate_dataset(RunConfig(**SMALL))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_noise_moment(self):
        cfg = RunConfig(n_points=10_000, seed_data=5)
        ds = generate_dataset(cfg)
        resid = ds.targets - np.sin(ds.inputs[:, 0])
        assert 0.097 <= resid.std() <= 0.103

    def test_random_layout(self):
        cfg = RunConfig(**{**SMALL, "input_layout": "random"})
        ds = generate_dataset(cfg)
        assert ds.inputs.min() >= cfg.grid_lo and ds.inputs.max() <= cfg.grid_hi
        assert not np.allclose(np.diff(ds.inputs[:, 0]), np.diff(ds.inputs[:, 0])[0])


class TestRunExperiment:
    def test_small_run_consistency(self, tmp_path):
        cfg = RunConfig(**SMALL, out_dir=str(tmp_path / "o"))
        report = run_experiment(cfg)
        assert len(report.records) == cfg.grid_count
        assert report.summary["rmse_mean_qrff_vs_rff"] >= 0
        # orchestration self-consistency: the rff column reproduces the oracle
        ds = generate_dataset(cfg)
        freq = sample_frequencies(cfg.n_frequencies, cfg.hyper, 1, cfg.seed_freq)
        fm = build_feature_model(ds, freq, cfg.hyper)
        post = rff_posterior(fm, ds.targets, [rec.x for rec in report.records], cfg.hyper)
        for i, rec in enumerate(report.records):
            assert rec.mean_rff == pytest.approx(post.mean[i], abs=1e-8)
            assert rec.var_rff == pytest.approx(post.variance[i], abs=1e-8)

    def test_degenerate_single_point(self):
        cfg = RunConfig(n_points=1, n_frequencies=1, tau=6, grid_count=3, seed_freq=2)
        report = run_experiment(cfg)
        assert len(report.records) == 3
        assert all(np.isfinite(r.mean_qrff) for r in report.records)

    def test_setup_width_is_the_whole_qubit_budget(self, monkeypatch):
        # min(4 row, 2 col) + 11 phase = 13: the phase table fits the cap
        # exactly, and nothing after it may need a wider state
        monkeypatch.setattr(qsim, "MAX_QUBITS", 13)
        report = run_experiment(RunConfig(n_points=16, n_frequencies=2, tau=11, grid_count=3))
        assert all(np.isfinite(r.var_qrff) for r in report.records)


class TestEmitOutputs:
    def test_file_shapes_and_reemission(self, tmp_path):
        cfg = RunConfig(**SMALL, out_dir=str(tmp_path / "out"))
        report = run_experiment(cfg)
        paths = emit_outputs(report, cfg)
        csv_path = pathlib.Path(paths[0])
        lines = csv_path.read_bytes().split(b"\n")
        assert lines[0] == b"x,mean_exact,var_exact,mean_rff,var_rff,mean_qrff,var_qrff,p1,p2"
        assert len([ln for ln in lines if ln]) == 1 + cfg.grid_count
        before = [pathlib.Path(p).read_bytes() for p in paths]
        emit_outputs(report, cfg)
        after = [pathlib.Path(p).read_bytes() for p in paths]
        assert before == after

    def test_nine_significant_digits(self, tmp_path):
        cfg = RunConfig(**SMALL, out_dir=str(tmp_path / "out"))
        report = run_experiment(cfg)
        emit_outputs(report, cfg)
        line = (pathlib.Path(cfg.out_dir) / "results.csv").read_text().splitlines()[1]
        first = line.split(",")[1]
        assert first == format(report.records[0].mean_exact, ".9g")

    def test_summary_key_value_lines(self, tmp_path):
        cfg = RunConfig(**SMALL, out_dir=str(tmp_path / "out"))
        report = run_experiment(cfg)
        emit_outputs(report, cfg)
        text = (pathlib.Path(cfg.out_dir) / "summary.txt").read_text()
        assert text.endswith("\n")
        for line in text.splitlines():
            key, sep, value = line.partition(" = ")
            assert sep and key and float(value) is not None

    def test_summary_reports_uncompute_leakage(self, tmp_path):
        cfg = RunConfig(**SMALL, out_dir=str(tmp_path / "out"))
        emit_outputs(run_experiment(cfg), cfg)
        summary = dict(
            line.split(" = ")
            for line in (pathlib.Path(cfg.out_dir) / "summary.txt").read_text().splitlines()
        )
        for key in ("uncompute_leakage_mean", "uncompute_leakage_variance"):
            assert -1e-12 <= float(summary[key]) < 1.0
        header = (pathlib.Path(cfg.out_dir) / "results.csv").read_text().splitlines()[0]
        assert "leakage" not in header

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(
            ["compare", "--tau", "8", "--out", str(blocker / "sub")]
        )  # out dir under a regular file
        assert rc == 5
        assert "error:" in capsys.readouterr().err


class TestMainExitCodes:
    def test_success_and_outputs(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--tau",
                "8",
                "--seed-freq",
                "1",
                "--out",
                str(tmp_path / "res"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "results.csv" in out and "rmse_mean_qrff_vs_rff" in out

    def test_config_error_is_2(self, capsys):
        assert main(["compare", "--config", "/missing.json"]) == 2

    def test_capacity_error_is_3(self, tmp_path, capsys):
        rc = main(["compare", "--tau", "25", "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_post_selection_error_is_4(self, tmp_path, capsys):
        # one shot with acceptance probability well below 1: some seed rejects it
        rc_by_seed = set()
        for seed in range(12):
            rc = rc_by_seed.add(
                main(
                    [
                        "run-quantum",
                        "--tau",
                        "8",
                        "--mode",
                        "sampled",
                        "--shots",
                        "1",
                        "--seed-shots",
                        str(seed),
                        "--out",
                        str(tmp_path / f"r{seed}"),
                    ]
                )
            )
        assert 4 in rc_by_seed

    @pytest.mark.parametrize(
        "command, flags, config",
        [
            ("compare", ["--seed-data", "-1"], None),
            ("compare", ["--seed-freq", "-3"], None),
            ("compare", ["--seed-shots", "-2"], None),
            ("compare", ["--delta-r", "nan"], None),
            ("compare", ["--delta-r", "-0.5"], None),
            ("compare", [], {"seed_data": 1.5}),
            ("compare", [], {"tau": 6.5}),
            ("compare", [], {"shots": True}),
            ("compare", [], {"out_dir": 5}),
            ("fit-exact", [], {"grid_lo": float("nan")}),
            ("compare", [], {"noise_std": 0.0, "n_points": 1}),
        ],
        ids=[
            "negative-seed-data",
            "negative-seed-freq",
            "negative-seed-shots",
            "nan-delta-r",
            "negative-delta-r",
            "fractional-seed",
            "fractional-tau",
            "bool-shots",
            "numeric-out-dir",
            "nan-grid-lo",
            "singular-rff-posterior",
        ],
    )
    def test_bad_values_exit_2(self, tmp_path, capsys, command, flags, config):
        args = [command, *flags]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        if "out_dir" not in (config or {}):
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_exact_baseline_larger_than_a_state_is_3(self, tmp_path, capsys, monkeypatch):
        # cap 10: the 8 N^2 bytes of the Gram matrix fit 16 * 2^10 up to N = 45
        monkeypatch.setattr(qsim, "MAX_QUBITS", 10)
        for n_points, code in ((46, 3), (45, 0)):
            path = tmp_path / f"cfg{n_points}.json"
            path.write_text(json.dumps({"n_points": n_points, "grid_count": 2}))
            out = str(tmp_path / f"out{n_points}")
            assert main(["fit-exact", "--config", str(path), "--out", out]) == code
            err = capsys.readouterr().err
            if code:
                assert err.startswith("error: CapacityError: ") and err.count("\n") == 1
            else:
                assert err == ""

    def test_singular_exact_system_is_2_after_logged_jitter(
        self, tmp_path, capsys, caplog, monkeypatch
    ):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_points": 8, "grid_count": 2}))
        with caplog.at_level(logging.WARNING, logger="qrff.kernel"):
            code = main(["fit-exact", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "jitter" in caplog.text
        err = capsys.readouterr().err
        assert err.startswith("error: LinAlgError: ") and err.count("\n") == 1
        assert "singular even after jitter" in err

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS: phase table matches the dense pipeline" in out


class TestDeterminism:
    def test_byte_identical_csvs_both_modes(self, tmp_path):
        for mode in ("exact", "sampled"):
            outs = []
            for run in range(2):
                cfg = RunConfig(
                    **SMALL,
                    mode=mode,
                    shots=2000,
                    out_dir=str(tmp_path / f"{mode}{run}"),
                )
                emit_outputs(run_experiment(cfg), cfg)
                outs.append(
                    (pathlib.Path(cfg.out_dir) / "results.csv").read_bytes()
                )
            assert outs[0] == outs[1]


def test_cli_import_leaves_scipy_unloaded():
    src = str(pathlib.Path(qrff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, qrff.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"
