from __future__ import annotations

import gc
import json
import logging
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qrff
from qrff import cli, errors
from qrff.cli import (
    RunConfig,
    emit_outputs,
    generate_dataset,
    load_config,
    main,
)
from qrff.errors import CapacityError, ConfigError
from qrff.pipeline import PreparedPipeline
from qrff.rff import build_feature_model, rff_posterior, sample_frequencies

import config_sweep

SMALL = dict(n_points=4, n_frequencies=2, tau=8, grid_count=6, seed_freq=1)

_ALL = ("fit-exact", "fit-rff", "run-quantum", "compare")


def _ten_to(digits: int) -> str:
    """10**digits as JSON text; json.dumps refuses integers past 4,300 digits."""
    return "1" + "0" * digits


#: bad inputs, as config text, and the error each command reports (None: exit 0)
_BAD_INPUTS = {
    "grid-span-overflows": ('{"grid_lo": -1e308, "grid_hi": 1e308}', ["ConfigError"] * 4),
    # the feature phase 2*pi*x.s overflows; the exact baseline builds no features
    "feature-phase-overflows": (
        '{"grid_hi": 1e308, "length_scale": 0.001}',
        [None, "ConfigError", "ConfigError", "ConfigError"],
    ),
    "one-noiseless-point": (
        '{"n_points": 1, "noise_std": 0}',
        [None, "ConfigError", "ConfigError", "ConfigError"],
    ),
    # the design's Frobenius norm underflows to 0, though signal_std's square does not
    "signal-std-2.3e-162": ('{"signal_std": 2.3e-162}', [None] + ["ConfigError"] * 3),
    # noise_std**2 / frobenius_norm**2 overflows
    "signal-std-1e-158": ('{"signal_std": 1e-158}', [None, None, "ConfigError", "ConfigError"]),
    # the targets' norm overflows
    "noise-std-1.3e154": ('{"noise_std": 1.3e154}', [None, None, "ConfigError", "ConfigError"]),
    # beyond every double
    "signal-std-int-1e400": (f'{{"signal_std": {_ten_to(400)}}}', ["ConfigError"] * 4),
    "grid-lo-int-minus-1e400": (f'{{"grid_lo": -{_ten_to(400)}}}', ["ConfigError"] * 4),
    # a double whose square overflows, though the integer's square does not
    "signal-std-int-1e200": (f'{{"signal_std": {_ten_to(200)}}}', ["ConfigError"] * 4),
    "length-scale-int-1e200": (f'{{"length_scale": {_ten_to(200)}}}', ["ConfigError"] * 4),
    # past Python's integer-parsing digit limit
    "tau-int-1e5000": (f'{{"tau": {_ten_to(5000)}}}', ["ConfigError"] * 4),
    **{
        f"{key}-2**60": (f'{{"{key}": {2**60}}}', ["CapacityError"] * 2)
        for key in ("n_points", "grid_count", "n_frequencies")
    },
}
_BAD_INPUT_RUNS = [
    pytest.param(command, text, error, id=f"{name}-{command}")
    for name, (text, errors_by_command) in _BAD_INPUTS.items()
    for command, error in zip(_ALL, errors_by_command)
]


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
        # numpy's binomial draws take a C long
        with pytest.raises(ConfigError, match="shots"):
            RunConfig(shots=2**63)
        assert RunConfig(shots=2**63 - 1).shots == 2**63 - 1
        # past 4,300 digits an int has no repr, so a message must not hold its digits
        for key in ("signal_std", "shots", "mode"):
            for value in (10**5000, -(10**5000), 10**400):
                with pytest.raises(ConfigError, match=key) as exc:
                    RunConfig(**{key: value})
                assert len(str(exc.value)) < 200
        with pytest.raises(ConfigError, match="n_points") as exc:
            RunConfig(n_points=[10**5000])
        assert len(str(exc.value)) < 200
        with pytest.raises(ConfigError, match="mode") as exc:
            RunConfig(mode="x" * 10**6)
        assert len(str(exc.value)) < 200

    def test_float_keys_are_held_as_floats(self):
        cfg = RunConfig(grid_lo=-1, signal_std=2, delta_r=3)
        assert [type(v) for v in (cfg.grid_lo, cfg.signal_std, cfg.delta_r)] == [float] * 3

    def test_only_delta_r_may_be_null(self):
        assert RunConfig(delta_r=None).delta_r is None
        for key in ("grid_lo", "grid_hi", "signal_std", "length_scale", "noise_std"):
            with pytest.raises(ConfigError, match=key):
                RunConfig(**{key: None})

    def test_unknown_override_keys_are_refused(self):
        with pytest.raises(ConfigError, match="bogus"):
            load_config(None, {"bogus": 1})

    def test_unknown_keys_are_shown_cut_and_counted(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k" * 100_000: 1}))
        assert main(["fit-rff", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: unknown config keys: ['kkk")
        assert err.count("\n") == 1 and len(err.encode()) < 300
        with pytest.raises(ConfigError, match=r"\['a', 'b', 'c'\] and 2 more$"):
            load_config(None, {key: 1 for key in "edcba"})

    @pytest.mark.parametrize("key", ["n_points", "n_frequencies", "grid_count"])
    def test_sizes_are_below_2_to_the_59(self, key):
        with pytest.raises(CapacityError, match=key):
            RunConfig(**{key: 2**59})
        assert getattr(RunConfig(**{key: 2**59 - 1}), key) == 2**59 - 1

    def test_unreadable_file(self):
        with pytest.raises(ConfigError):
            load_config("/definitely/not/here.json", {})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    @pytest.mark.parametrize("text", ["[1, 2]", "7", "null"], ids=["array", "number", "null"])
    def test_a_file_not_holding_an_object_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["fit-exact", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: ConfigError: config file must hold a JSON object\n"


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
        col, summary = cli._run_stages(cfg, "compare")
        assert len(col["x"]) == cfg.grid_count
        assert summary["rmse_mean_qrff_vs_rff"] >= 0
        # orchestration self-consistency: the rff column reproduces the oracle
        ds = generate_dataset(cfg)
        freq = sample_frequencies(cfg.n_frequencies, cfg.hyper, 1, cfg.seed_freq)
        fm = build_feature_model(ds, freq, cfg.hyper)
        post = rff_posterior(fm, col["x"])
        for i in range(cfg.grid_count):
            assert col["mean_rff"][i] == pytest.approx(post.mean[i], abs=1e-8)
            assert col["var_rff"][i] == pytest.approx(post.variance[i], abs=1e-8)

    def test_degenerate_single_point(self):
        cfg = RunConfig(n_points=1, n_frequencies=1, tau=6, grid_count=3, seed_freq=2)
        columns, _ = cli._run_stages(cfg, "compare")
        assert len(columns["x"]) == 3
        assert np.isfinite(columns["mean_qrff"]).all()

    def test_setup_fits_its_byte_budget(self, monkeypatch):
        # N=16, M=2, tau 11: the rank-4 table and three profiles take
        # 8 x (4 + 3) x 2^11 bytes = 112 KiB of the 128 KiB of one 13-qubit
        # state, and nothing after the setup is counted against the cap
        monkeypatch.setattr(errors, "MAX_QUBITS", 13)
        cfg = RunConfig(n_points=16, n_frequencies=2, tau=11, grid_count=3)
        columns, _ = cli._run_stages(cfg, "compare")
        assert np.isfinite(columns["var_qrff"]).all()


class TestEmitOutputs:
    def test_file_shapes_and_reemission(self, tmp_path):
        cfg = RunConfig(**SMALL, out_dir=str(tmp_path / "out"))
        columns, summary = cli._run_stages(cfg, "compare")
        paths = emit_outputs(columns, summary, cfg.out_dir)
        csv_path = pathlib.Path(paths[0])
        lines = csv_path.read_bytes().split(b"\n")
        assert lines[0] == b"x,mean_exact,var_exact,mean_rff,var_rff,mean_qrff,var_qrff,p1,p2"
        assert len([ln for ln in lines if ln]) == 1 + cfg.grid_count
        before = [pathlib.Path(p).read_bytes() for p in paths]
        emit_outputs(columns, summary, cfg.out_dir)
        after = [pathlib.Path(p).read_bytes() for p in paths]
        assert before == after

    def test_nine_significant_digits(self, tmp_path):
        cfg = RunConfig(**SMALL, out_dir=str(tmp_path / "out"))
        columns, summary = cli._run_stages(cfg, "compare")
        emit_outputs(columns, summary, cfg.out_dir)
        line = (pathlib.Path(cfg.out_dir) / "results.csv").read_text().splitlines()[1]
        first = line.split(",")[1]
        assert first == format(columns["mean_exact"][0], ".9g")

    @pytest.mark.parametrize(
        "command, header",
        [
            ("fit-exact", "x,mean_exact,var_exact"),
            ("fit-rff", "x,mean_rff,var_rff"),
            ("run-quantum", "x,mean_qrff,var_qrff,p1,p2"),
            ("compare", "x,mean_exact,var_exact,mean_rff,var_rff,mean_qrff,var_qrff,p1,p2"),
        ],
    )
    def test_each_command_writes_its_own_columns(self, tmp_path, command, header):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SMALL))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        csv_lines = (out / "results.csv").read_text().splitlines()
        plot_lines = (out / "plot.dat").read_text().splitlines()
        assert csv_lines[0] == header
        assert plot_lines[0] == "# " + header.replace(",", " ")
        width = header.count(",") + 1
        assert len(csv_lines) == len(plot_lines) == 1 + SMALL["grid_count"]
        assert all(len(line.split(",")) == width for line in csv_lines[1:])
        assert all(len(line.split()) == width for line in plot_lines[1:])

    def test_summary_key_value_lines(self, tmp_path):
        cfg = RunConfig(**SMALL, out_dir=str(tmp_path / "out"))
        emit_outputs(*cli._run_stages(cfg, "compare"), cfg.out_dir)
        text = (pathlib.Path(cfg.out_dir) / "summary.txt").read_text()
        assert text.endswith("\n")
        for line in text.splitlines():
            key, sep, value = line.partition(" = ")
            assert sep and key and float(value) is not None

    def test_summary_reports_uncompute_leakage(self, tmp_path):
        cfg = RunConfig(**SMALL, out_dir=str(tmp_path / "out"))
        emit_outputs(*cli._run_stages(cfg, "compare"), cfg.out_dir)
        summary = dict(
            line.split(" = ")
            for line in (pathlib.Path(cfg.out_dir) / "summary.txt").read_text().splitlines()
        )
        for key in ("uncompute_leakage_mean", "uncompute_leakage_variance"):
            assert -1e-12 <= float(summary[key]) < 1.0
        header = (pathlib.Path(cfg.out_dir) / "results.csv").read_text().splitlines()[0]
        assert "leakage" not in header

    @pytest.mark.parametrize("command", ["compare", "run-quantum"])
    def test_summary_reports_shot_noise_in_sampled_mode_only(self, tmp_path, command):
        keys = ("rmse_mean_shot_noise", "max_abs_var_gap_shot_noise")
        runs = {}
        for mode in ("exact", "sampled"):
            out = tmp_path / mode
            config = tmp_path / f"{mode}.json"
            config.write_text(json.dumps({**SMALL, "mode": mode, "shots": 2000}))
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
            summary = dict(
                line.split(" = ") for line in (out / "summary.txt").read_text().splitlines()
            )
            rows = np.genfromtxt(out / "results.csv", delimiter=",", names=True)
            runs[mode] = summary, rows
            assert "shot_noise" not in (out / "results.csv").read_text()
        assert not any(key in runs["exact"][0] for key in keys)
        sampled, rows = runs["sampled"]
        _, exact_rows = runs["exact"]
        # the csv's nine digits bound how closely the recomputed gaps can agree
        rmse = np.sqrt(np.mean((rows["mean_qrff"] - exact_rows["mean_qrff"]) ** 2))
        gap = np.max(np.abs(rows["var_qrff"] - exact_rows["var_qrff"]))
        assert float(sampled[keys[0]]) == pytest.approx(rmse, rel=1e-6, abs=1e-9)
        assert float(sampled[keys[1]]) == pytest.approx(gap, rel=1e-6, abs=1e-9)
        assert float(sampled[keys[0]]) > 0.0

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
            ("run-quantum", ["--mode", "sampled", "--shots", "100000000000000000000"], None),
            ("run-quantum", [], {"mode": "sampled", "shots": 2**63}),
            ("run-quantum", ["--mode", "banana"], None),
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
            "overflowing-shots-flag",
            "overflowing-shots-json",
            "unknown-mode-flag",
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

    @pytest.mark.parametrize("command", ["fit-exact", "fit-rff", "run-quantum"])
    @pytest.mark.parametrize(
        "config",
        [
            {"signal_std": 1e200},
            {"noise_std": 1e200},
            {"length_scale": 1e200},
            {"length_scale": 1e-300},
        ],
        ids=[
            "signal-square-overflows",
            "noise-square-overflows",
            "length-square-overflows",
            "length-square-underflows",
        ],
    )
    def test_hyperparameters_without_a_usable_square_exit_2(
        self, tmp_path, capsys, command, config
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, error", _BAD_INPUT_RUNS)
    def test_bad_inputs_report_one_error_line(self, tmp_path, capsys, command, text, error):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if error is None:
            assert code == 0 and err == ""
        else:
            assert code == (3 if error == "CapacityError" else 2)
            assert err.startswith(f"error: {error}: ") and err.count("\n") == 1

    # at N=512 the exact baseline's valid configs take the low-rank path; at
    # M=64 a grid end of 1e308 overflows the feature phase
    @pytest.mark.parametrize(
        "base",
        [{}, {"n_points": 512}, {"n_frequencies": 64}],
        ids=["defaults", "n512", "m64"],
    )
    def test_extreme_value_sweep_exits_cleanly(self, tmp_path, base):
        failures, _ = config_sweep.sweep(str(tmp_path), base)
        assert failures == []

    @pytest.mark.parametrize(
        "n_points, refused",
        [(46, "Gram matrix at N = 46"), (44, "dense factor at N = 44"), (43, None)],
        ids=["gram-matrix", "dense-factor", "fits"],
    )
    def test_exact_baseline_larger_than_a_state_is_3(
        self, tmp_path, capsys, monkeypatch, n_points, refused
    ):
        # cap 10, 16 * 2^10 bytes: the Gram matrix's 8 N^2 fit up to N = 45,
        # the dense solve's (N + 3) x N factor up to N = 43; with the default
        # length scale the low-rank try fails at N = 44, so the dense solve runs
        monkeypatch.setattr(errors, "MAX_QUBITS", 10)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_points": n_points, "grid_count": 2}))
        code = main(["fit-exact", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if refused:
            assert code == 3
            assert err.startswith("error: CapacityError: the exact baseline's " + refused)
            assert err.count("\n") == 1
        else:
            assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "config, code, message",
        [
            ({"tau": 25}, 3, "CapacityError: the phase table"),
            ({"tau": 3}, 2, "ConfigError: a retained singular value decodes to eigenvalue bin 0"),
            ({"delta_r": 0.01}, 2, "ConfigError: delta_r=0.01 must exceed"),
            ({"noise_std": 1.3e154}, 2, "ConfigError: the targets' norm overflows"),
        ],
        ids=[
            "phase-table-too-wide",
            "top-bin-wraps",
            "delta-r-below-top-eigenvalue",
            "targets-norm-overflows",
        ],
    )
    def test_compare_refuses_before_the_exact_baseline(
        self, tmp_path, capsys, monkeypatch, config, code, message
    ):
        def refuse(*args):
            raise AssertionError("the exact baseline ran on a config the pipeline refuses")

        monkeypatch.setattr(cli, "exact_posterior", refuse)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "grid_count": 2}))
        for command in ("run-quantum", "compare"):
            args = [command, "--config", str(path), "--out", str(tmp_path / command)]
            assert main(args) == code
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["grid_count", "n_points"])
    def test_impossible_allocation_is_3(self, tmp_path, capsys, key):
        # 2^40 float64 values are 8 TiB, an array numpy cannot allocate
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: 2**40}))
        assert main(["fit-rff", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: MemoryError: ") and err.count("\n") == 1

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
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert "singular even after jitter" in err

    def test_largest_shot_count_runs(self, tmp_path):
        args = ["run-quantum", "--mode", "sampled", "--shots", str(2**63 - 1)]
        assert main([*args, "--out", str(tmp_path)]) == 0

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS: phase table matches the dense pipeline",
            "PASS: encoding circuit equals the scaled design",
            "selftest: OK",
        ]

    def test_selftest_fails_on_a_perturbed_closed_form(self, capsys, monkeypatch):
        init = PreparedPipeline.__init__

        def perturbed(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.mean_weights = self.mean_weights * (1 + 1e-9)

        monkeypatch.setattr(PreparedPipeline, "__init__", perturbed)
        assert main(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL: phase table matches the dense pipeline",
            "PASS: encoding circuit equals the scaled design",
            "selftest: 1 failure(s)",
        ]

    def test_selftest_fails_on_a_perturbed_encoding_circuit(self, capsys, monkeypatch):
        from qrff import qsim

        prepare = qsim.prepare_data_state

        def perturbed(fm):
            sv = prepare(fm)
            return qsim.apply_circuit(sv, [qsim.GateOp.ry(1e-9, sv.register("col").offset)])

        monkeypatch.setattr(qsim, "prepare_data_state", perturbed)
        assert main(["selftest"]) == 1
        # the dense oracle runs on the perturbed state too, so both lines fail
        assert capsys.readouterr().out.splitlines() == [
            "FAIL: phase table matches the dense pipeline",
            "FAIL: encoding circuit equals the scaled design",
            "selftest: 2 failure(s)",
        ]


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
                emit_outputs(*cli._run_stages(cfg, "compare"), cfg.out_dir)
                outs.append(
                    (pathlib.Path(cfg.out_dir) / "results.csv").read_bytes()
                )
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_paper_config_matches_its_golden_csv(self, tmp_path, mode):
        # the bytes `qrff compare` wrote on the default config, frozen in tests/data
        cfg = RunConfig(mode=mode, out_dir=str(tmp_path))
        emit_outputs(*cli._run_stages(cfg, "compare"), cfg.out_dir)
        golden = pathlib.Path(__file__).parent / "data" / f"compare_{mode}_results.csv"
        assert (tmp_path / "results.csv").read_bytes() == golden.read_bytes()


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports this package."""
    src = str(pathlib.Path(qrff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys, qrff.cli; "
        "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'logging')])"
    )
    out = _fresh("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_fit_exact_at_n1024_reproduces_the_committed_results(tmp_path):
    # written by the blocked dense solve alone, before the exact baseline first
    # tried a low-rank solve; the benchmark's classical_n1024 config at seed 0
    data = pathlib.Path(__file__).parent / "data"
    config = str(data / "fit_exact_n1024_config.json")
    assert main(["fit-exact", "--config", config, "--out", str(tmp_path)]) == 0
    golden = (data / "fit_exact_n1024_results.csv").read_bytes()
    assert (tmp_path / "results.csv").read_bytes() == golden


def test_fit_exact_dense_at_n512_reproduces_the_committed_results(tmp_path):
    # written before both exact solves took one point set; at length scale
    # 0.05 the low-rank try reaches its cap of 46 and the dense solve answers
    # in 16 blocks
    data = pathlib.Path(__file__).parent / "data"
    config = str(data / "fit_exact_dense_n512_config.json")
    assert main(["fit-exact", "--config", config, "--out", str(tmp_path)]) == 0
    golden = (data / "fit_exact_dense_n512_results.csv").read_bytes()
    assert (tmp_path / "results.csv").read_bytes() == golden


def test_compare_at_n512_reproduces_the_committed_results(tmp_path):
    # written before the exact baseline's kernel columns came from one function;
    # the benchmark's wide_n512 config at seed 0, where the pivot cap sits
    # closest to the rank
    data = pathlib.Path(__file__).parent / "data"
    config = str(data / "compare_n512_config.json")
    assert main(["compare", "--config", config, "--out", str(tmp_path)]) == 0
    golden = (data / "compare_n512_results.csv").read_bytes()
    assert (tmp_path / "results.csv").read_bytes() == golden


class TestProgramEntry:
    """``python -m qrff.cli`` as a process: its frozen start-up heap still exits cleanly."""

    def test_paper_compare_writes_and_prints_everything(self, tmp_path):
        out_dir = tmp_path / "out"
        run = _fresh("-m", "qrff.cli", "compare", "--out", str(out_dir))
        assert run.returncode == 0, run.stderr
        assert run.stderr == ""
        golden = pathlib.Path(__file__).parent / "data" / "compare_exact_results.csv"
        assert (out_dir / "results.csv").read_bytes() == golden.read_bytes()
        names = ("results.csv", "summary.txt", "plot.dat")
        summary = (out_dir / "summary.txt").read_text().splitlines()
        assert "rmse_mean_qrff_vs_rff" in {line.split(" = ")[0] for line in summary}
        assert run.stdout.splitlines() == [
            *(f"wrote {os.path.join(out_dir, name)}" for name in names),
            *summary,
        ]

    def test_refusal_prints_one_error_line(self, tmp_path):
        run = _fresh("-m", "qrff.cli", "compare", "--tau", "25", "--out", str(tmp_path))
        assert run.returncode == 3
        assert run.stderr.startswith("error: CapacityError: ")
        assert run.stderr.count("\n") == 1 and run.stdout == ""

    def test_program_entry_freezes_the_start_up_heap(self, tmp_path):
        code = (
            "import gc, sys; from qrff.cli import main; "
            "sys.argv[1:] = ['fit-rff', '--out', sys.argv[1]]; "
            "print(main(), gc.get_freeze_count() > 0)"
        )
        run = _fresh("-c", code, str(tmp_path))
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 True"

    def test_in_process_main_leaves_the_heap_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["fit-rff", "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == before
