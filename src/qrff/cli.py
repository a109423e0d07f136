"""Experiment driver: dataset generation, baselines, quantum runs, reports.

Subcommands
-----------
``fit-exact``    dense GP posterior over the query grid
``fit-rff``      reduced-rank (random Fourier feature) posterior
``run-quantum``  quantum pipeline posterior
``compare``      all three, with error summaries
``selftest``     quick invariant battery of the simulator

All randomness is seeded explicitly; two runs with the same configuration
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .errors import ConfigError, IoError, QrffError
from .kernel import Dataset, KernelHyper, exact_posterior
from .pipeline import PreparedPipeline, dense_oracle, prepare_data_state
from .rff import build_feature_model, rff_posterior, sample_frequencies

_CSV_HEADER = "x,mean_exact,var_exact,mean_rff,var_rff,mean_qrff,var_qrff,p1,p2"


@dataclass(frozen=True)
class RunConfig:
    """Fully explicit experiment configuration (defaults reproduce the bundled study)."""

    n_points: int = 16
    n_frequencies: int = 2
    dim: int = 1
    grid_count: int = 50
    grid_lo: float = 0.0
    grid_hi: float = 2.0 * np.pi
    signal_std: float = 1.5
    length_scale: float = 1.0
    noise_std: float = 0.1
    tau: int = 13
    shots: int = 1_000_000
    seed_data: int = 0
    seed_freq: int = 21
    seed_shots: int = 1234
    delta_r: float | None = None
    mode: str = "exact"
    input_layout: str = "uniform"
    out_dir: str = "results"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type.startswith("float") and value is not None and (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "str" and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string, got {value!r}")
        if min(self.seed_data, self.seed_freq, self.seed_shots) < 0:
            raise ConfigError("seed_data, seed_freq, and seed_shots must be non-negative")
        if self.delta_r is not None and self.delta_r <= 0:
            raise ConfigError(f"delta_r must be positive, got {self.delta_r!r}")
        if self.n_points < 1 or self.n_frequencies < 1 or self.tau < 1:
            raise ConfigError("n_points, n_frequencies, and tau must be positive")
        if self.dim != 1:
            raise ConfigError("the experiment driver supports dim=1 only")
        if self.grid_count < 1:
            raise ConfigError("grid_count must be positive")
        if self.shots < 1:
            raise ConfigError("shots must be positive")
        if self.mode not in ("exact", "sampled"):
            raise ConfigError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.input_layout not in ("uniform", "random"):
            raise ConfigError(
                f"input_layout must be 'uniform' or 'random', got {self.input_layout!r}"
            )
        try:
            KernelHyper(self.signal_std, self.length_scale, self.noise_std)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def hyper(self) -> KernelHyper:
        return KernelHyper(self.signal_std, self.length_scale, self.noise_std)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_lo, self.grid_hi, self.grid_count)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus CLI overrides.

    The JSON schema is strict: unknown keys are rejected.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


@dataclass(frozen=True)
class GridRecord:
    x: float
    mean_exact: float
    var_exact: float
    mean_rff: float
    var_rff: float
    mean_qrff: float
    var_qrff: float
    p1: float
    p2: float


@dataclass(frozen=True)
class ComparisonReport:
    records: tuple[GridRecord, ...]
    summary: dict = field(default_factory=dict)


def generate_dataset(cfg: RunConfig) -> Dataset:
    """Inputs on [grid_lo, grid_hi] with seeded Gaussian-noise sine targets."""
    rng = np.random.default_rng(cfg.seed_data)
    if cfg.input_layout == "uniform":
        x = np.linspace(cfg.grid_lo, cfg.grid_hi, cfg.n_points)
    else:
        x = np.sort(rng.uniform(cfg.grid_lo, cfg.grid_hi, size=cfg.n_points))
    y = np.sin(x) + cfg.noise_std * rng.normal(size=cfg.n_points)
    return Dataset(inputs=x[:, None], targets=y)


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _run_stages(cfg: RunConfig, stages: tuple[str, ...]) -> ComparisonReport:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    ds = generate_dataset(cfg)
    h = cfg.hyper
    timings["dataset"] = time.perf_counter() - t0

    grid = cfg.grid
    nan = np.full(len(grid), np.nan)
    exact = rff = quantum = (nan, nan)
    p1 = p2 = float("nan")

    fm = None
    if "rff" in stages or "quantum" in stages:
        t0 = time.perf_counter()
        freq = sample_frequencies(cfg.n_frequencies, h, cfg.dim, cfg.seed_freq)
        fm = build_feature_model(ds, freq, h)
        timings["feature_model"] = time.perf_counter() - t0

    if "exact" in stages:
        t0 = time.perf_counter()
        post = exact_posterior(ds, h, grid)
        exact = (post.mean, post.variance)
        timings["exact_gpr"] = time.perf_counter() - t0

    if "rff" in stages:
        t0 = time.perf_counter()
        post = rff_posterior(fm, ds.targets, grid, h)
        rff = (post.mean, post.variance)
        timings["rff_gpr"] = time.perf_counter() - t0

    if "quantum" in stages:
        t0 = time.perf_counter()
        pipe = PreparedPipeline(fm, h, cfg.tau, cfg.delta_r)
        timings["quantum_setup"] = time.perf_counter() - t0
        p1, p2 = pipe.p1, pipe.p2
        shots = 0 if cfg.mode == "exact" else cfg.shots
        children = np.random.SeedSequence(cfg.seed_shots).spawn(len(grid))
        mean_seeds, var_seeds = zip(*(child.spawn(2) for child in children))
        t0 = time.perf_counter()
        m = pipe.mean_estimate(ds.targets, grid, shots, mean_seeds)
        v = pipe.variance_estimate(grid, shots, var_seeds)
        quantum = (m.mean, v.variance)
        timings["quantum_queries"] = time.perf_counter() - t0

    columns = np.column_stack(
        [grid, *exact, *rff, *quantum, np.full(len(grid), p1), np.full(len(grid), p2)]
    )
    records = tuple(GridRecord(*map(float, row)) for row in columns)
    summary: dict[str, float] = {}
    if "quantum" in stages and "rff" in stages:
        summary["rmse_mean_qrff_vs_rff"] = float(
            np.sqrt(np.mean((quantum[0] - rff[0]) ** 2))
        )
        summary["max_abs_var_gap_qrff_vs_rff"] = float(
            np.max(np.abs(quantum[1] - rff[1]))
        )
    if "quantum" in stages and "exact" in stages:
        summary["rmse_mean_qrff_vs_exact"] = float(
            np.sqrt(np.mean((quantum[0] - exact[0]) ** 2))
        )
    if "quantum" in stages:
        summary["p1"] = p1
        summary["p2"] = p2
        summary["uncompute_leakage_mean"] = pipe.uncompute_leakage_mean
        summary["uncompute_leakage_variance"] = pipe.uncompute_leakage_variance
    summary.update({f"wall_clock_{k}_s": v for k, v in timings.items()})
    summary["wall_clock_total_s"] = sum(timings.values())
    return ComparisonReport(records=records, summary=summary)


def run_experiment(cfg: RunConfig) -> ComparisonReport:
    """Run exact, reduced-rank, and quantum posteriors over the query grid."""
    return _run_stages(cfg, ("exact", "rff", "quantum"))


def emit_outputs(report: ComparisonReport, cfg: RunConfig, columns=None) -> list[str]:
    """Write results.csv, summary.txt, and plot.dat; returns the paths written."""
    import os

    cols = columns or _CSV_HEADER.split(",")
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        paths = []
        csv_path = os.path.join(cfg.out_dir, "results.csv")
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for rec in report.records:
                fh.write(",".join(_fmt(getattr(rec, c)) for c in cols) + "\n")
        paths.append(csv_path)
        summary_path = os.path.join(cfg.out_dir, "summary.txt")
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            for key, value in report.summary.items():
                fh.write(f"{key} = {_fmt(value)}\n")
        paths.append(summary_path)
        plot_path = os.path.join(cfg.out_dir, "plot.dat")
        with open(plot_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# " + " ".join(cols) + "\n")
            for rec in report.records:
                fh.write(" ".join(_fmt(getattr(rec, c)) for c in cols) + "\n")
        paths.append(plot_path)
        return paths
    except OSError as exc:
        raise IoError(f"cannot write outputs under {cfg.out_dir}: {exc}") from exc


def _run_selftest() -> int:
    from . import qsim
    from .qsim import GateOp, Statevector

    rng = np.random.default_rng(99)
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        failures += 0 if ok else 1

    # Ry(0.7) where qubits 1, 2 read 1, 0 (control value 1), identity elsewhere
    gate = GateOp.ry([0.0, 0.7, 0.0, 0.0], 0, [1, 2])
    mat = qsim.realized_matrix(gate, 3)
    check("gate unitarity", np.max(np.abs(mat.conj().T @ mat - np.eye(8))) < 1e-10)

    sv = Statevector.zero([("r", 4)])
    for _ in range(100):
        q = int(rng.integers(4))
        sv = qsim.apply_gate(sv, GateOp.ry(float(rng.uniform(0, np.pi)), q))
        sv = qsim.apply_gate(sv, GateOp.h(int(rng.integers(4))))
    check("norm preservation depth-100", abs(np.linalg.norm(sv.amplitudes) - 1) < 1e-10)

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    sv = Statevector.from_amplitudes(bell, [("a", 1), ("b", 1)])
    rho = qsim.partial_trace(sv, "a").matrix
    check("Bell partial trace = I/2", np.max(np.abs(rho - np.eye(2) / 2)) < 1e-10)

    a = rng.normal(size=8)
    a /= np.linalg.norm(a)
    b = rng.normal(size=8)
    b /= np.linalg.norm(b)
    sa = Statevector.from_amplitudes(a, [("r", 3)])
    sb = Statevector.from_amplitudes(b, [("r", 3)])
    check(
        "hadamard test exact", abs(qsim.hadamard_test(sa, sb) - float(b @ a)) < 1e-10
    )
    check("swap test exact", abs(qsim.swap_test(sa, sb) - float(b @ a) ** 2) < 1e-10)

    sv = Statevector.zero([("t", 1)])
    ops = qsim.qpe_circuit(sv, np.diag([0.25, 0.0]), 2 * np.pi, "t", 3)
    probs = np.abs(qsim.qpe(sv, ops, 3).amplitudes) ** 2
    check("qpe exact dyadic phase", abs(probs[2 * 2] - 1.0) < 1e-10)

    h1 = qsim.measure_register(sa, "r", 1000, 7)
    h2 = qsim.measure_register(sa, "r", 1000, 7)
    check("measurement determinism", h1 == h2)

    # 8 points and 2 frequencies: 4 Schmidt components, bins 61, 55, 22, 13 of 64
    hyper = KernelHyper(1.5, 1.0, 0.1)
    x = np.linspace(0.0, 2.0 * np.pi, 8)
    fm = build_feature_model(
        Dataset(x[:, None], np.sin(x)), sample_frequencies(2, hyper, 1, 3), hyper
    )
    pipe = PreparedPipeline(fm, hyper, 6)
    state = prepare_data_state(pipe.plan)
    _, _, ((mean, p1), (variance, p2)) = dense_oracle(state, pipe.constants)
    # the phase register is the highest, so its |0> slice leads the amplitudes
    size = state.amplitudes.size
    mean0, variance0 = mean.amplitudes[:size], variance.amplitudes[:size]
    rho = (pipe.col_basis * pipe.variance_weights) @ pipe.col_basis.conj().T
    gaps = (
        np.abs(mean0 - (pipe.mean_slice @ pipe.row_basis).ravel()).max(),
        np.abs(qsim.partial_trace(variance, "col").matrix - rho).max(),
        abs(pipe.p1 - p1),
        abs(pipe.p2 - p2),
        abs(pipe.uncompute_leakage_mean - 1 + np.vdot(mean0, mean0).real),
        abs(pipe.uncompute_leakage_variance - 1 + np.vdot(variance0, variance0).real),
    )
    check("phase table matches the dense pipeline", max(gaps) <= 1e-12)

    print("selftest:", "OK" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_STAGE_COLUMNS = {
    "fit-exact": ["x", "mean_exact", "var_exact"],
    "fit-rff": ["x", "mean_rff", "var_rff"],
    "run-quantum": ["x", "mean_qrff", "var_qrff", "p1", "p2"],
    "compare": _CSV_HEADER.split(","),
}

_STAGE_SETS = {
    "fit-exact": ("exact",),
    "fit-rff": ("rff",),
    "run-quantum": ("quantum",),
    "compare": ("exact", "rff", "quantum"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrff",
        description="Gaussian process regression: exact, random-feature, and quantum-simulated",
    )
    parser.add_argument("--version", action="version", version=f"qrff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit-exact", "fit-rff", "run-quantum", "compare"):
        sp = sub.add_parser(name, help=f"run the {name} stage and write outputs")
        sp.add_argument("--config", help="JSON config file (strict schema)")
        sp.add_argument("--shots", type=int, dest="shots")
        sp.add_argument("--tau", type=int, dest="tau")
        sp.add_argument("--seed-data", type=int, dest="seed_data")
        sp.add_argument("--seed-freq", type=int, dest="seed_freq")
        sp.add_argument("--seed-shots", type=int, dest="seed_shots")
        sp.add_argument("--delta-r", type=float, dest="delta_r")
        sp.add_argument("--mode", choices=["exact", "sampled"], dest="mode")
        sp.add_argument("--out", dest="out_dir")
    sub.add_parser("selftest", help="run the simulator invariant battery")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        return _run_selftest()
    overrides = {
        key: getattr(args, key)
        for key in (
            "shots",
            "tau",
            "seed_data",
            "seed_freq",
            "seed_shots",
            "delta_r",
            "mode",
            "out_dir",
        )
    }
    try:
        cfg = load_config(args.config, overrides)
        report = _run_stages(cfg, _STAGE_SETS[args.command])
        paths = emit_outputs(report, cfg, _STAGE_COLUMNS[args.command])
    except QrffError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:  # a baseline's posterior is singular
        print(f"error: LinAlgError: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    for path in paths:
        print(f"wrote {path}")
    for key, value in report.summary.items():
        print(f"{key} = {_fmt(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
