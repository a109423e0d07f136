"""Experiment driver: dataset generation, baselines, quantum runs, reports.

Subcommands
-----------
``fit-exact``    dense GP posterior over the query grid
``fit-rff``      reduced-rank (random Fourier feature) posterior
``run-quantum``  quantum pipeline posterior
``compare``      all three, with error summaries
``selftest``     checks the closed form against its circuits

Every method answers with one ``kernel.Posterior``, and a run is one table of
named columns that each stage extends as it runs: ``x``, then the exact,
RFF and quantum mean/variance pairs, then ``p1`` and ``p2``. ``results.csv``
and ``plot.dat`` hold exactly the columns of the stages that ran.

All randomness is seeded explicitly; two runs with the same configuration
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

# numpy loads its random module lazily; import it here so the first draw's
# import is not timed as part of the dataset stage
from numpy.random import default_rng

from . import __version__
from .errors import CapacityError, ConfigError, IoError, QrffError, check_bytes
from .kernel import Dataset, KernelHyper, exact_posterior
from .pipeline import PreparedPipeline
from .rff import build_feature_model, rff_posterior, sample_frequencies


def _shown(value) -> str:
    """``repr(value)`` for an error message, at most 60 characters.

    An int past 64 bits is named by its size: its decimal form has no length
    limit, and past 4,300 digits ``repr`` raises ``ValueError``. Any other
    non-scalar is named by its type, since its repr may hold such an int.
    """
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    scalar = isinstance(value, (int, float, str)) or value is None
    text = repr(value) if scalar else type(value).__name__
    return text if len(text) <= 60 else text[:57] + "..."


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
                raise ConfigError(f"{f.name} must be an integer, got {_shown(value)}")
            if f.type.startswith("float") and (value is not None or f.type == "float"):
                # an int compares exactly, so a JSON integer beyond every double fails too
                if isinstance(value, bool) or not (
                    isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
                ):
                    raise ConfigError(f"{f.name} must be a finite number, got {_shown(value)}")
                object.__setattr__(self, f.name, float(value))
            if f.type == "str" and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string, got {_shown(value)}")
        if min(self.seed_data, self.seed_freq, self.seed_shots) < 0:
            raise ConfigError("seed_data, seed_freq, and seed_shots must be non-negative")
        if self.delta_r is not None and self.delta_r <= 0:
            raise ConfigError(f"delta_r must be positive, got {self.delta_r!r}")
        if min(self.n_points, self.n_frequencies, self.dim, self.tau) < 1:
            raise ConfigError("n_points, n_frequencies, dim, and tau must be positive")
        if self.grid_count < 1:
            raise ConfigError("grid_count must be positive")
        if not abs(self.grid_hi - self.grid_lo) <= sys.float_info.max:
            raise ConfigError("grid_hi - grid_lo overflows a double")
        if not 1 <= self.shots < 2**63:
            # numpy draws binomial counts as C longs
            raise ConfigError(f"shots must be in [1, 2**63), got {_shown(self.shots)}")
        if self.mode not in ("exact", "sampled"):
            raise ConfigError(f"mode must be 'exact' or 'sampled', got {_shown(self.mode)}")
        if self.input_layout not in ("uniform", "random"):
            raise ConfigError(
                f"input_layout must be 'uniform' or 'random', got {_shown(self.input_layout)}"
            )
        KernelHyper(self.signal_std, self.length_scale, self.noise_std)
        for key in ("n_points", "n_frequencies", "grid_count"):
            # the (size, dim) inputs, frequencies and queries, refused before any is built
            check_bytes(f"the ({key}, dim) array", 8 * getattr(self, key) * self.dim)

    @property
    def hyper(self) -> KernelHyper:
        return KernelHyper(self.signal_std, self.length_scale, self.noise_std)

    def diagonal(self, count: int) -> np.ndarray:
        """``count`` evenly spaced points on the diagonal of [grid_lo, grid_hi]^dim."""
        return np.linspace(self.grid_lo, self.grid_hi, count)[:, None].repeat(self.dim, axis=1)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus CLI overrides.

    The JSON schema is strict: unknown keys are rejected.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("config file must hold a JSON object")
    values.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(values) - {f.name for f in fields(RunConfig)})
    if unknown:
        more = f" and {len(unknown) - 3} more" if len(unknown) > 3 else ""
        raise ConfigError(f"unknown config keys: [{', '.join(map(_shown, unknown[:3]))}]{more}")
    return RunConfig(**values)


def generate_dataset(cfg: RunConfig) -> Dataset:
    """Inputs in [grid_lo, grid_hi]^dim, on its diagonal (``uniform``) or drawn in the box
    and sorted by first coordinate (``random``), with seeded targets sin(sum x) + noise."""
    rng = default_rng(cfg.seed_data)
    if cfg.input_layout == "uniform":
        x = cfg.diagonal(cfg.n_points)
    else:
        x = rng.uniform(cfg.grid_lo, cfg.grid_hi, size=(cfg.n_points, cfg.dim))
        x = x[np.argsort(x[:, 0], kind="stable")]
    y = np.sin(x.sum(axis=1)) + cfg.noise_std * rng.normal(size=cfg.n_points)
    return Dataset(inputs=x, targets=y)


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _run_stages(cfg: RunConfig, command: str) -> tuple[dict[str, np.ndarray], dict]:
    """The output columns, in order, and the summary of ``command``'s stages."""
    stages = _STAGE_SETS[command]
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    ds = generate_dataset(cfg)
    h = cfg.hyper
    timings["dataset"] = time.perf_counter() - t0

    grid = cfg.diagonal(cfg.grid_count)
    columns = {"x": grid[:, 0]}

    fm = None
    if "rff" in stages or "quantum" in stages:
        t0 = time.perf_counter()
        freq = sample_frequencies(cfg.n_frequencies, h, cfg.dim, cfg.seed_freq)
        fm = build_feature_model(ds, freq, h)
        timings["feature_model"] = time.perf_counter() - t0

    if "quantum" in stages:
        # a config the pipeline or its targets refuse is refused before the exact solve
        t0 = time.perf_counter()
        pipe = PreparedPipeline(fm, cfg.tau, cfg.delta_r)
        timings["quantum_setup"] = time.perf_counter() - t0

    if "exact" in stages:
        t0 = time.perf_counter()
        exact = exact_posterior(ds, h, grid)
        columns["mean_exact"], columns["var_exact"] = exact.mean, exact.variance
        timings["exact_gpr"] = time.perf_counter() - t0

    if "rff" in stages:
        t0 = time.perf_counter()
        rff = rff_posterior(fm, grid)
        columns["mean_rff"], columns["var_rff"] = rff.mean, rff.variance
        timings["rff_gpr"] = time.perf_counter() - t0

    summary: dict[str, float] = {}
    if "quantum" in stages:
        shots = 0 if cfg.mode == "exact" else cfg.shots
        t0 = time.perf_counter()
        quantum, readout = pipe.posterior(grid, shots, cfg.seed_shots)
        timings["quantum_queries"] = time.perf_counter() - t0
        columns["mean_qrff"], columns["var_qrff"] = quantum.mean, quantum.variance
        columns["p1"], columns["p2"] = np.full(len(grid), pipe.p1), np.full(len(grid), pipe.p2)
        if "rff" in stages:
            summary["rmse_mean_qrff_vs_rff"] = _rmse(quantum.mean, rff.mean)
            summary["max_abs_var_gap_qrff_vs_rff"] = _max_gap(quantum.variance, rff.variance)
        if "exact" in stages:
            summary["rmse_mean_qrff_vs_exact"] = _rmse(quantum.mean, exact.mean)
        for key in ("p1", "p2", "uncompute_leakage_mean", "uncompute_leakage_variance"):
            summary[key] = getattr(pipe, key)
        # the components below the phase resolution, which the inversion filtered
        dropped = pipe.fm.normalized_singular_values[~pipe.kept]
        summary["unresolved_components"] = dropped.size
        summary["unresolved_mass"] = float(dropped @ dropped)
        if shots:
            # shot-noise term of the error budget: sampled vs exact-mode readout
            summary["rmse_mean_shot_noise"] = _rmse(quantum.mean, readout["exact_mean"])
            summary["max_abs_var_gap_shot_noise"] = _max_gap(
                quantum.variance, readout["exact_variance"]
            )
    summary.update({f"wall_clock_{k}_s": v for k, v in timings.items()})
    summary["wall_clock_total_s"] = sum(timings.values())
    return columns, summary


def emit_outputs(columns: dict[str, np.ndarray], summary: dict, out_dir: str) -> list[str]:
    """Write the columns to results.csv and plot.dat and the summary to
    summary.txt under ``out_dir``; returns the paths written."""
    names = list(columns)
    rows = [list(map(_fmt, row)) for row in zip(*columns.values())]

    def write(name: str, lines: list[str]) -> str:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in lines)
        return path

    try:
        os.makedirs(out_dir, exist_ok=True)
        return [
            write("results.csv", [",".join(names), *map(",".join, rows)]),
            write("summary.txt", [f"{k} = {_fmt(v)}" for k, v in summary.items()]),
            write("plot.dat", ["# " + " ".join(names), *map(" ".join, rows)]),
        ]
    except OSError as exc:
        raise IoError(f"cannot write outputs under {out_dir}: {exc}") from exc


def _run_selftest() -> int:
    from .qsim import closed_form_gaps, encoding_gap

    hyper = KernelHyper(1.5, 1.0, 0.1)

    def model(n_points: int, n_frequencies: int):
        x = np.linspace(0.0, 2.0 * np.pi, n_points)
        freq = sample_frequencies(n_frequencies, hyper, 1, 3)
        return build_feature_model(Dataset(x[:, None], np.sin(x)), freq, hyper)

    # 8 points and 2 frequencies: 4 Schmidt components, bins 61, 55, 22, 13 of 64
    gaps = closed_form_gaps(PreparedPipeline(model(8, 2), 6))
    # 5 points and 3 frequencies: 5 of 8 rows and 6 of 8 columns, zero padding
    passed = {
        "phase table matches the dense pipeline": max(gaps.values()) <= 1e-12,
        "encoding circuit equals the scaled design": encoding_gap(model(5, 3)) <= 1e-12,
    }
    for name, ok in passed.items():
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
    failures = list(passed.values()).count(False)
    print("selftest:", "OK" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

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
    for name in _STAGE_SETS:
        sp = sub.add_parser(name, help=f"run the {name} stage and write outputs")
        sp.add_argument("--config", help="JSON config file (strict schema)")
        sp.add_argument("--shots", type=int, dest="shots")
        sp.add_argument("--tau", type=int, dest="tau")
        sp.add_argument("--seed-data", type=int, dest="seed_data")
        sp.add_argument("--seed-freq", type=int, dest="seed_freq")
        sp.add_argument("--seed-shots", type=int, dest="seed_shots")
        sp.add_argument("--delta-r", type=float, dest="delta_r")
        sp.add_argument("--mode", dest="mode")
        sp.add_argument("--out", dest="out_dir")
    sub.add_parser("selftest", help="check the closed form against its circuits")
    return parser


def main(argv=None) -> int:
    if argv is None:
        # Run as the program: the ~22,000 objects numpy and this package made
        # at import live until exit. Freezing them keeps the collector's
        # passes, several at interpreter shutdown, from walking them; on a
        # 2-core x86-64 machine a paper-config run's exit fell from 34-41 ms
        # to 8-11 ms. A caller passing argv owns its heap, so it is left as is.
        gc.freeze()
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        return _run_selftest()
    # every other parsed flag is a RunConfig override, None when not given
    overrides = vars(args)
    command, path = overrides.pop("command"), overrides.pop("config")
    try:
        cfg = load_config(path, overrides)
        columns, summary = _run_stages(cfg, command)
        paths = emit_outputs(columns, summary, cfg.out_dir)
    except QrffError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # an array larger than the machine can allocate
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return CapacityError.exit_code
    for path in paths:
        print(f"wrote {path}")
    for key, value in summary.items():
        print(f"{key} = {_fmt(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
