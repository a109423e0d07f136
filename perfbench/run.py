"""Benchmark harness for the qrff command-line program.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_exact --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

A run launches the CLI from the checkout's ``src/`` (``python -m qrff.cli``),
one process at a time, with a config generated from ``--seed``. It repeats the
invocation while another one fits in ``--seconds``, checks every
invocation's outputs, and prints a metric table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over the run's good invocations. ``--trace 1`` also times untraced
invocations for ``--seconds``, then makes one invocation through
``traced_cli.py`` and reports the per-layer metrics of BENCHMARK.json.

Every run writes its raw measurements, the workload config and provenance to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

#: a run must end within 180 s; invocations still running at this point are killed
RUN_DEADLINE_S = 170.0

#: BLAS threads of every invocation (at most nproc). One rather than two: with
#: two spinning OpenBLAS threads on a two-core machine, one other busy process
#: slowed classical_n1024 from 6.4 s to 80 s, and cpu_s counted the spinning
#: (about twice run_s). Single-threaded, contention costs proportionally.
BLAS_THREADS = 1

#: Frequency draws used by the benchmark seeds: seed_freq = 21 + offset, with
#: seed ``s`` taking ``FREQ_OFFSETS[s % len(FREQ_OFFSETS)]``, so seed 0 gives
#: the bundled 0/21/1234. Of offsets 0-31, three kinds are left out, all
#: properties of the frequency draw rather than of the code:
#: - 4, 8, 10, 18, 29 and 30, which the program refuses by design (exit 2: a
#:   singular value decodes to phase bin 0 at tau=13 or at tau=10);
#: - 2, 11, 12, 23, 24, 26 and 31, where eigenvalue discretisation at tau=10
#:   alone puts wide_n512 over the criterion 1-2 bounds (mean RMSE 0.023-0.34);
#: - 13, 19 and 22, whose small mean-branch acceptance leaves paper_sampled's
#:   shot noise over the criterion 3 bound (mean RMSE 0.11-0.45).
#: Every listed draw passed the output check on every workload at the seed
#: commit; the worst sampled mean RMSE among them is 0.053, so another shot
#: seed does not reach the bound. A later change that makes one fail counts as
#: a failed run.
FREQ_OFFSETS = (0, 1, 3, 5, 6, 7, 9, 14, 15, 16, 17, 20, 21, 25, 27, 28)

#: shared keys of every generated config (the program's defaults, pinned here
#: so the output check's reference posterior reads the same values)
BASE_CONFIG = {
    "grid_lo": 0.0,
    "grid_hi": 2.0 * math.pi,
    "signal_std": 1.5,
    "length_scale": 1.0,
    "noise_std": 0.1,
}

EXACT_BOUNDS = {"max_abs_mean_gap": 0.05, "rmse_mean": 0.02, "max_abs_var_gap": 0.05}
SAMPLED_BOUNDS = {"rmse_mean": 0.1}


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    #: acceptance bounds of the quantum columns against the RFF columns, or None
    bounds: dict | None


PAPER = {"n_points": 16, "n_frequencies": 2, "tau": 13, "grid_count": 50}
WORKLOADS = {
    "paper_exact": Workload("compare", {**PAPER, "mode": "exact"}, EXACT_BOUNDS),
    "paper_sampled": Workload(
        "compare", {**PAPER, "mode": "sampled", "shots": 1_000_000}, SAMPLED_BOUNDS
    ),
    "wide_n512": Workload(
        "compare", {"n_points": 512, "n_frequencies": 2, "tau": 10, "grid_count": 2}, EXACT_BOUNDS
    ),
    "classical_n1024": Workload("fit-exact", {"n_points": 1024, "grid_count": 64}, None),
}
#: the self-check's toy size; tau=4 resolves eigenvalues too coarsely for the
#: acceptance bounds, which are not the self-check's subject
TOY = Workload("compare", {"n_points": 4, "n_frequencies": 2, "tau": 4, "grid_count": 3}, None)
#: seed 2 maps to seed_freq 24, whose four singular values all clear bin 0 at tau=4
TOY_SEED = 2

SETUP_KEYS = ("wall_clock_dataset_s", "wall_clock_feature_model_s", "wall_clock_quantum_setup_s")
QUERY_KEYS = ("wall_clock_exact_gpr_s", "wall_clock_rff_gpr_s", "wall_clock_quantum_queries_s")
ACCURACY_KEYS = ("rmse_mean_qrff_vs_rff", "max_abs_var_gap_qrff_vs_rff", "rmse_mean_qrff_vs_exact")
#: summary.txt keys each command must write; a missing one fails the invocation
REQUIRED_KEYS = {
    "compare": SETUP_KEYS + QUERY_KEYS + ACCURACY_KEYS,
    "fit-exact": ("wall_clock_dataset_s", "wall_clock_exact_gpr_s"),
}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "query_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
STAT_UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "gates": "count",
    "qubits": "qubits",
    "state_mb": "MiB",
    "accept": "1",
    "p50_ms": "ms",
    "p80_ms": "ms",
}
SPECIAL_LAYER_UNITS = {"trace.overhead_s": "s", **{k: "1" for k in ACCURACY_KEYS}}


class HarnessError(Exception):
    """The benchmark cannot run here (missing sources, malformed BENCHMARK.json)."""


# ---------------------------------------------------------------------------
# environment and provenance
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(digest: str) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": digest,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
    }


def load_benchmark() -> dict:
    """Read BENCHMARK.json and check that this harness computes each metric in its unit."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from exc
    for entry in spec["end_to_end"] + spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if entry.get("better") not in ("lower", "higher"):
            raise HarnessError(f"metric {name} has no direction")
        if unit != metric_unit(name):
            raise HarnessError(f"metric {name}: BENCHMARK.json says {unit}, harness computes {metric_unit(name)}")
    return spec


def metric_unit(name: str) -> str | None:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in SPECIAL_LAYER_UNITS:
        return SPECIAL_LAYER_UNITS[name]
    span, _, stat = name.rpartition(".")
    return STAT_UNITS.get(stat) if span else None


def traced_spans(spec: dict) -> list[str]:
    names = (m["name"] for m in spec["per_layer"] if m["name"] not in SPECIAL_LAYER_UNITS)
    return list(dict.fromkeys(n.rpartition(".")[0] for n in names))


# ---------------------------------------------------------------------------
# workload configs
# ---------------------------------------------------------------------------


def workload_config(wl: Workload, seed: int) -> dict:
    """The config the program receives; every seed in it derives from ``seed``."""
    offset = FREQ_OFFSETS[seed % len(FREQ_OFFSETS)]
    return {
        **BASE_CONFIG,
        **wl.config,
        "seed_data": seed % 2**32,
        "seed_freq": 21 + offset,
        "seed_shots": (1234 + seed) % 2**32,
    }


# ---------------------------------------------------------------------------
# one CLI invocation
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    rc: int
    run_s: float
    cpu_s: float
    peak_rss_mb: float
    out_dir: Path
    traced: bool
    summary: dict | None = None
    problems: list | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def invoke(argv: list[str], out_dir: Path, env: dict, deadline: float, traced: bool) -> Invocation:
    """Run one child to completion and read its own rusage from ``wait4``."""
    out_dir.mkdir(parents=True)
    with open(out_dir / "stdout.txt", "wb") as so, open(out_dir / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=so, stderr=se)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        run_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        rc=proc.returncode,
        run_s=run_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        out_dir=out_dir,
        traced=traced,
    )


def parse_summary(path: Path) -> dict:
    summary = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            summary[key.strip()] = float(value)
    return summary


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------


def exact_reference(cfg: dict):
    """Dense GP posterior of the generated dataset, computed independently of qrff."""
    import numpy as np

    n = cfg["n_points"]
    x = np.linspace(cfg["grid_lo"], cfg["grid_hi"], n)
    y = np.sin(x) + cfg["noise_std"] * np.random.default_rng(cfg["seed_data"]).normal(size=n)
    grid = np.linspace(cfg["grid_lo"], cfg["grid_hi"], cfg["grid_count"])
    s2, l2 = cfg["signal_std"] ** 2, cfg["length_scale"] ** 2

    def k(a, b):
        return s2 * np.exp(-0.5 * (a[:, None] - b[None, :]) ** 2 / l2)

    A = k(x, x) + cfg["noise_std"] ** 2 * np.eye(n)
    k_star = k(x, grid)
    sol = np.linalg.solve(A, np.column_stack([y, k_star]))
    mean = k_star.T @ sol[:, 0]
    var = s2 - np.sum(k_star * sol[:, 1:], axis=0)
    return grid, mean, np.maximum(var, 0.0)


def check_outputs(wl: Workload, cfg: dict, inv: Invocation, reference: Path) -> list[str]:
    """Reasons the invocation failed; empty when its outputs are correct.

    Also stores the parsed summary.txt on ``inv`` for the metrics.
    """
    import numpy as np

    if inv.rc != 0:
        tail = (inv.out_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-400:]
        return [f"exit code {inv.rc}: {tail.strip()}"]
    res_dir = inv.out_dir / "results"
    try:
        summary = parse_summary(res_dir / "summary.txt")
        csv_bytes = (res_dir / "results.csv").read_bytes()
    except (OSError, ValueError) as exc:
        return [f"unreadable outputs: {exc}"]
    inv.summary = summary
    problems = [f"summary.txt lacks {key}" for key in REQUIRED_KEYS[wl.command] if key not in summary]

    if reference.exists():
        if reference.read_bytes() != csv_bytes:
            problems.append(f"results.csv differs from the first run of this workload and seed ({reference.name})")
    else:
        reference.parent.mkdir(parents=True, exist_ok=True)
        reference.write_bytes(csv_bytes)

    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    if len(rows) != cfg["grid_count"]:
        return problems + [f"results.csv has {len(rows)} rows, expected {cfg['grid_count']}"]
    col = {name: np.array([float(r[name]) for r in rows]) for name in rows[0]}
    bad = [name for name, values in col.items() if not np.isfinite(values).all()]
    if bad:
        return problems + [f"non-finite values in {bad}"]

    grid, mean, var = exact_reference(cfg)
    for name, ref in (("x", grid), ("mean_exact", mean), ("var_exact", var)):
        err = np.max(np.abs(col[name] - ref) - 1e-6 * np.abs(ref))
        if err > 1e-8:
            problems.append(f"{name} departs from the reference posterior by {err:.3g}")

    if wl.bounds is not None:
        mean_gap = col["mean_qrff"] - col["mean_rff"]
        measured = {
            "max_abs_mean_gap": float(np.max(np.abs(mean_gap))),
            "rmse_mean": float(np.sqrt(np.mean(mean_gap**2))),
            "max_abs_var_gap": float(np.max(np.abs(col["var_qrff"] - col["var_rff"]))),
        }
        for key, bound in wl.bounds.items():
            if not measured[key] <= bound:
                problems.append(f"{key} = {measured[key]:.3g} exceeds {bound}")
    return problems


# ---------------------------------------------------------------------------
# per-layer statistics from a trace
# ---------------------------------------------------------------------------


def layer_stats(spans: list[list]) -> dict[str, dict]:
    """Aggregate span records (see traced_cli.py) per span name."""
    dur = [end - start for _, start, end, *_ in spans]
    child = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += dur[i]

    def outermost(i: int) -> bool:
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    groups: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        groups.setdefault(rec[0], []).append(i)
    stats = {}
    for name, idx in groups.items():
        outer = [i for i in idx if outermost(i)]
        accept_n = sum(spans[i][7] for i in outer)
        stats[name] = {
            "calls": len(idx),
            "s": sum(dur[i] for i in outer),
            "self_s": sum(dur[i] - child[i] for i in idx),
            "gates": sum(spans[i][4] for i in outer),
            "qubits": max(spans[i][5] for i in idx),
            "accept": sum(spans[i][6] for i in outer) / accept_n if accept_n else None,
            "durations": [dur[i] for i in idx],
        }
    return stats


def nesting_problems(spans: list[list]) -> list[str]:
    problems = []
    child = [0.0] * len(spans)
    for i, (name, start, end, parent, *_) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) lies outside its parent {spans[parent][0]}")
            child[parent] += end - start
    for i, (name, start, end, *_) in enumerate(spans):
        if child[i] > (end - start) + 1e-9:
            problems.append(f"children of span {i} ({name}) outlast it")
    return problems


def stat_value(stats: dict | None, stat: str) -> float:
    if stats is None:
        return 0
    if stat == "state_mb":
        return 16 * 2 ** stats["qubits"] / 2**20 if stats["qubits"] else 0.0
    if stat in ("p50_ms", "p80_ms"):
        durs = sorted(stats["durations"])
        if len(durs) < 2:
            return durs[0] * 1e3 if durs else 0.0
        if stat == "p50_ms":
            return statistics.median(durs) * 1e3
        return statistics.quantiles(durs, n=5, method="inclusive")[3] * 1e3
    value = stats[stat]
    return 0 if value is None else value


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


class Runner:
    """Invocations of one workload at one seed, sharing a work directory."""

    def __init__(self, name: str, wl: Workload, seed: int, spec: dict):
        self.name, self.wl, self.seed, self.spec = name, wl, seed, spec
        self.cfg = workload_config(wl, seed)
        self.env = child_env()
        self.digest = source_digest()
        self.started = time.perf_counter()
        self.deadline = self.started + RUN_DEADLINE_S
        stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
        self.tag = f"{name}-seed{seed}-{stamp}"
        self.dir = WORK / "runs" / self.tag
        self.dir.mkdir(parents=True)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=1) + "\n", encoding="utf-8")
        self.reference = WORK / "reference" / f"{self.digest[:16]}-{name}-seed{seed}.csv"
        self.invocations: list[Invocation] = []
        self.absent: list[str] = []
        self.spans: list[list] = []

    def warm_up(self) -> None:
        """Import the package once so bytecode and file caches are warm before timing."""
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import qrff.cli"],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"importing qrff took over {exc.timeout} s") from exc
        if proc.returncode != 0:
            raise HarnessError(f"cannot import qrff from {SRC}: {proc.stderr.strip()[-400:]}")

    def _cli_args(self, out_dir: Path) -> list[str]:
        return [self.wl.command, "--config", str(self.cfg_path), "--out", str(out_dir / "results")]

    def run_once(self, traced: bool) -> Invocation:
        out_dir = self.dir / f"inv{len(self.invocations):03d}{'-traced' if traced else ''}"
        if traced:
            trace_path = out_dir / "trace.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path),
                    ",".join(traced_spans(self.spec)), *self._cli_args(out_dir)]
        else:
            argv = [sys.executable, "-m", "qrff.cli", *self._cli_args(out_dir)]
        inv = invoke(argv, out_dir, self.env, self.deadline, traced)
        inv.problems = check_outputs(self.wl, self.cfg, inv, self.reference)
        if traced and inv.rc == 0:
            try:
                trace = json.loads(trace_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                inv.problems.append(f"unreadable trace: {exc}")
            else:
                self.spans, self.absent = trace["spans"], trace["absent"]
                inv.problems += nesting_problems(self.spans)
        self.invocations.append(inv)
        for problem in inv.problems:
            print(f"FAILED {out_dir.name}: {problem}", file=sys.stderr)
        return inv

    def run_window(self, seconds: float) -> None:
        """Invoke repeatedly while the median invocation still fits in ``seconds``."""
        start = time.perf_counter()
        durations = []
        while True:
            durations.append(self.run_once(traced=False).run_s)
            now, typical = time.perf_counter(), statistics.median(durations)
            if now - start + typical > seconds or now + typical > self.deadline:
                break

    def good(self, traced: bool = False) -> list[Invocation]:
        return [i for i in self.invocations if i.ok and i.traced == traced]

    def end_to_end(self) -> dict[str, float]:
        good = self.good()
        samples = {
            "run_s": [i.run_s for i in good],
            "query_s": [sum(i.summary.get(k, 0.0) for k in QUERY_KEYS) for i in good],
            "cpu_s": [i.cpu_s for i in good],
            "peak_rss_mb": [i.peak_rss_mb for i in good],
        }
        samples["setup_s"] = [r - q for r, q in zip(samples["run_s"], samples["query_s"])]
        return {name: statistics.median(values) for name, values in samples.items()}

    def per_layer(self) -> dict[str, float]:
        stats = layer_stats(self.spans)
        traced = self.good(traced=True)
        values = {}
        for entry in self.spec["per_layer"]:
            name = entry["name"]
            if name == "trace.overhead_s":
                values[name] = traced[0].run_s - statistics.median(i.run_s for i in self.good())
            elif name in ACCURACY_KEYS:
                values[name] = traced[0].summary.get(name, 0.0)
            else:
                span, _, stat = name.rpartition(".")
                values[name] = stat_value(stats.get(span), stat)
        return values

    def write_result(self, trace: bool, metrics: dict) -> Path:
        result = {
            "workload": self.name,
            "seed": self.seed,
            "trace": trace,
            "command": self.wl.command,
            "config": self.cfg,
            "provenance": provenance(self.digest),
            "invocations": [
                {
                    "dir": i.out_dir.name, "traced": i.traced, "rc": i.rc, "run_s": i.run_s,
                    "cpu_s": i.cpu_s, "peak_rss_mb": i.peak_rss_mb, "summary": i.summary,
                    "problems": i.problems,
                }
                for i in self.invocations
            ],
            "absent": self.absent,
            "metrics": metrics,
        }
        path = WORK / "results" / f"{self.tag}-trace{int(trace)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        return path

    def clean(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def print_table(spec_entries: list[dict], metrics: dict, note: dict) -> None:
    for entry in spec_entries:
        name = entry["name"]
        extra = f"  ({note[name]})" if name in note else ""
        print(f"  {name:<56} {metrics[name]:>14.6g} {entry['unit']:<7} {entry['better']} is better{extra}")


def run(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> int:
    runner = Runner(workload, WORKLOADS[workload], seed, spec)
    runner.warm_up()
    runner.run_window(seconds)
    if trace:
        runner.run_once(traced=True)
    good, attempted = runner.good(), len(runner.invocations)
    failed = sum(not i.ok for i in runner.invocations)
    print(f"{workload} seed={seed} config={json.dumps(runner.cfg, sort_keys=True)}")
    print(f"{attempted} invocation(s), {failed} failed; medians over {len(good)} untraced")
    if not good or (trace and not runner.good(traced=True)):
        runner.write_result(trace, {})
        print("error: no invocation passed the output check; no metrics", file=sys.stderr)
        return 1
    if trace:
        metrics = runner.per_layer()
        entries = spec["per_layer"]
        note = {}
        for name in metrics:
            span = name.rpartition(".")[0]
            if span in runner.absent:
                note[name] = "absent"
            elif name in ACCURACY_KEYS and name not in REQUIRED_KEYS[runner.wl.command]:
                note[name] = "not written by this workload"
    else:
        metrics = runner.end_to_end()
        entries = spec["end_to_end"]
        note = {}
    print_table(entries, metrics, note)
    path = runner.write_result(trace, metrics)
    print(f"result file: {path.relative_to(ROOT)}")
    runner.clean()
    ordered = {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in entries}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": ordered}))
    return 0


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------


def self_check(spec: dict) -> int:
    """Toy-size run: metrics complete, spans nested, counts repeatable."""
    failures = 0

    def check(what: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}: {what}{' - ' + detail if detail and not ok else ''}")

    names = {e["name"] for e in spec["end_to_end"] + spec["per_layer"]}
    check("metric names are unique", len(names) == len(spec["end_to_end"]) + len(spec["per_layer"]))
    check("setup_s is an end-to-end metric", "setup_s" in {e["name"] for e in spec["end_to_end"]})

    runner = Runner("self-check", TOY, TOY_SEED, spec)
    runner.warm_up()
    first = runner.run_once(traced=False)
    check("untraced toy run passes the output check", first.ok, "; ".join(first.problems or []))
    counts = []
    for _ in range(2):
        inv = runner.run_once(traced=True)
        check("traced toy run passes the output check and its spans nest", inv.ok, "; ".join(inv.problems or []))
        stats = layer_stats(runner.spans)
        check("every span has self_s >= 0", all(s["self_s"] >= -1e-9 for s in stats.values()))
        counts.append({k: (s["calls"], s["gates"], s["qubits"]) for k, s in stats.items()})
    check("calls, gates and qubits repeat across two traced runs", counts[0] == counts[1],
          f"{counts[0]} vs {counts[1]}")
    if runner.absent:
        print(f"note: absent at this commit: {', '.join(runner.absent)}")
    if runner.good() and runner.good(traced=True):
        for entries, metrics in ((spec["end_to_end"], runner.end_to_end()), (spec["per_layer"], runner.per_layer())):
            missing = [e["name"] for e in entries if not isinstance(metrics.get(e["name"]), (int, float))]
            check(f"{len(entries)} metrics emitted with unit and direction", not missing, f"missing {missing}")
    runner.clean()
    print("self-check:", "OK" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run the harness self-check at toy size")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required unless --self-check is given")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if not (SRC / "qrff" / "cli.py").is_file():
            raise HarnessError(f"no qrff sources under {SRC}; run from the root of a qrff checkout")
        spec = load_benchmark()
        if args.self_check:
            return self_check(spec)
        return run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
