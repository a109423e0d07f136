"""The committed runs: one row per golden ``results.csv``, with the command
that writes it and why it was pinned.

Golden ``name`` runs its command on ``tests/data/<name>_config.json`` through
``qrff.cli.main`` in-process, and the ``results.csv`` it writes must equal
``tests/data/<name>_results.csv`` byte for byte. To add a golden, add a row
and commit its config with the ``results.csv`` it writes at the parent commit.

Run from the repository root, at the default BLAS threads and at one
(``OPENBLAS_NUM_THREADS=1``), as the benchmark runs the program::

    PYTHONPATH=src python tests/goldens.py [name ...]

With no names it runs every row. It prints each golden that differs with its
first differing line, and exits 1 if any differs. ``test_cli.py`` runs each
golden so, in a fresh interpreter, at both thread settings.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import pathlib
import sys
import tempfile

from qrff.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"

#: name -> (command, why the golden was pinned)
GOLDENS = {
    "compare_exact": ("compare", "the paper config: N=16, M=2, tau 13, 50 points"),
    "compare_sampled": ("compare", "the paper config read out with 1e6 shots"),
    "fit_exact_n1024": (
        "fit-exact",
        "written by the blocked dense solve alone, before the exact baseline first tried "
        "a low-rank solve; the benchmark's classical_n1024 config at seed 0",
    ),
    "fit_exact_dense_n512": (
        "fit-exact",
        "written before both exact solves took one point set; at length scale 0.05 the "
        "low-rank try reaches its cap of 46 and the dense solve answers in 16 blocks",
    ),
    "compare_n512": (
        "compare",
        "written before the exact baseline's kernel columns came from one function; the "
        "benchmark's wide_n512 config at seed 0, where the pivot cap sits closest to the rank",
    ),
    "compare_m4": (
        "compare",
        "written when components below the phase resolution were first filtered rather "
        "than refused: at N=16, M=4 and tau 13 one of the eight rounds to bin 0",
    ),
    "compare_d2": (
        "compare",
        "written when the driver first took d-dimensional inputs: random inputs in [0, 2 pi]^2, "
        "where at N=1024 the low-rank try reaches its cap of 87 and the dense solve answers",
    ),
    "run_quantum_sampled_n512": (
        "run-quantum",
        "written before the quantum closed form kept its coefficients in design units; "
        "the wide_n512 fit read out with 1e6 shots over 64 grid points",
    ),
    "compare_n65536": (
        "compare",
        "written when both posteriors first took the variance's null-space term as a "
        "projection residual; before, 8 of its 64 rows changed with the BLAS thread count. "
        "At N=65536 the exact baseline answers on its low-rank path, and the exact and RFF "
        "columns are what fit-exact and fit-rff write",
    ),
}


def check(name: str, workdir: str) -> str | None:
    """None if golden ``name`` writes its committed ``results.csv`` under
    ``workdir``, else its exit code or its first differing line."""
    command, _ = GOLDENS[name]
    out = os.path.join(workdir, name)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(DATA / f"{name}_config.json"), "--out", out])
    if code:
        return f"exit {code}"
    wrote = pathlib.Path(out, "results.csv").read_bytes().split(b"\n")
    committed = (DATA / f"{name}_results.csv").read_bytes().split(b"\n")
    pairs = itertools.zip_longest(wrote, committed, fillvalue=b"<end of file>")
    for line, (a, b) in enumerate(pairs, 1):
        if a != b:
            return f"line {line}: wrote {a!r}, committed {b!r}"
    return None


if __name__ == "__main__":
    names = sys.argv[1:] or list(GOLDENS)
    unknown = [name for name in names if name not in GOLDENS]
    if unknown:
        sys.exit(f"unknown golden(s): {', '.join(unknown)}; the table has {', '.join(GOLDENS)}")
    with tempfile.TemporaryDirectory() as tmp:
        failed = [(name, diff) for name in names if (diff := check(name, tmp))]
    for name, diff in failed:
        print(f"FAIL: {name}: {diff}")
    print(f"{len(failed)} of {len(names)} goldens differ")
    sys.exit(1 if failed else 0)
