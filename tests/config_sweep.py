"""Extreme-value sweep over every ``RunConfig`` key.

Each key gets a fixed list of values for its type, written as a JSON config
of that key over a base config (empty by default), and each config runs
through ``qrff.cli.main`` in-process for ``fit-exact``, ``fit-rff``,
``run-quantum`` and ``compare``. A run passes when
it returns 0, 2, 3, 4 or 5, lets no exception escape, and writes at most one
line to stderr (Python warnings and the package's log records included).

Run from the repository root::

    PYTHONPATH=src python tests/config_sweep.py

It prints each failing run, the slowest run and a count, and exits 1 if any
run failed. ``test_cli.py`` asserts the same sweep finds no failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import sys
import tempfile
import time
import warnings
from dataclasses import fields

from qrff.cli import RunConfig, main

COMMANDS = ("fit-exact", "fit-rff", "run-quantum", "compare")
EXIT_CODES = {0, 2, 3, 4, 5}

#: an integer beyond every double: 1 and 400 zeros
BEYOND_DOUBLES = "1" + "0" * 400
#: JSON texts per field type
VALUES = {
    "int": ["0", "-1", str(2**59), str(2**63), str(10**20), BEYOND_DOUBLES]
    + ["1.5", "true", '"7"', "null"],
    "float": ["0", "-1", "1e-300", "2.3e-162", "1e-158", "1.3e154", "1e300", "1e308"]
    + ["-1e308", BEYOND_DOUBLES, "-" + BEYOND_DOUBLES, '"x"', "true", "null"],
    "str": ["5", '""', '"bogus"', "null"],
}


def runs():
    """(command, key, JSON value) for every run of the sweep."""
    for f in fields(RunConfig):
        for text in VALUES[f.type.split(" | ")[0]]:
            for command in COMMANDS:
                yield command, f.name, text


def run_one(workdir: str, command: str, key: str, text: str, base: dict):
    """One run's exit code (or escaped exception), its stderr and its duration;
    ``key`` takes the JSON value ``text`` over the ``base`` config."""
    path = os.path.join(workdir, "cfg.json")
    items = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in base.items() if k != key]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{" + ", ".join([*items, f'"{key}": {text}']) + "}")
    args = [command, "--config", path]
    if key != "out_dir":
        args += ["--out", os.path.join(workdir, "out")]
    err = io.StringIO()
    handler = logging.StreamHandler(err)
    logger = logging.getLogger("qrff")
    logger.addHandler(handler)
    start = time.perf_counter()
    try:
        # each run records its own warnings, as a fresh process would print
        # them, whatever hook the caller (pytest, say) has installed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                outcome = main(args)
    except Exception as exc:  # an escaped exception is what the sweep reports
        outcome = exc
    finally:
        logger.removeHandler(handler)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return outcome, err.getvalue(), time.perf_counter() - start


def sweep(workdir: str, base: dict | None = None):
    """Run the whole sweep over the ``base`` config with ``workdir`` as the
    working directory (a relative ``out_dir`` writes there); returns the
    failures and the slowest run."""
    failures, slowest = [], (0.0, ())
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command, key, text in runs():
            outcome, err, seconds = run_one(workdir, command, key, text, base or {})
            slowest = max(slowest, (seconds, (command, key, text[:24])))
            if outcome not in EXIT_CODES or err.count("\n") > 1:
                failures.append((command, key, text[:24], repr(outcome), err.strip()[:200]))
    finally:
        os.chdir(cwd)
    return failures, slowest


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        failed, (seconds, run) = sweep(tmp)
    for failure in failed:
        print(*failure, sep=" | ")
    print(f"slowest run: {seconds:.4f} s {run}")
    print(f"{len(failed)} of {len(list(runs()))} runs failed")
    sys.exit(1 if failed else 0)
