"""Exception types shared across the package, and the one capacity rule.

Each error class carries the process exit code used by the CLI so that
failures stay machine-distinguishable all the way to the shell.
``check_bytes`` is the capacity rule and ``MAX_QUBITS`` its one limit, read
by ``byte_cap`` when a check runs, so setting it here moves every cap at
once. ``CapacityError`` lists each check and the bytes it counts.
"""

from __future__ import annotations

#: refuse arrays above one statevector of this many qubits: 2**26 complex doubles is 1 GiB
MAX_QUBITS = 26


class QrffError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ConfigError(QrffError, ValueError):
    """Invalid configuration: bad values, unknown keys, unusable parameter
    combinations. Raised where a check finds the bad value; also a ``ValueError``."""

    exit_code = 2


class CapacityError(QrffError):
    """An array over ``check_bytes``' cap, refused before it is allocated: the
    phase table and three 2^tau profiles, 8 * (rank + 3) * 2^tau bytes
    (``pipeline.spectral_setup``); the exact baseline's dense (N + G + 1) x N
    factor, 8 * N * (N + G + 1) bytes for G queries, when it runs
    (``kernel._dense_posterior``); an n-qubit state, 16 * 2^n bytes, or gate
    matrix, 16 * 4^n bytes (``qsim``); the (N, dim) inputs, (M, dim)
    frequencies and (G, dim) queries, 8 * size * dim bytes each, before any
    command builds its dataset (``cli.RunConfig``); the fit's stacked [X y],
    8 * N * (2M + 1) bytes (``rff.build_feature_model``); the exact baseline's
    stacked (N + G, dim) points (``kernel.exact_posterior``). The low-rank
    solve's factor is bounded by the cap, not refused (``kernel.exact_posterior``)."""

    exit_code = 3


class PostSelectionError(QrffError):
    """Post-selection branch has (near-)zero probability or produced no accepted shots."""

    exit_code = 4


class IoError(QrffError):
    """Reading or writing experiment artifacts failed."""

    exit_code = 5


def byte_cap() -> int:
    """The most bytes one array may take: one statevector at the cap, 16 * 2^MAX_QUBITS."""
    return 16 << MAX_QUBITS


def check_bytes(what: str, nbytes: int, shift: int = 0) -> None:
    """Refuse (``CapacityError``) ``what``, nbytes * 2^shift bytes, over ``byte_cap``.
    The cap is shifted down, so a huge ``shift`` (a tau of 10**20) never builds 2^shift."""
    cap = byte_cap()
    if nbytes > cap >> shift:
        # past 64 bits nbytes is named by its size: past 4,300 digits str() raises
        size = nbytes if nbytes.bit_length() <= 64 else f"2^{nbytes.bit_length() - 1}+"
        raise CapacityError(
            f"{what}: {size} x 2^{shift} bytes, more than one {MAX_QUBITS}-qubit state ({cap})"
        )
