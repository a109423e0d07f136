"""Exception types shared across the package, and the one capacity rule.

Each error class carries the process exit code used by the CLI so that
failures stay machine-distinguishable all the way to the shell.
``check_bytes`` is the capacity rule and ``MAX_QUBITS`` its one limit, read
when it runs, so setting it here moves every cap at once. ``CapacityError``
lists each check and the bytes it counts.
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
    (``pipeline.spectral_setup``); the N x N Gram matrix, 8 * N^2 bytes
    (``kernel.exact_posterior``); the dense solve's (N + G + 1) x N factor,
    8 * N * (N + G + 1) bytes for G queries, when it runs
    (``kernel._dense_posterior``); an n-qubit state, 16 * 2^n bytes, or gate
    matrix, 16 * 4^n bytes (``qsim``). Or a size of 2**59 or more, which
    numpy cannot index (``cli.RunConfig``)."""

    exit_code = 3


class PostSelectionError(QrffError):
    """Post-selection branch has (near-)zero probability or produced no accepted shots."""

    exit_code = 4


class IoError(QrffError):
    """Reading or writing experiment artifacts failed."""

    exit_code = 5


def check_bytes(what: str, nbytes: int, shift: int = 0) -> None:
    """Refuse (``CapacityError``) ``what``, nbytes * 2^shift bytes, when it is
    more than one statevector at the cap, 16 * 2^MAX_QUBITS bytes. The cap is
    shifted down, so a huge ``shift`` (a tau of 10**20) never builds 2^shift."""
    cap = 16 << MAX_QUBITS
    if nbytes > cap >> shift:
        raise CapacityError(
            f"{what}: {nbytes} x 2^{shift} bytes, more than one {MAX_QUBITS}-qubit state ({cap})"
        )
