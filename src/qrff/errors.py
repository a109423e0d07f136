"""Exception types shared across the package, and the qubit cap they enforce.

Each error class carries the process exit code used by the CLI so that
failures stay machine-distinguishable all the way to the shell.
``MAX_QUBITS`` is the one capacity limit: every check reads it from this
module when it runs, so setting it here moves every cap at once.
"""

from __future__ import annotations

#: refuse statevectors above this size: 2**26 complex doubles is ~1 GiB
MAX_QUBITS = 26


class QrffError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ConfigError(QrffError, ValueError):
    """Invalid configuration: bad values, unknown keys, unusable parameter
    combinations. Raised where a check finds the bad value; also a ``ValueError``."""

    exit_code = 2


class CapacityError(QrffError):
    """A run needs more than ``MAX_QUBITS`` allows: the encoding's register
    width, the phase table's entries, the exact baseline's Gram bytes, or a
    simulated state's width; or a size of 2**59 or more, which numpy cannot index."""

    exit_code = 3


class PostSelectionError(QrffError):
    """Post-selection branch has (near-)zero probability or produced no accepted shots."""

    exit_code = 4


class IoError(QrffError):
    """Reading or writing experiment artifacts failed."""

    exit_code = 5
