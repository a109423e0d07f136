"""Dense statevector simulator with named registers.

Basis convention: qubit ``q`` carries weight ``2**q`` in the amplitude index,
registers are contiguous qubit ranges, and the first-listed register occupies
the lowest bits. A register's value is read little-endian within the register.

Ry convention: ``Ry(theta)`` rotates by the full angle,
``[[cos t, -sin t], [sin t, cos t]]`` (equal to the half-angle convention at
``2*theta``), so circuit angles can be used directly as written in the
encoding schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, PostSelectionError

#: refuse statevectors above this size: 2**26 complex doubles is ~1 GiB
MAX_QUBITS = 26

_UNITARY_TOL = 1e-10

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
_SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _check_unitary(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what}: matrix must be square, got shape {mat.shape}")
    dim = mat.shape[0]
    if dim & (dim - 1) or dim == 0:
        raise ValueError(f"{what}: dimension {dim} is not a power of two")
    err = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
    if err > _UNITARY_TOL:
        raise ValueError(f"{what}: matrix is not unitary (deviation {err:.2e})")
    return mat


class Register(NamedTuple):
    name: str
    offset: int
    width: int

    @property
    def dim(self) -> int:
        return 1 << self.width

    def qubits(self) -> list[int]:
        return list(range(self.offset, self.offset + self.width))


@dataclass(frozen=True)
class GateOp:
    """A single gate: targets, optional controls with a 0/1 pattern, parameters.

    Target ``targets[m]`` carries weight ``2**m`` in the gate's local index.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    control_pattern: tuple[int, ...] = ()
    theta: float = 0.0
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.controls) != len(self.control_pattern):
            raise ValueError("control pattern length must match control count")
        if any(b not in (0, 1) for b in self.control_pattern):
            raise ValueError("control pattern bits must be 0 or 1")
        if set(self.targets) & set(self.controls):
            raise ValueError("targets and controls overlap")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target qubits")
        if self.matrix is not None:
            mat = _check_unitary(self.matrix, self.kind)
            if mat.shape[0] != 1 << len(self.targets):
                raise ValueError(
                    f"{self.kind}: matrix dim {mat.shape[0]} does not fit "
                    f"{len(self.targets)} target qubits"
                )
            object.__setattr__(self, "matrix", mat)

    # -- constructors -------------------------------------------------------

    @classmethod
    def h(cls, qubit: int) -> GateOp:
        return cls(kind="h", targets=(qubit,))

    @classmethod
    def x(cls, qubit: int) -> GateOp:
        return cls(kind="x", targets=(qubit,))

    @classmethod
    def ry(cls, theta: float, qubit: int) -> GateOp:
        return cls(kind="ry", targets=(qubit,), theta=float(theta))

    @classmethod
    def swap(cls, q1: int, q2: int) -> GateOp:
        return cls(kind="swap", targets=(q1, q2))

    @classmethod
    def unitary(cls, matrix: np.ndarray, targets: Sequence[int]) -> GateOp:
        return cls(kind="unitary", targets=tuple(targets), matrix=matrix)

    @classmethod
    def controlled_unitary(
        cls,
        matrix: np.ndarray,
        targets: Sequence[int],
        controls: Sequence[int],
        pattern: Sequence[int] | None = None,
    ) -> GateOp:
        controls = tuple(controls)
        if pattern is None:
            pattern = (1,) * len(controls)
        return cls(
            kind="controlled_unitary",
            targets=tuple(targets),
            controls=controls,
            control_pattern=tuple(int(b) for b in pattern),
            matrix=matrix,
        )

    @classmethod
    def controlled_phase(cls, phi: float, control: int, target: int) -> GateOp:
        mat = np.diag([1.0, np.exp(1j * phi)])
        return cls(
            kind="controlled_phase",
            targets=(target,),
            controls=(control,),
            control_pattern=(1,),
            matrix=mat,
            theta=float(phi),
        )

    @classmethod
    def multi_controlled_ry(
        cls,
        theta: float,
        target: int,
        controls: Sequence[int],
        pattern: Sequence[int],
    ) -> GateOp:
        return cls(
            kind="multi_controlled_ry",
            targets=(target,),
            controls=tuple(controls),
            control_pattern=tuple(int(b) for b in pattern),
            theta=float(theta),
        )

    @classmethod
    def controlled_swap(cls, control: int, q1: int, q2: int) -> GateOp:
        return cls(
            kind="controlled_swap",
            targets=(q1, q2),
            controls=(control,),
            control_pattern=(1,),
        )

    # -- realization --------------------------------------------------------

    def local_matrix(self) -> np.ndarray:
        if self.kind == "h":
            return _H_MATRIX
        if self.kind == "x":
            return _X_MATRIX
        if self.kind in ("ry", "multi_controlled_ry"):
            return _ry_matrix(self.theta)
        if self.kind in ("swap", "controlled_swap"):
            return _SWAP_MATRIX
        if self.matrix is not None:
            return self.matrix
        raise ValueError(f"unknown gate kind {self.kind!r}")

    def all_qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls


@dataclass(frozen=True)
class Statevector:
    """Unit-norm complex amplitudes over a set of named registers."""

    amplitudes: np.ndarray
    registers: tuple[Register, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        n = sum(r.width for r in self.registers)
        if n > MAX_QUBITS:
            raise CapacityError(
                f"{n} qubits exceed the simulator cap of {MAX_QUBITS}"
            )
        if amps.shape != (1 << n,):
            raise ValueError(
                f"amplitude length {amps.shape} does not match {n} qubits"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"statevector norm {norm} is not 1")
        offset = 0
        for reg in self.registers:
            if reg.offset != offset or reg.width < 0:
                raise ValueError(f"register map is not contiguous at {reg.name!r}")
            offset += reg.width
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate register names")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, register_spec: Sequence[tuple[str, int]]) -> Statevector:
        regs, offset = [], 0
        for name, width in register_spec:
            regs.append(Register(name, offset, width))
            offset += width
        if offset > MAX_QUBITS:
            raise CapacityError(f"{offset} qubits exceed the simulator cap of {MAX_QUBITS}")
        amps = np.zeros(1 << offset, dtype=complex)
        amps[0] = 1.0
        return cls(amplitudes=amps, registers=tuple(regs))

    @classmethod
    def from_amplitudes(
        cls, amplitudes: np.ndarray, register_spec: Sequence[tuple[str, int]]
    ) -> Statevector:
        regs, offset = [], 0
        for name, width in register_spec:
            regs.append(Register(name, offset, width))
            offset += width
        return cls(amplitudes=np.asarray(amplitudes, dtype=complex), registers=tuple(regs))

    @property
    def n_qubits(self) -> int:
        return sum(r.width for r in self.registers)

    def register(self, name: str) -> Register:
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise KeyError(f"unknown register {name!r}")

    def copy(self) -> Statevector:
        return Statevector(amplitudes=self.amplitudes.copy(), registers=self.registers)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive semi-definite matrix on ``m_qubits``."""

    matrix: np.ndarray
    m_qubits: int

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 1 << self.m_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {self.m_qubits} qubits")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {np.trace(mat)} is not 1")
        if np.linalg.eigvalsh(mat).min() < -1e-10:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        object.__setattr__(self, "matrix", mat)


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------


def _apply_inplace(amps: np.ndarray, n: int, gate: GateOp) -> None:
    for q in gate.all_qubits():
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    mat = gate.local_matrix()
    view = amps.reshape((2,) * n)  # axis n-1-q holds qubit q
    idx: list = [slice(None)] * n
    for c, p in zip(gate.controls, gate.control_pattern):
        idx[n - 1 - c] = p
    sub = view[tuple(idx)]
    remaining = [q for q in reversed(range(n)) if q not in gate.controls]
    k = len(gate.targets)
    src = [remaining.index(t) for t in reversed(gate.targets)]
    moved = np.moveaxis(sub, src, range(k))
    flat = moved.reshape(1 << k, -1)
    moved[...] = (mat @ flat).reshape(moved.shape)


def apply_gate(sv: Statevector, gate: GateOp) -> Statevector:
    """Apply a gate, returning a new statevector (the input is unchanged)."""
    amps = sv.amplitudes.copy()
    _apply_inplace(amps, sv.n_qubits, gate)
    return Statevector(amplitudes=amps, registers=sv.registers)


def apply_circuit(sv: Statevector, gates: Sequence[GateOp]) -> Statevector:
    """Apply a gate sequence with a single amplitude copy."""
    amps = sv.amplitudes.copy()
    n = sv.n_qubits
    for gate in gates:
        _apply_inplace(amps, n, gate)
    return Statevector(amplitudes=amps, registers=sv.registers)


def realized_matrix(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Dense matrix of a gate on an ``n_qubits`` space (small n only)."""
    dim = 1 << n_qubits
    if n_qubits > 12:
        raise CapacityError("realized_matrix supports at most 12 qubits")
    mat = np.eye(dim, dtype=complex)
    for col in range(dim):
        _apply_inplace(mat[:, col], n_qubits, gate)
    return mat


# ---------------------------------------------------------------------------
# register bookkeeping
# ---------------------------------------------------------------------------


def append_register(sv: Statevector, name: str, width: int) -> Statevector:
    """Append a register in state |0...0> above the existing qubits."""
    n = sv.n_qubits
    if n + width > MAX_QUBITS:
        raise CapacityError(f"{n + width} qubits exceed the simulator cap of {MAX_QUBITS}")
    amps = np.zeros(1 << (n + width), dtype=complex)
    amps[: 1 << n] = sv.amplitudes
    regs = sv.registers + (Register(name, n, width),)
    return Statevector(amplitudes=amps, registers=regs)


def drop_register(sv: Statevector, name: str, value: int) -> Statevector:
    """Remove a register known to be in the basis state ``value``."""
    reg = sv.register(name)
    n = sv.n_qubits
    high = 1 << (n - reg.offset - reg.width)
    low = 1 << reg.offset
    cube = sv.amplitudes.reshape(high, reg.dim, low)
    kept = cube[:, value, :]
    residual = np.linalg.norm(cube) ** 2 - np.linalg.norm(kept) ** 2
    if residual > 1e-9:
        raise ValueError(
            f"register {name!r} is not in basis state {value} (residual mass {residual:.2e})"
        )
    regs = []
    for r in sv.registers:
        if r.name == name:
            continue
        off = r.offset if r.offset < reg.offset else r.offset - reg.width
        regs.append(Register(r.name, off, r.width))
    amps = kept.reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return Statevector(amplitudes=amps, registers=tuple(regs))


def _marginal_probabilities(sv: Statevector, reg: Register) -> np.ndarray:
    n = sv.n_qubits
    high = 1 << (n - reg.offset - reg.width)
    low = 1 << reg.offset
    cube = sv.amplitudes.reshape(high, reg.dim, low)
    probs = np.sum(np.abs(cube) ** 2, axis=(0, 2))
    return probs / probs.sum()


def measure_register(
    sv: Statevector, name: str, shots: int, seed
) -> dict[int, int]:
    """Sample ``shots`` outcomes from the register's Born distribution.

    Returns a histogram mapping outcome value to count (zero counts omitted).
    Deterministic for a fixed seed.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    reg = sv.register(name)
    probs = _marginal_probabilities(sv, reg)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {int(v): int(c) for v, c in enumerate(counts) if c > 0}


def postselect(sv: Statevector, qubit: int, outcome: int) -> tuple[Statevector, float]:
    """Project a qubit onto ``outcome`` and renormalize.

    Returns the projected state and the exact branch probability. Raises
    ``PostSelectionError`` when the branch probability is below 1e-12.
    """
    n = sv.n_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    view = sv.amplitudes.reshape((2,) * n)
    idx: list = [slice(None)] * n
    idx[n - 1 - qubit] = outcome
    branch = view[tuple(idx)]
    prob = float(np.sum(np.abs(branch) ** 2))
    if prob < 1e-12:
        raise PostSelectionError(
            f"post-selection on qubit {qubit}={outcome} has probability {prob:.3e}"
        )
    amps = np.zeros_like(sv.amplitudes).reshape((2,) * n)
    amps[tuple(idx)] = branch / np.sqrt(prob)
    return Statevector(amplitudes=amps.reshape(-1), registers=sv.registers), prob


def partial_trace(sv: Statevector, keep: str) -> DensityOperator:
    """Reduced density operator of one register, tracing out everything else."""
    reg = sv.register(keep)
    n = sv.n_qubits
    high = 1 << (n - reg.offset - reg.width)
    low = 1 << reg.offset
    cube = sv.amplitudes.reshape(high, reg.dim, low)
    rho = np.einsum("hkl,hml->km", cube, cube.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(matrix=rho, m_qubits=reg.width)


# ---------------------------------------------------------------------------
# spectral primitives
# ---------------------------------------------------------------------------


def hermitian_exponential_unitary(rho, t: float) -> np.ndarray:
    """exp(-i * rho * t) via eigendecomposition; exact for Hermitian input."""
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ValueError("matrix is not Hermitian")
    evals, evecs = np.linalg.eigh(mat)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def qft_ops(qubits: Sequence[int]) -> list[GateOp]:
    """Exact quantum Fourier transform on a little-endian qubit list."""
    qubits = list(qubits)
    n = len(qubits)
    ops: list[GateOp] = []
    for j in reversed(range(n)):
        ops.append(GateOp.h(qubits[j]))
        for m in reversed(range(j)):
            ops.append(GateOp.controlled_phase(np.pi / (1 << (j - m)), qubits[m], qubits[j]))
    for k in range(n // 2):
        ops.append(GateOp.swap(qubits[k], qubits[n - 1 - k]))
    return ops


def inverse_qft_ops(qubits: Sequence[int]) -> list[GateOp]:
    """Exact inverse QFT: reversed sequence of inverted gates."""
    ops = []
    for gate in reversed(qft_ops(qubits)):
        if gate.kind == "controlled_phase":
            ops.append(
                GateOp.controlled_phase(-gate.theta, gate.controls[0], gate.targets[0])
            )
        else:
            ops.append(gate)  # H and SWAP are self-inverse
    return ops


def _controlled_power_ops(
    unitary: np.ndarray, target_qubits: Sequence[int], phase_qubits: Sequence[int]
) -> list[GateOp]:
    """Controlled-U^(2^k) ladder, phase qubit k controlling the k-th power."""
    ops = []
    power = np.asarray(unitary, dtype=complex)
    for k, ctrl in enumerate(phase_qubits):
        if k > 0:
            power = power @ power
        ops.append(GateOp.controlled_unitary(power, target_qubits, [ctrl]))
    return ops


def qpe(
    sv: Statevector,
    unitary: np.ndarray,
    target: str,
    tau: int,
    phase_register: str = "phase",
) -> Statevector:
    """Quantum phase estimation of ``unitary`` acting on register ``target``.

    Appends a ``tau``-qubit phase register; an eigenstate with eigenphase
    exactly ``j / 2**tau`` leaves the register reading ``j`` with certainty.
    """
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    treg = sv.register(target)
    unitary = _check_unitary(unitary, "qpe unitary")
    if unitary.shape[0] != treg.dim:
        raise ValueError(
            f"unitary dim {unitary.shape[0]} does not match register {target!r} ({treg.dim})"
        )
    out = append_register(sv, phase_register, tau)
    preg = out.register(phase_register)
    ops = [GateOp.h(q) for q in preg.qubits()]
    ops += _controlled_power_ops(unitary, treg.qubits(), preg.qubits())
    ops += inverse_qft_ops(preg.qubits())
    return apply_circuit(out, ops)


def inverse_qpe(
    sv: Statevector,
    unitary: np.ndarray,
    target: str,
    phase_register: str = "phase",
) -> Statevector:
    """Exactly undo ``qpe`` (the phase register is kept, approximately |0>)."""
    treg = sv.register(target)
    preg = sv.register(phase_register)
    unitary = _check_unitary(unitary, "qpe unitary")
    ops = qft_ops(preg.qubits())
    inverse_ladder = _controlled_power_ops(
        unitary.conj().T, treg.qubits(), preg.qubits()
    )
    ops += list(reversed(inverse_ladder))
    ops += [GateOp.h(q) for q in preg.qubits()]
    return apply_circuit(sv, ops)


# ---------------------------------------------------------------------------
# overlap estimation
# ---------------------------------------------------------------------------


def _binary_outcome(probability: float, shots: int, seed) -> float:
    rng = np.random.default_rng(seed)
    return rng.binomial(shots, min(max(probability, 0.0), 1.0)) / shots


def hadamard_test(
    sv_a: Statevector, sv_b: Statevector, shots: int = 0, seed=None
) -> float:
    """Estimate Re<b|a> via the interference circuit.

    The composite holds ``(|0>|b> + |1>|a>)/sqrt(2)``; a Hadamard on the test
    qubit gives P(0) = 1/2 + Re<b|a>/2. ``shots=0`` reads the exact marginal,
    otherwise the outcome is sampled binomially.
    """
    if sv_a.n_qubits != sv_b.n_qubits:
        raise ValueError(
            f"state dimensions differ: {sv_a.n_qubits} vs {sv_b.n_qubits} qubits"
        )
    n = sv_a.n_qubits
    if n + 1 > MAX_QUBITS:
        raise CapacityError(f"hadamard test needs {n + 1} qubits (cap {MAX_QUBITS})")
    amps = np.concatenate([sv_b.amplitudes, sv_a.amplitudes]) / np.sqrt(2.0)
    composite = Statevector.from_amplitudes(amps, [("state", n), ("test", 1)])
    composite = apply_gate(composite, GateOp.h(n))
    p0 = float(_marginal_probabilities(composite, composite.register("test"))[0])
    if shots == 0:
        return 2.0 * p0 - 1.0
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    return 2.0 * _binary_outcome(p0, shots, seed) - 1.0


def swap_test(
    sv_a: Statevector,
    sv_b: Statevector,
    subsystem: str | None = None,
    shots: int = 0,
    seed=None,
) -> float:
    """Estimate |<a|b>|^2 via the controlled-swap circuit, clamped to [0, 1].

    With ``subsystem`` set, only that register of ``sv_a`` is swapped against
    the whole of ``sv_b``; the estimate is then Tr(rho_sub * rho_b), which for
    pure product inputs reduces to the squared overlap.
    """
    if subsystem is None:
        if sv_a.n_qubits != sv_b.n_qubits:
            raise ValueError(
                f"state dimensions differ: {sv_a.n_qubits} vs {sv_b.n_qubits} qubits"
            )
        swap_qubits = list(range(sv_a.n_qubits))
    else:
        reg = sv_a.register(subsystem)
        if reg.width != sv_b.n_qubits:
            raise ValueError(
                f"register {subsystem!r} has {reg.width} qubits, "
                f"second state has {sv_b.n_qubits}"
            )
        swap_qubits = reg.qubits()
    n_a, n_b = sv_a.n_qubits, sv_b.n_qubits
    total = n_a + n_b + 1
    if total > MAX_QUBITS:
        raise CapacityError(f"swap test needs {total} qubits (cap {MAX_QUBITS})")
    amps = np.zeros(1 << total, dtype=complex)
    amps[: 1 << (n_a + n_b)] = np.kron(sv_b.amplitudes, sv_a.amplitudes)
    composite = Statevector.from_amplitudes(
        amps, [("a", n_a), ("b", n_b), ("test", 1)]
    )
    anc = n_a + n_b
    gates = [GateOp.h(anc)]
    gates += [
        GateOp.controlled_swap(anc, qa, n_a + k) for k, qa in enumerate(swap_qubits)
    ]
    gates.append(GateOp.h(anc))
    composite = apply_circuit(composite, gates)
    p0 = float(_marginal_probabilities(composite, composite.register("test"))[0])
    if shots == 0:
        overlap = 2.0 * p0 - 1.0
    elif shots < 0:
        raise ValueError("shots must be nonnegative")
    else:
        overlap = 2.0 * _binary_outcome(p0, shots, seed) - 1.0
    return min(max(overlap, 0.0), 1.0)


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------


def real_amplitude_prep_ops(vector: np.ndarray, qubits: Sequence[int]) -> list[GateOp]:
    """Gate sequence preparing a real vector on a register starting from |0...0>.

    Binary-tree construction: one (multi-controlled) Ry per tree node, with
    branch norms above the leaves and signed leaf pairs fixing the signs.
    """
    qubits = list(qubits)
    w = len(qubits)
    v = np.asarray(vector, dtype=float)
    if v.shape != (1 << w,):
        raise ValueError(f"vector length {v.shape} does not match {w} qubits")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot prepare the zero vector")
    levels = [v / norm]
    while levels[-1].size > 1:
        pairs = levels[-1].reshape(-1, 2)
        levels.append(np.sqrt(np.sum(pairs**2, axis=1)))
    levels.reverse()  # levels[dd] has 2**dd nodes
    ops: list[GateOp] = []
    for dd in range(w):
        target = qubits[w - 1 - dd]
        controls = [qubits[w - 1 - j] for j in range(dd)]
        children = levels[dd + 1]
        for node in range(1 << dd):
            c0, c1 = children[2 * node], children[2 * node + 1]
            if np.hypot(c0, c1) == 0.0:
                continue
            theta = np.arctan2(c1, c0)
            if theta == 0.0:
                continue
            pattern = [(node >> (dd - 1 - j)) & 1 for j in range(dd)]
            if dd == 0:
                ops.append(GateOp.ry(theta, target))
            else:
                ops.append(GateOp.multi_controlled_ry(theta, target, controls, pattern))
    return ops


def uniform_prep_ops(count: int, qubits: Sequence[int]) -> list[GateOp]:
    """Uniform superposition over the first ``count`` basis states of a register."""
    qubits = list(qubits)
    if not 1 <= count <= (1 << len(qubits)):
        raise ValueError(f"count {count} does not fit {len(qubits)} qubits")
    if count == 1 << len(qubits):
        return [GateOp.h(q) for q in qubits]
    v = np.zeros(1 << len(qubits))
    v[:count] = 1.0 / np.sqrt(count)
    return real_amplitude_prep_ops(v, qubits)
