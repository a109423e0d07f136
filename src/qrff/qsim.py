"""Dense statevector simulator with named registers.

Every gate is one uniformly controlled ``GateOp``, a stack of unitaries
indexed by the control value, applied by one batched matmul.

Basis convention: qubit ``q`` carries weight ``2**q`` in the amplitude index,
registers are contiguous qubit ranges, and the first-listed register occupies
the lowest bits. A register's value is read little-endian within the register.

Ry convention: ``Ry(theta)`` rotates by the full angle,
``[[cos t, -sin t], [sin t, cos t]]`` (equal to the half-angle convention at
``2*theta``), so circuit angles can be used directly as written in the
encoding plan.
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
    """A uniformly controlled gate: one unitary on the targets per control value.

    ``matrices`` has shape (2^c, 2^k, 2^k) for c controls and k targets, and
    ``matrices[v]`` acts on the targets where the controls read ``v``.
    Control ``controls[i]`` carries weight ``2**i`` in ``v`` and target
    ``targets[m]`` weight ``2**m`` in the matrix index. An uncontrolled gate
    is a stack of one matrix; a gate controlled on a single pattern is an
    identity stack with that one entry set.
    """

    matrices: np.ndarray = field(repr=False)
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()

    def __post_init__(self):
        targets = tuple(int(q) for q in self.targets)
        controls = tuple(int(q) for q in self.controls)
        if set(targets) & set(controls):
            raise ValueError("targets and controls overlap")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target qubits")
        if len(set(controls)) != len(controls):
            raise ValueError("duplicate control qubits")
        mats = np.asarray(self.matrices, dtype=complex)
        dim = 1 << len(targets)
        if mats.shape != (1 << len(controls), dim, dim):
            raise ValueError(
                f"matrix stack shape {mats.shape} does not fit {len(controls)} "
                f"controls and {len(targets)} targets"
            )
        err = np.max(np.abs(mats.conj().transpose(0, 2, 1) @ mats - np.eye(dim)))
        if err > _UNITARY_TOL:
            raise ValueError(f"matrix stack is not unitary (deviation {err:.2e})")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)

    @classmethod
    def h(cls, qubit: int) -> GateOp:
        return cls(_H_MATRIX[None], (qubit,))

    @classmethod
    def x(cls, qubit: int) -> GateOp:
        return cls(_X_MATRIX[None], (qubit,))

    @classmethod
    def ry(cls, theta, target: int, controls: Sequence[int] = ()) -> GateOp:
        """Uniformly controlled Ry: angle ``theta[v]`` where the controls read ``v``.

        ``theta`` is a scalar for an uncontrolled rotation.
        """
        t = np.ravel(np.asarray(theta, dtype=float))
        c, s = np.cos(t), np.sin(t)
        mats = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
        return cls(mats, (target,), tuple(controls))

    def adjoint(self) -> GateOp:
        return GateOp(self.matrices.conj().transpose(0, 2, 1), self.targets, self.controls)


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
    for q in gate.targets + gate.controls:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    view = amps.reshape((2,) * n)  # axis n-1-q holds qubit q
    # highest-weight qubit first, so the moved axes flatten to (v, target index)
    axes = [n - 1 - q for q in reversed(gate.targets + gate.controls)]
    moved = np.moveaxis(view, axes, range(len(axes)))
    dim = gate.matrices.shape[1]
    block = moved.reshape(len(gate.matrices), dim, -1)
    moved[...] = (gate.matrices @ block).reshape(moved.shape)


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


def postselect(
    sv: Statevector, register: str, weights: Sequence[float]
) -> tuple[Statevector, float]:
    """Scale the slice where ``register`` reads ``b`` by ``weights[b]`` and renormalize.

    This equals rotating a fresh flag qubit by Ry(arcsin weights[b]) controlled
    on the register reading ``b``, projecting the flag onto |1> and dropping
    it; one-hot weights on a one-qubit register project that qubit. Returns
    the scaled state and the branch probability, clamped to 1 against
    rounding. Raises ``PostSelectionError`` when the probability is below
    1e-12.
    """
    reg = sv.register(register)
    w = np.asarray(weights, dtype=float)
    if w.shape != (reg.dim,):
        raise ValueError(f"{w.size} weights for register {register!r} of dim {reg.dim}")
    if np.any(np.abs(w) > 1.0):
        raise ValueError("weights must lie in [-1, 1]")
    high = 1 << (sv.n_qubits - reg.offset - reg.width)
    branch = sv.amplitudes.reshape(high, reg.dim, -1) * w[:, None]
    prob = float(np.vdot(branch, branch).real)
    if prob < 1e-12:
        raise PostSelectionError(
            f"post-selection on register {register!r} has probability {prob:.3e}"
        )
    branch /= np.sqrt(prob)
    return Statevector(amplitudes=branch.reshape(-1), registers=sv.registers), min(prob, 1.0)


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
# phase estimation
# ---------------------------------------------------------------------------


def qft_ops(qubits: Sequence[int]) -> list[GateOp]:
    """Quantum Fourier transform ladder on a little-endian qubit list.

    One op per qubit, highest first: its Hadamard fused with the controlled
    phases from every lower qubit, diag(1, exp(i*pi*v / 2^j)) @ H where the
    lower qubits read ``v``. There are no final bit-reversal swaps, so the
    ladder is the normalized DFT with bit-reversed rows.
    """
    qubits = list(qubits)
    ops = []
    for j in reversed(range(len(qubits))):
        phase = np.exp(1j * np.pi * np.arange(1 << j) / (1 << j))
        mats = np.ones((1 << j, 2, 1), dtype=complex)
        mats[:, 1, 0] = phase
        ops.append(GateOp(mats * _H_MATRIX, (qubits[j],), qubits[:j]))
    return ops


def qpe_circuit(
    sv: Statevector, generator, t: float, target: str, tau: int
) -> list[GateOp]:
    """Phase-estimation ops of exp(i * generator * t) on register ``target``.

    The phase register is the ``tau`` qubits that ``qpe`` appends above ``sv``.
    With generator = V diag(lam) V^dagger (one ``eigh``): V^dagger on the
    targets; per phase qubit k one op controlled by the targets, its Hadamard
    fused with the kick diag(1, exp(i*lam_j*t*2^(tau-1-k))) for eigenvector j,
    the reversed powers standing in for the QFT's bit-reversal swaps; V on the
    targets; the adjoint QFT ladder. Besides the two d x d basis changes the
    ops take O(tau * d) memory.
    """
    treg = sv.register(target)
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    gen = np.asarray(generator, dtype=complex)
    if gen.shape != (treg.dim, treg.dim):
        raise ValueError(
            f"generator shape {gen.shape} does not match register {target!r} ({treg.dim})"
        )
    if np.max(np.abs(gen - gen.conj().T)) > 1e-10:
        raise ValueError("generator is not Hermitian")
    evals, basis = np.linalg.eigh(gen)
    targets = tuple(treg.qubits())
    phase = range(sv.n_qubits, sv.n_qubits + tau)
    ops = [GateOp(basis.conj().T[None], targets)]
    for k, q in enumerate(phase):
        mats = np.ones((treg.dim, 2, 1), dtype=complex)
        mats[:, 1, 0] = np.exp(1j * evals * t * (1 << (tau - 1 - k)))
        ops.append(GateOp(mats * _H_MATRIX, (q,), targets))
    ops.append(GateOp(basis[None], targets))
    ops += [op.adjoint() for op in reversed(qft_ops(phase))]
    return ops


def qpe(
    sv: Statevector, ops: Sequence[GateOp], tau: int, phase_register: str = "phase"
) -> Statevector:
    """Quantum phase estimation: append a ``tau``-qubit phase register, apply ``ops``.

    ``ops`` come from ``qpe_circuit``; an eigenphase lam*t/(2*pi) of exactly
    ``j / 2**tau`` leaves the register reading ``j``. From the |0...0> phase
    input this is the textbook QPE state, but the circuit equals the textbook
    one (Hadamards, controlled U^(2^k), inverse DFT) times a bit reversal of
    the phase input. So after post-selection and ``inverse_qpe`` a branch is
    the textbook one with the phase qubits in reverse order; the reversal
    fixes |0...0>, so the phase-0 slice and the leakage are unchanged.
    """
    return apply_circuit(append_register(sv, phase_register, tau), ops)


def inverse_qpe(sv: Statevector, ops: Sequence[GateOp]) -> Statevector:
    """Undo ``qpe`` with the adjoints of its ``ops`` in reverse order.

    The phase register is kept, approximately at |0...0>.
    """
    return apply_circuit(sv, [op.adjoint() for op in reversed(ops)])


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
    cswap = np.stack([np.eye(4, dtype=complex), _SWAP_MATRIX])
    gates = [GateOp.h(anc)]
    gates += [GateOp(cswap, (qa, n_a + k), (anc,)) for k, qa in enumerate(swap_qubits)]
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

    Binary-tree construction: one uniformly controlled Ry per tree level,
    with branch norms above the leaves and signed leaf pairs fixing the signs.
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
    ops = []
    for dd in range(w):
        # node index ``v`` of level dd is read from the dd qubits above the target
        children = levels[dd + 1].reshape(-1, 2)
        theta = np.arctan2(children[:, 1], children[:, 0])
        ops.append(GateOp.ry(theta, qubits[w - 1 - dd], qubits[w - dd :]))
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
