"""Dense statevector oracle for the paper's circuits.

Every gate is one uniformly controlled ``GateOp``, a stack of unitaries
indexed by the control value, and ``apply_circuit`` applies a list of them,
each by one batched matmul. The paper's encoding circuit
(``prepare_data_state``) and its phase estimation, post-selection and
un-compute (``dense_oracle``, on ``pipeline.rotation_profiles``) are
composed from these gates, and the Hadamard and SWAP tests read overlaps
off one measured test qubit. ``closed_form_gaps`` and ``encoding_gap`` hold
``pipeline.PreparedPipeline``'s closed form to them for the tests and
``qrff selftest``; the run path never imports this module.
Every state and ``realized_matrix``'s dense matrix pass ``errors.check_bytes``
before they are allocated.

Basis convention: qubit ``q`` carries weight ``2**q`` in the amplitude index,
registers are contiguous qubit ranges, and the first-listed register occupies
the lowest bits. A register's value is read little-endian within the register.

Ry convention: ``Ry(theta)`` rotates by the full angle,
``[[cos t, -sin t], [sin t, cos t]]`` (equal to the half-angle convention at
``2*theta``), so circuit angles can be used directly as written in the
encoding circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import PostSelectionError, check_bytes
from .pipeline import PreparedPipeline, rotation_profiles
from .rff import FeatureModel, scaled_feature_vector

_UNITARY_TOL = 1e-10

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
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
        n = self.n_qubits
        check_bytes(f"a {n}-qubit state", 16, n)
        amps = np.asarray(self.amplitudes, dtype=complex)
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
        n = sum(width for _, width in register_spec)
        check_bytes(f"a {n}-qubit state", 16, n)
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
        return cls.from_amplitudes(amps, register_spec)

    @classmethod
    def from_amplitudes(
        cls, amplitudes: np.ndarray, register_spec: Sequence[tuple[str, int]]
    ) -> Statevector:
        regs, offset = [], 0
        for name, width in register_spec:
            regs.append(Register(name, offset, width))
            offset += width
        return cls(amplitudes=amplitudes, registers=tuple(regs))

    @property
    def n_qubits(self) -> int:
        return sum(r.width for r in self.registers)

    def register(self, name: str) -> Register:
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise KeyError(f"unknown register {name!r}")


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


def apply_circuit(sv: Statevector, gates: Sequence[GateOp]) -> Statevector:
    """Apply a gate sequence with a single amplitude copy (the input is unchanged)."""
    amps = sv.amplitudes.copy()
    n = sv.n_qubits
    for gate in gates:
        _apply_inplace(amps, n, gate)
    return Statevector(amplitudes=amps, registers=sv.registers)


def realized_matrix(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Dense matrix of a gate on an ``n_qubits`` space (small n only)."""
    check_bytes(f"a {n_qubits}-qubit gate matrix", 16, 2 * n_qubits)
    dim = 1 << n_qubits
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
    check_bytes(f"a {n + width}-qubit state", 16, n + width)
    amps = np.zeros(1 << (n + width), dtype=complex)
    amps[: 1 << n] = sv.amplitudes
    regs = sv.registers + (Register(name, n, width),)
    return Statevector(amplitudes=amps, registers=regs)


def _register_view(sv: Statevector, reg: Register) -> np.ndarray:
    """The amplitudes as (above, register, below), axis 1 reading ``reg``."""
    return sv.amplitudes.reshape(-1, reg.dim, 1 << reg.offset)


def _marginal_probabilities(sv: Statevector, reg: Register) -> np.ndarray:
    probs = np.sum(np.abs(_register_view(sv, reg)) ** 2, axis=(0, 2))
    return probs / probs.sum()


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
    branch = _register_view(sv, reg) * w[:, None]
    prob = float(np.vdot(branch, branch).real)
    if prob < 1e-12:
        raise PostSelectionError(
            f"post-selection on register {register!r} has probability {prob:.3e}"
        )
    branch /= np.sqrt(prob)
    return Statevector(amplitudes=branch.reshape(-1), registers=sv.registers), min(prob, 1.0)


def partial_trace(sv: Statevector, keep: str) -> np.ndarray:
    """Hermitian reduced density matrix of one register, tracing out the rest."""
    cube = _register_view(sv, sv.register(keep))
    rho = np.einsum("hkl,hml->km", cube, cube.conj())
    return 0.5 * (rho + rho.conj().T)


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
    sv: Statevector, target: str, basis, theta, tau: int
) -> list[GateOp]:
    """Phase-estimation ops of U = basis diag(exp(2 pi i theta)) basis^dagger on ``target``.

    ``basis`` is a unitary whose column j is an eigenvector of U, and
    ``theta[j]`` its eigenphase in turns. The phase register is the ``tau``
    qubits that ``qpe`` appends above ``sv``. The ops: basis^dagger on the
    targets; per phase qubit k one op controlled by the targets, its Hadamard
    fused with the kick diag(1, exp(2 pi i (theta_j 2^(tau-1-k) mod 1))) for
    eigenvector j, the reversed powers standing in for the QFT's bit-reversal
    swaps; basis on the targets; the adjoint QFT ladder. Taking each kick's
    phase mod 1 keeps its error at rounding, however large the power. Besides
    the two d x d basis changes the ops take O(tau * d) memory.
    """
    treg = sv.register(target)
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (treg.dim,):
        raise ValueError(
            f"{theta.shape} eigenphases do not match register {target!r} ({treg.dim})"
        )
    basis = np.asarray(basis, dtype=complex)
    targets = tuple(treg.qubits())
    phase = range(sv.n_qubits, sv.n_qubits + tau)
    ops = [GateOp(basis.conj().T[None], targets)]
    for k, q in enumerate(phase):
        mats = np.ones((treg.dim, 2, 1), dtype=complex)
        mats[:, 1, 0] = np.exp(2j * np.pi * (theta * (1 << (tau - 1 - k)) % 1.0))
        ops.append(GateOp(mats * _H_MATRIX, (q,), targets))
    ops.append(GateOp(basis[None], targets))
    ops += [op.adjoint() for op in reversed(qft_ops(phase))]
    return ops


def qpe(sv: Statevector, ops: Sequence[GateOp], tau: int) -> Statevector:
    """Quantum phase estimation: append a ``tau``-qubit register ``phase``, apply ``ops``.

    ``ops`` come from ``qpe_circuit``; an eigenphase of exactly ``j / 2**tau``
    turns leaves the register reading ``j``. From the |0...0> phase
    input this is the textbook QPE state, but the circuit equals the textbook
    one (Hadamards, controlled U^(2^k), inverse DFT) times a bit reversal of
    the phase input. So after post-selection and ``inverse_qpe`` a branch is
    the textbook one with the phase qubits in reverse order; the reversal
    fixes |0...0>, so the phase-0 slice and the leakage are unchanged.
    """
    return apply_circuit(append_register(sv, "phase", tau), ops)


def inverse_qpe(sv: Statevector, ops: Sequence[GateOp]) -> Statevector:
    """Undo ``qpe`` with the adjoints of its ``ops`` in reverse order.

    The phase register is kept, approximately at |0...0>.
    """
    return apply_circuit(sv, [op.adjoint() for op in reversed(ops)])


# ---------------------------------------------------------------------------
# overlap estimation
# ---------------------------------------------------------------------------


def _test_qubit_overlap(composite: Statevector, shots: int, seed) -> float:
    """2 P(0) - 1 of the ``test`` register: exact at ``shots=0``, otherwise
    with P(0) read as ``default_rng(seed).binomial(shots, P(0)) / shots``,
    P(0) clamped to [0, 1]."""
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    p0 = float(_marginal_probabilities(composite, composite.register("test"))[0])
    if shots:
        p0 = np.random.default_rng(seed).binomial(shots, min(max(p0, 0.0), 1.0)) / shots
    return 2.0 * p0 - 1.0


def hadamard_test(
    sv_a: Statevector, sv_b: Statevector, shots: int = 0, seed=None
) -> float:
    """Estimate Re<b|a> via the interference circuit.

    The composite holds ``(|0>|b> + |1>|a>)/sqrt(2)``; a Hadamard on the test
    qubit gives P(0) = 1/2 + Re<b|a>/2. ``shots=0`` reads the exact marginal,
    otherwise the outcome is sampled binomially.
    """
    n = sv_a.n_qubits
    if sv_b.n_qubits != n:
        raise ValueError(f"state dimensions differ: {n} vs {sv_b.n_qubits} qubits")
    check_bytes(f"a {n + 1}-qubit state", 16, n + 1)
    amps = np.concatenate([sv_b.amplitudes, sv_a.amplitudes]) / np.sqrt(2.0)
    composite = Statevector.from_amplitudes(amps, [("state", n), ("test", 1)])
    return _test_qubit_overlap(apply_circuit(composite, [GateOp.h(n)]), shots, seed)


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
    n_a, n_b = sv_a.n_qubits, sv_b.n_qubits
    swap_qubits = range(n_a) if subsystem is None else sv_a.register(subsystem).qubits()
    if len(swap_qubits) != n_b:
        raise ValueError(f"{len(swap_qubits)} qubits of the first state swap against {n_b}")
    anc = n_a + n_b
    check_bytes(f"a {anc + 1}-qubit state", 16, anc + 1)
    pair = Statevector.from_amplitudes(
        np.kron(sv_b.amplitudes, sv_a.amplitudes), [("a", n_a), ("b", n_b)]
    )
    composite = append_register(pair, "test", 1)
    cswap = np.stack([np.eye(4, dtype=complex), _SWAP_MATRIX])
    gates = [GateOp.h(anc)]
    gates += [GateOp(cswap, (qa, n_a + k), (anc,)) for k, qa in enumerate(swap_qubits)]
    gates.append(GateOp.h(anc))
    overlap = _test_qubit_overlap(apply_circuit(composite, gates), shots, seed)
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


# ---------------------------------------------------------------------------
# the paper's circuits
# ---------------------------------------------------------------------------


def prepare_data_state(fm: FeatureModel) -> Statevector:
    """The encoding circuit, simulated gate by gate: an oracle for the tests
    and ``qrff selftest``.

    Registers: ``row`` (low bits) and ``col``; the amplitude at column m,
    row j equals ``design[j, m] / frobenius_norm``, zero on padding, for the
    design rebuilt from the fit's inputs. The cos/sin qubit's angles are read
    back from each (cos, sin) pair, which reproduces the feature phases
    modulo 2*pi.
    """
    design = scaled_feature_vector(fm.inputs, fm.freq, fm.hyper)
    n_rows, n_cols = design.shape
    m_freq = fm.freq.shape[0]
    sv = Statevector.zero(
        [("row", (n_rows - 1).bit_length()), ("col", (n_cols - 1).bit_length())]
    )
    row_qubits = sv.register("row").qubits()
    col = sv.register("col")
    trig_qubit = col.offset
    pair_qubits = col.qubits()[1:]
    ops = uniform_prep_ops(n_rows, row_qubits)
    ops += uniform_prep_ops(m_freq, pair_qubits)
    # control value v = row + padded rows * pair, zero angles on padding
    theta = np.zeros((1 << len(pair_qubits), sv.register("row").dim))
    theta[:m_freq, :n_rows] = np.arctan2(design[:, 1::2], design[:, 0::2]).T
    ops.append(GateOp.ry(theta.ravel(), trig_qubit, row_qubits + pair_qubits))
    return apply_circuit(sv, ops)


def dense_oracle(
    sv: Statevector, delta_r: float, tau: int, profiles: Sequence[np.ndarray]
) -> tuple[Statevector, list[GateOp], list[tuple[Statevector, float]]]:
    """The spectral steps as circuits on an encoded state: the test oracle.

    Phase-estimates exp(i * rho * t), t = 2 pi / delta_r, with rho the
    ``col`` register's reduced state, into ``tau`` phase qubits
    (``qpe_circuit``, ``qpe``); then per branch post-selects on its rotation
    profile (``postselect``, the flag qubit folded into per-bin weights) and
    un-computes the phase register (``inverse_qpe``). ``profiles`` are the
    mean and variance branches' ``pipeline.rotation_profiles``.
    Returns the post-QPE state, the QPE ops, and
    ``[(mean_state, p1), (variance_state, p2)]``.

    One SVD of the simulated amplitudes over (col, row), A = W diag(s) Vh,
    gives rho = W diag(s^2) W^dagger: the QPE basis is the full W and the
    eigenphases are s^2 / delta_r, zero past the rank. It is accurate where
    ``eigh`` of A A^dagger squares the error (Golub & Van Loan, section 8.6).
    """
    col, row = sv.register("col"), sv.register("row")
    basis, s, _ = np.linalg.svd(sv.amplitudes.reshape(col.dim, row.dim))
    # exp(+i*rho*t): eigenphases lam~^2/delta_r grow with the eigenvalue, so
    # the phase register decodes directly as lam_hat^2 = b * delta_r / 2^tau
    theta = np.zeros(col.dim)
    theta[: s.size] = s**2 / delta_r
    circuit = qpe_circuit(sv, "col", basis, theta, tau)
    spectral = qpe(sv, circuit, tau)
    branches = []
    for profile in profiles:
        state, prob = postselect(spectral, "phase", profile)
        branches.append((inverse_qpe(state, circuit), prob))
    return spectral, circuit, branches


def pipeline_oracle(pipe: PreparedPipeline):
    """``dense_oracle`` on ``pipe``'s encoded fit, with the rotation profiles of its c1 and c2."""
    profiles = rotation_profiles(pipe.c1, pipe.c2, pipe.sigma_tilde_sq, pipe.delta_r, pipe.tau)
    return dense_oracle(prepare_data_state(pipe.fm), pipe.delta_r, pipe.tau, profiles)


def _padded_gap(dense: np.ndarray, closed: np.ndarray) -> float:
    """max |dense - closed|, ``closed`` zero-padded to ``dense``'s shape."""
    pad = [(0, n - m) for n, m in zip(dense.shape, closed.shape)]
    return float(np.abs(dense - np.pad(closed, pad)).max())


def closed_form_gaps(pipe: PreparedPipeline, oracle=None) -> dict[str, float]:
    """Largest |closed form - dense circuit| per quantity ``pipe`` keeps, by attribute name,
    against ``oracle`` (by default ``pipeline_oracle(pipe)``). The coefficients a and b
    are compared through the padded mean phase-0 slice V diag(a c1 |X|_F / sqrt(p1)) U^T
    and variance rho_col V diag(b c2^2 |X|_F^2 / p2) V^T, at the oracle's p1 and p2, with
    the design X's left singular vectors rebuilt as U = X V / s."""
    if oracle is None:
        oracle = pipeline_oracle(pipe)
    fm, fro = pipe.fm, pipe.fm.frobenius_norm
    u = scaled_feature_vector(fm.inputs, fm.freq, fm.hyper) @ fm.v / fm.singular_values
    _, _, ((mean, p1), (variance, p2)) = oracle
    a = pipe.mean_coefficients * pipe.c1 * fro / np.sqrt(p1)
    b = pipe.variance_coefficients * pipe.c2**2 * fro**2 / p2
    dims = (-1, mean.register("col").dim, mean.register("row").dim)
    mean0, variance0 = (sv.amplitudes.reshape(dims)[0] for sv in (mean, variance))
    rho = partial_trace(variance, "col")
    leakages = [1.0 - np.vdot(s, s).real for s in (mean0, variance0)]
    return {
        "mean_coefficients": _padded_gap(mean0, (fm.v * a) @ u.T),
        "variance_coefficients": _padded_gap(rho, (fm.v * b) @ fm.v.T),
        "p1": abs(pipe.p1 - p1),
        "p2": abs(pipe.p2 - p2),
        "uncompute_leakage_mean": abs(pipe.uncompute_leakage_mean - leakages[0]),
        "uncompute_leakage_variance": abs(pipe.uncompute_leakage_variance - leakages[1]),
    }


def encoding_gap(fm: FeatureModel) -> float:
    """Largest |encoding circuit amplitude - zero-padded design.T / frobenius_norm|."""
    sv = prepare_data_state(fm)
    shape = (sv.register("col").dim, sv.register("row").dim)
    design = scaled_feature_vector(fm.inputs, fm.freq, fm.hyper)
    return _padded_gap(sv.amplitudes.reshape(shape), design.T / fm.frobenius_norm)
