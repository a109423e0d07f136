from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from qrff import errors, qsim
from qrff.errors import CapacityError, PostSelectionError
from qrff.pipeline import rotation_profiles
from qrff.qsim import GateOp, Statevector


def random_state(n_qubits: int, seed: int, complex_amps: bool = True) -> Statevector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits)
    if complex_amps:
        amps = amps + 1j * rng.normal(size=1 << n_qubits)
    amps = amps / np.linalg.norm(amps)
    return Statevector.from_amplitudes(amps, [("r", n_qubits)])


def dense_uniformly_controlled(matrices, targets, controls, n):
    """Independent dense construction: loop over basis states.

    Basis state ``i`` is mapped by ``matrices[v]``, with ``v`` read from the
    control bits of ``i`` (control b has weight 2**b) and the column index
    from its target bits (target m has weight 2**m).
    """
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    target_mask = sum(1 << q for q in targets)
    for i in range(dim):
        v = sum(((i >> q) & 1) << b for b, q in enumerate(controls))
        col = sum(((i >> q) & 1) << m for m, q in enumerate(targets))
        for row in range(1 << len(targets)):
            j = (i & ~target_mask) | sum(((row >> m) & 1) << q for m, q in enumerate(targets))
            mat[j, i] += matrices[v][row, col]
    return mat


def ry_matrix(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2


def swap_gate(q1, q2):
    return GateOp(np.eye(4, dtype=complex)[[0, 2, 1, 3]][None], (q1, q2))


def x_gate(q):
    return GateOp(np.eye(2, dtype=complex)[[1, 0]][None], (q,))


def bit_reversal(n):
    """Index permutation reversing the order of n bits."""
    return np.array([int(format(i, f"0{n}b")[::-1], 2) for i in range(1 << n)])


def one_pattern_gate(matrix, targets, controls, value):
    """Identity stack with ``matrix`` where the controls read ``value``."""
    dim = len(matrix)
    stack = np.tile(np.eye(dim, dtype=complex), (1 << len(controls), 1, 1))
    stack[value] = matrix
    return GateOp(stack, tuple(targets), tuple(controls))


def circuit_matrix(ops, n):
    mat = np.eye(1 << n, dtype=complex)
    for op in ops:
        mat = qsim.realized_matrix(op, n) @ mat
    return mat


def flag_circuit_postselect(sv, register, weights):
    """The circuit ``postselect`` replaces: flag, controlled Ry(arcsin w), project |1>, drop."""
    ext = qsim.append_register(sv, "flag", 1)
    flag = ext.register("flag").offset
    gate = GateOp.ry(np.arcsin(weights), flag, ext.register(register).qubits())
    branch = qsim.apply_circuit(ext, [gate]).amplitudes.reshape(2, -1)[1]
    prob = float(np.sum(np.abs(branch) ** 2))
    return branch / np.sqrt(prob), prob


class TestGates:
    def test_hadamard_on_zero(self):
        sv = qsim.apply_circuit(Statevector.zero([("q", 1)]), [GateOp.h(0)])
        assert np.allclose(sv.amplitudes, [1 / np.sqrt(2)] * 2)

    def test_ry_full_angle_convention(self):
        theta = 0.7
        sv = qsim.apply_circuit(Statevector.zero([("q", 1)]), [GateOp.ry(theta, 0)])
        assert np.allclose(sv.amplitudes, [np.cos(theta), np.sin(theta)])

    @pytest.mark.parametrize("seed", range(8))
    def test_multi_controlled_ry_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        target = int(rng.integers(n))
        others = [q for q in range(n) if q != target]
        k = int(rng.integers(1, 4))
        controls = list(rng.choice(others, size=k, replace=False))
        pattern = [int(b) for b in rng.integers(0, 2, size=k)]
        theta = float(rng.uniform(-np.pi, np.pi))
        value = sum(b << i for i, b in enumerate(pattern))
        angles = np.zeros(1 << k)
        angles[value] = theta
        got = qsim.realized_matrix(GateOp.ry(angles, target, controls), n)
        stack = np.tile(np.eye(2, dtype=complex), (1 << k, 1, 1))
        stack[value] = ry_matrix(theta)
        want = dense_uniformly_controlled(stack, [target], controls, n)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_multi_controlled_ry_all_zero_pattern_on_basis_zero(self):
        theta = 0.4
        sv = Statevector.zero([("c", 3), ("t", 1)])
        gate = GateOp.ry([theta] + [0.0] * 7, 3, [0, 1, 2])
        out = qsim.apply_circuit(sv, [gate])
        expected = np.zeros(16, dtype=complex)
        expected[0] = np.cos(theta)
        expected[8] = np.sin(theta)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ["h", "x", "swap", "mcry", "cphase", "unitary"])
    def test_realized_matrices_are_unitary(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        gate = {
            "h": GateOp.h(1),
            "x": x_gate(0),
            "swap": swap_gate(0, 2),
            "mcry": GateOp.ry([0.0, 1.1, 0.0, 0.0], 2, [0, 1]),
            "cphase": one_pattern_gate(np.diag([1.0, np.exp(0.3j)]), [2], [0], 1),
            "unitary": GateOp(np.linalg.qr(rng.normal(size=(4, 4)))[0][None], (0, 2)),
        }[kind]
        mat = qsim.realized_matrix(gate, 3)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(8))) <= 1e-10

    def test_non_unitary_matrix_rejected_at_construction(self):
        with pytest.raises(ValueError):
            GateOp(np.array([[[1.0, 0.0], [1.0, 1.0]]]), (0,))

    def test_index_out_of_range(self):
        sv = Statevector.zero([("q", 2)])
        with pytest.raises(ValueError):
            qsim.apply_circuit(sv, [GateOp.h(5)])

    @pytest.mark.parametrize("seed", range(3))
    def test_depth_100_norm_preservation(self, seed):
        rng = np.random.default_rng(seed)
        sv = Statevector.zero([("r", 5)])
        amps = sv.amplitudes.copy()
        for _ in range(100):
            q = int(rng.integers(5))
            choice = rng.integers(4)
            if choice == 0:
                gate = GateOp.h(q)
            elif choice == 1:
                gate = GateOp.ry(float(rng.uniform(0, 2 * np.pi)), q)
            elif choice == 2:
                q2 = int(rng.integers(5))
                gate = swap_gate(q, q2) if q2 != q else x_gate(q)
            else:
                ctrl = int(rng.integers(5))
                if ctrl == q:
                    gate = x_gate(q)
                else:
                    gate = GateOp.ry([0.0, float(rng.uniform(0, np.pi))], q, [ctrl])
            qsim._apply_inplace(amps, 5, gate)
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-10

    def test_linearity(self):
        gate = GateOp.ry([0.0, 0.9], 0, [2])
        a = random_state(3, 1).amplitudes
        b = random_state(3, 2).amplitudes
        mixed = (a + b) / np.linalg.norm(a + b)
        ga, gb, gm = a.copy(), b.copy(), mixed.copy()
        for arr in (ga, gb, gm):
            qsim._apply_inplace(arr, 3, gate)
        assert np.allclose(gm, (ga + gb) / np.linalg.norm(a + b), atol=1e-12)


class TestUniformlyControlled:
    # (targets, controls) on 5 qubits; the last three put controls on both
    # sides of the target, like the row | cos/sin | pair encoding layout
    LAYOUTS = [
        ((2,), ()),
        ((0,), (3,)),
        ((4,), (1, 0)),
        ((1,), (4, 2, 0)),
        ((1, 3), ()),
        ((0, 4), (2,)),
        ((3, 1), (4, 0)),
        ((2, 0), (4, 1, 3)),
        ((2,), (0, 1, 3, 4)),
        ((2,), (3, 0)),
        ((1, 2), (0, 3, 4)),
    ]

    @pytest.mark.parametrize("layout", range(len(LAYOUTS)))
    def test_matches_dense_oracle(self, layout):
        targets, controls = self.LAYOUTS[layout]
        rng = np.random.default_rng(layout)
        stack = np.array(
            [random_unitary(1 << len(targets), rng) for _ in range(1 << len(controls))]
        )
        got = qsim.realized_matrix(GateOp(stack, targets, controls), 5)
        want = dense_uniformly_controlled(stack, targets, controls, 5)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_uniformly_controlled_ry_angles(self):
        rng = np.random.default_rng(4)
        angles = rng.uniform(-np.pi, np.pi, size=8)
        gate = GateOp.ry(angles, 2, [0, 3, 1])
        want = dense_uniformly_controlled(
            [ry_matrix(t) for t in angles], [2], [0, 3, 1], 4
        )
        assert np.max(np.abs(qsim.realized_matrix(gate, 4) - want)) <= 1e-12

    def test_adjoint_inverts(self):
        rng = np.random.default_rng(5)
        stack = np.array([random_unitary(4, rng) for _ in range(4)])
        gate = GateOp(stack, (3, 0), (1, 2))
        mat = circuit_matrix([gate, gate.adjoint()], 4)
        assert np.max(np.abs(mat - np.eye(16))) <= 1e-12

    def test_stack_shape_and_qubits_checked(self):
        with pytest.raises(ValueError):
            GateOp(np.tile(np.eye(2), (3, 1, 1)), (0,), (1,))  # 3 entries for 1 control
        with pytest.raises(ValueError):
            GateOp(np.eye(2)[None], (0, 1))  # 2x2 matrix on two targets
        with pytest.raises(ValueError):
            GateOp(np.tile(np.eye(2), (2, 1, 1)), (0,), (0,))  # overlap
        with pytest.raises(ValueError):
            GateOp(np.tile(np.eye(2), (4, 1, 1)), (0,), (1, 1))  # duplicate control
        stack = np.tile(np.eye(2, dtype=complex), (2, 1, 1))
        stack[1] = [[1.0, 0.0], [1.0, 1.0]]
        with pytest.raises(ValueError):
            GateOp(stack, (0,), (1,))  # one non-unitary entry

    @pytest.mark.parametrize("n", range(1, 6))
    def test_qft_is_normalized_dft(self, n):
        # the swap-free ladder is the normalized DFT with bit-reversed rows;
        # reversing the bits of its output completes the QFT
        dim = 1 << n
        k = np.arange(dim)
        dft = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
        ops = qsim.qft_ops(range(n))
        ladder = dft[bit_reversal(n)]
        assert np.max(np.abs(circuit_matrix(ops, n) - ladder)) <= 1e-12
        inverse = [op.adjoint() for op in reversed(ops)]
        assert np.max(np.abs(circuit_matrix(inverse, n) - ladder.conj().T)) <= 1e-12

    @pytest.mark.parametrize("tau", [1, 2, 3, 4])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_kickback_matches_one_control_product(self, tau, degenerate):
        # qpe_circuit equals the textbook circuit (Hadamards, a product of
        # one-control U^(2^k) on phase qubit k, inverse DFT) times a bit
        # reversal of the phase input, with U = expm(i*H*t)
        rng = np.random.default_rng(tau)
        H = random_hermitian(4, rng)
        if degenerate:  # a repeated eigenvalue must still give an orthonormal eigenbasis
            basis = np.linalg.eigh(H)[1]
            H = (basis * np.array([0.3, 0.3, 0.3, 0.8])) @ basis.conj().T
        t = 1.7
        evals, basis = np.linalg.eigh(H)
        got = circuit_matrix(
            qsim.qpe_circuit(
                Statevector.zero([("t", 2)]), "t", basis, evals * t / (2 * np.pi), tau
            ),
            2 + tau,
        )
        U = scipy.linalg.expm(1j * H * t)
        targets, phase = [0, 1], list(range(2, 2 + tau))
        ladder = [GateOp.h(q) for q in phase] + [
            one_pattern_gate(np.linalg.matrix_power(U, 1 << k), targets, [q], 1)
            for k, q in enumerate(phase)
        ]
        dim = 1 << tau
        k = np.arange(dim)
        inverse_dft = np.exp(-2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
        textbook = np.kron(inverse_dft, np.eye(4)) @ circuit_matrix(ladder, 2 + tau)
        reversal = np.kron(np.eye(dim)[:, bit_reversal(tau)], np.eye(4))
        assert np.max(np.abs(got - textbook @ reversal)) <= 1e-12
        # with the phase input at 0 the columns are the textbook ones
        assert np.max(np.abs(got[:, :4] - textbook[:, :4])) <= 1e-12


class TestRegisters:
    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            Statevector.zero([("big", 27)])
        sv = Statevector.zero([("r", 2)])
        with pytest.raises(CapacityError):
            qsim.append_register(sv, "more", 25)

    def test_realized_matrix_counts_its_bytes(self, monkeypatch):
        # cap 6: a 3-qubit matrix takes 16 * 4^3 bytes, one 6-qubit state
        monkeypatch.setattr(errors, "MAX_QUBITS", 6)
        assert qsim.realized_matrix(GateOp.h(0), 3).shape == (8, 8)
        with pytest.raises(CapacityError, match="4-qubit gate matrix"):
            qsim.realized_matrix(GateOp.h(0), 4)

    def test_unknown_register(self):
        sv = Statevector.zero([("r", 2)])
        with pytest.raises(KeyError):
            sv.register("nope")

    def test_append_and_drop_roundtrip(self):
        sv = random_state(3, 5)
        ext = qsim.append_register(sv, "anc", 2)
        assert ext.n_qubits == 5
        assert [r.name for r in ext.registers] == ["r", "anc"]
        # the appended register is the highest, so its |0> slice leads
        assert np.array_equal(ext.amplitudes[: 1 << 3], sv.amplitudes)
        assert np.linalg.norm(ext.amplitudes[1 << 3 :]) == 0.0


class TestPartialTrace:
    def test_bell_state_is_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        sv = Statevector.from_amplitudes(bell, [("a", 1), ("b", 1)])
        for keep in ("a", "b"):
            rho = qsim.partial_trace(sv, keep)
            assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-10

    def test_product_state_reduces_to_pure(self):
        a = random_state(2, 3).amplitudes
        b = random_state(2, 4).amplitudes
        sv = Statevector.from_amplitudes(np.kron(b, a), [("a", 2), ("b", 2)])
        rho = qsim.partial_trace(sv, "a")
        assert np.max(np.abs(rho - np.outer(a, a.conj()))) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_output_invariants(self, seed):
        sv = random_state(4, seed)
        sv = Statevector.from_amplitudes(sv.amplitudes, [("a", 2), ("b", 2)])
        rho = qsim.partial_trace(sv, "b")
        assert rho.shape == (4, 4)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def run_qpe(sv, generator, t, target, tau):
    """QPE of exp(i * generator * t), from the Hermitian generator's eigh."""
    evals, basis = np.linalg.eigh(generator)
    ops = qsim.qpe_circuit(sv, target, basis, evals * t / (2 * np.pi), tau)
    return qsim.qpe(sv, ops, tau), ops


class TestQpe:
    def test_exact_dyadic_phase(self):
        out, _ = run_qpe(Statevector.zero([("t", 1)]), np.diag([0.25, 0.0]), 2 * np.pi, "t", 3)
        probs = qsim._marginal_probabilities(out, out.register("phase"))
        assert probs[2] == pytest.approx(1.0, abs=1e-12)  # binary 010

    def test_zero_phase_reads_zero(self):
        for tau in (2, 5):
            out, _ = run_qpe(Statevector.zero([("t", 1)]), np.zeros((2, 2)), 1.0, "t", tau)
            probs = qsim._marginal_probabilities(out, out.register("phase"))
            assert probs[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_unitary_eigenstate_modal_bin(self, seed):
        # an eigenstate of the random unitary expm(i*A*t), A Hermitian
        rng = np.random.default_rng(seed)
        A = random_hermitian(4, rng)
        t = 1.3
        evals, evecs = np.linalg.eigh(A)
        idx = int(rng.integers(4))
        phase = float(evals[idx] * t / (2 * np.pi) % 1.0)
        sv = Statevector.from_amplitudes(evecs[:, idx], [("t", 2)])
        out, _ = run_qpe(sv, A, t, "t", 8)
        probs = qsim._marginal_probabilities(out, out.register("phase"))
        modal = int(np.argmax(probs))
        target = int(round(phase * 256)) % 256
        dist = min(abs(modal - target), 256 - abs(modal - target))
        assert dist <= 1

    @pytest.mark.parametrize("tau", [3, 4])
    def test_qpe_inverse_qpe_roundtrip(self, tau):
        # exact-phase case: eigenphases are dyadic, phase register returns to 0
        generator = np.diag([1.0, 5.0]) / (1 << tau)
        rng = np.random.default_rng(1)
        amps = rng.normal(size=2)
        amps = amps / np.linalg.norm(amps)
        sv = Statevector.from_amplitudes(amps, [("t", 1)])
        fwd, ops = run_qpe(sv, generator, 2 * np.pi, "t", tau)
        back = qsim.inverse_qpe(fwd, ops)
        # the phase register is the highest, so its |0> slice leads
        restored = back.amplitudes[: sv.amplitudes.size]
        fidelity = abs(np.vdot(restored, sv.amplitudes)) ** 2
        assert fidelity >= 1 - 1e-9

    def test_dimension_mismatch(self):
        sv = Statevector.zero([("t", 2)])
        with pytest.raises(ValueError, match="does not fit"):
            qsim.qpe_circuit(sv, "t", np.eye(2), np.zeros(4), 3)

    def test_non_unitary_rejected(self):
        # the eigenvectors of a unitary are orthonormal: a scaled or sheared basis is refused
        sv = Statevector.zero([("t", 1)])
        for basis in (np.diag([1.0, 0.5]), np.array([[1.0, 1e-6], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="not unitary"):
                qsim.qpe_circuit(sv, "t", basis, [0.25, 0.0], 3)

    def test_eigenphases_not_one_per_basis_state_rejected(self):
        # qpe_circuit exponentiates basis diag(2 pi theta) basis^dagger, so
        # ``theta`` must be a flat vector with one phase per basis column
        sv = Statevector.zero([("t", 1)])
        for theta in ([0.25], [0.25, 0.0, 0.5], [[0.25, 0.0]], 0.25):
            with pytest.raises(ValueError, match="eigenphases do not match"):
                qsim.qpe_circuit(sv, "t", np.eye(2), theta, 3)


class TestMeasurement:
    def test_marginal_of_register(self):
        # second register marginal of a product state ignores the first
        a = random_state(2, 8).amplitudes
        b = np.array([0.6, 0.8, 0.0, 0.0], dtype=complex)
        sv = Statevector.from_amplitudes(np.kron(b, a), [("a", 2), ("b", 2)])
        probs = qsim._marginal_probabilities(sv, sv.register("b"))
        assert np.max(np.abs(probs - [0.36, 0.64, 0.0, 0.0])) <= 1e-15
        assert probs[2] == probs[3] == 0.0


class TestPostselect:
    def test_definite_outcome_probability_one(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0  # qubit 0 = 1
        sv = Statevector.from_amplitudes(amps, [("q0", 1), ("q1", 1)])
        out, p = qsim.postselect(sv, "q0", [0.0, 1.0])
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.amplitudes, sv.amplitudes)

    def test_amplitude_arithmetic(self):
        phi = random_state(2, 9).amplitudes
        anc = np.array([np.sqrt(0.36), np.sqrt(0.64)])
        sv = Statevector.from_amplitudes(np.kron(anc, phi), [("phi", 2), ("a", 1)])
        out, p = qsim.postselect(sv, "a", [0.0, 1.0])
        assert p == pytest.approx(0.64, abs=1e-12)
        assert np.max(np.abs(out.amplitudes[:4])) == 0.0
        tail = out.amplitudes[4:]
        assert np.max(np.abs(tail - phi)) < 1e-12

    def test_vanishing_branch_raises(self):
        sv = Statevector.zero([("r", 1), ("q", 1)])
        with pytest.raises(PostSelectionError):
            qsim.postselect(sv, "q", [0.0, 1.0])

    def test_weights_checked(self):
        sv = Statevector.zero([("r", 2)])
        with pytest.raises(ValueError):
            qsim.postselect(sv, "r", [1.0, 0.5])  # wrong length
        with pytest.raises(ValueError):
            qsim.postselect(sv, "r", [1.0, 0.5, 1.5, 0.0])  # not an amplitude

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_flag_circuit_on_random_state(self, seed):
        rng = np.random.default_rng(seed)
        sv = Statevector.from_amplitudes(
            random_state(6, seed).amplitudes, [("a", 2), ("phase", 3), ("b", 1)]
        )
        weights = rng.uniform(0.0, 1.0, size=8)
        weights[0] = 0.0
        out, p = qsim.postselect(sv, "phase", weights)
        want, p_want = flag_circuit_postselect(sv, "phase", weights)
        assert abs(p - p_want) <= 1e-12
        assert np.max(np.abs(out.amplitudes - want)) <= 1e-12

    def test_matches_flag_circuit_on_paper_spectral_state(self, paper_pipeline, paper_oracle):
        sv = paper_oracle[0]
        pipe = paper_pipeline
        weights, _ = rotation_profiles(
            pipe.c1, pipe.c2, pipe.sigma_tilde_sq, pipe.delta_r, pipe.tau
        )
        out, p = qsim.postselect(sv, "phase", weights)
        want, p_want = flag_circuit_postselect(sv, "phase", weights)
        assert abs(p - p_want) <= 1e-12
        assert p == paper_oracle[2][0][1]
        assert abs(p - paper_pipeline.p1) <= 1e-12
        assert np.max(np.abs(out.amplitudes - want)) <= 1e-12


class TestOverlapCircuits:
    def test_hadamard_identical_real_states(self):
        sv = random_state(3, 10, complex_amps=False)
        assert qsim.hadamard_test(sv, sv) == pytest.approx(1.0, abs=1e-12)

    def test_hadamard_orthogonal_basis_states(self):
        a = np.zeros(4, dtype=complex)
        b = np.zeros(4, dtype=complex)
        a[0] = 1.0
        b[3] = 1.0
        sa = Statevector.from_amplitudes(a, [("r", 2)])
        sb = Statevector.from_amplitudes(b, [("r", 2)])
        assert qsim.hadamard_test(sa, sb) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_hadamard_matches_amplitude_arithmetic(self, seed):
        a = random_state(3, seed, complex_amps=False)
        b = random_state(3, seed + 100, complex_amps=False)
        expected = float(np.real(np.vdot(b.amplitudes, a.amplitudes)))
        assert abs(qsim.hadamard_test(a, b) - expected) < 1e-10

    def test_swap_identical_and_orthogonal(self):
        sv = random_state(3, 11)
        assert qsim.swap_test(sv, sv) == pytest.approx(1.0, abs=1e-10)
        a = np.zeros(2, dtype=complex)
        b = np.zeros(2, dtype=complex)
        a[0] = b[1] = 1.0
        sa = Statevector.from_amplitudes(a, [("r", 1)])
        sb = Statevector.from_amplitudes(b, [("r", 1)])
        assert qsim.swap_test(sa, sb) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_swap_matches_amplitude_arithmetic(self, seed):
        a = random_state(3, seed + 30)
        b = random_state(3, seed + 60)
        expected = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
        assert abs(qsim.swap_test(a, b) - expected) < 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_swap_shot_concentration(self, seed):
        a = random_state(2, 500)
        b = random_state(2, 501)
        expected = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
        est = qsim.swap_test(a, b, shots=1_000_000, seed=seed)
        assert abs(est - expected) <= 6e-3

    def test_hadamard_estimator_std_bound(self):
        a = random_state(2, 502, complex_amps=False)
        b = random_state(2, 503, complex_amps=False)
        shots = 4096
        estimates = [
            qsim.hadamard_test(a, b, shots=shots, seed=s) for s in range(100)
        ]
        exact = qsim.hadamard_test(a, b)
        assert abs(np.mean(estimates) - exact) < 5 / np.sqrt(shots)  # unbiased
        assert np.std(estimates) <= 1.2 / np.sqrt(shots)

    @pytest.mark.parametrize("test", [qsim.hadamard_test, qsim.swap_test], ids=["hadamard", "swap"])
    def test_negative_shots_refused(self, test):
        sv = random_state(2, 504)
        with pytest.raises(ValueError, match="shots must be nonnegative"):
            test(sv, sv, shots=-1, seed=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_readout_is_one_binomial_draw(self, seed):
        a = random_state(2, 505, complex_amps=False)
        b = random_state(2, 506, complex_amps=False)
        p0 = 0.5 + 0.5 * float(np.vdot(b.amplitudes, a.amplitudes).real)
        want = 2.0 * np.random.default_rng(seed).binomial(1000, p0) / 1000 - 1.0
        assert qsim.hadamard_test(a, b, shots=1000, seed=seed) == want
        # orthogonal states: P(0) = 1/2, so about half the draws clamp to 0
        zero, one = (Statevector.from_amplitudes(v, [("r", 1)]) for v in np.eye(2))
        want = 2.0 * np.random.default_rng(seed).binomial(1000, 0.5) / 1000 - 1.0
        assert qsim.swap_test(zero, one, shots=1000, seed=seed) == min(max(want, 0.0), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qsim.hadamard_test(random_state(2, 1), random_state(3, 1))
        with pytest.raises(ValueError):
            qsim.swap_test(random_state(2, 1), random_state(3, 1))


class TestStatePreparation:
    @pytest.mark.parametrize("seed", range(8))
    def test_real_amplitude_prep_arbitrary_signs(self, seed):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(1, 5))
        v = rng.normal(size=1 << w)
        v = v / np.linalg.norm(v)
        sv = qsim.apply_circuit(
            Statevector.zero([("r", w)]), qsim.real_amplitude_prep_ops(v, range(w))
        )
        assert np.max(np.abs(sv.amplitudes - v)) < 1e-12

    @pytest.mark.parametrize("count", [1, 3, 5, 8])
    def test_uniform_prep(self, count):
        sv = qsim.apply_circuit(
            Statevector.zero([("r", 3)]), qsim.uniform_prep_ops(count, range(3))
        )
        expected = np.zeros(8)
        expected[:count] = 1 / np.sqrt(count)
        assert np.max(np.abs(sv.amplitudes - expected)) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            qsim.real_amplitude_prep_ops(np.zeros(4), [0, 1])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GateOp(np.eye(4)[None], (0, 0)), "duplicate target qubits"),
        (
            lambda: Statevector(np.ones(3) / np.sqrt(3), (qsim.Register("r", 0, 2),)),
            r"amplitude length \(3,\) does not match 2 qubits",
        ),
        (
            lambda: Statevector.from_amplitudes(np.ones(4), [("r", 2)]),
            "statevector norm 2.0 is not 1",
        ),
        (
            lambda: Statevector(
                np.eye(4)[0], (qsim.Register("a", 0, 1), qsim.Register("b", 2, 1))
            ),
            "register map is not contiguous at 'b'",
        ),
        (
            lambda: Statevector.from_amplitudes(np.eye(4)[0], [("a", 1), ("a", 1)]),
            "duplicate register names",
        ),
        (
            lambda: qsim.qpe_circuit(Statevector.zero([("t", 1)]), "t", np.eye(2), [0, 0], 0),
            "tau must be >= 1, got 0",
        ),
        (
            lambda: qsim.real_amplitude_prep_ops(np.ones(3), [0, 1]),
            r"vector length \(3,\) does not match 2 qubits",
        ),
        (lambda: qsim.uniform_prep_ops(5, [0, 1]), "count 5 does not fit 2 qubits"),
        (lambda: qsim.uniform_prep_ops(0, [0, 1]), "count 0 does not fit 2 qubits"),
    ],
    ids=[
        "duplicate-targets",
        "amplitude-length",
        "non-unit-norm",
        "non-contiguous-registers",
        "duplicate-register-names",
        "qpe-tau-below-1",
        "prep-vector-length",
        "uniform-count-above",
        "uniform-count-zero",
    ],
)
def test_the_dense_oracle_refuses_malformed_inputs(build, message):
    with pytest.raises(ValueError, match=message):
        build()
