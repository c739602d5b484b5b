"""Statevector/density-matrix core: gates, measurement, channels, Pauli
algebra, Haar sampling, circuit serialization."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk import simcore as sc
from qdesk.errors import DimensionMismatch, NotTracePreserving, TargetOutOfRange


class TestGateApplication:
    def test_x_on_msb(self):
        # qubit 0 is the most significant bit of the index
        psi = sc.basis_state(2)          # |00>
        out = sc.apply_gate(psi, sc.X, [0])
        assert np.abs(out - sc.basis_state(2, 2)).max() < 1e-14  # |10>

    def test_matches_dense_embedding(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            psi = sc.haar_random_state(2**n, rng)
            g = sc.haar_random_unitary(4, rng)
            targets = list(rng.choice(n, 2, replace=False))
            fast = sc.apply_gate(psi, g, targets)
            dense = sc.expand_gate(g, targets, n) @ psi
            assert np.abs(fast - dense).max() < 1e-12

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            sc.apply_gate(sc.basis_state(2), sc.X, [2])

    def test_density_channel_consistent(self):
        rng = np.random.default_rng(1)
        psi = sc.haar_random_state(8, rng)
        rho = sc.statevector_to_density(psi)
        out_rho = sc.apply_gate_density(rho, sc.H, [1])
        out_psi = sc.apply_gate(psi, sc.H, [1])
        assert np.abs(out_rho - sc.statevector_to_density(out_psi)).max() \
            < 1e-12


def reference_embedding(gate, targets, n):
    """Dense embedding built column by column from basis states by bit
    arithmetic alone, independent of the kernel: basis state j maps to
    sum_r gate[r, c] |j with the target bits set to r>, c being the
    target bits of j (first target most significant)."""
    k = len(targets)
    U = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(2**n):
        col = sc.basis_state(n, j)
        bits = [(j >> (n - 1 - q)) & 1 for q in range(n)]
        c = sum(bits[t] << (k - 1 - a) for a, t in enumerate(targets))
        for r in range(2**k):
            out_bits = list(bits)
            for a, t in enumerate(targets):
                out_bits[t] = (r >> (k - 1 - a)) & 1
            i = sum(b << (n - 1 - q) for q, b in enumerate(out_bits))
            U[i, j] += gate[r, c] * col[j]
    return U


@st.composite
def gate_on_register(draw, n=None, max_k=3):
    """(n, targets, gate, rng) with n <= 6 unless given and a Haar-random
    gate on an ordered tuple of distinct targets."""
    n = draw(st.integers(1, 6)) if n is None else n
    k = draw(st.integers(1, min(n, max_k)))
    targets = tuple(draw(st.permutations(range(n)))[:k])
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return n, targets, sc.haar_random_unitary(2**k, rng), rng


class TestBatchedKernel:
    @given(gate_on_register(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_row_by_row(self, case, b):
        n, targets, g, rng = case
        batch = np.stack([sc.haar_random_state(2**n, rng) for _ in range(b)])
        out = sc.apply_gate(batch, g, targets)
        assert out.shape == batch.shape
        for row, psi in zip(out, batch):
            assert np.abs(row - sc.apply_gate(psi, g, targets)).max() < 1e-14
        U = reference_embedding(g, targets, n)
        assert np.abs(out - batch @ U.T).max() < 1e-12

    @given(gate_on_register())
    @settings(max_examples=60, deadline=None)
    def test_expand_gate_matches_reference(self, case):
        n, targets, g, _ = case
        U = reference_embedding(g, targets, n)
        assert np.abs(sc.expand_gate(g, targets, n) - U).max() < 1e-14

    @given(gate_on_register())
    @settings(max_examples=40, deadline=None)
    def test_density_conjugation_matches_reference(self, case):
        n, targets, g, rng = case
        A = sc.haar_random_unitary(2**n, rng)
        rho = A @ np.diag(rng.dirichlet(np.ones(2**n))) @ A.conj().T
        U = reference_embedding(g, targets, n)
        out = sc.apply_gate_density(rho, g, targets)
        assert np.abs(out - U @ rho @ U.conj().T).max() < 1e-12

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_circuit_unitary_is_product_of_embeddings(self, data):
        n = data.draw(st.integers(1, 5))
        circ = sc.Circuit(n)
        expect = np.eye(2**n, dtype=complex)
        for _ in range(data.draw(st.integers(1, 5))):
            _, targets, g, _ = data.draw(gate_on_register(n=n, max_k=2))
            circ.add("U", targets, matrix=g)
            expect = reference_embedding(g, targets, n) @ expect
        assert np.abs(circ.unitary() - expect).max() < 1e-12

    def test_bad_inputs_still_raise(self):
        psi = sc.basis_state(3)
        with pytest.raises(DimensionMismatch):
            sc.apply_gate(psi.reshape(2, 2, 2), sc.X, [0])
        with pytest.raises(DimensionMismatch):
            sc.apply_gate(np.stack([psi, psi]), sc.CNOT, [0])
        with pytest.raises(DimensionMismatch):
            sc.apply_gate(np.ones(6), sc.X, [0])
        for state in (psi, np.stack([psi, psi])):
            with pytest.raises(TargetOutOfRange):
                sc.apply_gate(state, sc.CNOT, [1, 1])
            with pytest.raises(TargetOutOfRange):
                sc.apply_gate(state, sc.X, [3])
        with pytest.raises(TargetOutOfRange):
            sc.expand_gate(sc.CNOT, [2, 2], 3)
        with pytest.raises(DimensionMismatch):
            sc.apply_gate_density(np.eye(8)[:4], sc.X, [0])


def kron_pauli(label):
    """Pauli string as a kron product of the single-qubit matrices."""
    out = np.array([[1.0 + 0j]])
    for c in label:
        out = np.kron(out, sc.PAULIS[c])
    return out


pauli_labels = st.integers(1, 6).flatmap(
    lambda n: st.text("IXYZ", min_size=n, max_size=n))


class TestPauliAction:
    def test_matrix_equals_kron_for_every_label_up_to_4_qubits(self):
        count = 0
        for n in range(1, 5):
            for letters in itertools.product("IXYZ", repeat=n):
                label = "".join(letters)
                assert np.array_equal(sc.pauli_matrix(label),
                                      kron_pauli(label)), label
                count += 1
        assert count == 340

    @given(pauli_labels, st.integers(1, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_apply_equals_matrix_row_by_row(self, label, b, seed):
        rng = np.random.default_rng(seed)
        dim = 2 ** len(label)
        batch = np.stack([sc.haar_random_state(dim, rng) for _ in range(b)])
        P = sc.pauli_matrix(label)
        out = sc.apply_pauli(batch, label)
        assert out.shape == batch.shape
        for row, psi in zip(out, batch):
            single = sc.apply_pauli(psi, label)
            assert np.array_equal(row, single)
            assert np.abs(single - P @ psi).max() < 1e-14

    def test_label_length_must_match_register(self):
        psi = sc.basis_state(3)
        for state in (psi, np.stack([psi, psi])):
            for label in ("XY", "XYZI"):
                with pytest.raises(DimensionMismatch):
                    sc.apply_pauli(state, label)
        with pytest.raises(DimensionMismatch):
            sc.apply_pauli(psi.reshape(2, 2, 2), "XYZ")


class TestMeasurement:
    def test_probabilities_normalized(self):
        rng = np.random.default_rng(2)
        psi = sc.haar_random_state(16, rng)
        assert sc.probabilities(psi).sum() == pytest.approx(1.0, abs=1e-12)

    def test_collapse_rule(self):
        # (|00> + |11>)/sqrt(2), measure qubit 0 -> perfectly correlated
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            bit, post = sc.measure(psi, 0, rng)
            expect = sc.basis_state(2, 0 if bit == 0 else 3)
            assert np.abs(np.abs(post) - np.abs(expect)).max() < 1e-12

    def test_measure_all_statistics(self):
        psi = np.array([np.sqrt(0.7), 0, 0, np.sqrt(0.3)])
        rng = np.random.default_rng(4)
        draws = [sc.measure_all(psi, rng) for _ in range(5000)]
        freq = np.mean([d == (0, 0) for d in draws])
        assert freq == pytest.approx(0.7, abs=0.03)


class TestKraus:
    def test_trace_preserving_check(self):
        bad = [np.eye(2) * 0.5]
        with pytest.raises(NotTracePreserving):
            sc.kraus_apply(np.eye(2) / 2, bad)

    def test_depolarizing_fixed_point(self):
        p = 0.3
        ops = [np.sqrt(1 - p) * np.eye(2)] + [
            np.sqrt(p / 3) * P for P in (sc.X, sc.Y, sc.Z)
        ]
        rho = np.eye(2) / 2
        out = sc.kraus_apply(rho, ops)
        assert np.abs(out - rho).max() < 1e-12

    def test_unitary_channel(self):
        rng = np.random.default_rng(5)
        rho = np.diag([0.2, 0.8]).astype(complex)
        U = sc.haar_random_unitary(2, rng)
        out = sc.kraus_apply(rho, [U])
        assert np.abs(out - U @ rho @ U.conj().T).max() < 1e-13


class TestPauliAlgebra:
    def test_decompose_reconstruct(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3):
            A = rng.normal(size=(2**n,) * 2) + 1j * rng.normal(
                size=(2**n,) * 2
            )
            H = A + A.conj().T
            terms = sc.pauli_decompose(H)
            rec = sc.pauli_reconstruct(terms, n)
            assert np.abs(rec - H).max() < 1e-10

    def test_hermitian_gives_real_coefficients(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = A + A.conj().T
        for _, c in sc.pauli_decompose(H):
            assert abs(np.imag(c)) < 1e-12

    def test_hs_inner_orthonormal_paulis(self):
        # (1/2^n) tr(P^dag Q) = delta_PQ
        labels = ["II", "XY", "ZZ", "IX"]
        for a in labels:
            for b in labels:
                v = sc.hs_inner(sc.pauli_matrix(a), sc.pauli_matrix(b))
                assert v == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


class TestExpAndHaar:
    def test_exp_hamiltonian_pauli(self):
        # e^{-i t Z} = diag(e^{-it}, e^{it})
        t = 0.37
        out = sc.exp_hamiltonian(sc.Z, t)
        assert np.abs(out - np.diag([np.exp(-1j * t),
                                     np.exp(1j * t)])).max() < 1e-12

    def test_exp_unitary(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(8, 8))
        H = A + A.T
        U = sc.exp_hamiltonian(H, 0.81)
        assert sc.is_unitary(U)

    def test_haar_unitary_deterministic_given_seed(self):
        a = sc.haar_random_unitary(4, np.random.default_rng(9))
        b = sc.haar_random_unitary(4, np.random.default_rng(9))
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_haar_unitary_is_unitary(self, seed):
        U = sc.haar_random_unitary(8, np.random.default_rng(seed))
        assert sc.is_unitary(U)

    def test_haar_first_moment(self):
        # E[U rho U^dag] = I/d
        rng = np.random.default_rng(10)
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        acc = np.zeros((4, 4), dtype=complex)
        m = 3000
        for _ in range(m):
            U = sc.haar_random_unitary(4, rng)
            acc += U @ rho @ U.conj().T
        assert np.abs(acc / m - np.eye(4) / 4).max() < 0.02


class TestControlledTensor:
    def test_controlled_x_is_cnot(self):
        assert np.abs(sc.controlled(sc.X) - sc.CNOT).max() < 1e-14

    def test_tensor_order(self):
        # qubit 0 leftmost: X (x) I flips the most significant bit
        U = sc.tensor(sc.X, sc.I2)
        out = U @ sc.basis_state(2, 0)
        assert np.abs(out - sc.basis_state(2, 2)).max() < 1e-14


class TestCircuit:
    def _sample_circuit(self):
        c = sc.Circuit(2)
        c.add("H", [0])
        c.add("CNOT", [0, 1])
        c.add("RZ", [1], param=0.4)
        return c

    def test_unitary_matches_manual(self):
        c = self._sample_circuit()
        U = sc.expand_gate(sc.rz(0.4), [1], 2) @ sc.CNOT @ \
            sc.expand_gate(sc.H, [0], 2)
        assert np.abs(c.unitary() - U).max() < 1e-12

    def test_json_roundtrip_exact(self):
        c = self._sample_circuit()
        c2 = sc.circuit_from_json(sc.circuit_to_json(c))
        assert np.array_equal(c.unitary(), c2.unitary())
        assert c2.gate_count() == c.gate_count()

    def test_run_deterministic_per_seed(self):
        c = self._sample_circuit()
        c.add("measure", [0]).add("measure", [1])
        s1, b1 = c.run(rng=np.random.default_rng(11))
        s2, b2 = c.run(rng=np.random.default_rng(11))
        assert b1 == b2
        assert np.array_equal(s1, s2)
