"""Statevector/density-matrix core: gates, measurement, channels, Pauli
algebra, Haar sampling, circuit serialization."""
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk import algos, simcore as sc
from qdesk.errors import (BadParameter, DimensionMismatch, QdeskError,
                          TargetOutOfRange)


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

    @pytest.mark.parametrize("bad", [1.0, True, np.float64(1), np.True_, "1"])
    def test_non_integer_target_never_poisons_the_cache(self, bad):
        # 1.0 == 1 and True == 1, so a cache keyed by equality would mix
        # them up; each raises before the lookup, whichever call comes first
        psi = sc.haar_random_state(8, np.random.default_rng(5))
        with pytest.raises(TargetOutOfRange):
            sc.apply_gate(psi, sc.H, [bad])
        ref = sc.apply_gate(psi, sc.H, [1])
        with pytest.raises(TargetOutOfRange):
            sc.apply_gate(psi, sc.H, [bad])
        assert np.array_equal(sc.apply_gate(psi, sc.H, [np.int64(1)]), ref)
        assert np.array_equal(sc.apply_gate(psi, sc.H, (1,)), ref)
        circ = sc.Circuit(3).add("H", [1])
        with pytest.raises(TargetOutOfRange):
            circ.add("H", [bad])
        assert np.array_equal(circ.run(psi)[0], ref)

    @pytest.mark.parametrize("targets", [(), (0, 0), (-1,)])
    def test_targets_take_the_circuit_rule(self, targets):
        # apply_gate and Circuit.add reject the same target lists
        gate = np.eye(2 ** len(targets), dtype=complex)
        with pytest.raises(TargetOutOfRange):
            sc.apply_gate(sc.basis_state(3), gate, targets)
        with pytest.raises(TargetOutOfRange):
            sc.Circuit(3).add("U", targets, matrix=gate)

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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_gate_stack_equals_row_by_row(self, n):
        # row r of a (b, 2^n) batch takes gate r of a (b, 2^k, 2^k) stack,
        # with the same bits as a call on that row alone
        rng = np.random.default_rng(40 + n)
        for k in range(1, min(n, 3) + 1):
            for targets in itertools.permutations(range(n), k):
                b = int(rng.integers(1, 4))
                batch = np.stack([sc.haar_random_state(2**n, rng)
                                  for _ in range(b)])
                stack = np.stack([sc.haar_random_unitary(2**k, rng)
                                  for _ in range(b)])
                out = sc.apply_gate(batch, stack, targets)
                rows = [sc.apply_gate(psi, g, targets)
                        for psi, g in zip(batch, stack)]
                assert out.shape == batch.shape
                assert np.array_equal(out, np.stack(rows))

    def test_gate_stack_bad_shapes(self):
        psi = sc.basis_state(3)
        batch = np.stack([psi, psi, psi])
        stack = np.stack([sc.X, sc.H, sc.Z])
        with pytest.raises(DimensionMismatch):  # one gate short
            sc.apply_gate(batch, stack[:2], [0])
        with pytest.raises(DimensionMismatch):  # a stack on one state
            sc.apply_gate(psi, stack[:1], [0])
        with pytest.raises(DimensionMismatch):  # one-qubit gates, 2 targets
            sc.apply_gate(batch, stack, [0, 1])


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

    @pytest.mark.parametrize("state", [np.ones((2, 2)) / 2,
                                       np.ones((2, 4)) / 2, np.array(1.0)])
    def test_takes_one_state_vector(self, state):
        with pytest.raises(DimensionMismatch):
            sc.measure(state, 0, np.random.default_rng(4))

    @pytest.mark.parametrize("qubit", [1.0, True, "0", 2, -1, [0, 1]])
    def test_bad_qubit_raises(self, qubit):
        with pytest.raises(TargetOutOfRange):
            sc.measure(sc.basis_state(2), qubit, np.random.default_rng(4))


class TestKraus:
    def test_trace_preserving_check(self):
        bad = [np.eye(2) * 0.5]
        with pytest.raises(BadParameter, match="do not sum to identity"):
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
                A, B = sc.pauli_matrix(a), sc.pauli_matrix(b)
                v = np.trace(A.conj().T @ B) / 4
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

    def test_batched_draw_is_sequential_draws(self):
        # k unitaries from one draw are the bits of k one-by-one draws by
        # the Ginibre QR with the R diagonal phase fix, and leave the
        # stream at the same place
        for k, dim in ((1, 2), (7, 4), (30, 4), (3, 8)):
            rng, ref = np.random.default_rng(k), np.random.default_rng(k)
            batch = sc._haar_unitaries(k, dim, rng)
            for U in batch:
                A = ref.standard_normal((dim, dim)) \
                    + 1j * ref.standard_normal((dim, dim))
                Q, R = np.linalg.qr(A)
                d = np.diagonal(R)
                assert np.array_equal(U, Q * (d / np.abs(d)))
            assert rng.random() == ref.random()


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

    def test_json_roundtrip_raw_matrices(self):
        # the QFT's controlled phases are stored as raw matrices
        c = algos.qft_circuit(4)
        assert any(op.matrix is not None for op in c.ops)
        c2 = sc.circuit_from_json(sc.circuit_to_json(c))
        assert np.array_equal(c.unitary(), c2.unitary())

    @pytest.mark.parametrize("text", [
        '{"n": 2}', '{"ops": []}', '[1]', '{"n": 2, "ops": {}}',
        '{"n": 2, "ops": [1]}', '{"n": 2, "ops": [{"gate": "H"}]}',
        '{"n": 2, "ops": [{"targets": [0]}]}', 'not json', '',
    ])
    def test_malformed_json_raises_bad_parameter(self, text):
        with pytest.raises(BadParameter):
            sc.circuit_from_json(text)

    def test_measurement_needs_a_run_with_an_rng(self):
        c = self._sample_circuit().add("measure", [0])
        with pytest.raises(BadParameter, match="has no unitary"):
            c.unitary()
        with pytest.raises(BadParameter, match="requires an rng"):
            c.run()

    def test_run_deterministic_per_seed(self):
        c = self._sample_circuit()
        c.add("measure", [0]).add("measure", [1])
        s1, b1 = c.run(rng=np.random.default_rng(11))
        s2, b2 = c.run(rng=np.random.default_rng(11))
        assert b1 == b2
        assert np.array_equal(s1, s2)


class TestCircuitAddChecks:
    """Each bad op raises in `add`, before any 2^n work, and
    `circuit_from_json` inherits the check."""

    @staticmethod
    def _json(op):
        return json.dumps({"n": 2, "ops": [op]})

    def test_measure_takes_one_target(self):
        with pytest.raises(TargetOutOfRange):
            sc.Circuit(2).add("measure", [0, 1])
        with pytest.raises(TargetOutOfRange):
            sc.circuit_from_json(self._json(
                {"gate": "measure", "targets": [0, 1]}))

    @pytest.mark.parametrize("param", [None, float("nan"), float("inf"),
                                       "0.3", 1j])
    def test_rotation_needs_finite_param(self, param):
        with pytest.raises(QdeskError):
            sc.Circuit(1).add("RX", [0], param=param)

    def test_rotation_param_from_json(self):
        with pytest.raises(QdeskError):
            sc.circuit_from_json(self._json({"gate": "RZ", "targets": [1]}))

    def test_matrix_must_fit_targets(self):
        with pytest.raises(DimensionMismatch):
            sc.Circuit(2).add("U", [0], matrix=np.eye(4))
        with pytest.raises(DimensionMismatch):
            sc.Circuit(2).add("CNOT", [1])
        with pytest.raises(DimensionMismatch):
            sc.Circuit(2).add("RY", [0, 1], param=0.2)
        eye4 = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
        with pytest.raises(DimensionMismatch):
            sc.circuit_from_json(self._json(
                {"gate": "U", "targets": [0], "matrix": eye4}))

    def test_unknown_gate_name(self):
        with pytest.raises(BadParameter, match="unknown gate 'FOO'"):
            sc.Circuit(2).add("FOO", [0])
        with pytest.raises(BadParameter, match="unknown gate 'FOO'"):
            sc.circuit_from_json(self._json({"gate": "FOO", "targets": [0]}))

    def test_ops_given_to_the_constructor(self):
        with pytest.raises(DimensionMismatch):
            sc.Circuit(2, [sc.CircuitOp("U", (0,), None, np.eye(4))])
        ops = [sc.CircuitOp("H", (1,)), sc.CircuitOp("CZ", (0, 1))]
        assert sc.Circuit(2, ops).ops == ops

    def test_empty_targets(self):
        with pytest.raises(TargetOutOfRange):
            sc.Circuit(2).add("U", [], matrix=np.eye(1))

    def test_ops_stored_as_given(self):
        c = sc.Circuit(2).add("H", [0]).add("RX", [1], param=0.5)
        c.add("CZ", [1, 0]).add("measure", [1])
        assert all(op.matrix is None for op in c.ops)
        assert sc.circuit_to_json(c) == (
            '{"n": 2, "ops": [{"gate": "H", "targets": [0]}, '
            '{"gate": "RX", "targets": [1], "param": 0.5}, '
            '{"gate": "CZ", "targets": [1, 0]}, '
            '{"gate": "measure", "targets": [1]}]}')

    @pytest.mark.parametrize("target", [1.0, True, "1", None])
    def test_target_must_be_an_integer(self, target):
        with pytest.raises(TargetOutOfRange):
            sc.Circuit(2).add("H", [target])
        with pytest.raises(TargetOutOfRange):
            sc.Circuit(2).add("CZ", [0, target])
        if target is not None:  # JSON has no None target
            with pytest.raises(TargetOutOfRange):
                sc.circuit_from_json(self._json(
                    {"gate": "X", "targets": [target]}))

    def test_numpy_integer_targets(self):
        c = sc.Circuit(3).add("CNOT", np.array([2, 0])).add("H", np.int64(1))
        assert [op.targets for op in c.ops] == [(2, 0), (1,)]
        assert all(type(q) is int for op in c.ops for q in op.targets)

    @pytest.mark.parametrize("n", [2.0, True, "2", -1, 0, 13, 40, None])
    def test_register_size_checked_before_any_allocation(self, n):
        with pytest.raises(BadParameter):
            sc.circuit_from_json(json.dumps({"n": n, "ops": []}))
        with pytest.raises(BadParameter):
            sc.Circuit(n)
        assert sc.Circuit(np.int64(sc.MAX_QUBITS)).n == sc.MAX_QUBITS

    def test_run_state_must_fit_the_register(self):
        c = sc.Circuit(2).add("H", [0])
        for state in (sc.basis_state(3), sc.basis_state(1),
                      np.stack([sc.basis_state(2)] * 2)):
            with pytest.raises(DimensionMismatch):
                c.run(state)
        psi, _ = c.run(sc.basis_state(2, 1).real)
        assert psi.dtype == complex and psi.shape == (4,)

    @pytest.mark.parametrize("matrix", [
        [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],
        [[1.0, 0.0], [0.0, 1.0]],
        [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
        [[[1.0, None], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [], 1.0,
    ])
    def test_json_matrix_entries_are_pairs(self, matrix):
        with pytest.raises(DimensionMismatch):
            sc.circuit_from_json(self._json(
                {"gate": "U", "targets": [0], "matrix": matrix}))

    def test_json_matrix_has_the_bits_of_complex(self):
        rng = np.random.default_rng(17)
        vals = [0.0, -0.0, 1, -1, True, 1e-310, -5e-324, 1.7e308, math.pi,
                -math.pi] + rng.standard_normal(22).tolist()
        rows = [[vals[8 * r + 2 * c:8 * r + 2 * c + 2] for c in range(4)]
                for r in range(4)]
        got = sc.circuit_from_json(self._json(
            {"gate": "U", "targets": [0, 1], "matrix": rows})).ops[0].matrix
        expect = np.array([[complex(re, im) for re, im in row]
                           for row in rows])
        assert got.shape == (4, 4)
        assert np.array_equal(got.view(float), expect.view(float))
        assert np.signbit(got.view(float)).tolist() == \
            np.signbit(expect.view(float)).tolist()


def op_by_op(circ, state, rng=None):
    """The circuit run one op at a time through `apply_gate`, unfused."""
    psi, bits = state, {}
    for op in circ.ops:
        if op.name == "measure":
            bits[op.targets[0]], psi = sc.measure(psi, op.targets[0], rng)
        else:
            psi = sc.apply_gate(psi, op.resolve(), op.targets)
    return psi, bits


@st.composite
def gate_list(draw, barriers=True):
    """(circuit, rng) on n <= 6 qubits: named and Haar-random one-, two-
    and three-qubit ops on targets in any order, and measurements."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    circ = sc.Circuit(n)
    for _ in range(draw(st.integers(0, 24))):
        if barriers and draw(st.integers(0, 7)) == 0:
            circ.add("measure", [draw(st.integers(0, n - 1))])
            continue
        k = draw(st.sampled_from([1, 1, 2, 2, 3]))
        targets = draw(st.permutations(range(n)))[:min(k, n)]
        if len(targets) == 2 and n > 1 and draw(st.booleans()):
            t = draw(st.integers(0, n - 2))  # a brickwork pair, either way
            targets = [t + 1, t] if draw(st.booleans()) else [t, t + 1]
        named = {1: ["H", "T", "RX", "RZ"], 2: ["CNOT", "CZ", "SWAP"]}
        if len(targets) in named and draw(st.booleans()):
            name = draw(st.sampled_from(named[len(targets)]))
            circ.add(name, targets, param=(float(rng.uniform(-4, 4))
                                           if name.startswith("R") else None))
        else:
            circ.add("U", targets,
                     matrix=sc.haar_random_unitary(2 ** len(targets), rng))
    return circ, rng


class TestGateFusion:
    @given(gate_list())
    @settings(max_examples=80, deadline=None)
    def test_run_matches_op_by_op(self, case):
        circ, rng = case
        psi0 = sc.haar_random_state(2**circ.n, rng)
        seed = int(rng.integers(2**31))
        fused, bits = circ.run(psi0, rng=np.random.default_rng(seed))
        ref, ref_bits = op_by_op(circ, psi0, np.random.default_rng(seed))
        assert bits == ref_bits
        assert np.abs(fused - ref).max() < 1e-12

    @given(gate_list(barriers=False))
    @settings(max_examples=60, deadline=None)
    def test_unitary_matches_op_by_op(self, case):
        circ, _ = case
        # row i of the batch carries basis state i, as in Circuit.unitary
        ref, _ = op_by_op(circ, np.eye(2**circ.n, dtype=complex))
        assert np.abs(circ.unitary() - ref.T).max() < 1e-12

    def test_seeded_bits_match_op_by_op(self):
        circ = sc.Circuit(4)
        for q in range(4):
            circ.add("H", [q]).add("RY", [q], param=0.3 * (q + 1))
        circ.add("CNOT", [1, 0]).add("measure", [0]).add("RX", [1], 0.8)
        circ.add("CZ", [2, 3]).add("measure", [3]).add("measure", [1])
        circ.add("SWAP", [0, 2]).add("measure", [2])
        for seed in range(40):
            psi, bits = circ.run(rng=np.random.default_rng(seed))
            ref, ref_bits = op_by_op(circ, sc.basis_state(4),
                                     np.random.default_rng(seed))
            assert bits == ref_bits
            assert np.abs(psi - ref).max() < 1e-12
        assert len({tuple(circ.run(rng=np.random.default_rng(s))[1].values())
                    for s in range(40)}) > 1

    def test_block_order_matches_expand_gate_products(self):
        rng = np.random.default_rng(3)
        A, B, C, D = (sc.haar_random_unitary(2, rng) for _ in range(4))
        G = sc.haar_random_unitary(4, rng)
        F = sc.haar_random_unitary(8, rng)
        circ = sc.Circuit(4)
        circ.add("U", [0], matrix=A).add("U", [1], matrix=C)
        circ.add("U", [0], matrix=B).add("U", [3], matrix=D)
        circ.add("U", [1, 0], matrix=G)  # absorbs C on 1, then B A on 0
        circ.add("U", [3], matrix=A)     # joins D on 3, pending
        circ.add("U", [2], matrix=C)
        circ.add("U", [2, 3, 1], matrix=F)  # flushes 2 and 3 first
        circ.add("U", [0], matrix=D)     # pending to the end
        blocks = list(circ._blocks())
        assert [t for _, t in blocks] == [(1, 0), (2,), (3,), (2, 3, 1),
                                          (0,)]

        def emb(g, t):
            return sc.expand_gate(g, t, 4)

        expect = [emb(G, (1, 0)) @ emb(C, [1]) @ emb(B, [0]) @ emb(A, [0]),
                  emb(C, [2]), emb(A, [3]) @ emb(D, [3]),
                  emb(F, (2, 3, 1)), emb(D, [0])]
        for (g, t), e in zip(blocks, expect):
            assert np.abs(emb(g, t) - e).max() < 1e-12

    def test_measure_is_a_barrier_on_its_own_qubit(self):
        circ = sc.Circuit(2).add("H", [0]).add("X", [1])
        circ.add("measure", [0]).add("Z", [0]).add("CNOT", [0, 1])
        assert [(g is None, t) for g, t in circ._blocks()] == [
            (False, (0,)), (True, (0,)), (False, (0, 1))]

    def test_brickwork_call_count(self, monkeypatch):
        # one call per two-qubit gate, plus a final flush of the qubits
        # that the last layer (offset 1) leaves unpaired: 0 and n - 1
        n, depth = 6, 8
        circ, pairs = sc.Circuit(n), 0
        for layer in range(depth):
            for q in range(n):
                circ.add("RY", [q], param=0.1 * (q + layer))
            for t in range(layer % 2, n - 1, 2):
                circ.add("CZ", [t + 1, t] if t % 4 else [t, t + 1])
                pairs += 1
        calls = []
        apply_gate = sc.apply_gate
        monkeypatch.setattr(sc, "apply_gate",
                            lambda *a: calls.append(a) or apply_gate(*a))
        circ.run()
        assert len(calls) == pairs + 2

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_run_calls_apply_gate_once_per_block(self, data):
        # the kernel's gate-stack branch leaves Circuit.run one call with
        # one matrix per fused block
        n = data.draw(st.integers(1, 5))
        circ = sc.Circuit(n)
        for _ in range(data.draw(st.integers(1, 12))):
            _, targets, g, _ = data.draw(gate_on_register(n=n))
            circ.add("U", targets, matrix=g)
        blocks = [t for _, t in circ._blocks()]
        calls = []
        apply_gate = sc.apply_gate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sc, "apply_gate",
                       lambda *a: calls.append(a) or apply_gate(*a))
            circ.run()
        assert [tuple(t) for _, _, t in calls] == blocks
        assert all(g.ndim == 2 for _, g, _ in calls)

    def test_no_kron(self, monkeypatch):
        rng = np.random.default_rng(8)
        circ = sc.Circuit(3).add("H", [0]).add("RX", [1], param=0.4)
        circ.add("U", [2, 1], matrix=sc.haar_random_unitary(4, rng))
        circ.add("T", [2]).add("CNOT", [0, 2])
        ref, _ = op_by_op(circ, sc.basis_state(3))

        def no_kron(*args):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(sc.np, "kron", no_kron)
        assert np.abs(circ.run()[0] - ref).max() < 1e-12
        assert np.abs(circ.unitary() @ sc.basis_state(3) - ref).max() < 1e-12


ANGLES = np.concatenate([
    np.random.default_rng(23).uniform(-10, 10, 200),
    [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 1e-300, 5e-324, 1e6, -3e15,
     1e300, -1e300, 1.7e308],
])


class TestStackedIngest:
    @pytest.mark.parametrize("factory", [sc.rx, sc.ry, sc.rz, sc.phase])
    def test_factory_stack_is_one_call_per_angle(self, factory):
        stack = factory(ANGLES)
        assert stack.shape == (ANGLES.size, 2, 2) and stack.dtype == complex
        for theta, g in zip(ANGLES, stack):
            for scalar in (theta, float(theta)):
                one = factory(scalar)
                assert one.shape == (2, 2)
                assert np.array_equal(g.view(float), one.view(float))
        grid = factory(ANGLES[:12].reshape(3, 4))
        assert np.array_equal(grid.reshape(-1, 2, 2).view(float),
                              stack[:12].view(float))

    def test_angles_resolve_in_float64(self):
        theta = np.float32(0.3)
        circ = sc.Circuit(1).add("RX", [0], param=theta)
        circ.add("RZ", [0], param=1)
        [(g, _)] = circ._blocks()
        first = sc.rx(float(theta))
        assert np.array_equal(circ.ops[0].resolve(), first)
        assert np.array_equal(g, sc.rz(1.0) @ first)

    @given(gate_list())
    @settings(max_examples=60, deadline=None)
    def test_blocks_have_the_bits_of_one_product_at_a_time(self, case):
        circ, _ = case
        ref = reference_blocks(circ)
        got = circ._blocks()
        assert [t for _, t in got] == [t for _, t in ref]
        for (g, _), (r, _) in zip(got, ref):
            assert (g is None) == (r is None)
            if g is not None:
                assert np.array_equal(np.asarray(g, complex).view(float),
                                      np.asarray(r, complex).view(float))

    def test_pinned_brickwork_output(self):
        # n = 10, depth 40, with raw U4 matrices, generated as the
        # benchmark's random_circuit does; the pin is the parse-and-run
        # output before rotations and absorptions were built in stacks
        text = brickwork_json(np.random.default_rng(2024), 10, 40)
        assert text.count('"U4"') == 48
        psi = sc.circuit_from_json(text).run()[0]
        assert hashlib.sha256(psi.tobytes()).hexdigest() == (
            "4ce39ce8faade481b820c14faa2f5ceabb01921a9f690066414516281cf1954f")


def reference_blocks(circ):
    """The fused blocks of `circ`, each product taken on its own as soon as
    its op is read: the unstacked form of Circuit._blocks."""
    out, pending = [], {}
    for op in circ.ops:
        t = op.targets
        if op.name == "measure" or len(t) > 2:
            out += [(pending.pop(q), (q,)) for q in t if q in pending]
            out.append((None if op.name == "measure" else op.resolve(), t))
        elif len(t) == 1:
            g = op.resolve()
            pending[t[0]] = g @ pending[t[0]] if t[0] in pending else g
        else:
            g = op.resolve()
            if t[0] in pending or t[1] in pending:
                a, b = pending.pop(t[0], sc.I2), pending.pop(t[1], sc.I2)
                g = g @ (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
            out.append((g, t))
    return out + [(g, (q,)) for q, g in pending.items()]


def brickwork_json(rng, n, depth):
    """Brickwork circuit JSON: a random one-qubit gate on every qubit, then
    CNOT/CZ/SWAP or a Haar-random raw 4x4 matrix on alternating pairs."""
    one, two = ("H", "X", "S", "T", "RX", "RY", "RZ"), ("CNOT", "CZ", "SWAP")
    gates = rng.integers(len(one), size=(depth, n))
    angles = rng.uniform(-math.pi, math.pi, size=(depth, n))
    kinds = rng.integers(len(two) + 1, size=(depth, n // 2))
    flips = rng.random((depth, n // 2)) < 0.5
    ginibre = (rng.standard_normal((depth, n // 2, 4, 4))
               + 1j * rng.standard_normal((depth, n // 2, 4, 4)))
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    haar = q * (d / np.abs(d))[..., None, :]
    ops = []
    for layer in range(depth):
        for t in range(n):
            op = {"gate": one[gates[layer, t]], "targets": [t]}
            if op["gate"].startswith("R"):
                op["param"] = float(angles[layer, t])
            ops.append(op)
        for j, t in enumerate(range(layer % 2, n - 1, 2)):
            pair = [t + 1, t] if flips[layer, j] else [t, t + 1]
            if kinds[layer, j] < len(two):
                ops.append({"gate": two[kinds[layer, j]], "targets": pair})
            else:
                ops.append({"gate": "U4", "targets": pair, "matrix": [
                    [[v.real, v.imag] for v in row.tolist()]
                    for row in haar[layer, j]]})
    return json.dumps({"n": n, "ops": ops})
