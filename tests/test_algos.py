"""Textbook circuit protocols: Bell pairs, teleportation, Deutsch-Jozsa,
QFT, phase estimation, Grover, DQC1, the swap test, QPE-based matrix
protocols, and LCU block encoding."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk import algos, simcore as sc
from qdesk.errors import (
    AllSolutions,
    BadParameter,
    NoSolutions,
    NotAnEigenvector,
    PostselectionImpossible,
)


class TestBell:
    def test_all_four_states(self):
        s = 1 / np.sqrt(2)
        expected = {
            "phi+": [s, 0, 0, s],
            "phi-": [s, 0, 0, -s],
            "psi+": [0, s, s, 0],
            "psi-": [0, s, -s, 0],
        }
        for variant, vec in expected.items():
            out = algos.bell_prepare(variant)
            assert np.abs(out - np.array(vec)).max() < 1e-12

    def test_orthonormal(self):
        states = [algos.bell_prepare(v)
                  for v in ("phi+", "phi-", "psi+", "psi-")]
        G = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.abs(G - np.eye(4)).max() < 1e-12


class TestTeleport:
    def test_fidelity_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            psi = sc.haar_random_state(2, rng)
            _, out = algos.teleport(psi, rng)
            assert abs(np.vdot(psi, out)) ** 2 == pytest.approx(
                1.0, abs=1e-10
            )

    def test_branch_table(self):
        # pre-correction states are (X^m2 Z^m1)^-1 applied to psi
        rng = np.random.default_rng(1)
        psi = sc.haar_random_state(2, rng)
        for (m1, m2), branch in algos.teleport_branches(psi).items():
            corr = np.linalg.matrix_power(sc.X, m2)
            corr = np.linalg.matrix_power(sc.Z, m1) @ corr
            fixed = corr @ branch
            assert abs(abs(np.vdot(psi, fixed)) - 1) < 1e-10

    def test_all_outcomes_equally_likely(self):
        rng = np.random.default_rng(2)
        psi = sc.haar_random_state(2, rng)
        counts = {}
        for _ in range(4000):
            ms, _ = algos.teleport(psi, rng)
            counts[ms] = counts.get(ms, 0) + 1
        for v in counts.values():
            assert v / 4000 == pytest.approx(0.25, abs=0.03)


class TestDeutschJozsa:
    def test_exhaustive_2_and_3_bits(self):
        for n in (2, 3):
            N = 2**n
            # constant oracles
            for const in (0, 1):
                assert algos.deutsch_jozsa(n, lambda x, c=const: c) == \
                    "constant"
            # all balanced oracles
            for ones in itertools.combinations(range(N), N // 2):
                marked = set(ones)
                f = lambda x, m=marked: 1 if x in m else 0
                assert algos.deutsch_jozsa(n, f) == "balanced"

    def test_oracle_unitary_is_permutation(self):
        U = algos.oracle_unitary(lambda x: x & 1, 2)
        assert sc.is_unitary(U)
        assert np.abs(np.abs(U).sum(axis=0) - 1).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_gather_equals_oracle_unitary(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(4):
            bits = rng.integers(0, 2, size=2**n)
            f = lambda x, b=bits: int(b[x])
            psi = sc.haar_random_state(2 ** (n + 1), rng)
            assert np.array_equal(algos.apply_oracle(psi, f, n),
                                  algos.oracle_unitary(f, n) @ psi)


class TestQFT:
    def test_matches_dft(self):
        for n in range(1, 7):
            err = np.abs(algos.qft_unitary(n) - algos.qft_matrix(n)).max()
            assert err < 1e-10

    def test_gate_count_quadratic(self):
        # H + controlled phases + final swaps: n(n+1)/2 + floor(n/2)
        for n in range(1, 8):
            expected = n * (n + 1) // 2 + n // 2
            assert algos.qft_circuit(n).gate_count() == expected

    def test_dft_action_on_basis_state(self):
        n = 3
        out = algos.qft_unitary(n) @ sc.basis_state(n, 5)
        k = np.arange(8)
        ref = np.exp(2j * np.pi * 5 * k / 8) / np.sqrt(8)
        assert np.abs(out - ref).max() < 1e-10


class TestQPE:
    def test_exact_binary_fraction_deterministic(self):
        rng = np.random.default_rng(3)
        for t in (3, 4, 5):
            phi = 0b101 / 2**t
            U = np.diag([1.0, np.exp(2j * np.pi * phi)]).astype(complex)
            eig = np.array([0.0, 1.0], dtype=complex)
            probs = np.abs(algos.qpe_register_amplitudes(phi, t)) ** 2
            m = int(round(phi * 2**t))
            assert probs[m] == pytest.approx(1.0, abs=1e-10)
            res = algos.phase_estimate(U, eig, t, 0.1, rng)
            # with extra ancillas the leading t bits are still exact
            assert abs(res.phase_estimate - phi) <= 2.0**-t

    def test_register_law_matches_circuit(self):
        rng = np.random.default_rng(4)
        phi = 0.237
        U = np.diag([np.exp(2j * np.pi * phi), 1.0]).astype(complex)
        eig = np.array([1.0, 0.0], dtype=complex)
        circ = algos.qpe_circuit_distribution(U, eig, 4)
        closed = np.abs(algos.qpe_register_amplitudes(phi, 4)) ** 2
        assert np.abs(circ - closed).max() < 1e-12

    def test_ancilla_formula(self):
        # t + ceil(log2(2 + 1/(2 eps)))
        assert algos.qpe_ancilla_bits(4, 0.25) == 6
        assert algos.qpe_ancilla_bits(3, 0.1) == 3 + 3

    @pytest.mark.parametrize("eps", [0, -0.4, 1, 1.5, float("nan")])
    def test_ancilla_epsilon_outside_unit_interval(self, eps):
        # eps = 0 divided by zero; eps < 0 returned t or fewer ancillas
        with pytest.raises(BadParameter):
            algos.qpe_ancilla_bits(4, eps)

    def test_not_an_eigenvector(self):
        U = np.eye(2, dtype=complex)
        U[1, 1] = 1j
        with pytest.raises(NotAnEigenvector):
            algos.phase_estimate(U, np.array([1, 1]) / np.sqrt(2), 3, 0.1,
                                 np.random.default_rng(5))

    def test_failure_bound(self):
        # P(|m - b| > e) <= 1/(2(e-1)) for e extra-ancilla rounding
        t, eps = 3, 0.2
        n_anc = algos.qpe_ancilla_bits(t, eps)
        for phi in np.linspace(0.03, 0.97, 9):
            probs = np.abs(algos.qpe_register_amplitudes(phi, n_anc)) ** 2
            m = np.arange(2**n_anc)
            d = np.abs(m / 2**n_anc - phi)
            d = np.minimum(d, 1 - d)
            assert probs[d <= 2.0**-t].sum() >= 1 - eps


class TestGrover:
    def test_closed_form_equals_simulation(self):
        rng = np.random.default_rng(6)
        for n in range(2, 7):
            N = 2**n
            for M in (1, 2, N // 4, N // 2 - 1):
                if not 1 <= M < N:
                    continue
                marked = set(rng.choice(N, M, replace=False).tolist())
                R, closed, simulated, _ = algos.grover(
                    lambda x, m=marked: x in m, n
                )
                assert R == int(np.floor(np.pi / 4 * np.sqrt(N / M)))
                assert simulated == pytest.approx(closed, abs=1e-10)

    def test_single_marked_n4(self):
        R, closed, simulated, psi = algos.grover(lambda x: x == 7, 4)
        assert R == 3
        assert closed == pytest.approx(0.9613189697265625, abs=1e-12)
        assert np.argmax(np.abs(psi)) == 7

    def test_degenerate_oracles(self):
        with pytest.raises(NoSolutions):
            algos.grover(lambda x: False, 3)
        with pytest.raises(AllSolutions):
            algos.grover(lambda x: True, 3)


class TestDQC1:
    def test_exact_expectations_equal_trace(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            U = sc.haar_random_unitary(2**n, rng)
            val = algos.dqc1_exact_expectations(U)
            assert val == pytest.approx(np.trace(U) / 2**n, abs=1e-10)

    def test_shot_estimate_within_5_sigma(self):
        rng = np.random.default_rng(8)
        shots = 20000
        sigma = 1 / np.sqrt(shots)
        for n in (2, 4):
            U = sc.haar_random_unitary(2**n, rng)
            est = algos.dqc1_trace(U, shots, rng)
            ref = np.trace(U) / 2**n
            assert abs(est.real - ref.real) < 5 * sigma
            assert abs(est.imag - ref.imag) < 5 * sigma


class TestSwapTest:
    def test_circuit_probability(self):
        rng = np.random.default_rng(9)
        x = sc.haar_random_state(4, rng)
        y = sc.haar_random_state(4, rng)
        p0 = algos.swap_test_circuit_p0(x, y)
        assert p0 == pytest.approx(
            0.5 * (1 + abs(np.vdot(x, y)) ** 2), abs=1e-10
        )

    def test_overlap_estimator(self):
        rng = np.random.default_rng(10)
        x = sc.haar_random_state(8, rng)
        shots = 40000
        est = algos.overlap_test(x, x, shots, rng)
        assert est == pytest.approx(1.0, abs=5 / np.sqrt(shots))

    def test_overlap_that_rounds_above_one(self):
        # two unit vectors of length 1 whose |<x|y>|^2 rounds to 1 + 2^-51
        x = np.array([0.34009497199245725 - 0.9403910941865887j])
        y = np.array([-0.16681595704847074 - 0.9859880508779014j])
        assert abs(np.vdot(x, y)) ** 2 > 1
        rng = np.random.default_rng(0)
        assert algos.overlap_test(x, y, 1000, rng) == 1.0


class TestMatrixProtocols:
    def _representable_matrix(self, n, t, rng):
        lam = rng.choice(np.arange(1, 2**t), size=2**n, replace=False) \
            / 2.0**t
        V = sc.haar_random_unitary(2**n, rng)
        return (V * lam) @ V.conj().T, lam

    def test_multiply_fidelity_and_p_acc(self):
        rng = np.random.default_rng(11)
        t = 8
        for n in (1, 2):
            A, _ = self._representable_matrix(n, t, rng)
            x = sc.haar_random_state(2**n, rng)
            out, p_acc, err = algos.qpe_matrix_multiply(A, x, t_bits=t)
            ref = A @ x
            ref /= np.linalg.norm(ref)
            assert abs(np.vdot(ref, out)) ** 2 > 0.999
            assert p_acc == pytest.approx(
                algos.matrix_multiply_p_acc(A, x), abs=1e-10
            )

    def test_invert_fidelity_and_p_acc(self):
        rng = np.random.default_rng(12)
        t = 8
        for n in (1, 2):
            A, lam = self._representable_matrix(n, t, rng)
            x = sc.haar_random_state(2**n, rng)
            C = float(lam.min())
            out, p_acc, err = algos.qpe_matrix_invert(A, x, C, t_bits=t)
            ref = np.linalg.solve(A, x)
            ref /= np.linalg.norm(ref)
            assert abs(np.vdot(ref, out)) ** 2 > 0.999
            assert p_acc == pytest.approx(
                algos.matrix_invert_p_acc(A, x, C), abs=1e-10
            )

    def test_postselection_impossible(self):
        A = np.diag([0.25, 0.5]).astype(complex)
        x = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(PostselectionImpossible):
            algos._qpe_eigen_filter(A, x, lambda v: np.zeros_like(v), 4)


class TestLCU:
    def test_householder_prep(self):
        rng = np.random.default_rng(13)
        v = sc.haar_random_state(8, rng)
        P = algos.householder_prep(v)
        assert sc.is_unitary(P)
        assert np.abs(P @ sc.basis_state(3) - v).max() < 1e-10

    def test_block_encodes_pauli_sums(self):
        rng = np.random.default_rng(14)
        for n in (2, 3):
            A = rng.normal(size=(2**n,) * 2)
            A = A + A.T
            terms = [(lab, c) for lab, c in sc.pauli_decompose(A)
                     if abs(c) > 1e-12]
            alphas = [abs(c) for _, c in terms]
            unis = [np.sign(np.real(c)) * sc.pauli_matrix(lab)
                    for lab, c in terms]
            full, alpha = algos.lcu_block_encode(alphas, unis)
            assert sc.is_unitary(full)
            assert alpha == pytest.approx(sum(alphas))
            block = algos.lcu_extract_block(full, 2**n)
            assert np.abs(block - A / alpha).max() < 1e-10

    @staticmethod
    def dense_reference(alphas, unitaries):
        # Prep^dag Select Prep with kron factors and a block-diagonal select
        L, dim = len(unitaries), unitaries[0].shape[0]
        A_dim = 2 ** max(1, math.ceil(math.log2(L)))
        amps = np.zeros(A_dim, dtype=complex)
        amps[:L] = np.sqrt(np.asarray(alphas) / np.sum(alphas))
        prep = algos.householder_prep(amps)
        select = np.zeros((A_dim * dim,) * 2, dtype=complex)
        for k in range(A_dim):
            select[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = \
                unitaries[k] if k < L else np.eye(dim)
        return (np.kron(prep.conj().T, np.eye(dim)) @ select
                @ np.kron(prep, np.eye(dim)))

    @given(st.integers(1, 9), st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_structured_product_matches_dense(self, L, dim, seed):
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.05, 3.0, size=L)
        unis = [sc.haar_random_unitary(dim, rng) for _ in range(L)]
        full, alpha = algos.lcu_block_encode(alphas, unis)
        assert np.abs(full - self.dense_reference(alphas, unis)).max() \
            < 1e-13
        assert sc.is_unitary(full)
        block = algos.lcu_extract_block(full, dim)
        target = sum(a * u for a, u in zip(alphas, unis)) / alpha
        assert np.abs(block - target).max() < 1e-13

    def test_no_kron(self, monkeypatch):
        def kron(*args):
            raise AssertionError("np.kron called")

        rng = np.random.default_rng(15)
        unis = [sc.haar_random_unitary(4, rng) for _ in range(3)]
        monkeypatch.setattr(np, "kron", kron)
        full, _ = algos.lcu_block_encode([1.0, 0.5, 0.25], unis)
        assert full.shape == (16, 16)
