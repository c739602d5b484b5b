"""Classical and quantum probability primitives.

Frozen oracle values were computed independently (closed forms or direct
eigendecompositions) before the implementations were written.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk import qprob, simcore as sc, tnet
from qdesk.errors import BadParameter


def random_density(n, rng, rank=None):
    d = 2**n
    rank = rank or d
    A = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


class TestShannon:
    def test_worked_example(self):
        # H(1/2, 1/4, 1/8, 1/8) = 1.75 bits by direct summation
        assert qprob.shannon_entropy([0.5, 0.25, 0.125, 0.125]) == \
            pytest.approx(1.75, abs=1e-12)

    def test_uniform(self):
        assert qprob.shannon_entropy([0.25] * 4) == pytest.approx(2.0)

    def test_zero_components_ignored(self):
        assert qprob.shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_certain_outcome_is_plus_zero(self):
        # == 0.0 holds for -0.0 too; the sign shows in `qdesk run` output
        for p in ([1.0], [0.0, 1.0, 0.0]):
            assert math.copysign(1.0, qprob.shannon_entropy(p)) == 1.0

    def test_nats(self):
        assert qprob.shannon_entropy([0.5, 0.5], base=np.e) == \
            pytest.approx(np.log(2), abs=1e-12)


    def test_nan_rejected(self):
        # a NaN drops out of the p > 0 mask, so it must fail the check
        with pytest.raises(BadParameter, match="negative probability"):
            qprob.shannon_entropy([np.nan, 0.5, 0.5])


class TestRelativeEntropy:
    def test_worked_example(self):
        # D((1/2,1/4,1/8,1/8) || uniform) = 2 - 1.75 = 0.25 bits
        p = [0.5, 0.25, 0.125, 0.125]
        assert qprob.relative_entropy(p, [0.25] * 4) == \
            pytest.approx(0.25, abs=1e-12)

    def test_zero_iff_equal(self):
        p = [0.3, 0.7]
        assert qprob.relative_entropy(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_infinite_on_support_mismatch(self):
        with pytest.raises(BadParameter, match=r"support\(p\) not contained"):
            qprob.relative_entropy([0.5, 0.5], [1.0, 0.0])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        assert qprob.relative_entropy(p, q) >= -1e-12


    def test_nan_rejected(self):
        with pytest.raises(BadParameter):
            qprob.relative_entropy([np.nan, 1.0], [0.5, 0.5])


class TestMajorization:
    def test_uniform_is_bottom(self):
        # any distribution majorizes the uniform one
        assert qprob.majorizes([0.7, 0.2, 0.1], [1 / 3] * 3)
        assert not qprob.majorizes([1 / 3] * 3, [0.7, 0.2, 0.1])

    def test_incomparable_pair(self):
        a = [0.55, 0.15, 0.15, 0.15]
        b = [0.4, 0.4, 0.1, 0.1]
        assert qprob.majorization_compare(a, b) == "incomparable"

    def test_equal_both(self):
        assert qprob.majorization_compare([0.5, 0.5], [0.5, 0.5]) == "both"

    def test_tolerance(self):
        a = [0.5, 0.5]
        b = [0.5 + 5e-13, 0.5 - 5e-13]
        assert qprob.majorizes(a, b, tol=1e-12)

    def test_unequal_totals_never_majorize(self):
        assert not qprob.majorizes([0.6, 0.5], [0.5, 0.5])
        assert not qprob.majorizes([0.5, 0.5], [0.6, 0.5])

    def test_one_way_orders(self):
        a, b = [0.7, 0.2, 0.1], [0.5, 0.3, 0.2]
        assert qprob.majorization_compare(a, b) == "first"
        assert qprob.majorization_compare(b, a) == "second"

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sorted_prefix_dominance(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4))
        if qprob.majorizes(p, [0.25] * 4):
            ps = np.sort(p)[::-1]
            assert all(ps[:k + 1].sum() >= (k + 1) / 4 - 1e-12
                       for k in range(4))


class TestGeometry:
    def test_bhattacharyya_identical(self):
        assert qprob.bhattacharyya_angle([0.5, 0.5], [0.5, 0.5]) == \
            pytest.approx(0.0, abs=1e-8)

    def test_bhattacharyya_orthogonal(self):
        assert qprob.bhattacharyya_angle([1, 0], [0, 1]) == \
            pytest.approx(np.pi / 2)


class TestVonNeumann:
    def test_pure_state_zero(self):
        psi = np.array([1, 1j]) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert qprob.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_basis_state_is_plus_zero(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert math.copysign(1.0, qprob.von_neumann_entropy(rho)) == 1.0

    def test_maximally_mixed(self):
        assert qprob.von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0)

    def test_basis_independent(self):
        rng = np.random.default_rng(0)
        rho = random_density(2, rng)
        U = sc.haar_random_unitary(4, rng)
        assert qprob.von_neumann_entropy(U @ rho @ U.conj().T) == \
            pytest.approx(qprob.von_neumann_entropy(rho), abs=1e-10)


class TestQuantumRelativeEntropy:
    def test_zero_on_equal(self):
        rho = random_density(2, np.random.default_rng(1))
        assert qprob.quantum_relative_entropy(rho, rho) == \
            pytest.approx(0.0, abs=1e-10)

    def test_support_violation(self):
        pure = np.diag([1.0, 0.0]).astype(complex)
        mixed = np.eye(2) / 2
        with pytest.raises(BadParameter,
                           match=r"support\(rho\) not contained"):
            qprob.quantum_relative_entropy(mixed, pure)

    def test_qubit_closed_form_matches_spectral(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=3)
            a *= rng.uniform(0, 0.95) / np.linalg.norm(a)
            b = rng.normal(size=3)
            b *= rng.uniform(0.05, 0.95) / np.linalg.norm(b)
            rho = qprob.bloch_to_density(a)
            eta = qprob.bloch_to_density(b)
            ref = qprob.quantum_relative_entropy(rho, eta)
            val = qprob.qubit_relative_entropy_closed_form(a, b)
            assert val == pytest.approx(ref, abs=1e-10)

    def test_closed_form_rejects_pure_or_outside_eta(self):
        for b in ([0, 0, 1], [0, 0, 1.5]):
            with pytest.raises(BadParameter, match=r"needs \|tau_b\| < 1"):
                qprob.qubit_relative_entropy_closed_form([0, 0, 0.5], b)

    def test_klein_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_density(2, rng)
            eta = random_density(2, rng)
            assert qprob.quantum_relative_entropy(rho, eta) >= -1e-10


class TestSchmidt:
    def test_bell_state(self):
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        lam, U, V = qprob.schmidt_decompose(psi, (1, 1))
        assert np.allclose(np.sort(lam), [0.5, 0.5], atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(4)
        for n_l, n_r in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            psi = sc.haar_random_state(2 ** (n_l + n_r), rng)
            lam, U, V = qprob.schmidt_decompose(psi, (n_l, n_r))
            rec = qprob.schmidt_reconstruct(lam, U, V)
            assert np.abs(rec - psi).max() < 1e-10

    def test_marginal_spectra_agree(self):
        rng = np.random.default_rng(5)
        psi = sc.haar_random_state(8, rng)
        lam, _, _ = qprob.schmidt_decompose(psi, (1, 2))
        rho = np.outer(psi, psi.conj())
        left = qprob.partial_trace(rho, keep=[0], dims=[2, 4])
        w = np.sort(np.linalg.eigvalsh(left))[::-1]
        assert np.allclose(np.sort(lam)[::-1], w, atol=1e-10)


    @pytest.mark.parametrize("psi", [[1, 0, 0, 1], [0, 0, 0, 0],
                                     [1 + 2e-10, 0, 0, 0], [np.nan, 0, 0, 1]])
    def test_state_must_be_unit_norm(self, psi):
        with pytest.raises(BadParameter, match="not 1"):
            qprob.schmidt_decompose(psi, (1, 1))

    def test_shares_the_mps_cut(self):
        # one cut rule: the same singular values and phases, bit for bit
        rng = np.random.default_rng(8)
        for n_l, n_r in [(1, 1), (1, 2), (2, 2), (3, 1)]:
            psi = sc.haar_random_state(2 ** (n_l + n_r), rng)
            lam, U, V = qprob.schmidt_decompose(psi, (n_l, n_r))
            A, B = tnet.mps_from_tensor(
                psi.reshape(2**n_l, 2**n_r)).tensors
            assert np.array_equal(U, A[0])
            assert np.abs(np.sqrt(lam)[:, None] * V.T - B[..., 0]).max() \
                < 1e-15
            # the largest-magnitude component of each left vector is real
            # positive, up to the rounding of the phase division
            top = np.abs(U).argmax(axis=0)
            lead = U[top, np.arange(U.shape[1])]
            assert np.abs(lead.imag).max() < 1e-15 and np.all(lead.real > 0)


class TestPartialTraceAndCollapse:
    def test_product_state(self):
        rho_a = random_density(1, np.random.default_rng(6))
        rho_b = random_density(1, np.random.default_rng(7))
        joint = np.kron(rho_a, rho_b)
        out = qprob.partial_trace(joint, keep=[0], dims=[2, 2])
        assert np.abs(out - rho_a).max() < 1e-12

    def test_trace_preserved(self):
        rho = random_density(3, np.random.default_rng(8))
        out = qprob.partial_trace(rho, keep=[1], dims=[2, 2, 2])
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_measurement_update(self):
        rho = np.eye(2) / 2
        P0 = np.diag([1.0, 0.0]).astype(complex)
        p, post = qprob.measurement_update(rho, P0)
        assert p == pytest.approx(0.5)
        assert np.abs(post - P0).max() < 1e-12

    def test_zero_probability_branch(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(BadParameter, match="branch has zero probability"):
            qprob.measurement_update(rho, np.diag([0.0, 1.0]).astype(complex))


class TestBloch:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        rho = qprob.bloch_to_density(r)
        assert np.abs(qprob.density_to_bloch(rho) - r).max() < 1e-12

    def test_pure_on_sphere(self):
        rho = qprob.bloch_to_density([0, 0, 1])
        assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-12

    def test_outside_ball_rejected(self):
        with pytest.raises(BadParameter, match=r"^\|tau\| = 1\.5 > 1$"):
            qprob.bloch_to_density([0, 0, 1.5])


class TestSicPovm:
    def test_completeness(self):
        # projectors sum to 2*I; the POVM weights 1/2 restore identity
        povm = qprob.sic_qubit_povm()
        assert np.abs(sum(povm) - 2 * np.eye(2)).max() < 1e-12

    def test_pairwise_overlaps(self):
        povm = qprob.sic_qubit_povm()
        for i in range(4):
            for j in range(4):
                val = np.trace(povm[i] @ povm[j]).real
                ref = (2 * (i == j) + 1) / 3
                assert val == pytest.approx(ref, abs=1e-12)
