"""Kernel identities, Gram/regression machinery, and the power-of-data
quantities s_K, g12, and effective dimension."""
import numpy as np
import pytest

from qdesk import encode, qkernel as qk
from qdesk.errors import SingularMatrix, SingularSystem

AMP = encode.EncodingSpec("amplitude", {})
PHASE = encode.EncodingSpec("phase", {})


class TestKernelIdentities:
    def test_self_kernel_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert qk.quantum_kernel(x, x, AMP) == pytest.approx(1.0, abs=1e-10)

    def test_amplitude_quadratic(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=8) + 1j * rng.normal(size=8)
            y = rng.normal(size=8) + 1j * rng.normal(size=8)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            assert qk.quantum_kernel(x, y, AMP) == pytest.approx(
                abs(np.vdot(x, y)) ** 2, abs=1e-10
            )

    def test_amplitude_copies(self):
        rng = np.random.default_rng(2)
        spec = encode.EncodingSpec("amplitude", {"copies": 2})
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        assert qk.quantum_kernel(x, y, spec) == pytest.approx(
            abs(np.vdot(x, y)) ** 4, abs=1e-10
        )

    def test_phase_cosine(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert qk.quantum_kernel(a, b, PHASE) == pytest.approx(
            np.prod(np.cos(a - b) ** 2), abs=1e-10
        )

    def test_basis_delta(self):
        spec = encode.EncodingSpec("basis", {"width": 3})
        assert qk.quantum_kernel(5, 5, spec) == pytest.approx(1.0)
        assert qk.quantum_kernel(5, 6, spec) == pytest.approx(0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=2), rng.normal(size=2)
        assert qk.quantum_kernel(a, b, PHASE) == pytest.approx(
            qk.quantum_kernel(b, a, PHASE), abs=1e-12
        )


class TestGram:
    def test_orthogonal_basis_points_give_identity(self):
        spec = encode.EncodingSpec("basis", {"width": 2})
        gm = qk.gram([0, 1, 2, 3], spec)
        assert np.abs(gm.K - np.eye(4)).max() < 1e-12

    def test_duplicate_point_rank_deficient(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=2)
        gm = qk.gram([x, x, rng.normal(size=2)], PHASE)
        assert qk.effective_dimension(gm, 1e-10) == 2
        assert np.abs(gm.K[0] - gm.K[1]).max() < 1e-12

    def test_random_set_psd(self):
        rng = np.random.default_rng(6)
        gm = qk.gram([rng.normal(size=3) for _ in range(8)], PHASE)
        assert np.linalg.eigvalsh(gm.K).min() >= -1e-8
        assert np.abs(np.diag(gm.K) - 1).max() < 1e-12

    @pytest.mark.parametrize("kind", ["phase", "basis", "qsample",
                                      "amplitude"])
    def test_equals_the_pairwise_kernel_loop(self, kind):
        rng = np.random.default_rng(7)
        if kind == "phase":
            spec, X = PHASE, [rng.normal(size=3) for _ in range(9)]
        elif kind == "basis":
            spec = encode.EncodingSpec("basis", {"width": 3})
            X = [int(v) for v in rng.integers(0, 8, 9)]
        elif kind == "qsample":
            spec = encode.EncodingSpec("qsample", {})
            X = [p / p.sum() for p in rng.random((9, 8))]
        else:
            spec = encode.EncodingSpec("amplitude", {"copies": 2})
            X = list(rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4)))
        K = np.empty((9, 9))
        for i in range(9):
            for j in range(i, 9):
                K[i, j] = K[j, i] = qk.quantum_kernel(X[i], X[j], spec)
        assert np.array_equal(qk.gram(X, spec).K, K)


class TestKernelFit:
    def test_identity_gram(self):
        gm = qk.GramMatrix(np.eye(3))
        y = np.array([1.0, -2.0, 0.5])
        m = qk.kernel_fit(gm, y, 0.0)
        assert np.abs(m.alphas - y).max() < 1e-12

    def test_large_lambda_shrinks(self):
        gm = qk.GramMatrix(np.eye(3))
        m = qk.kernel_fit(gm, [1.0, 1.0, 1.0], 1e6)
        assert np.abs(m.alphas).max() < 1e-5

    def test_interpolates_at_lambda_zero(self):
        rng = np.random.default_rng(7)
        X = [rng.normal(size=2) for _ in range(6)]
        gm = qk.gram(X, PHASE)
        y = rng.normal(size=6)
        m = qk.kernel_fit(gm, y, 0.0, X=X)
        for xi, yi in zip(X, y):
            assert qk.predict(m, xi) == pytest.approx(yi, abs=1e-8)

    def test_rank_deficient_off_range_raises(self):
        K = np.outer([1.0, 1.0], [1.0, 1.0])
        gm = qk.GramMatrix(K)
        with pytest.raises(SingularSystem):
            qk.kernel_fit(gm, [1.0, -1.0], 0.0)

    def test_convexity_witness(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(5, 5))
        gm = qk.GramMatrix(A @ A.T + 0.1 * np.eye(5))
        y = rng.normal(size=5)
        m = qk.kernel_fit(gm, y, 0.03)
        base = qk.fit_objective(gm, y, 0.03, m.alphas)
        for _ in range(1000):
            pert = m.alphas + rng.normal(scale=0.05, size=5)
            assert base <= qk.fit_objective(gm, y, 0.03, pert) + 1e-12


class TestPowerOfData:
    def test_model_complexity_identity(self):
        y = np.array([1.0, 2.0, 2.0])
        assert qk.model_complexity(np.eye(3), y) == pytest.approx(y @ y)

    def test_complexity_eigenvector(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(4, 4))
        K = A @ A.T + 0.2 * np.eye(4)
        w, V = np.linalg.eigh(K)
        y = 3.0 * V[:, -1]
        assert qk.model_complexity(K, y) == pytest.approx(
            (y @ y) / w[-1], abs=1e-8
        )

    def test_geometric_difference_identities(self):
        rng = np.random.default_rng(10)
        A = rng.normal(size=(4, 4))
        K = A @ A.T + 0.1 * np.eye(4)
        assert qk.geometric_difference(K, K) == pytest.approx(1.0, abs=1e-8)
        assert qk.geometric_difference(K, 9 * K) == pytest.approx(
            3.0, abs=1e-8
        )

    def test_singular_k1_rejected(self):
        with pytest.raises(SingularMatrix):
            qk.geometric_difference(np.outer([1, 0], [1, 0]), np.eye(2))

    def test_inequality_100_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            A = rng.normal(size=(5, 5))
            B = rng.normal(size=(5, 5))
            K1 = A @ A.T + 0.05 * np.eye(5)
            K2 = B @ B.T + 0.05 * np.eye(5)
            y = rng.normal(size=5)
            g = qk.geometric_difference(K1, K2)
            assert qk.model_complexity(K1, y) <= \
                g**2 * qk.model_complexity(K2, y) + 1e-8

    def test_effective_dimension(self):
        assert qk.effective_dimension(np.eye(5)) == 5
        assert qk.effective_dimension(np.outer([1, 1], [1, 1])) == 1

    def test_low_rank_subspace_dimension(self):
        # amplitude-encoded points confined to a 2-dim subspace span at
        # most 4 density-matrix directions
        rng = np.random.default_rng(12)
        basis = np.linalg.qr(rng.normal(size=(8, 2)))[0]
        X = []
        for _ in range(10):
            v = basis @ rng.normal(size=2)
            X.append(v / np.linalg.norm(v))
        gm = qk.gram(X, AMP)
        assert qk.effective_dimension(gm, 1e-8) <= 4

    def test_quadratic_regression_reproduces_quantum_labels(self):
        rng = np.random.default_rng(13)
        d = 8
        O = rng.normal(size=(d, d))
        O = (O + O.T) / 2
        X = [v / np.linalg.norm(v) for v in rng.normal(size=(90, d))]
        y = [float(v @ O @ v) for v in X]
        f = qk.quadratic_feature_regression(X, y)
        Xt = [v / np.linalg.norm(v) for v in rng.normal(size=(40, d))]
        mse = np.mean([(f(v) - float(v @ O @ v)) ** 2 for v in Xt])
        assert mse < 1e-6

    def test_quantum_label_complexity_bound(self):
        # s_Q <= tr O^2 for labels generated under the same encoding:
        # y lies in the range of the feature map, with weight norm
        # ||O||_F^2
        rng = np.random.default_rng(14)
        d = 4
        O = rng.normal(size=(d, d))
        O = (O + O.T) / 2
        X = [v / np.linalg.norm(v) for v in rng.normal(size=(20, d))]
        y = [float(v @ O @ v) for v in X]
        gm = qk.gram(X, AMP)
        s_q = qk.model_complexity(gm, y)
        assert s_q <= np.trace(O @ O) + 1e-6
