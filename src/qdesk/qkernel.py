"""Quantum kernels and the power-of-data diagnostics.

Kernels kappa(x, y) = tr(rho(x) rho(y)) for the data encodings in
`encode`, Gram matrices, regularized kernel regression, and the
model-complexity / geometric-difference / effective-dimension quantities
used to compare quantum and classical kernel models.

All inverses are Moore-Penrose pseudoinverses with an eigenvalue cutoff of
1e-10 times the largest eigenvalue.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encode
from .errors import DimensionMismatch, SingularMatrix, SingularSystem

PINV_CUTOFF = 1e-10


def encoding_density(spec: encode.EncodingSpec, x) -> np.ndarray:
    """Density matrix rho(x) for a single data point."""
    if spec.kind == "basis":
        width = spec.params["width"]
        bits = encode.bits_of(int(x), width) if np.isscalar(x) else x
        psi = encode.basis_encode([bits])
        return np.outer(psi, psi.conj())
    if spec.kind == "amplitude":
        v = np.asarray(x, dtype=complex)
        v = v / np.linalg.norm(v)
        return np.outer(v, v.conj())
    if spec.kind == "phase":
        return encode.phase_encode(x)
    if spec.kind == "qsample":
        psi = encode.qsample_encode(x)
        return np.outer(psi, psi.conj())
    raise ValueError(f"no density-matrix encoding for kind {spec.kind!r}")


def quantum_kernel(x, y, spec: encode.EncodingSpec) -> float:
    """kappa(x, y) = tr(rho(x) rho(y)).

    Closed forms: basis encoding gives the delta kernel, amplitude
    encoding with r copies gives |x^dag y|^{2r}, phase encoding gives
    prod cos^2(x_i - y_i)."""
    if spec.kind == "amplitude":
        r = spec.params.get("copies", 1)
        xv = np.asarray(x, dtype=complex)
        yv = np.asarray(y, dtype=complex)
        ov = abs(np.vdot(xv, yv)) / (np.linalg.norm(xv) * np.linalg.norm(yv))
        return float(ov ** (2 * r))
    return _density_overlap(encoding_density(spec, x),
                            encoding_density(spec, y))


def _density_overlap(rx: np.ndarray, ry: np.ndarray) -> float:
    return float(np.trace(rx @ ry).real)


@dataclass
class GramMatrix:
    K: np.ndarray
    spec: encode.EncodingSpec | None = None

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        if not np.allclose(K, K.T, atol=1e-10):
            raise ValueError("Gram matrix not symmetric")
        if np.linalg.eigvalsh(K).min() < -1e-8:
            raise ValueError("Gram matrix not positive semidefinite")
        self.K = K


def gram(dataset, spec: encode.EncodingSpec) -> GramMatrix:
    """K[i, j] = quantum_kernel(dataset[i], dataset[j], spec), bit for bit.
    Each encoding density is built once, not once per pair; amplitude
    encoding keeps its closed form."""
    if spec.kind == "amplitude":
        def pair(i, j):
            return quantum_kernel(dataset[i], dataset[j], spec)
    else:
        rhos = [encoding_density(spec, x) for x in dataset]

        def pair(i, j):
            return _density_overlap(rhos[i], rhos[j])
    M = len(dataset)
    K = np.empty((M, M))
    for i in range(M):
        for j in range(i, M):
            K[i, j] = K[j, i] = pair(i, j)
    return GramMatrix(K, spec)


@dataclass
class KernelModel:
    alphas: np.ndarray
    X: list
    spec: encode.EncodingSpec | None
    lam: float


def _pinv(K: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(K, hermitian=True, rcond=PINV_CUTOFF)


def kernel_fit(gm: GramMatrix, y, lam: float, X=None) -> KernelModel:
    """Squared-loss fit: minimize (1/M)||K a - y||^2 + lam a^T K a,
    solved by a = (K + lam M I)^{-1} y.

    At lam = 0 with a rank-deficient K the solve falls back to the
    pseudoinverse; labels outside the range of K raise SingularSystem."""
    K = gm.K
    y = np.asarray(y, dtype=float)
    M = K.shape[0]
    if y.size != M:
        raise DimensionMismatch("labels do not match Gram size")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0:
        Kinv = _pinv(K)
        a = Kinv @ y
        if np.linalg.norm(K @ a - y) > 1e-6 * max(1.0, np.linalg.norm(y)):
            raise SingularSystem(
                "K is rank deficient and y lies outside its range"
            )
    else:
        a = np.linalg.solve(K + lam * M * np.eye(M), y)
    return KernelModel(a, list(X) if X is not None else None, gm.spec, lam)


def fit_objective(gm: GramMatrix, y, lam: float, a) -> float:
    K = gm.K
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    r = K @ a - y
    return float(r @ r / K.shape[0] + lam * a @ K @ a)


def predict(model: KernelModel, x) -> float:
    return float(sum(
        a * quantum_kernel(xm, x, model.spec)
        for a, xm in zip(model.alphas, model.X)
    ))


def model_complexity(K, y) -> float:
    """s_K = y^T K^{-1} y (pseudoinverse sense); nonnegative for PSD K."""
    K = K.K if isinstance(K, GramMatrix) else np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(y @ (_pinv(K) @ y))


def geometric_difference(K1, K2) -> float:
    """g12 = sqrt(|| sqrt(K2) K1^{-1} sqrt(K2) ||_inf), the spectral norm
    of the symmetric product; satisfies s_{K1} <= g12^2 s_{K2}."""
    K1 = K1.K if isinstance(K1, GramMatrix) else np.asarray(K1, dtype=float)
    K2 = K2.K if isinstance(K2, GramMatrix) else np.asarray(K2, dtype=float)
    w1 = np.linalg.eigvalsh(K1)
    if w1.min() < PINV_CUTOFF * w1.max():
        raise SingularMatrix("K1 is numerically singular")
    w2, V2 = np.linalg.eigh(K2)
    sq2 = (V2 * np.sqrt(np.clip(w2, 0, None))) @ V2.T
    mid = sq2 @ np.linalg.inv(K1) @ sq2
    return float(np.sqrt(np.linalg.eigvalsh((mid + mid.T) / 2).max()))


def effective_dimension(K, tolerance: float = 1e-10) -> int:
    """Number of eigenvalues above tolerance, d = rank(K)."""
    K = K.K if isinstance(K, GramMatrix) else np.asarray(K, dtype=float)
    return int(np.sum(np.linalg.eigvalsh(K) > tolerance))


# --- power of data: classical quadratic-feature regression --------------------

def quadratic_features(x) -> np.ndarray:
    """All products x_k x_l (flattened outer product) plus a bias term.

    For amplitude encoding, tr(O rho(x)) = x^dag O x is linear in these
    features, which is why such labels are easy for a classical model."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([[1.0], np.outer(x, x).ravel()])


def quadratic_feature_regression(X, y, reg: float = 0.0):
    """Least-squares fit of labels on quadratic features; returns a
    predictor function."""
    F = np.array([quadratic_features(x) for x in X])
    y = np.asarray(y, dtype=float)
    if reg:
        w = np.linalg.solve(F.T @ F + reg * np.eye(F.shape[1]), F.T @ y)
    else:
        w, *_ = np.linalg.lstsq(F, y, rcond=None)

    def f(x):
        return float(quadratic_features(x) @ w)

    return f
