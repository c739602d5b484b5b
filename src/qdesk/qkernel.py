"""Quantum kernels and the power-of-data diagnostics.

Kernels kappa(x, y) = tr(rho(x) rho(y)), read from the pure encoding states
of `encode`, Gram matrices, regularized kernel regression, and the
model-complexity / geometric-difference / effective-dimension quantities
used to compare quantum and classical kernel models.

All inverses are Moore-Penrose pseudoinverses with an eigenvalue cutoff of
1e-10 times the largest eigenvalue.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encode
from .errors import BadParameter, DimensionMismatch, _check_hermitian

PINV_CUTOFF = 1e-10


def encoding_state(spec: encode.EncodingSpec, x) -> np.ndarray:
    """The encoding state |psi(x)> of a single data point."""
    if spec.kind == "basis":
        width = spec.params["width"]
        bits = encode.bits_of(int(x), width) if np.isscalar(x) else x
        return encode.basis_encode([bits])
    if spec.kind == "amplitude":
        v = np.asarray(x, dtype=complex)
        return v / np.linalg.norm(v)
    if spec.kind == "phase":
        return encode.phase_state(x)
    raise BadParameter(f"no state encoding for kind {spec.kind!r}")


def quantum_kernel(x, y, spec: encode.EncodingSpec) -> float:
    """kappa(x, y) = tr(rho(x) rho(y))^r, with r = spec.params["copies"]
    (default 1).

    Closed forms: basis encoding gives the delta kernel, amplitude
    encoding gives |x^dag y|^{2r} for unit x and y, phase encoding gives
    prod cos^2(x_i - y_i)^r."""
    return _overlap(encoding_state(spec, x), encoding_state(spec, y), spec)


def _overlap(psi_x: np.ndarray, psi_y: np.ndarray,
             spec: encode.EncodingSpec) -> float:
    """|<psi_x|psi_y>|^{2r}: for pure states this is tr(rho sigma)^r, which
    equals tr(rho^{(x)r} sigma^{(x)r})."""
    r = spec.params.get("copies", 1)
    return float(abs(np.vdot(psi_x, psi_y)) ** (2 * r))


@dataclass
class GramMatrix:
    K: np.ndarray
    spec: encode.EncodingSpec | None = None

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        _check_hermitian(K, 1e-10, "Gram matrix not symmetric")
        if not K.size:
            raise BadParameter("Gram matrix of no data points")
        if np.linalg.eigvalsh(K).min() < -1e-8:
            raise BadParameter("Gram matrix not positive semidefinite")
        self.K = K


def gram(dataset, spec: encode.EncodingSpec) -> GramMatrix:
    """K[i, j] = quantum_kernel(dataset[i], dataset[j], spec), bit for bit.
    Each encoding state is built once, not once per pair."""
    states = [encoding_state(spec, x) for x in dataset]
    M = len(states)
    K = np.empty((M, M))
    for i in range(M):
        for j in range(i, M):
            K[i, j] = K[j, i] = _overlap(states[i], states[j], spec)
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
    pseudoinverse; labels outside the range of K raise BadParameter."""
    K = gm.K
    y = np.asarray(y, dtype=float)
    M = K.shape[0]
    if y.size != M:
        raise DimensionMismatch("labels do not match Gram size")
    if lam < 0:
        raise BadParameter("lambda must be nonnegative")
    if lam == 0:
        Kinv = _pinv(K)
        a = Kinv @ y
        if np.linalg.norm(K @ a - y) > 1e-6 * max(1.0, np.linalg.norm(y)):
            raise BadParameter(
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
        raise BadParameter("K1 is numerically singular")
    w2, V2 = np.linalg.eigh(K2)
    sq2 = (V2 * np.sqrt(np.clip(w2, 0, None))) @ V2.T
    mid = sq2 @ np.linalg.inv(K1) @ sq2
    return float(np.sqrt(np.linalg.eigvalsh((mid + mid.T) / 2).max()))


def effective_dimension(K) -> int:
    """d = rank(K), counting the eigenvalues that _pinv keeps."""
    K = K.K if isinstance(K, GramMatrix) else np.asarray(K, dtype=float)
    w = np.abs(np.linalg.eigvalsh(K))
    return int(np.sum(w > PINV_CUTOFF * w.max()))


# --- power of data: classical quadratic-feature regression --------------------

def quadratic_features(x) -> np.ndarray:
    """All products x_k x_l (flattened outer product) plus a bias term.

    For amplitude encoding, tr(O rho(x)) = x^dag O x is linear in these
    features, which is why such labels are easy for a classical model."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([[1.0], np.outer(x, x).ravel()])


def quadratic_feature_regression(X, y):
    """Least-squares fit of labels on quadratic features; returns a
    predictor function."""
    F = np.array([quadratic_features(x) for x in X])
    y = np.asarray(y, dtype=float)
    w, *_ = np.linalg.lstsq(F, y, rcond=None)

    def f(x):
        return float(quadratic_features(x) @ w)

    return f
