"""Classical and quantum probability primitives.

Shannon and relative entropies, the von Neumann entropy, the Schmidt
decomposition and the partial trace that checks it.

Log bases: entropies are in bits (base 2; shannon_entropy takes another
base).
"""
from __future__ import annotations

import numpy as np

from .errors import (BadParameter, DimensionMismatch, TargetOutOfRange,
                     _check_hermitian)

EIG_CLIP = 1e-14  # spectral floor before taking logs


def check_prob_vector(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all(p >= -1e-12):  # so that a NaN fails it too
        raise BadParameter("negative probability component")
    if not abs(p.sum() - 1.0) <= 1e-12:
        raise BadParameter(f"probabilities sum to {p.sum()}, not 1")
    return np.clip(p, 0.0, None)


def check_density_matrix(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    _check_hermitian(rho, 1e-12, "density matrix not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise BadParameter("density matrix trace != 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise BadParameter("density matrix not PSD")
    return rho


def _log(x: np.ndarray, base: float) -> np.ndarray:
    return np.log(x) / np.log(base) if base != np.e else np.log(x)


def shannon_entropy(p, base: float = 2.0) -> float:
    """-sum p_i log p_i with 0 log 0 := 0."""
    p = check_prob_vector(p)
    p = p[p > 0]
    # 0.0 - sum, not -sum: a certain outcome gives +0.0, never "-0.0"
    return float(0.0 - np.sum(p * _log(p, base)))


def relative_entropy(p, q) -> float:
    """S(p||q) = sum p_i log2(p_i / q_i)."""
    p, q = check_prob_vector(p), check_prob_vector(q)
    if p.shape != q.shape:
        raise DimensionMismatch("p and q differ in length")
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise BadParameter("support(p) not contained in support(q)")
    return float(np.sum(p[mask] * _log(p[mask] / q[mask], 2.0)))


def von_neumann_entropy(rho) -> float:
    rho = check_density_matrix(rho)
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > EIG_CLIP]
    return float(0.0 - np.sum(lam * _log(lam, 2.0)))  # +0.0 when pure


def _svd_cut(M: np.ndarray, Dmax: int | None = None):
    """(U, s, Vh) of M, keeping the singular values above 1e-14 times the
    largest: at least one, at most Dmax. The largest-magnitude component
    of each left vector is made real positive, its phase moved onto the
    right vector, so a cut is reproducible."""
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    keep = max(int(np.sum(s > s[:1] * 1e-14)), 1)
    if Dmax is not None:
        keep = min(keep, Dmax)
    U, s, Vh = U[:, :keep], s[:keep], Vh[:keep]
    for k in range(U.shape[1]):
        col = U[:, k]
        j = int(np.argmax(np.abs(col)))
        if abs(col[j]) > 0:
            ph = col[j] / abs(col[j])
            U[:, k] *= ph.conjugate()
            Vh[k, :] *= ph
    return U, s, Vh


def schmidt_decompose(psi, split: tuple[int, int]):
    """Schmidt form of a bipartite pure state, by the cut of
    tnet.mps_from_tensor.

    Returns (lambdas, left_basis, right_basis) with lambdas descending and
    summing to 1, bases as columns, and the largest-magnitude component
    of each left vector real positive. A state whose norm is off 1 by
    more than 1e-10 raises BadParameter.
    """
    n_left, n_right = split
    psi = np.asarray(psi, dtype=complex)
    if psi.size != 2 ** (n_left + n_right):
        raise DimensionMismatch(
            f"state of dim {psi.size} does not split as {split}"
        )
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
        raise BadParameter(f"state has norm {np.linalg.norm(psi)}, not 1")
    U, s, Vh = _svd_cut(psi.reshape(2**n_left, 2**n_right))
    return s**2, U, Vh.T


def schmidt_reconstruct(lambdas, left, right) -> np.ndarray:
    """Oracle for schmidt_decompose: sum_k sqrt(lambda_k) |u_k>|v_k>."""
    out = np.zeros(left.shape[0] * right.shape[0], dtype=complex)
    for lam, u, v in zip(lambdas, left.T, right.T):
        out += np.sqrt(lam) * np.kron(u, v)
    return out


def partial_trace(rho, keep, dims) -> np.ndarray:
    """Oracle for schmidt_decompose: trace out every subsystem not listed
    in `keep`.

    dims: tuple of subsystem dimensions, leftmost factor first. A `keep`
    entry that is not a distinct integer in 0..len(dims) - 1, or is a
    bool, raises TargetOutOfRange.
    """
    dims = tuple(dims)
    keep = list(keep)
    if len(set(keep)) != len(keep) or not all(
            isinstance(i, (int, np.integer)) and not isinstance(i, bool)
            and 0 <= i < len(dims)
            for i in keep):
        raise TargetOutOfRange(f"keep {keep} is not a list of distinct "
                               f"subsystems in 0..{len(dims) - 1}")
    keep.sort()
    rho = np.asarray(rho, dtype=complex)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise DimensionMismatch("dims inconsistent with matrix size")
    k = len(dims)
    t = rho.reshape(dims + dims)
    drop = [i for i in range(k) if i not in keep]
    for off, i in enumerate(drop):
        ax = i - off
        t = np.trace(t, axis1=ax, axis2=ax + (k - off))
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)
