"""Classical and quantum probability primitives.

Entropies, majorization, information geometry, density-matrix functionals,
Schmidt decomposition and the measurement collapse rule.

Log bases: entropies are in bits (base 2; shannon_entropy takes another
base); the qubit relative-entropy closed form is stated in nats, so
quantum relative entropy is in nats.
"""
from __future__ import annotations

import numpy as np

from . import simcore as sc
from .errors import (BadParameter, DimensionMismatch, _check_close,
                     _check_hermitian)

EIG_CLIP = 1e-14  # spectral floor before taking logs
MAJ_TOL = 1e-12


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


def majorizes(x, y, tol: float = MAJ_TOL) -> bool:
    """True iff every prefix sum of sorted-descending x dominates y's.

    Requires equal totals up to `tol` (the partial order is defined on
    vectors of equal sum); ties count as satisfied.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch("vectors differ in length")
    if abs(x.sum() - y.sum()) > max(tol, tol * abs(x.sum())):
        return False
    cx = np.cumsum(np.sort(x)[::-1])
    cy = np.cumsum(np.sort(y)[::-1])
    return bool(np.all(cx >= cy - tol))


def majorization_compare(x, y) -> str:
    """Three-way check: 'first', 'second', 'both' (equal up to sorting),
    or 'incomparable'."""
    xy, yx = majorizes(x, y), majorizes(y, x)
    if xy and yx:
        return "both"
    if xy:
        return "first"
    if yx:
        return "second"
    return "incomparable"


def bhattacharyya_angle(p, q) -> float:
    """arccos sum sqrt(p_i q_i), the Fisher-Rao geodesic distance."""
    p, q = check_prob_vector(p), check_prob_vector(q)
    if p.shape != q.shape:
        raise DimensionMismatch("p and q differ in length")
    return float(np.arccos(np.clip(np.sum(np.sqrt(p * q)), -1.0, 1.0)))


def von_neumann_entropy(rho) -> float:
    rho = check_density_matrix(rho)
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > EIG_CLIP]
    return float(0.0 - np.sum(lam * _log(lam, 2.0)))  # +0.0 when pure


def quantum_relative_entropy(rho, eta) -> float:
    """D(rho||eta) = tr rho (ln rho - ln eta), in nats."""
    rho, eta = check_density_matrix(rho), check_density_matrix(eta)
    if rho.shape != eta.shape:
        raise DimensionMismatch("states differ in dimension")
    wr, Vr = np.linalg.eigh(rho)
    we, Ve = np.linalg.eigh(eta)
    # support check: rho must vanish on the null space of eta
    null = Ve[:, we <= EIG_CLIP]
    if null.size and np.linalg.norm(null.conj().T @ rho @ null) > 1e-10:
        raise BadParameter("support(rho) not contained in support(eta)")
    wr_c = np.clip(wr, EIG_CLIP, None)
    we_c = np.clip(we, EIG_CLIP, None)
    log_rho = (Vr * np.log(wr_c)) @ Vr.conj().T
    log_eta = (Ve * np.log(we_c)) @ Ve.conj().T
    val = np.trace(rho @ (log_rho - log_eta)).real
    return float(max(val, 0.0))


def qubit_relative_entropy_closed_form(tau_a, tau_b) -> float:
    """Oracle for quantum_relative_entropy, in nats, for Bloch vectors tau.

    D = 1/2 ln((1-a^2)/(1-b^2)) + (a/2) ln((1+a)/(1-a))
        - (tau_a . tau_b / (2 b)) ln((1+b)/(1-b)),
    with a = |tau_a|, b = |tau_b|.
    """
    tau_a, tau_b = np.asarray(tau_a, float), np.asarray(tau_b, float)
    a, b = np.linalg.norm(tau_a), np.linalg.norm(tau_b)
    if a > 1 or b >= 1:
        raise BadParameter("closed form needs |tau_b| < 1")
    out = 0.5 * np.log((1 - a**2) / (1 - b**2))
    if a > 0:
        out += (a / 2) * np.log((1 + a) / (1 - a))
    if b > 0:
        out -= (np.dot(tau_a, tau_b) / (2 * b)) * np.log((1 + b) / (1 - b))
    return float(out)


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
    """Trace out every subsystem not listed in `keep`.

    dims: tuple of subsystem dimensions, leftmost factor first.
    """
    dims = tuple(dims)
    keep = sorted(keep)
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


def measurement_update(rho, Pi):
    """Collapse rule: (prob, Pi rho Pi / prob)."""
    rho = check_density_matrix(rho)
    Pi = np.asarray(Pi, dtype=complex)
    _check_close(Pi @ Pi, Pi, 1e-10, "Pi is not a projector")
    prob = float(np.trace(Pi @ rho @ Pi).real)
    if prob < 1e-14:
        raise BadParameter("measurement branch has zero probability")
    return prob, Pi @ rho @ Pi / prob


def bloch_to_density(tau) -> np.ndarray:
    """rho = (I + tau . sigma)/2."""
    tau = np.asarray(tau, dtype=float)
    if np.dot(tau, tau) > 1.0 + 1e-12:
        raise BadParameter(f"|tau| = {np.linalg.norm(tau)} > 1")
    return (np.eye(2, dtype=complex)
            + sum(t * s for t, s in zip(tau, (sc.X, sc.Y, sc.Z)))) / 2


def density_to_bloch(rho) -> np.ndarray:
    """Oracle for bloch_to_density: tau_i = tr(rho sigma_i)."""
    rho = check_density_matrix(rho)
    return np.array([np.trace(rho @ s).real for s in (sc.X, sc.Y, sc.Z)])


def sic_qubit_povm():
    """The four tetrahedral qubit projectors; (1/2) sum Pi_j = I and
    tr Pi_i Pi_j = (2 delta_ij + 1)/3."""
    kets = [np.array([1.0, 0.0], dtype=complex)]
    for k in (2, 3, 4):
        kets.append(
            np.array(
                [1 / np.sqrt(3),
                 np.sqrt(2 / 3) * np.exp(2j * np.pi * (k - 2) / 3)]
            )
        )
    return [np.outer(v, v.conj()) for v in kets]
