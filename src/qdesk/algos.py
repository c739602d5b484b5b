"""Canonical circuit algorithms.

Bell preparation, teleportation, Deutsch-Jozsa, QFT, phase estimation with
its failure bound, Grover, DQC1 trace estimation, the swap/overlap test, and
QPE-based matrix multiplication / inversion plus LCU block encoding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simcore as sc
from .errors import (BadParameter, DimensionMismatch, _check_counts,
                     _check_hermitian)

# --- Bell states and teleportation ---------------------------------------

_BELL_VARIANTS = ("phi+", "phi-", "psi+", "psi-")


def bell_prepare(variant: str = "phi+") -> np.ndarray:
    """H on qubit 0, CNOT 0->1, then optional trailing X/Z."""
    if variant not in _BELL_VARIANTS:
        raise BadParameter(f"unknown Bell variant {variant!r}")
    psi = sc.basis_state(2)
    psi = sc.apply_gate(psi, sc.H, [0])
    psi = sc.apply_gate(psi, sc.CNOT, [0, 1])
    if variant in ("psi+", "psi-"):
        psi = sc.apply_gate(psi, sc.X, [1])
    if variant in ("phi-", "psi-"):
        psi = sc.apply_gate(psi, sc.Z, [0])
    return psi


def _teleport_premeasure(psi: np.ndarray) -> np.ndarray:
    """psi on qubit 0 and phi+ on qubits 1, 2, after Alice's CNOT 0 -> 1
    and H on 0: the state both teleport functions measure."""
    if psi.size != 2:
        raise DimensionMismatch("teleport expects a single-qubit state")
    state = np.kron(psi, bell_prepare("phi+"))
    state = sc.apply_gate(state, sc.CNOT, [0, 1])
    return sc.apply_gate(state, sc.H, [0])


def teleport(psi: np.ndarray, rng: np.random.Generator):
    """Teleport a single-qubit state through a shared phi+ pair.

    Qubit 0 holds psi; qubits 1,2 hold the Bell pair. Returns
    ((m1, m2), output single-qubit state).
    """
    state = _teleport_premeasure(psi)
    m1, state = sc.measure(state, 0, rng)
    m2, state = sc.measure(state, 1, rng)
    if m2:
        state = sc.apply_gate(state, sc.X, [2])
    if m1:
        state = sc.apply_gate(state, sc.Z, [2])
    # strip the measured (now definite) qubits
    out = state.reshape(2, 2, 2)[m1, m2]
    return (m1, m2), out / np.linalg.norm(out)


def teleport_branches(psi: np.ndarray):
    """Oracle for the X^m2 Z^m1 corrections that teleport applies: the four
    states of qubit 2 *before* correction, indexed by (m1, m2)."""
    t = _teleport_premeasure(psi).reshape(2, 2, 2)
    out = {}
    for m1 in (0, 1):
        for m2 in (0, 1):
            branch = t[m1, m2]
            out[(m1, m2)] = branch / np.linalg.norm(branch)
    return out


# --- oracles and Deutsch-Jozsa -------------------------------------------

def oracle_unitary(f, n: int) -> np.ndarray:
    """Bit oracle |x, y> -> |x, y ^ f(x)> as a permutation matrix."""
    dim = 2 ** (n + 1)
    U = np.zeros((dim, dim))
    for x in range(2**n):
        fx = int(f(x)) & 1
        for y in (0, 1):
            U[(x << 1) | (y ^ fx), (x << 1) | y] = 1.0
    return U


def apply_oracle(psi: np.ndarray, f, n: int) -> np.ndarray:
    """oracle_unitary(f, n) @ psi as one index gather: amplitude (x, y)
    of the result is amplitude (x, y ^ f(x)) of psi; f is evaluated once
    per x."""
    fx = np.fromiter((int(f(x)) & 1 for x in range(2**n)), dtype=np.intp,
                     count=2**n)
    return psi[np.arange(2 ** (n + 1)) ^ np.repeat(fx, 2)]


def deutsch_jozsa(n: int, f) -> str:
    """Exact constant-vs-balanced decision for a promised oracle."""
    psi = sc.basis_state(n + 1, 1)  # input |0..0>|1>
    for q in range(n + 1):
        psi = sc.apply_gate(psi, sc.H, [q])
    psi = apply_oracle(psi, f, n)
    for q in range(n):
        psi = sc.apply_gate(psi, sc.H, [q])
    # probability that the first n qubits read all zeros
    amp = psi.reshape(2**n, 2)[0]
    p0 = float(np.sum(np.abs(amp) ** 2))
    return "constant" if p0 > 0.5 else "balanced"


# --- QFT ------------------------------------------------------------------

def qft_matrix(n: int) -> np.ndarray:
    """DFT matrix F_jk = e^{2 pi i jk / 2^n} / 2^{n/2} (oracle form)."""
    dim = 2**n
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)


def qft_circuit(n: int) -> sc.Circuit:
    """H + controlled-phase ladder, then the bit-reversal swaps."""
    circ = sc.Circuit(n)
    for q in range(n):
        circ.add("H", [q])
        for k in range(2, n - q + 1):
            theta = 2 * np.pi / 2**k
            circ.add("CP", [q + k - 1, q], param=theta,
                     matrix=sc.controlled(sc.phase(theta)))
    for q in range(n // 2):
        circ.add("SWAP", [q, n - 1 - q])
    return circ


def qft_unitary(n: int) -> np.ndarray:
    return qft_circuit(n).unitary()


# --- phase estimation ------------------------------------------------------

@dataclass
class QPEResult:
    phase_estimate: float
    register_bits: str
    success_probability: float


def qpe_register_amplitudes(phi, n_anc: int) -> np.ndarray:
    """Exact ancilla amplitudes alpha_l after inverse QFT for eigenphase phi.

    alpha_l = 2^{-n} sum_k e^{2 pi i k (phi - l/2^n)}: the DFT of the phase
    ramp e^{2 pi i k phi}, one FFT over the last axis. phi is a float or an
    array of phases; the result has shape phi.shape + (2^n,).
    """
    dim = 2**n_anc
    ramp = np.exp(2j * np.pi * np.multiply.outer(phi, np.arange(dim)))
    return np.fft.fft(ramp, axis=-1) / dim


def qpe_ancilla_bits(t_bits: int, epsilon: float) -> int:
    """Ancillas for t_bits of the phase with failure probability epsilon."""
    if not 0 < epsilon < 1:
        raise BadParameter(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return t_bits + math.ceil(math.log2(2 + 1 / (2 * epsilon)))


def phase_estimate(U: np.ndarray, eigvec: np.ndarray, t_bits: int,
                   epsilon: float, rng: np.random.Generator) -> QPEResult:
    """Sample one run of phase estimation from the exact register law."""
    w = U @ eigvec
    phase = np.vdot(eigvec, w)
    if np.linalg.norm(w - phase * eigvec) > 1e-8:
        raise BadParameter("state is not an eigenvector of U")
    phi = float(np.angle(phase) / (2 * np.pi)) % 1.0
    n_anc = qpe_ancilla_bits(t_bits, epsilon)
    probs = np.abs(qpe_register_amplitudes(phi, n_anc)) ** 2
    probs /= probs.sum()
    m = int(rng.choice(probs.size, p=probs))
    bits = format(m, f"0{n_anc}b")
    return QPEResult(m / 2**n_anc, bits, float(probs[m]))


def qpe_circuit_distribution(U: np.ndarray, eigvec: np.ndarray,
                             n_anc: int) -> np.ndarray:
    """Register distribution from a full circuit simulation (cross-check
    of the closed-form amplitudes)."""
    n_sys = sc.n_qubits(eigvec.size)
    n = n_anc + n_sys
    psi = np.kron(sc.basis_state(n_anc), eigvec)
    for q in range(n_anc):
        psi = sc.apply_gate(psi, sc.H, [q])
    for q in range(n_anc):
        power = 2 ** (n_anc - 1 - q)
        Upow = np.linalg.matrix_power(U, power)
        psi = sc.apply_gate(psi, sc.controlled(Upow),
                            [q] + list(range(n_anc, n)))
    inv_qft = qft_unitary(n_anc).conj().T
    psi = sc.apply_gate(psi, inv_qft, list(range(n_anc)))
    return np.sum(np.abs(psi.reshape(2**n_anc, 2**n_sys)) ** 2, axis=1)


# --- Grover -----------------------------------------------------------------

def grover(f, n: int):
    """Grover search for the solutions of f on n qubits.

    Returns (R, closed-form success probability, simulated success
    probability, final state).
    """
    N = 2**n
    marked = np.array([bool(f(x)) for x in range(N)])
    M = int(marked.sum())
    if M == 0:
        raise BadParameter("oracle marks nothing")
    if M == N:
        raise BadParameter("oracle marks everything")
    theta = 2 * np.arcsin(np.sqrt(M / N))
    R = int(np.floor((np.pi / 4) * np.sqrt(N / M)))
    closed = float(np.sin((2 * R + 1) * theta / 2) ** 2)

    psi = np.full(N, 1 / np.sqrt(N), dtype=complex)
    s = psi.copy()
    for _ in range(R):
        psi = np.where(marked, -psi, psi)        # phase oracle
        psi = 2 * s * np.vdot(s, psi) - psi      # inversion about the mean
    simulated = float(np.sum(np.abs(psi[marked]) ** 2))
    return R, closed, simulated, psi


# --- DQC1 and swap test ------------------------------------------------------

def dqc1_trace(U: np.ndarray, shots: int, rng: np.random.Generator) -> complex:
    """One-clean-qubit estimate of tr U / 2^(n-1).

    <sigma_z> of the control qubit after a Hadamard test against the
    maximally mixed register gives the real part; the S^dag variant gives
    the imaginary part. Shots are drawn from the exact outcome law.
    """
    _check_counts(shots=shots)
    dim = U.shape[0]
    tr = np.trace(U) / dim
    est = []
    for part in (tr.real, tr.imag):
        p0 = (1 + part) / 2
        ones = rng.binomial(shots, 1 - np.clip(p0, 0, 1))
        est.append(1 - 2 * ones / shots)
    return complex(est[0], est[1])


def dqc1_exact_expectations(U: np.ndarray) -> complex:
    """Exact <sigma_z> + i<sigma_y-variant> from density-matrix simulation.

    Control in |+>, register maximally mixed, controlled-U, measure the
    control. Serves as the oracle for the shot-based estimator.
    """
    dim = U.shape[0]
    rho = np.kron(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
                  np.eye(dim) / dim)
    cu = sc.controlled(U)
    rho = cu @ rho @ cu.conj().T
    ctrl = np.trace(rho.reshape(2, dim, 2, dim), axis1=1, axis2=3)
    # without the closing Hadamard, <sx> = Re tr U / d and <sy> = Im tr U / d
    sx = np.trace(ctrl @ sc.X).real
    sy = np.trace(ctrl @ sc.Y).real
    return complex(sx, sy)


def overlap_test(x: np.ndarray, y: np.ndarray, shots: int,
                 rng: np.random.Generator) -> float:
    """Swap-test estimate of |<x|y>|^2: estimate = 2 P(0) - 1."""
    _check_counts(shots=shots)
    if x.size != y.size:
        raise DimensionMismatch("states differ in dimension")
    p0 = (1 + abs(np.vdot(x, y)) ** 2) / 2
    # |<x|y>|^2 of unit vectors can round to just above 1
    zeros = rng.binomial(shots, np.clip(p0, 0, 1))
    return 2 * zeros / shots - 1


def swap_test_circuit_p0(x: np.ndarray, y: np.ndarray) -> float:
    """Oracle for the law P(0) = (1 + |<x|y>|^2)/2 that overlap_test
    samples, from an explicit H / controlled-SWAP / H circuit."""
    n = sc.n_qubits(x.size)
    psi = np.kron(np.kron(sc.basis_state(1), x), y)
    psi = sc.apply_gate(psi, sc.H, [0])
    for q in range(n):
        cswap = sc.controlled(sc.SWAP)
        psi = sc.apply_gate(psi, cswap, [0, 1 + q, 1 + n + q])
    psi = sc.apply_gate(psi, sc.H, [0])
    return float(np.sum(np.abs(psi.reshape(2, -1)[0]) ** 2))


# --- QPE matrix protocols -----------------------------------------------------

def _qpe_eigen_filter(A: np.ndarray, x: np.ndarray, f, t_bits: int):
    """Shared engine for the QPE matrix protocols.

    QPE writes the eigenvalue register, an exact multiplexed rotation puts
    amplitude f(l/2^t) on the ancilla-1 branch, inverse QPE uncomputes, and
    we post-select ancilla 1 and register 0. In A's eigenbasis the whole
    pipeline reduces to the filter coefficient sum_l |alpha_l|^2 f(l/2^t)
    per eigencomponent. A must be Hermitian with eigenvalues in (0, 1), so
    that each eigenvalue is read as a phase without wrapping. Returns
    (state, p_acc, eigenvalues).
    """
    _check_hermitian(A, 1e-10, "protocol expects a Hermitian matrix")
    lam, V = np.linalg.eigh(A)
    if lam.min() <= 0 or lam.max() >= 1:
        raise BadParameter(f"eigenvalues must lie in (0, 1), got "
                           f"{lam.min()!r}..{lam.max()!r}")
    c = V.conj().T @ x
    dim = 2**t_bits
    probs = np.abs(qpe_register_amplitudes(lam, t_bits)) ** 2
    out_eig = c * (probs @ f(np.arange(dim) / dim))
    p_acc = float(np.sum(np.abs(out_eig) ** 2))
    if p_acc < 1e-12:
        raise BadParameter("acceptance probability vanishes")
    out = V @ out_eig
    return out / np.linalg.norm(out), p_acc, lam


def _phase_aligned_distance(out: np.ndarray, exact: np.ndarray) -> float:
    """|| out - e^{i phi} exact / ||exact|| || with the global phase phi
    that best aligns the normalised target with the state `out`."""
    exact = exact / np.linalg.norm(exact)
    return float(np.linalg.norm(out - exact * np.vdot(exact, out)
                                / abs(np.vdot(exact, out))))


def qpe_matrix_multiply(A: np.ndarray, x: np.ndarray, t_bits: int = 8):
    """Post-selected state proportional to A x, with p_acc.

    Eigenvalues of A must lie in (0, 1). Returns (state, p_acc,
    truncation_error) where the error is the distance to the exact
    A x / ||A x|| target.
    """
    out, p_acc, _ = _qpe_eigen_filter(A, x, lambda v: v, t_bits)
    return out, p_acc, _phase_aligned_distance(out, A @ x)


def qpe_matrix_invert(A: np.ndarray, x: np.ndarray, C: float,
                      t_bits: int = 8):
    """Post-selected state proportional to A^{-1} x, with p_acc.

    Eigenvalues of A must lie in (0, 1), and C must not exceed the smallest.
    """
    def f(v):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(v > 0, C / np.maximum(v, 1e-300), 0.0)
        return np.clip(out, 0.0, 1.0)

    out, p_acc, lam = _qpe_eigen_filter(A, x, f, t_bits)
    if lam.min() < 1e-14:
        raise BadParameter("A is singular")
    if C > lam.min() + 1e-12:
        raise BadParameter("C must not exceed the smallest eigenvalue")
    return out, p_acc, _phase_aligned_distance(out, np.linalg.solve(A, x))


def matrix_multiply_p_acc(A: np.ndarray, x: np.ndarray) -> float:
    """Closed form p_acc = sum_r lambda_r^2 |<v_r|x>|^2."""
    lam, V = np.linalg.eigh(A)
    c = np.abs(V.conj().T @ x) ** 2
    return float(np.sum(lam**2 * c))


def matrix_invert_p_acc(A: np.ndarray, x: np.ndarray, C: float) -> float:
    """Closed form p_acc = sum_r (C^2/lambda_r^2) |<v_r|x>|^2."""
    lam, V = np.linalg.eigh(A)
    c = np.abs(V.conj().T @ x) ** 2
    return float(np.sum((C**2 / lam**2) * c))


# --- LCU block encoding --------------------------------------------------------

def householder_prep(target: np.ndarray) -> np.ndarray:
    """Unitary mapping e_0 to `target` (unit vector) by a Householder
    reflection; deterministic completion of the Prep oracle."""
    dim = target.size
    # rotate the target so its first component is real nonnegative; the
    # reflection then maps e_0 exactly, and a global phase undoes the turn
    ph = 1.0 + 0j
    if abs(target[0]) > 1e-14:
        ph = target[0] / abs(target[0])
    t = target / ph
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1.0
    w = e0 - t
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return ph * np.eye(dim, dtype=complex)
    w = w / nw
    return ph * (np.eye(dim, dtype=complex) - 2.0 * np.outer(w, w.conj()))


def _lcu_parts(alphas, unitaries):
    """Prep unitary, select stack and alpha of A = sum alpha_k U_k.

    Prep maps e_0 to sqrt(alpha_k / alpha) on 2^a ancilla states; the
    (2^a, dim, dim) stack holds U_k, padded with identities for k >= L.
    """
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas <= 0):
        raise BadParameter("alphas must be positive")
    L = len(unitaries)
    dim = unitaries[0].shape[0]
    for U in unitaries:
        if U.shape != (dim, dim):
            raise DimensionMismatch("unitaries differ in dimension")
    A_dim = 2 ** max(1, math.ceil(math.log2(L)))
    alpha = alphas.sum()
    amps = np.zeros(A_dim)
    amps[:L] = np.sqrt(alphas / alpha)
    U = np.empty((A_dim, dim, dim), dtype=complex)
    U[:L] = unitaries
    U[L:] = np.eye(dim)
    return householder_prep(amps.astype(complex)), U, float(alpha)


def lcu_block_encode(alphas, unitaries):
    """Prep^dag Select Prep block encoding of A = sum alpha_i U_i.

    Returns (full unitary, alpha). The top-left dim x dim block of the
    result is A / alpha.

    With P the Prep unitary on A_dim = 2^a ancilla states and U_k the
    select blocks (identity for k >= L), block (i, j) of the result is
    sum_k conj(P_ki) P_kj U_k (Childs & Wiebe 2012). It is formed as one
    (A_dim x A_dim) by (A_dim x A_dim dim^2) product, A_dim^3 dim^2
    multiply-adds against 2 (A_dim dim)^3 for the dense Prep^dag Select
    Prep, with no kron factor or dense select; the peak memory is twice
    the output.
    """
    prep, U, alpha = _lcu_parts(alphas, unitaries)
    A_dim, dim = U.shape[:2]
    # T[k, a, j, b] = P_kj U_k[a, b]; summing conj(P_ki) T[k] over k gives
    # full[i dim + a, j dim + b]
    T = U[:, :, None, :] * prep[:, None, :, None]
    full = (prep.conj().T @ T.reshape(A_dim, -1)).reshape(A_dim * dim,
                                                           A_dim * dim)
    return full, alpha


def lcu_top_block(alphas, unitaries):
    """Top-left dim x dim block of `lcu_block_encode`, and alpha.

    Block (0, 0) is sum_k |P_k0|^2 U_k, so it needs only Prep's first
    column: one contraction of its squared magnitudes with the select
    stack, without the (2^a dim)^2 encoding.
    """
    prep, U, alpha = _lcu_parts(alphas, unitaries)
    return np.tensordot(np.abs(prep[:, 0]) ** 2, U, axes=1), alpha


def lcu_extract_block(full: np.ndarray, dim: int) -> np.ndarray:
    return full[:dim, :dim]
