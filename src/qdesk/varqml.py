"""Variational quantum algorithms.

Parameterized circuits, exact and stochastic parameter-shift gradients, VQE,
QAOA with Ising/QUBO mappings (max-cut, QBoost), Gibbs-state constructions,
barren-plateau experiments, and adiabatic dynamics (Landau-Zener sweeps and
schedule following by a fourth-order Magnus propagator).

Sign convention: every parameterized layer is U(theta) = e^{-i theta G} with
Hermitian generator G. The stochastic shift rule below is stated for this
convention and is validated against finite differences in the tests.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import simcore as sc
from .errors import (BadParameter, DimensionMismatch, IntegratorDiverged,
                     TargetOutOfRange, _check_close, _check_counts,
                     _check_hermitian)


@dataclass
class Layer:
    """One circuit layer: optional fixed unitary, then e^{-i theta G}."""

    generator: list  # [(pauli label, real coeff), ...]
    fixed: np.ndarray | None = None


_ROW_BUDGET = 2**20  # amplitudes cost_expectation holds at once


@dataclass
class ParamCircuit:
    n: int
    layers: list[Layer] = field(default_factory=list)

    @property
    def n_params(self) -> int:
        return len(self.layers)

    def state(self, theta, psi0=None) -> np.ndarray:
        """psi(theta) from psi0 (default |0..0>): shape (2^n,) for one angle
        row (P,), (B, 2^n) for a (B, P) batch. Each multi-term generator
        V diag(w) V^dag is diagonalised once, and every row takes it."""
        rows = _angle_rows(theta, self.n_params)
        psi = sc.basis_state(self.n) if psi0 is None else np.asarray(
            psi0, dtype=complex)
        if psi.shape != (2**self.n,):
            raise DimensionMismatch(f"psi0 of shape {psi.shape}, n = {self.n}")
        psi = np.repeat(psi[None], len(rows), axis=0)
        for th, layer in zip(rows.T, self.layers):
            if layer.fixed is not None:
                psi = psi @ layer.fixed.T
            if len(layer.generator) == 1:  # e^{-iaP} = cos a - i sin a P
                label, c = layer.generator[0]
                _check_close(c, np.conj(c), 1e-10,
                             f"coefficient {c!r} is not real")
                a = (np.real(c) * th)[:, None]
                psi = np.cos(a) * psi - 1j * np.sin(a) * sc.apply_pauli(
                    psi, label)
            else:
                G = sc.pauli_reconstruct(layer.generator, self.n)
                _check_hermitian(G, 1e-10, "generator is not Hermitian")
                w, V = np.linalg.eigh(G)
                psi = ((psi @ V.conj()) * np.exp(-1j * th[:, None] * w)) @ V.T
        return psi if np.ndim(theta) == 2 else psi[0]


def _angle_rows(theta, n_params: int) -> np.ndarray:
    """theta, one angle row (P,) or a batch (B, P), as float rows (B, P)."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != n_params:
        raise DimensionMismatch(f"angles {theta.shape} for {n_params} layers")
    return theta.reshape(-1, n_params)


def _row_differences(values, theta, shifts) -> np.ndarray:
    """values(theta + s_i e_i) - values(theta - s_i e_i) for each i, for the
    shifts s_i (or one scalar shift). `values` maps (R, P) rows to R values
    and is called once, on the 2P rows (rows 2i and 2i + 1 shift i)."""
    theta = np.asarray(theta, dtype=float)
    rows = np.repeat(theta[None], 2 * theta.size, axis=0)
    i = np.arange(theta.size)
    rows[2 * i, i] += shifts
    rows[2 * i + 1, i] -= shifts
    vals = values(rows)
    return vals[0::2] - vals[1::2]


def cost_expectation(circ: ParamCircuit, theta, O,
                     psi0=None) -> float | np.ndarray:
    """C(theta) = <psi(theta)| O |psi(theta)>: a float for one angle row,
    (B,) for a (B, P) batch, one state call per _ROW_BUDGET amplitudes."""
    O = np.asarray(O, dtype=complex)
    dim = 2**circ.n
    if O.shape != (dim, dim):
        raise DimensionMismatch(f"observable of shape {O.shape}, n = {circ.n}")
    rows = _angle_rows(theta, circ.n_params)
    vals, step = np.empty(len(rows)), max(1, _ROW_BUDGET // dim)
    for k in range(0, len(rows), step):
        psi = circ.state(rows[k:k + step], psi0)
        vals[k:k + step] = np.einsum("bi,bi->b", psi.conj(), psi @ O.T).real
    return vals if np.ndim(theta) == 2 else float(vals[0])


def parameter_shift_gradient(circ: ParamCircuit, theta, O,
                             psi0=None) -> np.ndarray:
    """Exact gradient via the +-pi/4 shift rule.

    Each layer generator must be a single Pauli string c*P (P^2 = I); the
    shift is applied in the rescaled variable c*theta. The 2P shifted rows
    are evaluated in one call."""
    if any(len(layer.generator) != 1 for layer in circ.layers):
        raise BadParameter(
            "multi-term generator: use stochastic_parameter_shift")
    c = np.real([layer.generator[0][1] for layer in circ.layers]).astype(float)
    live = np.abs(c) >= 1e-14
    shifts = np.pi / (4 * np.where(live, c, 1.0))
    diff = _row_differences(
        lambda rows: cost_expectation(circ, rows, O, psi0), theta, shifts)
    return np.where(live, c * diff, 0.0)


def finite_difference_gradient(fn, theta, step: float = 1e-5) -> np.ndarray:
    """Central differences, one row per fn call: the oracle for
    _row_differences(values, theta, step) / (2 * step)."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (fn(up) - fn(dn)) / (2 * step)
    return grad


@dataclass
class GradientEstimate:
    value: float
    stderr: float
    samples: int


def _shift_integrand(circ: ParamCircuit, theta, O, psi0, t: int,
                     label: str, s):
    """g(s) = C_+(s) - C_-(s): the cost with layer t's e^{-iX},
    X = theta_t G_t, replaced by e^{-i s X} e^{-+i pi/4 V} e^{-i (1-s) X},
    V the Pauli string `label`. Layer t is split into three layers, the
    first carrying t's fixed gate. An array of s is one evaluation."""
    if isinstance(t, bool) or not (isinstance(t, numbers.Integral)
                                   and 0 <= t < circ.n_params):
        raise TargetOutOfRange(
            f"layer index t = {t!r} outside 0..{circ.n_params - 1}")
    layer, th = circ.layers[t], np.asarray(theta, dtype=float)
    split = ParamCircuit(circ.n, circ.layers[:t] + [
        layer, Layer([(label, 1.0)]), Layer(layer.generator)]
        + circ.layers[t + 1:])
    s2 = np.repeat(np.asarray(s, dtype=float), 2)  # s_i: rows 2i, 2i + 1
    rows = np.repeat(np.insert(th, t, [0.0, 0.0])[None], s2.size, axis=0)
    rows[:, t:t + 3] = np.stack([(1 - s2) * th[t], np.resize(
        [np.pi / 4, -np.pi / 4], s2.size), s2 * th[t]], axis=1)
    vals = cost_expectation(split, rows, O, psi0)
    g = vals[0::2] - vals[1::2]
    return g if np.ndim(s) else float(g[0])


def stochastic_parameter_shift(circ: ParamCircuit, t: int, label: str,
                               theta, O, psi0, samples: int,
                               rng: np.random.Generator) -> GradientEstimate:
    """Monte-Carlo estimate of dC/dx_{t,label}.

    x_{t,label} is the coefficient of the Pauli string `label` in the layer
    generator X_t = theta_t * G_t. For s ~ U(0,1) the integrand
    g(s) = C_+(s) - C_-(s) averages to the derivative.
    """
    _check_counts(samples=samples)
    g = _shift_integrand(circ, theta, O, psi0, t, label, rng.random(samples))
    stderr = g.std(ddof=1) / np.sqrt(samples) if samples > 1 else 0.0
    return GradientEstimate(float(g.mean()), float(stderr), samples)


def exact_x_gradient(circ: ParamCircuit, t: int, label: str, theta,
                     O) -> float:
    """Deterministic dC/dx_{t,label} from |0..0>: 64-point Gauss-Legendre
    quadrature of the shift-rule integrand (the stochastic rule's oracle)."""
    nodes, weights = np.polynomial.legendre.leggauss(64)  # on [-1, 1]
    g = _shift_integrand(circ, theta, O, None, t, label, (nodes + 1) / 2)
    return float(weights @ g) / 2


# --- VQE ---------------------------------------------------------------------

def gradient_descent(fn, grad_fn, theta0, lr: float = 0.1, steps: int = 200):
    """Plain gradient descent: `steps` updates theta -= lr * grad. It
    evaluates fn one row at a time, after every step, and returns that
    history; the oracle for _descend."""
    theta = np.asarray(theta0, dtype=float).copy()
    history = [fn(theta)]
    for _ in range(steps):
        theta = theta - lr * grad_fn(theta)
        history.append(fn(theta))
    return theta, history


def _descend(values, grad_fn, theta0, lr: float, steps: int):
    """gradient_descent's updates, for `values`, which maps (R, P) rows to R
    values. Returns (theta, its value); no value is evaluated on the way."""
    theta = np.asarray(theta0, dtype=float).copy()
    for _ in range(steps):
        theta = theta - lr * grad_fn(theta)
    return theta, float(values(theta[None])[0])


def vqe(H, circ: ParamCircuit, theta0=None, lr: float = 0.1,
        steps: int = 300, rng: np.random.Generator | None = None,
        psi0=None):
    """Minimize <psi(theta)|H|psi(theta)> by gradient descent: the shift
    rule when every layer has one term, else central differences at step
    1e-5. Each step evaluates its rows in one batch."""
    H = np.asarray(H, dtype=complex)
    if theta0 is None:
        rng = rng or np.random.default_rng()
        theta0 = rng.uniform(-np.pi, np.pi, circ.n_params)

    def f(rows):
        return cost_expectation(circ, rows, H, psi0)

    if all(len(layer.generator) == 1 for layer in circ.layers):
        def g(th):
            return parameter_shift_gradient(circ, th, H, psi0)
    else:
        def g(th):
            return _row_differences(f, th, 1e-5) / (2 * 1e-5)

    return _descend(f, g, theta0, lr, steps)


# --- Ising / QUBO -------------------------------------------------------------

@dataclass
class IsingModel:
    """H = sum_{i<j} J_ij z_i z_j + sum_i h_i z_i + const, z in {-1, +1},
    with optional transverse fields c (sigma^x coefficients)."""

    J: dict
    h: np.ndarray
    const: float = 0.0
    c: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.h)

    def energy(self, z) -> float:
        z = np.asarray(z, dtype=float)
        e = self.const + float(np.dot(self.h, z))
        for (i, j), Jij in self.J.items():
            e += Jij * z[i] * z[j]
        return e

    def diagonal(self, include_const: bool = True) -> np.ndarray:
        """Energy of every basis state: index x has spins z = 1 - 2 x_q,
        qubit 0 the most significant bit."""
        n = self.n
        idx = np.arange(2**n)
        z = 1 - 2 * ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1)
        diag = np.zeros(2**n)
        for (i, j), Jij in self.J.items():
            diag += Jij * z[:, i] * z[:, j]
        for i, hi in enumerate(self.h):
            if hi:
                diag += hi * z[:, i]
        if include_const:
            diag += self.const
        return diag

    def hamiltonian(self, include_const: bool = True) -> np.ndarray:
        Hm = np.diag(self.diagonal(include_const)).astype(complex)
        if self.c is not None:
            Hm += sc.pauli_reconstruct(
                [("I" * i + "X" + "I" * (self.n - 1 - i), ci)
                 for i, ci in enumerate(self.c)], self.n)
        return Hm


def spins_from_bits(x) -> np.ndarray:
    """x in {0,1} -> z in {-1,+1} via z = 1 - 2x."""
    return 1 - 2 * np.asarray(x, dtype=float)


def maxcut_to_ising(edges, n: int | None = None) -> IsingModel:
    """Ising model whose energy on spins z equals minus the cut size.

    cut(x) = sum_edges [x_i != x_j] = sum (1 - z_i z_j)/2, so
    E(z) = sum (z_i z_j - 1)/2 = -cut.
    """
    edges = [tuple(sorted(e)) for e in edges]
    if n is None:
        n = max((max(e) for e in edges), default=-1) + 1
    J = {}
    for e in edges:
        J[e] = J.get(e, 0.0) + 0.5
    return IsingModel(J, np.zeros(n), const=-len(edges) / 2)


def cut_size(edges, x) -> int:
    return sum(1 for i, j in edges if x[i] != x[j])


def qubo_to_ising(Q, b=None) -> IsingModel:
    """Map f(x) = x^T Q x + b.x over x in {0,1} to an Ising energy over
    z = 1 - 2x; the two agree on every assignment."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    Qs = (Q + Q.T) / 2
    J = {}
    h = np.zeros(n)
    const = 0.0
    # x_i = (1 - z_i)/2
    for i in range(n):
        for j in range(n):
            q = Qs[i, j]
            if q == 0.0:
                continue
            if i == j:
                # x_i^2 = x_i = (1 - z_i)/2
                const += q / 2
                h[i] -= q / 2
            else:
                const += q / 4
                h[i] -= q / 4
                h[j] -= q / 4
                key = (min(i, j), max(i, j))
                J[key] = J.get(key, 0.0) + q / 4
    for i in range(n):
        const += b[i] / 2
        h[i] -= b[i] / 2
    J = {k: v for k, v in J.items() if v != 0.0}
    return IsingModel(J, h, const=const)


def qubo_energy(Q, b, x) -> float:
    x = np.asarray(x, dtype=float)
    b = np.zeros(len(x)) if b is None else np.asarray(b, dtype=float)
    return float(x @ np.asarray(Q, dtype=float) @ x + b @ x)


# --- QAOA ---------------------------------------------------------------------

def qaoa_state(model: IsingModel, gammas, betas) -> np.ndarray:
    """|psi> = prod_j e^{-i beta_j H0} e^{-i gamma_j H1} |+...+> with the
    sigma^x mixer H0 = sum sigma^x_i."""
    return _qaoa_state(model.n, model.diagonal(include_const=False),
                       gammas, betas)


def _qaoa_state(n: int, diag, gammas, betas) -> np.ndarray:
    """qaoa_state from the precomputed phase diagonal (no constant), for
    angle arrays of shape (..., p): one state per row, shape (..., 2^n).
    The rows pass each layer together, one mixer gate per row."""
    G = np.asarray(gammas, dtype=float)
    B = np.asarray(betas, dtype=float)
    if G.shape != B.shape:
        raise DimensionMismatch(
            f"gammas of shape {G.shape} and betas of shape {B.shape}")
    lead, p = G.shape[:-1], G.shape[-1]
    G, B = G.reshape(-1, p), B.reshape(-1, p)
    psi = np.full((len(G), 2**n), 1 / np.sqrt(2**n), dtype=complex)
    for j in range(p):
        psi = np.exp(-1j * G[:, j, None] * diag) * psi
        # e^{-i b X} factorizes per qubit: sc.rx(2 b) per row
        mixer = sc.rx(2 * B[:, j])
        for q in range(n):
            psi = sc.apply_gate(psi, mixer, [q])
    return psi.reshape(lead + (2**n,))


def qaoa(model: IsingModel, p: int, rng: np.random.Generator,
         restarts: int = 8, steps: int = 250):
    """Optimize QAOA angles by multistart gradient descent, step 0.05.

    Returns (angles, best bitstring, approximation ratio) where the ratio
    compares the expected energy against the brute-force optimum. p and
    restarts must be integers >= 1.
    """
    _check_counts(p=p, restarts=restarts)
    n = model.n
    # built once: every state below reads the same energy diagonal
    diag_phase = model.diagonal(include_const=False)
    diag_e = diag_phase + model.const
    e_min = diag_e.min()
    e_max = diag_e.max()

    def energies(rows):
        psi = _qaoa_state(n, diag_phase, rows[:, :p], rows[:, p:])
        return np.sum(np.abs(psi) ** 2 * diag_e, axis=-1)

    def grad(a):
        return _row_differences(energies, a, 1e-6) / (2 * 1e-6)

    best_angles, best_val = None, np.inf
    for _ in range(restarts):
        angles0 = rng.uniform(0, np.pi, 2 * p)
        angles, val = _descend(energies, grad, angles0, 0.05, steps)
        if val < best_val:
            best_val, best_angles = val, angles
    psi = _qaoa_state(n, diag_phase, best_angles[:p], best_angles[p:])
    probs = np.abs(psi) ** 2
    best_idx = int(np.argmax(probs))
    bits = tuple((best_idx >> (n - 1 - q)) & 1 for q in range(n))
    # ratio in [0, 1]: fraction of the optimum achieved by the mean energy
    ratio = (e_max - best_val) / (e_max - e_min) if e_max > e_min else 1.0
    return best_angles, bits, float(ratio)


# --- QBoost ---------------------------------------------------------------------

def qboost_objective(predictions, labels, lam: float, bits: int = 3):
    """QUBO for regularized ensemble MSE with binary-fraction weights.

    predictions: K x N array of weak-learner outputs in {-1, +1};
    w_k = sum_b q_{k,b} 2^{-b} (b = 1..bits). The loss is
    (1/N) sum_i (sum_k w_k h_k(x_i) - y_i)^2 + lam * sum_{k,b} q_{k,b}.
    Returns (Q, const) with qubo_energy(Q, None, q) + const equal to the
    loss on every assignment.
    """
    Hk = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    K, N = Hk.shape
    scale = np.array([2.0 ** -(b + 1) for b in range(bits)])
    nv = K * bits
    A = np.zeros((nv, K))  # q-vector -> w-vector map
    for k in range(K):
        A[k * bits:(k + 1) * bits, k] = scale
    G = (Hk @ Hk.T) / N      # K x K Gram of learners
    c = (Hk @ y) / N         # K correlation with labels
    Q = A @ G @ A.T
    lin = -2 * (A @ c) + lam
    Q[np.diag_indices(nv)] += lin  # q^2 = q for binaries
    const = float(y @ y) / N
    return Q, const


def qboost_loss(predictions, labels, q_bits, lam: float, bits: int = 3):
    """Direct evaluation of the regularized MSE (QUBO oracle)."""
    Hk = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    K, N = Hk.shape
    q = np.asarray(q_bits, dtype=float).reshape(K, bits)
    w = q @ np.array([2.0 ** -(b + 1) for b in range(bits)])
    resid = w @ Hk - y
    return float(resid @ resid / N + lam * q.sum())


# --- Gibbs states -----------------------------------------------------------------

def gibbs_state(H, T: float, sign: float = -1.0) -> np.ndarray:
    """e^{sign * H / T} / Z by exact diagonalization."""
    H = np.asarray(H, dtype=complex)
    w, V = np.linalg.eigh(H)
    expw = np.exp(sign * (w - (w.max() if sign > 0 else w.min())) / T)
    rho = (V * expw) @ V.conj().T
    return rho / np.trace(rho).real


def gibbs_pair_prepare(T: float, n: int) -> np.ndarray:
    """Marginal of the pair construction: n pairs, each in
    (e^{-1/2T} |+>|+> + e^{+1/2T} |->|->)/sqrt(Z); tracing the ancilla of
    each pair leaves e^{-H0/T}/Z with H0 = sum sigma^x. The weights are
    taken relative to the larger one, e^{-1/T} and 1, so no small T
    overflows."""
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    pair = np.exp(-1 / T) * np.kron(plus, plus) + np.kron(minus, minus)
    pair /= np.linalg.norm(pair)
    rho_pair = np.outer(pair, pair.conj())
    # trace out the ancilla (second qubit of the pair)
    rho1 = np.trace(rho_pair.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    return sc.tensor(*[rho1] * n)


def tfim_gibbs(model: IsingModel, T: float):
    """rho = e^{H/T}/Z for the transverse-field Ising Hamiltonian (the
    source convention puts +H in the exponent) and the induced classical
    distribution p(s) = tr(Lambda_s rho) = diag(rho)."""
    H = model.hamiltonian()
    rho = gibbs_state(H, T, sign=+1.0)
    p = np.diag(rho).real.copy()
    p[p < 0] = 0.0
    return rho, p / p.sum()


# --- barren plateaus --------------------------------------------------------------

def _brickwork_gates(n: int, depth: int, rng: np.random.Generator):
    """(gate, targets) of alternating layers of Haar-random two-qubit
    blocks, all drawn at once in gate order."""
    pairs = [(q, q + 1) for layer in range(depth)
             for q in range(layer % 2, n - 1, 2)]
    return zip(sc._haar_unitaries(len(pairs), 4, rng), pairs)


def brickwork_unitary(n: int, depth: int, rng: np.random.Generator) -> np.ndarray:
    """Alternating layers of Haar-random two-qubit blocks."""
    U = np.eye(2**n, dtype=complex)  # one basis state per row
    for g, targets in _brickwork_gates(n, depth, rng):
        U = sc.apply_gate(U, g, targets)
    return U.T


def _act(op, psi: np.ndarray) -> np.ndarray:
    """op |psi> for a matrix or for a callable acting on the last axis."""
    return op(psi) if callable(op) else op @ psi


def barren_gradient_sample(n: int, H, V, rng: np.random.Generator,
                           mode: str = "brickwork") -> float:
    """One draw of dE/dtheta at theta = 0 for E = <0|U-^dag e^{i theta V}
    U+^dag H U+ e^{-i theta V} U-|0>, i.e. i<chi|[V, U+^dag H U+]|chi> with
    chi = U-|0>. For Hermitian H and V that is -2 Im<U+ V chi|H|U+ chi>,
    so only the pair (chi, V chi) is pushed through U+; every U- gate is
    drawn before any U+ gate. Brickwork U- and U+ have depth 3n each. H
    and V are matrices or callables that act on the last axis of a
    state."""
    psi = sc.basis_state(n)
    if not callable(H):
        H = np.asarray(H, dtype=complex)
    if mode == "haar":
        Um = sc.haar_random_unitary(2**n, rng)
        Up = sc.haar_random_unitary(2**n, rng)
        chi = Um @ psi
        pair = np.stack([chi, _act(V, chi)]) @ Up.T
    elif mode == "brickwork":
        chi = psi
        for g, targets in _brickwork_gates(n, 3 * n, rng):
            chi = sc.apply_gate(chi, g, targets)
        pair = np.stack([chi, _act(V, chi)])
        for g, targets in _brickwork_gates(n, 3 * n, rng):
            pair = sc.apply_gate(pair, g, targets)
    else:
        raise BadParameter(f"unknown mode {mode!r}")
    return float(-2 * np.vdot(pair[1], _act(H, pair[0])).imag)


def case3_variance(H, V, n: int, exact: bool = True) -> float:
    """Closed-form gradient variance when both U- and U+ are independent
    2-designs and the input state is pure, for dense H and V; see
    case3_variance_from_traces."""
    H = np.asarray(H, dtype=complex)
    V = np.asarray(V, dtype=complex)
    Ht = H - np.trace(H) / H.shape[0] * np.eye(H.shape[0])
    # tr(A B) = sum_ij A_ij B_ji: O(d^2), no d^3 matrix product
    return case3_variance_from_traces(np.sum(Ht * Ht.T).real,
                                      np.sum(V * V.T).real,
                                      np.trace(V).real, n, exact)


def case3_variance_from_traces(tr_h2: float, tr_v2: float, tr_v: float,
                               n: int, exact: bool = True) -> float:
    """The case-3 variance from tr(H~^2), tr(V^2) and tr(V), for a pure
    input state (tr rho^2 = 1).

    The exact Haar average is
        2 tr(H~^2) [d tr(V^2) - tr(V)^2] / (d (d+1) (d^2 - 1)),
    with H~ the traceless part of H (the identity component commutes
    away). Its d -> infinity limit is the familiar
    2 tr(H~^2) tr(rho^2) (tr(V^2)/2^{3n} - tr(V)^2/2^{4n}), available with
    exact=False."""
    d = 2**n
    if exact:
        return float(2 * tr_h2 * (d * tr_v2 - tr_v**2)
                     / (d * (d + 1) * (d**2 - 1)))
    return float(2 * tr_h2 * (tr_v2 / d**3 - tr_v**2 / d**4))


def _global_cost(d: int):
    """H = |0..0><0..0| - I/d on the last axis: H psi = psi_0 e_0 - psi/d."""
    def apply(psi):
        out = psi / -d
        out[..., 0] += psi[..., 0]
        return out
    return apply


def _z_on_first(n: int):
    """V = Z on qubit 0 on the last axis, by its Pauli action."""
    label = "Z" + "I" * (n - 1)
    return lambda psi: sc.apply_pauli(psi, label)


def barren_experiment(n_values, ensemble: int, rng: np.random.Generator):
    """Sweep of (n, mean gradient, variance, stderr of the mean) over
    brickwork draws, for the global cost H = |0..0><0..0| - I/2^n
    (traceless) and V = Z on qubit 0, the configuration whose variance
    decays as 4^{-n}. Both act without a matrix, and their traces are in
    closed form: tr(H~^2) = 1 - 1/d, tr(V^2) = d, tr V = 0."""
    rows = []
    for n in n_values:
        d = 2**n
        H, V = _global_cost(d), _z_on_first(n)
        g = np.array([barren_gradient_sample(n, H, V, rng)
                      for _ in range(ensemble)])
        rows.append({
            "n": n,
            "mean": float(g.mean()),
            "var": float(g.var(ddof=1)),
            "stderr": float(g.std(ddof=1) / np.sqrt(ensemble)),
            "closed_form_var": case3_variance_from_traces(1 - 1 / d, d, 0.0,
                                                          n),
        })
    return rows


# --- adiabatic dynamics -------------------------------------------------------------

# constants of the CF4 Magnus step, spelled out in solve_ivp
_CF4_C = math.sqrt(3) / 6
_CF4_A1 = (3 - 2 * math.sqrt(3)) / 12
_CF4_A2 = (3 + 2 * math.sqrt(3)) / 12
_CF4_MAX_PHASE = 0.25   # radians one step may turn at the largest |H|
_CF4_MAX_CHANGE = 0.01  # change of H within one step, relative to max |H|
_CF4_MAX_REFINE = 12    # step doublings an interval may take for that
_CF4_BATCH = 4096       # steps whose exponentials are held at once


@dataclass
class Propagation:
    """States at the grid times (one row each), the number of H(t)
    evaluations that produced them, and H at the grid times, (k, d, d)."""

    states: np.ndarray
    nfev: int
    hamiltonians: np.ndarray


def _cf4_steps(duration: float, h_norm: float) -> int:
    """Steps over `duration` that turn no phase by more than
    _CF4_MAX_PHASE radians under a Hamiltonian of spectral norm `h_norm`.
    The 1e-12 slack stops rounding of the grid from adding a step."""
    return max(1, math.ceil(duration * h_norm / _CF4_MAX_PHASE
                            * (1 - 1e-12)))


def _cf4_exp(A: np.ndarray, h: np.ndarray) -> np.ndarray:
    """exp(-ihA) for a stack of Hermitian A, shape (..., d, d), and step
    lengths h that broadcast to A's leading shape. For d = 2 this is the
    closed form e^{-iht}(cos(hr) I - i sin(hr)(A - tI)/r), t = tr A / 2 and
    r the norm of the traceless part, whose limit at r = 0 is e^{-iht} I;
    for d > 2 it comes from one batched eigh."""
    if A.shape[-1] == 2:
        t = (A[..., 0, 0] + A[..., 1, 1]).real / 2
        r = np.hypot((A[..., 0, 0] - A[..., 1, 1]).real / 2,
                     np.abs(A[..., 1, 0]))
        # sin(hr) / r, written h sinc(hr / pi) so that r = 0 gives h
        s = h * np.sinc(h * r / np.pi)
        eye = np.eye(2)
        E = (np.cos(h * r)[..., None, None] * eye
             - 1j * s[..., None, None] * (A - t[..., None, None] * eye))
        return np.exp(-1j * h * t)[..., None, None] * E
    w, V = np.linalg.eigh(A)
    return ((V * np.exp(-1j * h[..., None] * w)[..., None, :])
            @ V.conj().swapaxes(-1, -2))


def _cf4_tree(U: np.ndarray) -> np.ndarray:
    """Products along axis 1 of a (m, n, d, d) stack of step propagators,
    later step on the left, as a pairwise binary tree."""
    while U.shape[1] > 1:
        even = U.shape[1] - U.shape[1] % 2
        U = np.concatenate([U[:, 1:even:2] @ U[:, 0:even:2], U[:, even:]],
                           axis=1)
    return U[:, 0]


def _cf4_chunk(hamiltonian, t0, h, first, count, max_change: float):
    """Segment j is the count[j] CF4 steps of length h[j] from t0[j]
    numbered first[j], first[j] + 1, ... (0 is the step that starts at
    t0[j]). H(t) is evaluated at the nodes of every step of every segment
    in three stacked calls. Returns, per segment, its propagator, or None
    if H changes by more than `max_change` (Frobenius norm) in one of its
    steps from the first node to the midpoint or from there to the second
    node."""
    seg = np.repeat(np.arange(count.size), count)
    start = np.cumsum(count) - count
    hs = h[seg]
    t = t0[seg] + hs * (np.arange(seg.size) - start[seg] + first[seg])
    Ha = hamiltonian(t + (0.5 - _CF4_C) * hs)
    Hm = hamiltonian(t + 0.5 * hs)
    Hb = hamiltonian(t + (0.5 + _CF4_C) * hs)
    change = np.linalg.norm(np.stack([Hm - Ha, Hb - Hm]), axis=(2, 3))
    ok = ~(np.maximum.reduceat(change.max(axis=0), start) > max_change)
    props = [None] * count.size
    if not ok.any():
        return props
    keep = ok[seg]
    Ha, Hb = Ha[keep], Hb[keep]
    # per step, the exponential weighted to the earlier node acts first
    E = _cf4_exp(np.stack([_CF4_A2 * Ha + _CF4_A1 * Hb,
                           _CF4_A1 * Ha + _CF4_A2 * Hb], axis=1),
                 hs[keep, None])
    U = E[:, 1] @ E[:, 0]
    kept = np.cumsum(count * ok) - count * ok  # each segment's first row
    for n in np.unique(count[ok]):
        js = np.flatnonzero(ok & (count == n))
        for j, P in zip(js, _cf4_tree(U[kept[js, None] + np.arange(n)])):
            props[j] = P
    return props


def _cf4_sweep(hamiltonian, t0, h, steps, size: int, max_change: float):
    """Propagate interval i by steps[i] CF4 steps of length h[i] from t0[i],
    for every i. Each interval is cut into segments of at most `size` steps,
    and the segments are evaluated in grid order, in chunks of at most
    `size` steps. Once a chunk finds an interval whose H changes too fast,
    the rest of that interval is skipped. Returns, per interval, the list of
    its segment propagators in order, or None; and the number of H(t)
    evaluations made."""
    segs = [(i, k, min(size, n - k))
            for i, n in enumerate(steps) for k in range(0, n, size)]
    props = [[] for _ in steps]
    evals = 0
    while segs:
        total = j = 0
        while j < len(segs) and total + segs[j][2] <= size:
            total += segs[j][2]
            j += 1
        i, first, count = map(np.array, zip(*segs[:j]))
        out = _cf4_chunk(hamiltonian, t0[i], h[i], first, count, max_change)
        evals += 3 * total
        for ii, P in zip(i, out):
            if P is None:
                props[ii] = None
            elif props[ii] is not None:
                props[ii].append(P)
        segs = [s for s in segs[j:] if props[s[0]] is not None]
    return props, evals


def solve_ivp(hamiltonian, t_grid, psi0) -> Propagation:
    """Solve i dpsi/dt = H(t) psi with psi(t_grid[0]) = psi0 by the
    fourth-order commutator-free Magnus scheme of Blanes & Moan (2006).

    `hamiltonian` maps an array of k times to a (k, d, d) stack of
    Hermitian matrices. The step of length h from t is
        exp(-ih(a1 H(t + c1 h) + a2 H(t + c2 h)))
        @ exp(-ih(a2 H(t + c1 h) + a1 H(t + c2 h))),
    with c = 1/2 -+ sqrt(3)/6 and a = (3 -+ 2 sqrt(3))/12.

    Step rule: an interval of `t_grid` of length L takes
    ceil(L |H|max / 0.25) equal steps, |H|max the largest spectral norm of
    H on `t_grid`, so no step turns a phase by more than a quarter radian.
    That count is doubled, at most 12 times before IntegratorDiverged,
    until in every step H changes by at most 0.01 max|H|_F from the first
    Gauss node to the midpoint and from there to the second node; the
    midpoint sees an H that oscillates in step with the grid.

    All intervals are evaluated together: H(t) at the nodes of up to
    _CF4_BATCH steps per stacked call, and the exponentials of those steps
    in one call (closed form for d = 2, one batched eigh above). The steps
    of an interval, or of each _CF4_BATCH of them, are multiplied in a
    binary tree, and the interval propagators are applied to psi in grid
    order. The intervals that fail the change rule are then refined one at
    a time, in grid order. A doubled count is evaluated half by half, so an
    attempt that fails in its first half costs half the evaluations.
    The result carries H(t_grid), the stack the step rule reads."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 \
            or not np.isfinite(t_grid).all() or (np.diff(t_grid) <= 0).any():
        raise BadParameter("t_grid must be a non-empty list of finite, "
                           "strictly increasing times")
    H = hamiltonian(t_grid)
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != H.shape[-1:]:
        raise DimensionMismatch(f"psi0 must be one state of {H.shape[-1]} "
                                f"amplitudes, got shape {psi.shape}")
    h_norm = np.abs(np.linalg.eigvalsh(H)).max()
    max_change = _CF4_MAX_CHANGE * np.linalg.norm(H, axis=(1, 2)).max()
    t0, t1 = t_grid[:-1], t_grid[1:]
    steps = np.array([_cf4_steps(b - a, h_norm) for a, b in zip(t0, t1)],
                     dtype=int)
    props, nfev = _cf4_sweep(hamiltonian, t0, (t1 - t0) / steps, steps,
                             _CF4_BATCH, max_change)
    nfev += t_grid.size
    for i in range(steps.size):
        n = steps[i]
        for _ in range(_CF4_MAX_REFINE):
            if props[i] is not None:
                break
            n *= 2
            (props[i],), evals = _cf4_sweep(
                hamiltonian, t0[i:i + 1], (t1[i:i + 1] - t0[i]) / n, [n],
                min(n // 2, _CF4_BATCH), max_change)
            nfev += evals
        if props[i] is None:
            raise IntegratorDiverged(
                f"H(t) changes too fast on [{t0[i]:g}, {t1[i]:g}] to resolve")
    states = [psi]
    for segments in props:
        for U in segments:
            psi = U @ psi
        states.append(psi)
    return Propagation(np.array(states), int(nfev), H)


def landau_zener(alpha: float, Delta: float) -> float:
    """Propagate the two-level sweep H(t) = [[a t/2, D], [D, -a t/2]] over
    [-T0, T0] from the instantaneous ground state and return the
    probability of a non-adiabatic transition.

    T0 = 60 * max(|D|/a, 1/|D|, 1/sqrt(a)). The sweep is one interval
    of solve_ivp, whose change rule never binds on this linear ramp, so it
    takes ceil(2 T0 |H(T0)| / 0.25) Magnus steps, |H(T0)| = hypot(a T0/2, D):
    no step turns the phase by more than a quarter radian at the ends, where
    |H| is largest. The asymptotic value is exp(-2 pi D^2 / a). Raises
    BadParameter unless alpha > 0 and both are finite."""
    if not (math.isfinite(alpha) and alpha > 0 and math.isfinite(Delta)):
        raise BadParameter(f"landau_zener needs a finite alpha > 0 and a "
                           f"finite Delta, got alpha={alpha!r}, "
                           f"Delta={Delta!r}")
    if Delta == 0.0:
        return 1.0
    t_char = max(abs(Delta) / alpha, 1 / abs(Delta), 1 / np.sqrt(alpha))
    T0 = 60.0 * t_char

    def hamiltonian(t):
        return (alpha * t / 2)[:, None, None] * sc.Z.real + Delta * sc.X.real

    _, V = np.linalg.eigh(hamiltonian(np.array([-T0, T0])))
    psi = solve_ivp(hamiltonian, [-T0, T0], V[0, :, 0]).states[-1]
    return float(abs(np.vdot(V[1, :, 1], psi)) ** 2)


def adiabatic_follow(H0, H1, T: float, schedule=None):
    """Propagate H(t) = (1 - lam(t/T)) H0 + lam(t/T) H1 from the ground
    state of H0; returns (s grid, fidelity with the instantaneous ground
    state).

    The 50 check intervals between 51 check points, of length tau = T / 50,
    are the intervals of solve_ivp. Each takes ceil(tau |H|max / 0.25)
    Magnus steps, with |H|max the largest spectral norm of H(s) on the check
    grid, so that no step turns the phase by more than a quarter radian.
    Where the schedule moves lam by more than about 0.01 within one step,
    solve_ivp doubles that interval's steps until it does not. The schedule
    is called on scalar s: once at each check point, whose stack
    (Propagation.hamiltonians) also gives the instantaneous ground states,
    and at the two Gauss nodes and the midpoint of every step.

    Before anything is propagated, H0 and H1 that are not square matrices
    of one shape (at least 2 x 2) raise DimensionMismatch, and a
    non-Hermitian one or a T that is not finite and > 0 BadParameter."""
    H0 = np.asarray(H0, dtype=complex)
    H1 = np.asarray(H1, dtype=complex)
    if H0.ndim != 2 or H0.shape[0] != H0.shape[1] or H0.shape[0] < 2 \
            or H1.shape != H0.shape:
        raise DimensionMismatch(f"H0 and H1 must be square matrices of one "
                                f"shape, at least 2 x 2, got {H0.shape} "
                                f"and {H1.shape}")
    for name, M in (("H0", H0), ("H1", H1)):
        _check_hermitian(M, 1e-10, f"{name} is not Hermitian")
    if not (math.isfinite(T) and T > 0):
        raise BadParameter(f"T must be finite and > 0, got {T!r}")
    lam = schedule or (lambda s: s)

    def H(t):
        lams = np.array([lam(s) for s in t / T])[:, None, None]
        return (1 - lams) * H0 + lams * H1

    w, V = np.linalg.eigh(H0)
    if w[1] - w[0] < 1e-12:
        raise IntegratorDiverged("degenerate initial ground state")
    s_grid = np.linspace(0, 1, 51)
    out = solve_ivp(H, s_grid * T, V[:, 0])
    _, V = np.linalg.eigh(out.hamiltonians)
    fids = np.abs(np.einsum("ij,ij->i", V[:, :, 0].conj(), out.states)) ** 2
    return s_grid, fids
