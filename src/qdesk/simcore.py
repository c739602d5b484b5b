"""Exact statevector / density-matrix simulator.

Conventions used throughout the package:
- qubit 0 is the leftmost tensor factor, i.e. the most significant bit of
  the basis-state index
- states are plain complex numpy arrays of length 2^n (unit L2 norm)
- density matrices are Hermitian PSD trace-1 numpy arrays
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParameter,
    DimensionMismatch,
    NotHermitian,
    NotTracePreserving,
    TargetOutOfRange,
)

# Fixed gate matrices
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )


def phase(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


GATE_FACTORIES = {"RX": rx, "RY": ry, "RZ": rz, "P": phase}
FIXED_GATES = {
    "I": I2, "X": X, "Y": Y, "Z": Z, "H": H, "S": S, "T": T,
    "CNOT": CNOT, "CX": CNOT, "CZ": CZ, "SWAP": SWAP,
}


def n_qubits(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim < 1 or 1 << n != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of 2")
    return n


def basis_state(n: int, index: int = 0) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def is_unitary(U: np.ndarray) -> bool:
    return np.allclose(U.conj().T @ U, np.eye(U.shape[0]), atol=1e-10)


@functools.lru_cache(maxsize=4096)
def _axis_orders(n: int, targets: tuple, batch_at: int | None):
    """Transpose that brings the target axes of a rank-n amplitude tensor
    to the front, and its inverse. With a batch axis in front of the
    tensor, `batch_at` is where the transpose puts it: after the targets
    (k) for one gate on every row, first (0) for a gate per row.
    Validates the targets, so only a new (n, targets) pays for the check."""
    for q in targets:
        if not 0 <= q < n:
            raise TargetOutOfRange(f"qubit {q} out of range for n={n}")
    if len(set(targets)) != len(targets):
        raise TargetOutOfRange("duplicate target qubits")
    order = list(targets) + [q for q in range(n) if q not in targets]
    if batch_at is not None:
        order = [q + 1 for q in order]
        order.insert(batch_at, 0)
    return tuple(order), tuple(int(i) for i in np.argsort(order))


def _register_width(state: np.ndarray) -> int:
    """Qubit count of one state (2^n,) or a batch of states (b, 2^n)."""
    if state.ndim not in (1, 2):
        raise DimensionMismatch(
            f"state of shape {state.shape} is neither (2^n,) nor (b, 2^n)"
        )
    return n_qubits(state.shape[-1])


def apply_gate(state: np.ndarray, gate: np.ndarray, targets) -> np.ndarray:
    """Apply a 2^k x 2^k unitary to the given target qubits.

    `state` is one state of shape (2^n,) or a batch of b states of shape
    (b, 2^n), one per row; the result has the same shape. `gate` is one
    matrix for every row, or for a batch a stack of shape (b, 2^k, 2^k):
    row r then takes gate r, with the same product as a call on row r
    alone. Works by index arithmetic on the amplitude array: reshape to a
    rank-n tensor per state, pull the target axes to the front and hit
    them with the matrix. No 2^n x 2^n matrix is ever built.
    """
    n = _register_width(state)
    targets = tuple(targets)
    k = len(targets)
    batch = state.shape[:-1]
    if gate.ndim == 3:
        if gate.shape != batch + (2**k, 2**k):
            raise DimensionMismatch(
                f"gate stack of shape {gate.shape} does not give one {k}-qubit"
                f" gate per row of a state of shape {state.shape}"
            )
        order, inverse = _axis_orders(n, targets, 0)
        front, mid = batch + (2**k,), batch + (2,) * n
    else:
        if gate.shape != (2**k, 2**k):
            raise DimensionMismatch(
                f"gate of shape {gate.shape} does not act on {k} qubits"
            )
        order, inverse = _axis_orders(n, targets, k if batch else None)
        front, mid = (2**k,), (2,) * k + batch + (2,) * (n - k)
    psi = state.reshape(batch + (2,) * n).transpose(order)
    psi = gate @ psi.reshape(front + (-1,))
    return psi.reshape(mid).transpose(inverse).reshape(state.shape)


def apply_gate_density(rho: np.ndarray, gate: np.ndarray, targets) -> np.ndarray:
    """Conjugate a density matrix by a gate on the target qubits.

    rho is read as a 2n-qubit vector, ket qubits first: the gate acts on
    the ket leg and its conjugate on the bra leg, giving U rho U^dag."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"density matrix of shape {rho.shape}")
    n = n_qubits(rho.shape[0])
    targets = list(targets)
    vec = apply_gate(rho.reshape(-1), gate, targets)
    vec = apply_gate(vec, gate.conj(), [q + n for q in targets])
    return vec.reshape(rho.shape)


def expand_gate(gate: np.ndarray, targets, n: int) -> np.ndarray:
    """Dense 2^n x 2^n embedding of a k-qubit gate (for small n): the gate
    applied to every basis state at once, one per row, then transposed."""
    return apply_gate(np.eye(2**n, dtype=complex), gate, targets).T


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def measure(state: np.ndarray, qubit: int, rng: np.random.Generator):
    """Projective measurement of one qubit in the computational basis.

    Returns (bit, collapsed statevector). The outcome follows the Born rule
    of the supplied generator.
    """
    n = n_qubits(state.size)
    if not 0 <= qubit < n:
        raise TargetOutOfRange(f"qubit {qubit} out of range for n={n}")
    psi = state.reshape([2] * n)
    p1 = float(np.sum(np.abs(np.take(psi, 1, axis=qubit)) ** 2))
    bit = 1 if rng.random() < p1 else 0
    idx = [slice(None)] * n
    idx[qubit] = 1 - bit
    psi = psi.copy()
    psi[tuple(idx)] = 0.0
    norm = np.sqrt(p1 if bit else 1.0 - p1)
    return bit, (psi / norm).reshape(-1)


def measure_all(state: np.ndarray, rng: np.random.Generator) -> tuple[int, ...]:
    """Sample a full computational-basis outcome (no collapse bookkeeping)."""
    n = n_qubits(state.size)
    k = rng.choice(state.size, p=probabilities(state) / probabilities(state).sum())
    return tuple((k >> (n - 1 - q)) & 1 for q in range(n))


def statevector_to_density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def kraus_apply(rho: np.ndarray, ops) -> np.ndarray:
    """Apply the channel rho -> sum_k A_k rho A_k^dag."""
    dim = rho.shape[0]
    total = sum(A.conj().T @ A for A in ops)
    if not np.allclose(total, np.eye(dim), atol=1e-8):
        raise NotTracePreserving("Kraus operators do not sum to identity")
    return sum(A @ rho @ A.conj().T for A in ops)


@functools.lru_cache(maxsize=1024)
def _pauli_action(label: str):
    """Bit-index action of a Pauli string, qubit 0 the most significant bit:
    P|j> = i^{#Y} (-1)^{popcount(j & zmask)} |j ^ xmask>. Returned as
    read-only (cols, phases): row k of P holds its one nonzero entry,
    phases[k], in column cols[k] = k ^ xmask."""
    if set(label) - set(PAULIS):
        raise KeyError(f"{label!r} is not a Pauli string")
    xmask = int("0" + label.translate(str.maketrans("IXYZ", "0110")), 2)
    zmask = int("0" + label.translate(str.maketrans("IXYZ", "0011")), 2)
    cols = np.arange(2 ** len(label)) ^ xmask
    parity = cols & zmask
    for shift in (32, 16, 8, 4, 2, 1):  # fold the popcount parity to bit 0
        parity ^= parity >> shift
    phases = ((1, 1j, -1, -1j)[label.count("Y") % 4]
              * (1 - 2 * (parity & 1))).astype(complex)
    for a in (cols, phases):
        a.setflags(write=False)
    return cols, phases


def pauli_matrix(label: str) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli string such as "XIZ"."""
    cols, phases = _pauli_action(label)
    out = np.zeros((cols.size, cols.size), dtype=complex)
    out[np.arange(cols.size), cols] = phases
    return out


def apply_pauli(state: np.ndarray, label: str) -> np.ndarray:
    """P|psi> for a Pauli string P on one state (2^n,) or a batch (b, 2^n),
    one per row, by a permutation and a phase per amplitude."""
    n = _register_width(state)
    if len(label) != n:
        raise DimensionMismatch(f"Pauli string {label!r} does not act on "
                                f"{n} qubits")
    cols, phases = _pauli_action(label)
    return phases * state[..., cols]


_PAULI_STACK = np.stack([I2, X, Y, Z])  # index order matches "IXYZ"


def pauli_decompose(Hm: np.ndarray, tol: float = 0.0):
    """Expand a 2^n x 2^n matrix in the Pauli-string basis.

    Returns a list of (label, coefficient) with coefficient
    tr(P^dag H)/2^n. Coefficients below `tol` in magnitude are dropped.
    """
    dim = Hm.shape[0]
    if Hm.shape != (dim, dim):
        raise DimensionMismatch("matrix must be square")
    n = n_qubits(dim)
    # c[k_0..k_{n-1}] = tr((sigma_k0 (x) ... ) H)/2^n, contracted per qubit:
    # tr(PH) = sum_{r,c} P[r0..,c0..] H[c0..,r0..]
    letters = "abcdefghijkl"
    rows, cols, ks = letters[:n], letters[n:2 * n].upper(), letters[n:2 * n]
    terms = ",".join(f"{k}{r}{c}" for k, r, c in zip(ks, rows, cols))
    spec = f"{terms},{cols}{rows}->{''.join(ks)}"
    coeffs = np.einsum(
        spec, *([_PAULI_STACK] * n), Hm.reshape([2] * (2 * n)), optimize=True
    ) / dim
    labels = ("".join(t) for t in itertools.product("IXYZ", repeat=n))
    return [(lab, c) for lab, c in zip(labels, coeffs.reshape(-1))
            if abs(c) > tol]


def pauli_reconstruct(terms, n: int) -> np.ndarray:
    out = np.zeros((2**n, 2**n), dtype=complex)
    for lab, c in terms:
        out += c * pauli_matrix(lab)
    return out


def hs_inner(A: np.ndarray, B: np.ndarray) -> complex:
    """Normalized Hilbert-Schmidt inner product tr(A^dag B)/2^n."""
    if A.shape != B.shape:
        raise DimensionMismatch("operands differ in shape")
    return complex(np.trace(A.conj().T @ B) / A.shape[0])


def exp_hamiltonian(Hm: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) by exact eigendecomposition."""
    if not np.allclose(Hm, Hm.conj().T, atol=1e-10):
        raise NotHermitian("input is not Hermitian")
    w, V = np.linalg.eigh(Hm)
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def _haar_unitaries(k: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """k Haar unitaries, shape (k, dim, dim), from one Ginibre draw and one
    stacked QR. Each takes its real block and then its imaginary block from
    the stream, so the k are the same bits as k haar_random_unitary calls."""
    A = rng.standard_normal((k, 2, dim, dim))
    Q, R = np.linalg.qr(A[:, 0] + 1j * A[:, 1])
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[:, None, :]


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with the R diagonal
    phase fix."""
    return _haar_unitaries(1, dim, rng)[0]


def haar_random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def controlled(gate: np.ndarray) -> np.ndarray:
    """|0><0| (x) I + |1><1| (x) U, control on the leading qubit."""
    dim = gate.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = gate
    return out


def tensor(*gates: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for g in gates:
        out = np.kron(out, g)
    return out


# --- circuits -----------------------------------------------------------

@dataclass(frozen=True)
class CircuitOp:
    """One circuit instruction: a named/fixed gate, a raw matrix, or a
    measurement marker."""

    name: str
    targets: tuple[int, ...]
    param: float | None = None
    matrix: np.ndarray | None = None

    def resolve(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        if self.name in FIXED_GATES:
            return FIXED_GATES[self.name]
        if self.name in GATE_FACTORIES:
            return GATE_FACTORIES[self.name](self.param)
        raise KeyError(f"unknown gate {self.name!r}")


_REAL = (int, float, np.integer, np.floating)


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b of two 2x2 matrices by one broadcast product (no np.kron)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


@dataclass
class Circuit:
    n: int
    ops: list[CircuitOp] = field(default_factory=list)

    def __post_init__(self):
        ops, self.ops = self.ops, []
        for op in ops:  # the same checks as ops added one by one
            self.add(op.name, op.targets, op.param, op.matrix)

    def add(self, name, targets, param=None, matrix=None):
        """Append one op. Bad targets, a `measure` on other than one qubit,
        an unknown gate name, a rotation without a finite angle and a gate
        whose size does not match its targets raise here, before any 2^n
        work. The op is stored as given; its matrix is resolved at run."""
        targets = tuple(targets) if not isinstance(targets, int) else (targets,)
        if (not targets or len(set(targets)) != len(targets)
                or min(targets) < 0 or max(targets) >= self.n):
            raise TargetOutOfRange(f"bad targets {targets} for n={self.n}")
        if name == "measure":
            if len(targets) != 1:
                raise TargetOutOfRange(
                    f"measure takes exactly one target, got {targets}")
        else:
            if matrix is not None:
                shape = np.shape(matrix)
            elif name in FIXED_GATES:
                shape = FIXED_GATES[name].shape
            elif name in GATE_FACTORIES:
                if not (isinstance(param, _REAL) and math.isfinite(param)):
                    raise BadParameter(
                        f"gate {name!r} needs a finite param, got {param!r}")
                shape = (2, 2)
            else:
                raise KeyError(f"unknown gate {name!r}")
            dim = 2 ** len(targets)
            if shape != (dim, dim):
                raise DimensionMismatch(f"gate {name!r} of shape {shape} "
                                        f"does not act on targets {targets}")
        self.ops.append(CircuitOp(name, targets, param, matrix))
        return self

    def gate_count(self) -> int:
        return sum(1 for op in self.ops if op.name != "measure")

    def _blocks(self):
        """The ops fused into blocks, yielded in order as (gate, targets);
        gate is None for a measurement.

        One-qubit gates multiply into a pending 2x2 product per qubit. A
        two-qubit op on (a, b) absorbs both as U (P_a (x) P_b), qubit a the
        left factor. An op on three or more qubits and a measurement are
        barriers: the pending products of their own qubits are flushed
        first, as one-qubit blocks. The rest are flushed at the end."""
        pending = {}
        for op in self.ops:
            t = op.targets
            if op.name == "measure" or len(t) > 2:
                for q in t:
                    if q in pending:
                        yield pending.pop(q), (q,)
                yield (None if op.name == "measure" else op.resolve()), t
            elif len(t) == 1:
                g = op.resolve()
                pending[t[0]] = g @ pending[t[0]] if t[0] in pending else g
            else:
                g = op.resolve()
                a, b = t
                if a in pending or b in pending:
                    g = g @ _kron2(pending.pop(a, I2), pending.pop(b, I2))
                yield g, t
        for q, g in pending.items():
            yield g, (q,)

    def unitary(self) -> np.ndarray:
        # row i of the batch carries basis state i through the circuit
        U = np.eye(2**self.n, dtype=complex)
        for gate, targets in self._blocks():
            if gate is None:
                raise ValueError("circuit with measurements has no unitary")
            U = apply_gate(U, gate, targets)
        return U.T

    def run(self, state=None, rng=None):
        """Execute the circuit, fused block by block. Returns (state, dict
        of measured bits)."""
        psi = basis_state(self.n) if state is None else state.astype(complex)
        bits = {}
        for gate, targets in self._blocks():
            if gate is None:
                if rng is None:
                    raise ValueError("measurement requires an rng")
                bit, psi = measure(psi, targets[0], rng)
                bits[targets[0]] = bit
            else:
                psi = apply_gate(psi, gate, targets)
        return psi, bits


def circuit_to_json(circ: Circuit) -> str:
    ops = []
    for op in circ.ops:
        entry = {"gate": op.name, "targets": list(op.targets)}
        if op.param is not None:
            entry["param"] = op.param
        if op.matrix is not None:
            entry["matrix"] = [
                [[float(v.real), float(v.imag)] for v in row] for row in op.matrix
            ]
        ops.append(entry)
    return json.dumps({"n": circ.n, "ops": ops})


def circuit_from_json(text: str) -> Circuit:
    data = json.loads(text)
    circ = Circuit(data["n"])
    for entry in data["ops"]:
        matrix = None
        if "matrix" in entry:
            matrix = np.array(
                [[complex(re, im) for re, im in row] for row in entry["matrix"]]
            )
        circ.add(entry["gate"], entry["targets"], entry.get("param"), matrix)
    return circ
