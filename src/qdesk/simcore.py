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
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (BadParameter, DimensionMismatch, TargetOutOfRange,
                     _check_close, _check_hermitian)

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


def _mat2(a, b, c, d) -> np.ndarray:
    """The complex matrix [[a, b], [c, d]]. With an array d, a stack of
    shape d.shape + (2, 2), one matrix per element: a, b and c broadcast
    against d."""
    shape = d.shape if isinstance(d, np.ndarray) else ()
    out = np.empty((2, 2) + shape, dtype=complex)
    out[0, 0], out[0, 1], out[1, 0], out[1, 1] = a, b, c, d
    return np.moveaxis(out, (0, 1), (-2, -1)).copy() if shape else out


# The rotation factories take an angle, or an array of angles for a stack
# of shape theta.shape + (2, 2); both evaluate the same formula, so the
# matrices of a stack have the bits of one call per angle.

def rx(theta) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    off = -1j * s
    return _mat2(c, off, off, c)


def ry(theta) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return _mat2(c, -s, s, c)


def rz(theta) -> np.ndarray:
    return _mat2(np.exp(-1j * theta / 2), 0, 0, np.exp(1j * theta / 2))


def phase(theta) -> np.ndarray:
    return _mat2(1, 0, 0, np.exp(1j * theta))


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
    return np.allclose(U.conj().T @ U, np.eye(len(U)), rtol=0.0, atol=1e-10)


def _qubits(targets) -> tuple:
    """Targets, one qubit or an iterable of them, as a tuple of ints.
    numpy integers pass through operator.index. A float, a bool, a str or
    any other non-integer raises TargetOutOfRange, so that no 1.0 or True
    reaches a cache keyed by equality, where it would stand for 1."""
    try:
        t = tuple(targets)
    except TypeError:  # a single qubit
        t = (targets,)
    for q in t:
        if type(q) is not int:
            break
    else:
        return t
    try:
        if not any(isinstance(q, bool) for q in t):
            return tuple(map(operator.index, t))
    except TypeError:
        pass
    raise TargetOutOfRange(f"targets {t!r} are not all integers")


def _register_width(shape: tuple) -> int:
    """Qubit count of one state (2^n,) or a batch of states (b, 2^n)."""
    if len(shape) not in (1, 2):
        raise DimensionMismatch(
            f"state of shape {shape} is neither (2^n,) nor (b, 2^n)"
        )
    return n_qubits(shape[-1])


@functools.lru_cache(maxsize=4096)
def _gate_plan(shape: tuple, gate_shape: tuple, targets: tuple):
    """How apply_gate moves a state of `shape` for a gate of `gate_shape`
    on the int `targets`: (tensor shape, transpose that brings the target
    axes to the front, matmul operand shape, product tensor shape, inverse
    transpose). A batch axis goes after the targets for one gate on every
    row, first for a gate per row. Qubit axes that stay adjacent through
    the transpose move as one axis, which copies faster and moves the same
    amplitudes. Bad shapes and targets raise, and a raise is not cached,
    so only a new key pays for the checks."""
    n = _register_width(shape)
    k = len(targets)
    batch = shape[:-1]
    if len(gate_shape) == 3:
        if gate_shape != batch + (2**k, 2**k):
            raise DimensionMismatch(
                f"gate stack of shape {gate_shape} does not give one {k}-qubit"
                f" gate per row of a state of shape {shape}"
            )
        batch_at, front = 0, batch + (2**k, -1)
    else:
        if gate_shape != (2**k, 2**k):
            raise DimensionMismatch(
                f"gate of shape {gate_shape} does not act on {k} qubits"
            )
        batch_at, front = (k if batch else None), (2**k, -1)
    _op_targets(n, targets)
    axes = list(targets) + [q for q in range(n) if q not in targets]
    if batch_at is not None:
        axes = [q + 1 for q in axes]
        axes.insert(batch_at, 0)
    runs = []  # runs of consecutive axes, in transposed order
    for a in axes:
        if runs and runs[-1][-1] == a - 1:
            runs[-1].append(a)
        else:
            runs.append([a])
    dims = batch + (2,) * n
    size = [math.prod(dims[a] for a in r) for r in runs]
    src = sorted(runs)
    order = tuple(src.index(r) for r in runs)
    tensor = tuple(size[runs.index(r)] for r in src)
    inverse = tuple(order.index(i) for i in range(len(order)))
    return tensor, order, front, tuple(size), inverse


def apply_gate(state: np.ndarray, gate: np.ndarray, targets) -> np.ndarray:
    """Apply a 2^k x 2^k unitary to the given target qubits.

    `state` is one state of shape (2^n,) or a batch of b states of shape
    (b, 2^n), one per row; the result has the same shape. `gate` is one
    matrix for every row, or for a batch a stack of shape (b, 2^k, 2^k):
    row r then takes gate r, with the same product as a call on row r
    alone. Works by index arithmetic on the amplitude array: reshape to a
    tensor of qubit axes per state, pull the target axes to the front and
    hit them with the matrix. No 2^n x 2^n matrix is ever built.
    """
    tensor, order, front, mid, inverse = _gate_plan(
        state.shape, gate.shape, _qubits(targets))
    psi = gate @ state.reshape(tensor).transpose(order).reshape(front)
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
    of the supplied generator; a state that is not one vector raises.
    """
    if np.ndim(state) != 1:
        raise DimensionMismatch(f"state of shape {np.shape(state)}")
    n = n_qubits(state.size)
    (qubit,) = _op_targets(n, _qubits((qubit,)))
    psi = state.reshape([2] * n)
    p1 = float(np.sum(np.abs(np.take(psi, 1, axis=qubit)) ** 2))
    bit = 1 if rng.random() < p1 else 0
    idx = [slice(None)] * n
    idx[qubit] = 1 - bit
    psi = psi.copy()
    psi[tuple(idx)] = 0.0
    norm = np.sqrt(p1 if bit else 1.0 - p1)
    return bit, (psi / norm).reshape(-1)


def statevector_to_density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def kraus_apply(rho: np.ndarray, ops) -> np.ndarray:
    """Apply the channel rho -> sum_k A_k rho A_k^dag."""
    total = sum(A.conj().T @ A for A in ops)
    _check_close(total, np.eye(len(rho)), 1e-8,
                 "Kraus operators do not sum to identity")
    return sum(A @ rho @ A.conj().T for A in ops)


@functools.lru_cache(maxsize=1024)
def _pauli_action(label: str):
    """Bit-index action of a Pauli string, qubit 0 the most significant bit:
    P|j> = i^{#Y} (-1)^{popcount(j & zmask)} |j ^ xmask>. Returned as
    read-only (cols, phases): row k of P holds its one nonzero entry,
    phases[k], in column cols[k] = k ^ xmask."""
    if set(label) - set(PAULIS):
        raise BadParameter(f"{label!r} is not a Pauli string")
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
    n = _register_width(state.shape)
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


def exp_hamiltonian(Hm: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) by exact eigendecomposition."""
    _check_hermitian(Hm, 1e-10, "input is not Hermitian")
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

MAX_QUBITS = 12  # the widest register any circuit or experiment may use

# (rows, cols) of every named gate
_GATE_SHAPES = {**{name: g.shape for name, g in FIXED_GATES.items()},
                **dict.fromkeys(GATE_FACTORIES, (2, 2))}


class CircuitOp(NamedTuple):
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
        if self.name in GATE_FACTORIES:  # float64, as Circuit._blocks
            return GATE_FACTORIES[self.name](float(self.param))
        raise BadParameter(f"unknown gate {self.name!r}")


_REAL = (int, float, np.integer, np.floating)


@functools.lru_cache(maxsize=4096)
def _op_targets(n: int, targets: tuple) -> tuple:
    """The int targets of an op, checked: at least one, each in 0..n-1, no
    two the same. Returns the cached tuple, so that the ops of a circuit
    share one tuple per distinct target list."""
    if (not targets or len(set(targets)) != len(targets)
            or min(targets) < 0 or max(targets) >= n):
        raise TargetOutOfRange(f"bad targets {targets} for n={n}")
    return targets


@dataclass
class Circuit:
    n: int
    ops: list[CircuitOp] = field(default_factory=list)

    def __post_init__(self):
        n = self.n
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) \
                or not 1 <= n <= MAX_QUBITS:
            raise BadParameter(
                f"n must be an integer in 1..{MAX_QUBITS}, got {n!r}")
        self.n = int(n)
        ops, self.ops = self.ops, []
        for op in ops:  # the same checks as ops added one by one
            self.add(op.name, op.targets, op.param, op.matrix)

    def add(self, name, targets, param=None, matrix=None):
        """Append one op. Bad targets, a `measure` on other than one qubit,
        an unknown gate name, a rotation without a finite angle and a gate
        whose size does not match its targets raise here, before any 2^n
        work. A target must be an integer: a float or a bool raises. The
        op is stored as given; its matrix is resolved at run."""
        targets = _op_targets(self.n, _qubits(targets))
        if name == "measure":
            if len(targets) != 1:
                raise TargetOutOfRange(
                    f"measure takes exactly one target, got {targets}")
        else:
            if matrix is not None:
                shape = np.shape(matrix)
            elif name in _GATE_SHAPES:
                shape = _GATE_SHAPES[name]
                if name in GATE_FACTORIES and not (
                        isinstance(param, _REAL) and math.isfinite(param)):
                    raise BadParameter(
                        f"gate {name!r} needs a finite param, got {param!r}")
            else:
                raise BadParameter(f"unknown gate {name!r}")
            dim = 1 << len(targets)
            if shape != (dim, dim):
                raise DimensionMismatch(f"gate {name!r} of shape {shape} "
                                        f"does not act on targets {targets}")
        self.ops.append(CircuitOp(name, targets, param, matrix))
        return self

    def gate_count(self) -> int:
        return sum(1 for op in self.ops if op.name != "measure")

    def _blocks(self) -> list:
        """The ops fused into blocks, in order, as (gate, targets); gate is
        None for a measurement.

        One-qubit gates multiply into a pending 2x2 product per qubit. A
        two-qubit op on (a, b) absorbs both as U (P_a (x) P_b), qubit a the
        left factor. An op on three or more qubits and a measurement are
        barriers: the pending products of their own qubits are flushed
        first, as one-qubit blocks. The rest are flushed at the end.

        The rotations of each kind are built by one stacked factory call,
        and all absorptions by one broadcast Kronecker product and one
        stacked matmul; each block has the bits of its products taken one
        at a time."""
        ops = self.ops
        gates, angles = [], {}
        for i, op in enumerate(ops):
            g = op.matrix
            if op.name == "measure":
                g = None
            elif g is None:
                g = FIXED_GATES.get(op.name)
                if g is None:
                    angles.setdefault(op.name, []).append(i)
            gates.append(g)
        for name, idx in angles.items():
            stack = GATE_FACTORIES[name](
                np.array([ops[i].param for i in idx], dtype=float))
            for i, g in zip(idx, stack):
                gates[i] = g

        blocks, pending = [], {}
        absorbed, us, lefts, rights = [], [], [], []
        for op, g in zip(ops, gates):
            t = op.targets
            if g is None or len(t) > 2:
                for q in t:
                    if q in pending:
                        blocks.append((pending.pop(q), (q,)))
            elif len(t) == 1:
                q = t[0]
                pending[q] = g @ pending[q] if q in pending else g
                continue
            elif t[0] in pending or t[1] in pending:
                absorbed.append(len(blocks))
                us.append(g)
                lefts.append(pending.pop(t[0], I2))
                rights.append(pending.pop(t[1], I2))
            blocks.append((g, t))
        blocks.extend((g, (q,)) for q, g in pending.items())
        if absorbed:
            a, b = np.array(lefts), np.array(rights)
            kron = a[:, :, None, :, None] * b[:, None, :, None, :]
            fused = np.matmul(np.array(us), kron.reshape(-1, 4, 4))
            for i, g in zip(absorbed, fused):
                blocks[i] = (g, blocks[i][1])
        return blocks

    def unitary(self) -> np.ndarray:
        # row i of the batch carries basis state i through the circuit
        U = np.eye(2**self.n, dtype=complex)
        for gate, targets in self._blocks():
            if gate is None:
                raise BadParameter("circuit with measurements has no unitary")
            U = apply_gate(U, gate, targets)
        return U.T

    def run(self, state=None, rng=None):
        """Execute the circuit, fused block by block, on |0...0> or on the
        given state of 2^n amplitudes. Returns (state, dict of measured
        bits)."""
        if state is None:
            psi = basis_state(self.n)
        elif np.shape(state) != (2**self.n,):
            raise DimensionMismatch(f"state of shape {np.shape(state)} is "
                                    f"not one state of {self.n} qubits")
        else:
            psi = state.astype(complex)
        bits = {}
        for gate, targets in self._blocks():
            if gate is None:
                if rng is None:
                    raise BadParameter("measurement requires an rng")
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


def _json_matrix(rows) -> np.ndarray:
    """A raw matrix from JSON rows of [re, im] pairs: the pairs read as
    float64 and viewed as complex128, the bits of complex(re, im)."""
    try:
        pairs = np.asarray(rows)
    except ValueError:  # ragged rows
        pairs = None
    if pairs is None or pairs.dtype.kind not in "buif" \
            or pairs.shape[-1:] != (2,):
        raise DimensionMismatch(
            "a raw matrix must be rows of [re, im] number pairs")
    return pairs.astype(float, copy=False).view(complex)[..., 0]


def circuit_from_json(text: str) -> Circuit:
    """Parse circuit_to_json output; other text raises BadParameter. `n`
    is an integer in 1..MAX_QUBITS, and each op passes Circuit.add."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise BadParameter(f"circuit text is not JSON: {e}") from None
    ops = data.get("ops") if isinstance(data, dict) else None
    if not (isinstance(ops, list) and "n" in data and all(
            isinstance(op, dict) and "gate" in op and "targets" in op
            for op in ops)):
        raise BadParameter('circuit JSON needs "n" and an "ops" list, each '
                           'op an object with "gate" and "targets"')
    circ = Circuit(data["n"])
    add = circ.add
    for entry in ops:
        matrix = entry.get("matrix")
        if matrix is not None:
            matrix = _json_matrix(matrix)
        add(entry["gate"], entry["targets"], entry.get("param"), matrix)
    return circ
