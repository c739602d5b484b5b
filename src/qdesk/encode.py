"""Data encodings and the Fourier-spectrum analysis of encoding models.

Covers the basis and phase encodings, Hamiltonian-type encoding unitaries
(single Pauli, parallel and sequential repeats, and the exponential
encoding with base-3 weights), the frequency spectrum Omega = {mu_k - mu_j},
and discrete Fourier coefficient fitting.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simcore as sc
from .errors import BadParameter, DimensionMismatch


@dataclass(frozen=True)
class EncodingSpec:
    """kind in {basis, amplitude, phase, pauli, pauli-parallel,
    pauli-sequential, exponential}; params are kind-specific."""

    kind: str
    params: dict = field(default_factory=dict)


def basis_encode(samples) -> np.ndarray:
    """Uniform superposition over the samples' basis states."""
    samples = [tuple(int(b) & 1 for b in s) for s in samples]
    width = len(samples[0])
    if any(len(s) != width for s in samples):
        raise DimensionMismatch("samples differ in length")
    if len(set(samples)) != len(samples):
        raise BadParameter("duplicate sample")
    psi = np.zeros(2**width, dtype=complex)
    for s in samples:
        idx = int("".join(map(str, s)), 2)
        psi[idx] = 1.0
    return psi / np.linalg.norm(psi)


def bits_of(value: int, width: int) -> tuple[int, ...]:
    """Fixed-width big-endian bit tuple of an unsigned integer."""
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def phase_state(x) -> np.ndarray:
    """Product state of qubits cos(x_i)|0> + sin(x_i)|1>. Satisfies
    |<psi(x)|psi(y)>|^2 = prod cos^2(x_i - y_i)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = np.array([1.0], dtype=complex)
    for xi in x:
        psi = np.kron(psi, np.array([np.cos(xi), np.sin(xi)]))
    return psi


def phase_encode(x) -> np.ndarray:
    """`phase_state(x)` as a density matrix rho(x)."""
    psi = phase_state(x)
    return np.outer(psi, psi.conj())


# --- Hamiltonian-type encodings -------------------------------------------

def _z_weights(spec: EncodingSpec) -> list:
    """Weights w_q of the encoding generator G = sum_q w_q Z_q / 2 of a
    Hamiltonian-type spec, one qubit q per weight."""
    if spec.kind == "pauli":
        # one Pauli with eigenvalues +-gamma (default gamma = 1)
        return [2 * spec.params.get("gamma", 1.0)]
    if spec.kind == "pauli-parallel":
        return [1.0] * spec.params["r"]
    if spec.kind == "pauli-sequential":
        # sequential repeats reuse the single sigma_z/2 generator per layer
        return [1.0]
    if spec.kind == "exponential":
        if spec.params.get("l", 3) != 3:
            raise BadParameter("exponential encoding ships with l = 3")
        return [3.0 ** j for j in range(spec.params["N"])]
    raise BadParameter(f"{spec.kind!r} is not a Hamiltonian-type encoding")


def generator_eigenvalues(spec: EncodingSpec) -> np.ndarray:
    """Eigenvalues of the encoding generator G in U(x) = e^{-i x G}: the
    distinct sums of +-w_q/2."""
    sums = {0.0}
    for w in _z_weights(spec):
        sums = {s + sign * w / 2 for s in sums for sign in (-1, 1)}
    return np.array(sorted(sums))


def encoding_unitary(spec: EncodingSpec, x: float) -> np.ndarray:
    """The encoding gate e^{-i x G}: a tensor product of rz(w_q x)."""
    return sc.tensor(*(sc.rz(w * x) for w in _z_weights(spec)))


def frequency_spectrum(spec: EncodingSpec, layers: int = 1) -> np.ndarray:
    """Omega = {Lambda_k - Lambda_j} over L-fold sums of generator
    eigenvalues; sorted, symmetric, contains 0. Each weight w of the L-fold
    generator adds one of -w, 0, +w to a difference, so Omega is the
    Minkowski sum of the sets {-w, 0, +w}."""
    om = np.zeros(1)
    for w in _z_weights(spec) * (layers * _layer_reps(spec)):
        om = np.unique(np.round(om[:, None] + (-w, 0.0, w), 12))
    return om


# --- Fourier fitting ---------------------------------------------------------

def _fourier_split(model, omegas):
    """(coefficients {w: c_w} for w in Omega, off-spectrum power) of the
    2*pi-periodic model, from one DFT of K = 8*max|Omega| + 1 equispaced
    samples, so frequencies up to 4*max|Omega| are told apart from Omega."""
    omegas = np.asarray(omegas)
    ints = np.round(omegas).astype(int)
    if ints.size and np.abs(omegas - ints).max() > 1e-9:
        raise BadParameter("spectrum must be integer-valued for DFT fitting")
    K = 8 * int(np.abs(ints).max(initial=1)) + 1
    xs = 2 * np.pi * np.arange(K) / K
    fs = np.array([model(x) for x in xs], dtype=complex)
    dft = np.fft.fft(fs) / K  # coefficient of e^{i w x} sits at index w mod K
    all_c = {(i if i <= K // 2 else i - K): c for i, c in enumerate(dft)}
    coeffs = {int(w): complex(c) for w, c in all_c.items() if w in ints}
    off_power = sum(abs(c) ** 2 for w, c in all_c.items() if w not in ints)
    return coeffs, float(off_power)


def fit_fourier_coefficients(model, omegas) -> dict:
    """Fit f(x) = sum_w c_w e^{iwx} on an integer spectrum, from the grid
    of off_spectrum_power. Raises BadParameter when the off-spectrum power
    exceeds 1e-8 (the model has frequencies outside Omega)."""
    coeffs, off_power = _fourier_split(model, omegas)
    if off_power > 1e-8:
        raise BadParameter(
            f"off-spectrum power {off_power:.3e} exceeds tolerance"
        )
    return coeffs


def off_spectrum_power(model, omegas) -> float:
    """Squared coefficient mass outside the integer spectrum Omega."""
    return _fourier_split(model, omegas)[1]


def encoding_model(spec: EncodingSpec, trainables, observable,
                   layers: int = 1):
    """Build f(x) = <0| V(x)^dag O V(x) |0> with V(x) alternating trainable
    blocks and encoding gates.

    `trainables` is a list of layers+1 unitaries W_0 .. W_L; the circuit is
    W_L S(x) W_{L-1} ... S(x) W_0 (sequential repeats insert the single
    gate r times per layer with pass-through trainables when provided).
    """
    gates = [np.asarray(W, dtype=complex) for W in trainables]
    if len(gates) != layers * _layer_reps(spec) + 1:
        raise DimensionMismatch(
            f"need {layers * _layer_reps(spec) + 1} trainable blocks"
        )

    def f(x: float) -> float:
        S = encoding_unitary(spec, x)
        psi = np.zeros(gates[0].shape[0], dtype=complex)
        psi[0] = 1.0
        psi = gates[0] @ psi
        for W in gates[1:]:
            psi = W @ (S @ psi)
        return float(np.vdot(psi, observable @ psi).real)

    return f


def _layer_reps(spec: EncodingSpec) -> int:
    return spec.params["r"] if spec.kind == "pauli-sequential" else 1
