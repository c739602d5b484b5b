"""Tensor-network toolkit.

MPS factorization by successive SVD, three norm-contraction schedules with
operation-count telemetry, graph coloring by tensor contraction, and an
MPS-structured projector model for anomaly detection.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadParameter, DimensionMismatch, TargetOutOfRange,
                     _check_counts)
from .qprob import _svd_cut
from .varqml import _row_differences


@dataclass
class MPS:
    """Chain of rank-3 cores A^j with shapes (D_{j-1}, d_j, D_j),
    D_0 = D_N = 1."""

    tensors: list = field(default_factory=list)

    def __post_init__(self):
        left = 1
        for A in self.tensors:
            if A.ndim != 3 or A.shape[0] != left:
                raise DimensionMismatch("bond dimensions do not chain")
            left = A.shape[2]
        if self.tensors and left != 1:
            raise DimensionMismatch("final bond dimension must be 1")

    @property
    def bond_dims(self) -> list:
        return [A.shape[2] for A in self.tensors[:-1]]

    def to_dense(self) -> np.ndarray:
        """Contract to the full tensor (exponential; small N only)."""
        return _chain(self.tensors)


def _chain(cores) -> np.ndarray:
    """Cores (Dl, ..., Dr), D_0 = D_N = 1, contracted over their bonds by
    one reshape and matmul each: one axis per leg, in site order."""
    out = cores[0][0]
    for A in cores[1:]:
        out = out.reshape(-1, A.shape[0]) @ A.reshape(A.shape[0], -1)
    return out.reshape([n for A in cores for n in A.shape[1:-1]])


def _env_step(env, A, Dr: int) -> np.ndarray:
    """A left environment (..., Dl, Dl), indexed (ket, bra; the bra leg
    conjugated), over one core (..., Dl, p * Dr): the next, (..., Dr, Dr)."""
    tmp = (env @ A.conj()).reshape(*A.shape[:-2], -1, Dr)
    return A.reshape(tmp.shape).swapaxes(-1, -2) @ tmp


def mps_from_tensor(T: np.ndarray, Dmax: int | None = None) -> MPS:
    """Successive reshape-and-SVD factorization, keeping at most Dmax
    singular values per cut (qprob._svd_cut, as schmidt_decompose)."""
    T = np.asarray(T, dtype=complex)
    if T.ndim < 2:
        raise DimensionMismatch("need at least two legs")
    cores = []
    rest = T.reshape(1, -1)
    left = 1
    for d in T.shape[:-1]:
        U, s, Vh = _svd_cut(rest.reshape(left * d, -1), Dmax)
        cores.append(U.reshape(left, d, len(s)))
        rest = s[:, None] * Vh
        left = len(s)
    cores.append(rest.reshape(left, T.shape[-1], 1))
    return MPS(cores)


def mps_norm(mps: MPS, scheme: str = "sequential",
             return_ops: bool = False):
    """L2 norm of the encoded tensor.

    naive: dense reconstruction, exponential in N;
    parallel: binary tree over D^2 x D^2 transfer matrices,
    O(log N * D^6) depth;
    sequential: left-to-right boundary sweep, O(N d D^3).
    Ops count multiply-adds, a * b * c per (a, b) @ (b, c) product."""
    ops = 0
    if scheme == "naive":
        rows = mps.tensors[0].shape[1]  # rows of each product in _chain
        for A in mps.tensors[1:]:
            ops += rows * A.size
            rows *= A.shape[1]
        ops += rows  # one per entry of the dense tensor
        val = float(np.linalg.norm(_chain(mps.tensors)))
    elif scheme == "parallel":
        mats = []
        for A in mps.tensors:
            Dl, d, Dr = A.shape
            # transfer matrix E = sum_s conj(A^s) (x) A^s
            E = np.einsum("ldr,LdR->lLrR", A.conj(), A).reshape(
                Dl * Dl, Dr * Dr
            )
            ops += Dl * Dl * Dr * Dr * d
            mats.append(E)
        while len(mats) > 1:
            pairs = list(zip(mats[::2], mats[1::2]))
            ops += sum(a.size * b.shape[1] for a, b in pairs)
            mats = [a @ b for a, b in pairs] + mats[2 * len(pairs):]
        val = float(np.sqrt(max(mats[0][0, 0].real, 0.0)))
    elif scheme == "sequential":
        env = np.ones((1, 1), dtype=complex)
        for A in mps.tensors:
            Dl, d, Dr = A.shape
            ops += A.size * (Dl + Dr)
            env = _env_step(env, A.reshape(Dl, d * Dr), Dr)
        val = float(np.sqrt(max(env[0, 0].real, 0.0)))
    else:
        raise BadParameter(f"unknown scheme {scheme!r}")
    return (val, ops) if return_ops else val


# --- graph coloring ----------------------------------------------------------

# entries of the largest factor the elimination may build: 512 MB of float64
MAX_FACTOR = 2**26


def count_colorings(edges, n_vertices: int, d: int) -> int:
    """Number of proper d-colorings, contracted as a tensor network with
    one color index per vertex and a difference-indicator matrix eta per
    edge.

    Vertices are summed out one at a time, each time the one whose
    elimination leaves the smallest factor (ties go to the lower index): one
    einsum contracts the factors that touch it. Raises BadParameter before
    a factor of more than MAX_FACTOR entries would be built, and after an
    einsum that builds an entry of 2^53 or more, past which float64 no
    longer holds every integer. All entries are non-negative integers, so
    every partial sum and product of an einsum lies at or below the entry
    it ends in: a count that returns is exact. A d that is not an integer
    >= 1 raises BadParameter."""
    _check_counts(d=d)
    letters = "abcdefghijklmnopqrstuvwxyz"
    if n_vertices > len(letters):
        raise BadParameter("too many vertices")
    if any(not 0 <= v < n_vertices for e in edges for v in e):
        raise TargetOutOfRange(f"an edge leaves vertices 0..{n_vertices - 1}")
    eta = np.ones((d, d)) - np.eye(d)
    factors = {}  # sorted vertex tuple -> tensor with one axis per vertex

    def add(scope, t):
        factors[scope] = factors[scope] * t if scope in factors else t

    for e in edges:
        i, j = sorted(e)
        if i == j:  # a loop admits no coloring
            add((i,), np.zeros(d))
        else:
            add((i, j), eta)
    count = 1
    remaining = set(range(n_vertices))
    while remaining:
        scopes = {u: set().union(*(k for k in factors if u in k)) - {u}
                  for u in sorted(remaining)}
        v = min(scopes, key=lambda u: len(scopes[u]))
        remaining.remove(v)
        scope = tuple(sorted(scopes[v]))
        out = "".join(letters[u] for u in scope)
        if d ** len(out) > MAX_FACTOR:
            raise BadParameter(
                f"summing out vertex {v} builds a factor of {d}^{len(out)} "
                f"entries, more than {MAX_FACTOR}")
        touching = [k for k in factors if v in k]
        if not touching:
            count *= d
            continue
        spec = ",".join("".join(letters[u] for u in k) for k in touching)
        t = np.einsum(f"{spec}->{out}", *(factors.pop(k) for k in touching))
        if not t.max() < 2.0**53:  # a nan from inf * 0 raises too
            raise BadParameter(
                f"summing out vertex {v} gives a partial count of 2^53 or "
                "more, which float64 does not hold exactly")
        if scope:
            add(scope, t)
        else:  # a connected component is summed out
            count *= int(round(float(t)))
    return count


def count_colorings_brute_force(edges, n_vertices: int, d: int) -> int:
    total = 0
    for coloring in itertools.product(range(d), repeat=n_vertices):
        if all(coloring[i] != coloring[j] for i, j in edges):
            total += 1
    return total


# --- anomaly detection -------------------------------------------------------

def trig_embedding(x, d: int = 2) -> np.ndarray:
    """Unit-norm feature vector of one site, as _features maps it; d=2 is
    (cos, sin)."""
    return _features([float(x)], d)[0, 0]


@dataclass
class ProjectorMPS:
    """MPS-structured linear map from (C^d)^N to (C^d)^{#outputs}, given
    by its cores alone: (Dl, d_in, d, Dr) carries an output leg and
    (Dl, d_in, Dr) is a bond carrier. With outputs on every S-th site the
    rank is at most d^{floor(N/S)}, so the kernel has at least
    d^N - d^{floor(N/S)} >= d^{N - floor(N/S)} dimensions. Cores of other
    shapes, or whose bonds do not chain, raise DimensionMismatch."""

    cores: list

    def __post_init__(self):
        d = self.cores[0].shape[1:2] if self.cores else ()
        if not d or any(c.shape[1:-1] not in (d, d * 2) for c in self.cores):
            raise DimensionMismatch("cores must be (Dl, d, [d,] Dr)")
        MPS([c.reshape(c.shape[0], -1, c.shape[-1]) for c in self.cores])

    @property
    def d(self) -> int:
        return self.cores[0].shape[1]

    def apply(self, features, return_ops: bool = False):
        """Contract the input leg of each core with its site's feature
        vector; returns the MPS of the results, (Dl, d, Dr) at an output
        site and (Dl, 1, Dr) at a carrier. Anything but one length-d
        feature vector per site raises DimensionMismatch. Ops count the
        multiply-adds, one per core entry."""
        if len(features) != len(self.cores) or any(
                np.shape(phi) != (self.d,) for phi in features):
            raise DimensionMismatch(f"need {len(self.cores)} feature "
                                    f"vectors of length {self.d}")
        out = [np.tensordot(c, phi, axes=(1, 0))  # (Dl, [d_out,] Dr)
               for c, phi in zip(self.cores, features)]
        mps = MPS([A.reshape(len(A), -1, A.shape[-1]) for A in out])
        return (mps, sum(c.size for c in self.cores)) if return_ops else mps


def projector_to_dense(model: ProjectorMPS) -> np.ndarray:
    """Dense (d^{#outputs}, d^N) matrix of the projector map, indices
    big-endian over sites (small N only): the cores contracted over their
    bonds, output legs moved ahead of the input legs."""
    ins, outs = [], []
    for core in model.cores:
        ins.append(len(ins) + len(outs))  # the axis of its input leg
        if core.ndim == 4:
            outs.append(ins[-1] + 1)
    T = _chain(model.cores).transpose(outs + ins)
    return T.reshape(model.d ** len(outs), -1)


def projector_frobenius(model: ProjectorMPS) -> float:
    """||P||_F: the sequential mps_norm of the cores with both physical
    legs merged into one, (Dl, d * d_out, Dr)."""
    return mps_norm(MPS([c.reshape(c.shape[0], -1, c.shape[-1])
                         for c in model.cores]))


def anomaly_score(model: ProjectorMPS, x) -> float:
    """||P Phi(x)||_2: the square root of D(x), read from the fit's sweep
    (_sweeps) of the model's one row over the one sample x."""
    D, _ = _sweeps(_flatten(model.cores)[None], _features([x], model.d),
                   model.cores)
    return float(np.sqrt(max(D[0, 0], 0.0)))


def _random_projector(N: int, S: int, d: int, D: int,
                      rng: np.random.Generator) -> ProjectorMPS:
    _check_counts(S=S, d=d, D=D)
    cores = []
    left = 1
    for p in range(N):
        right = 1 if p == N - 1 else D
        if (p + 1) % S == 0:
            cores.append(rng.normal(scale=0.5, size=(left, d, d, right))
                         + 0j)
        else:
            cores.append(rng.normal(scale=0.5, size=(left, d, right)) + 0j)
        left = right
    return ProjectorMPS(cores)


def _flatten(cores):
    return np.concatenate([c.ravel() for c in cores])


def _unflatten(vec, template):
    out = []
    pos = 0
    for c in template:
        n = c.size
        out.append(vec[pos:pos + n].reshape(c.shape))
        pos += n
    return out


# parameter rows x samples contracted at once: bounds the sweep's memory
_SWEEP_BUDGET = 4096


def _features(samples, d: int) -> np.ndarray:
    """cos(pi x / 2 - pi k / d), k = 0..d-1, normalised, for every site x
    of every sample: shape (M, N, d). The one feature map of the model."""
    if len({np.size(x) for x in samples}) != 1:
        raise DimensionMismatch("need samples, all of one length")
    x = np.array([np.atleast_1d(xi) for xi in samples], dtype=float)
    v = np.cos(np.pi * x[..., None] / 2 - np.pi * np.arange(d) / d)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _sweeps(rows, feats, template):
    """D(x) = ||P Phi(x)||^2, shape (B, M), and ||P||_F^2, shape (B,), of
    every row of `rows` (B, P), each row the flattened cores of a projector
    shaped like `template`, over embedded samples `feats` (M, N, d).

    One left-to-right sweep carries, per row, an (M, Dl, Dl) environment
    for D(x) and a (Dl, Dl) one for ||P||_F^2, each extended by _env_step.
    A site costs O(d d_out D^2 + d_out D^3) per row and sample. Output
    sites are read from the core shapes, as in ProjectorMPS.apply."""
    M, N, d = feats.shape
    if len(template) != N or any(c.shape[1] != d for c in template):
        raise DimensionMismatch(
            f"model of {len(template)} sites does not take samples of "
            f"{N} sites with {d} features")
    chunk = max(1, _SWEEP_BUDGET // M)
    Ds, fros = [], []
    for start in range(0, len(rows), chunk):
        part = rows[start:start + chunk]
        B = len(part)
        env = np.ones((B, M, 1, 1))
        fro = np.ones((B, 1, 1))
        pos = 0
        for core, f in zip(template, feats.transpose(1, 0, 2)):
            Dl, Dr = core.shape[0], core.shape[-1]
            C = part[:, pos:pos + core.size].reshape(B, Dl, d, -1)
            pos += core.size
            # ||P||_F^2: both physical legs summed
            fro = _env_step(fro, C.reshape(B, Dl, -1), Dr)
            # D(x): input leg contracted with the features of each sample
            # (B, M, Dl, d_out * Dr), d_out = 1 off the output sites
            env = _env_step(env, (f @ C).swapaxes(1, 2), Dr)
        Ds.append(env[:, :, 0, 0].real)
        fros.append(fro[:, 0, 0].real)
    return np.concatenate(Ds), np.concatenate(fros)


def _batched_loss(thetas, feats, template, alpha: float) -> np.ndarray:
    """anomaly_loss of every row of `thetas` (B, P) over embedded samples
    `feats` (M, N, d), from _sweeps. Returns shape (B,)."""
    D, fro = _sweeps(thetas, feats, template)
    loss = np.abs(np.log(np.maximum(D, 1e-300)) - 1.0).mean(axis=1)
    if alpha:
        loss += alpha * np.log(np.maximum(np.sqrt(np.maximum(fro, 0.0)),
                                          1e-300))
    return loss


def anomaly_loss(model: ProjectorMPS, train, alpha: float) -> float:
    """L = (1/M) sum_x |log D(x) - 1| + alpha log ||P||_F with
    D(x) = ||P Phi(x)||_2^2, so the per-sample optimum sits at
    ||P Phi(x)|| = sqrt(e)."""
    theta = _flatten(model.cores)[None]
    return float(_batched_loss(theta, _features(train, model.d),
                               model.cores, alpha)[0])


def anomaly_fit(train, S: int, alpha: float, d: int = 2, D: int = 2,
                steps: int = 200, lr: float = 0.5,
                rng: np.random.Generator | None = None,
                model: ProjectorMPS | None = None):
    """Gradient descent with backtracking on the projector cores; the
    accepted-step loss sequence is non-increasing.

    The samples are embedded once. Each step's central-difference gradient
    over the P real core entries is one batched sweep over the N sites
    (`_batched_loss`) of the 2P rows theta +- h e_i; each
    line-search candidate is a one-row sweep. A given `model` must have
    real cores and N sites of input dimension d. S, d and D must be
    integers >= 1.

    Returns (model, loss history)."""
    _check_counts(S=S, d=d, D=D)
    rng = rng or np.random.default_rng()
    feats = _features(train, d)
    if model is None:
        model = _random_projector(feats.shape[1], S, d, D, rng)
    theta = _flatten(model.cores)
    if np.any(theta.imag != 0):
        raise BadParameter("anomaly_fit fits real cores; the model's "
                           "cores have imaginary parts")
    theta = theta.real
    template = model.cores

    def loss(rows):
        return _batched_loss(rows, feats, template, alpha)

    history = [float(loss(theta[None])[0])]
    step = lr
    h = 1e-6
    for _ in range(steps):
        g = _row_differences(loss, theta, h) / (2 * h)
        gn = np.linalg.norm(g)
        if gn < 1e-12:
            break
        accepted = False
        while step > 1e-10:
            cand = theta - step * g
            lc = float(loss(cand[None])[0])
            if lc <= history[-1]:
                theta = cand
                history.append(lc)
                accepted = True
                step = min(step * 1.5, lr)
                break
            step /= 2
        if not accepted:
            break
    cores = [c.astype(complex) for c in _unflatten(theta, template)]
    return ProjectorMPS(cores), history
