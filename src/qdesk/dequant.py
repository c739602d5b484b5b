"""Sample-and-query access and dequantized linear algebra primitives.

SQVector draws index i with probability |x_i|^2 / ||x||^2 from a guide
table over the prefix sums (the cutpoint method): O(N) setup, O(1) expected
work per draw, and for every uniform u the index a binary search of the
prefix sums would give. Entry and norm queries are O(1). dequant_inner
estimates x.y (with the convention x.y = sum conj(x_i) y_i) by a median of
bucketed means, and nearest_centroid builds the sketch-based classifier on
top of it. A small harness compares the estimator head-to-head with the
simulated quantum overlap test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algos
from .errors import BadParameter, EmptyClass, LengthMismatch, ZeroVector


class SQVector:
    """Sample-and-query access to a complex vector.

    Draws use the prefix sums cum[i] = sum_{k <= i} |x_k|^2 / ||x||^2 and a
    guide table over K = 2^ceil(log2 N) equal cells of [0, 1):
    guide[j] = #{i : cum[i] <= j/K}, j = 0..K. A draw u in cell
    j = floor(u K) has its answer #{i : cum[i] <= u} in
    [guide[j], guide[j + 1]]; K is a power of two, so u K and j/K are
    exact. One test of cum[guide[j]] settles most draws, and the rest
    bisect what is left of their cell. Setup is O(N), a draw O(1) expected
    work (the cell of a uniform u holds N/K <= 1 prefix sums on average)
    and O(log N) at worst, and the index is the one
    `searchsorted(cum, u, side="right")` gives."""

    def __init__(self, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 1 or not values.size:
            raise ZeroVector("need a nonempty 1-d vector")
        nrm2 = float(np.sum(np.abs(values) ** 2))
        if nrm2 == 0.0:
            raise ZeroVector("cannot sample from the zero vector")
        if not math.isfinite(nrm2):
            raise BadParameter("the squared norm of the vector is not finite")
        self.values = values
        self.norm = math.sqrt(nrm2)
        self._cum = np.cumsum(np.abs(values) ** 2) / nrm2
        self._cum[-1] = 1.0
        K = 1 << (values.size - 1).bit_length()
        # prefix sum i is counted from cell ceil(cum[i] K) on
        first = np.ceil(self._cum * K).astype(np.intp)
        self._guide = np.cumsum(np.bincount(first, minlength=K + 1)[:K + 1],
                                dtype=np.int32)  # counts up to 2^31 - 1

    def __len__(self):
        return self.values.size

    def query(self, i: int) -> complex:
        return complex(self.values[i])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.values) ** 2 / self.norm**2

    def sample(self, rng: np.random.Generator, size=None):
        """Index draws with P(i) = |x_i|^2 / ||x||^2, one uniform each, in
        the shape of `rng.random(size)`; size None gives a 0-d integer."""
        u = rng.random(size)
        flat = np.ravel(u)
        cell = (flat * (self._guide.size - 1)).astype(np.intp)
        idx = self._guide[cell].astype(np.intp)
        # draws past the first prefix sum of their cell: the answer is in
        # lo..hi, bisected until the interval closes
        todo = np.flatnonzero(self._cum[idx] <= flat)
        lo, hi, v = idx[todo] + 1, self._guide[cell[todo] + 1], flat[todo]
        while todo.size:
            mid = (lo + hi) >> 1
            above = self._cum[mid] <= v
            lo = np.where(above, mid + 1, lo)
            hi = np.where(above, hi, mid)
            idx[todo] = lo
            keep = lo < hi
            todo, lo, hi, v = todo[keep], lo[keep], hi[keep], v[keep]
        return idx.reshape(np.shape(u))[()]


@dataclass
class EstimatorConfig:
    """Median-of-means parameters: s = ceil(54/eps^2 log(2/delta)) total
    samples arranged as ceil(6 log(2/delta)) buckets of ceil(9/eps^2)."""

    epsilon: float
    delta: float
    sample_factor: float = 54.0
    bucket_factor: float = 6.0
    size_factor: float = 9.0

    @property
    def n_samples(self) -> int:
        return math.ceil(
            self.sample_factor / self.epsilon**2 * math.log(2 / self.delta)
        )

    @property
    def n_buckets(self) -> int:
        return math.ceil(self.bucket_factor * math.log(2 / self.delta))

    @property
    def bucket_size(self) -> int:
        return math.ceil(self.size_factor / self.epsilon**2)


def estimator_samples(xs: SQVector, y, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draws of z = (y_i / x_i) ||x||^2 with i ~ |x_i|^2/||x||^2; each has
    mean x.y = sum conj(x_i) y_i and variance at most ||x||^2 ||y||^2."""
    y = np.asarray(y, dtype=complex)
    if y.size != len(xs):
        raise LengthMismatch("vector lengths differ")
    idx = xs.sample(rng, n)
    return y[idx] / xs.values[idx] * xs.norm**2


def dequant_inner(xs: SQVector, y, cfg: EstimatorConfig,
                  rng: np.random.Generator) -> complex:
    """Median of bucket means (componentwise over real and imaginary
    parts) of the z-estimator."""
    y = np.asarray(y, dtype=complex)
    if y.size != len(xs):
        raise LengthMismatch("vector lengths differ")
    if not np.any(y):
        return 0.0 + 0.0j
    b, m = cfg.n_buckets, cfg.bucket_size
    z = estimator_samples(xs, y, b * m, rng).reshape(b, m)
    means = z.mean(axis=1)
    return complex(np.median(means.real) + 1j * np.median(means.imag))


def enumerate_estimator_mean(x, y) -> complex:
    """E[z] by exact enumeration over the sampling law (unbiasedness
    oracle)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    p = np.abs(x) ** 2 / np.sum(np.abs(x) ** 2)
    nrm2 = np.sum(np.abs(x) ** 2)
    mean = 0.0 + 0.0j
    for i in range(x.size):
        if p[i] > 0:
            mean += p[i] * (y[i] / x[i]) * nrm2
    return complex(mean)


def enumerate_estimator_variance(x, y) -> float:
    """E|z - E z|^2 by enumeration; bounded by ||x||^2 ||y||^2."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    p = np.abs(x) ** 2 / np.sum(np.abs(x) ** 2)
    nrm2 = np.sum(np.abs(x) ** 2)
    mean = enumerate_estimator_mean(x, y)
    var = 0.0
    for i in range(x.size):
        if p[i] > 0:
            var += p[i] * abs((y[i] / x[i]) * nrm2 - mean) ** 2
    return float(var)


# --- nearest centroid ---------------------------------------------------------

def nearest_centroid(train_X, train_y, test_x, cfg=None,
                     rng: np.random.Generator | None = None):
    """Classify by smallest ||test - centroid_c||^2, expanded as
    ||t||^2 - 2 Re(t . c) + ||c||^2 with the cross term estimated by
    dequant_inner when a config is given (exact otherwise)."""
    test_x = np.asarray(test_x, dtype=complex)
    labels = sorted(set(train_y))
    if not labels:
        raise EmptyClass("no training data")
    xs = SQVector(test_x) if cfg is not None else None
    best_label, best_d = None, np.inf
    for lab in labels:
        members = [np.asarray(v, dtype=complex)
                   for v, l in zip(train_X, train_y) if l == lab]
        if not members:
            raise EmptyClass(f"class {lab!r} has no members")
        c = np.mean(members, axis=0)
        if cfg is None:
            cross = np.vdot(test_x, c)
        else:
            cross = dequant_inner(xs, c, cfg, rng)
        d = (np.linalg.norm(test_x) ** 2 - 2 * cross.real
             + np.linalg.norm(c) ** 2)
        if d < best_d:
            best_d, best_label = d, lab
    return best_label


# --- quantum vs dequantized head-to-head ----------------------------------------

def quantum_vs_dequant_harness(x, y, shot_budgets, cfgs,
                               rng: np.random.Generator,
                               trials: int = 32):
    """Error-vs-resource rows for the simulated overlap test and the
    classical sketch estimator.

    x, y must be unit vectors (quantum side estimates |<x|y>|^2; the
    classical side estimates x.y and squares its magnitude). Returns a
    list of dicts with keys method, resources, error."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    truth = abs(np.vdot(x, y)) ** 2
    rows = []
    for shots in shot_budgets:
        errs = []
        for _ in range(trials):
            ov = algos.overlap_test(x, y, shots, rng)
            errs.append(abs(ov - truth))
        rows.append({"method": "quantum-overlap", "resources": int(shots),
                     "error": float(np.mean(errs))})
    xs = SQVector(x)
    for cfg in cfgs:
        errs = []
        for _ in range(trials):
            est = dequant_inner(xs, y, cfg, rng)
            errs.append(abs(abs(est) ** 2 - truth))
        rows.append({
            "method": "dequant-inner",
            "resources": cfg.n_buckets * cfg.bucket_size,
            "error": float(np.mean(errs)),
        })
    return rows


def loglog_slope(resources, errors) -> float:
    return float(np.polyfit(np.log(resources), np.log(errors), 1)[0])
