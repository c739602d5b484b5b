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
from .errors import BadParameter, DimensionMismatch, _check_counts

_GUIDE_CELLS = 4  # K = 4 * 2^ceil(log2 N) guide cells; 16x was slower
_MEDIAN_BLOCK = 256  # sketches whose bucket means share one np.median call


class SQVector:
    """Sample-and-query access to a complex vector.

    Draws use the prefix sums cum[i] = sum_{k <= i} |x_k|^2 / ||x||^2, set
    to 1 from the last entry of nonzero weight on, and a guide table over
    K = 4 * 2^ceil(log2 N) equal cells of [0, 1):
    guide[j] = #{i : cum[i] <= j/K}, j = 0..K. A draw u in cell
    j = floor(u K) has its answer #{i : cum[i] <= u} in
    [guide[j], guide[j + 1]]; K is a power of two, so u K and j/K are
    exact. One test of cum[guide[j]] settles most draws, and the rest
    bisect what is left of their cell. Setup is O(N), a draw O(1) expected
    work (the cell of a uniform u holds N/K <= 1/4 prefix sums on average)
    and O(log N) at worst, and the index is the one
    `searchsorted(cum, u, side="right")` gives, never an entry of zero
    weight. The guide holds K + 1 int32 counts, 16 MiB at N = 2^20."""

    def __init__(self, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 1 or not values.size:
            raise BadParameter("need a nonempty 1-d vector")
        weights = np.abs(values) ** 2
        nrm2 = float(np.sum(weights))
        if nrm2 == 0.0:
            raise BadParameter("cannot sample from the zero vector")
        if not math.isfinite(nrm2):
            raise BadParameter("the squared norm of the vector is not finite")
        self.values = values
        self.norm = math.sqrt(nrm2)
        # a prefix sum can round above 1, which no uniform reaches either
        # way, or below 1 at the last weighted entry, where a draw above it
        # must not reach the zero-weight entries after it
        self._cum = np.minimum(np.cumsum(weights) / nrm2, 1.0)
        self._cum[np.flatnonzero(weights)[-1]:] = 1.0
        K = _GUIDE_CELLS << (values.size - 1).bit_length()
        # prefix sum i is counted from cell first[i] = ceil(cum[i] K) on, so
        # guide[j] = i from cell first[i - 1] up to cell first[i]
        first = np.ceil(self._cum * K).astype(np.intp)
        self._guide = np.repeat(np.arange(values.size + 1, dtype=np.int32),
                                np.diff(first, prepend=0, append=K + 1))

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
        while True:
            idx[todo] = lo
            keep = lo < hi  # lo == hi is the answer, as in most cells
            todo, lo, hi, v = todo[keep], lo[keep], hi[keep], v[keep]
            if not todo.size:
                return idx.reshape(np.shape(u))[()]
            mid = (lo + hi) >> 1
            above = self._cum[mid] <= v
            lo = np.where(above, mid + 1, lo)
            hi = np.where(above, hi, mid)


BUCKET_FACTOR = 6.0
SIZE_FACTOR = 9.0


@dataclass
class EstimatorConfig:
    """Median-of-means parameters: b = ceil(6 log(2/delta)) buckets of
    m = ceil(9/eps^2) samples, so the sketch draws b m samples in all.
    Raises BadParameter unless eps is finite and > 0 and 0 < delta < 1."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0
                and 0 < self.delta < 1):
            raise BadParameter(f"need a finite epsilon > 0 and 0 < delta < 1,"
                               f" got {self.epsilon!r} and {self.delta!r}")

    @property
    def n_buckets(self) -> int:
        return math.ceil(BUCKET_FACTOR * math.log(2 / self.delta))

    @property
    def bucket_size(self) -> int:
        # every eps >= 3 gives m = 1; the cap keeps eps^2 from overflowing
        return math.ceil(SIZE_FACTOR / min(self.epsilon, 3.0)**2)


def _ratios(xs: SQVector, y) -> np.ndarray:
    """r_i = (y_i / x_i) ||x||^2, the z-estimator's value at a draw of i;
    0 where x_i = 0, since such an i is never drawn."""
    y = np.asarray(y, dtype=complex)
    if y.size != len(xs):
        raise DimensionMismatch("vector lengths differ")
    r = np.divide(y, xs.values, out=np.zeros(len(xs), dtype=complex),
                  where=xs.values != 0)
    r *= xs.norm**2
    return r


def _sketches(xs: SQVector, r: np.ndarray, cfg: EstimatorConfig,
              rng: np.random.Generator, trials: int) -> np.ndarray:
    """`trials` median-of-means estimates of x.y, drawn one after another:
    each takes b m draws of i, the means of r over b buckets of m, and the
    median of their real and imaginary parts."""
    b, m = cfg.n_buckets, cfg.bucket_size
    est = np.empty(trials, dtype=complex)
    for start in range(0, trials, _MEDIAN_BLOCK):
        means = np.empty((min(trials - start, _MEDIAN_BLOCK), b),
                         dtype=complex)
        for row in means:
            np.mean(r[xs.sample(rng, b * m)].reshape(b, m), axis=1, out=row)
        est[start:start + len(means)] = (np.median(means.real, axis=1)
                                         + 1j * np.median(means.imag, axis=1))
    return est


def estimator_samples(xs: SQVector, y, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draws of z = (y_i / x_i) ||x||^2 with i ~ |x_i|^2/||x||^2; each has
    mean x.y = sum conj(x_i) y_i and variance at most ||x||^2 ||y||^2."""
    return _ratios(xs, y)[xs.sample(rng, n)]


def dequant_inner(xs: SQVector, y, cfg: EstimatorConfig,
                  rng: np.random.Generator) -> complex:
    """Median of bucket means (componentwise over real and imaginary
    parts) of the z-estimator."""
    r = _ratios(xs, y)
    if not np.any(y):
        return 0.0 + 0.0j
    return complex(_sketches(xs, r, cfg, rng, 1)[0])


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
    """Oracle for the ||x||^2 ||y||^2 variance bound that the sketch's
    bucket size rests on: E|z - E z|^2 by enumeration."""
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
    dequant_inner when a config is given (exact otherwise). A config
    needs an rng to draw from; without one, BadParameter is raised."""
    if cfg is not None and rng is None:
        raise BadParameter("nearest_centroid needs an rng with a cfg")
    test_x = np.asarray(test_x, dtype=complex)
    labels = sorted(set(train_y))
    if not labels:
        raise BadParameter("no training data")
    xs = SQVector(test_x) if cfg is not None else None
    best_label, best_d = None, np.inf
    for lab in labels:
        members = [np.asarray(v, dtype=complex)
                   for v, l in zip(train_X, train_y) if l == lab]
        if not members:
            raise BadParameter(f"class {lab!r} has no members")
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
    list of dicts with keys method, resources, error; raises BadParameter,
    before any draw, unless trials is an integer >= 1."""
    _check_counts(trials=trials)
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
    r = _ratios(xs, y)
    for cfg in cfgs:
        est = (_sketches(xs, r, cfg, rng, trials) if np.any(y)
               else np.zeros(trials, dtype=complex))
        # Python float arithmetic, as on the result of one dequant_inner call
        errs = np.fromiter((abs(abs(complex(e)) ** 2 - truth) for e in est),
                           dtype=float, count=trials)
        rows.append({
            "method": "dequant-inner",
            "resources": cfg.n_buckets * cfg.bucket_size,
            "error": float(np.mean(errs)),
        })
    return rows


def loglog_slope(resources, errors) -> float:
    return float(np.polyfit(np.log(resources), np.log(errors), 1)[0])
