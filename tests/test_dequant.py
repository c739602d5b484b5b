"""Sample-and-query vectors, the median-of-means inner-product sketch,
nearest-centroid classification, and the error-vs-resource comparison with
the simulated overlap test."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdesk import dequant
from qdesk.errors import BadParameter, DimensionMismatch


def random_unit(n, rng):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


class TestSQVector:
    def test_norm_and_query(self):
        xs = dequant.SQVector([3.0, 4.0j])
        assert xs.norm == pytest.approx(5.0)
        assert xs.query(1) == 4.0j
        assert np.abs(xs.probabilities() - [0.36, 0.64]).max() < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(BadParameter, match="from the zero vector"):
            dequant.SQVector([0.0, 0.0])
        with pytest.raises(BadParameter, match="nonempty 1-d vector"):
            dequant.SQVector([])

    def test_sampling_law(self):
        rng = np.random.default_rng(0)
        xs = dequant.SQVector([1.0, 2.0, 0.0, 1.0])
        n = 200_000
        counts = np.bincount(xs.sample(rng, n), minlength=4) / n
        p = xs.probabilities()
        assert counts[2] == 0
        # 5 sigma per component
        for k in range(4):
            sigma = math.sqrt(p[k] * (1 - p[k]) / n)
            assert abs(counts[k] - p[k]) <= 5 * max(sigma, 1e-12)

    # entries below ~1e-154 square-underflow to a zero norm, which is the
    # (correct) ZeroVector case, not this property
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1,
                    max_size=12).filter(
                        lambda v: any(abs(x) > 1e-150 for x in v)))
    @settings(max_examples=60, deadline=None)
    def test_probabilities_sum_to_one(self, values):
        xs = dequant.SQVector(values)
        assert np.sum(xs.probabilities()) == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_norm_rejected(self):
        with pytest.raises(BadParameter):
            dequant.SQVector([np.inf, 1.0])
        with pytest.raises(BadParameter):
            dequant.SQVector([np.nan, 1.0])

    # magnitudes 10^-d..10^d for d up to 60, so their squares and sums stay
    # finite; a share of the entries is zero
    @given(st.integers(1, 2048), st.floats(0, 60), st.floats(0, 0.9),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_sample_is_the_binary_search_index(self, N, decades, zeros, s):
        rng = np.random.default_rng(s)
        x = 10.0 ** rng.uniform(-decades, decades, N) \
            * np.exp(2j * np.pi * rng.random(N))
        x[rng.random(N) < zeros] = 0
        x[rng.integers(N)] = 1.0
        xs = dequant.SQVector(x)
        got = xs.sample(np.random.default_rng(s), 4000)
        want = np.searchsorted(xs._cum, np.random.default_rng(s).random(4000),
                               side="right")
        assert got.dtype == np.intp
        assert np.array_equal(got, want)

    def test_sample_at_cell_edges_and_prefix_sums(self):
        class Fixed:  # a generator whose uniforms are given
            def __init__(self, u):
                self.u = u

            def random(self, size):
                return self.u

        # the cell edges j/K of the table, the edges j/N of a table of N
        # cells, where u N and j/N can round, and the prefix sums themselves;
        # the last vector's prefix sums round to 1 + 2^-52 before its end
        for values in ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 2.0],
                       [0.0, 3.0, 0.0, 0.0, 1.0], [1.0], [1.0] * 6,
                       [1.0] * 11, [1.0, 2.0, 0.0, 0.0],
                       [0.0] * 5 + [1.7487927705282176, 2.0,
                                    2.504469600436428, 5.934211590639876e-09]):
            xs = dequant.SQVector(values)
            N = len(values)
            K = xs._guide.size - 1
            edges = np.concatenate([np.arange(K) / K, np.arange(N) / N,
                                    xs._cum[:-1]])
            u = np.concatenate([edges, np.nextafter(edges, 1),
                                np.nextafter(edges, 0), [1 - 2**-53]])
            u = u[(u >= 0) & (u < 1)]
            want = np.searchsorted(xs._cum, u, side="right")
            assert np.array_equal(xs.sample(Fixed(u), u.size), want)

    def test_draw_above_the_last_rounded_prefix_sum(self):
        # the prefix sum at entry 38 rounds to 1 - 2^-52; the largest
        # uniform lies above it and must still draw an entry of weight
        class Top:
            def random(self, size):
                return np.full(size, 1 - 2**-53)

        values = [1 / 3] * 39 + [0.0]
        w = np.abs(np.asarray(values, dtype=complex)) ** 2
        assert np.cumsum(w)[38] / np.sum(w) < 1
        xs = dequant.SQVector(values)
        assert xs.sample(Top(), 1)[0] == 38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = dequant.estimator_samples(xs, np.ones(40), 1, Top())
        assert np.isfinite(z).all()

    def test_size_none_is_the_first_draw(self):
        xs = dequant.SQVector(np.arange(1.0, 40.0))
        for s in range(5):
            one = xs.sample(np.random.default_rng(s))
            assert np.ndim(one) == 0 and isinstance(one, np.integer)
            assert one == xs.sample(np.random.default_rng(s), 3)[0]

    def test_tuple_size_shape(self):
        xs = dequant.SQVector(np.arange(1.0, 40.0))
        got = xs.sample(np.random.default_rng(1), (5, 3))
        assert got.shape == (5, 3)
        assert np.array_equal(
            got, xs.sample(np.random.default_rng(1), 15).reshape(5, 3))


class TestEstimatorConfig:
    def test_counts(self):
        cfg = dequant.EstimatorConfig(0.1, 0.05)
        assert cfg.n_buckets == math.ceil(6 * math.log(2 / 0.05))
        assert cfg.bucket_size == math.ceil(9 / 0.01)

    @pytest.mark.parametrize("epsilon", [3.0, 4.5, 1e154, 1e200, 1e308])
    def test_large_epsilon_takes_one_sample_per_bucket(self, epsilon):
        # eps^2 overflows a float above about 1.3e154
        assert dequant.EstimatorConfig(epsilon, 0.05).bucket_size == 1

    @pytest.mark.parametrize("epsilon, delta", [
        (0.0, 0.05), (-0.5, 0.05), (math.inf, 0.05), (math.nan, 0.05),
        (0.1, 0.0), (0.1, 1.0), (0.1, 3.0), (0.1, -0.1), (0.1, math.nan),
    ])
    def test_bad_parameters_rejected(self, epsilon, delta):
        with pytest.raises(BadParameter):
            dequant.EstimatorConfig(epsilon, delta)


class TestInnerEstimator:
    def test_unbiased_by_enumeration(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 8, 16):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert enumerated_ok(x, y)

    def test_unbiased_with_zero_components(self):
        x = np.array([1.0, 0.0, 2.0])
        y = np.array([0.5, 7.0, -1.0])  # y on the null support is never drawn
        mean = dequant.enumerate_estimator_mean(x, y)
        assert mean == pytest.approx(np.vdot(x, y), abs=1e-12)

    def test_variance_bound_100_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            var = dequant.enumerate_estimator_variance(x, y)
            bound = np.linalg.norm(x) ** 2 * np.linalg.norm(y) ** 2
            assert var <= bound + 1e-9

    def test_length_mismatch(self):
        xs = dequant.SQVector([1.0, 1.0])
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionMismatch, match="vector lengths differ"):
            dequant.estimator_samples(xs, [1.0], 4, rng)
        with pytest.raises(DimensionMismatch, match="vector lengths differ"):
            dequant.dequant_inner(xs, [1.0, 1.0, 1.0],
                                  dequant.EstimatorConfig(0.5, 0.2), rng)

    def test_zero_y_exact(self):
        xs = dequant.SQVector([1.0, 2.0])
        rng = np.random.default_rng(4)
        cfg = dequant.EstimatorConfig(0.5, 0.2)
        assert dequant.dequant_inner(xs, [0.0, 0.0], cfg, rng) == 0.0

    def test_failure_rate_within_guarantee(self):
        # P(|est - x.y| > eps ||x|| ||y||) <= delta; 2000 trials at
        # (eps, delta) = (0.1, 0.05)
        rng = np.random.default_rng(5)
        x = random_unit(32, rng)
        y = random_unit(32, rng)
        xs = dequant.SQVector(x)
        cfg = dequant.EstimatorConfig(0.1, 0.05)
        truth = np.vdot(x, y)
        fails = sum(
            abs(dequant.dequant_inner(xs, y, cfg, rng) - truth) > 0.1
            for _ in range(2000)
        )
        assert fails / 2000 <= 0.05


def loop_inner(xs, y, cfg, rng):
    """One median-of-means sketch in plain numpy, the kernel's reference:
    b m draws, z = (y_i / x_i) ||x||^2 per draw, b bucket means and the
    median of their real and imaginary parts."""
    b, m = cfg.n_buckets, cfg.bucket_size
    idx = xs.sample(rng, b * m)
    z = (y[idx] / xs.values[idx] * xs.norm**2).reshape(b, m)
    means = z.mean(axis=1)
    return complex(np.median(means.real) + 1j * np.median(means.imag))


def enumerated_ok(x, y):
    return dequant.enumerate_estimator_mean(x, y) == pytest.approx(
        np.vdot(x, y), abs=1e-10
    )


class TestNearestCentroid:
    def test_exact_mode(self):
        X = [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]]
        y = ["a", "a", "b", "b"]
        assert dequant.nearest_centroid(X, y, [1.0, 0.05]) == "a"
        assert dequant.nearest_centroid(X, y, [0.05, 1.0]) == "b"

    def test_sketch_mode_matches_exact(self):
        rng = np.random.default_rng(6)
        X = [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]]
        y = ["a", "a", "b", "b"]
        cfg = dequant.EstimatorConfig(0.05, 0.01)
        for t in ([1.0, 0.2], [0.2, 1.0], [0.8, 0.3]):
            assert dequant.nearest_centroid(X, y, t, cfg, rng) == \
                dequant.nearest_centroid(X, y, t)

    def test_empty_class(self):
        with pytest.raises(BadParameter, match="no training data"):
            dequant.nearest_centroid([], [], [1.0])

    def test_cfg_without_rng_rejected(self):
        X, y = [[1.0, 0.0], [0.0, 1.0]], ["a", "b"]
        with pytest.raises(BadParameter):
            dequant.nearest_centroid(X, y, [1.0, 0.2],
                                     dequant.EstimatorConfig(0.1, 0.05))


class TestHarness:
    def test_both_slopes_near_inverse_sqrt(self):
        rng = np.random.default_rng(7)
        x = random_unit(64, rng)
        y = 0.6 * x + 0.8 * random_unit(64, rng)
        y /= np.linalg.norm(y)
        budgets = [200, 800, 3200, 12800]
        cfgs = [dequant.EstimatorConfig(e, 0.1)
                for e in (0.4, 0.2, 0.1, 0.05)]
        rows = dequant.quantum_vs_dequant_harness(x, y, budgets, cfgs, rng,
                                                  trials=48)
        for method in ("quantum-overlap", "dequant-inner"):
            rs = [r["resources"] for r in rows if r["method"] == method]
            es = [r["error"] for r in rows if r["method"] == method]
            slope = dequant.loglog_slope(rs, es)
            assert slope == pytest.approx(-0.5, abs=0.1), method

    @pytest.mark.parametrize("N", [1, 5, 64, 4096])
    @pytest.mark.parametrize("trials", [1, 2, 300])
    def test_rows_are_one_sketch_per_trial(self, N, trials):
        # the shared kernel, its ratio table and its blocked medians give the
        # bits of one plain-numpy sketch per trial on the same generator,
        # and so do one-trial dequant_inner calls
        cfgs = [dequant.EstimatorConfig(e, 0.1) for e in (0.8, 0.4)]
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            x = random_unit(N, rng)
            y = random_unit(N, rng)
            if N > 1:
                x[1::3] = 0  # interior zeros, and a last zero at N = 5
                x /= np.linalg.norm(x)
            rows = dequant.quantum_vs_dequant_harness(
                x, y, [], cfgs, np.random.default_rng(seed), trials=trials)
            xs = dequant.SQVector(x)
            truth = abs(np.vdot(x, y)) ** 2
            ref_rng = np.random.default_rng(seed)
            one_rng = np.random.default_rng(seed)
            for row, cfg in zip(rows, cfgs):
                errs = []
                for _ in range(trials):
                    est = loop_inner(xs, y, cfg, ref_rng)
                    assert dequant.dequant_inner(xs, y, cfg, one_rng) == est
                    errs.append(abs(abs(est) ** 2 - truth))
                assert row["error"] == float(np.mean(errs))
                assert row["resources"] == cfg.n_buckets * cfg.bucket_size
            assert len(rows) == len(cfgs)

    @pytest.mark.parametrize("trials", [0, -1, 1.5, True])
    def test_bad_trials_rejected_before_any_draw(self, trials):
        rng = np.random.default_rng(8)
        state = rng.bit_generator.state
        x = random_unit(4, np.random.default_rng(9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParameter):
                dequant.quantum_vs_dequant_harness(
                    x, x, [100], [dequant.EstimatorConfig(0.4, 0.1)], rng,
                    trials=trials)
        assert rng.bit_generator.state == state

    def test_loglog_slope_exact_law(self):
        r = np.array([10.0, 100.0, 1000.0])
        assert dequant.loglog_slope(r, 3.0 / np.sqrt(r)) == \
            pytest.approx(-0.5, abs=1e-12)
