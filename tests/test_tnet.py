"""MPS compression, contraction schedules and operation counts, graph
colorings by tensor contraction, and the projector-MPS anomaly score."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdesk import tnet
from qdesk.errors import BadParameter, DimensionMismatch, TargetOutOfRange


def random_tensor(shape, seed):
    rng = np.random.default_rng(seed)
    T = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return T


class TestMPS:
    def test_roundtrip_exact(self):
        T = random_tensor((2, 2, 2, 2), 0)
        mps = tnet.mps_from_tensor(T)
        assert np.abs(mps.to_dense() - T).max() < 1e-10

    def test_roundtrip_various_dims(self):
        for seed, shape in enumerate([(2, 3), (4, 2, 3), (2, 2, 2, 2, 2)]):
            T = random_tensor(shape, seed + 10)
            mps = tnet.mps_from_tensor(T)
            assert np.abs(mps.to_dense() - T).max() < 1e-10

    def test_single_leg_rejected(self):
        with pytest.raises(DimensionMismatch, match="at least two legs"):
            tnet.mps_from_tensor(np.ones(3))

    def test_product_tensor_bond_one(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, -1.0, 0.5])
        mps = tnet.mps_from_tensor(np.multiply.outer(a, b))
        assert mps.bond_dims == [1]
        assert np.abs(mps.to_dense() - np.outer(a, b)).max() < 1e-12

    def test_truncation_matches_svd_error(self):
        # splitting a matrix at Dmax=1 keeps only the top singular
        # direction
        T = random_tensor((4, 4), 1)
        mps = tnet.mps_from_tensor(T, Dmax=1)
        U, s, Vh = np.linalg.svd(T)
        best = s[0] * np.outer(U[:, 0], Vh[0])
        assert np.abs(mps.to_dense() - best).max() < 1e-10

    def test_ghz_bond_two(self):
        T = np.zeros((2,) * 5)
        T[(0,) * 5] = T[(1,) * 5] = 1 / math.sqrt(2)
        mps = tnet.mps_from_tensor(T)
        assert max(mps.bond_dims) == 2

    def test_chain_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            tnet.MPS([np.zeros((1, 2, 3)), np.zeros((2, 2, 1))])


class TestNorm:
    @pytest.mark.parametrize("scheme", ["naive", "parallel", "sequential"])
    def test_matches_dense_norm(self, scheme):
        T = random_tensor((2, 2, 2, 2, 2), 3)
        mps = tnet.mps_from_tensor(T)
        assert tnet.mps_norm(mps, scheme) == pytest.approx(
            np.linalg.norm(T), abs=1e-10
        )

    def test_schemes_agree(self):
        mps = tnet.mps_from_tensor(random_tensor((3, 3, 3, 3), 4))
        vals = [tnet.mps_norm(mps, s)
                for s in ("naive", "parallel", "sequential")]
        assert max(vals) - min(vals) < 1e-10

    def test_sequential_op_count_linear(self):
        # 2 N d D^3 multiply-adds within a factor of 4, at fixed d=2, D=4
        rng = np.random.default_rng(5)
        for N in (6, 10, 14):
            cores = [rng.normal(size=(1, 2, 4))]
            cores += [rng.normal(size=(4, 2, 4)) for _ in range(N - 2)]
            cores.append(rng.normal(size=(4, 2, 1)))
            _, ops = tnet.mps_norm(tnet.MPS(cores), "sequential",
                                   return_ops=True)
            model = 2 * N * 2 * 4 ** 3
            assert model / 4 <= ops <= model * 4

    def test_naive_op_count_exponential(self):
        rng = np.random.default_rng(6)

        def ops_at(N):
            cores = [rng.normal(size=(1, 2, 2))]
            cores += [rng.normal(size=(2, 2, 2)) for _ in range(N - 2)]
            cores.append(rng.normal(size=(2, 2, 1)))
            _, ops = tnet.mps_norm(tnet.MPS(cores), "naive",
                                   return_ops=True)
            return ops

        assert ops_at(14) > 2 ** 10 * ops_at(4) / 2 ** 4

    def test_unknown_scheme(self):
        mps = tnet.mps_from_tensor(random_tensor((2, 2), 7))
        with pytest.raises(ValueError):
            tnet.mps_norm(mps, "bogus")


class TestColorings:
    def test_matches_brute_force_small_graphs(self):
        rng = np.random.default_rng(8)
        for n in range(2, 9):
            all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for d in (2, 3, 4):
                k = int(rng.integers(0, min(len(all_edges), 10) + 1))
                idx = rng.choice(len(all_edges), size=k, replace=False)
                edges = [all_edges[i] for i in idx]
                assert tnet.count_colorings(edges, n, d) == \
                    tnet.count_colorings_brute_force(edges, n, d)

    def test_loop_edge_admits_no_coloring(self):
        assert tnet.count_colorings([(0, 0)], 1, 3) == 0
        assert tnet.count_colorings_brute_force([(0, 0)], 1, 3) == 0
        edges = [(0, 1), (2, 2)]
        assert tnet.count_colorings(edges, 3, 2) == \
            tnet.count_colorings_brute_force(edges, 3, 2) == 0

    def test_complete_graph_falling_factorial(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert tnet.count_colorings(edges, 4, 4) == 4 * 3 * 2 * 1
        assert tnet.count_colorings(edges, 4, 3) == 0

    def test_cycle_chromatic_polynomial(self):
        # C_n: (d-1)^n + (-1)^n (d-1)
        for n in (3, 4, 5, 6):
            edges = [(i, (i + 1) % n) for i in range(n)]
            for d in (2, 3, 4):
                assert tnet.count_colorings(edges, n, d) == \
                    (d - 1) ** n + (-1) ** n * (d - 1)

    def test_edgeless_graph(self):
        assert tnet.count_colorings([], 5, 3) == 3 ** 5

    def test_repeated_edges(self):
        # 80 edge operands; the copies of an edge make one factor
        edges = [(i, i + 1) for i in range(4)] * 20
        for d in (2, 3, 4):
            assert tnet.count_colorings(edges, 5, d) == d * (d - 1) ** 4

    def test_complete_graphs(self):
        def K(n):
            return [(i, j) for i in range(n) for j in range(i + 1, n)]

        for n in range(1, 9):
            for d in range(2, 10):
                expected = math.perm(d, n) if n <= d else 0
                assert tnet.count_colorings(K(n), n, d) == expected
        assert tnet.count_colorings(K(12), 12, 3) == 0

    def test_grid_5x5(self):
        edges = [(5 * r + c, 5 * r + c + 1) for r in range(5)
                 for c in range(4)]
        edges += [(5 * r + c, 5 * r + c + 5) for r in range(4)
                  for c in range(5)]
        assert tnet.count_colorings(edges, 25, 3) == 580_986

    def test_star_is_eliminated_leaves_first(self):
        # summing out the centre first would build a 3^25 factor
        edges = [(0, i) for i in range(1, 26)]
        assert tnet.count_colorings(edges, 26, 3) == 3 * 2 ** 25

    def test_oversized_factor_rejected_before_allocating(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("einsum ran")

        monkeypatch.setattr(np, "einsum", forbidden)
        edges = [(i, j) for i in range(26) for j in range(i + 1, 26)]
        with pytest.raises(BadParameter, match="4\\^25 entries"):
            tnet.count_colorings(edges, 26, 4)

    def test_count_past_float64_integers_rejected(self):
        # 26 * 25^25 > 2^53: float64 sums would return a rounded count
        path = [(i, i + 1) for i in range(25)]
        with pytest.raises(BadParameter, match="2\\^53"):
            tnet.count_colorings(path, 26, 26)
        # no factor is built, so the count stays an exact Python int
        assert tnet.count_colorings([], 26, 26) == 26 ** 26

    @pytest.mark.parametrize("edges", [[(0, 5)], [(0, 1), (3, 1)],
                                       [(-1, 2)]])
    def test_edge_outside_vertices_rejected(self, edges):
        # the contraction used to count a stray endpoint as one more vertex
        with pytest.raises(TargetOutOfRange):
            tnet.count_colorings(edges, 3, 3)


class TestEmbedding:
    @given(st.floats(min_value=-4, max_value=4,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_unit_norm(self, x):
        for d in (2, 3):
            assert np.linalg.norm(tnet.trig_embedding(x, d)) == \
                pytest.approx(1.0, abs=1e-12)

    def test_d2_components(self):
        v = tnet.trig_embedding(0.5, 2)
        assert v[0] == pytest.approx(math.cos(math.pi / 4))
        assert v[1] == pytest.approx(math.sin(math.pi / 4))


class TestProjector:
    def test_apply_matches_dense(self):
        rng = np.random.default_rng(9)
        model = tnet._random_projector(6, 2, 2, 3, rng)
        P = tnet.projector_to_dense(model)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=6)
            feats = [tnet.trig_embedding(xi, 2) for xi in x]
            phi = feats[0]
            for f in feats[1:]:
                phi = np.kron(phi, f)
            out = model.apply(feats).to_dense().ravel()
            assert np.abs(out - P @ phi).max() < 1e-10

    def test_frobenius_matches_dense(self):
        rng = np.random.default_rng(10)
        for S in (2, 3):
            model = tnet._random_projector(6, S, 2, 2, rng)
            P = tnet.projector_to_dense(model)
            assert tnet.projector_frobenius(model) == pytest.approx(
                np.linalg.norm(P), abs=1e-10
            )

    def test_score_matches_dense(self):
        rng = np.random.default_rng(11)
        model = tnet._random_projector(4, 2, 2, 2, rng)
        P = tnet.projector_to_dense(model)
        x = rng.uniform(-1, 1, size=4)
        feats = [tnet.trig_embedding(xi, 2) for xi in x]
        phi = feats[0]
        for f in feats[1:]:
            phi = np.kron(phi, f)
        assert tnet.anomaly_score(model, x) == pytest.approx(
            np.linalg.norm(P @ phi), abs=1e-10
        )

    @pytest.mark.parametrize("N", range(1, 6))
    def test_dense_matches_apply_on_basis_vectors(self, N):
        # S = N + 1 leaves no output site; S = 2 at odd N and S = 3 at
        # N = 4, 5 end in a run of carriers
        rng = np.random.default_rng(60 + N)
        for S in sorted({1, 2, 3, N + 1}):
            for d in (2, 3):
                for make in (tnet._random_projector, complex_projector):
                    model = make(N, S, d, 2, rng)
                    P = tnet.projector_to_dense(model)
                    cols = [model.apply(list(np.eye(d)[list(digits)]))
                            .to_dense().ravel()
                            for digits in itertools.product(range(d),
                                                            repeat=N)]
                    assert P.shape == (d ** (N // S), d ** N)
                    assert np.abs(P - np.array(cols).T).max() < 1e-12

    def test_dense_oracle_contracts_the_cores_itself(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ProjectorMPS.apply called")

        model = tnet._random_projector(5, 2, 3, 2, np.random.default_rng(61))
        monkeypatch.setattr(tnet.ProjectorMPS, "apply", refuse)
        assert tnet.projector_to_dense(model).shape == (9, 243)

    def test_model_is_its_cores(self):
        # a model given to anomaly_fit keeps its own output sites whatever
        # S says, and the dense oracle reads them from the cores too
        assert [f.name for f in dataclasses.fields(tnet.ProjectorMPS)] == \
            ["cores"]
        rng = np.random.default_rng(62)
        start = tnet._random_projector(4, 2, 2, 2, rng)
        train = [rng.uniform(-1, 1, size=4) for _ in range(3)]
        model, _ = tnet.anomaly_fit(train, S=4, alpha=0.05, steps=0,
                                    model=start)
        assert [c.ndim for c in model.cores] == [3, 4, 3, 4]
        assert model.d == 2
        P = tnet.projector_to_dense(model)
        assert P.shape == (4, 16)
        for x in train:
            phi = np.ones(1)
            for xi in x:
                phi = np.kron(phi, tnet.trig_embedding(xi, 2))
            assert np.linalg.norm(P @ phi) == pytest.approx(
                tnet.anomaly_score(model, x), abs=1e-12)

    @pytest.mark.parametrize("shapes", [
        [(1, 2, 3), (2, 2, 2, 1)],  # bonds 3 and 2 do not chain
        [(1, 2, 2), (2, 2, 2, 2)],  # last bond 2, not 1
        [(2, 2, 2), (2, 2, 2, 1)],  # first bond 2, not 1
        [(1, 2, 2), (2, 3, 2, 1)],  # input dimensions 2 and 3
        [(1, 2, 2), (2, 2, 3, 1)],  # output dimension 3, input 2
        [(1, 2, 2), (2, 2, 1, 1, 1)],  # five axes
        [(1, 2), (2, 2, 1)],  # two axes
        [],
    ])
    def test_cores_must_fit(self, shapes):
        with pytest.raises(DimensionMismatch):
            tnet.ProjectorMPS([np.ones(s) for s in shapes])

    def test_length_mismatch(self):
        model = tnet._random_projector(4, 2, 2, 2, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            tnet.anomaly_score(model, [0.1, 0.2])

    @pytest.mark.parametrize("features", [
        np.ones((5, 2)),  # one vector more than there are sites
        np.ones((3, 2)), np.ones((4, 3)), np.ones(4), np.ones(0),
        [np.ones(2)] * 3 + [np.ones(3)],
    ])
    def test_apply_takes_one_feature_vector_per_site(self, features):
        model = tnet._random_projector(4, 2, 2, 2, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            model.apply(features)

    def test_apply_keeps_one_core_per_site(self):
        # carriers stay in the chain as (Dl, 1, Dr) cores
        model = tnet._random_projector(5, 2, 3, 2, np.random.default_rng(1))
        feats = tnet._features([np.linspace(-1, 1, 5)], 3)[0]
        mps, ops = model.apply(feats, return_ops=True)
        assert [A.shape[1] for A in mps.tensors] == [1, 3, 1, 3, 1]
        assert ops == sum(c.size for c in model.cores)

    def test_score_ops_linear_in_sites(self):
        rng = np.random.default_rng(12)

        def ops_at(N):
            model = tnet._random_projector(N, 2, 2, 2, rng)
            _, ops = tnet.anomaly_score(model, np.zeros(N), return_ops=True)
            return ops

        assert ops_at(24) < 4 * ops_at(12)


class TestAnomalyFit:
    def test_loss_non_increasing_and_sqrt_e(self):
        rng = np.random.default_rng(13)
        train = [0.5 + 0.05 * rng.standard_normal(4) for _ in range(6)]
        model, hist = tnet.anomaly_fit(train, S=2, alpha=0.05, steps=60,
                                       rng=np.random.default_rng(14))
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        scores = [tnet.anomaly_score(model, x) for x in train]
        assert np.mean(scores) == pytest.approx(math.sqrt(math.e), rel=0.1)

    def test_flags_outlier(self):
        rng = np.random.default_rng(15)
        train = [0.5 + 0.05 * rng.standard_normal(4) for _ in range(6)]
        model, _ = tnet.anomaly_fit(train, S=2, alpha=0.05, steps=60,
                                    rng=np.random.default_rng(16))
        target = math.sqrt(math.e)
        in_dev = max(abs(tnet.anomaly_score(model, x) - target)
                     for x in train)
        out_dev = abs(tnet.anomaly_score(model, np.array([-0.5] * 4))
                      - target)
        assert out_dev > 3 * in_dev


def dense_loss(model, train, alpha):
    """The anomaly loss from the dense projector matrix."""
    P = tnet.projector_to_dense(model)
    total = 0.0
    for x in train:
        phi = np.ones(1)
        for xi in x:
            phi = np.kron(phi, tnet.trig_embedding(xi, model.d))
        total += abs(math.log(np.linalg.norm(P @ phi) ** 2) - 1.0)
    return total / len(train) + alpha * math.log(np.linalg.norm(P))


def complex_projector(N, S, d, D, rng):
    model = tnet._random_projector(N, S, d, D, rng)
    model.cores = [c + 0.5j * rng.normal(size=c.shape) for c in model.cores]
    return model


class TestBatchedLoss:
    @pytest.mark.parametrize("N", range(2, 7))
    def test_matches_dense_projector(self, N):
        rng = np.random.default_rng(40 + N)
        for S in (1, 2, 3, N + 1):
            for d in (2, 3):
                for D in (1, 2, 3):
                    for make in (tnet._random_projector, complex_projector):
                        model = make(N, S, d, D, rng)
                        train = [rng.uniform(-1, 1, size=N)
                                 for _ in range(3)]
                        ref = dense_loss(model, train, 0.1)
                        assert tnet.anomaly_loss(model, train, 0.1) == \
                            pytest.approx(ref, abs=1e-12 * max(1, abs(ref)))

    def test_batch_equals_rows(self, monkeypatch):
        rng = np.random.default_rng(41)
        model = complex_projector(5, 2, 3, 3, rng)
        train = [rng.uniform(-1, 1, size=5) for _ in range(4)]
        feats = tnet._features(train, 3)
        theta = tnet._flatten(model.cores)
        rows = theta + 0.1 * rng.normal(size=(10, theta.size))
        one_by_one = [tnet._batched_loss(r[None], feats, model.cores, 0.2)[0]
                      for r in rows]
        # three rows per chunk: the batch is split over four chunks
        monkeypatch.setattr(tnet, "_SWEEP_BUDGET", 3 * len(train))
        batch = tnet._batched_loss(rows, feats, model.cores, 0.2)
        assert batch.shape == (10,)
        assert np.allclose(batch, one_by_one, rtol=1e-13, atol=0)

    def test_first_gradient_is_per_probe_central_difference(self):
        rng = np.random.default_rng(42)
        train = [0.5 + 0.05 * rng.standard_normal(5) for _ in range(4)]
        start = tnet._random_projector(5, 2, 2, 2, np.random.default_rng(7))
        theta0 = tnet._flatten(start.cores).real
        lr = 1e-3  # small enough that the first candidate is accepted
        fitted, hist = tnet.anomaly_fit(train, S=2, alpha=0.05, steps=1,
                                        lr=lr, rng=np.random.default_rng(7))
        assert len(hist) == 2
        g_fit = (theta0 - tnet._flatten(fitted.cores).real) / lr

        def loss(vec):
            model = tnet.ProjectorMPS(
                [c + 0j for c in tnet._unflatten(vec, start.cores)])
            dev = [abs(math.log(tnet.anomaly_score(model, x) ** 2) - 1.0)
                   for x in train]
            return np.mean(dev) + 0.05 * math.log(
                tnet.projector_frobenius(model))

        h = 1e-6
        g_ref = np.array([(loss(theta0 + h * e) - loss(theta0 - h * e))
                          / (2 * h) for e in np.eye(theta0.size)])
        assert np.linalg.norm(g_fit - g_ref) <= \
            1e-6 * np.linalg.norm(g_ref)

    def test_fit_runs_without_per_sample_contraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-sample path called")

        monkeypatch.setattr(tnet.ProjectorMPS, "apply", refuse)
        monkeypatch.setattr(tnet, "mps_norm", refuse)
        monkeypatch.setattr(tnet, "trig_embedding", refuse)
        rng = np.random.default_rng(43)
        train = [0.5 + 0.05 * rng.standard_normal(4) for _ in range(3)]
        _, hist = tnet.anomaly_fit(train, S=2, alpha=0.05, steps=3,
                                   rng=np.random.default_rng(44))
        assert len(hist) >= 2

    def test_zero_steps_returns_initial_draw(self):
        rng = np.random.default_rng(45)
        train = [rng.uniform(-1, 1, size=6) for _ in range(3)]
        ref = tnet._random_projector(6, 3, 2, 2, np.random.default_rng(46))
        model, hist = tnet.anomaly_fit(train, S=3, alpha=0.1, steps=0,
                                       rng=np.random.default_rng(46))
        for a, b in zip(model.cores, ref.cores):
            assert np.array_equal(a, b)
        assert hist == [pytest.approx(tnet.anomaly_loss(ref, train, 0.1),
                                      abs=1e-12)]

    def test_complex_model_rejected(self):
        model = complex_projector(4, 2, 2, 2, np.random.default_rng(47))
        train = [np.full(4, 0.5)]
        with pytest.raises(BadParameter, match="fits real cores"):
            tnet.anomaly_fit(train, S=2, alpha=0.05, steps=1, model=model)

    @pytest.mark.parametrize("N,d", [(5, 2), (3, 2), (4, 3)])
    def test_model_shape_mismatch(self, N, d, monkeypatch):
        # the sweep would raise TypeError on reaching _SWEEP_BUDGET
        monkeypatch.setattr(tnet, "_SWEEP_BUDGET", None)
        model = tnet._random_projector(4, 2, 2, 2, np.random.default_rng(48))
        train = [np.full(N, 0.5)]
        with pytest.raises(DimensionMismatch):
            tnet.anomaly_fit(train, S=2, alpha=0.05, d=d, steps=1,
                             model=model)

    def test_ragged_samples_rejected(self):
        model = tnet._random_projector(4, 2, 2, 2, np.random.default_rng(49))
        with pytest.raises(DimensionMismatch):
            tnet.anomaly_loss(model, [np.zeros(4), np.zeros(3)], 0.05)
        with pytest.raises(DimensionMismatch):
            tnet.anomaly_loss(model, [np.zeros(3)], 0.05)


class TestCountChecks:
    """S, d and D are checked at the library boundary, not only by the
    CLI: each bad value raises BadParameter naming the parameter."""

    @pytest.mark.parametrize("name,value", [
        ("S", 0), ("S", -1), ("S", 1.5), ("D", 0), ("D", 2.0), ("d", 0),
    ])
    def test_anomaly_fit(self, name, value):
        kw = {"S": 2, "d": 2, "D": 2, name: value}
        train = [np.full(4, 0.5)]
        with pytest.raises(BadParameter, match=rf"\b{name}\b"):
            tnet.anomaly_fit(train, alpha=0.05, steps=1,
                             rng=np.random.default_rng(50), **kw)

    @pytest.mark.parametrize("name,value", [("S", 0), ("D", 0), ("d", 0)])
    def test_random_projector(self, name, value):
        kw = {"S": 2, "d": 2, "D": 2, name: value}
        with pytest.raises(BadParameter, match=rf"\b{name}\b"):
            tnet._random_projector(4, rng=np.random.default_rng(51), **kw)
