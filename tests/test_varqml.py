"""Variational algorithms: shift rules, VQE, QAOA, combinatorial mappings,
Gibbs constructions, barren plateaus, adiabatic dynamics."""
import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk import simcore as sc, varqml as vq
from qdesk.encode import EncodingSpec, encoding_unitary
from qdesk.errors import (BadParameter, DimensionMismatch,
                          IntegratorDiverged, TargetOutOfRange)


def two_qubit_circuit():
    return vq.ParamCircuit(2, [
        vq.Layer([("XI", 0.7)], fixed=sc.expand_gate(sc.H, [0], 2)),
        vq.Layer([("ZY", -1.3)]),
        vq.Layer([("YZ", 1.0)], fixed=sc.expand_gate(sc.CNOT, [0, 1], 2)),
    ])


OBS = sc.pauli_reconstruct([("ZZ", 1.0), ("XI", 0.5)], 2)


class TestParameterShift:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        circ = two_qubit_circuit()
        for _ in range(5):
            th = rng.uniform(-np.pi, np.pi, 3)
            g_ps = vq.parameter_shift_gradient(circ, th, OBS)
            g_fd = vq.finite_difference_gradient(
                lambda t: vq.cost_expectation(circ, t, OBS), th
            )
            assert np.abs(g_ps - g_fd).max() < 1e-6

    def test_rejects_multi_term_generators(self):
        circ = vq.ParamCircuit(1, [vq.Layer([("X", 1.0), ("Z", 0.5)])])
        with pytest.raises(BadParameter, match="multi-term generator"):
            vq.parameter_shift_gradient(circ, [0.3], sc.Z)

    def test_single_qubit_closed_form(self):
        # <0| e^{i t X} Z e^{-i t X} |0> = cos(2t)
        circ = vq.ParamCircuit(1, [vq.Layer([("X", 1.0)])])
        for t in (0.2, 1.1, -0.7):
            g = vq.parameter_shift_gradient(circ, [t], sc.Z)
            assert g[0] == pytest.approx(-2 * np.sin(2 * t), abs=1e-10)


class TestStochasticShift:
    def _circ(self):
        return vq.ParamCircuit(2, [
            vq.Layer([("XI", 0.6), ("ZZ", 0.8), ("IY", -0.4)],
                     fixed=sc.expand_gate(sc.H, [0], 2)),
            vq.Layer([("YX", 1.0)]),
        ])

    def test_exact_quadrature_matches_fd(self):
        circ = self._circ()
        th = np.array([0.9, -0.5])
        grad = np.zeros(2)
        for t, layer in enumerate(circ.layers):
            for lab, g in layer.generator:
                grad[t] += g * vq.exact_x_gradient(circ, t, lab, th, OBS)
        fd = vq.finite_difference_gradient(
            lambda t_: vq.cost_expectation(circ, t_, OBS), th
        )
        assert np.abs(grad - fd).max() < 1e-8

    def test_monte_carlo_unbiased(self):
        rng = np.random.default_rng(1)
        circ = self._circ()
        th = np.array([0.9, -0.5])
        est = vq.stochastic_parameter_shift(
            circ, 0, "ZZ", th, OBS, None, 600, rng
        )
        exact = vq.exact_x_gradient(circ, 0, "ZZ", th, OBS)
        assert abs(est.value - exact) < 5 * est.stderr + 1e-12

    @pytest.mark.parametrize("samples", [0, -1, True, 2.0])
    def test_sample_count_is_checked(self, samples):
        with pytest.raises(BadParameter, match="^samples must be"):
            vq.stochastic_parameter_shift(
                self._circ(), 0, "ZZ", [0.9, -0.5], OBS, None, samples,
                np.random.default_rng(0))

    @pytest.mark.parametrize("t", [2, -1, 5, 0.0])
    def test_layer_index_is_checked(self, t):
        circ, th = self._circ(), [0.9, -0.5]  # layers 0 and 1
        with pytest.raises(TargetOutOfRange):
            vq.stochastic_parameter_shift(circ, t, "ZZ", th, OBS, None, 4,
                                          np.random.default_rng(0))
        with pytest.raises(TargetOutOfRange):
            vq.exact_x_gradient(circ, t, "ZZ", th, OBS)


class TestSinglePauliClosedForm:
    """Single-Pauli generators are rotated by cos(a) - i sin(a) P; each
    site equals exp_hamiltonian of the same generator."""

    def test_layer_state_matches_exponential(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                label = "".join(rng.choice(list("IXYZ"), n))
                c, th = rng.normal(), rng.uniform(-np.pi, np.pi)
                psi = sc.haar_random_state(2**n, rng)
                circ = vq.ParamCircuit(n, [vq.Layer([(label, c)])])
                ref = sc.exp_hamiltonian(c * sc.pauli_matrix(label), th) @ psi
                assert np.abs(circ.state([th], psi) - ref).max() < 1e-14

    def test_complex_coefficient_not_hermitian(self):
        circ = vq.ParamCircuit(2, [vq.Layer([("XZ", 1.0 + 0.5j)])])
        with pytest.raises(BadParameter, match=r"coefficient \(1\+0\.5j\) is"):
            circ.state([0.3])

    def test_shift_integrand_matches_exponentials(self):
        rng = np.random.default_rng(21)
        circ = TestStochasticShift()._circ()
        th = np.array([0.9, -0.5])

        def shifted_cost(t, label, s, sign):
            # layer t's e^{-iX} replaced by three exponentials, written out
            V = sc.exp_hamiltonian(sc.pauli_matrix(label), sign * np.pi / 4)
            psi = sc.basis_state(2)
            for k, (a, layer) in enumerate(zip(th, circ.layers)):
                if layer.fixed is not None:
                    psi = layer.fixed @ psi
                G = a * sc.pauli_reconstruct(layer.generator, 2)
                if k == t:
                    psi = sc.exp_hamiltonian(G, s) @ V \
                        @ sc.exp_hamiltonian(G, 1 - s) @ psi
                else:
                    psi = sc.exp_hamiltonian(G, 1.0) @ psi
            return np.vdot(psi, OBS @ psi).real

        for t, label in ((0, "ZZ"), (1, "YX"), (1, "IZ")):
            for s in rng.random(3):
                ref = shifted_cost(t, label, s, 1.0) \
                    - shifted_cost(t, label, s, -1.0)
                got = vq._shift_integrand(circ, th, OBS, None, t, label, s)
                assert abs(got - ref) < 1e-14

    def test_dqc1_model_matches_exponentials(self):
        rng = np.random.default_rng(22)
        layers = [("XZ",), ("YI",), ("ZY",)]
        xg = [sc.haar_random_unitary(4, rng) for _ in range(3)]
        th = rng.uniform(-np.pi, np.pi, 3)
        ref = vq.dqc1_model_value([
            g for (lab,), x, a in zip(layers, xg, th)
            for g in (x, sc.exp_hamiltonian(sc.pauli_matrix(lab), a))])
        assert abs(vq.dqc1_model(layers, xg, th) - ref) < 1e-14

    def test_qaoa_mixer_matches_exponential(self):
        rng = np.random.default_rng(23)
        model = vq.maxcut_to_ising([(0, 1), (1, 2), (0, 2)])
        for b in rng.uniform(-np.pi, np.pi, 20):
            assert np.abs(sc.rx(2 * b)
                          - sc.exp_hamiltonian(sc.X, b)).max() < 1e-14
        gammas, betas = rng.uniform(0, np.pi, (2, 2))
        H0 = sc.pauli_reconstruct([("XII", 1.0), ("IXI", 1.0), ("IIX", 1.0)],
                                  3)
        psi = np.full(8, 1 / np.sqrt(8), dtype=complex)
        for g, b in zip(gammas, betas):
            psi = sc.exp_hamiltonian(H0, b) @ (
                np.exp(-1j * g * model.diagonal(include_const=False)) * psi)
        assert np.abs(vq.qaoa_state(model, gammas, betas) - psi).max() < 1e-14

    def test_single_pauli_paths_never_call_exp_hamiltonian(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exp_hamiltonian on a single Pauli string")

        monkeypatch.setattr(sc, "exp_hamiltonian", refuse)
        model = vq.maxcut_to_ising([(0, 1), (1, 2)])
        vq.qaoa_state(model, [0.4, 0.1], [0.7, -0.2])
        vq.dqc1_model([("XZ",), ("YI",)], [np.eye(4)] * 2, [0.3, 0.5])
        for spec in (EncodingSpec("pauli", {"gamma": 0.5}),
                     EncodingSpec("pauli-parallel", {"r": 3}),
                     EncodingSpec("pauli-sequential", {"r": 2}),
                     EncodingSpec("exponential", {"N": 2})):
            encoding_unitary(spec, 0.8)
        circ = two_qubit_circuit()
        th = [0.2, -0.4, 1.1]
        vq.cost_expectation(circ, th, OBS)
        vq.parameter_shift_gradient(circ, th, OBS)


def random_param_circuit(rng, n, P):
    """P layers on n qubits: each has one or up to three Pauli-string terms
    with real coefficients, and half of them a Haar-random fixed gate."""
    layers = []
    for _ in range(P):
        terms = [("".join(rng.choice(list("IXYZ"), n)), rng.normal())
                 for _ in range(int(rng.integers(1, 4)))]
        fixed = (sc.haar_random_unitary(2**n, rng) if rng.random() < 0.5
                 else None)
        layers.append(vq.Layer(terms, fixed))
    A = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return vq.ParamCircuit(n, layers), (A + A.conj().T) / 2**(n + 1)


class TestAngleRows:
    """state and cost_expectation take one angle row (P,) or a (B, P) batch;
    each batch row is the one-row result."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_batch_rows_are_one_row_calls(self, seed, n, P, B, with_psi0):
        rng = np.random.default_rng(seed)
        circ, O = random_param_circuit(rng, n, P)
        psi0 = sc.haar_random_state(2**n, rng) if with_psi0 else None
        rows = rng.uniform(-np.pi, np.pi, (B, P))
        states = circ.state(rows, psi0)
        costs = vq.cost_expectation(circ, rows, O, psi0)
        assert states.shape == (B, 2**n) and costs.shape == (B,)
        for row, psi, c in zip(rows, states, costs):
            one = circ.state(row, psi0)
            assert one.shape == (2**n,)
            assert np.abs(psi - one).max() <= 1e-14
            one_cost = vq.cost_expectation(circ, row, O, psi0)
            assert type(one_cost) is float
            assert abs(c - one_cost) <= 1e-14
        with pytest.MonkeyPatch.context() as mp:  # 1 to 3 rows per chunk
            mp.setattr(vq, "_ROW_BUDGET", 2**n * int(rng.integers(1, 4)))
            chunked = vq.cost_expectation(circ, rows, O, psi0)
        assert np.abs(chunked - costs).max() <= 1e-14

    def test_state_is_one_call_per_chunk(self, monkeypatch):
        circ, O = random_param_circuit(np.random.default_rng(40), 2, 3)
        calls = []
        state = vq.ParamCircuit.state
        monkeypatch.setattr(vq.ParamCircuit, "state", lambda self, th, p=None:
                            calls.append(len(th)) or state(self, th, p))
        monkeypatch.setattr(vq, "_ROW_BUDGET", 3 * 4)  # 3 rows of 4
        vq.cost_expectation(circ, np.zeros((8, 3)), O)
        assert calls == [3, 3, 2]

    def test_one_eigh_per_multi_term_layer(self, monkeypatch):
        circ = TestStochasticShift()._circ()
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda G: calls.append(G.shape) or eigh(G))
        circ.state(np.zeros((50, 2)))
        assert calls == [(4, 4)]

    def test_angle_row_must_fit_the_layers(self):
        circ = two_qubit_circuit()  # three layers
        for theta in ([0.3], [0.1, 0.2, 0.3, 0.4], np.zeros((2, 2)),
                      np.zeros((2, 4)), np.zeros((1, 2, 3)), 0.3):
            with pytest.raises(DimensionMismatch):
                circ.state(theta)
            with pytest.raises(DimensionMismatch):
                vq.cost_expectation(circ, theta, OBS)

    def test_psi0_must_be_one_state_of_the_register(self):
        circ = two_qubit_circuit()
        for psi0 in (sc.basis_state(1), sc.basis_state(3),
                     sc.basis_state(2)[None], np.zeros((2, 4))):
            with pytest.raises(DimensionMismatch):
                circ.state([0.1, 0.2, 0.3], psi0)
            with pytest.raises(DimensionMismatch):
                vq.cost_expectation(circ, np.zeros((2, 3)), OBS, psi0)

    def test_observable_must_be_square_on_the_register(self):
        circ = two_qubit_circuit()
        for O in (np.ones((4, 2)), np.ones((2, 4)), np.eye(8), np.ones(4),
                  np.ones((4, 4, 1))):
            with pytest.raises(DimensionMismatch):
                vq.cost_expectation(circ, [0.1, 0.2, 0.3], O)

    def test_multi_term_complex_coefficient_not_hermitian(self):
        circ = vq.ParamCircuit(2, [vq.Layer([("XZ", 1.0), ("YI", 0.5j)])])
        with pytest.raises(BadParameter, match="generator is not Hermitian"):
            circ.state([0.3])
        with pytest.raises(BadParameter, match="generator is not Hermitian"):
            circ.state(np.zeros((4, 1)))

    def test_parameter_shift_matches_per_parameter_loop(self):
        # zero and negative coefficients, against the rule one parameter at
        # a time
        rng = np.random.default_rng(41)
        circ = vq.ParamCircuit(3, [
            vq.Layer([("XIZ", 0.0)], fixed=sc.haar_random_unitary(8, rng)),
            vq.Layer([("YYI", -0.8)]),
            vq.Layer([("IZX", 1e-15)]),
            vq.Layer([("ZIY", 1.7)], fixed=sc.haar_random_unitary(8, rng))])
        O = sc.pauli_reconstruct([("ZZI", 1.0), ("IXX", -0.4)], 3)
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, 4)
            ref = np.zeros(4)
            for t, layer in enumerate(circ.layers):
                c = layer.generator[0][1]
                if abs(c) >= 1e-14:
                    up, dn = theta.copy(), theta.copy()
                    up[t] += np.pi / (4 * c)
                    dn[t] -= np.pi / (4 * c)
                    ref[t] = c * (vq.cost_expectation(circ, up, O)
                                  - vq.cost_expectation(circ, dn, O))
            got = vq.parameter_shift_gradient(circ, theta, O)
            assert np.abs(got - ref).max() <= 1e-14
            assert got[0] == 0.0 and got[2] == 0.0

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_stochastic_shift_keeps_the_draw_order(self, seed):
        circ = TestStochasticShift()._circ()
        th = np.array([0.9, -0.5])
        for t, label in ((0, "ZZ"), (1, "XX")):
            got_rng = np.random.default_rng(seed)
            est = vq.stochastic_parameter_shift(
                circ, t, label, th, OBS, None, 40, got_rng)
            rng = np.random.default_rng(seed)
            vals = np.array([
                vq._shift_integrand(circ, th, OBS, None, t, label,
                                    rng.random()) for _ in range(40)])
            assert abs(est.value - vals.mean()) <= 1e-14
            assert abs(est.stderr - vals.std(ddof=1) / np.sqrt(40)) <= 1e-14
            assert est.samples == 40
            assert got_rng.random() == rng.random()  # same draws taken

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_loss_profile_keeps_the_draw_order(self, seed):
        circ = two_qubit_circuit()
        center = np.array([0.3, -1.1, 0.8])
        deltas = [0.05, 0.4, 1.5]
        got_rng = np.random.default_rng(seed)
        prof = vq.loss_std_profile(circ, OBS, center, deltas, 30, got_rng)
        rng = np.random.default_rng(seed)
        for d in deltas:
            vals = [vq.cost_expectation(
                circ, center + rng.uniform(-d, d, center.size), OBS)
                for _ in range(30)]
            assert abs(prof[d] - np.std(vals, ddof=1)) <= 1e-14
        assert got_rng.random() == rng.random()  # same draws taken

    def test_dqc1_gradient_is_the_up_dn_loop(self):
        rng = np.random.default_rng(42)
        layers = [("XZ",), ("YI",), ("ZY",)]
        xg = [sc.haar_random_unitary(4, rng) for _ in range(3)]
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, 3)
            ref = np.empty_like(theta)
            for k in range(theta.size):
                up, dn = theta.copy(), theta.copy()
                up[k] += np.pi / 2
                dn[k] -= np.pi / 2
                ref[k] = (vq.dqc1_model(layers, xg, up)
                          - vq.dqc1_model(layers, xg, dn)) / 2
            assert np.array_equal(vq.dqc1_model_gradient(layers, xg, theta),
                                  ref)


class TestVQE:
    def test_finds_ground_state_energy(self):
        H = sc.pauli_reconstruct([("ZZ", 1.0), ("XI", 0.3), ("IX", 0.3)],
                                 2)
        circ = vq.ParamCircuit(2, [
            vq.Layer([("YI", 1.0)]),
            vq.Layer([("IY", 1.0)]),
            vq.Layer([("XZ", 1.0)],
                     fixed=sc.expand_gate(sc.CNOT, [0, 1], 2)),
            vq.Layer([("ZI", 1.0)]),
        ])
        rng = np.random.default_rng(2)
        best = np.inf
        for _ in range(4):
            _, e = vq.vqe(H, circ, rng=rng, lr=0.15, steps=250)
            best = min(best, e)
        gs = np.linalg.eigvalsh(H).min()
        assert best == pytest.approx(gs, abs=5e-3)

    @pytest.mark.parametrize("steps", [0, 1, 40])
    def test_single_term_is_the_shift_rule_descent(self, steps):
        # no tolerance: the one-row descent with its history, last value
        rng = np.random.default_rng(60 + steps)
        circ = two_qubit_circuit()
        for psi0 in (None, sc.haar_random_state(4, rng)):
            theta0 = rng.uniform(-np.pi, np.pi, 3)
            theta, e = vq.vqe(OBS, circ, theta0, lr=0.2, steps=steps,
                              psi0=psi0)
            ref, history = vq.gradient_descent(
                lambda th: vq.cost_expectation(circ, th, OBS, psi0),
                lambda th: vq.parameter_shift_gradient(circ, th, OBS, psi0),
                theta0, lr=0.2, steps=steps)
            assert np.array_equal(theta, ref)
            assert type(e) is float and e == history[-1]

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_term_is_the_central_difference_descent(self, seed):
        # each batched cost may differ from its one-row call by a few ulps
        # of ||H||; the quotient 1 / (2 * 1e-5) and lr carry that into
        # theta, step by step
        rng = np.random.default_rng(80 + seed)
        circ, H = random_param_circuit(rng, 2 + seed % 2, 2 + seed % 3)
        circ.layers[0].generator.append(("I" * circ.n, 0.4))
        theta0 = rng.uniform(-np.pi, np.pi, circ.n_params)
        steps, lr = 25, 0.1
        theta, e = vq.vqe(H, circ, theta0, lr=lr, steps=steps)

        def f(th):
            return vq.cost_expectation(circ, th, H)

        ref, history = vq.gradient_descent(
            f, lambda th: vq.finite_difference_gradient(f, th), theta0,
            lr=lr, steps=steps)
        tol = steps * lr * 8 * np.finfo(float).eps * np.linalg.norm(H, 2) \
            / (2 * 1e-5)
        assert np.abs(theta - ref).max() <= tol
        assert abs(e - history[-1]) <= tol

    @pytest.mark.parametrize("steps", [0, 1, 7])
    def test_one_eigh_per_multi_term_layer_and_step(self, monkeypatch,
                                                    steps):
        # L multi-term layers, S steps: (S + 1) L eigh calls, the last L
        # for the final cost; the single-term layer takes none
        circ = vq.ParamCircuit(3, [
            vq.Layer([("XIZ", 0.7), ("IYY", -0.3)]),
            vq.Layer([("ZZI", 1.1)]),
            vq.Layer([("YIX", 0.5), ("IZI", 0.9), ("XXX", 0.2)]),
        ])
        H = sc.pauli_reconstruct([("ZII", 1.0), ("IXX", 0.5)], 3)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda G: calls.append(G.shape) or eigh(G))
        vq.vqe(H, circ, [0.3, -0.8, 1.2], steps=steps)
        assert calls == [(8, 8)] * (2 * (steps + 1))


class TestIsingMappings:
    def test_qubo_ising_equivalence_exhaustive(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            Q = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            m = vq.qubo_to_ising(Q, b)
            for bits in itertools.product((0, 1), repeat=n):
                z = vq.spins_from_bits(bits)
                assert vq.qubo_energy(Q, b, bits) == pytest.approx(
                    m.energy(z), abs=1e-10
                )

    def test_maxcut_energy_is_minus_cut(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        m = vq.maxcut_to_ising(edges)
        for bits in itertools.product((0, 1), repeat=4):
            z = vq.spins_from_bits(bits)
            assert m.energy(z) == pytest.approx(-vq.cut_size(edges, bits))

    def test_hamiltonian_diagonal_matches_energy(self):
        m = vq.IsingModel({(0, 1): 0.5}, np.array([0.2, -0.3]), const=0.1)
        H = m.hamiltonian()
        for i, bits in enumerate(itertools.product((0, 1), repeat=2)):
            z = vq.spins_from_bits(bits)
            assert H[i, i].real == pytest.approx(m.energy(z), abs=1e-12)

    @pytest.mark.parametrize("const", [0.0, 0.37])
    @pytest.mark.parametrize("transverse", [False, True])
    def test_diagonal_matches_energy_and_hamiltonian(self, const,
                                                     transverse):
        rng = np.random.default_rng(12)
        n = 5
        J = {(i, j): rng.normal() for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.6}
        h = rng.normal(size=n)
        h[1] = 0.0
        c = rng.normal(size=n) if transverse else None
        m = vq.IsingModel(J, h, const=const, c=c)
        diag = m.diagonal()
        for i, bits in enumerate(itertools.product((0, 1), repeat=n)):
            assert diag[i] == pytest.approx(
                m.energy(vq.spins_from_bits(bits)), abs=1e-12)
        for include_const in (True, False):
            H = m.hamiltonian(include_const)
            assert np.array_equal(m.diagonal(include_const), np.diag(H))
        # off the diagonal H holds exactly the sigma^x terms
        H = m.hamiltonian()
        X_terms = np.zeros_like(H)
        for i, ci in enumerate(c if transverse else []):
            X_terms += ci * sc.pauli_matrix("I" * i + "X" + "I" * (n - 1 - i))
        assert np.array_equal(H - np.diag(np.diag(H)), X_terms)


class TestQAOA:
    def test_triangle_ratio(self):
        rng = np.random.default_rng(4)
        model = vq.maxcut_to_ising([(0, 1), (1, 2), (0, 2)])
        _, bits, ratio = vq.qaoa(model, p=2, rng=rng, restarts=6)
        assert ratio >= 0.99
        assert vq.cut_size([(0, 1), (1, 2), (0, 2)], bits) == 2

    @pytest.mark.parametrize("name, value", [
        ("p", 0), ("p", -1), ("p", True), ("p", 1.0),
        ("restarts", 0), ("restarts", -2), ("restarts", True)])
    def test_counts_are_checked(self, name, value):
        model = vq.maxcut_to_ising([(0, 1), (1, 2)])
        args = dict({"p": 1, "restarts": 1}, **{name: value})
        with pytest.raises(BadParameter, match=f"^{name} must be"):
            vq.qaoa(model, rng=np.random.default_rng(0), steps=2, **args)

    def test_p1_beats_random_guess(self):
        rng = np.random.default_rng(5)
        model = vq.maxcut_to_ising([(0, 1), (1, 2), (2, 3), (3, 0)])
        _, _, ratio = vq.qaoa(model, p=1, rng=rng, restarts=4)
        assert ratio > 0.5


    def test_diagonal_built_once(self, monkeypatch):
        model = vq.maxcut_to_ising([(0, 1), (1, 2), (0, 2)])
        calls = []
        diagonal = vq.IsingModel.diagonal

        def counted(self, *args, **kwargs):
            calls.append(args or kwargs)
            return diagonal(self, *args, **kwargs)

        monkeypatch.setattr(vq.IsingModel, "diagonal", counted)
        vq.qaoa(model, p=1, rng=np.random.default_rng(6), restarts=2,
                steps=5)
        assert len(calls) == 1

    def test_private_state_matches_public(self):
        model = vq.IsingModel({(0, 1): 0.7, (1, 2): -0.4},
                              np.array([0.2, 0.0, -0.5]), const=1.3)
        gammas, betas = [0.4, -0.9], [0.7, 0.25]
        diag = model.diagonal(include_const=False)
        assert np.array_equal(vq._qaoa_state(3, diag, gammas, betas),
                              vq.qaoa_state(model, gammas, betas))

    def test_state_rows_match_rx_loop(self):
        # the batched builder fills each row's mixer from vectorised cos
        # and sin; every row is the bits of the one-state loop over sc.rx
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            model = vq.IsingModel(
                {(i, j): rng.normal() for i in range(n)
                 for j in range(i + 1, n)}, rng.normal(size=n), const=0.4)
            diag = model.diagonal(include_const=False)
            for p in (1, 2, 3):
                G = rng.uniform(-np.pi, np.pi, (9, p))
                B = rng.uniform(-np.pi, np.pi, (9, p))
                rows = vq._qaoa_state(n, diag, G, B)
                for g_row, b_row, out in zip(G, B, rows):
                    psi = np.full(2**n, 1 / np.sqrt(2**n), dtype=complex)
                    for g, b in zip(g_row, b_row):
                        psi = np.exp(-1j * g * diag) * psi
                        for q in range(n):
                            psi = sc.apply_gate(psi, sc.rx(2 * b), [q])
                    assert np.array_equal(out, psi)
                    assert np.array_equal(
                        vq.qaoa_state(model, g_row, b_row), psi)
        with pytest.raises(DimensionMismatch):  # one beta short
            vq.qaoa_state(model, [0.4, 0.1], [0.7])

    @staticmethod
    def reference_qaoa(model, p, rng, restarts, steps):
        """qaoa from public pieces: one state per angle vector, descent by
        gradient_descent with finite_difference_gradient at step 1e-6."""
        n = model.n
        diag_e = model.diagonal(include_const=False) + model.const

        def expected(angles):
            psi = vq.qaoa_state(model, angles[:p], angles[p:])
            return float(np.sum(np.abs(psi) ** 2 * diag_e))

        best_angles, best_val = None, np.inf
        for _ in range(restarts):
            angles, hist = vq.gradient_descent(
                expected,
                lambda a: vq.finite_difference_gradient(expected, a, 1e-6),
                rng.uniform(0, np.pi, 2 * p), lr=0.05, steps=steps)
            if hist[-1] < best_val:
                best_val, best_angles = hist[-1], angles
        psi = vq.qaoa_state(model, best_angles[:p], best_angles[p:])
        idx = int(np.argmax(np.abs(psi) ** 2))
        bits = tuple((idx >> (n - 1 - q)) & 1 for q in range(n))
        e_min, e_max = diag_e.min(), diag_e.max()
        ratio = (e_max - best_val) / (e_max - e_min) if e_max > e_min else 1.0
        return best_angles, bits, float(ratio)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_batched_descent_is_the_reference(self, p):
        # no tolerance: the batched step takes the same floats
        graph_rng = np.random.default_rng(70 + p)
        for n in range(2, 7):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            keep = graph_rng.random(len(pairs)) < 0.5
            keep[graph_rng.integers(len(pairs))] = True
            model = vq.maxcut_to_ising(
                [e for e, k in zip(pairs, keep) if k], n)
            seed = int(graph_rng.integers(2**31))
            angles, bits, ratio = vq.qaoa(
                model, p, np.random.default_rng(seed), restarts=2, steps=20)
            ref_angles, ref_bits, ref_ratio = self.reference_qaoa(
                model, p, np.random.default_rng(seed), restarts=2, steps=20)
            assert np.array_equal(angles, ref_angles)
            assert bits == ref_bits
            assert ratio == ref_ratio


class TestQBoost:
    def test_qubo_equals_direct_loss(self):
        rng = np.random.default_rng(6)
        K, N, B = 3, 10, 2
        H = rng.choice([-1.0, 1.0], size=(K, N))
        y = rng.choice([-1.0, 1.0], size=N)
        lam = 0.07
        Q, const = vq.qboost_objective(H, y, lam, bits=B)
        for q in itertools.product((0, 1), repeat=K * B):
            assert vq.qubo_energy(Q, None, q) + const == pytest.approx(
                vq.qboost_loss(H, y, q, lam, bits=B), abs=1e-10
            )


class TestGibbs:
    def test_pair_marginal(self):
        for T in (0.4, 1.0, 3.0):
            for n in (1, 2, 3, 4):
                rho = vq.gibbs_pair_prepare(T, n)
                H0 = sum(sc.expand_gate(sc.X, [q], n) for q in range(n))
                ref = vq.gibbs_state(H0, T, sign=-1.0)
                assert np.abs(rho - ref).max() < 1e-10

    def test_tfim_classical_limit(self):
        # no transverse field: diagonal follows exp(E(s)/T)/Z in the
        # +H/T convention
        rng = np.random.default_rng(8)
        m = vq.IsingModel({(0, 1): 0.5, (1, 2): -0.3},
                          rng.normal(size=3), c=np.zeros(3))
        T = 1.3
        _, p = vq.tfim_gibbs(m, T)
        E = np.array([
            m.energy(vq.spins_from_bits(
                [(i >> (2 - q)) & 1 for q in range(3)]
            ))
            for i in range(8)
        ])
        ref = np.exp((E - E.max()) / T)
        ref /= ref.sum()
        assert np.abs(p - ref).max() < 1e-12

    @pytest.mark.parametrize("T", [5e-4, 1e-3])
    def test_small_temperature_is_finite(self, T):
        # e^{1/2T} overflows below T ~ 7e-4; the weights relative to the
        # larger one do not
        for n in (1, 2, 3):
            rho = vq.gibbs_pair_prepare(T, n)
            H0 = sum(sc.expand_gate(sc.X, [q], n) for q in range(n))
            assert np.all(np.isfinite(rho))
            assert np.abs(rho - vq.gibbs_state(H0, T, sign=-1.0)).max() \
                < 1e-12

    def test_transverse_field_mixes(self):
        m = vq.IsingModel({}, np.array([1.0]), c=np.array([0.5]))
        rho, _ = vq.tfim_gibbs(m, 1.0)
        assert abs(rho[0, 1]) > 1e-3  # off-diagonal from sigma^x


class TestBarren:
    def test_mean_zero_and_case3(self):
        rng = np.random.default_rng(9)
        for n in (2, 3):
            H = sc.pauli_matrix("Z" + "I" * (n - 1)).astype(complex)
            V = sc.expand_gate(sc.Y, [min(1, n - 1)], n)
            g = np.array([
                vq.barren_gradient_sample(n, H, V, rng, mode="haar")
                for _ in range(1500)
            ])
            se_mean = g.std(ddof=1) / np.sqrt(g.size)
            assert abs(g.mean()) < 5 * se_mean
            m2 = g**2
            se_var = m2.std(ddof=1) / np.sqrt(g.size)
            assert abs(g.var(ddof=1) - vq.case3_variance(H, V, n)) \
                < 5 * se_var

    def test_exact_form_limits_to_printed_form(self):
        H = sc.pauli_matrix("Z" * 6).astype(complex)
        V = sc.expand_gate(sc.Z, [0], 6)
        exact = vq.case3_variance(H, V, 6)
        asym = vq.case3_variance(H, V, 6, exact=False)
        assert asym == pytest.approx(exact, rel=0.05)

    @staticmethod
    def random_hermitian(d, rng):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return A + A.conj().T

    @staticmethod
    def dense_commutator_sample(n, H, V, Um, Up):
        # the direct formula i<chi|[V, Up^dag H Up]|chi>, chi = Um|0>
        chi = Um @ sc.basis_state(n)
        M = Up.conj().T @ H @ Up
        return float((1j * np.vdot(chi, (V @ M - M @ V) @ chi)).real)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_brickwork_sample_matches_dense_commutator(self, n):
        rng = np.random.default_rng(100 + n)
        H = self.random_hermitian(2**n, rng)
        V = self.random_hermitian(2**n, rng)
        for seed in range(3):
            fast_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            fast = vq.barren_gradient_sample(n, H, V, fast_rng)
            Um = vq.brickwork_unitary(n, 3 * n, ref_rng)
            Up = vq.brickwork_unitary(n, 3 * n, ref_rng)
            ref = self.dense_commutator_sample(n, H, V, Um, Up)
            assert abs(fast - ref) < 1e-12
            # same gates drawn in the same order: every U- gate, then U+
            assert fast_rng.bit_generator.state == \
                ref_rng.bit_generator.state

    @staticmethod
    def brickwork_pairs(n):
        return [(q, q + 1) for layer in range(3 * n)
                for q in range(layer % 2, n - 1, 2)]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_brickwork_draw_is_sequential_draws(self, n):
        # one batched draw per brickwork, U- then U+: the same bits as one
        # haar_random_unitary per block in gate order, and the same stream
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(2):
            gates = list(vq._brickwork_gates(n, 3 * n, rng))
            assert [t for _, t in gates] == self.brickwork_pairs(n)
            for g, _ in gates:
                assert np.array_equal(g, sc.haar_random_unitary(4, ref))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_brickwork_sample_is_sequential_draw_sample(self, n):
        # the gradient of the draw-per-gate loop, bit for bit
        rng = np.random.default_rng(300 + n)
        H = self.random_hermitian(2**n, rng)
        V = self.random_hermitian(2**n, rng)
        fast_rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(5):
            chi = sc.basis_state(n)
            for t in self.brickwork_pairs(n):
                chi = sc.apply_gate(chi, sc.haar_random_unitary(4, ref_rng), t)
            pair = np.stack([chi, V @ chi])
            for t in self.brickwork_pairs(n):
                pair = sc.apply_gate(pair, sc.haar_random_unitary(4, ref_rng),
                                     t)
            ref = float(-2 * np.vdot(pair[1], H @ pair[0]).imag)
            assert vq.barren_gradient_sample(n, H, V, fast_rng) == ref
        assert fast_rng.random() == ref_rng.random()

    def test_haar_sample_matches_dense_commutator(self):
        for n in (2, 3):
            rng = np.random.default_rng(200 + n)
            H = self.random_hermitian(2**n, rng)
            V = self.random_hermitian(2**n, rng)
            fast_rng = np.random.default_rng(n)
            ref_rng = np.random.default_rng(n)
            fast = vq.barren_gradient_sample(n, H, V, fast_rng, mode="haar")
            Um = sc.haar_random_unitary(2**n, ref_rng)
            Up = sc.haar_random_unitary(2**n, ref_rng)
            assert abs(fast - self.dense_commutator_sample(n, H, V, Um, Up)) \
                < 1e-12
            assert fast_rng.bit_generator.state == \
                ref_rng.bit_generator.state

    @staticmethod
    def dense_defaults(n):
        d = 2**n
        H = np.zeros((d, d), dtype=complex)
        H[0, 0] = 1.0
        H -= np.eye(d) / d
        return H, sc.expand_gate(sc.Z, [0], n)

    @pytest.mark.parametrize("mode", ["brickwork", "haar"])
    def test_matrix_free_defaults_match_dense(self, mode):
        # barren_experiment's rows (brickwork) or a loop of haar draws on
        # the matrix-free H and V, against a loop of draws from the same
        # stream on their dense matrices and the dense closed form
        n_values = [1, 2, 3, 4, 5]

        def rows(operators):
            rng = np.random.default_rng(3)
            out = []
            for n in n_values:
                H, V = operators(n)
                g = np.array([vq.barren_gradient_sample(n, H, V, rng,
                                                        mode=mode)
                              for _ in range(12)])
                out.append({"n": n, "mean": g.mean(), "var": g.var(ddof=1),
                            "stderr": g.std(ddof=1) / np.sqrt(12),
                            "closed_form_var": vq.case3_variance(
                                *self.dense_defaults(n), n)})
            return out

        if mode == "brickwork":
            fast = vq.barren_experiment(n_values, 12,
                                        np.random.default_rng(3))
        else:
            fast = rows(lambda n: (vq._global_cost(2**n), vq._z_on_first(n)))
        for a, b in zip(fast, rows(self.dense_defaults), strict=True):
            assert a["n"] == b["n"]
            for key in ("mean", "var", "stderr", "closed_form_var"):
                assert abs(a[key] - b[key]) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_trace_helper_reproduces_case3(self, n):
        d = 2**n
        H, V = self.dense_defaults(n)
        for exact in (True, False):
            closed = vq.case3_variance_from_traces(1 - 1 / d, d, 0.0, n,
                                                   exact=exact)
            assert closed == pytest.approx(
                vq.case3_variance(H, V, n, exact=exact), rel=1e-12)

    def test_brickwork_variance_decays(self):
        rng = np.random.default_rng(10)
        rows = vq.barren_experiment([2, 4], 300, rng)
        assert rows[1]["var"] < rows[0]["var"] / 3


class TestAdiabatic:
    def test_landau_zener_formula(self):
        for eta in (0.1, 0.6, 1.2):
            p = vq.landau_zener(1.0, np.sqrt(eta))
            ref = np.exp(-2 * np.pi * eta)
            assert abs(p - ref) / ref < 0.05

    def test_landau_zener_without_coupling_always_jumps(self):
        assert vq.landau_zener(1.0, 0.0) == 1.0

    def test_degenerate_start_diverges(self):
        with pytest.raises(IntegratorDiverged, match="degenerate"):
            vq.adiabatic_follow(np.eye(2), sc.X, 1.0)

    def test_landau_zener_even_in_delta(self, monkeypatch):
        # the sweep window is sized from |Delta|, so the sign of the
        # coupling changes nothing
        for Delta in (0.2, 0.5):
            p = vq.landau_zener(1.0, Delta)
            assert vq.landau_zener(1.0, -Delta) == pytest.approx(p, abs=1e-12)
            assert p == pytest.approx(np.exp(-2 * np.pi * Delta**2), abs=5e-7)
        # one sweep at Delta = 0.05 takes 5.8e6 steps (about 8 s), so there
        # the windows alone are compared
        windows = []

        def window_only(hamiltonian, t_grid, psi0):
            windows.append(list(t_grid))
            return vq.Propagation(np.array([psi0, psi0]), 0,
                                  hamiltonian(np.asarray(t_grid)))

        with monkeypatch.context() as m:
            m.setattr(vq, "solve_ivp", window_only)
            for Delta in (0.05, -0.05, 0.2, -0.2, 0.5, -0.5):
                vq.landau_zener(1.0, Delta)
        assert windows[0::2] == windows[1::2]
        assert windows[0] == [-1200.0, 1200.0]

    def test_follow_converges_with_T(self):
        H0 = -(sc.expand_gate(sc.X, [0], 2) + sc.expand_gate(sc.X, [1], 2))
        H1 = vq.IsingModel({(0, 1): 0.7},
                           np.array([0.3, -0.5])).hamiltonian()
        _, f50 = vq.adiabatic_follow(H0, H1, 50)
        _, f100 = vq.adiabatic_follow(H0, H1, 100)
        i50, i100 = 1 - f50[-1], 1 - f100[-1]
        assert i100 < i50 / 1.6  # doubling T at least halves, 20% slack
        _, f400 = vq.adiabatic_follow(H0, H1, 400)
        assert f400[-1] > 0.999

    def test_schedule_called_once_per_check_point(self):
        H0 = -sc.pauli_reconstruct([("XI", 1.0), ("IX", 1.0)], 2)
        H1 = vq.IsingModel({(0, 1): 0.7}, np.array([0.3, -0.5])).hamiltonian()
        calls = []

        def schedule(s):
            calls.append(s)
            return s

        vq.adiabatic_follow(H0, H1, 8.0, schedule)
        counts = collections.Counter(calls)
        assert [counts[s] for s in np.linspace(0, 1, 51)] == [1] * 51

    def test_fidelities_do_not_depend_on_evaluation_order(self, monkeypatch):
        # the check-grid ground states come from the H stack solve_ivp
        # returns, not from whichever stack it evaluates first
        H0 = -sc.pauli_reconstruct([("XI", 1.0), ("IX", 1.0)], 2)
        H1 = vq.IsingModel({(0, 1): 0.7}, np.array([0.3, -0.5])).hamiltonian()
        _, ref = vq.adiabatic_follow(H0, H1, 8.0)
        solve = vq.solve_ivp

        def probe_first(hamiltonian, t_grid, psi0):
            hamiltonian(np.asarray(t_grid)[:1])
            return solve(hamiltonian, t_grid, psi0)

        monkeypatch.setattr(vq, "solve_ivp", probe_first)
        _, fids = vq.adiabatic_follow(H0, H1, 8.0)
        assert np.array_equal(fids, ref)


def at_default_and_half_step(monkeypatch, compute):
    """compute() with the default Magnus step rule, then with every step
    halved: twice the phase-rule step count, half the allowed change of H
    within a step."""
    default = compute()
    steps = vq._cf4_steps
    monkeypatch.setattr(vq, "_cf4_steps", lambda *a: 2 * steps(*a))
    monkeypatch.setattr(vq, "_CF4_MAX_CHANGE", vq._CF4_MAX_CHANGE / 2)
    return default, compute()


def fixed_steps(monkeypatch, n):
    monkeypatch.setattr(vq, "_cf4_steps", lambda *a: n)


class TestMagnusPropagator:
    @staticmethod
    def sweep(t):
        Hm = np.empty((t.size, 2, 2))
        Hm[:, 0, 0], Hm[:, 1, 1] = t, -t
        Hm[:, 0, 1] = Hm[:, 1, 0] = 1.0
        return Hm

    def final_state(self, monkeypatch, n):
        fixed_steps(monkeypatch, n)
        return vq.solve_ivp(self.sweep, [-4.0, 4.0], [1, 0]).states[-1]

    def test_fourth_order(self, monkeypatch):
        ref = self.final_state(monkeypatch, 8192)
        err = [np.linalg.norm(self.final_state(monkeypatch, n) - ref)
               for n in (64, 128)]
        assert err[0] / err[1] > 12  # 16 for a fourth-order scheme

    def test_hamiltonians_are_the_grid_stack(self):
        grid = np.array([-2.0, -0.5, 1.0, 3.0])
        out = vq.solve_ivp(self.sweep, grid, [1, 0])
        assert np.array_equal(out.hamiltonians, self.sweep(grid))

    def test_batches_and_grid(self, monkeypatch):
        # more steps than one batch; states reported at every grid time
        grid = np.linspace(-2.0, 2.0, 3)
        n = vq._CF4_BATCH + 3
        fixed_steps(monkeypatch, n)
        out = vq.solve_ivp(self.sweep, grid, [1, 0])
        assert out.nfev == grid.size + 3 * n * 2
        assert np.allclose(np.linalg.norm(out.states, axis=1), 1, atol=1e-12)
        half = vq.solve_ivp(self.sweep, grid[:2], [1, 0]).states[-1]
        assert np.allclose(out.states[1], half, atol=1e-13)

    def test_step_count_from_hamiltonian(self):
        # |H| peaks at hypot(4, 1) on [-4, 4]; each step adds 3 evaluations
        out = vq.solve_ivp(self.sweep, [-4.0, 4.0], [1, 0])
        assert out.nfev == 2 + 3 * math.ceil(8 * math.hypot(4, 1) / 0.25)

    def test_unresolvable_hamiltonian_raises(self):
        H0 = -sc.pauli_reconstruct([("XI", 1.0), ("IX", 1.0)], 2)
        H1 = vq.IsingModel({(0, 1): 0.7}, np.array([0.3, -0.5])).hamiltonian()
        with pytest.raises(IntegratorDiverged, match="too fast"):
            vq.adiabatic_follow(H0, H1, 8.0, lambda s: (s * 1e7) % 1.0)


def fast_schedule(s):
    # 100 periods over the sweep: two in every default check interval, so
    # both Gauss nodes of a two-step interval see the same lam
    return 0.5 * (1 - np.cos(200 * np.pi * s))


class TestStepHalving:
    """Halving every Magnus step moves no result by more than 1e-7."""

    def test_landau_zener(self, monkeypatch):
        etas = (0.05, 0.1, 0.3, 0.6, 1.0, 1.5)  # the landau-zener CLI grid
        p, p_fine = at_default_and_half_step(monkeypatch, lambda: np.array(
            [vq.landau_zener(1.0, np.sqrt(eta)) for eta in etas]))
        assert np.abs(p - p_fine).max() <= 1e-7

    @pytest.mark.parametrize("schedule", [None, lambda s: s**2, fast_schedule],
                             ids=["linear", "quadratic", "fast"])
    def test_adiabatic_follow(self, monkeypatch, schedule):
        H0 = -sc.pauli_reconstruct([("XI", 1.0), ("IX", 1.0)], 2)
        H1 = vq.IsingModel({(0, 1): 0.7}, np.array([0.3, -0.5])).hamiltonian()
        f, f_fine = at_default_and_half_step(monkeypatch, lambda: np.array(
            [vq.adiabatic_follow(H0, H1, T, schedule)[1]
             for T in (8.0, 16.0, 50.0, 100.0, 400.0)]))
        assert np.abs(f - f_fine).max() <= 1e-7


def eigh_exponential(A, h):
    w, V = np.linalg.eigh(A)
    return (V * np.exp(-1j * h[..., None] * w)[..., None, :]) \
        @ V.conj().swapaxes(-1, -2)


class TestCF4Sweep:
    """The batched sweep of solve_ivp: the closed-form two-level
    exponential, the order of the step products, and fail-fast refinement."""

    @pytest.mark.parametrize("seed", range(5))
    def test_two_level_exponential_matches_eigh(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(64, 2, 2, 2)) + 1j * rng.normal(size=(64, 2, 2, 2))
        A = (X + X.conj().swapaxes(-1, -2)) / 2
        h = rng.uniform(0, 1, (64, 2))
        assert np.abs(vq._cf4_exp(A, h) - eigh_exponential(A, h)).max() \
            <= 1e-14

    @pytest.mark.parametrize("c", [0.0, -0.7, 2.5])
    def test_two_level_exponential_at_zero_traceless_part(self, c):
        A = np.broadcast_to(c * np.eye(2), (3, 2, 2))
        h = np.array([0.0, 0.1, 0.3])
        E = vq._cf4_exp(A, h)
        assert np.abs(E - eigh_exponential(A, h)).max() <= 1e-14
        assert np.array_equal(E, np.exp(-1j * c * h)[:, None, None]
                              * np.eye(2))

    @pytest.mark.parametrize("n", [1, 6, 7])
    def test_grid_prefix_bit_for_bit(self, monkeypatch, n):
        # states[i] of one sweep over the grid equals the last state of a
        # sweep over the first i + 1 grid times, and of a sweep over interval
        # i alone from states[i - 1]: batching the intervals neither moves
        # their steps nor reorders or regroups the step products. The change
        # bound scales with max |H| on the grid, so it is lifted here to keep
        # the step counts of a sub-grid those of the whole grid.
        fixed_steps(monkeypatch, n)
        monkeypatch.setattr(vq, "_CF4_MAX_CHANGE", math.inf)
        grid = np.linspace(-3.0, 3.0, 7)
        for sweep in (TestMagnusPropagator.sweep, four_level_sweep):
            psi0 = np.eye(sweep(grid[:1]).shape[-1])[0]
            states = vq.solve_ivp(sweep, grid, psi0).states
            for i in range(1, grid.size):
                prefix = vq.solve_ivp(sweep, grid[:i + 1], psi0).states[-1]
                alone = vq.solve_ivp(sweep, grid[i - 1:i + 1],
                                     states[i - 1]).states[-1]
                assert np.array_equal(states[i], prefix)
                assert np.array_equal(states[i], alone)

    def test_unresolvable_hamiltonian_fails_fast(self):
        # 36,960 schedule calls before the raise when every interval was
        # refined alone to the end
        H0 = -sc.pauli_reconstruct([("XI", 1.0), ("IX", 1.0)], 2)
        H1 = vq.IsingModel({(0, 1): 0.7},
                           np.array([0.3, -0.5])).hamiltonian()
        calls = []

        def schedule(s):
            calls.append(s)
            return (s * 1e7) % 1.0

        with pytest.raises(IntegratorDiverged, match=r"too fast on \[0, "):
            vq.adiabatic_follow(H0, H1, 8.0, schedule)
        assert len(calls) <= 36960


def four_level_sweep(t):
    # a 4 x 4 sweep with complex couplings, so the steps go through eigh
    H = np.zeros((t.size, 4, 4), dtype=complex)
    H[:, range(4), range(4)] = np.outer(t, [1.0, -0.5, 0.25, -1.0])
    H[:, 0, 1] = H[:, 2, 3] = 0.5 + 0.5j
    H[:, 1, 2] = 0.3
    return H + np.triu(H, 1).conj().swapaxes(1, 2)


class TestDynamicsBoundary:
    H0 = -sc.pauli_reconstruct([("XI", 1.0), ("IX", 1.0)], 2)
    H1 = vq.IsingModel({(0, 1): 0.7}, np.array([0.3, -0.5])).hamiltonian()

    @pytest.mark.parametrize("which", [0, 1])
    def test_follow_rejects_non_hermitian(self, which):
        H = [self.H0, self.H1]
        H[which] = H[which] + np.triu(np.ones((4, 4)), 1)
        with pytest.raises(BadParameter, match=f"H{which} is not Hermitian"):
            vq.adiabatic_follow(*H, 10.0)

    @pytest.mark.parametrize("H0, H1", [
        (np.eye(4)[:3], np.eye(4)[:3]),
        (np.eye(4), np.eye(2)),
        (np.eye(4)[None], np.eye(4)[None]),
        (np.eye(1), np.eye(1)),
    ])
    def test_follow_rejects_shapes(self, H0, H1):
        with pytest.raises(DimensionMismatch):
            vq.adiabatic_follow(H0, H1, 10.0)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_follow_rejects_duration(self, T):
        with pytest.raises(BadParameter, match="T must be"):
            vq.adiabatic_follow(self.H0, self.H1, T)

    @pytest.mark.parametrize("alpha, Delta", [
        (0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
        (1.0, math.nan), (1.0, math.inf),
    ])
    def test_landau_zener_rejects(self, alpha, Delta):
        with pytest.raises(BadParameter, match="alpha"):
            vq.landau_zener(alpha, Delta)

    @pytest.mark.parametrize("psi0", [[1, 0, 0], [[1, 0]], 1.0])
    def test_solve_ivp_rejects_state_shape(self, psi0):
        with pytest.raises(DimensionMismatch, match="psi0"):
            vq.solve_ivp(TestMagnusPropagator.sweep, [0.0, 1.0], psi0)

    @pytest.mark.parametrize("grid", [
        [1.0, 0.0], [0.0, 0.0], [0.0, math.nan], [0.0, math.inf], [],
        [[0.0, 1.0]],
    ])
    def test_solve_ivp_rejects_grid(self, grid):
        with pytest.raises(BadParameter, match="t_grid"):
            vq.solve_ivp(TestMagnusPropagator.sweep, grid, [1, 0])


class TestLossProfile:
    def test_std_grows_with_cube_width(self):
        rng = np.random.default_rng(11)
        circ = two_qubit_circuit()
        H = sc.pauli_reconstruct([("ZI", 1.0)], 2)
        th, _ = vq.vqe(H, circ, rng=rng, lr=0.2, steps=150)
        prof = vq.loss_std_profile(circ, H, th, [0.05, 0.2, 0.8], 200, rng)
        vals = list(prof.values())
        assert vals[0] < vals[1] < vals[2]


class TestDQC1Model:
    def test_gradient_rule(self):
        rng = np.random.default_rng(12)
        layers = [("XZ",), ("YI",)]
        xg = [sc.haar_random_unitary(4, rng) for _ in range(2)]
        th = rng.uniform(-1, 1, 2)
        g = vq.dqc1_model_gradient(layers, xg, th)
        fd = vq.finite_difference_gradient(
            lambda t: vq.dqc1_model(layers, xg, t), th
        )
        assert np.abs(g - fd).max() < 1e-8


class TestClassifier:
    def test_learns_separable_problem(self):
        rng = np.random.default_rng(13)

        def state_fn(x, th):
            psi = np.array([1.0, 0.0], dtype=complex)
            return sc.exp_hamiltonian(sc.Y, float(x) + th[0]) @ psi

        P0 = np.diag([1.0, 0.0]).astype(complex)
        P1 = np.diag([0.0, 1.0]).astype(complex)
        X = [-0.6, -0.5, -0.4, 0.4, 0.5, 0.6]
        y = [0, 0, 0, 1, 1, 1]
        theta, hist, acc = vq.variational_classifier(
            state_fn, [P0, P1], X, y, [0.8], lr=0.4, epochs=60
        )
        assert acc == 1.0
        assert hist[-1] < hist[0]

    def test_incomplete_projectors_rejected(self):
        P0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(BadParameter,
                           match="projectors do not sum to identity"):
            vq.variational_classifier(
                lambda x, th: np.array([1.0, 0.0], dtype=complex),
                [P0, P0], [0.0], [0], [0.0], epochs=1)
