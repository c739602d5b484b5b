"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `ACCEPTANCE nn PASS/FAIL` verdict line (visible
with `pytest -s`; `pytest -v` additionally gives one PASSED/FAILED line per
criterion) and enforces its runtime budget.
"""
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qdesk import algos, cli, dequant, encode, qkernel, qprob, simcore, tnet
from qdesk import varqml


@contextmanager
def criterion(num, desc, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {desc}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, (
        f"criterion {num} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    )
    print(f"ACCEPTANCE {num:02d} PASS: {desc} ({elapsed:.1f}s)")


def test_criterion_01_entropy_worked_examples():
    with criterion(1, "entropy worked examples", 1.0):
        p = [0.5, 0.25, 0.125, 0.125]
        assert abs(qprob.shannon_entropy(p) - 1.75) <= 1e-12
        assert abs(qprob.relative_entropy(p, [0.25] * 4) - 0.25) <= 1e-12


def test_criterion_02_bell_and_teleportation():
    with criterion(2, "Bell states exact; teleport fidelity 1 x1000", 5.0):
        s = 1 / math.sqrt(2)
        expected = {
            "phi+": [s, 0, 0, s],
            "phi-": [s, 0, 0, -s],
            "psi+": [0, s, s, 0],
            "psi-": [0, s, -s, 0],
        }
        for name, vec in expected.items():
            assert np.abs(algos.bell_prepare(name) - np.array(vec)).max() \
                < 1e-12
        rng = np.random.default_rng(20)
        for _ in range(1000):
            psi = simcore.haar_random_state(2, rng)
            _, out = algos.teleport(psi, rng)
            assert abs(abs(np.vdot(psi, out)) ** 2 - 1.0) <= 1e-10


def test_criterion_03_deutsch_jozsa_exhaustive():
    with criterion(3, "Deutsch-Jozsa exhaustive, 2 and 3 bits", 5.0):
        for n in (2, 3):
            N = 2**n
            for const in (0, 1):
                assert algos.deutsch_jozsa(n, lambda x: const) == "constant"
            for ones in itertools.combinations(range(N), N // 2):
                table = [1 if x in ones else 0 for x in range(N)]
                assert algos.deutsch_jozsa(n, lambda x: table[x]) == \
                    "balanced"


def test_criterion_04_qft_matches_dft():
    with criterion(4, "QFT = DFT to 1e-10, n<=6; Theta(n^2) gates", 10.0):
        for n in range(1, 7):
            assert np.abs(algos.qft_unitary(n) - algos.qft_matrix(n)).max() \
                < 1e-10
            count = len(algos.qft_circuit(n).ops)
            assert count == n * (n + 1) // 2 + n // 2
            assert n**2 / 4 <= count <= 2 * n**2


def test_criterion_05_qpe_bound():
    with criterion(5, "QPE ancilla bound and exact-fraction recovery", 60.0):
        rng = np.random.default_rng(21)
        t, eps = 3, 0.2
        n_anc = algos.qpe_ancilla_bits(t, eps)
        assert n_anc == t + math.ceil(math.log2(2 + 1 / (2 * eps)))
        dim = 2**n_anc
        hits = total = 0
        for phi in np.linspace(0.013, 0.987, 20):
            probs = np.abs(algos.qpe_register_amplitudes(phi, n_anc)) ** 2
            probs /= probs.sum()
            ests = np.arange(dim) / dim
            dist = np.minimum(np.abs(ests - phi), 1 - np.abs(ests - phi))
            good = dist <= 2.0**-t
            # the theoretical guarantee, point by point
            assert probs[good].sum() >= 1 - eps
            draws = rng.choice(dim, size=10_000, p=probs)
            hits += int(np.sum(good[draws]))
            total += 10_000
        assert hits / total >= 1 - eps
        # exact t-bit fractions are read out with probability 1
        for j in range(2**t):
            probs = np.abs(
                algos.qpe_register_amplitudes(j / 2**t, t)
            ) ** 2
            assert abs(probs[j] - 1.0) < 1e-12
        # closed-form register law equals the circuit simulation
        U = np.diag(np.exp(2j * np.pi * np.array([0.3, 0.7])))
        e0 = np.array([1.0, 0.0], dtype=complex)
        circ_probs = algos.qpe_circuit_distribution(U, e0, 4)
        law = np.abs(algos.qpe_register_amplitudes(0.3, 4)) ** 2
        assert np.abs(circ_probs - law).max() < 1e-10


def test_criterion_06_grover_all_counts():
    with criterion(6, "Grover closed form = simulation, all n<=6, all M",
                   30.0):
        for n in range(1, 7):
            N = 2**n
            for M in range(1, N):
                marked = set(range(M))
                R, closed, sim, _ = algos.grover(
                    lambda x: x in marked, n
                )
                assert R == math.floor(math.pi / 4 * math.sqrt(N / M))
                assert abs(closed - sim) < 1e-10


def test_criterion_07_dqc1_trace():
    with criterion(7, "DQC1 unbiased; 5-sigma at 1e5 shots", 60.0):
        rng = np.random.default_rng(22)
        shots = 100_000
        for n_reg in range(1, 6):
            dim = 2**n_reg
            U = simcore.haar_random_unitary(dim, rng)
            truth = np.trace(U) / dim
            exact = algos.dqc1_exact_expectations(U)
            assert abs(exact - truth) < 1e-10
            est = algos.dqc1_trace(U, shots, rng)
            for got, want in ((est.real, truth.real),
                              (est.imag, truth.imag)):
                sigma = math.sqrt(max(1 - want**2, 1e-12) / shots)
                assert abs(got - want) < 5 * sigma


def test_criterion_08_lcu_block():
    with criterion(8, "LCU block = A/alpha, 100 random 2-3 qubit", 30.0):
        rng = np.random.default_rng(23)
        for k in range(100):
            n = 2 if k % 2 == 0 else 3
            dim = 2**n
            A = rng.normal(size=(dim, dim))
            A = A + A.T
            terms = simcore.pauli_decompose(A, tol=1e-12)
            alphas = [abs(c) for _, c in terms]
            unis = [np.sign(c.real) * simcore.pauli_matrix(lab)
                    for lab, c in terms]
            full, alpha = algos.lcu_block_encode(alphas, unis)
            block = algos.lcu_extract_block(full, dim)
            assert np.abs(block - A / alpha).max() < 1e-10


def test_criterion_09_matrix_protocols():
    with criterion(9, "QPE multiply/invert fidelity and p_acc", 30.0):
        rng = np.random.default_rng(24)
        for n in (2, 3):
            dim = 2**n
            lam = rng.choice(np.arange(40, 220), size=dim,
                             replace=False) / 256.0
            V = simcore.haar_random_unitary(dim, rng)
            A = (V * lam) @ V.conj().T
            A = (A + A.conj().T) / 2
            x = simcore.haar_random_state(dim, rng)

            out, p_acc, _ = algos.qpe_matrix_multiply(A, x, t_bits=8)
            exact = A @ x
            exact /= np.linalg.norm(exact)
            assert abs(np.vdot(exact, out)) ** 2 > 0.999
            assert abs(p_acc - algos.matrix_multiply_p_acc(A, x)) < 1e-10

            C = lam.min()
            out, p_acc, _ = algos.qpe_matrix_invert(A, x, C, t_bits=8)
            exact = np.linalg.solve(A, x)
            exact /= np.linalg.norm(exact)
            assert abs(np.vdot(exact, out)) ** 2 > 0.999
            assert abs(p_acc - algos.matrix_invert_p_acc(A, x, C)) < 1e-10


def test_criterion_10_fourier_spectra():
    with criterion(10, "encoding spectra and no off-spectrum power", 60.0):
        rng = np.random.default_rng(25)
        spec1 = encode.EncodingSpec("pauli", {"gamma": 1.0})
        assert np.abs(encode.frequency_spectrum(spec1)
                      - [-2.0, 0.0, 2.0]).max() < 1e-12
        for r in (2, 3, 4):
            par = encode.EncodingSpec("pauli-parallel", {"r": r})
            seq = encode.EncodingSpec("pauli-sequential", {"r": r})
            want = np.arange(-r, r + 1, dtype=float)
            assert np.abs(encode.frequency_spectrum(par) - want).max() \
                < 1e-12
            assert np.abs(encode.frequency_spectrum(seq) - want).max() \
                < 1e-12
        for N in range(1, 6):
            exp = encode.EncodingSpec("exponential", {"N": N})
            assert encode.frequency_spectrum(exp).size == 3**N
        # fitted models carry no power outside the predicted spectrum
        for spec, dim, layers in (
            (spec1, 2, 1),
            (encode.EncodingSpec("pauli-parallel", {"r": 2}), 4, 1),
            (encode.EncodingSpec("pauli-sequential", {"r": 2}), 2, 1),
            (encode.EncodingSpec("exponential", {"N": 2}), 4, 1),
        ):
            n_train = layers * (spec.params.get("r", 1)
                                if spec.kind == "pauli-sequential" else
                                layers) + 1
            trainables = [simcore.haar_random_unitary(dim, rng)
                          for _ in range(n_train)]
            O = np.diag(rng.normal(size=dim)).astype(complex)
            model = encode.encoding_model(spec, trainables, O, layers)
            omegas = encode.frequency_spectrum(spec, layers)
            assert encode.off_spectrum_power(model, omegas) < 1e-8
            encode.fit_fourier_coefficients(model, omegas)  # no aliasing


def _random_param_circuit(rng, multi_term=False):
    n = int(rng.integers(1, 5))
    labels = ["I", "X", "Y", "Z"]
    layers = []
    for _ in range(3):
        def rand_label():
            while True:
                lab = "".join(rng.choice(labels) for _ in range(n))
                if lab != "I" * n:
                    return lab
        gen = [(rand_label(), 1.0)]
        if multi_term:
            gen.append((rand_label(), float(rng.uniform(0.3, 1.0))))
        layers.append(varqml.Layer(gen, simcore.haar_random_unitary(2**n,
                                                                    rng)))
    circ = varqml.ParamCircuit(n, layers)
    O = rng.normal(size=(2**n, 2**n))
    return circ, (O + O.T) / 2, rng.uniform(-np.pi, np.pi, 3)


def test_criterion_11_gradients():
    with criterion(11, "parameter-shift vs FD; stochastic within 5 sigma",
                   120.0):
        rng = np.random.default_rng(26)
        for _ in range(20):
            circ, O, theta = _random_param_circuit(rng)
            ps = varqml.parameter_shift_gradient(circ, theta, O)
            fd = varqml.finite_difference_gradient(
                lambda th: varqml.cost_expectation(circ, th, O), theta
            )
            assert np.abs(ps - fd).max() < 1e-6
        for _ in range(20):
            circ, O, theta = _random_param_circuit(rng, multi_term=True)
            t = int(rng.integers(0, 3))
            label = circ.layers[t].generator[0][0]
            exact = varqml.exact_x_gradient(circ, t, label, theta, O)
            est = varqml.stochastic_parameter_shift(
                circ, t, label, theta, O, None, 300, rng
            )
            sigma = max(est.stderr, 1e-6)
            assert abs(est.value - exact) < 5 * sigma


def test_criterion_12_barren_plateaus():
    with criterion(12, "zero mean, closed-form variance, -2log2 slope",
                   600.0):
        rng = np.random.default_rng(27)
        # closed form vs a global-Haar Monte Carlo at n = 2, 3, 4; the
        # gradient mean is 0, so E[g^2] is the variance
        for n, m in ((2, 2000), (3, 2000), (4, 1500)):
            d = 2**n
            H = np.zeros((d, d), dtype=complex)
            H[0, 0] = 1.0
            H -= np.eye(d) / d
            V = simcore.expand_gate(simcore.Z, [0], n)
            g2 = np.array([
                varqml.barren_gradient_sample(n, H, V, rng, mode="haar") ** 2
                for _ in range(m)
            ])
            closed = varqml.case3_variance(H, V, n)
            stderr = g2.std(ddof=1) / math.sqrt(m)
            assert abs(g2.mean() - closed) < 5 * stderr
        rows = varqml.barren_experiment(range(2, 7), 200, rng)
        for r in rows:
            assert abs(r["mean"]) < 5 * max(r["stderr"], 1e-12)
        slope = np.polyfit([r["n"] for r in rows],
                           [math.log(r["var"]) for r in rows], 1)[0]
        target = -2 * math.log(2)
        assert abs(slope - target) <= 0.15 * abs(target)


def test_criterion_13_landau_zener_and_adiabatic():
    with criterion(13, "LZ formula within 5%; infidelity halves with 2T",
                   120.0):
        for eta in (0.05, 0.1, 0.3, 0.6, 1.0, 1.5):
            prob = varqml.landau_zener(1.0, math.sqrt(eta))
            formula = math.exp(-2 * math.pi * eta)
            assert abs(prob - formula) <= 0.05 * formula
        H0 = -simcore.pauli_reconstruct([("XI", 1.0), ("IX", 1.0)], 2)
        model = varqml.IsingModel({(0, 1): 0.7}, np.array([0.3, -0.5]))
        H1 = model.hamiltonian()
        infid = {}
        for T in (50.0, 100.0):
            _, fids = varqml.adiabatic_follow(H0, H1, T)
            infid[T] = 1 - fids[-1]
        # doubling T at least halves the terminal infidelity, within 20%
        assert infid[50.0] / infid[100.0] >= 1.6


def test_criterion_14_qaoa_ising_qboost():
    with criterion(14, "QAOA triangle >= 0.99; QUBO maps exact", 120.0):
        triangle = varqml.maxcut_to_ising([(0, 1), (1, 2), (0, 2)])
        _, _, ratio = varqml.qaoa(triangle, 2, np.random.default_rng(4))
        assert ratio >= 0.99
        # Ising/QUBO equivalence on every assignment, up to 16 variables
        rng = np.random.default_rng(28)
        for nv in (3, 8, 16):
            Q = rng.normal(size=(nv, nv))
            b = rng.normal(size=nv)
            model = varqml.qubo_to_ising(Q, b)
            X = np.array(list(itertools.product((0, 1), repeat=nv)),
                         dtype=float)
            qubo_e = np.einsum("ki,ij,kj->k", X, Q, X) + X @ b
            Z = 1 - 2 * X
            ising_e = np.full(X.shape[0], model.const) + Z @ model.h
            for (i, j), Jij in model.J.items():
                ising_e += Jij * Z[:, i] * Z[:, j]
            assert np.abs(qubo_e - ising_e).max() < 1e-9
        # QBoost QUBO equals the direct regularized MSE on a 3-learner /
        # 2-bit instance, on all 64 assignments
        preds = rng.choice([-1.0, 1.0], size=(3, 10))
        labels = rng.choice([-1.0, 1.0], size=10)
        lam = 0.07
        Q, const = varqml.qboost_objective(preds, labels, lam, bits=2)
        for q in itertools.product((0, 1), repeat=6):
            direct = varqml.qboost_loss(preds, labels, q, lam, bits=2)
            via_qubo = varqml.qubo_energy(Q, None, q) + const
            assert abs(direct - via_qubo) < 1e-10


def test_criterion_15_gibbs():
    with criterion(15, "pair-construction marginal; classical TFIM limit",
                   30.0):
        for n in range(1, 5):
            for T in (0.4, 1.0, 3.0):
                rho = varqml.gibbs_pair_prepare(T, n)
                H0 = sum(simcore.expand_gate(simcore.X, [q], n)
                         for q in range(n))
                ref = varqml.gibbs_state(H0, T, sign=-1.0)
                assert np.abs(rho - ref).max() < 1e-10
        model = varqml.IsingModel({(0, 1): 0.8, (1, 2): -0.4},
                                  np.array([0.3, -0.2, 0.5]))
        _, p = varqml.tfim_gibbs(model, 1.3)
        boltz = np.empty(8)
        for idx in range(8):
            bits = [(idx >> (2 - q)) & 1 for q in range(3)]
            boltz[idx] = math.exp(
                model.energy(varqml.spins_from_bits(bits)) / 1.3
            )
        boltz /= boltz.sum()
        assert np.abs(p - boltz).max() < 1e-10


def test_criterion_16_kernels():
    with criterion(16, "kernel identities, s <= g^2 s, power-of-data",
                   120.0):
        rng = np.random.default_rng(29)
        amp = encode.EncodingSpec("amplitude", {})
        phase = encode.EncodingSpec("phase", {})
        basis = encode.EncodingSpec("basis", {"width": 3})
        assert abs(qkernel.quantum_kernel(5, 5, basis) - 1.0) < 1e-10
        assert abs(qkernel.quantum_kernel(5, 6, basis)) < 1e-10
        for _ in range(20):
            x = simcore.haar_random_state(8, rng)
            y = simcore.haar_random_state(8, rng)
            assert abs(qkernel.quantum_kernel(x, y, amp)
                       - abs(np.vdot(x, y)) ** 2) < 1e-10
            for r in (2, 3):
                spec_r = encode.EncodingSpec("amplitude", {"copies": r})
                assert abs(qkernel.quantum_kernel(x, y, spec_r)
                           - abs(np.vdot(x, y)) ** (2 * r)) < 1e-10
            a, b = rng.normal(size=3), rng.normal(size=3)
            assert abs(qkernel.quantum_kernel(a, b, phase)
                       - np.prod(np.cos(a - b) ** 2)) < 1e-10
        for _ in range(100):
            A = rng.normal(size=(5, 5))
            B = rng.normal(size=(5, 5))
            K1 = A @ A.T + 0.05 * np.eye(5)
            K2 = B @ B.T + 0.05 * np.eye(5)
            y = rng.normal(size=5)
            g = qkernel.geometric_difference(K1, K2)
            assert qkernel.model_complexity(K1, y) <= \
                g**2 * qkernel.model_complexity(K2, y) + 1e-8
        # classical quadratic features reproduce quantum labels
        d = 8
        O = rng.normal(size=(d, d))
        O = (O + O.T) / 2
        X = [v / np.linalg.norm(v) for v in rng.normal(size=(90, d))]
        f = qkernel.quadratic_feature_regression(
            X, [float(v @ O @ v) for v in X]
        )
        Xt = [v / np.linalg.norm(v) for v in rng.normal(size=(40, d))]
        mse = np.mean([(f(v) - float(v @ O @ v)) ** 2 for v in Xt])
        assert mse < 1e-6


def test_criterion_17_tensor_networks():
    with criterion(17, "MPS roundtrip, op counts, colorings, anomaly",
                   300.0):
        rng = np.random.default_rng(30)
        for shape in ((2, 2, 2, 2), (3, 2, 4), (2,) * 6):
            T = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            mps = tnet.mps_from_tensor(T)
            assert np.abs(mps.to_dense() - T).max() < 1e-10
            vals = [tnet.mps_norm(mps, s)
                    for s in ("naive", "parallel", "sequential")]
            assert max(vals) - min(vals) < 1e-10
            assert abs(vals[0] - np.linalg.norm(T)) < 1e-10
        # sequential cost within x4 of the N d D^3 model
        for N, D in ((8, 3), (12, 4), (16, 5)):
            cores = [rng.normal(size=(1, 2, D))]
            cores += [rng.normal(size=(D, 2, D)) for _ in range(N - 2)]
            cores.append(rng.normal(size=(D, 2, 1)))
            _, ops = tnet.mps_norm(tnet.MPS(cores), "sequential",
                                   return_ops=True)
            model = N * 2 * D**3
            assert model / 4 <= ops <= model * 4
        # colorings: every graph on <= 4 vertices, random graphs to 8
        for n in range(2, 5):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for mask in range(2 ** len(pairs)):
                edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
                for d in (2, 3, 4):
                    assert tnet.count_colorings(edges, n, d) == \
                        tnet.count_colorings_brute_force(edges, n, d)
        for n in range(5, 9):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for _ in range(10):
                k = int(rng.integers(0, len(pairs) + 1))
                idx = rng.choice(len(pairs), size=k, replace=False)
                edges = [pairs[i] for i in idx]
                for d in (2, 3, 4):
                    assert tnet.count_colorings(edges, n, d) == \
                        tnet.count_colorings_brute_force(edges, n, d)
        # kernel vectors of the projector score ~0
        model = tnet._random_projector(6, 2, 2, 2, rng)
        P = tnet.projector_to_dense(model)
        _, _, Vh = np.linalg.svd(P)
        for null_vec in Vh[np.linalg.matrix_rank(P):]:
            assert np.linalg.norm(P @ null_vec) < 1e-8
        # sqrt(e) fixed point: per-sample loss over a scaled projector is
        # minimized where the score equals sqrt(e)
        x = rng.uniform(-1, 1, size=6)
        s0 = tnet.anomaly_score(model, x)
        gammas = np.linspace(0.25, 4.0, 4001) * math.sqrt(math.e) / s0
        losses = [abs(math.log((g * s0) ** 2) - 1.0) for g in gammas]
        g_star = gammas[int(np.argmin(losses))]
        assert abs(g_star * s0 - math.sqrt(math.e)) < 1e-3
        # and a trained model lands its in-distribution scores there
        train = [0.5 + 0.05 * rng.standard_normal(4) for _ in range(6)]
        fitted, hist = tnet.anomaly_fit(train, S=2, alpha=0.05, steps=60,
                                        rng=np.random.default_rng(14))
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        scores = [tnet.anomaly_score(fitted, x) for x in train]
        assert abs(np.mean(scores) - math.sqrt(math.e)) \
            < 0.1 * math.sqrt(math.e)


def test_criterion_18_dequantization():
    with criterion(18, "failure rate, unbiasedness, -1/2 slopes", 300.0):
        rng = np.random.default_rng(31)
        x = simcore.haar_random_state(32, rng)
        y = simcore.haar_random_state(32, rng)
        xs = dequant.SQVector(x)
        cfg = dequant.EstimatorConfig(0.1, 0.05)
        truth = np.vdot(x, y)
        fails = sum(
            abs(dequant.dequant_inner(xs, y, cfg, rng) - truth) > 0.1
            for _ in range(2000)
        )
        assert fails / 2000 <= 0.05
        for n in range(2, 17):
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert abs(dequant.enumerate_estimator_mean(a, b)
                       - np.vdot(a, b)) < 1e-10
        xq = simcore.haar_random_state(64, rng)
        yq = 0.6 * xq + 0.8 * simcore.haar_random_state(64, rng)
        yq /= np.linalg.norm(yq)
        budgets = [200, 800, 3200, 12800]
        cfgs = [dequant.EstimatorConfig(e, 0.1)
                for e in (0.4, 0.2, 0.1, 0.05)]
        rows = dequant.quantum_vs_dequant_harness(xq, yq, budgets, cfgs,
                                                  rng, trials=48)
        for method in ("quantum-overlap", "dequant-inner"):
            rs = [r["resources"] for r in rows if r["method"] == method]
            es = [r["error"] for r in rows if r["method"] == method]
            assert abs(dequant.loglog_slope(rs, es) + 0.5) <= 0.1, method


def test_criterion_19_cli_determinism(tmp_path):
    with criterion(19, "byte-identical CSV for identical config+seed",
                   30.0):
        import json
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "entropy",
                                        "seed": 123}))
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert cli.main(["run", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
