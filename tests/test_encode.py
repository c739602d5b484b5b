"""Data encodings and the Fourier view of Hamiltonian encodings."""
import numpy as np
import pytest

from qdesk import encode, simcore as sc
from qdesk.errors import BadParameter


class TestBasisEncode:
    def test_two_sample_superposition(self):
        # (|0100> + |1011>)/sqrt(2): indices 4 and 11
        psi = encode.basis_encode([(0, 1, 0, 0), (1, 0, 1, 1)])
        assert psi[4] == pytest.approx(1 / np.sqrt(2))
        assert psi[11] == pytest.approx(1 / np.sqrt(2))
        assert np.abs(psi).sum() == pytest.approx(np.sqrt(2))

    def test_duplicate_rejected(self):
        with pytest.raises(BadParameter, match="duplicate sample"):
            encode.basis_encode([(0, 1), (0, 1)])

    def test_bits_of(self):
        assert encode.bits_of(11, 4) == (1, 0, 1, 1)


class TestQsamplePhase:
    def test_phase_kernel(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.normal(size=2), rng.normal(size=2)
            val = np.trace(
                encode.phase_encode(a) @ encode.phase_encode(b)
            ).real
            assert val == pytest.approx(np.prod(np.cos(a - b) ** 2),
                                        abs=1e-12)

    def test_phase_encode_is_outer_product_of_phase_state(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 5):
            x = rng.normal(size=n)
            psi = encode.phase_state(x)
            assert np.array_equal(encode.phase_encode(x),
                                  np.outer(psi, psi.conj()))


class TestSpectra:
    def test_single_pauli_spectrum(self):
        spec = encode.EncodingSpec("pauli", {})
        assert np.array_equal(encode.frequency_spectrum(spec), [-2, 0, 2])

    def test_parallel_repeats(self):
        # r sigma_z/2 repeats give the degree-r spectrum {-r..r}
        for r in (2, 3, 4):
            spec = encode.EncodingSpec("pauli-parallel", {"r": r})
            assert np.array_equal(
                encode.frequency_spectrum(spec), np.arange(-r, r + 1)
            )

    def test_sequential_matches_parallel(self):
        p = encode.EncodingSpec("pauli-parallel", {"r": 3})
        s = encode.EncodingSpec("pauli-sequential", {"r": 3})
        assert np.array_equal(
            encode.frequency_spectrum(p), encode.frequency_spectrum(s)
        )

    def test_exponential_size(self):
        # beta_j = 3^{j-1} gives |Omega| = 3^N: every integer up to
        # (3^N - 1)/2 in magnitude (Schuld, Sweke & Meyer 2021)
        for N in (1, 2, 3, 4, 5, 12):
            spec = encode.EncodingSpec("exponential", {"N": N})
            omega = encode.frequency_spectrum(spec)
            assert omega.size == 3**N
            half = (3**N - 1) // 2
            assert np.array_equal(omega, np.arange(-half, half + 1))

    def test_exponential_requires_l3(self):
        spec = encode.EncodingSpec("exponential", {"N": 2, "l": 2})
        with pytest.raises(BadParameter, match="ships with l = 3"):
            encode.generator_eigenvalues(spec)

    @pytest.mark.parametrize("spec,G", [
        (encode.EncodingSpec("pauli", {}), sc.Z),
        (encode.EncodingSpec("pauli", {"gamma": 0.7}), 0.7 * sc.Z),
        (encode.EncodingSpec("pauli-parallel", {"r": 3}),
         sc.pauli_reconstruct([("ZII", 0.5), ("IZI", 0.5), ("IIZ", 0.5)], 3)),
        (encode.EncodingSpec("pauli-sequential", {"r": 2}), sc.Z / 2),
        (encode.EncodingSpec("exponential", {"N": 3}),
         sc.pauli_reconstruct([("ZII", 0.5), ("IZI", 1.5), ("IIZ", 4.5)], 3)),
    ], ids=["pauli", "pauli-gamma", "parallel", "sequential", "exponential"])
    def test_unitary_matches_exponential(self, spec, G):
        for x in (-2.3, 0.0, 0.7, 1.9):
            U = encode.encoding_unitary(spec, x)
            assert np.abs(U - sc.exp_hamiltonian(G, x)).max() < 1e-14

    def test_unitary_matches_spectrum(self):
        spec = encode.EncodingSpec("pauli-parallel", {"r": 2})
        U = encode.encoding_unitary(spec, 0.7)
        w = np.angle(np.linalg.eigvals(U)) / -0.7
        got = np.sort(np.round(w, 9))
        assert set(got).issubset(set(encode.generator_eigenvalues(spec)))


class TestFourierFit:
    def _single_qubit_model(self, theta):
        spec = encode.EncodingSpec("pauli", {})
        W0 = sc.exp_hamiltonian(sc.Y, theta[0])
        W1 = sc.exp_hamiltonian(sc.Y, theta[1])
        return encode.encoding_model(spec, [W0, W1], sc.Z)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        f = self._single_qubit_model(rng.uniform(-np.pi, np.pi, 2))
        coeffs = encode.fit_fourier_coefficients(f, [-2, 0, 2])
        xs = rng.uniform(0, 2 * np.pi, 40)
        for x in xs:
            rec = sum(c * np.exp(1j * w * x) for w, c in coeffs.items())
            assert abs(rec.real - f(x)) < 1e-10

    def test_sine_form(self):
        # single encoding gate: f(x) = A sin(2x + B) + C
        rng = np.random.default_rng(2)
        f = self._single_qubit_model(rng.uniform(-np.pi, np.pi, 2))
        coeffs = encode.fit_fourier_coefficients(f, [-2, 0, 2])
        A = 2 * abs(coeffs[2])
        C = coeffs[0].real
        xs = np.linspace(0, 2 * np.pi, 200)
        vals = np.array([f(x) for x in xs])
        assert vals.max() == pytest.approx(C + A, abs=1e-3)
        assert vals.min() == pytest.approx(C - A, abs=1e-3)

    def test_hermitian_symmetry(self):
        f = self._single_qubit_model([0.3, -0.8])
        coeffs = encode.fit_fourier_coefficients(f, [-2, 0, 2])
        assert coeffs[-2] == pytest.approx(np.conj(coeffs[2]), abs=1e-12)

    def test_no_off_spectrum_power(self):
        rng = np.random.default_rng(3)
        for r in (2, 3):
            spec = encode.EncodingSpec("pauli-parallel", {"r": r})
            dim = 2**r
            W = [sc.haar_random_unitary(dim, rng) for _ in range(2)]
            O = sc.expand_gate(sc.Z, [0], r)
            f = encode.encoding_model(spec, W, O)
            om = encode.frequency_spectrum(spec)
            assert encode.off_spectrum_power(f, om) < 1e-10

    def test_non_integer_spectrum_rejected(self):
        f = lambda x: np.cos(x / 2)  # noqa: E731
        with pytest.raises(ValueError, match="integer-valued"):
            encode.off_spectrum_power(f, [-0.5, 0, 0.5])
        with pytest.raises(ValueError, match="integer-valued"):
            encode.fit_fourier_coefficients(f, [-0.5, 0, 0.5])

    def test_fit_and_off_spectrum_power_share_one_grid(self):
        # frequency 7 aliased onto -2 on the fit's former 9-point grid,
        # which returned |c_2| = 0.75 without raising
        f = lambda x: np.cos(2 * x) + 0.5 * np.cos(7 * x)  # noqa: E731
        assert encode.off_spectrum_power(f, [-2, 0, 2]) == \
            pytest.approx(0.125, abs=1e-12)
        with pytest.raises(BadParameter, match="off-spectrum power 1.250e-01"):
            encode.fit_fourier_coefficients(f, [-2, 0, 2])
        g = lambda x: np.cos(2 * x)  # noqa: E731
        coeffs = encode.fit_fourier_coefficients(g, [-2, 0, 2])
        assert coeffs[2] == pytest.approx(0.5, abs=1e-12)

    def test_aliasing_detected(self):
        # fitting on a spectrum that misses the model's frequencies
        f = self._single_qubit_model([0.4, 0.9])
        with pytest.raises(BadParameter, match="off-spectrum power"):
            encode.fit_fourier_coefficients(f, [-1, 0, 1])

    def test_exponential_model_spectrum(self):
        rng = np.random.default_rng(4)
        spec = encode.EncodingSpec("exponential", {"N": 2})
        W = [sc.haar_random_unitary(4, rng) for _ in range(2)]
        f = encode.encoding_model(spec, W, sc.expand_gate(sc.Z, [0], 2))
        om = encode.frequency_spectrum(spec)
        assert om.size == 9
        assert encode.off_spectrum_power(f, om) < 1e-10
