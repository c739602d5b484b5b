"""The error contract: every argument qdesk rejects raises BadParameter or
one of its two subclasses, and a numerical failure IntegratorDiverged."""
import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from qdesk import (algos, encode, errors, qkernel, qprob, simcore, tnet,
                   varqml)

SRC = Path(errors.__file__).resolve().parent

CLASSES = {
    "QdeskError": (Exception,),
    "BadParameter": (errors.QdeskError, ValueError),
    "DimensionMismatch": (errors.BadParameter,),
    "TargetOutOfRange": (errors.BadParameter, IndexError),
    "IntegratorDiverged": (errors.QdeskError, RuntimeError),
}


def test_five_classes_with_their_bases():
    defined = {name: cls for name, cls in vars(errors).items()
               if inspect.isclass(cls) and cls.__module__ == errors.__name__}
    assert set(defined) == set(CLASSES)
    for name, bases in CLASSES.items():
        assert defined[name].__bases__ == bases, name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_raise_names_a_qdesk_error(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue  # not a raise, or a bare re-raise
        exc = node.exc
        name = exc.func if isinstance(exc, ast.Call) else exc
        assert isinstance(name, ast.Name), ast.unparse(node)
        # `raise SystemExit(main())` is the exit of `python -m qdesk.cli`
        assert name.id in CLASSES or name.id == "SystemExit", \
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"


def _circuit_state(generator):
    return varqml.ParamCircuit(1, [varqml.Layer(generator)]).state([0.3])


# Each input is off by more than the check's tolerance but by less than
# numpy's default relative slack of 1e-5, which the checks used to admit.
INSIDE_RTOL = {
    "qpe_protocol": lambda: algos.qpe_matrix_multiply(
        np.array([[0.5, 0.4], [0.4 + 4e-6, 0.5]]), np.array([1.0, 0.0])),
    "gram_matrix": lambda: qkernel.GramMatrix(
        np.array([[1.0, 0.5], [0.5 + 4e-6, 1.0]])),
    "density_matrix": lambda: qprob.check_density_matrix(
        np.array([[0.5, 0.45], [0.45 + 4e-6, 0.5]])),
    "kraus": lambda: simcore.kraus_apply(
        np.eye(2) / 2, [np.sqrt(1 + 5e-6) * np.eye(2)]),
    "exp_hamiltonian": lambda: simcore.exp_hamiltonian(
        np.array([[0.0, 1000.0], [1000.009, 0.0]]), 0.1),
    "real_coefficient": lambda: _circuit_state([("X", 1 + 4e-6j)]),
    "hermitian_generator": lambda: _circuit_state(
        [("X", 1 + 4e-6j), ("Z", 1.0)]),
    "adiabatic_hamiltonian": lambda: varqml.adiabatic_follow(
        np.array([[0.0, 1.0], [1 + 4e-6, 0.0]]), simcore.Z, 1.0),
}


@pytest.mark.parametrize("case", sorted(INSIDE_RTOL))
def test_closeness_checks_have_no_relative_slack(case):
    with pytest.raises(errors.BadParameter):
        INSIDE_RTOL[case]()


def test_is_unitary_has_no_relative_slack():
    assert not simcore.is_unitary(np.diag([1.0, 1 + 5e-6]))
    assert simcore.is_unitary(np.diag([1.0, 1 + 1e-11]))


def test_closeness_shape_mismatch_is_a_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch, match="not symmetric"):
        qkernel.GramMatrix(np.ones((2, 3)))
    with pytest.raises(errors.DimensionMismatch, match="sum to identity"):
        simcore.kraus_apply(np.eye(4) / 4, [np.eye(2)])


# Each input is not a square matrix, so the Hermitian check raises before
# numpy's trace, eigh or eigvalsh sees it.
NOT_SQUARE = {
    "exp_hamiltonian": lambda: simcore.exp_hamiltonian(np.ones(3), 1.0),
    "qpe_protocol": lambda: algos.qpe_matrix_multiply(
        np.array([0.5, 0.5]), np.array([1.0, 0.0])),
    "density_matrix": lambda: qprob.check_density_matrix(np.ones(2) / 2),
    "von_neumann_entropy": lambda: qprob.von_neumann_entropy(
        np.ones((2, 2, 2)) / 4),
    "gram_matrix": lambda: qkernel.GramMatrix(np.array([1.0, 2.0])),
}


@pytest.mark.parametrize("case", sorted(NOT_SQUARE))
def test_hermitian_checks_need_a_square_matrix(case):
    with pytest.raises(errors.DimensionMismatch):
        NOT_SQUARE[case]()


@pytest.mark.parametrize("M", [np.ones(2), np.ones((2, 3)),
                               np.ones((2, 2, 2)), np.ones((0, 1))])
def test_check_hermitian_shapes(M):
    with pytest.raises(errors.DimensionMismatch, match="^msg$"):
        errors._check_hermitian(M, 1e-10, "msg")


def test_check_hermitian_values():
    errors._check_hermitian(np.array([[1.0, 2j], [-2j, 0.0]]), 0.0, "msg")
    errors._check_hermitian(np.zeros((0, 0)), 0.0, "msg")
    with pytest.raises(errors.BadParameter, match="^msg$"):
        errors._check_hermitian(np.array([[1.0, 2j], [2j, 0.0]]), 1e-10,
                                "msg")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_hermitian_check_is_the_one_rule(path):
    # no _check_close(M, M.conj().T, ...) or (M, M.T, ...) outside errors.py
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_check_close"
                and path.name != "errors.py"):
            a, b = (ast.unparse(x) for x in node.args[:2])
            assert b not in (f"{a}.conj().T", f"{a}.T"), \
                f"{path.name}:{node.lineno}: {ast.unparse(node)}"


# Each call used to escape with a numpy or Python error (IndexError,
# TypeError, ValueError, a zero-size reduction) or, for a negative basis
# index, to return the wrong state; each now raises before any 2^n work.
ESCAPES = {
    "basis_index_too_large": lambda: simcore.basis_state(2, 5),
    "basis_index_negative": lambda: simcore.basis_state(2, -1),
    "basis_width_negative": lambda: simcore.basis_state(-1),
    "basis_width_float": lambda: simcore.basis_state(2.0),
    "basis_width_too_large": lambda: simcore.basis_state(
        simcore.MAX_QUBITS + 1),
    "start_state_ragged": lambda: simcore.Circuit(1).add("H", [0]).run(
        [[1], [0, 1]]),
    "start_state_not_numbers": lambda: simcore.Circuit(1).add(
        "H", [0]).run(["a", "b"]),
    "gate_name_not_a_string": lambda: simcore.circuit_from_json(
        '{"n": 1, "ops": [{"gate": ["H"], "targets": [0]}]}'),
    "keep_a_bool": lambda: qprob.partial_trace(
        np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), [True], [2, 2]),
    "no_colors": lambda: tnet.count_colorings([[0, 1]], 2, 0),
    "gram_of_no_data": lambda: qkernel.gram(
        [], encode.EncodingSpec("phase", {})),
}


@pytest.mark.parametrize("case", sorted(ESCAPES))
def test_boundary_escapes_raise_bad_parameter(case):
    with pytest.raises(errors.BadParameter):
        ESCAPES[case]()


def test_circuit_runs_on_a_list_state():
    circ = simcore.Circuit(1).add("H", [0])
    psi, _ = circ.run([1, 0])
    assert np.array_equal(psi, circ.run(np.array([1, 0]))[0])
    assert np.array_equal(psi, circ.run()[0])
