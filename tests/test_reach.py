"""Reach: every function defined in src/qdesk is run by an experiment or a
benchmark task, or it holds a named role in ALLOWLIST.

The trace, under sys.setprofile, runs `qdesk run` on each experiment at
its default params, `run_config` on each at TestRun.SMALL_PARAMS, and one
small task of each benchmark library kind: a circuit parsed from JSON and
run, an adiabatic sweep and an anomaly fit. A `def` in src/qdesk that no
run enters must be in ALLOWLIST, and every ALLOWLIST name must be a `def`
that no run enters. A nested `def` is checked only when the `def` around it
is entered. A new function that nothing reaches fails here: give it a
caller, delete it, or allowlist it under one of ROLES.
"""
import ast
import contextlib
import functools
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from qdesk import cli, simcore, tnet, varqml

import test_cli

SRC = Path(simcore.__file__).parent  # as the code objects name it
PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# each role, and the pattern an ALLOWLIST entry of that role matches
ROLES = {
    "oracle of X": r"oracle of (?P<subject>[\w.]+)",
    "criterion N": r"criterion \d+",
    "benchmark layer until item 1 Step B":
        r"benchmark layer until item 1 Step B",
    "item N gives it a caller": r"items? \d+( and \d+)* gives? it a caller",
    "import time": r"import time",
}

# Every def that the trace never enters, with the role that keeps it.
ALLOWLIST = {
    # tests compare a name that stays against these
    "algos.oracle_unitary": "oracle of algos.apply_oracle",
    "algos.swap_test_circuit_p0": "oracle of algos.overlap_test",
    "algos.teleport_branches": "oracle of algos.teleport",
    "dequant.enumerate_estimator_variance": "oracle of dequant.dequant_inner",
    "encode.generator_eigenvalues": "oracle of encode.encoding_unitary",
    "qkernel.fit_objective": "oracle of qkernel.kernel_fit",
    "qprob.partial_trace": "oracle of qprob.schmidt_decompose",
    "qprob.schmidt_reconstruct": "oracle of qprob.schmidt_decompose",
    "simcore.CircuitOp.resolve": "oracle of simcore.Circuit._blocks",
    "simcore.is_unitary": "oracle of simcore.haar_random_unitary",
    "varqml.cut_size": "oracle of varqml.maxcut_to_ising",
    "varqml.gradient_descent": "oracle of varqml.qaoa",
    # acceptance criteria (tests/test_acceptance.py) run these
    "algos.qft_unitary": "criterion 4",
    "algos.qpe_circuit_distribution": "criterion 5",
    "algos.dqc1_exact_expectations": "criterion 7",
    "algos.lcu_block_encode": "criterion 8",
    "algos.lcu_extract_block": "criterion 8",
    "algos.matrix_invert_p_acc": "criterion 9",
    "algos.matrix_multiply_p_acc": "criterion 9",
    "algos.qpe_matrix_invert": "criterion 9",
    "encode._fourier_split": "criterion 10",
    "encode.encoding_model": "criterion 10",
    "encode.encoding_unitary": "criterion 10",
    "encode.fit_fourier_coefficients": "criterion 10",
    "encode.off_spectrum_power": "criterion 10",
    "varqml._shift_integrand": "criterion 11",
    "varqml.exact_x_gradient": "criterion 11",
    "varqml.stochastic_parameter_shift": "criterion 11",
    "varqml.case3_variance": "criterion 12",
    "varqml.IsingModel.hamiltonian": "criterion 13",
    "varqml.qboost_loss": "criterion 14",
    "varqml.qboost_objective": "criterion 14",
    "varqml.qubo_energy": "criterion 14",
    "varqml.qubo_to_ising": "criterion 14",
    "varqml.IsingModel.energy": "criterion 15",
    "varqml.spins_from_bits": "criterion 15",
    "varqml.tfim_gibbs": "criterion 15",
    "encode.basis_encode": "criterion 16",
    "encode.bits_of": "criterion 16",
    "qkernel.geometric_difference": "criterion 16",
    "qkernel.quadratic_feature_regression": "criterion 16",
    "qkernel.quadratic_features": "criterion 16",
    "qkernel.quantum_kernel": "criterion 16",
    "qprob._svd_cut": "criterion 17",
    "tnet.MPS.to_dense": "criterion 17",
    "tnet.count_colorings_brute_force": "criterion 17",
    "tnet.mps_from_tensor": "criterion 17",
    "tnet.projector_to_dense": "criterion 17",
    "dequant.enumerate_estimator_mean": "criterion 18",
    "dequant.loglog_slope": "criterion 18",
    # perfbench/run.py traces these by name (LAYER_FUNCTIONS)
    "encode.phase_encode": "benchmark layer until item 1 Step B",
    "simcore.apply_gate_density": "benchmark layer until item 1 Step B",
    "simcore.exp_hamiltonian": "benchmark layer until item 1 Step B",
    "tnet.ProjectorMPS.apply": "benchmark layer until item 1 Step B",
    "tnet.anomaly_loss": "benchmark layer until item 1 Step B",
    "tnet.projector_frobenius": "benchmark layer until item 1 Step B",
    "tnet.trig_embedding": "benchmark layer until item 1 Step B",
    "varqml.brickwork_unitary": "benchmark layer until item 1 Step B",
    "varqml.qaoa_state": "benchmark layer until item 1 Step B",
    # open ROADMAP items that call these
    "qkernel.kernel_fit": "items 8 and 13 give it a caller",
    "qkernel.predict": "items 8 and 13 give it a caller",
    "varqml.vqe": "item 10 gives it a caller",
    "qprob.check_density_matrix": "item 12 gives it a caller",
    "qprob.schmidt_decompose": "item 12 gives it a caller",
    "qprob.von_neumann_entropy": "item 12 gives it a caller",
    "tnet.MPS.bond_dims": "item 12 gives it a caller",
    "simcore.kraus_apply": "item 14 gives it a caller",
    "simcore.statevector_to_density": "item 14 gives it a caller",
    "dequant.SQVector.probabilities": "item 15 gives it a caller",
    "dequant.SQVector.query": "item 15 gives it a caller",
    # cli's parameter rules are built when qdesk.cli is imported
    "cli.AtMost": "import time",
    "cli.Int": "import time",
    "cli.Num": "import time",
    "cli.Pair": "import time",
    "cli.experiment": "import time",
}


def _defs() -> dict:
    """{(file, first line, name): (qualified name, def line, enclosing key)}
    for every def in src/qdesk. The first line is that of the first
    decorator, as in the function's code object."""
    out = {}

    def walk(node, path, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                key = (str(path), first, child.name)
                qualname = prefix + child.name
                out[key] = (qualname, child.lineno, outer)
                walk(child, path, qualname + ".<locals>.", key)
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".", outer)
            else:
                walk(child, path, prefix, outer)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem + ".", None)
    return out


def _entered(runs) -> set:
    """(file, first line, name) of every code object entered by `runs`."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("qdesk."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):  # a cache hit enters nothing
                    value.cache_clear()
    codes = {}

    def profile(frame, event, arg):
        codes[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for run in runs:
            run()
    finally:
        sys.setprofile(previous)
    return {(c.co_filename, c.co_firstlineno, c.co_name)
            for c in codes.values()}


def _every_gate_circuit() -> str:
    """Circuit JSON with every name in FIXED_GATES and GATE_FACTORIES and
    one raw matrix, as perfbench's circuit tasks write it."""
    ops = [{"gate": name, "targets": [0, 1][:simcore.n_qubits(len(g))]}
           for name, g in simcore.FIXED_GATES.items()]
    ops += [{"gate": name, "targets": [1], "param": 0.3}
            for name in simcore.GATE_FACTORIES]
    ops.append({"gate": "U4", "targets": [1, 0], "matrix": [
        [[float(v.real), float(v.imag)] for v in row]
        for row in simcore.CZ @ simcore.SWAP]})
    return json.dumps({"n": 2, "ops": ops})


def _cli_main(name: str, path: Path):
    path.write_text(json.dumps({"experiment": name, "seed": 7}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(path)]) == 0


def _runs(tmp: Path) -> list:
    runs = [functools.partial(_cli_main, name, tmp / f"{name}.json")
            for name in sorted(cli.EXPERIMENTS)]
    runs += [functools.partial(cli.run_config, {
        "experiment": name, "seed": 11,
        "params": test_cli.TestRun.SMALL_PARAMS.get(name, {})})
        for name in sorted(cli.EXPERIMENTS)]
    rng = np.random.default_rng(7)
    train = [rng.normal(size=4) for _ in range(3)]
    runs += [
        lambda: simcore.circuit_from_json(_every_gate_circuit()).run(),
        lambda: varqml.adiabatic_follow(-simcore.X, -simcore.Z, 2.0),
        lambda: tnet.anomaly_fit(train, S=2, alpha=0.05, steps=2, rng=rng),
    ]
    return runs


@pytest.fixture(scope="module")
def unreached(tmp_path_factory) -> dict:
    """{qualified name: "file:line"} of every def no run enters."""
    defs = _defs()
    entered = _entered(_runs(tmp_path_factory.mktemp("reach")))
    return {qualname: f"{Path(key[0]).relative_to(SRC.parents[1])}:{line}"
            for key, (qualname, line, outer) in defs.items()
            if key not in entered and (outer is None or outer in entered)}


def test_unreached_names_are_the_allowlist(unreached):
    new = sorted(set(unreached) - set(ALLOWLIST))
    stale = sorted(set(ALLOWLIST) - set(unreached))
    lines = [f"{unreached[q]} {q}: nothing runs it; give it a caller, "
             f"delete it, or allowlist it as one of: {'; '.join(ROLES)}"
             for q in new]
    lines += [f"{q} ({ALLOWLIST[q]}): now reached or gone; drop it from "
              f"ALLOWLIST" for q in stale]
    assert not lines, "\n".join(lines)


def test_every_role_is_a_named_one():
    names = {qualname for qualname, _, _ in _defs().values()}
    bad = []
    for qualname, role in ALLOWLIST.items():
        if not any(re.fullmatch(p, role) for p in ROLES.values()):
            bad.append(f"{qualname}: role {role!r} is not one of ROLES")
        oracle = re.fullmatch(ROLES["oracle of X"], role)
        if oracle and oracle["subject"] not in names:
            bad.append(f"{qualname}: its subject {oracle['subject']} is gone")
    assert not bad, "\n".join(bad)


def test_benchmark_layers_are_traced_by_perfbench():
    tree = ast.parse(PERFBENCH_RUN.read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", "") == "LAYER_FUNCTIONS")
    stale = [q for q, role in ALLOWLIST.items()
             if role == "benchmark layer until item 1 Step B"
             and q not in layers]
    assert not stale, f"no longer in perfbench's LAYER_FUNCTIONS: {stale}"
