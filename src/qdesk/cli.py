"""Experiment runner.

Subcommands: run, list, validate. Configs are JSON objects
{"experiment": name, "params": {...}, "seed": int, "out": path,
"format": "csv"|"json"}. A fixed config and seed produce byte-identical
output files. Exit codes: 0 success, 1 experiment failure, 2 config error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, algos, dequant, encode, qkernel, qprob, simcore
from . import tnet, varqml


def _fmt(v):
    if isinstance(v, np.generic):  # numpy 2 reprs carry the type name
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


# --- experiments ------------------------------------------------------------
# Each returns (columns, rows); rows are lists of scalars.

def _exp_entropy(p, rng):
    dist = p.get("p", [0.5, 0.25, 0.125, 0.125])
    u = np.full(len(dist), 1 / len(dist))
    return ["quantity", "bits"], [
        ["shannon", qprob.shannon_entropy(dist)],
        ["relative_to_uniform", qprob.relative_entropy(dist, u)],
    ]


def _exp_bell_teleport(p, rng):
    rows = []
    for _ in range(p.get("runs", 100)):
        psi = simcore.haar_random_state(2, rng)
        (m1, m2), out = algos.teleport(psi, rng)
        fid = abs(np.vdot(psi, out)) ** 2
        rows.append([m1, m2, fid])
    return ["m1", "m2", "fidelity"], rows


def _exp_deutsch_jozsa(p, rng):
    n = p.get("n", 3)
    rows = [["constant", algos.deutsch_jozsa(n, lambda x: 0)]]
    half = 2 ** (n - 1)
    f = lambda x: 1 if x < half else 0
    rows.append(["balanced", algos.deutsch_jozsa(n, f)])
    return ["oracle", "answer"], rows


def _exp_qft(p, rng):
    rows = []
    for n in range(1, p.get("max_n", 6) + 1):
        circ = algos.qft_circuit(n)
        err = np.abs(circ.unitary() - algos.qft_matrix(n)).max()
        rows.append([n, circ.gate_count(), err])
    return ["n", "gates", "max_error"], rows


def _exp_qpe_bound(p, rng):
    t = p.get("t", 4)
    eps = p.get("epsilon", 0.1)
    n_anc = algos.qpe_ancilla_bits(t, eps)
    draws = p.get("draws", 2000)
    rows = []
    for phi in np.linspace(0.037, 0.93, p.get("grid", 10)):
        amps = algos.qpe_register_amplitudes(phi, n_anc)
        probs = np.abs(amps) ** 2
        ms = rng.choice(len(probs), size=draws, p=probs / probs.sum())
        est = ms / 2.0**n_anc
        d = np.abs(est - phi)
        d = np.minimum(d, 1 - d)
        rows.append([phi, n_anc, float(np.mean(d <= 2.0**-t))])
    return ["phi", "ancillas", "success_rate"], rows


def _exp_grover(p, rng):
    n = p.get("n", 4)
    marked = set(p.get("marked", [3]))
    R, closed, simulated, _ = algos.grover(lambda x: x in marked, n)
    return ["n", "M", "R", "closed_form", "simulated"], [
        [n, len(marked), R, closed, simulated]
    ]


def _exp_dqc1(p, rng):
    n = p.get("n", 3)
    shots = p.get("shots", 20000)
    U = simcore.haar_random_unitary(2**n, rng)
    est = algos.dqc1_trace(U, shots, rng)
    ref = np.trace(U) / 2**n
    return ["shots", "est_re", "est_im", "true_re", "true_im"], [
        [shots, est.real, est.imag, ref.real, ref.imag]
    ]


def _exp_lcu(p, rng):
    n = p.get("n", 2)
    A = rng.normal(size=(2**n, 2**n))
    A = A + A.T
    terms = simcore.pauli_decompose(A)
    labels = [lab for lab, _ in terms]
    alphas = np.array([abs(c) for _, c in terms])
    unitaries = [np.sign(c) * simcore.pauli_matrix(lab)
                 for lab, c in terms]
    keep = alphas > 1e-12
    full, alpha = algos.lcu_block_encode(
        alphas[keep], [u for u, k in zip(unitaries, keep) if k]
    )
    block = algos.lcu_extract_block(full, 2**n)
    err = np.abs(block - A / alpha).max()
    return ["n", "terms", "alpha", "block_error"], [
        [n, int(keep.sum()), alpha, err]
    ]


def _exp_matrix_protocols(p, rng):
    t = p.get("t_bits", 8)
    n = p.get("n", 2)
    lams = rng.choice(np.arange(1, 2**t), size=2**n, replace=False) / 2.0**t
    V = simcore.haar_random_unitary(2**n, rng)
    A = (V * lams) @ V.conj().T
    x = simcore.haar_random_state(2**n, rng)
    out, p_acc, err = algos.qpe_matrix_multiply(A, x, t_bits=t)
    ref = A @ x
    fid = abs(np.vdot(ref / np.linalg.norm(ref), out)) ** 2
    return ["protocol", "p_acc", "fidelity"], [["multiply", p_acc, fid]]


def _exp_fourier_spectra(p, rng):
    rows = []
    for N in range(1, p.get("max_N", 4) + 1):
        spec = encode.EncodingSpec("exponential", {"N": N})
        om = encode.frequency_spectrum(spec)
        rows.append([N, len(om), float(om.max())])
    return ["N", "spectrum_size", "max_frequency"], rows


def _exp_gradients(p, rng):
    circ = varqml.ParamCircuit(2, [
        varqml.Layer([("XI", 1.0)],
                     fixed=simcore.expand_gate(simcore.H, [0], 2)),
        varqml.Layer([("ZZ", 1.0)]),
    ])
    O = simcore.pauli_reconstruct([("ZI", 1.0)], 2)
    theta = rng.uniform(-np.pi, np.pi, 2)
    g_ps = varqml.parameter_shift_gradient(circ, theta, O)
    g_fd = varqml.finite_difference_gradient(
        lambda th: varqml.cost_expectation(circ, th, O), theta
    )
    return ["param", "shift_rule", "finite_diff"], [
        [k, g_ps[k], g_fd[k]] for k in range(2)
    ]


def _exp_barren_sweep(p, rng):
    rows = varqml.barren_experiment(
        p.get("n_values", [2, 3, 4, 5, 6]), p.get("ensemble", 200), rng
    )
    return ["n", "mean", "var", "stderr"], [
        [r["n"], r["mean"], r["var"], r["stderr"]] for r in rows
    ]


def _exp_landau_zener(p, rng):
    rows = []
    for eta in p.get("eta_grid", [0.05, 0.1, 0.3, 0.6, 1.0, 1.5]):
        prob = varqml.landau_zener(1.0, float(np.sqrt(eta)))
        rows.append([eta, prob, float(np.exp(-2 * np.pi * eta))])
    return ["eta", "probability", "formula"], rows


def _exp_qaoa_maxcut(p, rng):
    edges = [tuple(e) for e in p.get("edges", [[0, 1], [1, 2], [0, 2]])]
    model = varqml.maxcut_to_ising(edges)
    angles, bits, ratio = varqml.qaoa(
        model, p.get("p", 2), rng, restarts=p.get("restarts", 6)
    )
    return ["p", "best_bits", "ratio"], [
        [p.get("p", 2), "".join(map(str, bits)), ratio]
    ]


def _exp_gibbs(p, rng):
    T = p.get("T", 1.0)
    n = p.get("n", 3)
    rho = varqml.gibbs_pair_prepare(T, n)
    H0 = sum(simcore.expand_gate(simcore.X, [q], n) for q in range(n))
    ref = varqml.gibbs_state(H0, T, sign=-1.0)
    return ["n", "T", "max_error"], [[n, T, float(np.abs(rho - ref).max())]]


def _exp_kernels(p, rng):
    spec = encode.EncodingSpec("phase", {})
    X = [rng.normal(size=2) for _ in range(p.get("M", 8))]
    gm = qkernel.gram(X, spec)
    y = rng.normal(size=len(X))
    s = qkernel.model_complexity(gm, y)
    d = qkernel.effective_dimension(gm)
    return ["M", "model_complexity", "effective_dimension"], [
        [len(X), s, d]
    ]


def _exp_mps_norm_bench(p, rng):
    rows = []
    for N in p.get("N_values", [4, 6, 8, 10]):
        D = p.get("D", 4)
        cores = [rng.normal(size=(1, 2, D)) + 0j]
        for _ in range(N - 2):
            cores.append(rng.normal(size=(D, 2, D)) + 0j)
        cores.append(rng.normal(size=(D, 2, 1)) + 0j)
        mps = tnet.MPS(cores)
        for scheme in ("naive", "parallel", "sequential"):
            val, ops = tnet.mps_norm(mps, scheme, return_ops=True)
            rows.append([N, D, scheme, val, ops])
    return ["N", "D", "scheme", "norm", "ops"], rows


def _exp_colorings(p, rng):
    edges = [tuple(e) for e in p.get("edges", [[0, 1], [1, 2], [0, 2]])]
    nv = p.get("vertices", 3)
    d = p.get("colors", 3)
    return ["vertices", "colors", "count"], [
        [nv, d, tnet.count_colorings(edges, nv, d)]
    ]


def _exp_anomaly(p, rng):
    base = rng.normal(size=p.get("N", 6))
    train = [base + 0.03 * rng.normal(size=base.size)
             for _ in range(p.get("M", 10))]
    model, hist = tnet.anomaly_fit(
        train, S=p.get("S", 2), alpha=p.get("alpha", 0.05),
        steps=p.get("steps", 60), rng=rng,
    )
    scores = [tnet.anomaly_score(model, x) for x in train]
    return ["final_loss", "mean_score", "target"], [
        [hist[-1], float(np.mean(scores)), float(np.sqrt(np.e))]
    ]


def _exp_dequant_inner(p, rng):
    N = p.get("N", 128)
    cfg = dequant.EstimatorConfig(p.get("epsilon", 0.1),
                                  p.get("delta", 0.05))
    x = rng.normal(size=N) + 1j * rng.normal(size=N)
    y = rng.normal(size=N) + 1j * rng.normal(size=N)
    xs = dequant.SQVector(x)
    est = dequant.dequant_inner(xs, y, cfg, rng)
    ref = complex(np.vdot(x, y))
    return ["est_re", "est_im", "true_re", "true_im", "bound"], [[
        est.real, est.imag, ref.real, ref.imag,
        cfg.epsilon * np.linalg.norm(x) * np.linalg.norm(y),
    ]]


def _exp_dequant_vs_quantum(p, rng):
    N = p.get("N", 64)
    x = rng.normal(size=N) + 1j * rng.normal(size=N)
    x /= np.linalg.norm(x)
    y = rng.normal(size=N) + 1j * rng.normal(size=N)
    y /= np.linalg.norm(y)
    shots = p.get("shots", [400, 1600, 6400])
    cfgs = [dequant.EstimatorConfig(e, 0.1)
            for e in p.get("epsilons", [0.4, 0.2, 0.1])]
    rows = dequant.quantum_vs_dequant_harness(
        x, y, shots, cfgs, rng, trials=p.get("trials", 16)
    )
    return ["method", "resources", "error"], [
        [r["method"], r["resources"], r["error"]] for r in rows
    ]


EXPERIMENTS = {
    "entropy": _exp_entropy,
    "bell-teleport": _exp_bell_teleport,
    "deutsch-jozsa": _exp_deutsch_jozsa,
    "qft": _exp_qft,
    "qpe-bound": _exp_qpe_bound,
    "grover": _exp_grover,
    "dqc1": _exp_dqc1,
    "lcu": _exp_lcu,
    "matrix-protocols": _exp_matrix_protocols,
    "fourier-spectra": _exp_fourier_spectra,
    "gradients": _exp_gradients,
    "barren-sweep": _exp_barren_sweep,
    "landau-zener": _exp_landau_zener,
    "qaoa-maxcut": _exp_qaoa_maxcut,
    "gibbs": _exp_gibbs,
    "kernels": _exp_kernels,
    "mps-norm-bench": _exp_mps_norm_bench,
    "colorings": _exp_colorings,
    "anomaly": _exp_anomaly,
    "dequant-inner": _exp_dequant_inner,
    "dequant-vs-quantum": _exp_dequant_vs_quantum,
}


# --- parameter checks -------------------------------------------------------
# Values that would otherwise fail, or leave the simulator's scope, only
# once the experiment runs. Each check returns error messages.

MAX_QUBITS = 12


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _list_errors(p, key, default, ok, want) -> list:
    values = p.get(key, default)
    if not isinstance(values, list):
        return [f"{key} must be a list"]
    return [f"{key} value {v!r} is not {want}" for v in values if not ok(v)]


def _check_landau_zener(p):
    return _list_errors(p, "eta_grid", [],
                        lambda v: _is_finite(v) and v > 0,
                        "a finite number > 0")


def _check_grover(p):
    n = p.get("n", 4)
    if not _is_int(n) or not 1 <= n <= MAX_QUBITS:
        return [f"n must be an integer in 1..{MAX_QUBITS}"]
    errors = _list_errors(p, "marked", [3],
                          lambda v: _is_int(v) and 0 <= v < 2**n,
                          f"an integer in [0, 2^n) = [0, {2**n})")
    if not errors and len(set(p.get("marked", [3]))) in (0, 2**n):
        errors.append("marked must name some but not all indices")
    return errors


def _check_barren_sweep(p):
    ensemble = p.get("ensemble", 200)
    errors = _list_errors(p, "n_values", [],
                          lambda v: _is_int(v) and 1 <= v <= MAX_QUBITS,
                          f"an integer in 1..{MAX_QUBITS}")
    if not _is_int(ensemble) or ensemble < 2:
        errors.append("ensemble must be an integer >= 2: a variance needs "
                      "two samples")
    return errors


def _check_mps_norm_bench(p):
    # no MAX_QUBITS cap: an MPS of N sites never forms the 2^N vector
    errors = _list_errors(p, "N_values", [], lambda v: _is_int(v) and v >= 2,
                          "an integer >= 2")
    D = p.get("D", 4)
    if not _is_int(D) or D < 1:
        errors.append("D must be an integer >= 1")
    return errors


def _check_anomaly(p):
    errors = []
    for key, default, low in (("N", 6, 1), ("M", 10, 1), ("S", 2, 1),
                              ("steps", 60, 0)):
        v = p.get(key, default)
        if not _is_int(v) or v < low:
            errors.append(f"{key} must be an integer >= {low}")
    alpha = p.get("alpha", 0.05)
    if not _is_finite(alpha) or alpha < 0:
        errors.append("alpha must be a finite number >= 0")
    return errors


PARAM_CHECKS = {
    "landau-zener": _check_landau_zener,
    "grover": _check_grover,
    "barren-sweep": _check_barren_sweep,
    "mps-norm-bench": _check_mps_norm_bench,
    "anomaly": _check_anomaly,
}


def validate_config(cfg: dict) -> list:
    """Diagnostics for a parsed config; errors start with 'error:'."""
    diags = []
    known = {"experiment", "params", "seed", "out", "format"}
    if not isinstance(cfg, dict):
        return ["error: config must be a JSON object"]
    for key in cfg:
        if key not in known:
            diags.append(f"warning: unknown key {key!r}")
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        diags.append(f"error: unknown experiment {name!r}")
    if "seed" not in cfg:
        diags.append("error: seed is required for reproducibility")
    elif not isinstance(cfg["seed"], int):
        diags.append("error: seed must be an integer")
    fmt = cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        diags.append(f"error: unknown format {fmt!r}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        diags.append("error: params must be a JSON object")
    elif name in PARAM_CHECKS:
        diags += [f"error: {name}: {e}" for e in PARAM_CHECKS[name](params)]
    return diags


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()[:16]


def run_config(cfg: dict, out_path: str | None = None) -> str:
    """Execute one experiment and write the result table; returns the
    serialized output."""
    name = cfg["experiment"]
    rng = np.random.default_rng(cfg["seed"])
    columns, rows = EXPERIMENTS[name](cfg.get("params", {}), rng)
    meta = {"experiment": name, "seed": cfg["seed"],
            "config_hash": _config_hash(cfg), "version": __version__}
    fmt = cfg.get("format", "csv")
    if fmt == "json":
        text = json.dumps(
            {"metadata": meta, "columns": columns,
             "rows": [[_fmt(v) for v in r] for r in rows]},
            indent=2, sort_keys=True,
        ) + "\n"
    else:
        lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
        lines.append(",".join(columns))
        for r in rows:
            lines.append(",".join(_fmt(v) for v in r))
        text = "\n".join(lines) + "\n"
    dest = out_path or cfg.get("out")
    if dest:
        with open(dest, "w") as fh:
            fh.write(text)
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qdesk", description="run quantum desk experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=["csv", "json"], default=None)

    sub.add_parser("list", help="list available experiments")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        diags = validate_config(cfg)
        for d in diags:
            print(d)
        return 2 if any(d.startswith("error:") for d in diags) else 0

    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.format is not None:
        cfg["format"] = args.format
    diags = validate_config(cfg)
    errors = [d for d in diags if d.startswith("error:")]
    for d in diags:
        print(d, file=sys.stderr)
    if errors:
        return 2
    try:
        text = run_config(cfg, out_path=args.out)
    except Exception as exc:  # experiment failure, not a config problem
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    if not (args.out or cfg.get("out")):
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
