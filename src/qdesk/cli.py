"""Experiment runner.

Subcommands: run, list, validate. Configs are JSON objects
{"experiment": name, "params": {...}, "seed": int, "out": path,
"format": "csv"|"json"}. A fixed config and seed produce byte-identical
output files. Exit codes: 0 success, 1 experiment failure, 2 config error.
Each experiment declares its params once, in `@experiment`; `validate` and
`run` both check a config against that declaration before the body runs.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys

import numpy as np

from . import __version__, algos, dequant, encode, qkernel, qprob, simcore
from . import tnet, varqml
from .errors import BadParameter
from .simcore import MAX_QUBITS


def _fmt(v):
    if isinstance(v, np.generic):  # numpy 2 reprs carry the type name
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


# --- parameter rules: (test, description) pairs ----------------------------

# every count of samples: draws, shots, runs and trials. At this cap
# bell-teleport, which keeps one row per run, peaks near 270 MB
MAX_SAMPLES = 10**6


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def Int(lo, hi=math.inf) -> tuple:
    """An integer in lo..hi."""
    desc = f"an integer in {lo}..{hi}" if hi < math.inf \
        else f"an integer >= {lo}"
    return (lambda v: _is_int(v) and lo <= v <= hi), desc


def Num(lo, closed=True, hi=math.inf) -> tuple:
    """A finite number >= lo (> lo unless `closed`) and < hi."""
    desc = f"a finite number {'>=' if closed else '>'} {lo}"
    desc += f" and < {hi}" if hi < math.inf else ""
    return (lambda v: (_is_int(v) or isinstance(v, float)
                       and math.isfinite(v)) and v < hi
            and (lo <= v if closed else lo < v), desc)


def Pair(rule) -> tuple:
    """A list of two items, each passing `rule`."""
    test, desc = rule
    return (lambda v: isinstance(v, list) and len(v) == 2
            and all(map(test, v)), f"a list of two items, each {desc}")


def AtMost(rule, hi) -> tuple:
    """A value passing `rule` that is at most hi: the cap on a size that is
    not a qubit count."""
    test, desc = rule
    return (lambda v: test(v) and v <= hi), f"{desc} and <= {hi}"


class Each(tuple):
    """A list whose every item passes the wrapped rule."""


# --- experiments ------------------------------------------------------------
# Each body returns (columns, rows); rows are lists of scalars.

EXPERIMENTS = {}  # name -> body
PARAMS = {}  # name -> {param: (default, rule)}


def experiment(name: str, **rules):
    """Register the decorated body under `name`: each keyword parameter
    after `rng` is a param, with its default and the rule in `rules`."""
    def register(body):
        params = inspect.signature(body).parameters
        EXPERIMENTS[name] = body
        PARAMS[name] = {k: (params[k].default, rule)
                        for k, rule in rules.items()}
        return body
    return register


@experiment("entropy", p=Each(Num(0)))
def _exp_entropy(rng, p=[0.5, 0.25, 0.125, 0.125]):
    u = np.full(len(p), 1 / len(p))
    return ["quantity", "bits"], [
        ["shannon", qprob.shannon_entropy(p)],
        ["relative_to_uniform", qprob.relative_entropy(p, u)],
    ]


@experiment("bell-teleport", runs=AtMost(Int(1), MAX_SAMPLES))
def _exp_bell_teleport(rng, runs=100):
    rows = []
    for _ in range(runs):
        psi = simcore.haar_random_state(2, rng)
        (m1, m2), out = algos.teleport(psi, rng)
        fid = abs(np.vdot(psi, out)) ** 2
        rows.append([m1, m2, fid])
    return ["m1", "m2", "fidelity"], rows


@experiment("deutsch-jozsa", n=Int(1, MAX_QUBITS - 1))  # + output qubit
def _exp_deutsch_jozsa(rng, n=3):
    rows = [["constant", algos.deutsch_jozsa(n, lambda x: 0)]]
    half = 2 ** (n - 1)
    f = lambda x: 1 if x < half else 0
    rows.append(["balanced", algos.deutsch_jozsa(n, f)])
    return ["oracle", "answer"], rows


@experiment("qft", max_n=Int(1, MAX_QUBITS))
def _exp_qft(rng, max_n=6):
    rows = []
    for n in range(1, max_n + 1):
        circ = algos.qft_circuit(n)
        err = np.abs(circ.unitary() - algos.qft_matrix(n)).max()
        rows.append([n, circ.gate_count(), err])
    return ["n", "gates", "max_error"], rows


@experiment("qpe-bound", t=Int(1), epsilon=Num(0, False, 1),
            draws=AtMost(Int(1), MAX_SAMPLES), grid=AtMost(Int(1), 1000))
def _exp_qpe_bound(rng, t=4, epsilon=0.1, draws=2000, grid=10):
    n_anc = algos.qpe_ancilla_bits(t, epsilon)
    rows = []
    for phi in np.linspace(0.037, 0.93, grid):
        amps = algos.qpe_register_amplitudes(phi, n_anc)
        probs = np.abs(amps) ** 2
        ms = rng.choice(len(probs), size=draws, p=probs / probs.sum())
        est = ms / 2.0**n_anc
        d = np.abs(est - phi)
        d = np.minimum(d, 1 - d)
        rows.append([phi, n_anc, float(np.mean(d <= 2.0**-t))])
    return ["phi", "ancillas", "success_rate"], rows


@experiment("grover", n=Int(1, MAX_QUBITS), marked=Each(Int(0)))
def _exp_grover(rng, n=4, marked=[3]):
    marked = set(marked)
    R, closed, simulated, _ = algos.grover(lambda x: x in marked, n)
    return ["n", "M", "R", "closed_form", "simulated"], [
        [n, len(marked), R, closed, simulated]
    ]


@experiment("dqc1", n=Int(1, MAX_QUBITS - 1),  # + clean qubit
            shots=AtMost(Int(1), MAX_SAMPLES))
def _exp_dqc1(rng, n=3, shots=20000):
    U = simcore.haar_random_unitary(2**n, rng)
    est = algos.dqc1_trace(U, shots, rng)
    ref = np.trace(U) / 2**n
    return ["shots", "est_re", "est_im", "true_re", "true_im"], [
        [shots, est.real, est.imag, ref.real, ref.imag]
    ]


# n + ceil(log2 #terms) qubits; n = 4 has up to 136 terms, so 12 qubits
@experiment("lcu", n=Int(1, 4))
def _exp_lcu(rng, n=2):
    A = rng.normal(size=(2**n, 2**n))
    A = A + A.T
    terms = simcore.pauli_decompose(A)
    alphas = np.array([abs(c) for _, c in terms])
    unitaries = [np.sign(c) * simcore.pauli_matrix(lab)
                 for lab, c in terms]
    keep = alphas > 1e-12
    block, alpha = algos.lcu_top_block(
        alphas[keep], [u for u, k in zip(unitaries, keep) if k]
    )
    err = np.abs(block - A / alpha).max()
    return ["n", "terms", "alpha", "block_error"], [
        [n, int(keep.sum()), alpha, err]
    ]


@experiment("matrix-protocols", t_bits=Int(1), n=Int(1))
def _exp_matrix_protocols(rng, t_bits=8, n=2):
    lams = rng.choice(np.arange(1, 2**t_bits), size=2**n,
                      replace=False) / 2.0**t_bits
    V = simcore.haar_random_unitary(2**n, rng)
    A = (V * lams) @ V.conj().T
    x = simcore.haar_random_state(2**n, rng)
    out, p_acc, err = algos.qpe_matrix_multiply(A, x, t_bits=t_bits)
    ref = A @ x
    fid = abs(np.vdot(ref / np.linalg.norm(ref), out)) ** 2
    return ["protocol", "p_acc", "fidelity"], [["multiply", p_acc, fid]]


@experiment("fourier-spectra", max_N=Int(1, MAX_QUBITS))
def _exp_fourier_spectra(rng, max_N=4):
    rows = []
    for N in range(1, max_N + 1):
        spec = encode.EncodingSpec("exponential", {"N": N})
        om = encode.frequency_spectrum(spec)
        rows.append([N, len(om), float(om.max())])
    return ["N", "spectrum_size", "max_frequency"], rows


@experiment("gradients")
def _exp_gradients(rng):
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


# a variance needs two samples; one sample at n = 12 takes about 17 ms
@experiment("barren-sweep", n_values=Each(Int(1, MAX_QUBITS)),
            ensemble=AtMost(Int(2), 10**4))
def _exp_barren_sweep(rng, n_values=[2, 3, 4, 5, 6], ensemble=200):
    rows = varqml.barren_experiment(n_values, ensemble, rng)
    return ["n", "mean", "var", "stderr"], [
        [r["n"], r["mean"], r["var"], r["stderr"]] for r in rows
    ]


# the sweep takes about 14400 max(eta, 1/eta) steps: 2 s at eta = 0.01
@experiment("landau-zener", eta_grid=Each(Num(0.01, True, 100)))
def _exp_landau_zener(rng, eta_grid=[0.05, 0.1, 0.3, 0.6, 1.0, 1.5]):
    rows = []
    for eta in eta_grid:
        prob = varqml.landau_zener(1.0, float(np.sqrt(eta)))
        rows.append([eta, prob, float(np.exp(-2 * np.pi * eta))])
    return ["eta", "probability", "formula"], rows


# one qubit per vertex index; a restart takes 250 descent steps, each one
# batch of the 4p shifted rows of a depth-p circuit's gradient
@experiment("qaoa-maxcut", edges=Each(Pair(Int(0, MAX_QUBITS - 1))),
            p=AtMost(Int(1), 16), restarts=AtMost(Int(1), 100))
def _exp_qaoa_maxcut(rng, edges=[[0, 1], [1, 2], [0, 2]], p=2, restarts=6):
    model = varqml.maxcut_to_ising(edges)
    angles, bits, ratio = varqml.qaoa(model, p, rng, restarts=restarts)
    return ["p", "best_bits", "ratio"], [
        [p, "".join(map(str, bits)), ratio]
    ]


# H0 = sum_q X_q spans at most 2n <= 24, so 24 / T and 1 / T stay finite
# for every T >= 1e-300; at T = 5e-324 the Boltzmann weights overflow
@experiment("gibbs", T=Num(1e-300), n=Int(1, MAX_QUBITS))
def _exp_gibbs(rng, T=1.0, n=3):
    rho = varqml.gibbs_pair_prepare(T, n)
    H0 = sum(simcore.expand_gate(simcore.X, [q], n) for q in range(n))
    ref = varqml.gibbs_state(H0, T, sign=-1.0)
    return ["n", "T", "max_error"], [[n, T, float(np.abs(rho - ref).max())]]


# the Gram takes M (M + 1) / 2 kernel evaluations, one at a time
@experiment("kernels", M=AtMost(Int(1), 512))
def _exp_kernels(rng, M=8):
    spec = encode.EncodingSpec("phase", {})
    X = [rng.normal(size=2) for _ in range(M)]
    gm = qkernel.gram(X, spec)
    y = rng.normal(size=len(X))
    s = qkernel.model_complexity(gm, y)
    d = qkernel.effective_dimension(gm)
    return ["M", "model_complexity", "effective_dimension"], [
        [len(X), s, d]
    ]


# the naive scheme forms the 2^N vector and the parallel one holds N
# D^2 x D^2 transfer matrices: N = 16 at D = 32 peaks near 400 MB
@experiment("mps-norm-bench", N_values=Each(Int(2, 16)), D=AtMost(Int(1), 32))
def _exp_mps_norm_bench(rng, N_values=[4, 6, 8, 10], D=4):
    rows = []
    for N in N_values:
        cores = [rng.normal(size=(1, 2, D)) + 0j]
        for _ in range(N - 2):
            cores.append(rng.normal(size=(D, 2, D)) + 0j)
        cores.append(rng.normal(size=(D, 2, 1)) + 0j)
        mps = tnet.MPS(cores)
        for scheme in ("naive", "parallel", "sequential"):
            val, ops = tnet.mps_norm(mps, scheme, return_ops=True)
            rows.append([N, D, scheme, val, ops])
    return ["N", "D", "scheme", "norm", "ops"], rows


# one einsum letter per vertex; no graph on 26 vertices needs more colors
@experiment("colorings", edges=Each(Pair(Int(0, 25))), vertices=Int(1, 26),
            colors=AtMost(Int(1), 26))
def _exp_colorings(rng, edges=[[0, 1], [1, 2], [0, 2]], vertices=3,
                   colors=3):
    count = tnet.count_colorings(edges, vertices, colors)
    return ["vertices", "colors", "count"], [[vertices, colors, count]]


# a step differentiates the P <= 16 N core entries by one sweep over 2P
# probe rows of M samples, so its time grows as N^2 M. Scaling P by s
# takes D(x) to s^2 D(x) and ||P||_F to s ||P||_F, so the loss is
# (alpha - 2) ln s + const as s -> 0: it has no minimum once alpha >= 2
@experiment("anomaly", N=AtMost(Int(1), 64), M=AtMost(Int(1), 1000),
            S=Int(1), alpha=Num(0, True, 2), steps=AtMost(Int(0), 10**4))
def _exp_anomaly(rng, N=6, M=10, S=2, alpha=0.05, steps=60):
    base = rng.normal(size=N)
    train = [base + 0.03 * rng.normal(size=base.size) for _ in range(M)]
    model, hist = tnet.anomaly_fit(train, S=S, alpha=alpha, steps=steps,
                                   rng=rng)
    scores = [tnet.anomaly_score(model, x) for x in train]
    return ["final_loss", "mean_score", "target"], [
        [hist[-1], float(np.mean(scores)), float(np.sqrt(np.e))]
    ]


DEQUANT_N = AtMost(Int(1), 2**20)
VERSUS_DELTA = 0.1  # failure probability of each dequant-vs-quantum sketch


@experiment("dequant-inner", N=DEQUANT_N, epsilon=Num(0, False),
            delta=Num(0, False, 1))
def _exp_dequant_inner(rng, N=128, epsilon=0.1, delta=0.05):
    cfg = dequant.EstimatorConfig(epsilon, delta)
    x = rng.normal(size=N) + 1j * rng.normal(size=N)
    y = rng.normal(size=N) + 1j * rng.normal(size=N)
    xs = dequant.SQVector(x)
    est = dequant.dequant_inner(xs, y, cfg, rng)
    ref = complex(np.vdot(x, y))
    return ["est_re", "est_im", "true_re", "true_im", "bound"], [[
        est.real, est.imag, ref.real, ref.imag,
        cfg.epsilon * np.linalg.norm(x) * np.linalg.norm(y),
    ]]


@experiment("dequant-vs-quantum", N=DEQUANT_N,
            shots=Each(AtMost(Int(1), MAX_SAMPLES)),
            epsilons=Each(Num(0, False)),
            trials=AtMost(Int(1), MAX_SAMPLES))
def _exp_dequant_vs_quantum(rng, N=64, shots=[400, 1600, 6400],
                            epsilons=[0.4, 0.2, 0.1], trials=16):
    x = rng.normal(size=N) + 1j * rng.normal(size=N)
    x /= np.linalg.norm(x)
    y = rng.normal(size=N) + 1j * rng.normal(size=N)
    y /= np.linalg.norm(y)
    cfgs = [dequant.EstimatorConfig(e, VERSUS_DELTA) for e in epsilons]
    rows = dequant.quantum_vs_dequant_harness(x, y, shots, cfgs, rng,
                                              trials=trials)
    return ["method", "resources", "error"], [
        [r["method"], r["resources"], r["error"]] for r in rows
    ]


def _sample_errors(epsilons, delta) -> list:
    """The median-of-means sketch draws ceil(6 ln(2/delta)) buckets of
    ceil(9/epsilon^2) samples; that count is capped like every other."""
    errors = []
    for eps in epsilons:
        cfg = dequant.EstimatorConfig(eps, delta)
        count = cfg.n_buckets * cfg.bucket_size
        if count > MAX_SAMPLES:
            errors.append(f"epsilon {eps!r} with delta {delta!r} draws "
                          f"{count} samples, more than {MAX_SAMPLES}")
    return errors


def _cross_errors(name: str, p: dict) -> list:
    """Rules on two params, or on a register width derived from them."""
    if name == "entropy":
        try:
            qprob.check_prob_vector(p["p"])
        except BadParameter as exc:
            return [f"p: {exc}"]
    if name == "grover":
        errors = [f"marked value {v!r} is not below 2^n = {2**p['n']}"
                  for v in p["marked"] if v >= 2**p["n"]]
        if not errors and len(set(p["marked"])) in (0, 2**p["n"]):
            errors.append("marked must name some but not all indices")
        return errors
    if name == "matrix-protocols":
        # 2^n distinct eigenvalues k / 2^t_bits with 0 < k < 2^t_bits
        if not p["n"] < p["t_bits"] <= MAX_QUBITS - p["n"]:
            return [f"n and t_bits must have n < t_bits and "
                    f"n + t_bits <= {MAX_QUBITS}"]
    if name == "qpe-bound" and \
            algos.qpe_ancilla_bits(p["t"], p["epsilon"]) > MAX_QUBITS:
        return [f"t and epsilon need more than {MAX_QUBITS} ancilla qubits"]
    if name == "dequant-inner":
        return _sample_errors([p["epsilon"]], p["delta"])
    if name == "dequant-vs-quantum":
        return _sample_errors(p["epsilons"], VERSUS_DELTA)
    if name == "colorings":
        errors = [f"edges value {e!r} is not within 0..{p['vertices'] - 1}"
                  for e in p["edges"] if max(e) >= p["vertices"]]
        # float64 sums hold integers up to 2^53 (tnet.count_colorings)
        if p["colors"] ** p["vertices"] > 2**53:
            errors.append(f"colors^vertices = {p['colors']}^"
                          f"{p['vertices']} is more than 2^53, so the "
                          f"count would not be exact")
        return errors
    return []


def resolve_params(name: str, params: dict) -> tuple:
    """(resolved, errors): the params of `name` with defaults filled in, and
    a message for every unknown key and every value that breaks a rule."""
    declared = PARAMS[name]
    errors = [f"unknown param {k!r}" for k in params if k not in declared]
    resolved = {}
    for key, (default, rule) in declared.items():
        value = resolved[key] = params[key] if key in params else default
        test, desc = rule
        if isinstance(rule, Each) and isinstance(value, list):
            errors += [f"{key} value {v!r} is not {desc}" for v in value
                       if not test(v)]
        elif isinstance(rule, Each):
            errors.append(f"{key} must be a list")
        elif not test(value):
            errors.append(f"{key} must be {desc}")
    if not errors:
        errors = _cross_errors(name, resolved)
    return resolved, errors


def _check_config(cfg: dict) -> tuple:
    """(diags, params): diagnostics for a parsed config, errors starting
    with 'error:', and the resolved params when the experiment is known
    and params is an object."""
    diags, resolved = [], None
    known = {"experiment", "params", "seed", "out", "format"}
    if not isinstance(cfg, dict):
        return ["error: config must be a JSON object"], None
    for key in cfg:
        if key not in known:
            diags.append(f"warning: unknown key {key!r}")
    name = cfg.get("experiment")
    known_name = isinstance(name, str) and name in PARAMS
    if not known_name:
        diags.append(f"error: unknown experiment {name!r}")
    if "seed" not in cfg:
        diags.append("error: seed is required for reproducibility")
    elif not _is_int(cfg["seed"]):
        diags.append("error: seed must be an integer")
    fmt = cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        diags.append(f"error: unknown format {fmt!r}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        diags.append("error: params must be a JSON object")
    elif known_name:
        resolved, errors = resolve_params(name, params)
        diags += [f"error: {name}: {e}" for e in errors]
    return diags, resolved


def validate_config(cfg: dict) -> list:
    """Diagnostics for a parsed config; errors start with 'error:'."""
    return _check_config(cfg)[0]


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()[:16]


def run_config(cfg: dict, out_path: str | None = None) -> str:
    """Execute one experiment and write the result table; returns the
    serialized output. Raises BadParameter, before the experiment runs,
    with the errors `validate_config` reports; its warnings pass."""
    diags, params = _check_config(cfg)
    errors = [d[len("error: "):] for d in diags if d.startswith("error:")]
    if errors:
        raise BadParameter("; ".join(errors))
    name = cfg["experiment"]
    rng = np.random.default_rng(cfg["seed"])
    columns, rows = EXPERIMENTS[name](rng, **params)
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

    if args.command == "run" and isinstance(cfg, dict):
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.format is not None:
            cfg["format"] = args.format
    diags = validate_config(cfg)
    for d in diags:
        print(d, file=sys.stdout if args.command == "validate" else sys.stderr)
    if any(d.startswith("error:") for d in diags):
        return 2
    if args.command == "validate":
        return 0
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
