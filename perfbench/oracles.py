"""Independent checks of every task's output.

Tolerances are the acceptance criteria's (tests/test_acceptance.py);
references are computed here with numpy, not with qdesk. `check_pass`
returns one verdict per task: "ok", "fail" or, for the probabilistic
dequant estimators, "miss". A miss is a failure only when the workload's
miss rate over its estimator tasks exceeds delta plus a 5 sigma binomial
allowance (criterion 18).
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
from collections import defaultdict

import numpy as np


def parse_csv(text: str, raw=()):
    """(columns, rows) of a qdesk CSV result; numbers become floats except
    in the columns named in `raw`."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    keep = [c in raw for c in columns]
    return columns, [[v if k else _value(v)
                      for k, v in zip(keep, ln.split(","))]
                     for ln in lines[1:]]


def _value(s: str):
    # numpy 2 scalars print as np.float64(...)
    if s.startswith("np.") and s.endswith(")"):
        s = s[s.index("(") + 1:-1]
    try:
        return float(s)
    except ValueError:
        return s


class OracleError(Exception):
    pass


def _need(cond: bool, msg: str):
    if not cond:
        raise OracleError(msg)


# --- CLI experiments --------------------------------------------------------

def _barren(p, rows):
    (n, mean, _var, stderr), = rows
    _need(n == p["n_values"][0], f"row n={n}")
    _need(abs(mean) < 5 * max(stderr, 1e-12),
          f"|mean| {abs(mean):.3g} >= 5 stderr {stderr:.3g}")


def _qaoa(p, rows):
    (pp, bits, ratio), = rows
    n = 1 + max(v for e in p["edges"] for v in e)
    _need(pp == p["p"], f"row p={pp}")
    _need(len(bits) == n and set(bits) <= {"0", "1"}, f"bits {bits!r}")
    _need(-1e-9 <= ratio <= 1 + 1e-9, f"ratio {ratio} outside [0, 1]")


def _gradients(p, rows):
    _need(len(rows) == 2, f"{len(rows)} rows")
    for k, shift, fd in rows:
        _need(abs(shift - fd) <= 1e-6, f"param {k}: shift {shift} fd {fd}")


def _qft(p, rows):
    _need([r[0] for r in rows] == list(range(1, p["max_n"] + 1)), "n rows")
    for n, gates, err in rows:
        n = int(n)
        _need(gates == n * (n + 1) // 2 + n // 2, f"n={n}: {gates} gates")
        _need(err <= 1e-10, f"n={n}: error {err}")


def _gibbs(p, rows):
    (n, T, err), = rows
    _need(n == p["n"] and T == p["T"], f"row n={n} T={T}")
    _need(err <= 1e-10, f"error {err}")


def _lcu(p, rows):
    (n, terms, alpha, err), = rows
    _need(n == p["n"] and 1 <= terms <= 4 ** n, f"row n={n} terms={terms}")
    _need(alpha > 0 and err <= 1e-10, f"block error {err}")


def _protocols(p, rows):
    (name, p_acc, fid), = rows
    _need(name == "multiply" and 0 < p_acc <= 1 + 1e-12, f"p_acc {p_acc}")
    _need(fid > 0.999, f"fidelity {fid}")


def _grover(p, rows):
    (n, M, R, closed, simulated), = rows
    n_ref, M_ref = p["n"], len(set(p["marked"]))
    N = 2 ** n_ref
    theta = 2 * math.asin(math.sqrt(M_ref / N))
    R_ref = math.floor(math.pi / 4 * math.sqrt(N / M_ref))
    closed_ref = math.sin((2 * R_ref + 1) * theta / 2) ** 2
    _need((n, M, R) == (n_ref, M_ref, R_ref), f"row n={n} M={M} R={R}")
    _need(abs(closed - closed_ref) <= 1e-12, f"closed form {closed}")
    _need(abs(simulated - closed_ref) <= 1e-10,
          f"|closed - simulated| = {abs(simulated - closed_ref):.3g}")


def _deutsch_jozsa(p, rows):
    _need(rows == [["constant", "constant"], ["balanced", "balanced"]],
          f"answers {rows}")


def _teleport(p, rows):
    _need(len(rows) == p["runs"], f"{len(rows)} rows")
    for m1, m2, fid in rows:
        _need(m1 in (0, 1) and m2 in (0, 1), f"outcomes {m1}, {m2}")
        _need(fid >= 1 - 1e-10, f"fidelity {fid}")


def _landau_zener(p, rows):
    (eta, prob, _formula), = rows
    ref = math.exp(-2 * math.pi * p["eta_grid"][0])
    _need(eta == p["eta_grid"][0], f"row eta={eta}")
    _need(abs(prob - ref) <= 0.05 * ref, f"P {prob} vs e^-2pi eta {ref}")


def _mps_norm(p, rows):
    by_n = defaultdict(dict)
    for N, D, scheme, val, ops in rows:
        _need(D == p["D"], f"row D={D}")
        by_n[int(N)][scheme] = (val, ops)
    _need(sorted(by_n) == sorted(p["N_values"]), f"N rows {sorted(by_n)}")
    for N, schemes in by_n.items():
        vals = [schemes[s][0] for s in ("naive", "parallel", "sequential")]
        _need(max(vals) - min(vals) <= 1e-10 * max(vals),
              f"N={N}: schemes disagree {vals}")
        model = N * 2 * p["D"] ** 3
        ops = schemes["sequential"][1]
        _need(model / 4 <= ops <= model * 4, f"N={N}: {ops} ops")


def count_colorings(edges, n: int, d: int) -> int:
    return sum(all(c[i] != c[j] for i, j in edges)
               for c in itertools.product(range(d), repeat=n))


def _colorings(p, rows):
    (nv, d, count), = rows
    ref = count_colorings(p["edges"], p["vertices"], p["colors"])
    _need((nv, d) == (p["vertices"], p["colors"]), f"row {nv}, {d}")
    _need(count == ref, f"count {count}, brute force {ref}")


def _dequant_inner(p, rows):
    (est_re, est_im, true_re, true_im, bound), = rows
    _need(bound > 0, f"bound {bound}")
    err = abs(complex(est_re, est_im) - complex(true_re, true_im))
    return "ok" if err <= bound else "miss"


def _dequant_vs_quantum(p, rows):
    cfgs = {}
    for eps in p["epsilons"]:
        # median-of-means sample count at delta = 0.1 (dequant.py)
        n = math.ceil(6 * math.log(2 / 0.1)) * math.ceil(9 / eps**2)
        cfgs[n] = eps
    quantum = [r for r in rows if r[0] == "quantum-overlap"]
    classical = [r for r in rows if r[0] == "dequant-inner"]
    _need([r[1] for r in quantum] == p["shots"], "shot budgets")
    _need([r[1] for r in classical] == list(cfgs), "sample budgets")
    for _, shots, err in quantum:
        # each trial's estimate has standard deviation <= 1/sqrt(shots)
        _need(err <= 5 / math.sqrt(shots), f"{shots} shots: error {err}")
    # |est - x.y| <= eps w.p. 1 - delta, so ||est|^2 - |x.y|^2| <= eps(2+eps)
    return "ok" if all(err <= cfgs[n] * (2 + cfgs[n])
                       for _, n, err in classical) else "miss"


def _kernels(p, rows):
    (M, s, d), = rows
    # phase-encoded points on 2 qubits span at most a 3 x 3 = 9 dim space
    _need(M == p["M"], f"row M={M}")
    _need(1 <= d <= min(p["M"], 9), f"effective dimension {d}")
    _need(s >= -1e-9, f"model complexity {s}")


def _fourier(p, rows):
    _need([r[0] for r in rows] == list(range(1, p["max_N"] + 1)), "N rows")
    for N, size, top in rows:
        N = int(N)
        _need(size == 3 ** N and top == (3 ** N - 1) / 2,
              f"N={N}: {size} frequencies, max {top}")


CLI_CHECKS = {
    "barren-sweep": _barren,
    "qaoa-maxcut": _qaoa,
    "gradients": _gradients,
    "qft": _qft,
    "gibbs": _gibbs,
    "lcu": _lcu,
    "matrix-protocols": _protocols,
    "grover": _grover,
    "deutsch-jozsa": _deutsch_jozsa,
    "bell-teleport": _teleport,
    "landau-zener": _landau_zener,
    "mps-norm-bench": _mps_norm,
    "colorings": _colorings,
    "dequant-inner": _dequant_inner,
    "dequant-vs-quantum": _dequant_vs_quantum,
    "kernels": _kernels,
    "fourier-spectra": _fourier,
}
ESTIMATORS = {"dequant-inner": 0.05, "dequant-vs-quantum": 0.1}  # delta

# --- library tasks ----------------------------------------------------------

_S2 = 1 / math.sqrt(2)
GATES = {
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "S": np.diag([1, 1j]),
    "T": np.diag([1, cmath.exp(1j * math.pi / 4)]),
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
}


SWAP = GATES["SWAP"]


def _rotation(gate: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if gate == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if gate == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])


def _gate_matrix(op) -> np.ndarray:
    if "matrix" in op:
        return np.array([[complex(re, im) for re, im in row]
                         for row in op["matrix"]])
    if "param" in op:
        return _rotation(op["gate"], op["param"])
    return GATES[op["gate"]]


def apply(psi: np.ndarray, U: np.ndarray, targets, n: int) -> np.ndarray:
    """U on `targets` (qubit 0 most significant)."""
    k = len(targets)
    lo = min(targets)
    if list(targets) == list(range(lo, lo + k)):
        # adjacent ascending targets: one matmul on the (2^k, rest) matrix
        v = psi.reshape(1 << lo, 1 << k, -1).transpose(1, 0, 2)
        out = U @ v.reshape(1 << k, -1)
        return out.reshape(1 << k, 1 << lo, -1).transpose(1, 0, 2).reshape(-1)
    t = np.tensordot(U.reshape([2] * (2 * k)), psi.reshape([2] * n),
                     axes=(list(range(k, 2 * k)), list(targets)))
    return np.moveaxis(t, list(range(k)), list(targets)).reshape(-1)


def check_circuit(task, state):
    data = json.loads(task["circuit"])
    n = data["n"]
    _need(state.shape == (2 ** n,), f"state shape {state.shape}")
    _need(abs(np.linalg.norm(state) - 1) <= 1e-10,
          f"norm {np.linalg.norm(state)}")
    psi = state
    for op in reversed(data["ops"]):
        U, targets = _gate_matrix(op).conj().T, op["targets"]
        if len(targets) == 2 and targets[0] == targets[1] + 1:
            U, targets = SWAP @ U @ SWAP, targets[::-1]
        psi = apply(psi, U, targets, n)
    fid = abs(psi[0]) ** 2
    _need(fid >= 1 - 1e-10, f"inverse returns |0..0> with fidelity {fid}")


def _features(x: float) -> np.ndarray:
    v = np.array([math.cos(math.pi * x / 2), math.sin(math.pi * x / 2)])
    return v / np.linalg.norm(v)


def anomaly_loss(cores, train, alpha: float) -> float:
    """Reference loss mean|log ||P Phi(x)||^2 - 1| + alpha log ||P||_F."""
    total = 0.0
    for x in train:
        out = np.ones((1, 1), dtype=complex)  # (output index, bond)
        for core, xi in zip(cores, x):
            A = np.tensordot(core, _features(xi), axes=(1, 0))
            if A.ndim == 3:   # output site: (Dl, d_out, Dr)
                out = np.tensordot(out, A, axes=(1, 0)).reshape(
                    -1, A.shape[2])
            else:
                out = out @ A
        total += abs(math.log(max(np.vdot(out, out).real, 1e-300)) - 1.0)
    total /= len(train)
    L = np.ones((1, 1), dtype=complex)
    for core in cores:
        A = core.reshape(core.shape[0], -1, core.shape[-1])
        L = np.einsum("lL,lmr,LmR->rR", L, A.conj(), A)
    return total + alpha * math.log(max(math.sqrt(max(L[0, 0].real, 0)),
                                        1e-300))


def check_anomaly(task, result):
    model, hist = result
    _need(len(hist) >= 1, "empty history")
    _need(all(b <= a + 1e-12 for a, b in zip(hist, hist[1:])),
          "accepted-step losses increase")
    ref = anomaly_loss(model.cores, task["train"], task["alpha"])
    _need(abs(ref - hist[-1]) <= 1e-9 * max(1.0, abs(ref)),
          f"final loss {hist[-1]} vs recomputed {ref}")


def check_adiabatic(task, result):
    _s, fids = result
    _need(np.all(fids >= -1e-12) and np.all(fids <= 1 + 1e-9),
          "fidelity outside [0, 1]")


def check_task(task, result) -> str:
    kind = task["kind"]
    if kind == "cli":
        cfg = task["config"]
        _cols, rows = parse_csv(result, raw={"best_bits"})
        verdict = CLI_CHECKS[cfg["experiment"]](cfg["params"], rows)
        return verdict or "ok"
    {"circuit": check_circuit, "anomaly": check_anomaly,
     "adiabatic": check_adiabatic}[kind](task, result)
    return "ok"


def estimator_allowance(deltas) -> float:
    """Misses tolerated over estimator tasks with nominal miss rates
    `deltas`: their expected count plus 5 binomial standard deviations."""
    return sum(deltas) + 5 * math.sqrt(sum(d * (1 - d) for d in deltas))


def check_pass(tasks, results):
    """(verdicts, messages): verdict per task, "ok" or "fail", with the
    pooled estimator rule and the adiabatic T-vs-2T ratio applied."""
    verdicts, messages = [], {}
    for i, (task, res) in enumerate(zip(tasks, results)):
        if isinstance(res, BaseException):
            verdicts.append("fail")
            messages[i] = f"raised {type(res).__name__}: {res}"
            continue
        try:
            verdicts.append(check_task(task, res))
        except (OracleError, ValueError, IndexError, KeyError) as exc:
            verdicts.append("fail")
            messages[i] = f"oracle: {exc}"
    # doubling T at least 1.6x smaller terminal infidelity (criterion 13)
    pairs = defaultdict(dict)
    for i, task in enumerate(tasks):
        if task["kind"] == "adiabatic" and verdicts[i] == "ok":
            pairs[task["pair"]][task["T"]] = i
    for members in pairs.values():
        if len(members) != 2:
            continue
        (_t1, i1), (_t2, i2) = sorted(members.items())
        infid1 = 1 - results[i1][1][-1]
        infid2 = 1 - results[i2][1][-1]
        if not infid1 >= 1.6 * infid2:
            for i in (i1, i2):
                verdicts[i] = "fail"
                messages[i] = (f"infidelity ratio {infid1 / infid2:.3g} "
                               f"< 1.6 between T and 2T")
    misses = [i for i, v in enumerate(verdicts) if v == "miss"]
    deltas = [ESTIMATORS[t["config"]["experiment"]] for t in tasks
              if t["kind"] == "cli" and t["config"]["experiment"]
              in ESTIMATORS]
    pooled_fail = len(misses) > estimator_allowance(deltas)
    for i in misses:
        verdicts[i] = "fail" if pooled_fail else "ok"
        if pooled_fail:
            messages[i] = (f"estimator misses {len(misses)} of "
                           f"{len(deltas)} exceed the allowance")
    return verdicts, messages
