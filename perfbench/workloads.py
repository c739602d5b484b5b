"""Seeded task lists for the four benchmark workloads.

A task is a JSON-ready dict. `kind` says how it runs:

- "cli": `qdesk.cli.run_config(config)`, the path of `qdesk run`;
- "circuit": `simcore.circuit_from_json(circuit).run()`;
- "adiabatic": `varqml.adiabatic_follow(H0, H1, T)`;
- "anomaly": `tnet.anomaly_fit(train, S, alpha, steps=..., rng=...)`.

The library kinds cover work that has no CLI experiment. Every CLI config
carries exactly the param keys its experiment reads (PARAM_KEYS), so the
recorded params are the effective ones: `qdesk.cli` ignores unknown keys
and would otherwise run something other than what the record says.

Seeds change values (graphs, angles, matrices, eta), never sizes or task
counts, so two seeds give task lists of the same cost structure.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOADS = ("dense-small-n", "wide-statevector", "dynamics",
             "tensor-sketch")

# every params key each CLI experiment reads (see qdesk/cli.py)
PARAM_KEYS = {
    "barren-sweep": {"n_values", "ensemble"},
    "qaoa-maxcut": {"edges", "p", "restarts"},
    "gradients": set(),
    "qft": {"max_n"},
    "gibbs": {"T", "n"},
    "lcu": {"n"},
    "matrix-protocols": {"t_bits", "n"},
    "grover": {"n", "marked"},
    "deutsch-jozsa": {"n"},
    "bell-teleport": {"runs"},
    "landau-zener": {"eta_grid"},
    "mps-norm-bench": {"N_values", "D"},
    "colorings": {"edges", "vertices", "colors"},
    "dequant-inner": {"N", "epsilon", "delta"},
    "dequant-vs-quantum": {"N", "shots", "epsilons", "trials"},
    "kernels": {"M"},
    "fourier-spectra": {"max_N"},
}

# Sizes per workload; "tiny" exists for the self-test smoke runs. The task
# counts put the median and the tail task (ten tasks beyond it) inside
# blocks of tasks of similar cost, so a little noise cannot move either
# statistic across a gap between two task kinds.
SIZES = {
    "dense-small-n": {
        "full": {"barren_n": [3, 4, 5, 6], "ensemble": 20,
                 "qaoa": [(3, 2), (4, 1), (6, 1)], "gradients": 4,
                 "qft_max_n": [5, 6, 6, 6, 6], "gibbs_n": [3, 4, 5, 6],
                 "lcu_n": [2] + [3] * 12, "protocols": [(3, 8)] * 3},
        "tiny": {"barren_n": [3], "ensemble": 12, "qaoa": [(3, 1)],
                 "gradients": 1, "qft_max_n": [3], "gibbs_n": [2],
                 "lcu_n": [2], "protocols": [(1, 6)]},
    },
    "wide-statevector": {
        "full": {"circuits": [(8, 2), (9, 2), (10, 10), (11, 10), (12, 5)],
                 "depth": 270, "grover": [(8, 1), (9, 2), (10, 1), (11, 3),
                                          (12, 1)],
                 "dj_n": [5, 6, 7, 8], "teleport_runs": [50, 50]},
        "tiny": {"circuits": [(8, 1)], "depth": 4, "grover": [(8, 1)],
                 "dj_n": [3], "teleport_runs": [5]},
    },
    "dynamics": {
        "full": {"eta_range": (0.6, 1.5), "lz_tasks": 4,
                 "pairs": [(8.0, 8), (16.0, 10)]},
        "tiny": {"eta_range": (1.0, 1.2), "lz_tasks": 1,
                 "pairs": [(8.0, 1)]},
    },
    "tensor-sketch": {
        "full": {"anomaly_N": [4, 5, 6, 6, 7, 8], "anomaly_M": 6,
                 "anomaly_steps": 4,
                 "mps": [([8, 12, 16], 4), ([8, 12, 16], 8)],
                 "colorings": [(5, 3), (6, 3), (7, 3), (8, 3), (5, 4),
                               (6, 4), (7, 4), (8, 4), (6, 3), (7, 3),
                               (8, 3), (6, 4), (7, 4), (8, 4)],
                 "dequant_N": [256, 512, 1024, 2048] + [4096] * 6,
                 "versus_N": [256, 512, 1024, 2048] + [4096] * 4,
                 "kernels_M": [8, 16, 24, 32],
                 "fourier_max_N": [2, 3, 4, 5, 5, 5]},
        "tiny": {"anomaly_N": [4], "anomaly_M": 3, "anomaly_steps": 1,
                 "mps": [([4, 6], 2)], "colorings": [(4, 3)],
                 "dequant_N": [64], "versus_N": [64], "kernels_M": [8],
                 "fourier_max_N": [2]},
    },
}

ONE_QUBIT = ("H", "X", "S", "T", "RX", "RY", "RZ")
TWO_QUBIT = ("CNOT", "CZ", "SWAP")


def cli_task(experiment: str, params: dict, seed: int) -> dict:
    if set(params) != PARAM_KEYS[experiment]:
        raise ValueError(f"{experiment}: params {sorted(params)} differ "
                         f"from the keys it reads "
                         f"{sorted(PARAM_KEYS[experiment])}")
    return {"kind": "cli", "config": {"experiment": experiment,
                                      "seed": seed, "params": params}}


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def random_graph(rng, n: int, m: int) -> list:
    """Connected graph on n vertices with m edges: a random spanning tree
    plus random extra edges. Every vertex has an edge, so qdesk's
    vertex count (largest index + 1) is n."""
    order = [int(v) for v in rng.permutation(n)]
    edges = {tuple(sorted((order[i], order[int(rng.integers(0, i))])))
             for i in range(1, n)}
    rest = [(i, j) for i in range(n) for j in range(i + 1, n)
            if (i, j) not in edges]
    for k in rng.permutation(len(rest))[:m - len(edges)]:
        edges.add(rest[int(k)])
    return [list(e) for e in sorted(edges)]


def random_circuit(rng, n: int, depth: int) -> str:
    """Brickwork circuit JSON: a random one-qubit gate on every qubit, then
    CNOT/CZ/SWAP or a Haar-random raw 4x4 matrix on alternating pairs."""
    gates = rng.integers(len(ONE_QUBIT), size=(depth, n))
    angles = rng.uniform(-math.pi, math.pi, size=(depth, n))
    kinds = rng.integers(len(TWO_QUBIT) + 1, size=(depth, n // 2))
    flips = rng.random((depth, n // 2)) < 0.5
    ginibre = (rng.standard_normal((depth, n // 2, 4, 4))
               + 1j * rng.standard_normal((depth, n // 2, 4, 4)))
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    haar = q * (d / np.abs(d))[..., None, :]
    ops = []
    for layer in range(depth):
        for t in range(n):
            gate = ONE_QUBIT[gates[layer, t]]
            op = {"gate": gate, "targets": [t]}
            if gate.startswith("R"):
                op["param"] = float(angles[layer, t])
            ops.append(op)
        for j, t in enumerate(range(layer % 2, n - 1, 2)):
            pair = [t + 1, t] if flips[layer, j] else [t, t + 1]
            k = kinds[layer, j]
            if k < len(TWO_QUBIT):
                ops.append({"gate": TWO_QUBIT[k], "targets": pair})
            else:
                ops.append({"gate": "U4", "targets": pair, "matrix": [
                    [[float(v.real), float(v.imag)] for v in row]
                    for row in haar[layer, j]]})
    return json.dumps({"n": n, "ops": ops})


# --- workloads --------------------------------------------------------------

def _dense_small_n(rng, s):
    tasks = [cli_task("barren-sweep", {"n_values": [n],
                                       "ensemble": s["ensemble"]}, _seed(rng))
             for n in s["barren_n"]]
    for n, p in s["qaoa"]:
        tasks.append(cli_task("qaoa-maxcut", {
            "edges": random_graph(rng, n, n), "p": p, "restarts": 1,
        }, _seed(rng)))
    tasks += [cli_task("gradients", {}, _seed(rng))
              for _ in range(s["gradients"])]
    tasks += [cli_task("qft", {"max_n": n}, _seed(rng))
              for n in s["qft_max_n"]]
    tasks += [cli_task("gibbs", {"T": float(rng.uniform(0.5, 2.0)), "n": n},
                       _seed(rng)) for n in s["gibbs_n"]]
    tasks += [cli_task("lcu", {"n": n}, _seed(rng)) for n in s["lcu_n"]]
    tasks += [cli_task("matrix-protocols", {"t_bits": t, "n": n}, _seed(rng))
              for n, t in s["protocols"]]
    warmup = cli_task("gibbs", {"T": 1.0, "n": 2}, 0)
    return warmup, tasks


def _wide_statevector(rng, s):
    tasks = [{"kind": "circuit", "circuit": random_circuit(rng, n, s["depth"])}
             for n, count in s["circuits"] for _ in range(count)]
    for n, m in s["grover"]:
        marked = sorted(int(v) for v in rng.choice(2**n, m, replace=False))
        tasks.append(cli_task("grover", {"n": n, "marked": marked},
                              _seed(rng)))
    tasks += [cli_task("deutsch-jozsa", {"n": n}, _seed(rng))
              for n in s["dj_n"]]
    tasks += [cli_task("bell-teleport", {"runs": r}, _seed(rng))
              for r in s["teleport_runs"]]
    warmup = {"kind": "circuit",
              "circuit": random_circuit(np.random.default_rng(0), 8, 2)}
    return warmup, tasks


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
_I = np.eye(2)


def adiabatic_pair(rng):
    """Transverse-field start H0 and a classical Ising target H1 on two
    qubits, each coefficient within 10 % of acceptance criterion 13's model
    (H0 = -(XI + IX), J = 0.7, h = (0.3, -0.5)), with the fields' order and
    sign drawn. Along every such path the gap stays above 0.8. Doubling T
    from 8 or 16 cut the terminal infidelity by at least 11x in 120 sampled
    pairs, well over the 1.6x the oracle demands; from T = 25 on, the
    interference of the two boundary terms brings that margin close to
    1.6x. The narrow family also keeps the cost of one integration nearly
    the same for every pair."""
    g = rng.uniform(0.9, 1.1, 2)
    H0 = -(g[0] * np.kron(_X, _I) + g[1] * np.kron(_I, _X))
    J = 0.7 * rng.uniform(0.9, 1.1)
    h = np.array([0.3, -0.5]) * rng.uniform(0.9, 1.1, 2)
    if rng.random() < 0.5:
        h = h[::-1]
    h = h * rng.choice([-1, 1])
    H1 = (J * np.kron(_Z, _Z) + h[0] * np.kron(_Z, _I)
          + h[1] * np.kron(_I, _Z))
    return H0.tolist(), H1.tolist()


def _dynamics(rng, s):
    lo, hi = s["eta_range"]
    k = s["lz_tasks"]
    # one eta per stratum of [lo, hi], so every seed covers the range
    tasks = [cli_task("landau-zener", {
        "eta_grid": [float(lo + (i + rng.random()) * (hi - lo) / k)],
    }, _seed(rng)) for i in range(k)]
    pair = 0
    for T, count in s["pairs"]:
        for _ in range(count):
            H0, H1 = adiabatic_pair(rng)
            tasks += [{"kind": "adiabatic", "pair": pair, "H0": H0,
                       "H1": H1, "T": t} for t in (T, 2 * T)]
            pair += 1
    H0, H1 = adiabatic_pair(np.random.default_rng(0))
    warmup = {"kind": "adiabatic", "pair": -1, "H0": H0, "H1": H1, "T": 2.0}
    return warmup, tasks


def _tensor_sketch(rng, s):
    tasks = []
    for N in s["anomaly_N"]:
        base = rng.normal(size=N)
        train = [(base + 0.03 * rng.normal(size=N)).tolist()
                 for _ in range(s["anomaly_M"])]
        tasks.append({"kind": "anomaly", "train": train, "S": 2,
                      "alpha": 0.05, "steps": s["anomaly_steps"],
                      "seed": _seed(rng)})
    tasks += [cli_task("mps-norm-bench", {"N_values": Ns, "D": D},
                       _seed(rng)) for Ns, D in s["mps"]]
    tasks += [cli_task("colorings", {
        "edges": random_graph(rng, n, n + 2), "vertices": n, "colors": d,
    }, _seed(rng)) for n, d in s["colorings"]]
    tasks += [cli_task("dequant-inner", {"N": N, "epsilon": 0.1,
                                         "delta": 0.05}, _seed(rng))
              for N in s["dequant_N"]]
    tasks += [cli_task("dequant-vs-quantum", {
        "N": N, "shots": [400, 1600, 6400], "epsilons": [0.4, 0.2, 0.1],
        "trials": 16,
    }, _seed(rng)) for N in s["versus_N"]]
    tasks += [cli_task("kernels", {"M": M}, _seed(rng))
              for M in s["kernels_M"]]
    tasks += [cli_task("fourier-spectra", {"max_N": N}, _seed(rng))
              for N in s["fourier_max_N"]]
    warmup = cli_task("dequant-inner", {"N": 64, "epsilon": 0.2,
                                        "delta": 0.1}, 0)
    return warmup, tasks


_GENERATORS = {
    "dense-small-n": _dense_small_n,
    "wide-statevector": _wide_statevector,
    "dynamics": _dynamics,
    "tensor-sketch": _tensor_sketch,
}


def generate(workload: str, seed: int, size: str = "full") -> dict:
    """The task list of one pass over `workload`, in seeded order."""
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index])
    warmup, tasks = _GENERATORS[workload](rng, SIZES[workload][size])
    order = rng.permutation(len(tasks))
    return {"workload": workload, "seed": seed, "size": size,
            "warmup": warmup, "tasks": [tasks[int(i)] for i in order]}


def task_list_bytes(spec: dict) -> bytes:
    return json.dumps(spec, sort_keys=True).encode()


def task_list_digest(spec: dict) -> str:
    return hashlib.sha256(task_list_bytes(spec)).hexdigest()


def label(task: dict) -> str:
    """Short human-readable task name for records and error messages."""
    if task["kind"] == "cli":
        cfg = task["config"]
        size = {k: v for k, v in cfg["params"].items()
                if k in ("n", "N", "n_values", "max_n", "max_N", "M", "p",
                         "eta_grid", "vertices", "colors", "D", "N_values")}
        return f"{cfg['experiment']} {json.dumps(size, sort_keys=True)}"
    if task["kind"] == "circuit":
        data = json.loads(task["circuit"])
        return f"circuit n={data['n']} gates={len(data['ops'])}"
    if task["kind"] == "adiabatic":
        return f"adiabatic pair={task['pair']} T={task['T']}"
    return f"anomaly N={len(task['train'][0])} steps={task['steps']}"
