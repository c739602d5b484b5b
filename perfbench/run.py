"""qdesk benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Load model: one client, one process, closed loop. A pass runs the
workload's seeded task list in sequence, each task starting when the
previous one returns. Passes repeat while the next one is expected to end
within --seconds (at least one pass). With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and reports per-layer metrics and the tracing overhead. Every task's output
is checked against an oracle (oracles.py). The last line of stdout is one
JSON object with keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, traceable  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MODULES = ("simcore", "qprob", "algos", "encode", "varqml", "qkernel",
           "tnet", "dequant", "cli")
SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qdesk.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: traced function -> stats reported for it
LAYER_FUNCTIONS = {
    "simcore.apply_gate": ("calls", "self_s"),
    "simcore.expand_gate": ("calls", "self_s"),
    "simcore.pauli_matrix": ("calls", "self_s"),
    "simcore.exp_hamiltonian": ("calls", "self_s"),
    "simcore.haar_random_unitary": ("calls", "self_s"),
    "simcore.apply_gate_density": ("calls", "self_s"),
    "simcore.Circuit.run": ("calls", "self_s"),
    "simcore.Circuit.unitary": ("calls", "self_s"),
    "varqml.ode": ("calls", "self_s"),
    "varqml.landau_zener": ("calls", "self_s"),
    "varqml.adiabatic_follow": ("calls", "self_s"),
    "varqml.qaoa_state": ("calls", "self_s"),
    "varqml.IsingModel.hamiltonian": ("calls", "self_s"),
    "varqml.brickwork_unitary": ("calls", "self_s"),
    "varqml.barren_gradient_sample": ("calls", "self_s"),
    "varqml.cost_expectation": ("calls",),
    "tnet.ProjectorMPS.apply": ("calls", "self_s"),
    "tnet.mps_norm": ("calls", "self_s"),
    "tnet.trig_embedding": ("calls", "self_s"),
    "tnet.projector_frobenius": ("calls", "self_s"),
    "tnet.anomaly_loss": ("calls",),
    "dequant.SQVector.sample": ("calls", "self_s"),
    "dequant.dequant_inner": ("calls", "self_s"),
    "algos.grover": ("calls", "self_s"),
    "algos.deutsch_jozsa": ("calls", "self_s"),
    "algos.teleport": ("calls",),
    "algos.overlap_test": ("calls",),
    "encode.phase_encode": ("calls", "self_s"),
    "qkernel.quantum_kernel": ("calls", "self_s"),
    "qkernel.gram": ("calls",),
    "cli.run_config": ("calls", "self_s"),
}
WORK_COUNTERS = {
    "simcore.apply_gate.bytes_computed": "B",
    "varqml.ode.nfev": "count",
    "tnet.contract_ops": "count",
    "dequant.samples_drawn": "count",
}
STAT_UNITS = {"calls": "count", "self_s": "s"}


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for fn, stats in LAYER_FUNCTIONS.items():
        for stat in stats:
            out[f"{fn}.{stat}"] = STAT_UNITS[stat]
    out.update(WORK_COUNTERS)
    for m in MODULES:
        out[f"{m}.self_s"] = "s"
    out["trace.overhead_frac"] = "ratio"
    return out


# --- run record ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def task_record(task: dict) -> dict:
    rec = dict(task)
    if "circuit" in rec:
        rec["circuit"] = "sha256:" + hashlib.sha256(
            rec["circuit"].encode()).hexdigest()
    return rec


# --- measurement --------------------------------------------------------------

def measure_setup(samples: int = SETUP_SAMPLES) -> list:
    """Seconds for a fresh interpreter to import qdesk.cli; one untimed
    import first so every timed one reads compiled bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(samples + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


def load_qdesk():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {m: importlib.import_module(f"qdesk.{m}") for m in MODULES}


def execute(mods: dict, task: dict):
    """Run one task through qdesk's public entry points."""
    kind = task["kind"]
    if kind == "cli":
        return mods["cli"].run_config(task["config"])
    if kind == "circuit":
        return mods["simcore"].circuit_from_json(task["circuit"]).run()[0]
    if kind == "adiabatic":
        return mods["varqml"].adiabatic_follow(task["H0"], task["H1"],
                                               task["T"])
    if kind == "anomaly":
        return mods["tnet"].anomaly_fit(
            [np.asarray(x) for x in task["train"]], S=task["S"],
            alpha=task["alpha"], steps=task["steps"],
            rng=np.random.default_rng(task["seed"]))
    raise ValueError(f"unknown task kind {kind!r}")


def output_digest(task: dict, result) -> str:
    """sha256 of a task's output; information only, never a failure."""
    if isinstance(result, BaseException):
        data = repr(result).encode()
    elif task["kind"] == "cli":
        data = result.encode()
    elif task["kind"] == "circuit":
        data = np.ascontiguousarray(result).tobytes()
    elif task["kind"] == "adiabatic":
        data = np.ascontiguousarray(result[1]).tobytes()
    else:
        model, hist = result
        data = repr(hist).encode() + b"".join(
            np.ascontiguousarray(c).tobytes() for c in model.cores)
    return hashlib.sha256(data).hexdigest()


def run_pass(mods: dict, tasks: list) -> dict:
    inputs = copy.deepcopy(tasks)  # outside the timed region
    latencies, results = [], []
    clock = time.perf_counter
    start = clock()
    for task in inputs:
        t0 = clock()
        try:
            result = execute(mods, task)
        except Exception as exc:  # a task failure, counted in fail_frac
            result = exc
        latencies.append(clock() - t0)
        results.append(result)
    wall = clock() - start
    return {"wall": wall, "latencies": latencies, "results": results}


def tail(latencies: list):
    """(value, percentile): the latency with ten tasks beyond it, i.e. at
    the highest percentile that still has ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Checker:
    """Runs the oracles once per distinct pass output."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.cache = {}
        self.digests = None

    def check(self, p: dict):
        digests = tuple(output_digest(t, r)
                        for t, r in zip(self.tasks, p["results"]))
        if self.digests is None:
            self.digests = digests
        if digests not in self.cache:
            self.cache[digests] = oracles.check_pass(self.tasks,
                                                     p["results"])
        verdicts, messages = self.cache[digests]
        p["failed"] = verdicts.count("fail")
        p["messages"] = messages
        p["results"] = None  # free the outputs


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", setup_samples: int = SETUP_SAMPLES):
    """Run one workload; returns (result JSON dict, report lines, record)."""
    spec = workloads.generate(workload, seed, size)
    tasks = spec["tasks"]
    setup = measure_setup(setup_samples) if not trace else None
    mods = load_qdesk()
    checker = Checker(tasks)
    execute(mods, copy.deepcopy(spec["warmup"]))  # untimed BLAS/LAPACK warm-up

    untraced, traced, snapshots = [], [], []
    tracer = Tracer([mods[m] for m in MODULES]) if trace else None
    if tracer is not None:
        names = {n for m in MODULES for *_, n in traceable(mods[m])}
        missing = sorted(set(LAYER_FUNCTIONS) - names)
        if missing:
            raise RuntimeError(f"traced functions not found: {missing}")
    start = time.perf_counter()
    while True:
        p = run_pass(mods, tasks)
        step = p["wall"]
        untraced.append(p)
        if tracer is not None:
            tracer.reset()
            with tracer.installed():
                q = run_pass(mods, tasks)
            traced.append(q)
            snapshots.append({"functions": tracer.per_function(),
                              "modules": tracer.per_module_self(),
                              "work": dict(tracer.work),
                              "table": tracer.table()})
            step += q["wall"]
        if time.perf_counter() - start + step > seconds:
            break

    passes = untraced + traced
    for p in passes:
        checker.check(p)
    attempted = sum(len(tasks) for _ in passes)
    failed = sum(p["failed"] for p in passes)
    lines = [f"qdesk benchmark: workload {workload}, seed {seed}, "
             f"{len(tasks)} tasks per pass, {len(untraced)} untraced and "
             f"{len(traced)} traced passes, size {size}"]
    for p in passes:
        for i, msg in sorted(p["messages"].items()):
            lines.append(f"FAILED task {i} ({workloads.label(tasks[i])}): "
                         f"{msg}")
    lines.append(f"fail_frac    {failed / attempted:.6g} ratio  "
                 f"({failed} failed of {attempted} attempted)")

    if tracer is None:
        metrics, more = _end_to_end(untraced, setup)
    else:
        metrics, more = _per_layer(untraced, traced, snapshots)
        _write_trace(workload, seed, snapshots)
    lines += more
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size,
        "task_list_sha256": workloads.task_list_digest(spec),
        "environment": environment_record(),
        "tasks": [dict(task_record(t), label=workloads.label(t),
                       output_sha256=d)
                  for t, d in zip(tasks, checker.digests)],
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines, record


def _end_to_end(passes, setup):
    walls = [p["wall"] for p in passes]
    # a task's latency is the median of its repeats over the passes
    latencies = [statistics.median(lat)
                 for lat in zip(*(p["latencies"] for p in passes))]
    n_tasks = len(latencies)
    tail_s, tail_pct = tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    k = len(passes)
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports of qdesk.cli",
        "wall_s": f"median of {k} passes",
        "task_p50_s": f"median of {n_tasks} task latencies, each the "
                      f"median of its {k} repeats",
        "task_tail_s": f"p{tail_pct:.4g}: {10 if n_tasks > 10 else 0} of "
                       f"{n_tasks} task latencies beyond it",
        "peak_rss_mb": "peak resident memory of this process",
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    lines = [f"{name:<12} {values[name]:<12.6g} {unit:<5}  ({notes[name]})"
             for name, unit in END_TO_END.items()]
    return metrics, lines


def _per_layer(untraced, traced, snapshots):
    first = snapshots[0]
    values = {}
    for fn, stats in LAYER_FUNCTIONS.items():
        row = first["functions"].get(fn, {"calls": 0})
        if "calls" in stats:
            values[f"{fn}.calls"] = row["calls"]
        if "self_s" in stats:
            values[f"{fn}.self_s"] = statistics.median(
                s["functions"].get(fn, {}).get("self_s", 0.0)
                for s in snapshots)
    for name in WORK_COUNTERS:
        values[name] = first["work"].get(name, 0)
    for m in MODULES:
        values[f"{m}.self_s"] = statistics.median(
            s["modules"].get(m, 0.0) for s in snapshots)
    plain = statistics.median(p["wall"] for p in untraced)
    with_trace = statistics.median(p["wall"] for p in traced)
    values["trace.overhead_frac"] = with_trace / plain - 1
    units = layer_metric_units()
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    repeat = all(s["work"] == first["work"] and
                 {f: r["calls"] for f, r in s["functions"].items()}
                 == {f: r["calls"] for f, r in first["functions"].items()}
                 for s in snapshots)
    lines = [f"{name:<44} {values[name]:<14.6g} {units[name]}"
             for name in units]
    lines.append(f"tracing overhead: traced pass {with_trace:.4g} s vs "
                 f"untraced {plain:.4g} s (medians of {len(traced)} and "
                 f"{len(untraced)} passes); counts repeat across traced "
                 f"passes: {repeat}")
    return metrics, lines


def _write_trace(workload: str, seed: int, snapshots) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump([s["table"] for s in snapshots], fh)


# --- command line ---------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then a summary table."""
    summary, total = [], {"correct": True, "attempted": 0, "failed": 0,
                          "metrics": {}}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {w} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
        summary.append((w, res))
    print()
    if not trace:
        names = list(END_TO_END) + ["fail_frac"]
        print(f"{'workload':<18}" + "".join(f"{n:>14}" for n in names))
        for w, res in summary:
            vals = [res["metrics"][n]["value"] for n in END_TO_END]
            vals.append(res["failed"] / res["attempted"])
            print(f"{w:<18}" + "".join(f"{v:>14.5g}" for v in vals))
        print(f"{'unit':<18}" + "".join(
            f"{u:>14}" for u in list(END_TO_END.values()) + ["ratio"]))
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qdesk" / "cli.py").is_file():
        print(f"qdesk sources not found under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result, lines, record = run_workload(args.workload, args.seed,
                                         args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
