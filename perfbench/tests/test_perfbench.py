"""Self-tests of the benchmark: generation, tracing, oracles and a
tiny-size smoke run of every workload.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MODS = run.load_qdesk()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_task_list(workload):
    a = workloads.task_list_bytes(workloads.generate(workload, 7))
    b = workloads.task_list_bytes(workloads.generate(workload, 7))
    c = workloads.task_list_bytes(workloads.generate(workload, 8))
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_values_not_sizes(workload):
    def sizes(seed):
        labels = [workloads.label(t)
                  for t in workloads.generate(workload, seed)["tasks"]]
        return sorted(lab.split(" {")[0] if "eta_grid" in lab else lab
                      for lab in labels)

    assert sizes(1) == sizes(2)


class RecordingParams(dict):
    """A params dict that remembers which keys the experiment read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_cli_tasks_pass_exactly_the_keys_each_experiment_reads():
    seen = set()
    for w in workloads.WORKLOADS:
        for task in workloads.generate(w, 5, "tiny")["tasks"]:
            if task["kind"] != "cli":
                continue
            cfg = dict(task["config"])
            params = RecordingParams(cfg["params"])
            cfg["params"] = params
            MODS["cli"].run_config(cfg)
            assert params.read == set(params), cfg["experiment"]
            seen.add(cfg["experiment"])
    assert seen == set(workloads.PARAM_KEYS)


def test_cli_task_rejects_keys_the_experiment_ignores():
    with pytest.raises(ValueError):
        workloads.cli_task("qaoa-maxcut", {"edges": [[0, 1]], "p": 1,
                                           "restarts": 1, "steps": 5}, 0)


def _fake_module(clock):
    mod = types.ModuleType("fake")

    def inner():
        clock.t += 2

    def outer():
        clock.t += 1
        mod.inner()
        clock.t += 3

    class Box:
        def method(self):
            clock.t += 5
            mod.inner()

    for obj in (inner, outer, Box):
        obj.__module__ = "fake"
    mod.inner, mod.outer, mod.Box = inner, outer, Box
    return mod


def test_self_time_is_span_time_minus_child_spans():
    clock = types.SimpleNamespace(t=0.0)
    mod = _fake_module(clock)
    tr = tracer.Tracer([mod], clock=lambda: clock.t)
    with tr.installed():
        mod.outer()
        mod.Box().method()
    rows = tr.per_function()
    assert rows["fake.outer"] == {"calls": 1, "total_s": 6.0, "self_s": 4.0}
    assert rows["fake.Box.method"] == {"calls": 1, "total_s": 7.0,
                                       "self_s": 5.0}
    assert rows["fake.inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    parents = {(r["function"], r["parent"]) for r in tr.table()}
    assert parents == {("fake.outer", tracer.ROOT),
                       ("fake.inner", "fake.outer"),
                       ("fake.Box.method", tracer.ROOT),
                       ("fake.inner", "fake.Box.method")}
    assert tr.per_module_self() == {"fake": 13.0}


def _attributes(modules):
    out = {}
    for m in modules:
        for owner, attr, _name in tracer.traceable(m):
            out[owner, attr] = vars(owner)[attr]
    return out


def test_wrappers_are_restored_even_after_an_error():
    mods = [MODS[m] for m in run.MODULES]
    before = _attributes(mods)
    tr = tracer.Tracer(mods)
    with pytest.raises(RuntimeError):
        with tr.installed():
            assert MODS["simcore"].apply_gate is not before[
                MODS["simcore"], "apply_gate"]
            raise RuntimeError("boom")
    assert _attributes(mods) == before
    assert all(vars(o)[a] is f for (o, a), f in before.items())


def test_every_reported_function_is_traced():
    names = {n for m in run.MODULES for *_, n in tracer.traceable(MODS[m])}
    assert set(run.LAYER_FUNCTIONS) <= names
    assert set(tracer.WORK_HOOKS) <= names


def test_work_counters_count_at_the_boundary():
    tr = tracer.Tracer([MODS["simcore"], MODS["tnet"], MODS["dequant"]])
    psi = MODS["simcore"].basis_state(3)
    with tr.installed():
        MODS["simcore"].apply_gate(psi, MODS["simcore"].H, [1])
        xs = MODS["dequant"].SQVector(np.ones(8))
        xs.sample(np.random.default_rng(0), 7)
        mps = MODS["tnet"].mps_from_tensor(np.ones((2, 2, 2)))
        _, ops = MODS["tnet"].mps_norm(mps, "sequential", return_ops=True)
    # 8 amplitudes in and out at 16 bytes each, plus a 2 x 2 gate
    assert tr.work["simcore.apply_gate.bytes_computed"] == 128 + 64 + 128
    assert tr.work["dequant.samples_drawn"] == 7
    assert tr.work["tnet.contract_ops"] == ops > 0


def test_tail_is_the_latency_with_ten_beyond_it():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_names_what_the_runner_prints():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.layer_metric_units()


def _run_task(task):
    return run.execute(MODS, task)


def test_oracles_reject_wrong_outputs():
    rng = np.random.default_rng(0)
    circ = {"kind": "circuit", "circuit": workloads.random_circuit(rng, 5, 6)}
    state = _run_task(circ)
    oracles.check_task(circ, state)
    bad = state.copy()
    bad[[0, 1]] = bad[[1, 0]]
    with pytest.raises(oracles.OracleError):
        oracles.check_task(circ, bad)

    col = workloads.cli_task("colorings", {
        "edges": [[0, 1], [1, 2]], "vertices": 3, "colors": 3}, 0)
    text = _run_task(col)
    assert oracles.check_task(col, text) == "ok"
    wrong = text.replace(",12\n", ",13\n")
    assert wrong != text
    with pytest.raises(oracles.OracleError):
        oracles.check_task(col, wrong)

    anomaly = workloads.generate("tensor-sketch", 1, "tiny")["tasks"]
    anomaly = next(t for t in anomaly if t["kind"] == "anomaly")
    model, hist = _run_task(anomaly)
    oracles.check_task(anomaly, (model, hist))
    with pytest.raises(oracles.OracleError):
        oracles.check_task(anomaly, (model, hist[:-1] + [hist[-1] + 1e-3]))


def test_estimator_misses_fail_only_beyond_the_allowance():
    task = workloads.cli_task("dequant-inner", {"N": 8, "epsilon": 0.1,
                                                "delta": 0.05}, 0)
    hit = "# x\nest_re,est_im,true_re,true_im,bound\n1.0,0.0,1.0,0.0,0.1\n"
    miss = "# x\nest_re,est_im,true_re,true_im,bound\n2.0,0.0,1.0,0.0,0.1\n"
    verdicts, _ = oracles.check_pass([task] * 4, [miss, hit, hit, hit])
    assert verdicts == ["ok"] * 4
    verdicts, _ = oracles.check_pass([task] * 4, [miss, miss, miss, hit])
    assert verdicts == ["fail", "fail", "fail", "ok"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run_has_no_failures(workload):
    result, lines, record = run.run_workload(
        workload, 3, 0.01, trace=False, size="tiny", setup_samples=1)
    assert result["correct"] and result["failed"] == 0, lines
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] % len(record["tasks"]) == 0


def test_traced_counts_repeat_between_runs():
    counts = []
    for _ in range(2):
        result, _lines, _rec = run.run_workload(
            "tensor-sketch", 4, 0.01, trace=True, size="tiny")
        assert result["correct"]
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["tnet.contract_ops"] > 0
    assert counts[0]["dequant.samples_drawn"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dynamics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
