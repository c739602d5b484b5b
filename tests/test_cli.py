"""Command-line interface: subcommands, config validation, exit codes,
output formats, and byte-identical reruns at a fixed seed."""
import hashlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qdesk import algos, cli
from qdesk.errors import BadParameter


def write_cfg(tmp_path, name="cli.json", **overrides):
    cfg = {"experiment": "entropy", "seed": 7}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestList:
    def test_lists_all_experiments_sorted(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == sorted(cli.EXPERIMENTS)
        assert len(out) == 21


class TestValidate:
    def test_good_config(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path)
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_unknown_experiment(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, experiment="nope")
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "error: unknown experiment" in capsys.readouterr().out

    def test_missing_seed(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "entropy"}))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "seed" in capsys.readouterr().out

    def test_unknown_key_warns_but_passes(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, extra=1)
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert "warning: unknown key" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["validate", "--config", "/no/such/file.json"]) == 2

    @pytest.mark.parametrize("seed", [True, 7.0, "7", None])
    def test_seed_must_be_an_int(self, seed, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, seed=seed)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "seed must be an integer" in capsys.readouterr().out

    def test_unhashable_experiment_name(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, experiment=["grover"])
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "error: unknown experiment" in capsys.readouterr().out


class TestParamRegistry:
    """Each experiment declares its params once, in `@experiment`."""

    def test_names_match(self):
        assert set(cli.PARAMS) == set(cli.EXPERIMENTS)
        assert len(cli.PARAMS) == 21

    @pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
    def test_defaults_pass_their_rules(self, name):
        body = cli.EXPERIMENTS[name]
        params = dict(inspect.signature(body).parameters)
        assert params.pop("rng").default is inspect.Parameter.empty
        assert set(params) == set(cli.PARAMS[name])
        resolved, errors = cli.resolve_params(name, {})
        assert errors == []
        assert resolved == {k: p.default for k, p in params.items()}

    def test_keys_match_benchmark_workloads(self):
        # perfbench/workloads.py lists by hand the keys each experiment
        # reads; the benchmark passes exactly those keys
        path = Path(__file__).resolve().parents[1] / "perfbench" / \
            "workloads.py"
        spec = importlib.util.spec_from_file_location("_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name, keys in workloads.PARAM_KEYS.items():
            assert set(cli.PARAMS[name]) == keys, name


class TestParamBoundary:
    """Parameter values that used to pass `validate` and then fail, or run
    out of scope, inside `run` are config errors: exit 2 from both."""

    BAD = [
        ("landau-zener", {"eta_grid": [0.3, -0.5]}, "eta_grid value -0.5"),
        ("landau-zener", {"eta_grid": [0.0]}, "eta_grid value 0.0"),
        ("grover", {"n": 3, "marked": [8]}, "marked value 8"),
        ("grover", {"n": 3, "marked": [-1]}, "marked value -1"),
        ("grover", {"n": 2, "marked": []}, "some but not all"),
        ("barren-sweep", {"n_values": [2], "ensemble": 1}, "ensemble"),
        ("barren-sweep", {"n_values": [13], "ensemble": 20},
         "n_values value 13"),
        ("barren-sweep", {"n_values": [0], "ensemble": 20},
         "n_values value 0"),
        ("mps-norm-bench", {"N_values": [1]}, "N_values value 1"),
        ("mps-norm-bench", {"D": 0}, "D must be an integer >= 1"),
        ("anomaly", {"S": 0}, "S must be an integer >= 1"),
        ("anomaly", {"N": 4, "M": 0}, "M must be an integer >= 1"),
        ("anomaly", {"N": 0}, "N must be an integer >= 1"),
        ("anomaly", {"N": 4.0}, "N must be an integer >= 1"),
        ("anomaly", {"steps": -1}, "steps must be an integer >= 0"),
        ("anomaly", {"alpha": -0.1}, "alpha must be a finite number >= 0"),
        ("anomaly", {"alpha": "0.05"}, "alpha must be a finite number"),
        # each would have allocated gigabytes or more
        ("deutsch-jozsa", {"n": 30}, "n must be an integer in 1..11"),
        ("lcu", {"n": 5}, "n must be an integer in 1..4"),
        ("gibbs", {"n": 20}, "n must be an integer in 1..12"),
        ("qft", {"max_n": 20}, "max_n must be an integer in 1..12"),
        ("qaoa-maxcut", {"edges": [[0, 40]]}, "edges value [0, 40]"),
        # each used to fail inside the experiment with a Python error
        ("dqc1", {"n": "3"}, "n must be an integer in 1..11"),
        ("deutsch-jozsa", {"n": "4"}, "n must be an integer in 1..11"),
        ("qaoa-maxcut", {"p": "2"}, "p must be an integer >= 1"),
        ("bell-teleport", {"runs": 2.5}, "runs must be an integer >= 1"),
        ("kernels", {"M": 0}, "M must be an integer >= 1"),
        ("matrix-protocols", {"t_bits": 1, "n": 2}, "n < t_bits"),
        ("qpe-bound", {"epsilon": 0}, "epsilon must be a finite number > 0"),
        ("dequant-inner", {"epsilon": 0},
         "epsilon must be a finite number > 0"),
        ("colorings", {"vertices": 30}, "vertices must be an integer in 1..26"),
        # each used to print a result that does not match the config
        ("entropy", {"bogus": 1}, "unknown param 'bogus'"),
        ("colorings", {"edges": [[0, 5]], "vertices": 3},
         "edges value [0, 5]"),
        ("qpe-bound", {"epsilon": -0.4},
         "epsilon must be a finite number > 0"),
        # register widths derived from two params
        ("matrix-protocols", {"t_bits": 8, "n": 5}, "n + t_bits <= 12"),
        ("qpe-bound", {"t": 10, "epsilon": 0.1}, "more than 12 ancilla"),
        ("grover", {"n": 13}, "n must be an integer in 1..12"),
        ("entropy", {"p": [0.5, 0.25]}, "p: probabilities sum to 0.75"),
        # sizes that are not qubit counts, one past each cap
        ("qpe-bound", {"draws": cli.MAX_SAMPLES + 1},
         "draws must be an integer >= 1 and <= 1000000"),
        ("qpe-bound", {"draws": 10_000_000_000},
         "draws must be an integer >= 1 and <= 1000000"),
        ("dqc1", {"shots": cli.MAX_SAMPLES + 1},
         "shots must be an integer >= 1 and <= 1000000"),
        ("bell-teleport", {"runs": cli.MAX_SAMPLES + 1},
         "runs must be an integer >= 1 and <= 1000000"),
        ("dequant-vs-quantum", {"shots": [400, cli.MAX_SAMPLES + 1]},
         "shots value 1000001"),
        ("dequant-vs-quantum", {"trials": cli.MAX_SAMPLES + 1},
         "trials must be an integer >= 1 and <= 1000000"),
        ("dequant-inner", {"N": 2**20 + 1},
         "N must be an integer >= 1 and <= 1048576"),
        ("dequant-vs-quantum", {"N": 2**20 + 1},
         "N must be an integer >= 1 and <= 1048576"),
        ("kernels", {"M": 513}, "M must be an integer >= 1 and <= 512"),
        ("mps-norm-bench", {"D": 33}, "D must be an integer >= 1 and <= 32"),
        ("mps-norm-bench", {"N_values": [4, 17]}, "N_values value 17"),
        # 23 buckets of 44012 samples; epsilon 0.0144 draws 998269
        ("dequant-inner", {"epsilon": 0.0143, "delta": 0.05},
         "draws 1012276 samples, more than 1000000"),
        ("dequant-inner", {"epsilon": 0.1, "delta": 1e-300},
         "more than 1000000"),
        # 18 buckets of 55801 samples at delta 0.1; 0.0128 draws 988776
        ("dequant-vs-quantum", {"epsilons": [0.4, 0.0127]},
         "epsilon 0.0127 with delta 0.1 draws 1004418 samples"),
        ("qpe-bound", {"grid": 1001},
         "grid must be an integer >= 1 and <= 1000"),
        ("barren-sweep", {"ensemble": 10001},
         "ensemble must be an integer >= 2 and <= 10000"),
        ("anomaly", {"N": 65}, "N must be an integer >= 1 and <= 64"),
        ("anomaly", {"M": 1001}, "M must be an integer >= 1 and <= 1000"),
        ("anomaly", {"steps": 10001},
         "steps must be an integer >= 0 and <= 10000"),
        ("qaoa-maxcut", {"p": 17}, "p must be an integer >= 1 and <= 16"),
        ("qaoa-maxcut", {"restarts": 101},
         "restarts must be an integer >= 1 and <= 100"),
        ("colorings", {"colors": 27},
         "colors must be an integer >= 1 and <= 26"),
        # float64 counts are exact only up to 2^53; 5^23 is about 1.2e16
        ("colorings", {"vertices": 23, "colors": 5},
         "colors^vertices = 5^23 is more than 2^53"),
        ("colorings", {"edges": [[0, 1]], "vertices": 26, "colors": 26},
         "colors^vertices = 26^26 is more than 2^53"),
        # one sweep takes about 14400 max(eta, 1/eta) steps
        ("landau-zener", {"eta_grid": [1.0, 0.009]}, "eta_grid value 0.009"),
        ("landau-zener", {"eta_grid": [100]}, "eta_grid value 100"),
    ]

    # finite values outside what the experiment can compute
    OUT_OF_RANGE = [
        # the loss has no minimum once alpha >= 2; at 1e308 it overflows
        ("anomaly", {"alpha": 2},
         "alpha must be a finite number >= 0 and < 2"),
        ("anomaly", {"alpha": 1e308, "steps": 1},
         "alpha must be a finite number >= 0 and < 2"),
        # the Boltzmann weights overflow at T = 5e-324
        ("gibbs", {"T": 5e-324}, "T must be a finite number >= 1e-300"),
        ("gibbs", {"T": 0}, "T must be a finite number >= 1e-300"),
    ]

    @pytest.mark.parametrize("name,params,message", BAD + OUT_OF_RANGE)
    def test_validate_and_run_exit_2(self, name, params, message, tmp_path,
                                     capsys, monkeypatch):
        path, _ = write_cfg(tmp_path, experiment=name, params=params)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().out
        monkeypatch.setitem(cli.EXPERIMENTS, name, None)  # must not run
        assert cli.main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_non_finite_eta(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"experiment": "landau-zener", "seed": 1, '
                        '"params": {"eta_grid": [NaN, Infinity]}}')
        assert cli.main(["validate", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "eta_grid value nan" in out and "eta_grid value inf" in out

    def test_list_param_given_a_scalar(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, experiment="landau-zener",
                            params={"eta_grid": 0.5})
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "eta_grid must be a list" in capsys.readouterr().out
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "eta_grid must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("name,params", [
        ("landau-zener", {"eta_grid": [0.05, 1.5]}),
        ("grover", {"n": 3, "marked": [0, 7]}),
        ("barren-sweep", {"n_values": [1, 12], "ensemble": 2}),
        ("mps-norm-bench", {"N_values": [2, 16], "D": 1}),
        ("anomaly", {"N": 3, "M": 1, "S": 4, "steps": 0, "alpha": 0}),
        ("deutsch-jozsa", {"n": 11}),
        ("dqc1", {"n": 11, "shots": 1}),
        ("lcu", {"n": 4}),
        ("matrix-protocols", {"t_bits": 9, "n": 3}),
        ("qpe-bound", {"t": 9, "epsilon": 0.1}),
        ("qaoa-maxcut", {"edges": [[0, 11]], "p": 1, "restarts": 1}),
        ("colorings", {"edges": [[0, 25]], "vertices": 26, "colors": 1}),
        ("gibbs", {"T": 1, "n": 12}),
        # sizes that are not qubit counts, at each cap
        ("qpe-bound", {"draws": 1_000_000}),
        ("dqc1", {"shots": 1_000_000}),
        ("bell-teleport", {"runs": 1_000_000}),
        ("dequant-vs-quantum", {"shots": [1_000_000], "trials": 1_000_000,
                                "N": 2**20}),
        ("dequant-inner", {"N": 2**20}),
        ("kernels", {"M": 512}),
        ("mps-norm-bench", {"N_values": [16], "D": 32}),
        ("dequant-inner", {"epsilon": 0.0144, "delta": 0.05}),
        ("dequant-vs-quantum", {"epsilons": [0.0128]}),
        ("qpe-bound", {"grid": 1000}),
        ("barren-sweep", {"ensemble": 10_000}),
        ("anomaly", {"N": 64, "M": 1000, "steps": 10_000}),
        ("qaoa-maxcut", {"p": 16, "restarts": 100}),
        ("colorings", {"colors": 26}),
        ("colorings", {"vertices": 26, "colors": 4}),  # 4^26 = 2^52
        ("landau-zener", {"eta_grid": [0.01, 99.99]}),
        # eps^2 overflows a float above about 1.3e154
        ("dequant-inner", {"epsilon": 1e200}),
        ("dequant-vs-quantum", {"epsilons": [1e200]}),
        # T at its floor and alpha just under its bound
        ("gibbs", {"T": 1e-300}),
        ("anomaly", {"alpha": 1.99}),
    ])
    def test_boundary_values_pass(self, name, params, tmp_path):
        path, _ = write_cfg(tmp_path, experiment=name, params=params)
        assert cli.main(["validate", "--config", str(path)]) == 0

    @staticmethod
    def _no_body(rng, **params):
        raise AssertionError("experiment body ran")

    @pytest.mark.parametrize("name,params,message", BAD + [
        ("entropy", [], "params must be a JSON object"),
        ("nope", {}, "unknown experiment 'nope'"),
    ] + OUT_OF_RANGE)
    def test_run_config_raises_before_the_body(self, name, params, message,
                                               monkeypatch):
        monkeypatch.setitem(cli.EXPERIMENTS, name, self._no_body)
        with pytest.raises(BadParameter, match=re.escape(message)):
            cli.run_config({"experiment": name, "seed": 1, "params": params})

    # run_config is what perfbench calls: it rejects every config that
    # validate rejects, not only its params
    @pytest.mark.parametrize("cfg,message", [
        ({"experiment": "entropy", "seed": True}, "seed must be an integer"),
        ({"experiment": "entropy", "seed": "7"}, "seed must be an integer"),
        ({"experiment": "entropy", "seed": 7.0}, "seed must be an integer"),
        ({"experiment": "entropy"}, "seed is required"),
        ({"experiment": "entropy", "seed": 1, "format": "xml"},
         "unknown format 'xml'"),
        ([], "config must be a JSON object"),
    ])
    def test_run_config_rejects_a_bad_config(self, cfg, message,
                                             monkeypatch):
        monkeypatch.setitem(cli.EXPERIMENTS, "entropy", self._no_body)
        with pytest.raises(BadParameter, match=re.escape(message)):
            cli.run_config(cfg)

    def test_run_config_passes_unknown_keys(self):
        out = cli.run_config({"experiment": "entropy", "seed": 1, "x": 1})
        assert "shannon,1.75" in out

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_one_entry_overlap_runs(self, seed, tmp_path, capsys):
        # |<x|y>|^2 of two unit vectors of length 1 can round above 1
        path, _ = write_cfg(tmp_path, experiment="dequant-vs-quantum",
                            seed=seed, params={"N": 1})
        assert cli.main(["run", "--config", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()[-6:]
        assert all(float(r.split(",")[2]) <= 1e-15 for r in rows)

    def test_anomaly_without_output_site_runs(self, tmp_path, capsys):
        # S > N: no site carries an output leg, P maps to a scalar
        path, _ = write_cfg(tmp_path, experiment="anomaly",
                            params={"N": 3, "M": 2, "S": 4, "steps": 2})
        assert cli.main(["run", "--config", str(path)]) == 0
        assert "final_loss,mean_score,target" in capsys.readouterr().out


class TestRun:
    def test_stdout_csv(self, tmp_path, capsys):
        path, cfg = write_cfg(tmp_path)
        assert cli.main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        meta = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# seed=7") for l in meta)
        assert any(l.startswith("# config_hash=") for l in meta)
        header = lines[len(meta)]
        assert "," in header
        assert len(lines) > len(meta) + 1

    def test_out_file_and_byte_identical_rerun(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # reduced workloads for the slow experiments; determinism is what is
    # under test here, not statistics
    SMALL_PARAMS = {
        "barren-sweep": {"n_values": [2, 3], "ensemble": 20},
        "anomaly": {"N": 4, "M": 4, "steps": 8},
        "landau-zener": {"eta_grid": [0.1, 0.5]},
        "qaoa-maxcut": {"p": 1, "restarts": 1},
    }

    @pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
    def test_every_experiment_deterministic(self, name, tmp_path):
        # smoke every experiment; rerun must be byte-identical
        path, cfg = write_cfg(tmp_path, experiment=name, seed=11,
                              params=self.SMALL_PARAMS.get(name, {}))
        cfg_obj = dict(cfg)
        first = cli.run_config(dict(cfg_obj))
        second = cli.run_config(dict(cfg_obj))
        assert first == second
        assert first.encode() == second.encode()

    # stdout at seed 11 and default params, as written before the QAOA
    # descent step and the brickwork Haar blocks were batched, and before
    # the anomaly fit took its central differences from the shared helper
    PINNED = {
        "anomaly": [
            "# config_hash=f652c4b180947a56",
            "# experiment=anomaly",
            "# seed=11",
            "# version=0.1.0",
            "final_loss,mean_score,target",
            "0.13508175256096067,1.6437753027157183,1.6487212707001282",
        ],
        "qaoa-maxcut": [
            "# config_hash=6eff47b26b6600de",
            "# experiment=qaoa-maxcut",
            "# seed=11",
            "# version=0.1.0",
            "p,best_bits,ratio",
            "2,001,0.9999999999999998",
        ],
        "barren-sweep": [
            "# config_hash=82d4c6b330c01b86",
            "# experiment=barren-sweep",
            "# seed=11",
            "# version=0.1.0",
            "n,mean,var,stderr",
            "2,-0.010580088697297891,0.09147910066363095,0.021386806758330115",
            "3,0.00881067120820665,0.01904476290836301,0.00975826903409693",
            "4,-0.0022852027072784546,0.008526047329897276,"
            "0.006529183459628499",
            "5,0.0027309567756075843,0.0019746910996899627,"
            "0.0031422055149925845",
            "6,0.0007157300677816564,0.0003480132207371922,"
            "0.0013191156521268183",
        ],
        "bell-teleport": [
            "# config_hash=3b4ad40ddd6d20d2",
            "# experiment=bell-teleport",
            "# seed=11",
            "# version=0.1.0",
            "m1,m2,fidelity",
            *(
                "1,0,1.0 1,0,1.0 0,0,1.0 0,1,1.0 0,1,1.0000000000000004 "
                "1,1,1.0 1,1,1.0 1,1,1.0000000000000004 1,1,1.0 1,1,1.0 "
                "0,1,1.0 0,1,1.0 1,0,1.0 0,1,1.0000000000000004 "
                "1,1,1.0000000000000004 0,0,1.0 1,1,1.0 1,1,1.0 1,0,1.0 "
                "0,1,1.0000000000000004 1,0,1.0000000000000004 "
                "0,1,1.0000000000000004 0,1,0.9999999999999996 "
                "1,0,1.0000000000000004 0,1,1.0 0,0,1.0 1,0,1.0 "
                "1,0,1.0000000000000004 0,0,1.0 0,1,0.9999999999999998 "
                "0,0,1.0 0,0,1.0 0,1,1.0000000000000004 "
                "0,1,1.0000000000000004 0,0,0.9999999999999998 "
                "0,1,1.0000000000000004 1,0,1.0 0,1,1.0000000000000004 "
                "1,1,1.0000000000000004 1,0,1.0 0,0,1.0000000000000004 "
                "0,1,1.0 0,0,1.0 0,1,1.0000000000000004 0,0,1.0 1,0,1.0 "
                "1,1,1.0 0,0,1.0 1,1,1.0000000000000004 1,0,1.0 1,0,1.0 "
                "1,1,1.0000000000000004 1,1,0.9999999999999998 0,1,1.0 "
                "0,0,1.0 0,0,1.0 1,1,1.0000000000000004 0,1,1.0 "
                "1,1,1.0000000000000004 1,0,1.0000000000000004 0,1,1.0 "
                "1,0,1.0 1,1,1.0000000000000004 1,0,1.0 1,0,1.0 "
                "1,0,1.0000000000000004 1,1,1.0 1,0,0.9999999999999996 "
                "0,1,1.0 0,1,0.9999999999999998 0,1,1.0 "
                "1,0,1.0000000000000004 1,0,1.0000000000000004 1,0,1.0 "
                "0,1,1.0 1,1,1.0 1,0,1.0000000000000004 0,1,1.0 1,1,1.0 "
                "1,1,1.0000000000000004 0,1,1.0000000000000004 "
                "0,1,1.0000000000000009 0,0,1.0000000000000004 1,1,1.0 "
                "1,0,1.0000000000000004 0,1,1.0 0,0,1.0 0,0,1.0 1,1,1.0 "
                "1,1,1.0 1,0,1.0 0,0,0.9999999999999998 0,1,1.0 "
                "1,1,0.9999999999999998 0,0,1.0 1,0,1.0 1,1,1.0 1,0,1.0 "
                "1,1,1.0 0,1,1.0000000000000004"
            ).split(),
        ],
        "dequant-inner": [
            "# config_hash=700f3ed1facb9e53",
            "# experiment=dequant-inner",
            "# seed=11",
            "# version=0.1.0",
            "est_re,est_im,true_re,true_im,bound",
            "-14.33206626590957,-4.065272238288661,"
            "-14.384477265468158,-3.714773432160313,23.737560585926946",
        ],
        "dequant-vs-quantum": [
            "# config_hash=fe05b75604a1e8aa",
            "# experiment=dequant-vs-quantum",
            "# seed=11",
            "# version=0.1.0",
            "method,resources,error",
            "quantum-overlap,400,0.04565129989413763",
            "quantum-overlap,1600,0.017187500000000015",
            "quantum-overlap,6400,0.010422918855862362",
            "dequant-inner,1026,0.007050847770144067",
            "dequant-inner,4050,0.003951402108965737",
            "dequant-inner,16200,0.0016354687702332194",
        ],
        "dqc1": [
            "# config_hash=0d806d6e25fc2a63",
            "# experiment=dqc1",
            "# seed=11",
            "# version=0.1.0",
            "shots,est_re,est_im,true_re,true_im",
            "20000,-0.1946000000000001,"
            "0.011499999999999955,-0.18878992437612951,0.012544863911874322",
        ],
        "kernels": [
            "# config_hash=9865b5a0e3fd7eea",
            "# experiment=kernels",
            "# seed=11",
            "# version=0.1.0",
            "M,model_complexity,effective_dimension",
            "8,26.345232096651603,8",
        ],
        "mps-norm-bench": [
            "# config_hash=e727c9f6718e0cc6",
            "# experiment=mps-norm-bench",
            "# seed=11",
            "# version=0.1.0",
            "N,D,scheme,norm,ops",
            "4,4,naive,25.58160452781116,272",
            "4,4,parallel,25.581604527811162,1616",
            "4,4,sequential,25.58160452781116,592",
            "6,4,naive,201.87903919857052,1280",
            "6,4,parallel,201.87903919857052,6992",
            "6,4,sequential,201.87903919857052,1104",
            "8,4,naive,3482.3194290731276,5312",
            "8,4,parallel,3482.319429073127,12368",
            "8,4,sequential,3482.3194290731262,1616",
            "10,4,naive,10463.453160675408,21440",
            "10,4,parallel,10463.45316067541,21584",
            "10,4,sequential,10463.453160675412,2128",
        ],
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_stdout(self, name, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, experiment=name, seed=11, params={})
        assert cli.main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "\n".join(self.PINNED[name]) + "\n"

    @pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
    def test_cells_are_plain_values(self, name):
        # numpy scalars are written as numbers, never as "np.float64(...)"
        cfg = {"experiment": name, "seed": 11,
               "params": self.SMALL_PARAMS.get(name, {})}
        rows = json.loads(cli.run_config(dict(cfg, format="json")))["rows"]
        csv = cli.run_config(dict(cfg, format="csv"))
        cells = [c for r in rows for c in r]
        cells += [c for line in csv.splitlines()
                  if not line.startswith("#") for c in line.split(",")]
        assert not [c for c in cells if c.startswith("np.")]

    def test_seed_override_changes_hash(self, tmp_path):
        path, cfg = write_cfg(tmp_path)
        a = cli.run_config(dict(cfg))
        cfg2 = dict(cfg)
        cfg2["seed"] = 8
        b = cli.run_config(cfg2)
        ha = [l for l in a.splitlines() if l.startswith("# config_hash=")]
        hb = [l for l in b.splitlines() if l.startswith("# config_hash=")]
        assert ha != hb

    def test_json_format(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, format="json")
        assert cli.main(["run", "--config", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"metadata", "columns", "rows"}
        assert doc["metadata"]["seed"] == 7
        assert len(doc["rows"]) >= 1

    def test_cli_format_flag_overrides(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path)
        assert cli.main(["run", "--config", str(path),
                         "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)

    def test_run_invalid_config_exit_2(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, experiment="nope")
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_threads_flag_removed(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(path), "--threads", "2"])
        assert exc.value.code == 2

    def test_values_pass_unconverted(self):
        text = cli.run_config({"experiment": "gibbs", "seed": 1,
                               "params": {"T": 1, "n": 1}})
        assert text.splitlines()[-1].startswith("1,1,")

    @pytest.mark.parametrize("T", [5e-4, 1e-3])
    def test_gibbs_small_temperature_row(self, T):
        row = cli.run_config({"experiment": "gibbs", "seed": 1,
                              "params": {"T": T, "n": 2}}).splitlines()[-1]
        n, temp, err = row.split(",")
        assert float(temp) == T
        assert float(err) < 1e-12  # false for nan

    def test_hash_covers_the_config_as_given(self):
        cfg = {"experiment": "entropy", "seed": 3}
        text = cli.run_config(cfg)
        digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode())
        assert f"# config_hash={digest.hexdigest()[:16]}" in text
        assert cfg == {"experiment": "entropy", "seed": 3}

    def test_colorings_factor_too_large_exits_1(self, tmp_path, capsys):
        # K26 at 4 colors is within 2^53 but needs a 4^25-entry factor
        edges = [[i, j] for i in range(26) for j in range(i + 1, 26)]
        path, _ = write_cfg(tmp_path, experiment="colorings", params={
            "edges": edges, "vertices": 26, "colors": 4})
        assert cli.main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "4^25 entries, more than 67108864" in capsys.readouterr().err

    def test_colorings_dense_graph_runs(self, tmp_path, capsys):
        # K12 used to exit 1 with "too many operands"
        edges = [[i, j] for i in range(12) for j in range(i + 1, 12)]
        path, _ = write_cfg(tmp_path, experiment="colorings", params={
            "edges": edges, "vertices": 12, "colors": 3})
        assert cli.main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "12,3,0"

    def test_landau_zener_header_names_no_method(self):
        text = cli.run_config({"experiment": "landau-zener", "seed": 1,
                               "params": {"eta_grid": [1.0]}})
        assert "eta,probability,formula" in text.splitlines()

    def test_lcu_reads_the_top_block_only(self, monkeypatch):
        def whole(*args):
            raise AssertionError("lcu_block_encode called")

        monkeypatch.setattr(algos, "lcu_block_encode", whole)
        for n in (1, 2, 3):
            text = cli.run_config({"experiment": "lcu", "seed": n,
                                   "params": {"n": n}})
            assert float(text.splitlines()[-1].split(",")[3]) <= 1e-10

    def test_lcu_at_its_cap(self):
        # n = 4: 136 terms; the whole encoding would be 4096 x 4096
        row = cli.run_config({"experiment": "lcu", "seed": 7,
                              "params": {"n": 4}}).splitlines()[-1]
        n, terms, alpha, err = row.split(",")
        assert (n, terms) == ("4", "136")
        assert float(err) <= 1e-10

    def test_qpe_bound_at_its_cap(self):
        # 12 ancillas: every phase is estimated within 2^-t at >= 1 - eps
        text = cli.run_config({"experiment": "qpe-bound", "seed": 7,
                               "params": {"t": 9, "epsilon": 0.1}})
        rows = [line.split(",") for line in text.splitlines()
                if line[0].isdigit()]
        assert len(rows) == 10
        assert all(r[1] == "12" and float(r[2]) >= 0.9 for r in rows)

    def test_run_non_object_config_with_seed_exit_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert cli.main(["run", "--config", str(path), "--seed", "3"]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_seed_flag_matches_a_config_holding_that_seed(self, tmp_path,
                                                          capsys):
        path, _ = write_cfg(tmp_path, experiment="grover", seed=42)
        assert cli.main(["run", "--config", str(path), "--seed", "43"]) == 0
        flagged = capsys.readouterr().out
        held, _ = write_cfg(tmp_path, "held.json", experiment="grover",
                            seed=43)
        assert cli.main(["run", "--config", str(held)]) == 0
        assert "# seed=43" in flagged.splitlines()
        assert flagged == capsys.readouterr().out

    def test_run_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2")
        assert cli.main(["run", "--config", str(path)]) == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        res = subprocess.run(
            [sys.executable, "-m", "qdesk.cli", "run",
             "--config", str(path)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert "# seed=7" in res.stdout

    def test_import_loads_no_scipy(self):
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, qdesk.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
