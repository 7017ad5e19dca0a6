"""End-to-end tests of the experiment harness and its file contracts."""

import concurrent.futures
import csv
import dataclasses
import errno
import io
import json
import math
import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

from shsade_pids import baselines, cli, nas_search, objectives, shsade
from shsade_pids.discrete_codec import DiscreteSpace
from shsade_pids.trace import SearchTrace


def write_config(path: Path, **overrides) -> Path:
    config = {
        "task": "benchmark",
        "algorithm": "shsade",
        "objective": {"name": "sphere", "dimension": 4},
        "algorithm_config": {"pop_size": 8, "max_evaluations": 400},
        "seeds": [1, 2, 3],
        "output": "out",
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def space_doc(num_axes=4, values=(0, 1, 2, 3)):
    return {"axes": [{"name": f"a{i}", "values": list(values)} for i in range(num_axes)]}


def nas_config(output="out_nas", algorithm="shsade"):
    return {
        "task": "nas",
        "algorithm": algorithm,
        "space": space_doc(),
        "surrogate_seed": 12,
        "budget": 60,
        "biobjective": {"omega": 1.0},
        "algorithm_config": {"pop_size": 10, "max_generations": 40}
        if algorithm == "shsade"
        else {"population_size": 10, "tournament_size": 3},
        "seeds": [5, 6],
        "output": output,
    }


# space documents whose axes or values are not JSON arrays, or whose axis
# name is not a JSON string, each with a fragment of its error message
BAD_SPACE_SHAPES = [
    ({"axes": 5}, "list"),
    ({"axes": [{"name": "k", "values": 5}]}, "list"),
    ({"axes": [{"name": "k", "values": "abc"}]}, "list"),
    ({"axes": [{"name": "k", "values": {"x": 1}}]}, "list"),
    ({"axes": [{"name": None, "values": [0, 1]}]}, "must be a string"),
    ({"axes": [{"name": 7, "values": [0, 1]}]}, "must be a string"),
    ({"axes": [{"name": {"a": 1}, "values": [0, 1]}]}, "must be a string"),
    ({"axes": [{"name": "block0_width", "values": [16, 10**400]}]}, "not finite as a float"),
    ({"axes": [{"name": "k", "values": [0, math.nan]}]}, "not finite as a float"),
    ({"axes": [{"name": "k", "values": [-math.inf, True, "x", None, math.inf]}]}, "not finite as a float"),
]


# a space whose axes hold booleans beside numbers equal to them under ==;
# each value is its own choice
BOOL_AND_NUMBER_SPACE = {"axes": [{"name": "k", "values": [0, False]}, {"name": "j", "values": [1, True, 1.5]}]}


def algorithm_doc(tmp_path: Path, task: str, algorithm: str) -> dict:
    if task == "benchmark":
        return json.loads(write_config(tmp_path / "config.json", algorithm=algorithm).read_text())
    return nas_config(algorithm=algorithm)


def read_all_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestRunBenchmark:
    def test_writes_one_trace_per_seed_plus_summary(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = write_config(tmp_path / "config.json")
        assert cli.main(["run", str(cfg)]) == 0
        outdir = tmp_path / "out"
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["summary.json", "trace_seed1.csv", "trace_seed2.csv", "trace_seed3.csv"]
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["algorithm"] == "shsade"
        assert len(summary["per_seed"]) == 3
        assert "median_final_best" in summary and len(summary["iqr_final_best"]) == 2

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = write_config(tmp_path / "config.json")
        assert cli.main(["run", str(cfg)]) == 0
        first = read_all_bytes(tmp_path / "out")
        assert cli.main(["run", str(cfg)]) == 0
        assert read_all_bytes(tmp_path / "out") == first

    def test_threads_do_not_change_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = write_config(tmp_path / "config.json")
        assert cli.main(["run", str(cfg)]) == 0
        serial = read_all_bytes(tmp_path / "out")
        cfg2 = write_config(tmp_path / "config.json")
        assert cli.main(["run", str(cfg2), "--threads", "3"]) == 0
        assert read_all_bytes(tmp_path / "out") == serial

    def test_vanilla_de_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = write_config(
            tmp_path / "config.json",
            algorithm="vanilla_de",
            algorithm_config={"pop_size": 8, "max_evaluations": 240, "f": 0.6, "cr": 0.8},
            output="out_de",
        )
        assert cli.main(["run", str(cfg)]) == 0
        trace = (tmp_path / "out_de" / "trace_seed1.csv").read_text()
        assert "# algorithm: vanilla_de" in trace


def use_cpus(monkeypatch, count: int) -> None:
    """Make ``run`` see ``count`` usable CPUs: with one it runs the seeds in
    this process, with more it forks one worker per CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def log_seeds(monkeypatch, log: Path, before=lambda seed: None) -> None:
    """Wrap the runner that ``run`` builds: each seed appends ``start <seed>
    <pid>`` to ``log``, calls ``before(seed)``, runs, and appends ``end
    <seed> <pid>``. The log is a file, so forked workers write to it too."""
    real_build_runner = cli._build_runner

    def note(event, seed):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{event} {seed} {os.getpid()}\n")

    def build_runner(config):
        runner = real_build_runner(config)

        def run_seed(seed):
            note("start", seed)
            before(seed)
            result = runner(seed)
            note("end", seed)
            return result

        return run_seed

    monkeypatch.setattr(cli, "_build_runner", build_runner)


def record_writes(monkeypatch) -> list[str]:
    """The names of the trace files that ``run`` writes, in the order written."""
    real_write_csv = SearchTrace.write_csv
    writes = []

    def write_csv(trace, path):
        writes.append(Path(path).name)
        return real_write_csv(trace, path)

    monkeypatch.setattr(SearchTrace, "write_csv", write_csv)
    return writes


def fail_write_halfway(monkeypatch, name: str) -> None:
    """Make every ``Path.write_text`` to a file called ``name`` write the
    first ten characters and then raise ``OSError``, as a full disk does."""
    real_write_text = Path.write_text

    def write_text(path, data, *args, **kwargs):
        if path.name != name:
            return real_write_text(path, data, *args, **kwargs)
        real_write_text(path, data[:10], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(Path, "write_text", write_text)


def wait_for(path: Path, timeout: float = 30.0) -> None:
    """Block until ``path`` exists, so that a seed can act after the seeds
    before it have been written, whichever process runs it."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} was never written"
        time.sleep(0.01)


def logged(log: Path, event: str) -> list[tuple[int, int]]:
    """(seed, pid) of each ``event`` line in the log, in the order written."""
    if not log.exists():
        return []
    lines = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    return [(int(seed), int(pid)) for kind, seed, pid in lines if kind == event]


forking = pytest.mark.skipif(not hasattr(os, "fork"), reason="seed workers need fork")


@forking
class TestRunWorkers:
    def test_summary_and_traces_follow_seed_order_when_the_first_seed_finishes_last(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        use_cpus(monkeypatch, 2)
        log = tmp_path / "seeds.log"
        log_seeds(monkeypatch, log, before=lambda seed: time.sleep(0.5) if seed == 3 else None)
        writes = record_writes(monkeypatch)
        cfg = write_config(tmp_path / "config.json", seeds=[3, 1, 2])
        assert cli.main(["run", str(cfg)]) == 0
        assert [seed for seed, _ in logged(log, "end")] == [1, 2, 3]
        assert all(pid != os.getpid() for _, pid in logged(log, "end"))
        assert writes == ["trace_seed3.csv", "trace_seed1.csv", "trace_seed2.csv"]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [entry["seed"] for entry in summary["per_seed"]] == [3, 1, 2]
        for seed in (3, 1, 2):
            trace = SearchTrace.read_csv(tmp_path / "out" / f"trace_seed{seed}.csv")
            assert trace.metadata["seed"] == str(seed)

    def test_one_cpu_in_process_and_two_cpus_on_workers_write_the_same_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = write_config(tmp_path / "config.json")
        log = tmp_path / "seeds.log"
        log_seeds(monkeypatch, log)
        outputs, pids = [], []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            assert cli.main(["run", str(cfg)]) == 0
            outputs.append(read_all_bytes(tmp_path / "out"))
            pids.append({pid for _, pid in logged(log, "end")})
            log.unlink()
        assert outputs[0] == outputs[1]
        assert pids[0] == {os.getpid()}
        assert os.getpid() not in pids[1]

    def test_no_worker_outlives_a_successful_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        use_cpus(monkeypatch, 2)
        assert cli.main(["run", str(write_config(tmp_path / "config.json"))]) == 0
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_run_where_a_seed_raises(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        use_cpus(monkeypatch, 2)

        def fail(seed):
            if seed == 2:
                raise RuntimeError("simulated seed failure")

        log_seeds(monkeypatch, tmp_path / "seeds.log", before=fail)
        assert cli.main(["run", str(write_config(tmp_path / "config.json"))]) == 2
        assert multiprocessing.active_children() == []
        assert list((tmp_path / "out").glob("trace_*.csv")) == []
        assert "simulated seed failure" in capsys.readouterr().err

    def test_a_worker_that_dies_exits_2_and_removes_partial_outputs(self, tmp_path, monkeypatch, capsys):
        # seeds 1 and 2 are written before seed 3's worker dies
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        use_cpus(monkeypatch, 2)
        log = tmp_path / "seeds.log"

        def die(seed):
            if seed == 3:
                wait_for(tmp_path / "out" / "trace_seed2.csv")
                os._exit(1)

        log_seeds(monkeypatch, log, before=die)
        writes = record_writes(monkeypatch)
        cfg = write_config(tmp_path / "config.json")
        codes = []
        # on a helper thread, so that a hang fails the test instead of the suite
        caller = threading.Thread(target=lambda: codes.append(cli.main(["run", str(cfg)])), daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive(), "run did not return after its worker died"
        assert codes == [2]
        assert writes == ["trace_seed1.csv", "trace_seed2.csv"]
        assert list((tmp_path / "out").iterdir()) == []
        assert multiprocessing.active_children() == []
        assert "runtime error" in capsys.readouterr().err

    def test_seeds_queued_behind_a_failure_never_start(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        use_cpus(monkeypatch, 2)
        log = tmp_path / "seeds.log"

        def fail_first(seed):
            if seed == 0:
                raise RuntimeError("simulated seed failure")
            time.sleep(0.3)

        log_seeds(monkeypatch, log, before=fail_first)
        cfg = write_config(tmp_path / "config.json", seeds=[0, 1, 2, 3, 4, 5])
        assert cli.main(["run", str(cfg)]) == 2
        assert sorted(seed for seed, _ in logged(log, "start")) == [0, 1]
        assert multiprocessing.active_children() == []

    def test_no_seed_starts_when_a_failure_and_a_success_finish_together(self, tmp_path, monkeypatch):
        # waiting is slowed down, so that the failure of seed 0 and the
        # results of seeds 1-3 all come back from the same wait, with the
        # failure last
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        use_cpus(monkeypatch, 4)
        log = tmp_path / "seeds.log"
        real_wait = concurrent.futures.wait

        def slow_wait(*args, **kwargs):
            time.sleep(1.0)
            done, not_done = real_wait(*args, **kwargs)
            return sorted(done, key=lambda future: future.exception() is not None), not_done

        def fail_first(seed):
            if seed == 0:
                raise RuntimeError("simulated seed failure")

        monkeypatch.setattr(concurrent.futures, "wait", slow_wait)
        log_seeds(monkeypatch, log, before=fail_first)
        cfg = write_config(tmp_path / "config.json", seeds=[0, 1, 2, 3, 4, 5])
        assert cli.main(["run", str(cfg)]) == 2
        assert sorted(seed for seed, _ in logged(log, "start")) == [0, 1, 2, 3]
        assert multiprocessing.active_children() == []


class TestRunValidation:
    def test_malformed_json_exits_1_without_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", str(bad)]) == 1
        assert not (tmp_path / "out").exists()
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seeds": []},
            {"seeds": [1, 1]},
            {"seeds": [1.5]},
            {"task": "training"},
            {"algorithm": "regularized_ea"},  # not a benchmark algorithm
            {"objective": {"name": "mystery", "dimension": 3}},
            {"objective": {"name": "sphere"}},
            {"output": ""},
            # integers are JSON integers, never rounded, and seeds are >= 0
            {"objective": {"name": "sphere", "dimension": True}},
            {"objective": {"name": "sphere", "dimension": 10.5}},
            {"objective": {"name": "sphere", "dimension": "4"}},
            {"seeds": [0, -1]},
        ],
    )
    def test_invalid_configs_exit_1(self, tmp_path, monkeypatch, capsys, overrides):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = write_config(tmp_path / "config.json", **overrides)
        assert cli.main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "task, overrides, key",
        [
            ("benchmark", {"objective": {"name": "sphere", "dimension": True}}, "objective.dimension"),
            ("benchmark", {"objective": {"name": "sphere", "dimension": 10.5}}, "objective.dimension"),
            ("benchmark", {"objective": {"name": "sphere", "dimension": "4"}}, "objective.dimension"),
            ("benchmark", {"seeds": [0, -1]}, "seeds"),
            ("nas", {"seeds": [5, -6]}, "seeds"),
            ("nas", {"surrogate_seed": -1}, "surrogate_seed"),
        ],
    )
    def test_bad_integer_field_names_the_key_without_a_traceback(
        self, tmp_path, monkeypatch, capsys, task, overrides, key
    ):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = algorithm_doc(tmp_path, task, "shsade")
        doc.update(overrides)
        path = tmp_path / "bad_integer.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / doc["output"]).exists()

    @pytest.mark.parametrize(
        "task, algorithm, key",
        [
            ("benchmark", "shsade", "pop_szie"),
            ("benchmark", "vanilla_de", "memory_size"),  # an SHSADE-only key
            ("nas", "shsade", "max_evaluations"),  # read by benchmark runs only
            ("nas", "regularized_ea", "pop_size"),
        ],
    )
    def test_unknown_algorithm_config_key_exits_1(self, tmp_path, monkeypatch, capsys, task, algorithm, key):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = algorithm_doc(tmp_path, task, algorithm)
        doc["algorithm_config"][key] = 10
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / doc["output"]).exists()

    @pytest.mark.parametrize(
        "task, algorithm, key, value",
        [
            ("benchmark", "shsade", "max_evaluations", True),
            ("benchmark", "shsade", "max_evaluations", 0),
            ("benchmark", "shsade", "max_evaluations", -5),
            ("benchmark", "shsade", "max_evaluations", "5000"),
            ("benchmark", "shsade", "pop_size", 10.0),
            ("benchmark", "shsade", "memory_size", 0),
            ("benchmark", "shsade", "learning_period", "3"),
            ("benchmark", "shsade", "archive_capacity", 2.5),
            ("benchmark", "shsade", "target_fitness", True),
            ("benchmark", "shsade", "p_best_fraction", "0.1"),
            ("benchmark", "shsade", "use_sinusoidal", "no"),
            ("benchmark", "shsade", "use_sinusoidal", 0),
            ("nas", "shsade", "use_sinusoidal", "false"),
            ("benchmark", "vanilla_de", "max_generations", False),
            ("benchmark", "vanilla_de", "f", "0.5"),
            ("benchmark", "vanilla_de", "cr", True),
            ("nas", "shsade", "max_generations", 0),
            ("nas", "shsade", "sigma_trial_noise", "0.1"),
            ("nas", "shsade", "sigma_trial_noise", True),
            ("nas", "regularized_ea", "population_size", True),
            ("nas", "regularized_ea", "tournament_size", 2.5),
            # json reads the non-standard NaN and Infinity literals as floats
            ("benchmark", "shsade", "sigma_cr", math.nan),
            ("benchmark", "shsade", "target_fitness", -math.inf),
            ("benchmark", "vanilla_de", "f", math.nan),
            ("nas", "shsade", "sigma_init_noise", math.nan),
            ("nas", "shsade", "sigma_trial_noise", math.nan),
            ("nas", "shsade", "sigma_trial_noise", math.inf),
            pytest.param("nas", "shsade", "sigma_cr", 10**400, id="nas-shsade-sigma_cr-10**400"),
        ],
    )
    def test_bad_algorithm_config_value_exits_1(self, tmp_path, monkeypatch, capsys, task, algorithm, key, value):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = algorithm_doc(tmp_path, task, algorithm)
        doc["algorithm_config"][key] = value
        path = tmp_path / "bad_value.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1
        assert f"algorithm_config.{key}" in capsys.readouterr().err
        assert not (tmp_path / doc["output"]).exists()

    @pytest.mark.parametrize(
        "task, algorithm, key, value, message",
        [
            # range checks of the config classes
            ("benchmark", "shsade", "strategy_epsilon", 0, "strategy_epsilon must be positive and finite"),
            ("benchmark", "shsade", "sigma_cauchy_f", -0.5, "sigma_cauchy_f must be positive and finite"),
            ("benchmark", "shsade", "sigma_cauchy_f", 0.0, "sigma_cauchy_f must be positive and finite"),
            ("nas", "shsade", "sigma_cr", 0, "sigma_cr must be positive and finite"),
            ("nas", "shsade", "sigma_init_noise", -0.1, "sigma_init_noise must be non-negative and finite"),
            # config fields the CLI fills in from the rest of the config
            ("benchmark", "shsade", "crossover_target", "best", "benchmark/shsade: ['crossover_target']"),
            ("nas", "shsade", "crossover_target", "self", "nas/shsade: ['crossover_target']"),
            ("nas", "shsade", "budget", 60, "nas/shsade: ['budget']"),
            ("nas", "shsade", "biobjective", {"omega": 1.0}, "nas/shsade: ['biobjective']"),
            ("nas", "shsade", "shsade", {}, "nas/shsade: ['shsade']"),
            ("nas", "regularized_ea", "budget", 60, "nas/regularized_ea: ['budget']"),
            # variant options no longer part of the method
            ("benchmark", "shsade", "f_second_half", "gaussian", "benchmark/shsade: ['f_second_half']"),
            ("benchmark", "shsade", "sigma_gauss_f", 0.2, "benchmark/shsade: ['sigma_gauss_f']"),
            ("benchmark", "shsade", "memory_learning_rate", 0.5, "benchmark/shsade: ['memory_learning_rate']"),
            ("nas", "shsade", "crossover_trigonometric", False, "nas/shsade: ['crossover_trigonometric']"),
            ("nas", "shsade", "mutation_fraction", 0.5, "nas/shsade: ['mutation_fraction']"),
        ],
    )
    def test_rejected_algorithm_config_value_names_the_key(
        self, tmp_path, monkeypatch, capsys, task, algorithm, key, value, message
    ):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = algorithm_doc(tmp_path, task, algorithm)
        doc["algorithm_config"][key] = value
        path = tmp_path / "bad_value.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / doc["output"]).exists()

    def test_every_read_key_is_accepted(self, tmp_path, monkeypatch):
        # every field of the classes each (task, algorithm) builds, but those
        # the CLI fills in, set to a valid value other than its default
        values = {
            "pop_size": 9, "memory_size": 4, "max_generations": 7, "p_best_fraction": 0.2,
            "archive_capacity": 0, "learning_period": 5, "p_min": 0.1, "strategy_epsilon": 0.02,
            "freq_init": 0.3, "sigma_cauchy_f": 0.3, "sigma_cr": 0.05,
            "use_sinusoidal": False, "use_trigonometric": False,
            "max_evaluations": 90, "target_fitness": -1.0,
            "f": 0.6, "cr": 0.8,
            "sigma_init_noise": 0.02, "sigma_trial_noise": 0.1,
            "population_size": 8, "tournament_size": 2,
        }
        cli_set = {"budget", "biobjective", "shsade", "crossover_target"}
        pairs = {
            ("benchmark", "shsade"): (shsade.ShsadeConfig, shsade.Termination),
            ("benchmark", "vanilla_de"): (baselines.VanillaDeConfig, shsade.Termination),
            ("nas", "shsade"): (shsade.ShsadeConfig, nas_search.NasConfig),
            ("nas", "regularized_ea"): (baselines.RegularizedEaConfig,),
        }
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        built = []

        def spy(module, name, configs):
            real = getattr(module, name)

            def wrapper(*args):
                built.extend(configs(*args))
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        spy(shsade, "run", lambda config, spec, termination, rng: [config, termination])
        spy(baselines, "vanilla_de_run", lambda config, spec, termination, rng: [config, termination])
        spy(nas_search, "nas_evolve", lambda space, predictor, config, rng: [config.shsade, config])
        spy(baselines, "regularized_ea_run", lambda space, predictor, config, bio, rng: [config])
        for (task, algorithm), classes in pairs.items():
            keys = [f for c in classes for f in dataclasses.fields(c) if f.name not in cli_set]
            for f in keys:
                assert values[f.name] != f.default, f.name
            doc = algorithm_doc(tmp_path, task, algorithm)
            doc["algorithm_config"] = {f.name: values[f.name] for f in keys}
            doc["seeds"] = doc["seeds"][:1]
            path = tmp_path / "every_key.json"
            path.write_text(json.dumps(doc))
            built.clear()
            assert cli.main(["run", str(path)]) == 0, (task, algorithm)
            assert [type(config) for config in built] == list(classes)
            for config in built:
                for f in dataclasses.fields(config):
                    if f.name not in cli_set:
                        assert getattr(config, f.name) == values[f.name], (task, algorithm, f.name)

    def test_nas_budget_below_population_exits_1(self, tmp_path):
        doc = nas_config()
        doc["budget"] = 5
        path = tmp_path / "nas.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1

    @pytest.mark.parametrize(
        "algorithm, algorithm_config, pop_size",
        [
            ("shsade", {"pop_size": 50, "max_evaluations": 5}, 50),
            ("shsade", {"max_evaluations": 49}, 50),
            ("vanilla_de", {"pop_size": 50, "max_evaluations": 5}, 50),
            ("vanilla_de", {"max_evaluations": 49}, 50),
        ],
        ids=["shsade", "shsade-default-pop", "vanilla_de", "vanilla_de-default-pop"],
    )
    def test_benchmark_max_evaluations_below_population_exits_1(
        self, tmp_path, monkeypatch, capsys, algorithm, algorithm_config, pop_size
    ):
        # the initial population alone spends pop_size evaluations
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = write_config(tmp_path / "config.json", algorithm=algorithm,
                           algorithm_config=algorithm_config, seeds=[1])
        assert cli.main(["run", str(cfg)]) == 1
        assert "algorithm_config.max_evaluations" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        cfg = write_config(tmp_path / "config.json", algorithm=algorithm,
                           algorithm_config={**algorithm_config, "max_evaluations": pop_size}, seeds=[1])
        assert cli.main(["run", str(cfg)]) == 0

    @pytest.mark.parametrize(
        "path, message",
        [
            (("biobjective", "cost_budget"), "biobjective.cost_budget must be positive"),
            (("biobjective", "omega"), "biobjective.omega must be >= 0"),
            (("budget",), "budget must be a positive integer"),
            (("surrogate_seed",), "integer surrogate_seed"),
        ],
    )
    def test_json_boolean_in_numeric_nas_field_exits_1(self, tmp_path, monkeypatch, capsys, path, message):
        # true loads as a Python bool, which isinstance counts as the int 1
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = nas_config()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = True
        config = tmp_path / "nas.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["run", str(config)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / doc["output"]).exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("cost_budget", math.inf, "biobjective.cost_budget must be positive"),
            ("omega", math.inf, "biobjective.omega must be >= 0"),
            ("omega", math.nan, "biobjective.omega must be >= 0"),
            pytest.param("cost_budget", 10**400, "biobjective.cost_budget must be positive", id="cost_budget-10**400"),
        ],
    )
    def test_non_finite_biobjective_number_exits_1(self, tmp_path, monkeypatch, capsys, key, value, message):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = nas_config()
        doc["biobjective"][key] = value
        config = tmp_path / "nas.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["run", str(config)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / doc["output"]).exists()

    @pytest.mark.parametrize(
        "task, path, key",
        [
            ("benchmark", (), "budjet"),
            ("benchmark", (), "budget"),  # read by nas runs only
            ("benchmark", (), "space"),
            ("nas", (), "budjet"),
            ("nas", (), "objective"),  # read by benchmark runs only
            ("benchmark", ("objective",), "dimensoin"),
            ("nas", ("biobjective",), "omegaa"),
        ],
    )
    def test_unknown_config_key_exits_1(self, tmp_path, monkeypatch, capsys, task, path, key):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = algorithm_doc(tmp_path, task, "shsade")
        target = doc
        for part in path:
            target = target[part]
        target[key] = 3
        config = tmp_path / "typo.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        where = path[-1] if path else "config"
        assert err.startswith(f"config error: {where} has unknown keys: [{key!r}]")
        assert not (tmp_path / doc["output"]).exists()

    @pytest.mark.parametrize("task", ["benchmark", "nas"])
    def test_generation_cap_beyond_the_float_range_exits_1(self, tmp_path, monkeypatch, capsys, task):
        # the phase switch computes with the generation cap as a float; on a nas
        # run the cap follows the budget
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = algorithm_doc(tmp_path, task, "shsade")
        if task == "benchmark":
            doc["algorithm_config"]["max_generations"] = 10**400
        else:
            del doc["algorithm_config"]["max_generations"]
            doc["budget"] = 10**400
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err.startswith("config error: invalid algorithm_config: max_generations")
        assert not (tmp_path / doc["output"]).exists()

    @pytest.mark.parametrize("space, message", BAD_SPACE_SHAPES)
    def test_space_document_shape_exits_1(self, tmp_path, monkeypatch, capsys, space, message):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = nas_config()
        doc["space"] = space
        path = tmp_path / "nas.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid space document: ")
        assert message in err and "Traceback" not in err
        assert not (tmp_path / doc["output"]).exists()

    def test_array_axis_value_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = nas_config()
        doc["space"] = {"axes": [{"name": "k", "values": [[1, 2], [3, 4]]}]}
        path = tmp_path / "nas.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid space document: axis 'k' has an unhashable value")
        assert "Traceback" not in err
        assert not (tmp_path / doc["output"]).exists()

    def test_use_trigonometric_reaches_the_shsade_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        seen = []
        run, nas_evolve = shsade.run, nas_search.nas_evolve

        def spy_run(config, *args):
            seen.append(config)
            return run(config, *args)

        def spy_nas_evolve(space, predictor, config, rng):
            seen.append(config.shsade)
            return nas_evolve(space, predictor, config, rng)

        monkeypatch.setattr(shsade, "run", spy_run)
        monkeypatch.setattr(nas_search, "nas_evolve", spy_nas_evolve)
        cfg = write_config(tmp_path / "bench.json", seeds=[1],
                           algorithm_config={"pop_size": 8, "max_evaluations": 80, "use_trigonometric": False})
        assert cli.main(["run", str(cfg)]) == 0
        doc = nas_config()
        doc["algorithm_config"]["use_trigonometric"] = False
        doc["seeds"] = [5]
        path = tmp_path / "nas.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 0
        assert [config.use_trigonometric for config in seen] == [False, False]

    def test_json_boolean_seed_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = write_config(tmp_path / "config.json", seeds=[2, True])
        assert cli.main(["run", str(cfg)]) == 1
        assert "seeds must be integers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_space_file_exits_1(self, tmp_path):
        doc = nas_config()
        doc["space"] = "nowhere/space.json"
        path = tmp_path / "nas.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1

    def test_runtime_failure_exits_2_and_removes_partial_outputs(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = write_config(tmp_path / "config.json")

        # the second seed fails; a seed value, not a call count, picks it,
        # because seeds may run in forked workers that share no counter
        def fail(seed):
            if seed == 2:
                raise RuntimeError("simulated evaluator failure")

        log_seeds(monkeypatch, tmp_path / "seeds.log", before=fail)
        assert cli.main(["run", str(cfg)]) == 2
        outdir = tmp_path / "out"
        leftovers = list(outdir.iterdir()) if outdir.exists() else []
        assert leftovers == []
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["trace_seed2.csv", "summary.json"])
    def test_a_write_failing_halfway_exits_2_and_removes_every_output(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        fail_write_halfway(monkeypatch, name)
        assert cli.main(["run", str(write_config(tmp_path / "config.json"))]) == 2
        assert list((tmp_path / "out").iterdir()) == []
        assert "No space left on device" in capsys.readouterr().err

    def test_late_failure_removes_traces_written_by_earlier_seeds(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        outdir = tmp_path / "out"

        def fail_last(seed):
            if seed == 3:
                wait_for(outdir / "trace_seed2.csv")
                raise RuntimeError("simulated late failure")

        log_seeds(monkeypatch, tmp_path / "seeds.log", before=fail_last)
        writes = record_writes(monkeypatch)
        assert cli.main(["run", str(write_config(tmp_path / "config.json"))]) == 2
        assert writes == ["trace_seed1.csv", "trace_seed2.csv"]
        assert list(outdir.iterdir()) == []
        assert "simulated late failure" in capsys.readouterr().err


class TestRunNas:
    def test_trace_files_and_embedded_result_documents(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        path = tmp_path / "nas.json"
        path.write_text(json.dumps(nas_config()))
        assert cli.main(["run", str(path)]) == 0
        outdir = tmp_path / "out_nas"
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["summary.json", "trace_seed5.csv", "trace_seed6.csv"]
        summary = json.loads((outdir / "summary.json").read_text())
        for entry in summary["per_seed"]:
            result = entry["result"]
            assert set(result) == {"best_genotype", "best_score", "evaluations", "trace"}
            assert set(result["best_genotype"]) == {"a0", "a1", "a2", "a3"}
            assert result["evaluations"] <= 60

    def test_regularized_ea_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        path = tmp_path / "nas.json"
        path.write_text(json.dumps(nas_config(output="out_ea", algorithm="regularized_ea")))
        assert cli.main(["run", str(path)]) == 0
        trace = (tmp_path / "out_ea" / "trace_seed5.csv").read_text()
        assert "# algorithm: regularized_ea" in trace

    @pytest.mark.parametrize("algorithm", ["shsade", "regularized_ea"])
    def test_a_bool_beside_an_equal_number_is_its_own_value(self, tmp_path, monkeypatch, algorithm):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        doc = nas_config(algorithm=algorithm)
        doc["space"] = BOOL_AND_NUMBER_SPACE
        path = tmp_path / "nas.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 0
        summary = json.loads((tmp_path / doc["output"] / "summary.json").read_text())
        for entry in summary["per_seed"]:
            # the six genotypes are all there is to score
            assert entry["evaluations"] == 6
            best = entry["result"]["best_genotype"]
            assert (type(best["k"]), best["k"]) in [(int, 0), (bool, False)]
            assert (type(best["j"]), best["j"]) in [(int, 1), (bool, True), (float, 1.5)]

    def test_space_loaded_from_file_relative_to_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        (tmp_path / "space.json").write_text(json.dumps(space_doc()))
        doc = nas_config(output="out_file_space")
        doc["space"] = "space.json"
        path = tmp_path / "nas.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 0


class TestCompare:
    @staticmethod
    def write_trace(path: Path, best_values, start_best=None):
        lines = ["# algorithm: demo", "generation,evaluations,best_fitness,mean_fitness"]
        evals = 50
        best = start_best if start_best is not None else best_values[0]
        for g, value in enumerate(best_values):
            best = min(best, value)
            lines.append(f"{g},{evals},{best!r},{best!r}")
            evals += 50
        path.write_text("\n".join(lines) + "\n")

    def test_self_comparison_is_a_tie(self, tmp_path, capsys):
        d = tmp_path / "runs"
        d.mkdir()
        self.write_trace(d / "trace_seed1.csv", [5.0, 4.0, 3.0])
        self.write_trace(d / "trace_seed2.csv", [6.0, 5.0, 4.0])
        assert cli.main(["compare", str(d), str(d)]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("verdict: tie")

    def test_dominating_directory_wins(self, tmp_path, capsys):
        a = tmp_path / "alpha"
        b = tmp_path / "beta"
        a.mkdir()
        b.mkdir()
        self.write_trace(a / "trace_seed1.csv", [1.0, 1.0, 1.0])
        self.write_trace(b / "trace_seed1.csv", [2.0, 2.0, 2.0])
        assert cli.main(["compare", str(a), str(b), "--step", "50"]) == 0
        out = capsys.readouterr().out
        assert "evaluations,median_alpha,median_beta" in out
        assert out.strip().endswith("verdict: alpha")

    def test_directory_name_with_a_comma_is_one_field(self, tmp_path, capsys):
        a = tmp_path / "runs,a"
        b = tmp_path / "beta"
        a.mkdir()
        b.mkdir()
        self.write_trace(a / "trace_seed1.csv", [1.0, 1.0])
        self.write_trace(b / "trace_seed1.csv", [2.0, 2.0])
        assert cli.main(["compare", str(a), str(b), "--step", "50"]) == 0
        csv_text = capsys.readouterr().out.rsplit("verdict:", 1)[0]
        header, *rows = csv.reader(io.StringIO(csv_text))
        assert header == ["evaluations", "median_runs,a", "median_beta"]
        assert rows == [["50", "1.0", "2.0"], ["100", "1.0", "2.0"]]

    def test_output_file_option(self, tmp_path, capsys):
        a = tmp_path / "alpha"
        a.mkdir()
        self.write_trace(a / "trace_seed1.csv", [1.0])
        report = tmp_path / "report.csv"
        assert cli.main(["compare", str(a), str(a), "-o", str(report)]) == 0
        assert report.exists()
        assert report.read_text().startswith("evaluations,")

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        a = tmp_path / "alpha"
        a.mkdir()
        self.write_trace(a / "trace_seed1.csv", [1.0])
        report = tmp_path / "missing" / "report.csv"
        assert cli.main(["compare", str(a), str(a), "-o", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("compare error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not report.parent.exists()

    def test_schema_mismatch_exits_1(self, tmp_path, capsys):
        a = tmp_path / "alpha"
        b = tmp_path / "beta"
        a.mkdir()
        b.mkdir()
        self.write_trace(a / "trace_seed1.csv", [1.0])
        (b / "trace_seed1.csv").write_text("time,value\n1,2\n")
        assert cli.main(["compare", str(a), str(b)]) == 1
        assert "compare error" in capsys.readouterr().err

    def test_header_only_trace_exits_1(self, tmp_path, capsys):
        a = tmp_path / "alpha"
        b = tmp_path / "beta"
        a.mkdir()
        b.mkdir()
        self.write_trace(a / "trace_seed1.csv", [1.0])
        (b / "trace_seed1.csv").write_text("# algorithm: demo\ngeneration,evaluations,best_fitness,mean_fitness\n")
        assert cli.main(["compare", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("compare error: ") and "no trace rows" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_empty_directory_exits_1(self, tmp_path):
        a = tmp_path / "alpha"
        b = tmp_path / "beta"
        a.mkdir()
        b.mkdir()
        self.write_trace(a / "trace_seed1.csv", [1.0])
        assert cli.main(["compare", str(a), str(b)]) == 1


class TestOracle:
    def test_ranking_csv_on_stdout(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space_doc(num_axes=2, values=[0, 1, 2])))
        assert cli.main(["oracle", str(space_path), "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,score,accuracy,cost,a0,a1"
        assert len(lines) == 1 + 9
        scores = [float(line.split(",")[1]) for line in lines[1:]]
        assert scores == sorted(scores)

    def test_output_file(self, tmp_path):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space_doc(num_axes=2, values=[0, 1])))
        out = tmp_path / "ranking.csv"
        assert cli.main(["oracle", str(space_path), "--seed", "3", "-o", str(out)]) == 0
        assert out.read_text().startswith("rank,")

    @pytest.mark.parametrize("cost_budget", ["0", "-1"])
    def test_nonpositive_cost_budget_exits_1(self, tmp_path, capsys, cost_budget):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space_doc(num_axes=2, values=[0, 1])))
        argv = ["oracle", str(space_path), "--seed", "3", "--cost-budget", cost_budget]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "cost_budget must be positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--omega", "inf", "biobjective.omega must be >= 0"),
            ("--omega", "nan", "biobjective.omega must be >= 0"),
            ("--cost-budget", "inf", "biobjective.cost_budget must be positive"),
            ("--cost-budget", "nan", "biobjective.cost_budget must be positive"),
        ],
    )
    def test_non_finite_option_exits_1(self, tmp_path, capsys, option, value, message):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space_doc(num_axes=2, values=[0, 1])))
        assert cli.main(["oracle", str(space_path), "--seed", "3", option, value]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space_doc(num_axes=2, values=[0, 1])))
        out = tmp_path / "missing" / "ranking.csv"
        assert cli.main(["oracle", str(space_path), "--seed", "3", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("oracle error: ")
        assert "Traceback" not in captured.err
        assert not out.parent.exists()

    def test_failed_write_removes_the_output_file(self, tmp_path, capsys, monkeypatch):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space_doc(num_axes=3, values=[0, 1, 2])))
        out = tmp_path / "ranking.csv"
        choices_from_indices = DiscreteSpace.choices_from_indices
        calls = []

        def fail_on_second_chunk(space, indices):
            calls.append(len(indices))
            if len(calls) == 2:
                raise OSError("No space left on device")
            return choices_from_indices(space, indices)

        monkeypatch.setattr(nas_search, "ENUMERATION_CHUNK", 5)
        monkeypatch.setattr(DiscreteSpace, "choices_from_indices", fail_on_second_chunk)
        assert cli.main(["oracle", str(space_path), "--seed", "3", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "oracle error: No space left on device\n"
        assert calls == [5, 5]
        assert not out.exists()

    def test_columns_match_the_one_genotype_predictions(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space_doc(num_axes=3, values=[0, 1, 2])))
        assert cli.main(["oracle", str(space_path), "--seed", "3", "--cost-budget", "5.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        space = DiscreteSpace.from_json_dict(json.loads(space_path.read_text()))
        surrogate = objectives.TabularSurrogate(space, 3)
        bio = nas_search.BiObjectiveConfig(cost_budget=5.5)
        _, ranking = nas_search.brute_force_optimum(space, surrogate, bio)
        assert len(lines) == 1 + len(ranking)
        for rank, (line, (genotype, value)) in enumerate(zip(lines[1:], ranking), start=1):
            expected = [str(rank), repr(value), repr(surrogate.predict_accuracy(genotype)),
                        repr(surrogate.predict_cost(genotype))] + [str(c) for c in genotype.choices]
            assert line.split(",") == expected

    def test_rows_written_across_chunks_match_one_chunk(self, tmp_path, capsys, monkeypatch):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space_doc(num_axes=3, values=["x", True, 2.5])))
        assert cli.main(["oracle", str(space_path), "--seed", "3"]) == 0
        one_chunk = capsys.readouterr().out
        monkeypatch.setattr(nas_search, "ENUMERATION_CHUNK", 5)  # 27 rows: chunks of 5, 5, ..., 2
        assert cli.main(["oracle", str(space_path), "--seed", "3"]) == 0
        assert capsys.readouterr().out == one_chunk
        assert len(one_chunk.splitlines()) == 1 + 27

    def test_fields_with_commas_quotes_and_newlines_keep_their_text(self, tmp_path, capsys):
        doc = {"axes": [
            {"name": "a,b", "values": ["x,y", "plain"]},
            {"name": 'say "hi"', "values": ['q"', "two\nlines"]},
            {"name": "n", "values": [1, 2.5]},
            {"name": "a\rb", "values": ["c\rr", "crlf\r\nend"]},
        ]}
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(doc))
        assert cli.main(["oracle", str(space_path), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.split("\n", 1)[0] == 'rank,score,accuracy,cost,"a,b","say ""hi""",n,"a\rb"'
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["rank", "score", "accuracy", "cost", "a,b", 'say "hi"', "n", "a\rb"]
        assert all(len(row) == 4 + 4 for row in rows)
        space = DiscreteSpace.from_json_dict(doc)
        expected = {tuple(str(c) for c in g.choices) for g in space.iter_genotypes()}
        assert len(rows) == len(expected)
        assert {tuple(row[4:]) for row in rows} == expected

    def test_a_bool_beside_an_equal_number_is_its_own_value(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(BOOL_AND_NUMBER_SPACE))
        assert cli.main(["oracle", str(space_path), "--seed", "3"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header[4:] == ["k", "j"]
        assert sorted(tuple(row[4:]) for row in rows) == sorted(
            (k, j) for k in ("0", "False") for j in ("1", "True", "1.5")
        )

    def test_oversized_space_exits_1(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space_doc(num_axes=12, values=list(range(8)))))
        assert cli.main(["oracle", str(space_path), "--seed", "3"]) == 1

    def test_bad_space_document_exits_1(self, tmp_path):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"axes": "nope"}))
        assert cli.main(["oracle", str(space_path), "--seed", "3"]) == 1


    @pytest.mark.parametrize("space, message", BAD_SPACE_SHAPES)
    def test_space_document_shape_exits_1(self, tmp_path, capsys, space, message):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space))
        assert cli.main(["oracle", str(space_path), "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("oracle error: ") and message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_array_axis_value_exits_1(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"axes": [{"name": "k", "values": [[1, 2], [3, 4]]}]}))
        assert cli.main(["oracle", str(space_path), "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("oracle error: axis 'k' has an unhashable value")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert cli.config_hash(a) == cli.config_hash(b)

    def test_any_field_change_changes_hash(self):
        base = {"task": "benchmark", "seeds": [1, 2], "output": "out"}
        assert cli.config_hash(base) != cli.config_hash({**base, "seeds": [1, 3]})
        assert cli.config_hash(base) != cli.config_hash({**base, "output": "elsewhere"})

    def test_hash_recorded_in_trace_metadata(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg_path = write_config(tmp_path / "config.json")
        raw = json.loads(cfg_path.read_text())
        assert cli.main(["run", str(cfg_path)]) == 0
        text = (tmp_path / "out" / "trace_seed1.csv").read_text()
        assert f"# config_hash: {cli.config_hash(raw)}" in text
