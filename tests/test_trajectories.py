"""Pinned trajectory hashes of the four searches on their reference problems.

Each hash is the first 16 hex digits of the sha256 of a run's ``repr``:
``(best.x.tolist(), best.fitness, rows)`` for the continuous runs (rastrigin,
pop 50, ``max_generations`` 1000, D=10 with 50 000 evaluations and D=100
with 10 000) and ``(best.choices, rows)`` for the searches (``pids_space(7)``
with budget 2000, ``pids_space(12)`` with budget 300 and the
1024-configuration criteria 3/4 space with budget 500, surrogate seed 2024,
the mid-grid architecture's cost as the cost budget, omega 1, aging
evolution 25/5), where ``rows`` lists every trace row as a tuple. Seeds 0-2
here are the first three entries of the ten-seed lists in ``CHANGES.md``;
``pids_space(12)``, whose flat indices do not fit in int64, has only these
three. The CLI value hashes the sorted ``(name, bytes)`` pairs of the files
that ``shsade-pids run`` writes for SHSADE on rastrigin D=100, pop
50, 10 000 evaluations, seeds 0-3.

These values pin the random stream. A refactor must leave them unchanged. A
change that alters the stream on purpose re-pins the values here and the
lists in ``CHANGES.md``, and says why there.
"""

import hashlib
import json

import numpy as np
import pytest

from shsade_pids import baselines, cli, nas_search, objectives, shsade
from shsade_pids.discrete_codec import Axis, DiscreteSpace

SEEDS = range(3)

PINNED = {
    ("shsade", 10): "58481454570427fa f0fc8d0e815d0d25 b602a483ec3c336d",
    ("vanilla_de", 10): "7fafcd8c6c37008e 90a6397bd77fce50 0cb5aa405c936642",
    ("shsade", 100): "63e5209771632187 91a6c106e5aa46bb aa3e41dda2b3bc02",
    ("vanilla_de", 100): "244a2f4697879f6d 75e4c3f8f72af9b6 b843926576bec0e4",
    ("nas_evolve", "pids7"): "ada370a0bcf2b8ba 64c1e6e1578eb4be 3fbe5093051e1827",
    ("regularized_ea", "pids7"): "7535d9d689933ce1 e3f1b2188e9ce80e ab29d8b25039c312",
    ("nas_evolve", "acceptance"): "24ce324eb2c20b0e 744c6b742af0a5fc 893db4a5c3409cf5",
    ("regularized_ea", "acceptance"): "5380df19be9c8822 b3b8bb2f0bd07c17 5464dab8e81eec7b",
    ("nas_evolve", "pids12"): "190f389a32825937 caf9b8668a8d0c05 baf21ea3e97fead2",
    ("regularized_ea", "pids12"): "37ff085513e05432 5e83a559e0945618 4eb6701a54903120",
}

PINNED_CLI = "100add8f567b1b51"
CLI_CONFIG = {
    "task": "benchmark",
    "algorithm": "shsade",
    "objective": {"name": "rastrigin", "dimension": 100},
    "algorithm_config": {"pop_size": 50, "max_evaluations": 10_000},
    "seeds": [0, 1, 2, 3],
    "output": "out",
}

EVALUATIONS = {10: 50_000, 100: 10_000}
SPACES = {
    "pids7": (nas_search.pids_space(7), 2000),
    # 120**12 configurations, more than an int64 flat index can hold
    "pids12": (nas_search.pids_space(12), 300),
    "acceptance": (DiscreteSpace(tuple(Axis(f"a{i}", (0, 1, 2, 3)) for i in range(5))), 500),
}


def _hash(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _rows(trace):
    return [row.as_tuple() for row in trace.rows]


@pytest.mark.parametrize("algorithm", ["shsade", "vanilla_de"])
@pytest.mark.parametrize("dimension", [10, 100])
def test_continuous_trajectories_are_pinned(algorithm, dimension):
    spec = objectives.make_benchmark("rastrigin", dimension).to_objective_spec()
    termination = shsade.Termination(max_evaluations=EVALUATIONS[dimension])
    if algorithm == "shsade":
        config = shsade.ShsadeConfig(pop_size=50, max_generations=1000)
        run = shsade.run
    else:
        config = baselines.VanillaDeConfig(pop_size=50, max_generations=1000)
        run = baselines.vanilla_de_run
    hashes = []
    for seed in SEEDS:
        best, trace = run(config, spec, termination, np.random.default_rng(seed))
        hashes.append(_hash((best.x.tolist(), best.fitness, _rows(trace))))
    assert " ".join(hashes) == PINNED[(algorithm, dimension)]


@pytest.mark.parametrize("algorithm", ["nas_evolve", "regularized_ea"])
@pytest.mark.parametrize("space_name", ["pids7", "pids12", "acceptance"])
def test_search_trajectories_are_pinned(algorithm, space_name):
    space, budget = SPACES[space_name]
    surrogate = objectives.TabularSurrogate(space, 2024)
    mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
    biobjective = nas_search.BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid), omega=1.0)
    hashes = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        if algorithm == "nas_evolve":
            config = nas_search.NasConfig(biobjective=biobjective, budget=budget)
            best, trace = nas_search.nas_evolve(space, surrogate, config, rng)
        else:
            config = baselines.RegularizedEaConfig(population_size=25, tournament_size=5, budget=budget)
            best, trace = baselines.regularized_ea_run(space, surrogate, config, biobjective, rng)
        hashes.append(_hash((best.choices, _rows(trace))))
    assert " ".join(hashes) == PINNED[(algorithm, space_name)]


def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CLI_CONFIG))
    assert cli.main(["run", str(config_path)]) == 0
    files = [(path.name, path.read_bytes()) for path in sorted((tmp_path / "out").iterdir())]
    assert _hash(files) == PINNED_CLI
