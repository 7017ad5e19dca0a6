"""The benchmark's per-layer spans reach the kernels the drivers call.

``perfbench/layers.instrument`` rebinds module attributes of the package to
timing wrappers. A driver that bound a kernel at import time (a default
argument, a module-level table) would keep calling the unwrapped kernel, and
the traced pass would report blank per-layer metrics without any error.
"""

from pathlib import Path

import numpy as np

from shsade_pids import baselines, nas_search, objectives, shsade
from shsade_pids.discrete_codec import Axis, DiscreteSpace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_instrumented_drivers_record_kernel_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer as tracing

    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        spec = objectives.make_benchmark("sphere", 3).to_objective_spec()
        termination = shsade.Termination(max_generations=3)
        shsade.run(shsade.ShsadeConfig(pop_size=6), spec, termination, np.random.default_rng(0))
        de_config = baselines.VanillaDeConfig(pop_size=6)
        baselines.vanilla_de_run(de_config, spec, termination, np.random.default_rng(0))
        space = DiscreteSpace(tuple(Axis(f"a{i}", (0, 1, 2)) for i in range(3)))
        config = nas_search.NasConfig(
            biobjective=nas_search.BiObjectiveConfig(cost_budget=10.0),
            shsade=shsade.ShsadeConfig(pop_size=6, max_generations=3, crossover_target="best"),
            budget=20,
        )
        nas_search.nas_evolve(space, objectives.TabularSurrogate(space, 0), config, np.random.default_rng(0))
    finally:
        tracer.unpatch()
    spans = tracer.totals()
    for name in (
        "shsade.build_trials",
        "shsade.commit_generation",
        "baselines.vanilla_de_run",
        "nas_search.nas_evolve",
    ):
        assert spans.get(name, {}).get("calls", 0) > 0, name
    # every generation of shsade.run and of the search asks and tells once
    assert spans["shsade.commit_generation"]["calls"] >= 4
    assert spans["shsade.build_trials"]["calls"] == spans["shsade.commit_generation"]["calls"]
    assert shsade.build_trials.__module__ == "shsade_pids.shsade"
    assert not hasattr(shsade.build_trials, "__wrapped__")
