"""The benchmark's four workloads: set-up, one op, and the checks on its outputs.

Every op is one seeded run of what users run: SHSADE on a continuous
objective, SHSADE-PIDS on a unit-cube encoding of an architecture space, the
baselines beside them, or the ``shsade-pids run`` command. Op seeds derive
from the workload seed, so the same seed gives the same inputs. An op's
``seconds`` covers only the calls into the package; checks run afterwards.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from shsade_pids import baselines, cli, nas_search, objectives, shsade
from shsade_pids.discrete_codec import Axis, DiscreteSpace
from tracer import SpecProxy, PredictorProxy, Tracer

SURROGATE_SEED = 2024


def derive_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def rows(trace) -> list[tuple]:
    return [row.as_tuple() for row in trace.rows]


@dataclass
class OpResult:
    seed: object
    seconds: float
    work: int  # objective evaluations, or distinct genotypes scored
    output: object  # compared exactly between a traced op and its untraced twin
    detail: dict = field(default_factory=dict)


class Workload:
    """One workload. ``check`` fails an op when an output is wrong, and
    ``workload_checks`` fail the run when a median over its ops is. A seed on
    which SHSADE loses to vanilla DE is kept in ``misses`` with its reason and
    reported, not failed: criterion 2 compares medians over seeds, and
    SHSADE loses on a few percent of seeds."""

    name = ""
    why = ""
    threads = 1  # threads an op runs on

    def __init__(self):
        self.misses: list[tuple[object, str]] = []

    def op(self, index: int, tracer: Tracer | None = None) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> str | None:
        """Reason the op's outputs are wrong, or None."""
        raise NotImplementedError

    def workload_checks(self) -> list[tuple[str, bool, str]]:
        """(name, passed, detail) over every op checked so far."""
        return []

    def reference_runs(self) -> dict[str, float]:
        """Extra untraced measurements made once in the traced pass."""
        return {"cli.threads1_reference.s": 0.0, "cli.thread_speedup": 0.0}


def _mid_grid_biobjective(space: DiscreteSpace, surrogate) -> nas_search.BiObjectiveConfig:
    mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
    return nas_search.BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid), omega=1.0)


def _surrogate(space: DiscreteSpace, tracer: Tracer | None):
    if tracer is None:
        return objectives.TabularSurrogate(space, SURROGATE_SEED)
    # the traced set-up builds it a few times so the first, cold build
    # does not stand alone in objectives.TabularSurrogate.init_ms
    build = tracer.wrap(objectives.TabularSurrogate, "objectives.TabularSurrogate.init")
    return [build(space, SURROGATE_SEED) for _ in range(5)][-1]


class ContRastrigin10(Workload):
    name = "cont_rastrigin10"
    why = (
        "SHSADE then vanilla DE on one seed, rastrigin D=10, pop 50, 50k evals (999 generations, "
        "sinusoidal and Cauchy F phases): shsade and de_core do most work"
    )
    EVALUATIONS = 50_000

    def __init__(self, seed: int, workdir, tracer: Tracer | None = None):
        super().__init__()
        self.seed = seed
        self.finals: list[tuple[float, float]] = []
        self.spec = objectives.make_benchmark("rastrigin", 10).to_objective_spec()
        self.shsade_cfg = shsade.ShsadeConfig(pop_size=50, max_generations=1000)
        self.de_cfg = baselines.VanillaDeConfig(f=0.5, cr=0.9, pop_size=50, max_generations=1000)
        # no target fitness: SHSADE often reaches exactly 0.0 early, and the op
        # is meant to cover both F phases
        self.termination = shsade.Termination(max_evaluations=self.EVALUATIONS)

    def op(self, index, tracer=None):
        seed = derive_seed(self.seed, index)
        spec = SpecProxy(self.spec, tracer) if tracer else self.spec
        start = time.perf_counter()
        best_s, trace_s = shsade.run(self.shsade_cfg, spec, self.termination, np.random.default_rng(seed))
        best_d, trace_d = baselines.vanilla_de_run(self.de_cfg, spec, self.termination, np.random.default_rng(seed))
        seconds = time.perf_counter() - start
        return OpResult(
            seed,
            seconds,
            trace_s.final_evaluations + trace_d.final_evaluations,
            (rows(trace_s), rows(trace_d)),
            {"traces": (trace_s, trace_d), "best": (best_s.fitness, best_d.fitness)},
        )

    def check(self, result):
        pop = self.shsade_cfg.pop_size
        generations = (self.EVALUATIONS - pop) // pop
        for label, trace, best in zip(("shsade", "vanilla_de"), result.detail["traces"], result.detail["best"]):
            trace.validate()
            spent = trace.final_evaluations - trace.rows[0].evaluations
            if trace.rows[-1].generation != generations or spent != generations * pop:
                return f"{label}: {trace.rows[-1].generation} generations, {spent} evaluations"
            if best != trace.final_best:
                return f"{label}: returned best {best!r} differs from trace best {trace.final_best!r}"
        shsade_best, de_best = result.detail["best"]
        self.finals.append((shsade_best, de_best))
        if not shsade_best <= de_best:
            self.misses.append((result.seed, f"SHSADE best {shsade_best:.6g} worse than vanilla DE {de_best:.6g}"))
        return None

    def workload_checks(self):
        adaptive = float(np.median([a for a, _ in self.finals]))
        fixed = float(np.median([f for _, f in self.finals]))
        n = len(self.finals)
        return [
            ("criterion_2 median SHSADE <= median vanilla DE", adaptive <= fixed,
             f"{adaptive:.6g} vs {fixed:.6g} over {n} ops; SHSADE lost on {len(self.misses)} seeds"),
        ]


class NasPids7(Workload):
    name = "nas_pids7"
    why = (
        "SHSADE-PIDS on pids_space(7), 28 axes, surrogate seed 2024, budget 2000: nearly every trial "
        "is new, so predict_* and decode do ~90% of the work"
    )
    BUDGET = 2000

    def __init__(self, seed, workdir, tracer=None):
        super().__init__()
        self.seed = seed
        self.space = nas_search.pids_space(7)
        self.surrogate = _surrogate(self.space, tracer)
        self.biobjective = _mid_grid_biobjective(self.space, self.surrogate)
        self.config = nas_search.NasConfig(biobjective=self.biobjective, budget=self.BUDGET)

    def op(self, index, tracer=None):
        seed = derive_seed(self.seed, index)
        predictor = PredictorProxy(self.surrogate, tracer) if tracer else self.surrogate
        start = time.perf_counter()
        best, trace = nas_search.nas_evolve(self.space, predictor, self.config, np.random.default_rng(seed))
        seconds = time.perf_counter() - start
        return OpResult(seed, seconds, trace.final_evaluations, (best.choices, rows(trace)),
                        {"best": best, "trace": trace})

    def check(self, result):
        trace = result.detail["trace"]
        trace.validate()
        if trace.final_evaluations != self.BUDGET:
            return f"{trace.final_evaluations} distinct genotypes scored, expected {self.BUDGET}"
        rescored = nas_search.score(result.detail["best"], self.surrogate, self.biobjective)
        if rescored != trace.final_best:
            return f"best rescored to {rescored!r}, reported {trace.final_best!r}"
        if not trace.final_best < trace.rows[0].best_fitness:
            return "best does not beat the initial population's best"
        return None


ACCEPTANCE_SPACE = DiscreteSpace(tuple(Axis(f"a{i}", (0, 1, 2, 3)) for i in range(5)))


class NasAcceptance(Workload):
    name = "nas_acceptance"
    why = (
        "SHSADE-PIDS then regularized EA on the 1024-config criteria 3/4 space, budget 500: ~95% of "
        "try_score calls hit the memo; REA spends most of the op in list work"
    )
    BUDGET = 500

    def __init__(self, seed, workdir, tracer=None):
        super().__init__()
        self.seed = seed
        self.ranks: list[int] = []
        self.traces: list[tuple] = []
        self.space = ACCEPTANCE_SPACE
        self.surrogate = _surrogate(self.space, tracer)
        self.biobjective = _mid_grid_biobjective(self.space, self.surrogate)
        oracle = nas_search.brute_force_optimum
        if tracer is not None:
            oracle = tracer.wrap(oracle, "nas_search.brute_force_optimum")
            tracer.count("oracle.genotypes", self.space.size)
        _, ranking = oracle(self.space, self.surrogate, self.biobjective)
        self.rank_of = {g.choices: rank for rank, (g, _) in enumerate(ranking)}
        self.top_cut = max(1, math.ceil(0.01 * self.space.size))
        self.nas_config = nas_search.NasConfig(biobjective=self.biobjective, budget=self.BUDGET)
        self.rea_config = baselines.RegularizedEaConfig(population_size=25, tournament_size=5, budget=self.BUDGET)

    def op(self, index, tracer=None):
        seed = derive_seed(self.seed, index)
        predictor = PredictorProxy(self.surrogate, tracer) if tracer else self.surrogate
        start = time.perf_counter()
        best, trace = nas_search.nas_evolve(self.space, predictor, self.nas_config, np.random.default_rng(seed))
        _, trace_rea = baselines.regularized_ea_run(
            self.space, predictor, self.rea_config, self.biobjective, np.random.default_rng(seed)
        )
        seconds = time.perf_counter() - start
        return OpResult(
            seed,
            seconds,
            trace.final_evaluations + trace_rea.final_evaluations,
            (best.choices, rows(trace), rows(trace_rea)),
            {"rank": self.rank_of[best.choices], "traces": (trace, trace_rea)},
        )

    def check(self, result):
        trace, trace_rea = result.detail["traces"]
        trace.validate()
        trace_rea.validate()
        if trace_rea.rows[0].evaluations > self.rea_config.population_size:
            return f"REA starts at {trace_rea.rows[0].evaluations} evaluations"
        if trace_rea.final_evaluations > self.BUDGET:
            return f"REA scored {trace_rea.final_evaluations} genotypes over a budget of {self.BUDGET}"
        rank = result.detail["rank"]
        self.ranks.append(rank)
        self.traces.append((trace, trace_rea))
        if rank >= self.top_cut:
            return f"SHSADE-PIDS best has oracle rank {rank + 1}, outside the top {self.top_cut}"
        return None

    def workload_checks(self):
        n = len(self.ranks)
        last_common = min(t.final_evaluations for pair in self.traces for t in pair)
        checkpoint = (last_common // 25) * 25
        nas = float(np.median([pair[0].best_at(checkpoint) for pair in self.traces]))
        rea = float(np.median([pair[1].best_at(checkpoint) for pair in self.traces]))
        hits = sum(rank < self.top_cut for rank in self.ranks)
        exact = sum(rank == 0 for rank in self.ranks)
        return [
            ("criterion_4 median SHSADE-PIDS <= median REA at the last common checkpoint",
             nas <= rea, f"at {checkpoint} evals: {nas:.6f} vs {rea:.6f} over {n} ops"),
            # criterion 3 asks for 18/20 seeds in the top 1% and 10/20 at the optimum
            ("criterion_3 oracle top-1% and exact hits", hits >= 0.9 * n and exact >= 0.5 * n,
             f"top-1%: {hits}/{n}, exact optimum: {exact}/{n}"),
        ]


class CliRastrigin100x2(Workload):
    name = "cli_rastrigin100_x2"
    why = (
        "shsade-pids run --threads 2 in-process, 4 seeds of rastrigin D=100, pop 50, 10k evals: the "
        "only path through cli and trace, with a D=100 working set"
    )
    SEEDS = 4
    REFERENCE_PAIRS = 3
    threads = 2

    def __init__(self, seed, workdir, tracer=None):
        super().__init__()
        self.seed = seed
        self.workdir = workdir / f"{self.name}-seed{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.seeds = [derive_seed(seed, k) for k in range(self.SEEDS)]
        config = {
            "task": "benchmark",
            "algorithm": "shsade",
            "objective": {"name": "rastrigin", "dimension": 100},
            "algorithm_config": {"pop_size": 50, "max_evaluations": 10_000},
            "seeds": self.seeds,
            "output": "out",
        }
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.expected_files = sorted(["summary.json"] + [f"trace_seed{s}.csv" for s in self.seeds])
        self.reference = None

    def op(self, index, tracer=None, threads: int | None = None):
        root = tempfile.mkdtemp(dir=self.workdir)
        os.environ[cli.OUTPUT_ROOT_ENV] = root
        try:
            start = time.perf_counter()
            code = cli.main(["run", str(self.config_path), "--threads", str(threads or self.threads)])
            seconds = time.perf_counter() - start
            outdir = os.path.join(root, "out")
            files = {}
            if os.path.isdir(outdir):
                for name in sorted(os.listdir(outdir)):
                    with open(os.path.join(outdir, name), "rb") as handle:
                        files[name] = handle.read()
        finally:
            del os.environ[cli.OUTPUT_ROOT_ENV]
            shutil.rmtree(root)
        work = 0
        if "summary.json" in files:
            work = sum(e["evaluations"] for e in json.loads(files["summary.json"])["per_seed"])
        return OpResult(self.seeds, seconds, work, files, {"code": code})

    def check(self, result):
        if result.detail["code"] != 0:
            return f"exit code {result.detail['code']}"
        if sorted(result.output) != self.expected_files:
            return f"output files {sorted(result.output)}"
        if self.reference is None:
            self.reference = result.output
        elif result.output != self.reference:
            return "output bytes differ from the first op's"
        return None

    def reference_runs(self):
        """Alternate --threads 1 and --threads 2 ops, so each pair meets the
        machine at about the same speed; the speed-up is the median of the
        pairs' ratios."""
        pairs = []
        for _ in range(self.REFERENCE_PAIRS):
            pair = (self.op(-1, threads=1), self.op(-1))
            for run in pair:
                reason = self.check(run)
                if reason:
                    raise RuntimeError(f"threads reference run: {reason}")
            pairs.append((pair[0].seconds, pair[1].seconds))
        return {
            "cli.threads1_reference.s": float(np.median([one for one, _ in pairs])),
            "cli.thread_speedup": float(np.median([one / two for one, two in pairs])),
        }


WORKLOADS = {w.name: w for w in (ContRastrigin10, NasPids7, NasAcceptance, CliRastrigin100x2)}
