"""Per-module instrumentation and the per-layer metrics derived from it.

``instrument`` puts tracer wrappers on the public functions of each
``shsade_pids`` module; ``layer_metrics`` turns the recorded spans and
counts into the per-layer metrics that ``BENCHMARK.json`` lists. Each entry
of ``PER_LAYER`` also says which end-to-end metric the layer should move and
on which workload, so a change to one layer can be checked against it.
"""

from __future__ import annotations

from tracer import SETUP_OP, BenchmarkProxy, Tracer

# (name, unit, better, what it should move)
PER_LAYER = [
    ("shsade.build_trials.us_per_gen", "us", "lower", "run_s.p50, evals_per_s on cont_rastrigin10, cli_rastrigin100_x2"),
    ("shsade.commit_generation.us_per_gen", "us", "lower", "same as build_trials"),
    ("shsade.sample_params.us_per_gen", "us", "lower", "same as build_trials; sum of sample_cr, sample_freq, sample_f_cauchy"),
    ("shsade.run.self_us_per_gen", "us", "lower", "same as build_trials"),
    ("shsade.generations", "count", "higher", "exact count; little effect on nas_pids7"),
    ("de_core.binomial_crossover_matrix.us_per_gen", "us", "lower", "same as shsade"),
    ("de_core.repair_bounds_matrix.us_per_gen", "us", "lower", "same as shsade"),
    ("de_core.sample_distinct_triplets.us_per_gen", "us", "lower", "same as shsade"),
    ("de_core.init_population.us", "us", "lower", "same as shsade"),
    ("objectives.evaluate_many.us_per_gen", "us", "lower", "no change predicted anywhere"),
    ("objectives.evaluations", "count", "higher", "exact count"),
    ("objectives.predict_accuracy.us_per_call", "us", "lower", "run_s.p50 on nas_pids7; no change predicted on nas_acceptance"),
    ("objectives.predict_cost.us_per_call", "us", "lower", "run_s.p50 on nas_pids7; no change predicted on nas_acceptance"),
    ("objectives.predict.calls", "count", "lower", "exact count"),
    ("objectives.TabularSurrogate.init_ms", "ms", "lower", "setup_s on nas_pids7, nas_acceptance"),
    ("discrete_codec.decode.us_per_call", "us", "lower", "nas_pids7; the nas_evolve share of nas_acceptance"),
    ("discrete_codec.decode.calls", "count", "lower", "exact count"),
    ("nas_search.try_score.self_us_per_call", "us", "lower", "hit path: nas_acceptance; miss path: nas_pids7"),
    ("nas_search.try_score.calls", "count", "lower", "exact count"),
    ("nas_search.cache_hit_ratio", "ratio", "higher", "base: cache hits / try_score calls"),
    ("nas_search.budget_dropped", "count", "lower", "exact count"),
    ("nas_search.nas_evolve.self_us_per_gen", "us", "lower", "run_s.p50 on nas_pids7, nas_acceptance"),
    ("nas_search.brute_force_optimum.us_per_genotype", "us", "lower", "setup_s on nas_acceptance"),
    ("baselines.vanilla_de_run.us_per_gen", "us", "lower", "run_s.p50 on cont_rastrigin10"),
    ("baselines.regularized_ea_run.us_per_step", "us", "lower", "run_s.p50 on nas_acceptance"),
    ("baselines.rea.steps", "count", "lower", "exact count"),
    ("baselines.rea.useful_ratio", "ratio", "higher", "base: new genotypes / REA steps"),
    ("baselines.mutate_one_axis.us_per_call", "us", "lower", "run_s.p50 on nas_acceptance"),
    ("trace.append.us_per_call", "us", "lower", "cli_rastrigin100_x2, small shares elsewhere"),
    ("trace.write_csv.ms", "ms", "lower", "cli_rastrigin100_x2"),
    ("cli.validate_config.ms", "ms", "lower", "run_s.p50 on cli_rastrigin100_x2"),
    ("cli.run_experiment.s", "s", "lower", "run_s.p50 on cli_rastrigin100_x2"),
    ("cli.seed_run.s", "s", "lower", "run_s.p50 on cli_rastrigin100_x2; spans overlap under threads"),
    ("cli.threads1_reference.s", "s", "lower", "same config with --threads 1, untraced, traced pass only"),
    ("cli.thread_speedup", "ratio", "higher", "base: median over 3 alternating pairs of threads-1 wall / threads-2 wall; below 1 means the pool slows the run"),
    ("bench.trace_overhead_ratio", "ratio", "lower", "base: traced run_s.p50 / untraced run_s.p50"),
    ("bench.run_s.p50", "s", "lower", "wall clock of the untraced ops of the traced pass; moves with machine load"),
]


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every module; undo with ``tracer.unpatch()``."""
    import shsade_pids
    from shsade_pids import baselines, cli, de_core, discrete_codec, nas_search, objectives, shsade, trace

    modules = [shsade_pids, baselines, cli, de_core, discrete_codec, nas_search, objectives, shsade, trace]

    def generations(counter):
        return lambda _token, _args, result: tracer.count(counter, result[1].rows[-1].generation)

    for name in ("build_trials", "commit_generation", "sample_cr", "sample_freq", "sample_f_cauchy"):
        tracer.patch(modules, shsade, name, f"shsade.{name}")
    tracer.patch(modules, shsade, "run", "shsade.run", after=generations("gens.shsade_run"))
    for name in ("binomial_crossover_matrix", "repair_bounds_matrix", "sample_distinct_triplets", "init_population"):
        tracer.patch(modules, de_core, name, f"de_core.{name}")
    tracer.patch(modules, discrete_codec, "decode", "discrete_codec.decode")

    def scored(evaluations_before, args, result):
        if result is None:
            tracer.count("nas_search.budget_dropped")
        elif args[0].evaluations == evaluations_before:
            tracer.count("nas_search.cache_hits")

    tracer.patch([], nas_search.BudgetedScorer, "try_score", "nas_search.try_score",
                 before=lambda args: args[0].evaluations, after=scored)
    tracer.patch(modules, nas_search, "score", "nas_search.score")
    tracer.patch(modules, nas_search, "nas_evolve", "nas_search.nas_evolve", after=generations("gens.nas"))

    def rea_steps(_token, _args, result):
        rows = result[1].rows
        tracer.count("rea.steps", rows[-1].generation)
        tracer.count("rea.new_genotypes", rows[-1].evaluations - rows[0].evaluations)

    tracer.patch(modules, baselines, "vanilla_de_run", "baselines.vanilla_de_run", after=generations("gens.vanilla"))
    tracer.patch(modules, baselines, "regularized_ea_run", "baselines.regularized_ea_run", after=rea_steps)
    tracer.patch(modules, baselines, "mutate_one_axis", "baselines.mutate_one_axis")
    tracer.patch([], trace.SearchTrace, "append", "trace.append")
    tracer.patch([], trace.SearchTrace, "write_csv", "trace.write_csv")
    tracer.patch(modules, cli, "validate_config", "cli.validate_config")
    tracer.patch(modules, cli, "run_experiment", "cli.run_experiment")

    build_runner = cli._build_runner
    make_benchmark = objectives.make_benchmark
    tracer.replace(modules, cli, "_build_runner", lambda cfg: tracer.wrap(build_runner(cfg), "cli.seed_run"))
    tracer.replace(modules, objectives, "make_benchmark", lambda *a: BenchmarkProxy(make_benchmark(*a), tracer))


def layer_metrics(tracer: Tracer, timed_ops, counted_ops, run_level: dict) -> dict[str, float]:
    """Per-layer metrics: times over ``timed_ops``, exact counts over
    ``counted_ops``, set-up spans from the set-up op, plus ``run_level``."""
    spans = tracer.totals(set(timed_ops))
    setup = tracer.totals({SETUP_OP})
    counts = tracer.summed_counts(timed_ops)
    exact = tracer.summed_counts(counted_ops)

    def total(name, field="total", table=spans):
        return table.get(name, {}).get(field, 0.0)

    def per(seconds, denominator, scale=1e6):
        return seconds * scale / denominator if denominator else 0.0

    def per_call(name, field="total", scale=1e6, table=spans):
        return per(total(name, field, table), table.get(name, {}).get("calls", 0), scale)

    gens_shsade = counts["shsade.commit_generation"]
    gens_de = gens_shsade + counts["gens.vanilla"]
    sampling = sum(total(f"shsade.{n}") for n in ("sample_cr", "sample_freq", "sample_f_cauchy"))
    out = {
        "shsade.build_trials.us_per_gen": per(total("shsade.build_trials"), gens_shsade),
        "shsade.commit_generation.us_per_gen": per(total("shsade.commit_generation"), gens_shsade),
        "shsade.sample_params.us_per_gen": per(sampling, gens_shsade),
        "shsade.run.self_us_per_gen": per(total("shsade.run", "self"), counts["gens.shsade_run"]),
        "shsade.generations": exact["shsade.commit_generation"],
        "de_core.binomial_crossover_matrix.us_per_gen": per(total("de_core.binomial_crossover_matrix"), gens_de),
        "de_core.repair_bounds_matrix.us_per_gen": per(total("de_core.repair_bounds_matrix"), gens_de),
        "de_core.sample_distinct_triplets.us_per_gen": per(total("de_core.sample_distinct_triplets"), gens_de),
        "de_core.init_population.us": per_call("de_core.init_population"),
        "objectives.evaluate_many.us_per_gen": per(total("objectives.evaluate_many"), gens_de),
        "objectives.evaluations": exact["objectives.evaluations"],
        "objectives.predict_accuracy.us_per_call": per_call("objectives.predict_accuracy"),
        "objectives.predict_cost.us_per_call": per_call("objectives.predict_cost"),
        "objectives.predict.calls": exact["objectives.predict_accuracy"],
        "objectives.TabularSurrogate.init_ms": per_call("objectives.TabularSurrogate.init", scale=1e3, table=setup),
        "discrete_codec.decode.us_per_call": per_call("discrete_codec.decode"),
        "discrete_codec.decode.calls": exact["discrete_codec.decode"],
        "nas_search.try_score.self_us_per_call": per_call("nas_search.try_score", "self"),
        "nas_search.try_score.calls": exact["nas_search.try_score"],
        "nas_search.cache_hit_ratio": per(exact["nas_search.cache_hits"], exact["nas_search.try_score"], 1),
        "nas_search.budget_dropped": exact["nas_search.budget_dropped"],
        "nas_search.nas_evolve.self_us_per_gen": per(total("nas_search.nas_evolve", "self"), counts["gens.nas"]),
        "nas_search.brute_force_optimum.us_per_genotype": per(
            total("nas_search.brute_force_optimum", table=setup),
            tracer.summed_counts([SETUP_OP])["oracle.genotypes"],
        ),
        "baselines.vanilla_de_run.us_per_gen": per(total("baselines.vanilla_de_run"), counts["gens.vanilla"]),
        "baselines.regularized_ea_run.us_per_step": per(total("baselines.regularized_ea_run"), counts["rea.steps"]),
        "baselines.rea.steps": exact["rea.steps"],
        "baselines.rea.useful_ratio": per(exact["rea.new_genotypes"], exact["rea.steps"], 1),
        "baselines.mutate_one_axis.us_per_call": per_call("baselines.mutate_one_axis"),
        "trace.append.us_per_call": per_call("trace.append"),
        "trace.write_csv.ms": per_call("trace.write_csv", scale=1e3),
        "cli.validate_config.ms": per_call("cli.validate_config", scale=1e3),
        "cli.run_experiment.s": per_call("cli.run_experiment", scale=1),
        "cli.seed_run.s": per_call("cli.seed_run", scale=1),
    }
    out.update(run_level)
    return out


def exact_counts(tracer: Tracer, op: int) -> dict[str, int]:
    """Every count recorded for one op; these must repeat exactly."""
    return dict(sorted(tracer.counts.get(op, {}).items()))
