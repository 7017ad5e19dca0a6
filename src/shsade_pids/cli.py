"""Command-line experiment harness.

``run`` executes a seeded experiment described by a JSON config and writes
one trace CSV per seed plus a summary JSON; ``compare`` aligns two trace
directories on evaluation checkpoints and reports which median dominates;
``oracle`` dumps the brute-force ranking of a surrogate space.

Exit codes: 0 success, 1 config/validation error, 2 runtime failure (with
partial outputs removed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import itertools
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import baselines, nas_search, objectives, shsade
from .discrete_codec import DiscreteSpace
from .trace import SearchTrace, TraceError

OUTPUT_ROOT_ENV = "SHSADE_PIDS_OUTPUT_ROOT"
DEFAULT_COMPARE_STEP = 25

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent experiment configuration."""


def config_hash(raw_config: dict) -> str:
    canonical = json.dumps(raw_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    """JSON integers. ``true`` and ``false`` load as bools, which
    ``isinstance`` counts as ints, but no config field means them as numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """JSON numbers that are finite as floats. ``json`` also reads ``NaN`` and
    ``Infinity``, and integers of any size."""
    return (_is_int(value) or isinstance(value, float)) and -sys.float_info.max <= value <= sys.float_info.max


def _require_known(raw: dict, allowed, where: str) -> None:
    """Reject keys outside ``allowed``, so a typo cannot fall back silently
    to a default."""
    unknown = sorted(set(raw) - set(allowed))
    _require(not unknown, f"{where} has unknown keys: {unknown}")


def _load_json(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


def _midpoint_genotype(space: DiscreteSpace):
    return space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])


def _resolve_biobjective(raw: dict, surrogate) -> nas_search.BiObjectiveConfig:
    _require_known(raw, ("cost_budget", "omega"), "biobjective")
    omega = raw.get("omega", nas_search.BiObjectiveConfig.omega)
    _require(_is_number(omega) and omega >= 0, "biobjective.omega must be >= 0")
    cost_budget = raw.get("cost_budget")
    if cost_budget is None:
        # default reference cost: the mid-grid architecture
        cost_budget = surrogate.predict_cost(_midpoint_genotype(surrogate.space))
    _require(
        _is_number(cost_budget) and cost_budget > 0,
        "biobjective.cost_budget must be positive",
    )
    return nas_search.BiObjectiveConfig(cost_budget=float(cost_budget), omega=float(omega))


def validate_config(raw: dict, base_dir: Path) -> dict:
    """Check and normalize an experiment config without touching the filesystem
    for output; referenced input files are loaded here so a broken reference
    fails before anything is written."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    task = raw.get("task")
    _require(task in ("benchmark", "nas"), "task must be 'benchmark' or 'nas'")
    _require_known(raw, _TOP_LEVEL_KEYS[task], "config")
    algorithm = raw.get("algorithm")
    seeds = raw.get("seeds")
    _require(isinstance(seeds, list) and seeds, "seeds must be a non-empty list")
    _require(all(_is_int(s) and s >= 0 for s in seeds), "seeds must be integers >= 0")
    _require(len(set(seeds)) == len(seeds), "seeds must be duplicate-free")
    output = raw.get("output")
    _require(isinstance(output, str) and output, "output must be a non-empty path string")
    algo_cfg = raw.get("algorithm_config", {})
    _require(isinstance(algo_cfg, dict), "algorithm_config must be an object")

    normalized = {
        "task": task,
        "algorithm": algorithm,
        "seeds": [int(s) for s in seeds],
        "output": output,
        "algorithm_config": dict(algo_cfg),
        "hash": config_hash(raw),
    }

    algorithms = [name for kind, name in _CONFIG_CLASSES if kind == task]
    _require(algorithm in algorithms, f"{task} task supports algorithms {' and '.join(map(repr, algorithms))}")
    if task == "benchmark":
        objective = raw.get("objective")
        _require(
            isinstance(objective, dict) and "name" in objective and "dimension" in objective,
            "benchmark task needs objective {'name', 'dimension'}",
        )
        _require_known(objective, ("name", "dimension"), "objective")
        dimension = objective["dimension"]
        _require(_is_int(dimension) and dimension >= 1, "objective.dimension must be an integer >= 1")
        try:
            bench = objectives.make_benchmark(str(objective["name"]), dimension)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from None
        normalized["benchmark"] = bench
    else:
        space_ref = raw.get("space")
        if isinstance(space_ref, str):
            space_path = Path(space_ref)
            if not space_path.is_absolute():
                space_path = base_dir / space_path
            space_doc = _load_json(space_path)
        elif isinstance(space_ref, dict):
            space_doc = space_ref
        else:
            raise ConfigError("space must be an inline object or a path string")
        try:
            space = DiscreteSpace.from_json_dict(space_doc)
        except ValueError as exc:
            raise ConfigError(f"invalid space document: {exc}") from None
        surrogate_seed = raw.get("surrogate_seed")
        _require(_is_int(surrogate_seed) and surrogate_seed >= 0, "nas task needs an integer surrogate_seed >= 0")
        budget = raw.get("budget", 500)
        _require(_is_int(budget) and budget >= 1, "budget must be a positive integer")
        surrogate = objectives.TabularSurrogate(space, surrogate_seed)
        bio_raw = raw.get("biobjective", {})
        _require(isinstance(bio_raw, dict), "biobjective must be an object")
        normalized["space"] = space
        normalized["surrogate"] = surrogate
        normalized["budget"] = budget
        normalized["biobjective"] = _resolve_biobjective(bio_raw, surrogate)

    classes = _CONFIG_CLASSES[(task, algorithm)]
    keys = _config_keys(*classes)
    unknown = sorted(set(algo_cfg) - set(keys))
    _require(not unknown, f"algorithm_config has unknown keys for {task}/{algorithm}: {unknown}")
    for key, value in algo_cfg.items():
        kind = keys[key]
        if kind == "int":
            low = 0 if key == "archive_capacity" else 1
            _require(_is_int(value) and value >= low, f"algorithm_config.{key} must be an integer >= {low}")
        elif kind == "bool":
            _require(isinstance(value, bool), f"algorithm_config.{key} must be true or false")
        elif kind == "float":
            _require(_is_number(value), f"algorithm_config.{key} must be a number")
        else:
            _require(isinstance(value, str), f"algorithm_config.{key} must be a string")
    if task == "benchmark" and "max_evaluations" in algo_cfg:
        # the initial population alone spends pop_size evaluations
        pop_size = algo_cfg.get("pop_size", classes[0].pop_size)
        _require(
            algo_cfg["max_evaluations"] >= pop_size,
            f"algorithm_config.max_evaluations must be >= pop_size ({pop_size})",
        )
    # constructing the runner validates the algorithm config block up front
    try:
        normalized["runner"] = _build_runner(normalized)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid algorithm_config: {exc}") from None
    return normalized


# the top-level keys of each task's config
_COMMON_KEYS = ("task", "algorithm", "algorithm_config", "seeds", "output")
_TOP_LEVEL_KEYS = {
    "benchmark": _COMMON_KEYS + ("objective",),
    "nas": _COMMON_KEYS + ("space", "surrogate_seed", "budget", "biobjective"),
}
# the config classes each (task, algorithm) builds; their fields, less those
# the CLI fills in from the rest of the config, are its algorithm_config keys
_CONFIG_CLASSES = {
    ("benchmark", "shsade"): (shsade.ShsadeConfig, shsade.Termination),
    ("benchmark", "vanilla_de"): (baselines.VanillaDeConfig, shsade.Termination),
    ("nas", "shsade"): (shsade.ShsadeConfig, nas_search.NasConfig),
    ("nas", "regularized_ea"): (baselines.RegularizedEaConfig,),
}
_CLI_SET_FIELDS = ("budget", "biobjective", "shsade", "crossover_target")


def _config_keys(*classes) -> dict:
    """The algorithm_config keys of config classes, each with the type its
    field's annotation names: "bool", "int", "float" or "str". The classes'
    modules postpone annotations, so these are source text; ``X | None``
    names X."""
    return {
        f.name: f.type.removesuffix(" | None")
        for config_class in classes
        for f in fields(config_class)
        if f.name not in _CLI_SET_FIELDS
    }


def _build_runner(cfg: dict):
    """Return a callable seed -> (trace, per-seed summary entry). Each
    algorithm config takes the keys present in ``algorithm_config`` and the
    dataclass defaults for the rest."""
    task = cfg["task"]
    algorithm = cfg["algorithm"]
    acfg = cfg["algorithm_config"]

    def settings(config_class) -> dict:
        return {f.name: acfg[f.name] for f in fields(config_class) if f.name in acfg}

    if task == "benchmark":
        spec = cfg["benchmark"].to_objective_spec()
        termination = shsade.Termination(**settings(shsade.Termination))
        config_class = _CONFIG_CLASSES[(task, algorithm)][0]
        config = config_class(**settings(config_class))
        if "max_generations" not in acfg and "max_evaluations" in acfg:
            # the generation cap follows the evaluation budget
            config = replace(config, max_generations=acfg["max_evaluations"] // config.pop_size)

        def search(rng):
            optimize = shsade.run if algorithm == "shsade" else baselines.vanilla_de_run
            return optimize(config, spec, termination, rng)

    else:
        space = cfg["space"]
        surrogate = cfg["surrogate"]
        biobjective = cfg["biobjective"]
        budget = cfg["budget"]
        if algorithm == "shsade":
            sh_cfg = nas_search.search_shsade_config(budget, **settings(shsade.ShsadeConfig))
            nas_cfg = nas_search.NasConfig(biobjective, sh_cfg, budget, **settings(nas_search.NasConfig))

            def search(rng):
                return nas_search.nas_evolve(space, surrogate, nas_cfg, rng)

        else:
            ea_cfg = baselines.RegularizedEaConfig(budget=budget, **settings(baselines.RegularizedEaConfig))

            def search(rng):
                return baselines.regularized_ea_run(space, surrogate, ea_cfg, biobjective, rng)

    def run_seed(seed: int):
        best, trace = search(np.random.default_rng(seed))
        entry = {"seed": seed, "final_best": trace.final_best, "evaluations": trace.final_evaluations}
        if task == "nas":
            entry["result"] = nas_search.result_document(
                best, trace.final_best, trace.final_evaluations, trace, space
            )
        return trace, entry

    return run_seed


def resolve_output_dir(output: str) -> Path:
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    out = Path(output)
    return out if out.is_absolute() else root / out


# the runner that forked seed workers call. They inherit it through the
# fork, so it is never pickled: it is a closure, and may be a wrapper of one.
_FORKED_RUNNER = None


def _run_forked_seed(seed: int):
    return _FORKED_RUNNER(seed)


def _seed_results(runner, seeds):
    """Yield ``(seed, trace, entry)`` for every seed, in seed order.

    The seeds run on one forked worker process per CPU this process may
    run on, and no more workers than seeds; with one, or where the platform
    cannot fork or report its CPUs, they run in this process. Each worker
    runs one seed at a time, and a result waits here until the seeds before
    it are done. The first seed that fails, or a worker that dies, raises
    here at once; seeds not yet started never start. Every worker has
    exited when the generator finishes or is closed."""
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(seeds), len(os.sched_getaffinity(0)))
    if workers <= 1:
        for seed in seeds:
            yield (seed, *runner(seed))
        return
    # imported here, so that loading the CLI does not pay for them
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    global _FORKED_RUNNER
    _FORKED_RUNNER = runner
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        queued = iter(seeds)
        running = {pool.submit(_run_forked_seed, seed): seed for seed in itertools.islice(queued, workers)}
        finished = {}
        for seed in seeds:
            while seed not in finished:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                # every result first, so that a failure among them raises
                # before any queued seed is submitted
                for future in done:
                    finished[running.pop(future)] = future.result()
                for next_seed in itertools.islice(queued, len(done)):
                    running[pool.submit(_run_forked_seed, next_seed)] = next_seed
            yield (seed, *finished.pop(seed))
    finally:
        pool.shutdown()
        _FORKED_RUNNER = None


def run_experiment(config_path: str) -> int:
    """Run every seed of the config at ``config_path`` and write one trace
    CSV per seed and a summary JSON; returns the exit code.

    With more than one seed, the seeds run on up to one forked worker
    process per usable CPU. This process writes every file, in seed order,
    so the outputs are byte-identical to a run on one CPU."""
    config_path = Path(config_path)
    try:
        raw = _load_json(config_path)
        cfg = validate_config(raw, config_path.parent)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = resolve_output_dir(cfg["output"])
    written: list[Path] = []
    entries = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with contextlib.closing(_seed_results(cfg["runner"], cfg["seeds"])) as results:
            for seed, trace, entry in results:
                trace.metadata.update({"seed": str(seed), "config_hash": cfg["hash"]})
                # registered before the write, so that a write failing
                # halfway leaves no partial file behind
                path = outdir / f"trace_seed{seed}.csv"
                written.append(path)
                trace.write_csv(path)
                entries.append(entry)

        finals = [e["final_best"] for e in entries]
        summary = {
            "task": cfg["task"],
            "algorithm": cfg["algorithm"],
            "config_hash": cfg["hash"],
            "seeds": cfg["seeds"],
            "per_seed": entries,
            "median_final_best": float(np.median(finals)),
            "iqr_final_best": [
                float(np.percentile(finals, 25)),
                float(np.percentile(finals, 75)),
            ],
        }
        summary_path = outdir / "summary.json"
        written.append(summary_path)
        summary_path.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
        )
    except Exception as exc:  # noqa: BLE001 - harness boundary, cleans up and reports
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _load_trace_dir(directory: Path) -> list[SearchTrace]:
    if not directory.is_dir():
        raise ConfigError(f"{directory} is not a directory")
    paths = sorted(directory.glob("trace_*.csv"))
    if not paths:
        raise ConfigError(f"no trace_*.csv files in {directory}")
    return [SearchTrace.read_csv(p) for p in paths]


def compare_traces(dir_a: str, dir_b: str, step: int, output: str | None) -> int:
    try:
        if step < 1:
            raise ConfigError("checkpoint step must be positive")
        traces_a = _load_trace_dir(Path(dir_a))
        traces_b = _load_trace_dir(Path(dir_b))
        everything = traces_a + traces_b
        start = max(t.rows[0].evaluations for t in everything)
        end = min(t.final_evaluations for t in everything)
        first_checkpoint = ((start + step - 1) // step) * step
        if first_checkpoint > end:
            raise ConfigError("traces share no common evaluation checkpoint")
    except (ConfigError, TraceError) as exc:
        print(f"compare error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    name_a = Path(dir_a).name or "a"
    name_b = Path(dir_b).name or "b"
    if name_a == name_b:
        name_a, name_b = f"{name_a}_a", f"{name_b}_b"

    checkpoints = list(range(first_checkpoint, end + 1, step))
    rows = [["evaluations", f"median_{name_a}", f"median_{name_b}"]]
    med_a = med_b = None
    for point in checkpoints:
        med_a = float(np.median([t.best_at(point) for t in traces_a]))
        med_b = float(np.median([t.best_at(point) for t in traces_b]))
        rows.append([str(point), repr(med_a), repr(med_b)])
    csv_text = _csv_text(rows)

    if not output:
        sys.stdout.write(csv_text)
    elif _write_file(output, [csv_text], "compare") != EXIT_OK:
        return EXIT_RUNTIME

    if med_a < med_b:
        verdict = name_a
    elif med_b < med_a:
        verdict = name_b
    else:
        verdict = "tie"
    print(f"verdict: {verdict}")
    return EXIT_OK


def dump_oracle(space_path: str, seed: int, omega: float | None, cost_budget: float | None, output: str | None) -> int:
    try:
        space_doc = _load_json(Path(space_path))
        space = DiscreteSpace.from_json_dict(space_doc)
        surrogate = objectives.TabularSurrogate(space, seed)
        given = {"omega": omega, "cost_budget": cost_budget}
        biobjective = _resolve_biobjective({k: v for k, v in given.items() if v is not None}, surrogate)
        order, accuracy, cost, scores = nas_search.rank_space(space, surrogate, biobjective)
    except (ConfigError, ValueError) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def ranking():
        # a chunk of ranked rows at a time, so that no whole-space list of
        # choices or of lines is ever held
        yield _csv_text([["rank", "score", "accuracy", "cost"] + [a.name for a in space.axes]])
        for start in range(0, order.size, nas_search.ENUMERATION_CHUNK):
            part = order[start : start + nas_search.ENUMERATION_CHUNK]
            choices = space.choices_from_indices(np.stack(np.unravel_index(part, space.sizes), axis=1))
            rows = zip(scores[part].tolist(), accuracy[part].tolist(), cost[part].tolist(), choices)
            yield _csv_text(
                [str(rank), repr(s), repr(a), repr(c)] + [str(v) for v in values]
                for rank, (s, a, c, values) in enumerate(rows, start=start + 1)
            )

    if output:
        return _write_file(output, ranking(), "oracle")
    sys.stdout.writelines(ranking())
    return EXIT_OK


class _CsvLines(list):
    """A ``csv.writer`` target that ends each row with a newline alone, in
    place of the writer's two-character terminator."""

    def write(self, line: str) -> None:
        self.append(line[:-2] + "\n")


def _csv_text(rows) -> str:
    """Rows of text fields as CSV lines; a field holding a comma, a quote,
    a newline or a carriage return is quoted, and every other field keeps
    its exact text. The writer is given a carriage return and newline as its
    terminator, because Python 3.11's ``csv.writer`` quotes only the line-end
    characters of its own terminator."""
    lines = _CsvLines()
    csv.writer(lines, lineterminator="\r\n").writerows(rows)
    return "".join(lines)


def _write_file(path: str, chunks, command: str) -> int:
    """Write text chunks to ``path`` and return the exit code. An OSError is
    reported as a runtime failure, and the file is removed if it was opened."""
    opened = False
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            opened = True
            out.writelines(chunks)
    except OSError as exc:
        if opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        print(f"{command} error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shsade-pids",
        description="Seeded optimizer and architecture-search experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all seeds of a JSON experiment config")
    p_run.add_argument("config", help="path to the experiment config JSON")
    p_run.add_argument(
        "--threads", type=int, default=1,
        help="ignored: seeds run on up to one forked worker process per usable CPU",
    )

    p_cmp = sub.add_parser("compare", help="compare two trace directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.add_argument("--step", type=int, default=DEFAULT_COMPARE_STEP,
                       help=f"evaluation checkpoint spacing (default {DEFAULT_COMPARE_STEP})")
    p_cmp.add_argument("-o", "--output", default=None, help="write the checkpoint CSV here")

    p_orc = sub.add_parser("oracle", help="brute-force ranking of a surrogate space")
    p_orc.add_argument("space", help="path to a space JSON document")
    p_orc.add_argument("--seed", type=int, required=True, help="surrogate seed")
    p_orc.add_argument("--omega", type=float, default=None)
    p_orc.add_argument("--cost-budget", type=float, default=None)
    p_orc.add_argument("-o", "--output", default=None, help="write the ranking CSV here")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code = run_experiment(args.config)
        elif args.command == "compare":
            code = compare_traces(args.dir_a, args.dir_b, step=args.step, output=args.output)
        else:
            code = dump_oracle(
                args.space,
                seed=args.seed,
                omega=args.omega,
                cost_budget=args.cost_budget,
                output=args.output,
            )
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # downstream pipe (e.g. head) closed early; suppress the shutdown noise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
