"""Benchmark for shsade-pids: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload nas_pids7 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory. Set-up (importing the package, building the spec, space,
surrogate, oracle and config) is timed in this process and in fresh child
processes, and its median is ``setup_s``. Then one warm-up op runs, and ops
run one after another until ``--seconds`` have passed. Every op's outputs are
checked; a failed op keeps its seed and reason and counts in ``failed``.

With ``--trace 0`` the run reports the end-to-end metrics. Op times are
bounded in units of a fixed reference computation timed around each op
(``run_ref.*``, ``evals_per_ref``), because on a shared machine the wall
clock of one op swings up to twofold with other tenants' load; the wall-clock
``run_s.p50``, ``run_s.tail`` and ``evals_per_s`` are printed and recorded
beside them. The tail is the 90th percentile of the ops, interpolated; a run
holds 10 to 30 ops, too few to keep ten ops above a percentile higher than
the median. A failed workload-level check (criteria 2 to 4) makes the run
incorrect. With ``--trace 1``
each op runs twice on the same seed, untraced and then traced; the two must
produce identical outputs, the difference in their median times is the
tracing overhead, and the spans give the per-layer metrics. Op 0 is traced
once more at the end, and its counts must repeat exactly.

Every metric is printed by name with its unit; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and a per-run record go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 21  # this process plus twenty fresh child processes
COUNTED_OPS = 2  # exact counts cover traced ops 0 and 1
TAIL_PERCENTILE = 90
REFERENCE_STEPS = 1000  # about 50 ms on a quiet 2-core x86 VM
RERUN_OP = -3
CHECK_OP = -2

# (name, unit); the bounds and directions live in BENCHMARK.json
END_TO_END = [
    ("run_ref.p50", "ref"),
    ("run_ref.tail", "ref"),
    ("evals_per_ref", "1/ref"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# printed and recorded, not bounded: they move with the machine's load
WALL_CLOCK = [("run_s.p50", "s"), ("run_s.tail", "s"), ("evals_per_s", "1/s")]


def parse_args(argv=None):
    # spelled out, not read from workloads.WORKLOADS: importing that module
    # imports numpy and the package, which set-up has to time
    names = ("cont_rastrigin10", "nas_pids7", "nas_acceptance", "cli_rastrigin100_x2")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, tracer=None):
    """Import the package and build the workload; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT, tracer)
    return workload, time.perf_counter() - start


def child_setup_seconds(args) -> float:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, int]:
    """TAIL_PERCENTILE of the times, interpolated, and how many lie above it."""
    if len(times) < 2:
        return times[0], 0
    value = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(t > value for t in times)


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[dict] = []

    def attempt(self, index: int, tracer=None):
        """Run op ``index`` and check it; returns the result or None on failure."""
        self.attempted += 1
        seed = None
        try:
            result = self.workload.op(index, tracer)
            seed = result.seed
            if tracer is not None:
                tracer.op_id = CHECK_OP
            reason = self.workload.check(result)
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            reason = f"{type(exc).__name__}: {exc}"
        if reason is None:
            return result
        self.failures.append({"op": index, "seed": seed, "traced": tracer is not None, "reason": reason})
        return None


def reference_seconds(threads: int = 1) -> float:
    """Time a fixed computation that never touches the package: small numpy
    array calls (random draws, gathers, where, clip) and interpreter work on
    tuples and dicts, the two kinds of work the ops do. Timed right before
    and after every op, it measures how fast this shared machine runs at that
    moment; the speed swings up to twofold with other tenants' load, which
    shows in no in-process clock or CPU-time counter. It runs on as many
    threads as the op, so both meet the same CPUs and the same lock."""
    if threads > 1:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda _: reference_seconds(), range(threads)))
        return time.perf_counter() - start
    import numpy as np

    rng = np.random.default_rng(0)
    a = np.linspace(0.0, 1.0, 500).reshape(50, 10)
    table: dict[tuple, int] = {}
    total = 0.0
    start = time.perf_counter()
    for i in range(REFERENCE_STEPS):
        x = np.where(rng.random((50, 10)) < 0.5, a[rng.integers(0, 50, 50)], a)
        total += float(np.clip(x, 0.1, 0.9).sum())
        for j in range(25):
            key = (j, i % 7, j % 3)
            table[key] = table.get(key, 0) + j
    return time.perf_counter() - start


def run_untraced(workload, seconds: float):
    """Returns the runner and, per timed op, (op seconds, reference seconds, work)."""
    runner = Runner(workload)
    reference_seconds(workload.threads)
    runner.attempt(0)  # warm-up: checked and counted, not timed
    timed = []
    index = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        before = reference_seconds(workload.threads)
        result = runner.attempt(index)
        after = reference_seconds(workload.threads)
        if result is not None:
            timed.append((result.seconds, (before + after) / 2, result.work))
        index += 1
    return runner, timed


def run_traced(workload, tracer, seconds: float):
    import layers

    runner = Runner(workload)
    untraced, traced, run_errors = [], [], []
    index = 0
    deadline = time.perf_counter() + seconds
    while index < COUNTED_OPS or time.perf_counter() < deadline:
        plain = runner.attempt(index)
        tracer.op_id = index
        layers.instrument(tracer)
        try:
            with_spans = runner.attempt(index, tracer)
        finally:
            tracer.unpatch()
        if plain is not None and with_spans is not None:
            if plain.output != with_spans.output:
                runner.failures.append({"op": index, "seed": plain.seed, "traced": True,
                                        "reason": "traced outputs differ from the untraced op's"})
            elif index > 0:  # op 0 is the warm-up of both sides
                untraced.append(plain.seconds)
                traced.append(with_spans.seconds)
        index += 1

    tracer.op_id = RERUN_OP
    layers.instrument(tracer)
    try:
        runner.attempt(0, tracer)
    finally:
        tracer.unpatch()
    first, again = layers.exact_counts(tracer, 0), layers.exact_counts(tracer, RERUN_OP)
    if first != again:
        run_errors.append(f"exact counts of op 0 did not repeat: {first} vs {again}")

    run_level = workload.reference_runs()
    untraced_p50 = statistics.median(untraced) if untraced else 0.0
    run_level["bench.trace_overhead_ratio"] = (
        statistics.median(traced) / untraced_p50 if untraced_p50 else 0.0
    )
    run_level["bench.run_s.p50"] = untraced_p50
    metrics = layers.layer_metrics(tracer, range(index), range(COUNTED_OPS), run_level)
    info = {
        "untraced_op_s": untraced,
        "traced_op_s": traced,
        "exact_counts_op0": first,
        "errors": run_errors,
    }
    return runner, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shsade_pids" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_only:
        _, seconds = set_up(args)
        print(repr(seconds))
        return 0

    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    workload, setup_first = set_up(args, tracer)
    import shsade_pids

    if Path(shsade_pids.__file__).resolve().parent != SRC / "shsade_pids":
        print(f"error: imported shsade_pids from {shsade_pids.__file__}, not {SRC}", file=sys.stderr)
        return 2

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    checks = []
    if args.trace:
        import layers

        runner, metrics, info = run_traced(workload, tracer, args.seconds)
        units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
        errors = info.pop("errors")
        record.update(info)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        setup = [setup_first] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        runner, timed = run_untraced(workload, args.seconds)
        errors = [] if timed else ["no op completed in the timed phase"]
        times = [op for op, _, _ in timed] or [1.0]
        relative = [op / ref for op, ref, _ in timed] or [1.0]
        works = [work for _, _, work in timed] or [0]
        tail_value, above = tail(relative)
        metrics = {
            "run_ref.p50": statistics.median(relative),
            "run_ref.tail": tail_value,
            "evals_per_ref": statistics.median(works) / statistics.median(relative),
            "ok_rate": 1.0 - len(runner.failures) / runner.attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wall = {
            "run_s.p50": statistics.median(times),
            "run_s.tail": tail(times)[0],
            "evals_per_s": statistics.median(works) / statistics.median(times),
        }
        units = dict(END_TO_END)
        record.update({"op_s": times, "reference_s": [ref for _, ref, _ in timed], "work": works, "wall_clock": wall,
                       "setup_samples_s": setup, "tail_ops_above": above})
        lines.append(f"timed ops {len(timed)} (after 1 warm-up op); the tails are p{TAIL_PERCENTILE}, "
                     f"{above} ops above run_ref.tail")
        lines.extend(f"{name:48s} {wall[name]:14.6g} {unit}  (wall clock, unbounded)" for name, unit in WALL_CLOCK)
        lines.append(f"fail_rate {len(runner.failures)}/{runner.attempted} = "
                     f"{len(runner.failures) / runner.attempted:.4g} (ok_rate = 1 - fail_rate)")
        if runner.attempted > len(runner.failures):
            checks = workload.workload_checks()
            errors += [f"workload check failed: {name} ({detail})" for name, ok, detail in checks if not ok]

    failed = len(runner.failures)
    correct = failed == 0 and not errors
    record.update({
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures,
        "errors": errors,
        "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in checks],
        "quality_misses": [{"seed": seed, "reason": reason} for seed, reason in workload.misses],
        "metrics": metrics,
    })
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )

    for name, value in metrics.items():
        lines.append(f"{name:48s} {value:14.6g} {units[name]}")
    for name, ok, detail in checks:
        lines.append(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for seed, reason in workload.misses:
        lines.append(f"quality miss, seed {seed}: {reason}")
    for failure in runner.failures:
        lines.append(f"failed op {failure['op']} seed {failure['seed']}: {failure['reason']}")
    for error in errors:
        lines.append(f"error: {error}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
