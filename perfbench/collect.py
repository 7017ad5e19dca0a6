"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py                      # every metric of every workload, once
    python3 perfbench/collect.py --runs 10 --trace-runs 2 --write perfbench/trajectory/BENCH_1.json

For every workload in ``BENCHMARK.json`` this runs ``run.py`` for its
``run_seconds``, untraced ``--runs`` times on seeds ``--seed-base``,
``--seed-base + 1``, ..., then traced ``--trace-runs`` times on
``--seed-base``. It prints each end-to-end metric's median and
its spread, the distance between the first and third quartile as a share of
the median, against the bound in ``BENCHMARK.json`` (``ok`` below a third of
the bound, ``WIDE`` above the bound). It prints every per-layer metric of the
first traced run, and checks that the exact counts of repeated traced runs
are identical. ``--write`` stores everything as one trajectory point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())
    result["record"] = record
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--write", type=Path, default=None)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {
        "label": args.label,
        "machine": {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = [run_once(workload, args.seed_base + i, seconds, 0) for i in range(args.runs)]
        traced = [run_once(workload, args.seed_base, seconds, 1) for _ in range(args.trace_runs)]
        entry = {"end_to_end": {}, "per_layer": {}, "runs": []}
        print(f"== {workload}: {args.runs} untraced runs, {args.trace_runs} traced runs")
        for name, unit in ((m["name"], m["unit"]) for m in bench["end_to_end"]):
            values = [r["metrics"][name]["value"] for r in untraced]
            median, q1, q3, share = spread(values)
            verdict = "ok" if share <= bounds[name] / 3 else ("WIDE" if share > bounds[name] else "near")
            entry["end_to_end"][name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                                         "spread": share, "bound": bounds[name], "values": values}
            print(f"  {name:14s} median {median:12.6g} {unit:6s} spread {share:7.2%}"
                  f"  bound {bounds[name]:.0%}  {verdict}")
        for r in untraced + traced:
            rec = r["record"]
            entry["runs"].append({k: rec[k] for k in ("seed", "trace", "attempted", "failed", "failures",
                                                      "quality_misses", "errors", "checks")})
            for c in rec["checks"]:
                print(f"  seed {rec['seed']} trace {rec['trace']} check {c['name']}: "
                      f"{'PASS' if c['pass'] else 'FAIL'} ({c['detail']})")
            for m in rec["quality_misses"]:
                print(f"  seed {rec['seed']} trace {rec['trace']} quality miss, seed {m['seed']}: {m['reason']}")
            for f in rec["failures"]:
                print(f"  seed {rec['seed']} trace {rec['trace']} failed op {f['op']} seed {f['seed']}: {f['reason']}")
            if not r["correct"]:
                ok = False
                print(f"  seed {rec['seed']} trace {rec['trace']}: correct = false {rec['errors']}")
        if traced:
            first = traced[0]["metrics"]
            for name, metric in first.items():
                entry["per_layer"][name] = metric
                print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
            differ = sorted({n for other in traced[1:] for n, m in first.items()
                             if m["unit"] == "count" and other["metrics"][n]["value"] != m["value"]})
            entry["exact_counts_repeat"] = not differ
            if len(traced) > 1:
                print(f"  exact counts identical across {len(traced)} traced runs: "
                      f"{'no, ' + ', '.join(differ) if differ else 'yes'}")
            ok &= not differ
        point["workloads"][workload] = entry
    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
