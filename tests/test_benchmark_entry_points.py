"""Every benchmark workload still runs one correct op against the package.

The workloads in ``perfbench/workloads.py`` call the package by name: its
drivers and config classes, ``nas_search.score``, the one-genotype
predictor methods through ``PredictorProxy``, ``TabularSurrogate.predict_cost``
and the ``shsade-pids run --threads`` option. A change that renames or
deletes one of these breaks the benchmark; this test makes it break the
test suite first. Each workload is built traced, as the benchmark's traced
pass builds it, runs its first op, and its per-op check must pass.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOAD_SEED = 11


def test_every_workload_op_passes_its_check(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as tracing
    import workloads

    assert workloads.WORKLOADS
    for name, workload_class in workloads.WORKLOADS.items():
        tracer = tracing.Tracer()
        try:
            workload = workload_class(WORKLOAD_SEED, tmp_path, tracer)
            result = workload.op(0, tracer)
        finally:
            tracer.unpatch()
        assert workload.check(result) is None, name
