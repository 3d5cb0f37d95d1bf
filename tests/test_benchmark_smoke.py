"""Short in-process runs of the benchmark's attacked workloads.

Each run sets up, measures and checks one workload as ``perfbench/run.py``
does, so the benchmark's trace-row, attacked-word accuracy, schedule and
prefix-replay checks see the records the program writes today.
``pretrain_clean`` is left out: at 0.3 s its learning check passes or fails
with the host's speed.  One run is traced, so that the span tracer wraps
every public function the program has today and the per-layer metrics are
drawn from a whole workload window.  A traced clean update checks that no
taped op bypasses the traced primitives.
"""

import math

import numpy as np
import pytest

import bench
import spans
from advnav import trainer as tr


@pytest.mark.parametrize("workload", ["eval_attacked", "adversarial_long"])
def test_attacked_workload_runs_with_no_failed_unit(workload):
    result = bench.run(workload, 1, 0.3)
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_traced_run_reports_every_per_layer_metric():
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = bench.run("eval_attacked", 1, 0.3, tracer)
    finally:
        tracer.uninstall()
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = {k: v for k, (v, _) in result["metrics"].items()}
    assert set(metrics) == {name for name, _, _ in spans.PER_LAYER}
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["attacker.attack_score.calls_per_unit"] > 0
    assert metrics["instruct.perturbations_per_unit"] > 0


def test_every_taped_op_passes_through_a_traced_primitive():
    # the per-layer metrics see the engine only through PRIMITIVES: on a
    # clean update, where every op is taped, each tape entry must be one
    # traced forward call
    item = bench.make_items(bench.SHORT, 1)[0]
    models = bench.make_models(("nav", "nav_value"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tr.navigator_update(item, models.nav, models.nav_value, tr.TrainConfig(),
                            np.random.default_rng(0), att=None, opt_state={})
    finally:
        tracer.uninstall()
    fwd = [i for i, n in enumerate(tracer.names) if n.startswith("diffcore.fwd.")]
    calls = int(np.isin(tracer.arrays()[0], fwd).sum())
    assert calls == tracer.counters["diffcore.tape_ops"] > 0
