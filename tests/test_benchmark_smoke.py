"""Short in-process runs of the benchmark's attacked workloads.

Each run sets up, measures and checks one workload as ``perfbench/run.py``
does, so the benchmark's trace-row, attacked-word accuracy, schedule and
prefix-replay checks see the records the program writes today.
``pretrain_clean`` is left out: at 0.3 s its learning check passes or fails
with the host's speed.
"""

import pytest

import bench


@pytest.mark.parametrize("workload", ["eval_attacked", "adversarial_long"])
def test_attacked_workload_runs_with_no_failed_unit(workload):
    result = bench.run(workload, 1, 0.3)
    assert result["attempted"] >= 1 and result["failed"] == 0
