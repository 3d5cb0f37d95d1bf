"""Tests for the benchmark's own checks: each accepts the program's real
output and rejects a deliberately broken one.

    python3 -m pytest -q perfbench
"""

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from advnav import diffcore as dc
from advnav import instruct as ins
from advnav import trainer as tr

import bench
import checks
import spans
from checks import CheckFailed

SPEC = replace(bench.SHORT, n_items=8)


@pytest.fixture(scope="module")
def items():
    return bench.make_items(SPEC, seed=11)


@pytest.fixture(scope="module")
def models():
    return bench.make_models(("nav", "att", "nav_value", "att_value"))


def rollout(item, models, mode, att=True, **kw):
    return tr.rollout_episode(item, models.nav, models.att if att else None, mode,
                              np.random.default_rng(0), tr.TrainConfig(),
                              nav_value=models.nav_value, att_value=models.att_value, **kw)


@pytest.mark.parametrize("mode", ["nav_teacher", "nav_learn", "att_learn", "eval"])
def test_real_rollouts_pass(items, models, mode):
    for item in items:
        res = rollout(item, models, mode, record_trace=mode == "eval")
        success, steps = checks.check_rollout(checks.Geometry(item.world), item, res,
                                              teacher_forced=mode == "nav_teacher")
        assert steps == len(res.nav_buffer.transitions)
        assert success == res.nav_buffer.success


def test_flipped_success_flag_is_rejected(items, models):
    item = items[0]
    res = rollout(item, models, "eval")
    res.nav_buffer.success = not res.nav_buffer.success
    with pytest.raises(CheckFailed, match="success flag"):
        checks.check_rollout(checks.Geometry(item.world), item, res)


def test_flipped_success_rate_is_rejected():
    checks.check_rate(0.5, [True, False], "SR")
    with pytest.raises(CheckFailed, match="recomputed"):
        checks.check_rate(0.5, [True, True], "SR")


def test_non_zero_sum_reward_is_rejected(items, models):
    item = items[0]
    res = rollout(item, models, "att_learn")
    res.att_buffer.transitions[0].reward += 2.0
    with pytest.raises(CheckFailed, match="sum to zero"):
        checks.check_rollout(checks.Geometry(item.world), item, res)


def test_wrong_navigator_reward_is_rejected(items, models):
    item = items[0]
    res = rollout(item, models, "eval", att=False)
    last = res.nav_buffer.transitions[-1]
    last.reward = -last.reward
    with pytest.raises(CheckFailed, match="navigator reward"):
        checks.check_rollout(checks.Geometry(item.world), item, res)


def test_unnormalised_distribution_is_rejected(items, models):
    item = items[0]
    res = rollout(item, models, "nav_learn")
    dist = res.nav_buffer.transitions[0].dist
    dist.values = dist.values * 1.01
    with pytest.raises(CheckFailed, match="sums to"):
        checks.check_rollout(checks.Geometry(item.world), item, res)


def test_real_perturbations_pass(items):
    vocab = ins.build_vocabulary()
    for item in items:
        for action in item.instruction.valid_actions():
            checks.check_perturbation(ins.apply_perturbation(item.instruction, action, 0), vocab)


def test_two_token_perturbation_is_rejected(items):
    vocab = ins.build_vocabulary()
    instr = items[0].instruction
    pert = ins.apply_perturbation(instr, instr.valid_actions()[0], 0)
    tokens = list(pert.tokens)
    # swap the two words instead of substituting one
    old = instr.tokens[pert.position]
    other = next(p for p in instr.target_set if instr.tokens[p] not in (old, pert.token))
    tokens[other] = old
    broken = SimpleNamespace(base=instr, position=pert.position, token=pert.token,
                             tokens=tuple(tokens))
    with pytest.raises(CheckFailed, match="changed 2 tokens"):
        checks.check_perturbation(broken, vocab)


def test_non_target_substitute_is_rejected(items):
    vocab = ins.build_vocabulary()
    instr = items[0].instruction
    pos = instr.target_set[0]
    tokens = list(instr.tokens)
    tokens[pos] = vocab.id_of("walk")
    broken = SimpleNamespace(base=instr, position=pos, token=tokens[pos], tokens=tuple(tokens))
    with pytest.raises(CheckFailed, match="not a target word"):
        checks.check_perturbation(broken, vocab)


def test_wrong_gradient_is_rejected():
    w = dc.Tensor(np.array([[0.3, -1.2, 2.0]]), dtype=np.float64)
    params = {"w": w}

    def loss():
        return float(np.sum(np.sin(w.values)))

    good = {"w": np.cos(w.values)}
    coords = [("w", 0), ("w", 1), ("w", 2)]
    checks.check_gradients(loss, params, good, coords)
    with pytest.raises(CheckFailed, match="central difference"):
        checks.check_gradients(loss, params, {"w": good["w"] * 1.01}, coords)


def test_program_gradient_passes_and_a_broken_backward_is_caught(items, monkeypatch):
    bench.gradient_check(items[0], seed=0)
    fwd, bwd = dc.PRIMITIVES["sigmoid"]
    monkeypatch.setitem(dc.PRIMITIVES, "sigmoid",
                        (fwd, lambda ctx, g, out, x: [1.1 * g * out * (1.0 - out)]))
    with pytest.raises(CheckFailed, match="central difference"):
        bench.gradient_check(items[0], seed=0)


def test_schedule_check():
    checks.check_schedule(["eta"] * 3 + ["pi"] * 2, 3, 2, 1)
    with pytest.raises(CheckFailed):
        checks.check_schedule(["eta"] * 3 + ["pi"], 3, 2, 1)


def test_learning_check():
    checks.check_learning([5.0] * 10 + [4.0] * 10, 0.1, 0.2)
    with pytest.raises(CheckFailed, match="rose"):
        checks.check_learning([4.0] * 10 + [5.0] * 10, 0.1, 0.2)
    with pytest.raises(CheckFailed, match="SR did not rise"):
        checks.check_learning([5.0] * 10 + [4.0] * 10, 0.2, 0.2)


def test_geometry_matches_program_distances(items):
    from advnav import world as wd
    world = items[0].world
    geo = checks.Geometry(world)
    for a in range(world.n_nodes):
        for b in range(world.n_nodes):
            assert geo.dist[a, b] == pytest.approx(wd.geodesic_distance(world, a, b), abs=1e-9)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in spans.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END


def test_tracer_restores_every_patch(items, models):
    from advnav.navigator import Navigator
    before = {name: getattr(tr, name) for name in dir(tr)}
    methods = dict(vars(Navigator))
    prims = dict(dc.PRIMITIVES)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tr.rollout_episode is not before["rollout_episode"]
        rollout(items[0], models, "nav_learn")
    finally:
        tracer.uninstall()
    assert {name: getattr(tr, name) for name in dir(tr)} == before
    assert dict(vars(Navigator)) == methods
    assert dict(dc.PRIMITIVES) == prims
    assert len(tracer.span_name) > 0
