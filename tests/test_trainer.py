import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest

from gradcheck import max_rel_error
import straightline as sl
from legacy_ops import (legacy_attacker, legacy_encoding, legacy_numerics,
                        legacy_untaped_cell)
from advnav import diffcore as dc
from advnav import instruct as ins
from advnav import trainer as tr
from advnav import world as w
from advnav.attacker import Attacker
from advnav.checkpoint import params_digest
from advnav.diffcore import Tape
from advnav.navigator import ModelDims, Navigator

DIMS = ModelDims(d_w=16, d_v=32, d_p=16, d_h=16)
HIDDEN = tr.TrainConfig().value_hidden


def make_items(n_worlds=2, episodes=4, seed=0):
    rng = np.random.default_rng(seed)
    items = []
    for ws in range(n_worlds):
        g = w.generate_world(w.WorldConfig(seed=ws))
        for e in range(episodes):
            while True:
                a, b = rng.choice(g.n_nodes, size=2, replace=False)
                if 2 <= len(w.shortest_path(g, int(a), int(b))) <= 4:
                    break
            ep = w.make_episode(g, int(a), int(b))
            instr = ins.generate_instruction(g, ep, seed=1000 * ws + e)
            items.append(tr.TrainItem(g, ep, instr))
    return items


def make_models(seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    nav = Navigator.create(rng, ins.build_vocabulary(), DIMS, dtype=dtype)
    att = Attacker.create(rng, ins.build_vocabulary(), DIMS, dtype=dtype)
    nav_val = tr.ValueNet.create(rng, DIMS.d_v, HIDDEN, dtype=dtype)
    att_val = tr.ValueNet.create(rng, DIMS.d_v, HIDDEN, dtype=dtype)
    return nav, att, nav_val, att_val


def buf_of(rewards, values=None):
    b = tr.RolloutBuffer()
    for i, r in enumerate(rewards):
        value_out = None if values is None else dc.constant([[values[i]]], dtype=np.float64)
        b.transitions.append(tr.Transition(action=0, reward=r, value_out=value_out))
    return b


def test_returns_single_step():
    returns, advs = tr.compute_returns(buf_of([1.0], values=[0.25]), gamma=0.9)
    assert returns == [1.0]
    assert advs == [0.75]


def test_returns_two_steps():
    returns, _ = tr.compute_returns(buf_of([1.0, 1.0]), gamma=0.9)
    assert returns == pytest.approx([1.9, 1.0])


def test_returns_gamma_zero():
    returns, _ = tr.compute_returns(buf_of([2.0, -1.0, 3.0]), gamma=0.0)
    assert returns == [2.0, -1.0, 3.0]


@pytest.mark.parametrize("seed", range(8))
def test_returns_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    rewards = [float(r) for r in rng.choice([-3, -1, 1, 3], size=rng.integers(1, 9))]
    gamma = float(rng.uniform(0, 0.99))
    returns, _ = tr.compute_returns(buf_of(rewards), gamma)
    # every episode ends terminally, so nothing is bootstrapped
    expect = sl.discounted_returns(rewards, gamma, bootstrap=0.0)
    np.testing.assert_allclose(returns, expect, atol=1e-6)


def test_advantage_identity():
    rng = np.random.default_rng(3)
    values = [float(v) for v in rng.normal(size=4)]
    buf = buf_of([1.0, -1.0, 1.0, 3.0], values=values)
    returns, advs = tr.compute_returns(buf, gamma=0.9)
    for r, v, a in zip(returns, values, advs):
        assert a == r - v


def test_returns_reject_empty_buffer():
    with pytest.raises(ValueError):
        tr.compute_returns(tr.RolloutBuffer(), 0.9)


def test_value_net_matches_oracle():
    rng = np.random.default_rng(0)
    vn = tr.ValueNet.create(rng, 6, HIDDEN, dtype=np.float64)
    s = rng.normal(size=6)
    out = vn.forward(None, s)
    assert out.shape == (1, 1)
    got = out.item()
    assert got == pytest.approx(sl.value(sl.np_params(vn.params), s.reshape(1, -1)))


def _bandit_update(reward_for, cfg, steps=1, seed=0):
    """One-state two-action bandit built from a tiny softmax policy."""
    rng = np.random.default_rng(seed)
    logits = dc.Tensor(np.zeros((2, 1)))
    vn = tr.ValueNet.create(rng, 2, HIDDEN)
    history = []
    for _ in range(steps):
        t = Tape()
        p = dc.softmax(t, dc.tanh(t, logits))
        a = int(rng.integers(2))
        buf = tr.RolloutBuffer()
        trn = tr.Transition(action=a, reward=reward_for(a), dist=p)
        trn.value_out = vn.forward(t, np.ones(2))
        buf.transitions.append(trn)
        tr.a2c_update(t, [buf], {"w": logits}, vn.params, cfg, {})
        history.append(dc.softmax(None, dc.tanh(None, logits)).values.reshape(-1))
    return logits, vn, history


def test_bandit_reinforces_rewarded_action():
    cfg = tr.TrainConfig(lr=0.2, entropy_weight=0.0, value_weight=0.0, il_weight=0.0)
    rng = np.random.default_rng(1)
    logits = dc.Tensor(np.zeros((2, 1)))
    vn = tr.ValueNet.create(rng, 2, HIDDEN)
    t = Tape()
    p = dc.softmax(t, dc.tanh(t, logits))
    before = p.values[0, 0]
    buf = tr.RolloutBuffer()
    trn = tr.Transition(action=0, reward=1.0, dist=p)
    buf.transitions.append(trn)
    _, advs = tr.compute_returns(buf, cfg.gamma)
    assert advs == [1.0]
    tr.a2c_update(t, [buf], {"w": logits}, vn.params, cfg, {})
    after = dc.softmax(None, dc.tanh(None, logits)).values[0, 0]
    assert after > before


def test_entropy_term_alone_moves_policy_toward_uniform():
    cfg = tr.TrainConfig(lr=0.5, entropy_weight=0.1, value_weight=0.0, il_weight=0.0)
    logits = dc.Tensor(np.array([[1.5], [-1.5]]))
    vn = tr.ValueNet.create(np.random.default_rng(0), 2, HIDDEN)

    def entropy(vals):
        v = vals.reshape(-1)
        return float(-(v * np.log(v)).sum())

    ents = []
    for _ in range(20):
        t = Tape()
        p = dc.softmax(t, logits)
        ents.append(entropy(p.values))
        buf = tr.RolloutBuffer()
        # zero advantage, zero value error: only the entropy term acts
        trn = tr.Transition(action=0, reward=0.0, dist=p)
        buf.transitions.append(trn)
        tr.a2c_update(t, [buf], {"w": logits}, vn.params, cfg, {})
    final = dc.softmax(None, logits)
    ents.append(entropy(final.values))
    assert ents[-1] > ents[0]
    assert abs(final.values[0, 0] - 0.5) < abs(1.0 / (1 + np.exp(-3.0)) - 0.5)


def test_value_regression_converges_on_constant_reward():
    cfg = tr.TrainConfig(lr=0.05, entropy_weight=0.0, value_weight=1.0, il_weight=0.0)
    rng = np.random.default_rng(2)
    logits = dc.Tensor(np.zeros((2, 1)))
    vn = tr.ValueNet.create(rng, 2, HIDDEN)
    s = np.ones(2)
    for _ in range(500):
        t = Tape()
        p = dc.softmax(t, dc.tanh(t, logits))
        buf = tr.RolloutBuffer()
        trn = tr.Transition(action=0, reward=1.0, dist=p)
        trn.value_out = vn.forward(t, s)
        buf.transitions.append(trn)
        tr.a2c_update(t, [buf], {"w": logits}, vn.params, cfg, {})
    assert abs(vn.forward(None, s).item() - 1.0) < 1e-2


def test_nan_gradient_aborts_update():
    cfg = tr.TrainConfig(lr=0.1)
    logits = dc.Tensor(np.zeros((2, 1)))
    vn = tr.ValueNet.create(np.random.default_rng(0), 2, HIDDEN)
    t = Tape()
    p = dc.softmax(t, logits)
    buf = tr.RolloutBuffer()
    trn = tr.Transition(action=0, reward=float("nan"), dist=p)
    trn.value_out = vn.forward(t, np.ones(2))
    buf.transitions.append(trn)
    before = logits.values.copy()
    diag = tr.a2c_update(t, [buf], {"w": logits}, vn.params, cfg, {})
    assert diag["aborted"]
    np.testing.assert_array_equal(logits.values, before)
    # the abort fires on the policy group; stale value grads would be added
    # onto by the next backward
    assert all(q.grad is None for q in [logits, *vn.params.values()])


def test_update_refuses_a_transition_without_its_distribution():
    logits = dc.Tensor(np.zeros((2, 1)))
    vn = tr.ValueNet.create(np.random.default_rng(0), 2, HIDDEN)
    t = Tape()
    learnable = tr.Transition(action=0, reward=1.0, dist=dc.softmax(t, logits))
    buf = tr.RolloutBuffer(transitions=[learnable, tr.Transition(action=1, reward=1.0)])
    before = logits.values.copy()
    with pytest.raises(ValueError, match="dist"):
        tr.a2c_update(t, [buf], {"w": logits}, vn.params, tr.TrainConfig(), {})
    np.testing.assert_array_equal(logits.values, before)


def test_rollout_clean_buffers_and_zero_sum():
    items = make_items()
    nav, att, nav_val, att_val = make_models()
    cfg = tr.TrainConfig()
    rng = np.random.default_rng(0)
    res = tr.rollout_episode(items[0], nav, None, "eval", rng, cfg,
                             nav_value=nav_val)
    assert res.att_buffer is None
    assert all(t.reward in (-3.0, -1.0, 1.0, 3.0) for t in res.nav_buffer.transitions)

    res = tr.rollout_episode(items[0], nav, att, "att_learn", rng, cfg,
                             att_value=att_val)
    nav_r = [t.reward for t in res.nav_buffer.transitions]
    att_r = [t.reward for t in res.att_buffer.transitions]
    assert [a + n for a, n in zip(att_r, nav_r)] == [0.0] * len(nav_r)


def test_att_learn_needs_the_learned_attacker_and_no_attack_fn():
    # the opponent slot takes None, the learned attacker or a function; only
    # the learned attacker can learn, and there is no second slot to fill
    item = make_items()[0]
    nav, att, nav_val, att_val = make_models()
    cfg, rng = tr.TrainConfig(), np.random.default_rng(0)
    for opponent in (None, tr._random_attack):
        with pytest.raises(ValueError, match="att_learn"):
            tr.rollout_episode(item, nav, opponent, "att_learn", rng, cfg,
                               att_value=att_val)
    with pytest.raises(TypeError, match="attack_fn"):
        tr.rollout_episode(item, nav, att, "eval", rng, cfg, attack_fn=tr._random_attack)


@pytest.mark.parametrize("mode", ["nav_learn", "att_learn"])
def test_learning_modes_refuse_a_missing_value_net_up_front(mode, monkeypatch):
    item = make_items()[0]
    nav, att, nav_val, att_val = make_models()

    def no_encode(*args, **kwargs):
        raise AssertionError("encoded before refusing")

    monkeypatch.setattr(Navigator, "encode", no_encode)
    monkeypatch.setattr(Attacker, "encode", no_encode)
    # the other player's value net does not stand in for the learner's
    other = dict(att_value=att_val) if mode == "nav_learn" else dict(nav_value=nav_val)
    for kwargs in ({}, other):
        with pytest.raises(ValueError, match=mode):
            tr.rollout_episode(item, nav, att, mode, np.random.default_rng(0),
                               tr.TrainConfig(), **kwargs)


def test_shared_encodings_refuse_another_instruction():
    first, other = make_items()[:2]
    assert first.instruction != other.instruction
    nav, att, _, _ = make_models()
    cfg, rng = tr.TrainConfig(), np.random.default_rng(0)
    encodings = tr.UpdateEncodings()
    tr.rollout_episode(first, nav, att, "eval", rng, cfg, encodings=encodings)
    # the learned attacker would score the first item's attack grid
    with pytest.raises(ValueError, match="another instruction"):
        tr.rollout_episode(other, nav, att, "eval", rng, cfg, encodings=encodings)
    # the navigator's entries are keyed by tokens, so other players may share them
    tr.rollout_episode(other, nav, tr._random_attack, "eval", rng, cfg,
                       encodings=encodings)
    # instructions compare by value: a rebuilt copy of the first one is its own
    again = ins.make_instruction(first.instruction.tokens, ins.build_vocabulary())
    tr.rollout_episode(first._replace(instruction=again), nav, att, "eval", rng, cfg,
                       encodings=encodings)


def test_shared_encodings_are_bound_to_their_tapes():
    item = make_items()[0]
    nav, att, nav_val, att_val = make_models()
    cfg, rng = tr.TrainConfig(), np.random.default_rng(0)
    encodings = tr.UpdateEncodings()
    res = tr.rollout_episode(item, nav, att, "nav_learn", rng, cfg,
                             nav_value=nav_val, encodings=encodings)
    tr.rollout_episode(item, nav, att, "nav_teacher", rng, cfg, tape=res.tape,
                       encodings=encodings)
    # the frozen attacker's encoding is untaped, and the navigator's cells
    # live on res.tape: neither may feed a rollout on another tape
    with pytest.raises(ValueError, match="other tapes"):
        tr.rollout_episode(item, nav, att, "att_learn", rng, cfg,
                           att_value=att_val, encodings=encodings)
    with pytest.raises(ValueError, match="other tapes"):
        tr.rollout_episode(item, nav, att, "nav_learn", rng, cfg,
                           nav_value=nav_val, encodings=encodings)
    with pytest.raises(ValueError, match="other tapes"):
        tr.rollout_episode(item, nav, att, "eval", rng, cfg, encodings=encodings)


def _count_encoder_work(monkeypatch, nav):
    """Count the navigator's encoder cells, the token sequences it encodes
    and the attacker's encodes, as a caller of each sees them."""
    counts = {"cells": 0, "seqs": set(), "att_encodes": 0}
    cell, nav_encode, att_encode = dc.lstm_cell, Navigator.encode, Attacker.encode

    def counting_cell(tape, params, prefix=""):
        step = cell(tape, params, prefix)
        if not (prefix.startswith("enc_") and params is nav.params):
            return step

        def counting_step(*args):
            counts["cells"] += 1
            return step(*args)

        return counting_step

    def counting_nav_encode(self, tape, tokens, *args, **kwargs):
        counts["seqs"].add(tuple(tokens))
        return nav_encode(self, tape, tokens, *args, **kwargs)

    def counting_att_encode(self, *args, **kwargs):
        counts["att_encodes"] += 1
        return att_encode(self, *args, **kwargs)

    monkeypatch.setattr(dc, "lstm_cell", counting_cell)
    monkeypatch.setattr(Navigator, "encode", counting_nav_encode)
    monkeypatch.setattr(Attacker, "encode", counting_att_encode)
    return counts


def test_navigator_update_runs_each_encoder_cell_once(monkeypatch):
    items = make_items()[:3]
    nav, att, nav_val, _ = make_models()
    counts = _count_encoder_work(monkeypatch, nav)
    cfg, rng = tr.TrainConfig(), np.random.default_rng(0)
    for item in items:
        tokens = item.instruction.tokens
        n = len(tokens)
        for opponent in (None, att, tr._random_attack):
            counts.update(cells=0, seqs=set(), att_encodes=0)
            tr.navigator_update(item, nav, nav_val, cfg, rng, att=opponent, opt_state={})
            swapped = len(counts["seqs"] - {tokens})
            if opponent is None:
                assert counts["cells"] == 2 * n
            else:
                assert swapped >= 1
                # a swap at p re-runs forward cells p..n-1 and backward p..0
                assert counts["cells"] <= 2 * n + (n + 1) * swapped
            assert counts["att_encodes"] == (opponent is att)


@pytest.mark.parametrize("opponent", ["clean", "learned", "random"])
def test_navigator_update_steps_match_per_rollout_encodings(opponent, monkeypatch):
    # shared cells regroup the gradient sums; float64 steps must still agree
    item = make_items()[0]

    def steps():
        nav, att, nav_val, _ = make_models(seed=3, dtype=np.float64)
        params = {**{"nav." + k: q for k, q in nav.params.items()},
                  **{"val." + k: q for k, q in nav_val.params.items()}}
        before = {k: q.values.copy() for k, q in params.items()}
        tr.navigator_update(item, nav, nav_val, tr.TrainConfig(),
                            np.random.default_rng(5),
                            att={"clean": None, "learned": att,
                                 "random": tr._random_attack}[opponent], opt_state={})
        return {k: q.values - before[k] for k, q in params.items()}

    new = steps()
    legacy_encoding(monkeypatch)
    old = steps()
    assert any(np.any(v != 0) for v in new.values())
    for k in old:
        assert max_rel_error(new[k], old[k]) < 1e-9, k


def test_navigator_update_imitates_the_teacher_on_both_rollouts(monkeypatch):
    item = make_items()[0]
    nav, att, nav_val, _ = make_models()
    rollout, seen = tr.rollout_episode, []

    def recording(*args, **kwargs):
        seen.append(rollout(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(tr, "rollout_episode", recording)
    diag, _ = tr.navigator_update(item, nav, nav_val, tr.TrainConfig(),
                                  np.random.default_rng(0), att=att, opt_state={})
    teacher_forced, sampled = (
        [float(-np.log(trn.dist.values.reshape(-1)[trn.teacher]))
         for trn in res.nav_buffer.transitions] for res in seen)
    assert all(trn.use_rl is False for trn in seen[0].nav_buffer.transitions)
    assert diag["il"] == pytest.approx(sum(teacher_forced) + sum(sampled), rel=1e-5)
    assert diag["il"] > sum(teacher_forced) * (1 + 1e-5)


def test_attacker_update_steps_match_the_per_target_score(monkeypatch):
    # the grid score sums its softmaxes over masked zeros too; float64 steps
    # must still agree with the per-target loop
    items = make_items()[:3]

    def steps():
        nav, att, _, att_val = make_models(seed=3, dtype=np.float64)
        params = {**{"att." + k: q for k, q in att.params.items()},
                  **{"val." + k: q for k, q in att_val.params.items()}}
        before = {k: q.values.copy() for k, q in params.items()}
        acfg, rng = tr.TrainConfig().for_attacker(), np.random.default_rng(5)
        for item in items:
            tr.attacker_update(item, nav, att, att_val, acfg, rng, {})
        return {k: q.values - before[k] for k, q in params.items()}

    new = steps()
    legacy_attacker(monkeypatch)
    old = steps()
    assert any(np.any(v != 0) for v in new.values())
    for k in old:
        assert max_rel_error(new[k], old[k]) < 1e-9, k


@pytest.mark.parametrize("spec", ["SHORT_EVAL", "LONG"])
def test_greedy_validation_matches_the_composed_untaped_cell(spec, monkeypatch):
    # every cell of a greedy validation is untaped: the one-call forward must
    # give the results and trace rows of the composed primitives, bit for bit
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    bench = importlib.import_module("bench")
    items = bench.make_items(getattr(bench, spec), 1)[:64]
    models = bench.make_models(("nav", "att"))
    rollout, sigmoid, fused = tr.rollout_episode, dc._sigmoid, {"steps": 0}

    def counting_sigmoid(x):
        # each fused step calls it once and nothing else untaped does, so
        # this counts the steps however they reach the cell
        fused["steps"] += 1
        return sigmoid(x)

    def validate():
        rows = []

        def tracing(*args, **kwargs):
            res = rollout(*args, **kwargs)
            rows.append((res.nav_buffer.success, res.trace))
            return res

        with monkeypatch.context() as m:
            m.setattr(tr, "rollout_episode", tracing)
            out = tr.validate_navigator(items, models.nav, tr.TrainConfig(),
                                        att=models.att, seed=1)
        return out, rows

    with monkeypatch.context() as m:
        m.setattr(dc, "_sigmoid", counting_sigmoid)
        new = validate()
    routed = legacy_untaped_cell(monkeypatch)
    old = validate()
    # the swap must see every untaped cell, or the test compares the fused
    # path with itself
    assert routed["steps"] > 0 and routed["steps"] == fused["steps"]
    assert new[0] == old[0]
    assert len(new[1]) == len(old[1]) == 2 * len(items)
    for (succ_new, trace_new), (succ_old, trace_old) in zip(new[1], old[1]):
        assert succ_new == succ_old and len(trace_new) == len(trace_old)
        for r_new, r_old in zip(trace_new, trace_old):
            assert r_new.keys() == r_old.keys()
            for key in r_new:
                assert np.array_equal(r_new[key], r_old[key]), key


def test_rollout_perturbs_at_most_one_token_per_step():
    items = make_items()
    nav, att, nav_val, att_val = make_models()
    cfg = tr.TrainConfig()
    rng = np.random.default_rng(1)
    res = tr.rollout_episode(items[0], nav, att, "nav_learn", rng, cfg,
                             nav_value=nav_val, record_trace=True)
    for row in res.trace:
        assert "attacked_position" in row
        assert row["substitute_token"] != items[0].instruction.tokens[row["attacked_position"]]


def test_rollout_trace_prediction_matches_p_c():
    items = make_items()
    nav, att, nav_val, att_val = make_models()
    rng = np.random.default_rng(2)
    res = tr.rollout_episode(items[0], nav, att, "eval", rng, tr.TrainConfig(),
                             record_trace=True)
    for row in res.trace:
        assert row["predicted_target"] == int(np.argmax(row["p_c"]))


def test_aux_labels_equal_attacker_actions():
    items = make_items()
    nav, att, nav_val, att_val = make_models()
    rng = np.random.default_rng(3)
    res = tr.rollout_episode(items[0], nav, att, "nav_learn", rng,
                             tr.TrainConfig(), nav_value=nav_val,
                             record_trace=True)
    for trn, row in zip(res.nav_buffer.transitions, res.trace):
        assert trn.attacked_target == row["attacked_target"]


def test_alternation_log_matches_schedule():
    items = make_items(n_worlds=1, episodes=2)
    nav, att, nav_val, att_val = make_models()
    cfg = tr.TrainConfig(n_eta=3, n_pi=2, n_iter=2, lr=0.01)
    rng = np.random.default_rng(0)
    log = tr.adversarial_train(items, nav, att, nav_val, att_val, cfg, rng)
    assert log == ["eta", "eta", "eta", "pi", "pi", "eta", "eta", "eta", "pi", "pi"]


def test_frozen_player_bit_identical():
    items = make_items(n_worlds=1, episodes=2)
    nav, att, nav_val, att_val = make_models()
    cfg = tr.TrainConfig(lr=0.05)
    rng = np.random.default_rng(0)
    nav_digest = params_digest(nav.params)
    tr.train_attacker(items, nav, att, att_val, cfg, rng, iters=5)
    assert params_digest(nav.params) == nav_digest

    att_digest = params_digest(att.params)
    tr.train_navigator(items, nav, nav_val, cfg, rng, iters=5, att=att)
    assert params_digest(att.params) == att_digest


def test_params_digest_is_exact_for_float64():
    one = {"w": dc.Tensor(np.array([[1.0]]), dtype=np.float64)}
    nudged = {"w": dc.Tensor(np.array([[1.0 + 1e-12]]), dtype=np.float64)}
    as_f32 = {"w": dc.Tensor(np.array([[1.0]]), dtype=np.float32)}
    assert params_digest(one) != params_digest(nudged)
    # the dtype is part of the content: equal values, different digests
    assert params_digest(one) != params_digest(as_f32)
    assert params_digest(one) == params_digest(
        {"w": dc.Tensor(np.array([[1.0]]), dtype=np.float64)})


@pytest.mark.parametrize("field,value", [
    ("n_iter", 0), ("n_iter", -3), ("n_eta", -1), ("n_pi", -1),
    ("attacked_fraction", 1.5), ("attacked_fraction", -0.1),
    ("harden_random", -2.0), ("harden_random", 1.01),
    ("momentum", 1.0), ("momentum", -0.5), ("grad_clip", -1.0),
    ("att_gamma", 1.5), ("att_gamma", -0.1), ("att_lr", -1.0),
    ("att_rl_weight", -1.0), ("att_value_weight", -0.5),
    ("att_entropy_weight", -0.01), ("value_hidden", 0),
])
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        tr.TrainConfig(**{field: value})


@pytest.mark.parametrize("make,field,value", [
    (tr.TrainConfig, "n_eta", 2.5), (tr.TrainConfig, "n_pi", 1.5),
    (tr.TrainConfig, "n_iter", 1.5), (tr.TrainConfig, "value_hidden", 8.0),
    (w.WorldConfig, "n_nodes", 12.0), (w.WorldConfig, "d_v", 8.5),
    (w.WorldConfig, "horizon", 10.5), (w.WorldConfig, "j_max", 3.0),
    (w.WorldConfig, "seed", 1.5),
    (ModelDims, "d_w", 8.0), (ModelDims, "d_v", 6.5), (ModelDims, "d_p", 5.5),
    (ModelDims, "d_h", 7.5),
])
def test_integer_config_fields_refuse_non_integers(make, field, value):
    with pytest.raises(ValueError, match=f"{field} must be .*integer"):
        make(**{field: value})
    make(**{field: np.int64(value)})    # numpy integers are integers


def test_attacker_reward_improves_against_frozen_navigator():
    items = make_items(n_worlds=2, episodes=6, seed=5)
    nav, att, nav_val, att_val = make_models(seed=5)
    cfg = tr.TrainConfig(lr=0.05)
    rng = np.random.default_rng(5)
    # give the navigator a short clean warm-up so attacks have signal
    tr.train_navigator(items, nav, nav_val, cfg, rng, iters=150)
    rewards = []
    tr.train_attacker(items, nav, att, att_val, cfg, rng, iters=120,
                      log_fn=lambda rec: rewards.append(rec["reward"]))
    first = np.mean(rewards[:30])
    last = np.mean(rewards[-30:])
    assert last > first


def test_training_is_deterministic_for_fixed_seed():
    def run():
        items = make_items(n_worlds=1, episodes=3)
        nav, att, nav_val, att_val = make_models(seed=7)
        rng = np.random.default_rng(42)
        tr.train_navigator(items, nav, nav_val, tr.TrainConfig(), rng, iters=10)
        return params_digest(nav.params)

    assert run() == run()


def test_adversarial_train_reproduces_pinned_digests(monkeypatch):
    # Digests of this run as first recorded (numpy 2.4.6, OpenBLAS, x86-64).
    # With the earlier float compositions, the earlier per-rollout encoder
    # and the per-target attack score swapped back in, the shared encoder,
    # the single attacker update and the row lookups must reproduce them
    # bit for bit.
    legacy_numerics(monkeypatch)
    legacy_encoding(monkeypatch)
    legacy_attacker(monkeypatch)
    items = make_items(n_worlds=1, episodes=3)
    nav, att, nav_val, att_val = make_models(seed=7)
    cfg = tr.TrainConfig(n_eta=3, n_pi=2, n_iter=2)
    tr.adversarial_train(items, nav, att, nav_val, att_val, cfg,
                         np.random.default_rng(42))
    assert params_digest(nav.params) == \
        "8ef3ddadb56859b8bc976b2aabd3559156e7b49ec776c8814a59314b3bef8e7a"
    assert params_digest(att.params) == \
        "426c83733086bfb878699f1c6da8e68c40bc4c9bd54e84f45b170d9e891f4fdf"


def test_adversarial_train_pins_shared_encoding_digests():
    # The same run on the current path.  Encodes that share cells sum the
    # encoder's gradients in another order than per-rollout encodes, so
    # these digests differ from the ones above; the float64 parity of
    # test_navigator_update_steps_match_per_rollout_encodings bounds the gap.
    # The grid attack score's final softmax sums the masked zeros too, which
    # moves some float32 joints by an ulp: the attacker's digest changed with
    # it (test_attacker_update_steps_match_the_per_target_score bounds that
    # gap), while its greedy picks, and so the navigator's digest, did not.
    items = make_items(n_worlds=1, episodes=3)
    nav, att, nav_val, att_val = make_models(seed=7)
    cfg = tr.TrainConfig(n_eta=3, n_pi=2, n_iter=2)
    tr.adversarial_train(items, nav, att, nav_val, att_val, cfg,
                         np.random.default_rng(42))
    assert params_digest(nav.params) == \
        "3521ae2a158013b3e1513565521f1ff14176e1b6db1a2e1296dbeaf9180c572d"
    assert params_digest(att.params) == \
        "132dd94772be858760db79728010cf52c099c93a07851c326143325cf94f8e82"


DIAG_KEYS = {"pg", "value", "entropy", "il", "aux", "grad_norm", "value_grad_norm",
             "loss", "aborted"}


def test_log_records_of_all_three_stages_share_one_schema():
    items = make_items()
    nav, att, nav_val, att_val = make_models()
    cfg = tr.TrainConfig(n_eta=3, n_pi=2, n_iter=2)
    rng = np.random.default_rng(0)
    pre_nav, pre_att, adv = [], [], []
    tr.train_navigator(items, nav, nav_val, cfg, rng, iters=3, log_fn=pre_nav.append)
    tr.train_attacker(items, nav, att, att_val, cfg, rng, iters=3, log_fn=pre_att.append)
    update_log = tr.adversarial_train(items, nav, att, nav_val, att_val, cfg, rng,
                                      log_fn=adv.append)
    head = ["stage", "iteration", "player", "reward", "success"]
    for recs, stage, player in ((pre_nav, "pretrain_nav", "nav"),
                                (pre_att, "pretrain_att", "att")):
        assert [(r["stage"], r["iteration"], r["player"]) for r in recs] == \
            [(stage, it, player) for it in range(3)]
        for r in recs:
            assert list(r)[:5] == head and set(list(r)[5:]) == DIAG_KEYS
    assert [(r["round"], r["iteration"]) for r in adv] == \
        [(rnd, it) for rnd in range(2) for it in (0, 1, 2, 0, 1)]
    assert [r["player"] for r in adv] == \
        [{"eta": "nav", "pi": "att"}[u] for u in update_log]
    for r in adv:
        assert list(r)[:6] == ["stage", "round", *head[1:]] and r["stage"] == "adversarial"
        assert set(list(r)[6:]) == DIAG_KEYS
    for r in pre_nav + pre_att + adv:
        assert type(r["success"]) is int and isinstance(r["reward"], float)
        assert all(r[k] == round(r[k], 6) for k in DIAG_KEYS if isinstance(r[k], float))


def test_training_refuses_a_frozen_player_that_changed(monkeypatch):
    items = make_items()
    nav, att, nav_val, att_val = make_models()
    cfg, rng = tr.TrainConfig(), np.random.default_rng(0)

    def nudging(update, params):
        def wrapped(*args, **kwargs):
            out = update(*args, **kwargs)
            params["embed"].values = params["embed"].values + np.float32(1e-3)
            return out
        return wrapped

    with monkeypatch.context() as m:
        m.setattr(tr, "navigator_update", nudging(tr.navigator_update, att.params))
        with pytest.raises(RuntimeError, match="frozen attacker"):
            tr.train_navigator(items, nav, nav_val, cfg, rng, iters=2, att=att)
    with monkeypatch.context() as m:
        m.setattr(tr, "attacker_update", nudging(tr.attacker_update, nav.params))
        with pytest.raises(RuntimeError, match="frozen navigator"):
            tr.train_attacker(items, nav, att, att_val, cfg, rng, iters=2)


@pytest.mark.parametrize("spec", ["SHORT_EVAL", "LONG"])
def test_validation_matches_rollouts_with_their_own_encodings(spec, monkeypatch):
    # each item's attacked episode reuses its clean episode's encoder cells;
    # results and episodes must equal two passes of rollouts that each
    # encode afresh, bit for bit
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    bench = importlib.import_module("bench")
    items = bench.make_items(getattr(bench, spec), 1)[:64]
    models = bench.make_models(("nav", "att"))
    nav, att, cfg = models.nav, models.att, tr.TrainConfig()
    rollout, seen = tr.rollout_episode, []

    def recording(*args, **kwargs):
        seen.append(rollout(*args, **kwargs))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(tr, "rollout_episode", recording)
        out = tr.validate_navigator(items, nav, cfg, att=att, seed=1)
    clean = [rollout(item, nav, None, "eval", np.random.default_rng([1, i]), cfg)
             for i, item in enumerate(items)]
    attacked = [rollout(item, nav, att, "eval", np.random.default_rng([1, i]), cfg,
                        record_trace=True) for i, item in enumerate(items)]
    rows = [row for res in attacked for row in res.trace if "attacked_target" in row]
    hits = sum(row["predicted_target"] == row["attacked_target"] for row in rows)
    assert out == {"clean": sum(r.nav_buffer.success for r in clean) / len(items),
                   "attacked": sum(r.nav_buffer.success for r in attacked) / len(items),
                   "aux_acc": hits / len(rows)}
    expect = [res for pair in zip(clean, attacked) for res in pair]
    assert len(seen) == len(expect) == 2 * len(items)
    for got, ref in zip(seen, expect):
        assert got.nav_buffer.success == ref.nav_buffer.success
        assert got.episode.trajectory == ref.episode.trajectory
        assert len(got.trace) == len(ref.trace)
        for r_got, r_ref in zip(got.trace, ref.trace):
            assert r_got.keys() == r_ref.keys()
            for key in r_got:
                assert np.array_equal(r_got[key], r_ref[key]), key


def test_validation_refuses_an_empty_item_list():
    # a success rate over zero episodes is no rate at all
    nav, att, _, _ = make_models()
    for kwargs in ({}, dict(att=att)):
        with pytest.raises(ValueError, match="no items"):
            tr.validate_navigator([], nav, tr.TrainConfig(), **kwargs)
    with pytest.raises(ValueError, match="no items"):
        tr.evaluate_success([], nav, tr.TrainConfig())


def test_attacked_validation_reuses_the_clean_episodes_cells(monkeypatch):
    items = make_items()[:3]
    nav, att, _, _ = make_models()
    counts = _count_encoder_work(monkeypatch, nav)
    for item in items:
        counts.update(cells=0, seqs=set())
        tr.validate_navigator([item], nav, tr.TrainConfig(), att=att)
        n, swapped = len(item.instruction.tokens), len(counts["seqs"]) - 1
        assert swapped >= 1
        # each distinct swap re-runs n+1 cells; a fresh memo would re-run
        # all 2n cells for the first one
        assert counts["cells"] == 2 * n + (n + 1) * swapped


def test_greedy_episodes_stack_gates_per_encode_and_decoder_step(monkeypatch):
    # untaped, the gate weights are stacked once per encoder direction of an
    # encode and once per decoder step, never once per encoder cell
    items = make_items()[:3]
    nav, att, _, _ = make_models()
    counts = _count_encoder_work(monkeypatch, nav)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name, owner, attr in (("stackings", dc, "_stack_gates"),
                              ("nav_encodes", Navigator, "encode"),
                              ("decoder_steps", Navigator, "decode_with_visual")):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    for item in items:
        for opponent in (None, att):
            counts.update(cells=0, att_encodes=0, stackings=0, nav_encodes=0,
                          decoder_steps=0)
            tr.rollout_episode(item, nav, opponent, "eval", np.random.default_rng(0),
                               tr.TrainConfig())
            assert counts["att_encodes"] == (opponent is not None)
            assert counts["stackings"] == (2 * counts["nav_encodes"]
                                           + 2 * counts["att_encodes"]
                                           + counts["decoder_steps"])
            assert counts["cells"] > 2 * counts["nav_encodes"] >= 2


class CountingRng:
    """Delegates to a generator and records each ``random()`` draw."""

    def __init__(self, rng, events):
        self._rng, self._events = rng, events

    def random(self):
        self._events.append("draw")
        return self._rng.random()

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_random_draws_only_choose_the_hardening_opponent(monkeypatch):
    # A benchmark contract: a schedule stream that serves random() alone
    # fixes which navigator updates are attacked, and nothing else
    items = make_items(n_worlds=1, episodes=3)
    nav, att, nav_val, att_val = make_models()
    events, updates = [], []
    nav_update, att_update = tr.navigator_update, tr.attacker_update

    def nav_recording(*args, att=None, **kwargs):
        kind = {None: "clean", tr._random_attack: "random"}.get(att, "learned")
        updates.append(("eta", kind))
        events.append("eta")
        out = nav_update(*args, att=att, **kwargs)
        events.append("end")
        return out

    def att_recording(*args, **kwargs):
        updates.append(("pi", None))
        events.append("pi")
        out = att_update(*args, **kwargs)
        events.append("end")
        return out

    monkeypatch.setattr(tr, "navigator_update", nav_recording)
    monkeypatch.setattr(tr, "attacker_update", att_recording)
    cfg = tr.TrainConfig(n_eta=6, n_pi=2, n_iter=3, harden_random=0.5)
    tr.adversarial_train(items, nav, att, nav_val, att_val, cfg,
                         CountingRng(np.random.default_rng(1), events))
    # one draw per navigator update, one more per attacked one, none for
    # the attacker's updates or inside any update
    expect = []
    for player, kind in updates:
        draws = 0 if player == "pi" else 1 if kind == "clean" else 2
        expect += ["draw"] * draws + [player, "end"]
    assert events == expect
    assert {kind for _, kind in updates} == {None, "clean", "learned", "random"}
    assert sum(player == "eta" for player, _ in updates) == cfg.n_eta * cfg.n_iter

    events.clear()
    tr.train_navigator(items, nav, nav_val, cfg, CountingRng(np.random.default_rng(2),
                                                             events), iters=4)
    assert events == ["eta", "end"] * 4


def _rollout_fingerprint(res):
    """Hash what a rollout records: tape length, each navigator transition's
    action, reward, teacher, attacked target and which taped outputs it
    carries, the attacker's rewards, and the trace rows' keys and bytes."""
    h = hashlib.sha256(repr(None if res.tape is None else len(res.tape)).encode())
    for trn in res.nav_buffer.transitions:
        h.update(repr((trn.action, trn.reward, trn.teacher, trn.attacked_target,
                       trn.dist is not None, trn.value_out is not None,
                       trn.p_c is not None)).encode())
    if res.att_buffer is not None:
        h.update(repr([(trn.reward, trn.dist is not None, trn.value_out is not None)
                       for trn in res.att_buffer.transitions]).encode())
    for row in res.trace:
        for key, value in row.items():
            value = np.asarray(value)
            h.update(repr((key, value.dtype.str, value.shape)).encode())
            h.update(value.tobytes())
    return h.hexdigest()[:16]


ROLLOUT_FINGERPRINTS = {
    ("eval", "clean"): ["2abb268d4f2022a0", "b61fc8798cdc8d5e", "3d1e5b0e3aa2d6f7"],
    ("eval", "learned"): ["75c6c092c5cc966e", "657f4c909683dfaa", "0b6e04f202bae453"],
    ("eval", "random"): ["c61efea3e88a272e", "1e85beeef063a1c1", "63345489e896539a"],
    ("nav_learn", "clean"): ["18a6cbddc8ab873e", "2623e18c398f299c", "be44b21b1b830487"],
    ("nav_learn", "learned"): ["be5794a4b55084ae", "6f64fe62763a0bb7", "37b056a76aa2c695"],
    ("nav_learn", "random"): ["d2df6112ca508419", "60c292a5bcd72a49", "cfb03b3d333b5f2a"],
    ("nav_teacher", "clean"): ["aa0c53c4acd50b5d", "a2650a5fe21cba5a", "0033a7e36cd8efc1"],
    ("nav_teacher", "learned"): ["24523ae456677b41", "e1f672a3b0868f53", "a0d46796467cbb20"],
    ("nav_teacher", "random"): ["18a4c74ba6d7b633", "3df4fbeb28eee3f5", "11f6e349d3bf3523"],
    ("att_learn", "learned"): ["7aea27b3d1433a44", "a0f3195b8b8fa7d6", "06b0aafa9de087ec"],
}


@pytest.mark.parametrize("mode,opponent", sorted(ROLLOUT_FINGERPRINTS))
def test_rollouts_reproduce_pinned_fingerprints(mode, opponent):
    # every mode with every opponent it accepts, pinned (numpy 2.4.6, OpenBLAS,
    # x86-64) before the step loop was reorganised: the rollouts must record
    # the same moves, bit for bit
    items = make_items()[:3]
    nav, att, nav_val, att_val = make_models()
    values = {"nav_learn": dict(nav_value=nav_val), "att_learn": dict(att_value=att_val)}
    digests = []
    for i, item in enumerate(items):
        res = tr.rollout_episode(
            item, nav, {"clean": None, "learned": att, "random": tr._random_attack}[opponent],
            mode, np.random.default_rng([3, i]), tr.TrainConfig(),
            record_trace=True, **values.get(mode, {}))
        digests.append(_rollout_fingerprint(res))
        if mode == "att_learn":
            n = item.instruction.n_targets
            assert [trn.action // n for trn in res.att_buffer.transitions] == \
                [trn.attacked_target for trn in res.nav_buffer.transitions]
    assert digests == ROLLOUT_FINGERPRINTS[mode, opponent]
