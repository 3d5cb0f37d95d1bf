import dataclasses

import numpy as np
import pytest

from gradcheck import max_rel_error, numeric_gradient
import straightline as sl
from legacy_ops import legacy_attacker
from legacy_ops import select_attack as legacy_select_attack
from advnav import diffcore as dc
from advnav import instruct as ins
from advnav import world as w
from advnav.attacker import Attacker
from advnav.diffcore import Tape, Tensor, backward
from advnav.navigator import (ModelDims, Navigator, encode_tokens, greedy_action,
                              sample_action)

DIMS = ModelDims(d_w=8, d_v=6, d_p=5, d_h=7)


@pytest.fixture(scope="module")
def vocab():
    return ins.build_vocabulary()


def make_attacker(seed=0, dims=DIMS, dtype=np.float32):
    return Attacker.create(np.random.default_rng(seed), ins.build_vocabulary(), dims,
                           dtype=dtype)


def instr_of(vocab, text):
    return ins.make_instruction(tuple(vocab.id_of(x) for x in text.split()), vocab)


def rollout_pick(score, mode, rng=None):
    """The cell ``rollout_episode`` picks for the learned attacker: a draw
    from ``p_flat`` when it learns ('sample'), else the argmax."""
    return sample_action(score.p_flat, rng) if mode == "sample" \
        else greedy_action(score.p_flat)


def test_zero_projections_give_uniform_everything(vocab):
    att = make_attacker(1)
    att.params["w_w"] = Tensor(np.zeros((DIMS.d_w, DIMS.d_p)))
    instr = instr_of(vocab, "go to the table in the kitchen with the sofa")
    enc = att.encode(None, instr)
    score = att.attack_score(None, enc, np.zeros(DIMS.d_v))
    np.testing.assert_allclose(score.beta, np.full(3, 1 / 3), atol=1e-6)
    for j in range(3):
        row = score.gamma[j][score.valid[j]]
        np.testing.assert_allclose(row, np.full(len(row), 1 / len(row)), atol=1e-6)
    np.testing.assert_allclose(score.p_flat.values[score.valid], np.full(6, 1 / 6),
                               atol=1e-6)
    assert not score.p_flat.values[~score.valid].any()


def test_identical_target_features_give_symmetric_beta(vocab):
    att = make_attacker(2)
    instr = instr_of(vocab, "walk past the table into the kitchen")
    enc = att.encode(None, instr)
    # overwrite the two target rows with the same feature
    same = enc.f_w.values[0:1].copy()
    enc_same = dataclasses.replace(enc, f_w=Tensor(np.vstack([same, same])))
    score = att.attack_score(None, enc_same, np.ones(DIMS.d_v))
    np.testing.assert_allclose(score.beta, [0.5, 0.5], atol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_attack_score_matches_straight_line_oracle(seed, vocab):
    rng = np.random.default_rng(seed)
    att = make_attacker(seed, dtype=np.float64)
    instr = instr_of(vocab, "go to the table in the kitchen with the sofa then the bed")
    enc = att.encode(None, instr)
    f_v = rng.normal(size=(1, DIMS.d_v))
    score = att.attack_score(None, enc, f_v)

    p = sl.np_params(att.params)
    u, f_w = sl.encode(p, instr.tokens, instr.target_set, DIMS.d_w)
    # each grid row's valid columns are that target's substitute words
    cand_feats = [u[[instr.target_set[i] for i in np.flatnonzero(row)]]
                  for row in instr.valid]
    beta, gammas, p_a = sl.attack_score(p, f_w, cand_feats, f_v)
    np.testing.assert_allclose(score.beta, beta.reshape(-1), atol=1e-6)
    for j, g in enumerate(gammas):
        np.testing.assert_allclose(score.gamma[j][score.valid[j]], g, atol=1e-6)
    # the valid cells, read row-major, run in the oracle's order
    np.testing.assert_allclose(score.p_flat.values[instr.valid], p_a, atol=1e-6)


def test_joint_distribution_is_valid_and_masked_cells_zero(vocab):
    att = make_attacker(3)
    # hand-build ragged grid rows to exercise the mask
    base = instr_of(vocab, "go to the table in the kitchen with the sofa")
    valid = base.valid.copy()
    valid[1, 2] = False
    instr = ins.Instruction(tokens=base.tokens, target_set=base.target_set, valid=valid)
    assert valid.sum(axis=1).tolist() == [2, 1, 2]
    enc = att.encode(None, instr)
    score = att.attack_score(None, enc, np.random.default_rng(0).normal(size=DIMS.d_v))
    assert np.array_equal(score.valid, valid)
    assert not score.p_flat.values[~score.valid].any()
    assert not score.gamma[~score.valid].any()
    assert abs(score.p_flat.values.sum() - 1.0) < 1e-6


def test_non_attackable_instruction_rejected(vocab):
    # an instruction with a target that has no substitute would leave that
    # grid row all masked; it is refused when built, before any score
    base = instr_of(vocab, "go to the table in the kitchen with the sofa")
    valid = base.valid.copy()
    valid[1] = False
    with pytest.raises(ValueError, match="no empty row"):
        ins.Instruction(tokens=base.tokens, target_set=base.target_set, valid=valid)
    with pytest.raises(ValueError, match="no empty row"):
        instr_of(vocab, "walk past the table then the table")


@pytest.mark.parametrize("n_targets", [2, 3, 8])
def test_taped_attack_score_is_ten_ops(n_targets, vocab):
    att = make_attacker(4)
    words = [vocab.word(i) for i in range(len(vocab.words)) if vocab.is_landmark(i)]
    instr = instr_of(vocab, " ".join(["go to the " + x for x in words[:n_targets]]))
    assert instr.n_targets == n_targets
    tape = Tape()
    enc = att.encode(tape, instr)
    before = len(tape)
    att.attack_score(tape, enc, np.ones(DIMS.d_v))
    assert len(tape) - before == 10


def generated_cases(n_worlds=3, episodes=4):
    """(instruction, start view) pairs from generated worlds and routes."""
    rng = np.random.default_rng(11)
    out = []
    for ws in range(n_worlds):
        g = w.generate_world(w.WorldConfig(seed=ws, n_nodes=20, d_v=DIMS.d_v, horizon=14))
        for e in range(episodes):
            a, b = (int(x) for x in rng.choice(g.n_nodes, size=2, replace=False))
            ep = w.make_episode(g, a, b)
            instr = ins.generate_instruction(g, ep, seed=100 * ws + e)
            out.extend((instr, view) for view in g.candidate_views(a))
    return out


def test_grid_score_matches_the_per_target_score(monkeypatch):
    att = make_attacker(6, dtype=np.float64)
    cases = generated_cases()
    new = [att.attack_score(None, att.encode(None, instr), view) for instr, view in cases]
    legacy_attacker(monkeypatch)
    old = [att.attack_score(None, att.encode(None, instr), view) for instr, view in cases]
    for a, b in zip(new, old):
        np.testing.assert_allclose(a.beta, b.beta, rtol=1e-12, atol=0)
        assert np.array_equal(a.valid, b.valid)
        np.testing.assert_allclose(a.gamma, b.gamma, rtol=1e-12, atol=0)
        np.testing.assert_allclose(a.p_flat.values.reshape(-1), b.p_flat.values.reshape(-1),
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grid_picks_match_the_per_target_picks(dtype, monkeypatch):
    att = make_attacker(8, dtype=dtype)
    cases = generated_cases()

    def picks(select):
        rng = np.random.default_rng(3)
        out = []
        for instr, view in cases:
            score = att.attack_score(None, att.encode(None, instr), view)
            out.append((select(score, "greedy"),
                        [select(score, "sample", rng) for _ in range(10)]))
        return out

    new = picks(rollout_pick)
    legacy_attacker(monkeypatch)
    assert new == picks(legacy_select_attack)


def test_select_degenerate_distribution(vocab):
    att = make_attacker(0)
    instr = instr_of(vocab, "walk past the table into the kitchen")
    enc = att.encode(None, instr)
    score = att.attack_score(None, enc, np.zeros(DIMS.d_v))
    one_hot = np.zeros_like(score.p_flat.values)
    one_hot[1, 0] = 1.0
    score.p_flat.values = one_hot
    rng = np.random.default_rng(0)
    assert rollout_pick(score, "greedy") == rollout_pick(score, "sample", rng)
    assert rollout_pick(score, "greedy") == 2   # cell (1, 0) of the 2×2 grid


def test_greedy_tie_breaks_to_lowest_flat_index(vocab):
    att = make_attacker(0)
    instr = instr_of(vocab, "go to the table in the kitchen with the sofa")
    enc = att.encode(None, instr)
    score = att.attack_score(None, enc, np.zeros(DIMS.d_v))
    cells = np.flatnonzero(score.valid)
    flat = np.where(score.valid, 0.1, 0.0).reshape(-1)
    flat[cells[[2, 5]]] = 0.3  # the third and sixth valid cells tie
    score.p_flat.values = flat.reshape(score.valid.shape)
    assert rollout_pick(score, "greedy") == cells[2]


def test_uniform_sampling_frequencies(vocab):
    att = make_attacker(0)
    instr = instr_of(vocab, "walk past the table into the kitchen then the sofa then the bed")
    enc = att.encode(None, instr)
    score = att.attack_score(None, enc, np.zeros(DIMS.d_v))
    n = int(score.valid.sum())
    score.p_flat.values = np.where(score.valid, 1.0 / n, 0.0).astype(np.float32)
    rng = np.random.default_rng(123)
    counts = {}
    for _ in range(10000):
        a = rollout_pick(score, "sample", rng)
        counts[a] = counts.get(a, 0) + 1
    assert set(counts) == set(instr.valid_actions())
    freqs = np.array([counts[a] for a in instr.valid_actions()]) / 10000.0
    np.testing.assert_allclose(freqs, np.full(n, 1.0 / n), atol=0.02)


def test_attack_is_dynamic_in_the_visual_state(vocab):
    att = make_attacker(7)
    instr = instr_of(vocab, "go to the table in the kitchen with the sofa")
    enc = att.encode(None, instr)
    argmaxes = set()
    for word in ("table", "kitchen", "sofa", "bed", "garden"):
        f_v = w.landmark_feature(word, DIMS.d_v) * 3.0
        score = att.attack_score(None, enc, f_v)
        argmaxes.add(rollout_pick(score, "greedy"))
    assert len(argmaxes) >= 2  # some pair of states disagrees on the argmax


def test_attack_nll_gradients_match_finite_differences(vocab):
    dims = ModelDims(d_w=4, d_v=4, d_p=3, d_h=4)
    att = make_attacker(5, dims=dims, dtype=np.float64)
    instr = instr_of(vocab, "go to the table in the kitchen with the sofa")
    rng = np.random.default_rng(5)
    f_v = rng.normal(size=(1, dims.d_v))
    cell = 1 * 3 + 2  # grid cell (1, 2): "sofa" in place of "kitchen"

    def run():
        t = Tape()
        enc = att.encode(t, instr)
        score = att.attack_score(t, enc, f_v)
        return t, dc.cross_entropy(t, score.p_flat, cell)  # -log p_a[a]

    t, loss = run()
    backward(t, loss)
    names = ["w_w", "w_v", "w_wp", "embed"]
    analytic = {n: att.params[n].grad.copy() for n in names}
    numeric = numeric_gradient(lambda: run()[1].item(),
                               [att.params[n] for n in names])
    for n, num in zip(names, numeric):
        assert max_rel_error(analytic[n], num) < 1e-4, n


def test_navigator_and_attacker_share_one_encoder(vocab):
    att = make_attacker(2)
    shared = [k for k in att.params if k == "embed" or k.startswith("enc_")]
    nav = Navigator.create(np.random.default_rng(3), vocab, DIMS)
    nav.params.update({k: att.params[k] for k in shared})
    instr = instr_of(vocab, "go to the table in the kitchen with the sofa")
    enc_nav = nav.encode(None, instr.tokens, instr.target_set)
    assert np.array_equal(att.encode(None, instr).f_w.values, enc_nav.f_w.values)
    # every row, not only the targets'
    assert np.array_equal(encode_tokens(None, att.params, instr.tokens).values,
                          enc_nav.u.values)
    # both creators draw the encoder first, in the same order
    fresh = Navigator.create(np.random.default_rng(2), vocab, DIMS)
    for k in shared:
        assert np.array_equal(fresh.params[k].values, att.params[k].values), k
