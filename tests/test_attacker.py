import numpy as np
import pytest

import straightline as sl
from advnav import diffcore as dc
from advnav import instruct as ins
from advnav import world as w
from advnav.attacker import Attacker, select_attack
from advnav.diffcore import Tape, Tensor, backward, max_rel_error, numeric_gradient
from advnav.navigator import ModelDims, Navigator

DIMS = ModelDims(d_w=8, d_v=6, d_p=5, d_h=7)


@pytest.fixture(scope="module")
def vocab():
    return ins.build_vocabulary()


def make_attacker(seed=0, dims=DIMS, vocab_size=None, dtype=np.float32):
    vocab_size = vocab_size or len(ins.build_vocabulary())
    return Attacker.create(np.random.default_rng(seed), vocab_size, dims, dtype=dtype)


def instr_of(vocab, text):
    return ins.make_instruction(tuple(vocab.id_of(x) for x in text.split()), vocab)


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
    flat = score.p_flat.values.reshape(-1)
    np.testing.assert_allclose(flat, np.full(6, 1 / 6), atol=1e-6)


def test_identical_target_features_give_symmetric_beta(vocab):
    att = make_attacker(2)
    instr = instr_of(vocab, "walk past the table into the kitchen")
    enc = att.encode(None, instr)
    # overwrite the two target rows with the same feature
    same = enc.f_w.values[0:1].copy()
    enc_same = type(enc)(u=enc.u, f_w=Tensor(np.vstack([same, same])),
                         cand_feats=enc.cand_feats, instruction=instr)
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
    cand_feats = [u[[c.source_pos for c in cands]] if cands else None
                  for cands in instr.candidates]
    beta, gammas, p_a = sl.attack_score(p, f_w, cand_feats, f_v)
    np.testing.assert_allclose(score.beta, beta.reshape(-1), atol=1e-6)
    np.testing.assert_allclose(score.p_flat.values.reshape(-1), p_a, atol=1e-6)


def test_joint_distribution_is_valid_and_masked_cells_zero(vocab):
    att = make_attacker(3)
    # hand-build ragged candidate lists to exercise the padded layout
    base = instr_of(vocab, "go to the table in the kitchen with the sofa")
    instr = ins.Instruction(tokens=base.tokens, target_set=base.target_set,
                            candidates=(base.candidates[0],
                                        base.candidates[1][:1],
                                        base.candidates[2]))
    assert instr.k_max == 2 and min(len(c) for c in instr.candidates) == 1
    enc = att.encode(None, instr)
    score = att.attack_score(None, enc, np.random.default_rng(0).normal(size=DIMS.d_v))
    # every probability row belongs to a real cell, and every real cell has one
    assert all(score.valid[j, k] for j, k in score.index_map)
    assert len(set(score.index_map)) == len(score.index_map) == score.valid.sum()
    assert abs(score.p_flat.values.sum() - 1.0) < 1e-6


def test_non_attackable_instruction_rejected(vocab):
    att = make_attacker(0)
    instr = instr_of(vocab, "walk past the table then the table")
    assert not instr.attackable
    enc = att.encode(None, instr)
    with pytest.raises(ValueError):
        att.attack_score(None, enc, np.zeros(DIMS.d_v))


def test_select_degenerate_distribution(vocab):
    att = make_attacker(0)
    instr = instr_of(vocab, "walk past the table into the kitchen")
    enc = att.encode(None, instr)
    score = att.attack_score(None, enc, np.zeros(DIMS.d_v))
    one_hot = np.zeros_like(score.p_flat.values)
    one_hot[1, 0] = 1.0
    score.p_flat.values = one_hot
    rng = np.random.default_rng(0)
    assert select_attack(score, "greedy") == select_attack(score, "sample", rng)
    assert select_attack(score, "greedy") == ins.AttackAction(1, 0)


def test_greedy_tie_breaks_to_lowest_flat_index(vocab):
    att = make_attacker(0)
    instr = instr_of(vocab, "go to the table in the kitchen with the sofa")
    enc = att.encode(None, instr)
    score = att.attack_score(None, enc, np.zeros(DIMS.d_v))
    vals = np.full_like(score.p_flat.values, 0.1)
    vals[2, 0] = 0.3  # flat rows 2 and 5 tie
    vals[5, 0] = 0.3
    score.p_flat.values = vals
    action = select_attack(score, "greedy")
    assert score.index_map[2] == (action.target_index, action.candidate_index)


def test_uniform_sampling_frequencies(vocab):
    att = make_attacker(0)
    instr = instr_of(vocab, "walk past the table into the kitchen then the sofa then the bed")
    enc = att.encode(None, instr)
    score = att.attack_score(None, enc, np.zeros(DIMS.d_v))
    n = score.p_flat.values.size
    score.p_flat.values = np.full((n, 1), 1.0 / n, dtype=np.float32)
    picks = [idx for idx in range(4)]
    rng = np.random.default_rng(123)
    counts = {}
    for _ in range(10000):
        a = select_attack(score, "sample", rng)
        counts[a] = counts.get(a, 0) + 1
    freqs = np.array([counts.get(score.index_map[i] and ins.AttackAction(*score.index_map[i]), 0)
                      for i in range(n)]) / 10000.0
    np.testing.assert_allclose(freqs, np.full(n, 1.0 / n), atol=0.02)


def test_attack_is_dynamic_in_the_visual_state(vocab):
    att = make_attacker(7)
    instr = instr_of(vocab, "go to the table in the kitchen with the sofa")
    enc = att.encode(None, instr)
    argmaxes = set()
    for word in ("table", "kitchen", "sofa", "bed", "garden"):
        f_v = w.landmark_feature(word, DIMS.d_v) * 3.0
        score = att.attack_score(None, enc, f_v)
        argmaxes.add(select_attack(score, "greedy"))
    assert len(argmaxes) >= 2  # some pair of states disagrees on the argmax


def test_attack_nll_gradients_match_finite_differences(vocab):
    dims = ModelDims(d_w=4, d_v=4, d_p=3, d_h=4)
    att = make_attacker(5, dims=dims, dtype=np.float64)
    instr = instr_of(vocab, "go to the table in the kitchen with the sofa")
    rng = np.random.default_rng(5)
    f_v = rng.normal(size=(1, dims.d_v))

    def run():
        t = Tape()
        enc = att.encode(t, instr)
        score = att.attack_score(t, enc, f_v)
        return t, dc.cross_entropy(t, score.p_flat, 3)  # -log p_a[a]

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
    nav = Navigator.create(np.random.default_rng(3), len(vocab), DIMS)
    nav.params.update({k: att.params[k] for k in shared})
    instr = instr_of(vocab, "go to the table in the kitchen with the sofa")
    u_att = att.encode(None, instr).u.values
    u_nav = nav.encode(None, instr.tokens, instr.target_set).u.values
    assert np.array_equal(u_att, u_nav)
    # both creators draw the encoder first, in the same order
    fresh = Navigator.create(np.random.default_rng(2), len(vocab), DIMS)
    for k in shared:
        assert np.array_equal(fresh.params[k].values, att.params[k].values), k
