import numpy as np
import pytest

from gradcheck import max_rel_error, numeric_gradient
import legacy_ops
import straightline as sl
from advnav import diffcore as dc
from advnav import instruct as ins
from advnav.diffcore import Tape, Tensor, backward
from advnav.navigator import (ModelDims, Navigator, encode_tokens, greedy_action,
                              sample_action)

DIMS = ModelDims(d_w=8, d_v=6, d_p=5, d_h=7)
VOCAB = ins.build_vocabulary()
N_TOKENS = 12       # random token ids are drawn from the first 12 words


def make_nav(seed=0, dims=DIMS, dtype=np.float32):
    return Navigator.create(np.random.default_rng(seed), VOCAB, dims, dtype=dtype)


def decode_step(nav, tape, enc, views, state):
    """One full decoder step, taken the way the rollout takes it."""
    _, f_v = nav.visual_attention(tape, views, state)
    return nav.decode_with_visual(tape, enc, views, f_v, state)


def test_encode_shapes():
    nav = make_nav()
    enc = nav.encode(None, (1, 2, 3, 4, 5), target_set=(1, 3))
    assert enc.u.values.shape == (5, DIMS.d_w)
    assert enc.f_w.values.shape == (2, DIMS.d_w)
    np.testing.assert_array_equal(enc.f_w.values[0], enc.u.values[1])


def test_encode_rejects_empty():
    with pytest.raises(ValueError):
        make_nav().encode(None, (), ())


def test_swapping_identical_tokens_leaves_encoding_unchanged():
    nav = make_nav(3)
    tokens = (2, 7, 4, 7, 5)
    swapped = (2, 7, 4, 7, 5)  # positions 1 and 3 hold the same token
    a = nav.encode(None, tokens, (1, 3)).u.values
    b = nav.encode(None, swapped, (1, 3)).u.values
    assert np.array_equal(a, b)


@pytest.mark.parametrize("length", [1, 2, 5, 40])
def test_untaped_encode_makes_one_step_per_direction(length, monkeypatch):
    # each step stacks its direction's gates once, whatever the length
    nav, cell, made = make_nav(), dc.lstm_cell, []

    def recording(tape, params, prefix=""):
        made.append((tape, prefix))
        return cell(tape, params, prefix)

    monkeypatch.setattr(dc, "lstm_cell", recording)
    tokens = tuple(i % N_TOKENS for i in range(length))
    memo = {}
    for _ in range(2):     # the second encode finds every cell in the memo
        made.clear()
        encode_tokens(None, nav.params, tokens, memo)
        assert made == [(None, "enc_f."), (None, "enc_b.")]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_memo_shared_encodes_of_one_word_swaps_equal_fresh_encodes(dtype):
    # a rollout encodes the original tokens and then one-word swaps of them;
    # cells shared through the memo must give what a full re-encode gives
    rng = np.random.default_rng(21)
    nav = make_nav(21, dtype=dtype)
    p = sl.np_params(nav.params)
    for length in (1, 2, 5, 40):
        tokens = tuple(int(t) for t in rng.integers(0, N_TOKENS, size=length))
        memo = {}
        nav.encode(None, tokens, (0,), memo=memo)
        for pos in range(length):
            new = (tokens[pos] + int(rng.integers(1, N_TOKENS))) % N_TOKENS
            swapped = tokens[:pos] + (new,) + tokens[pos + 1:]
            shared = nav.encode(None, swapped, target_set=(pos,), memo=memo)
            fresh = nav.encode(None, swapped, target_set=(pos,))
            assert np.array_equal(shared.u.values, fresh.u.values), (length, pos)
            assert np.array_equal(shared.f_w.values, fresh.f_w.values)
            u, _ = sl.encode(p, swapped, (), DIMS.d_w)
            np.testing.assert_allclose(shared.u.values, u, rtol=0,
                                       atol=1e-12 if dtype == np.float64 else 1e-6)


def test_memo_shared_encodes_match_fresh_encodes_in_gradient():
    nav = make_nav(23, dtype=np.float64)
    rng = np.random.default_rng(23)
    tokens = (1, 5, 2, 7, 3, 5)
    swapped = (1, 5, 9, 7, 3, 5)
    weights = Tensor(rng.normal(size=(2 * len(tokens), DIMS.d_w)), dtype=np.float64)

    def grads(encode):
        t = Tape()
        rows = dc.concat(t, [encode(t, tokens), encode(t, swapped)], axis=0)
        backward(t, dc.sum_reduce(t, dc.multiply(t, rows, weights)))
        out = {k: q.grad.copy() for k, q in nav.params.items() if q.grad is not None}
        dc.zero_grads(nav.params)
        return out, len(t)

    memo = {}
    shared, shared_ops = grads(lambda t, x: encode_tokens(t, nav.params, x, memo))
    fresh, fresh_ops = grads(lambda t, x: encode_tokens(t, nav.params, x))
    earlier, _ = grads(lambda t, x: legacy_ops.encode_tokens(t, nav.params, x))
    assert shared_ops < fresh_ops
    for other in (fresh, earlier):
        assert sorted(shared) == sorted(other)
        for k in other:
            assert max_rel_error(shared[k], other[k]) < 1e-9, k


def test_zero_language_attention_weights_give_uniform_alpha_w():
    nav = make_nav(1)
    nav.params["w_u"] = Tensor(np.zeros((DIMS.d_w, DIMS.d_h)))
    enc = nav.encode(None, (1, 2, 3, 4, 5), target_set=(0, 2))
    views = dc.constant(np.random.default_rng(0).normal(size=(4, DIMS.d_v)))
    out, _ = decode_step(nav, None, enc, views, nav.initial_state())
    np.testing.assert_allclose(out.alpha_w.values, np.full((5, 1), 0.2), atol=1e-6)


def test_zero_action_head_gives_uniform_policy():
    nav = make_nav(1)
    nav.params["w_a"] = Tensor(np.zeros((DIMS.d_v, DIMS.d_h)))
    enc = nav.encode(None, (1, 2, 3), target_set=(0,))
    views = dc.constant(np.random.default_rng(0).normal(size=(4, DIMS.d_v)))
    out, _ = decode_step(nav, None, enc, views, nav.initial_state())
    np.testing.assert_allclose(out.p_n.values, np.full((4, 1), 0.25), atol=1e-6)


def test_zero_reasoning_head_gives_uniform_p_c():
    nav = make_nav(1)
    nav.params["w_e"] = Tensor(np.zeros((DIMS.d_w, DIMS.d_p)))
    enc = nav.encode(None, (1, 2, 3, 4), target_set=(0, 2, 3))
    h_tilde = dc.constant(np.random.default_rng(2).normal(size=(1, DIMS.d_h)))
    p_c = nav.predict_attacked_word(None, h_tilde, enc.f_w)
    np.testing.assert_allclose(p_c.values, np.full((3, 1), 1 / 3), atol=1e-6)


def test_single_target_p_c_is_one():
    nav = make_nav(1)
    enc = nav.encode(None, (1, 2, 3), target_set=(1,))
    h_tilde = dc.constant(np.random.default_rng(2).normal(size=(1, DIMS.d_h)))
    p_c = nav.predict_attacked_word(None, h_tilde, enc.f_w)
    np.testing.assert_allclose(p_c.values, [[1.0]], atol=1e-7)


def test_decode_rejects_empty_views():
    nav = make_nav()
    enc = nav.encode(None, (1, 2), (0,))
    with pytest.raises(ValueError):
        decode_step(nav, None, enc, dc.constant(np.zeros((0, DIMS.d_v))),
                    nav.initial_state())


@pytest.mark.parametrize("seed", range(5))
def test_full_step_matches_straight_line_oracle(seed):
    rng = np.random.default_rng(seed)
    nav = make_nav(seed, dtype=np.float64)
    tokens = tuple(rng.integers(0, N_TOKENS, size=6))
    targets = (1, 3, 4)
    enc = nav.encode(None, tokens, target_set=targets)
    views = dc.constant(rng.normal(size=(5, DIMS.d_v)), dtype=np.float64)
    state = nav.initial_state()

    p = sl.np_params(nav.params)
    u, f_w = sl.encode(p, tokens, targets, DIMS.d_w)
    np.testing.assert_allclose(enc.u.values, u, atol=1e-6)

    h_tilde = np.zeros((1, DIMS.d_h))
    cell = np.zeros((1, DIMS.d_h))
    prev_a = p["a0"]
    for step in range(3):
        alpha_v, f_v = nav.visual_attention(None, views, state)
        out, new_state = nav.decode_with_visual(None, enc, views, f_v, state)
        ref = sl.nav_step(p, u, f_w, views.values, h_tilde, cell, prev_a)
        np.testing.assert_allclose(alpha_v.values.reshape(-1), ref["alpha_v"], atol=1e-6)
        np.testing.assert_allclose(f_v.values, ref["f_v"], atol=1e-6)
        np.testing.assert_allclose(out.alpha_w.values.reshape(-1), ref["alpha_w"], atol=1e-6)
        np.testing.assert_allclose(new_state.h_tilde.values, ref["h_tilde"], atol=1e-6)
        np.testing.assert_allclose(new_state.cell.values, ref["cell"], atol=1e-6)
        np.testing.assert_allclose(out.p_n.values, ref["p_n"].reshape(-1, 1), atol=1e-6)
        np.testing.assert_allclose(out.p_c.values, ref["p_c"].reshape(-1, 1), atol=1e-6)
        action = 1 + (step % (views.values.shape[0] - 1))
        state = nav.with_action(new_state, views, action)
        h_tilde, cell = ref["h_tilde"], ref["cell"]
        prev_a = views.values[action:action + 1]


def test_distributions_are_simplexes():
    rng = np.random.default_rng(9)
    nav = make_nav(9)
    enc = nav.encode(None, tuple(rng.integers(0, N_TOKENS, size=7)), target_set=(0, 2, 5))
    views = dc.constant(rng.normal(size=(4, DIMS.d_v)))
    alpha_v, f_v = nav.visual_attention(None, views, nav.initial_state())
    out, _ = nav.decode_with_visual(None, enc, views, f_v, nav.initial_state())
    for dist in (alpha_v, out.alpha_w, out.p_n, out.p_c):
        vals = dist.values.reshape(-1)
        assert abs(vals.sum() - 1.0) < 1e-6
        assert np.all(vals >= 0)


def test_argmax_invariant_to_positive_scaling_of_fused_state():
    rng = np.random.default_rng(4)
    nav = make_nav(4)
    views = dc.constant(rng.normal(size=(5, DIMS.d_v)))
    h_tilde = rng.normal(size=(1, DIMS.d_h))
    logits = views.values @ nav.params["w_a"].values @ h_tilde.T
    for c in (0.1, 2.0, 17.0):
        scaled = views.values @ nav.params["w_a"].values @ (c * h_tilde).T
        assert np.argmax(scaled) == np.argmax(logits)


def test_encoder_gradients_match_finite_differences():
    nav = make_nav(11, dims=ModelDims(d_w=4, d_v=4, d_p=3, d_h=4), dtype=np.float64)
    tokens = (1, 5, 2)

    def run():
        t = Tape()
        enc = nav.encode(t, tokens, target_set=(0, 2))
        return t, dc.sum_reduce(t, enc.u)

    t, loss = run()
    backward(t, loss)
    emb = nav.params["embed"]
    analytic = emb.grad.copy()
    numeric = numeric_gradient(lambda: run()[1].item(), [emb])[0]
    assert max_rel_error(analytic, numeric) < 1e-4


def test_step_gradients_match_finite_differences():
    dims = ModelDims(d_w=4, d_v=4, d_p=3, d_h=4)
    nav = make_nav(13, dims=dims, dtype=np.float64)
    rng = np.random.default_rng(13)
    tokens = (1, 5, 2, 7)
    views = Tensor(rng.normal(size=(3, dims.d_v)), dtype=np.float64)

    def run():
        t = Tape()
        enc = nav.encode(t, tokens, target_set=(1, 3))
        out, _ = decode_step(nav, t, enc, views, nav.initial_state())
        loss = dc.add(t, dc.cross_entropy(t, out.p_n, 1),
                      dc.cross_entropy(t, out.p_c, 0))
        return t, loss

    t, loss = run()
    backward(t, loss)
    names = sorted(nav.params)
    analytic = {n: nav.params[n].grad.copy() for n in names}
    numeric = numeric_gradient(lambda: run()[1].item(),
                               [nav.params[n] for n in names])
    for n, num in zip(names, numeric):
        assert max_rel_error(analytic[n], num) < 1e-4, n


def test_greedy_and_sample_action():
    p = dc.constant([[0.1], [0.7], [0.2]])
    assert greedy_action(p) == 1
    rng = np.random.default_rng(0)
    draws = [sample_action(p, rng) for _ in range(2000)]
    freq = np.bincount(draws, minlength=3) / len(draws)
    np.testing.assert_allclose(freq, [0.1, 0.7, 0.2], atol=0.04)


def test_imitation_loss_strictly_decreases_when_overfitting():
    from advnav import world as w
    g = w.generate_world(w.WorldConfig(seed=1))
    ep0 = w.make_episode(g, 0, int(np.argmax([w.geodesic_distance(g, 0, i)
                                              for i in range(g.n_nodes)])))
    instr = ins.generate_instruction(g, ep0, seed=0)
    nav = Navigator.create(np.random.default_rng(0), ins.build_vocabulary(),
                           ModelDims(d_w=16, d_v=g.config.d_v, d_p=16, d_h=16))

    losses = []
    for _ in range(50):
        t = Tape()
        enc = nav.encode(t, instr.tokens, target_set=instr.target_set)
        state = nav.initial_state()
        ep = ep0
        terms = []
        while not ep.done:
            views = dc.constant(g.candidate_views(ep.current))
            out, proto = decode_step(nav, t, enc, views, state)
            teach = w.teacher_action(ep)
            terms.append(dc.cross_entropy(t, out.p_n, teach))
            state = nav.with_action(proto, views, teach)
            ep, _ = w.step(ep, teach)  # teacher forcing
        loss = terms[0]
        for term in terms[1:]:
            loss = dc.add(t, loss, term)
        losses.append(loss.item())
        backward(t, loss)
        for p in nav.params.values():
            p.values = (p.values - 0.05 * p.grad).astype(p.values.dtype)
        dc.zero_grads(nav.params)
    assert all(b < a for a, b in zip(losses, losses[1:])), losses
