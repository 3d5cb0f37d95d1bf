import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import max_rel_error, numeric_gradient
import legacy_ops
from advnav import diffcore as dc
from advnav.diffcore import (
    EngineError, Tape, Tensor, add, attend, backward, concat, constant,
    cross_entropy, embedding, gather_rows, init_lstm_params,
    init_uniform, lstm_cell, matmul, multiply, rowdot, scale, sigmoid, softmax,
    sum_reduce, tanh, zero_grads,
)


def test_softmax_symmetry():
    t = Tape()
    x = constant([[0.0, 0.0]])
    y = softmax(t, x)
    np.testing.assert_allclose(y.values, [[0.5, 0.5]], atol=1e-7)


def test_matmul_identity():
    t = Tape()
    a = constant([[1.3, -2.0], [0.5, 4.0]])
    eye = constant(np.eye(2))
    out = matmul(t, eye, a)
    np.testing.assert_array_equal(out.values, a.values)


def test_random_tape_matches_hand_rolled():
    rng = np.random.default_rng(3)
    xv = rng.normal(size=(2, 3)).astype(np.float32)
    wv = rng.normal(size=(3, 3)).astype(np.float32)
    t = Tape()
    x = constant(xv)
    w = constant(wv)
    h = matmul(t, x, w)
    a = tanh(t, h)
    s = softmax(t, a, axis=1)

    expect = xv @ wv
    expect = np.tanh(expect)
    e = np.exp(expect - expect.max(axis=1, keepdims=True))
    expect = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(s.values, expect, atol=1e-6)


def test_shape_mismatch_rejected():
    t = Tape()
    a = constant([[1.0, 2.0]])
    b = constant([[1.0, 2.0, 3.0]])
    with pytest.raises(EngineError):
        add(t, a, b)
    with pytest.raises(EngineError):
        matmul(t, a, b)


def test_item_rejects_non_scalars():
    assert constant([[2.5]]).item() == 2.5
    with pytest.raises(EngineError):
        constant([[3.0, 4.0]]).item()
    with pytest.raises(EngineError):
        Tensor(np.zeros((0, 1))).item()


@pytest.mark.parametrize("values", [np.zeros(3), np.zeros((2, 2, 2)), 1.0, [[[1.0]]]])
def test_tensor_refuses_values_that_are_not_2d(values):
    with pytest.raises(EngineError, match="2-D"):
        Tensor(values)


def test_backward_sum_gives_ones():
    t = Tape()
    x = constant([[1.0, -2.0, 3.0, 0.5]])
    loss = sum_reduce(t, x)
    backward(t, loss)
    np.testing.assert_array_equal(x.grad, np.ones((1, 4), dtype=np.float32))


def test_sum_of_softmax_has_zero_gradient():
    t = Tape()
    x = constant([[0.3, -1.2, 2.0, 0.1]])
    loss = sum_reduce(t, softmax(t, x))
    backward(t, loss)
    assert np.max(np.abs(x.grad)) < 1e-7


def test_backward_rejects_non_scalar_loss():
    t = Tape()
    x = constant([[1.0, 2.0]])
    y = tanh(t, x)
    with pytest.raises(EngineError):
        backward(t, y)


def test_non_contributing_inputs_get_zero_grad():
    t = Tape()
    x = constant([[1.0, 2.0]])
    y = constant([[3.0, 4.0]])
    tanh(t, y)  # dead branch
    loss = sum_reduce(t, multiply(t, x, x))
    backward(t, loss)
    np.testing.assert_array_equal(y.grad, np.zeros((1, 2), dtype=np.float32))
    np.testing.assert_allclose(x.grad, 2 * x.values, rtol=1e-6)


def test_grad_accumulates_across_fanout():
    t = Tape()
    x = constant([[0.5, -0.5]])
    loss = sum_reduce(t, add(t, x, x))
    backward(t, loss)
    np.testing.assert_array_equal(x.grad, np.full((1, 2), 2.0, dtype=np.float32))


@pytest.mark.parametrize("seed", range(6))
def test_composite_tape_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x0 = Tensor(rng.normal(scale=0.5, size=(2, 3)), dtype=np.float64)
    w0 = Tensor(rng.normal(scale=0.5, size=(3, 4)), dtype=np.float64)
    w1 = Tensor(rng.normal(scale=0.5, size=(4, 2)), dtype=np.float64)
    tbl = Tensor(rng.normal(scale=0.5, size=(5, 3)), dtype=np.float64)

    def forward():
        t = Tape()
        e = embedding(t, tbl, (1, 3))
        h = tanh(t, matmul(t, add(t, x0, e), w0))
        s = sigmoid(t, matmul(t, h, w1))
        p = softmax(t, s, axis=1)
        c = concat(t, [p, scale(t, s, 0.5)], axis=1)
        ce = cross_entropy(t, softmax(t, multiply(t, c, c)), 3)
        loss = add(t, sum_reduce(t, c), ce)
        return t, loss

    t, loss = forward()
    backward(t, loss)
    analytic = [x0.grad.copy(), w0.grad.copy(), w1.grad.copy(), tbl.grad.copy()]
    numeric = numeric_gradient(lambda: forward()[1].item(), [x0, w0, w1, tbl])
    for a, n in zip(analytic, numeric):
        assert max_rel_error(a, n) < 1e-4


def test_softmax_masked_cells_exactly_zero():
    t = Tape()
    x = constant([[1.0, 2.0, 3.0, 4.0]])
    mask = np.array([[True, False, True, False]])
    p = softmax(t, x, mask=mask)
    assert p.values[0, 1] == 0.0 and p.values[0, 3] == 0.0
    assert abs(p.values.sum() - 1.0) < 1e-6
    loss = cross_entropy(t, p, 0)
    backward(t, loss)
    assert x.grad[0, 1] == 0.0 and x.grad[0, 3] == 0.0
    # a masked cell far above the valid ones is never exponentiated
    big = softmax(None, constant([[1000.0, 0.0, 1.0]]), mask=[[False, True, True]])
    np.testing.assert_allclose(big.values, [[0.0, 0.2689414, 0.7310586]], rtol=1e-6)
    assert big.values[0, 0] == 0.0
    with pytest.raises(EngineError, match="all entries masked"):
        softmax(None, constant([[1.0, 2.0], [3.0, 4.0]]), axis=1,
                mask=[[True, False], [False, False]])


def test_softmax_rows_sum_to_one_and_finite_for_large_inputs():
    rng = np.random.default_rng(0)
    x = constant(rng.uniform(-1e3, 1e3, size=(5, 7)))
    p = softmax(None, x, axis=1)
    assert np.all(np.isfinite(p.values))
    np.testing.assert_allclose(p.values.sum(axis=1), np.ones(5), atol=1e-6)


def test_entropy_via_cross_entropy_self_target():
    t = Tape()
    x = constant([[0.1, 0.9, -0.4]], dtype=np.float64)
    p = softmax(t, x)
    h = cross_entropy(t, p, p)
    pv = p.values.reshape(-1)
    assert abs(h.item() - (-(pv * np.log(pv)).sum())) < 1e-12
    backward(t, h)
    # entropy gradient wrt logits: -p * (log p + H)
    expect = -pv * (np.log(pv) + h.item())
    expect -= pv * np.dot(expect / np.maximum(pv, 1e-30), pv) * 0  # already simplex form
    numeric = numeric_gradient(lambda: _entropy_of_logits(x), [x])[0]
    assert max_rel_error(x.grad, numeric) < 1e-5


def _entropy_of_logits(x):
    t = Tape()
    p = softmax(t, x)
    return cross_entropy(t, p, p).item()


def test_cross_entropy_index_value_and_grad():
    t = Tape()
    p = constant([[0.2, 0.5, 0.3]], dtype=np.float64)
    ce = cross_entropy(t, p, 1)
    assert abs(ce.item() + np.log(0.5)) < 1e-12
    backward(t, ce)
    np.testing.assert_allclose(p.grad, [[0.0, -2.0, 0.0]], atol=1e-12)


def test_rowdot_and_attend_match_numpy():
    rng = np.random.default_rng(5)
    a = constant(rng.normal(size=(4, 3)))
    b = constant(rng.normal(size=(1, 3)))
    t = Tape()
    scores = rowdot(t, a, b)
    np.testing.assert_allclose(scores.values, a.values @ b.values.T, rtol=1e-5)
    w = softmax(t, scores)
    out = attend(t, w, a)
    np.testing.assert_allclose(out.values, w.values.T @ a.values, rtol=1e-5)


def test_rowdot_grid_matches_numpy_and_finite_differences():
    rng = np.random.default_rng(6)
    a = constant(rng.normal(size=(4, 3)), dtype=np.float64)
    b = constant(rng.normal(size=(5, 3)), dtype=np.float64)
    grid = rowdot(None, a, b)
    np.testing.assert_allclose(grid.values, a.values @ b.values.T, rtol=1e-12)
    weights = constant(rng.normal(size=(4, 5)), dtype=np.float64)

    def forward():
        t = Tape()
        return t, sum_reduce(t, multiply(t, rowdot(t, a, b), weights))

    t, loss = forward()
    backward(t, loss)
    analytic = [a.grad.copy(), b.grad.copy()]
    numeric = numeric_gradient(lambda: forward()[1].item(), [a, b])
    for g, n in zip(analytic, numeric):
        assert max_rel_error(g, n) < 1e-6
    with pytest.raises(EngineError, match="rowdot"):
        rowdot(None, a, constant(rng.normal(size=(5, 2))))


def test_gather_rows():
    x = constant(np.arange(12.0).reshape(4, 3))
    out = gather_rows(None, x, [2, 0])
    np.testing.assert_array_equal(out.values, x.values[[2, 0]])
    t = Tape()
    backward(t, sum_reduce(t, gather_rows(t, x, [1, 3, 1])))
    np.testing.assert_array_equal(x.grad[:, 0], [0.0, 2.0, 0.0, 1.0])
    with pytest.raises(EngineError):
        gather_rows(None, x, [4])


def test_lstm_cell_zero_params_halves_cell():
    dims = (3, 4)
    params = {k: Tensor(np.zeros_like(v.values))
              for k, v in init_lstm_params(np.random.default_rng(0), *dims).items()}
    x = constant(np.zeros((1, 3)))
    c_prev = constant([[1.0, -2.0, 0.5, 4.0]])
    h_prev = constant(np.zeros((1, 4)))
    for tape in (None, Tape()):
        h, c = lstm_cell(tape, params)(x, h_prev, c_prev)
        np.testing.assert_allclose(c.values, 0.5 * c_prev.values, atol=1e-7)
        np.testing.assert_allclose(h.values, 0.5 * np.tanh(0.5 * c_prev.values), atol=1e-7)


def test_lstm_cell_all_zero_state_gives_zero_hidden():
    params = {k: Tensor(np.zeros_like(v.values))
              for k, v in init_lstm_params(np.random.default_rng(0), 3, 4).items()}
    for tape in (None, Tape()):
        h, c = lstm_cell(tape, params)(constant(np.zeros((1, 3))), constant(np.zeros((1, 4))),
                                       constant(np.zeros((1, 4))))
        np.testing.assert_array_equal(h.values, np.zeros((1, 4), dtype=np.float32))


@pytest.mark.parametrize("tape", [None, Tape()], ids=["untaped", "taped"])
@pytest.mark.parametrize("bad", ["x", "h_prev", "c_prev"])
def test_lstm_cell_rejects_misshapen_inputs(tape, bad):
    params = init_lstm_params(np.random.default_rng(0), 3, 4)
    args = {"x": constant(np.zeros((1, 3))), "h_prev": constant(np.zeros((1, 4))),
            "c_prev": constant(np.zeros((1, 4)))}
    # numpy would broadcast a (1, 1) state across the row without a check
    args[bad] = constant(np.zeros((1, 1) if bad == "c_prev" else (1, 5)))
    with pytest.raises(EngineError, match="lstm_cell|matmul|multiply"):
        lstm_cell(tape, params)(args["x"], args["h_prev"], args["c_prev"])


@pytest.mark.parametrize("tape", [None, Tape()], ids=["untaped", "taped"])
@pytest.mark.parametrize("key, shape", [("wxf", (3, 5)), ("bg", (1, 5))])
def test_lstm_cell_rejects_malformed_gate_params(tape, key, shape):
    params = init_lstm_params(np.random.default_rng(0), 3, 4)
    params[key] = constant(np.zeros(shape))
    x, h0, c0 = (constant(np.zeros((1, w))) for w in (3, 4, 4))
    # untaped, the factory checks every gate tensor it stacks and names it
    with pytest.raises(EngineError, match=key if tape is None else "add"):
        lstm_cell(tape, params)(x, h0, c0)


def test_taped_lstm_step_adds_25_entries_per_cell():
    params = init_lstm_params(np.random.default_rng(0), 3, 4)
    tape = Tape()
    step = lstm_cell(tape, params)
    assert len(tape) == 0
    h, c = constant(np.zeros((1, 4))), constant(np.zeros((1, 4)))
    for n in (1, 2, 3):
        h, c = step(constant(np.ones((1, 3))), h, c)
        assert len(tape) == 25 * n


def test_untaped_lstm_step_keeps_the_parameters_it_was_made_with():
    rng = np.random.default_rng(3)
    params = init_lstm_params(rng, 3, 4)
    x, h0, c0 = (constant(rng.normal(size=(1, w))) for w in (3, 4, 4))
    step = lstm_cell(None, params)
    before = step(x, h0, c0)[0].values
    params["wxi"].values[...] += 1.0    # written in place after the step was made
    assert np.array_equal(step(x, h0, c0)[0].values, before)
    fresh = lstm_cell(None, params)(x, h0, c0)[0].values
    assert not np.array_equal(fresh, before)
    assert np.array_equal(fresh, lstm_cell(Tape(), params)(x, h0, c0)[0].values)


# the model's encoder (32 -> 16) and decoder (64 -> 32) cells, and any width
_CELL_DIMS = st.one_of(st.sampled_from([(32, 16), (64, 32)]),
                       st.tuples(st.integers(1, 40), st.integers(1, 40)))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(dims=_CELL_DIMS, dtype=st.sampled_from([np.float32, np.float64]),
       scale=st.sampled_from([0.1, 1.0, 30.0, 1e4]), seed=st.integers(0, 2 ** 32 - 1))
def test_untaped_lstm_cell_gives_the_taped_bits(dims, dtype, scale, seed):
    # scale 1e4 drives the gate sums far into saturation (|s| up to ~1e4)
    rng = np.random.default_rng(seed)
    d, n = dims
    params = init_lstm_params(rng, d, n, prefix="p.", dtype=dtype)
    x, h0, c0 = (Tensor(scale * rng.normal(size=(1, w)), dtype=dtype) for w in (d, n, n))
    with np.errstate(all="raise"):
        h, c = lstm_cell(None, params, prefix="p.")(x, h0, c0)
        h_t, c_t = lstm_cell(Tape(), params, prefix="p.")(x, h0, c0)
    assert h.dtype == c.dtype == dtype
    assert np.array_equal(h.values, h_t.values) and np.array_equal(c.values, c_t.values)


@pytest.mark.parametrize("seed", range(4))
def test_lstm_cell_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    params = init_lstm_params(rng, 3, 4, dtype=np.float64)
    x = Tensor(rng.normal(scale=0.5, size=(1, 3)), dtype=np.float64)
    h0 = Tensor(rng.normal(scale=0.5, size=(1, 4)), dtype=np.float64)
    c0 = Tensor(rng.normal(scale=0.5, size=(1, 4)), dtype=np.float64)

    def run():
        t = Tape()
        h, c = lstm_cell(t, params)(x, h0, c0)
        return t, sum_reduce(t, add(t, h, c))

    t, loss = run()
    backward(t, loss)
    tensors = list(params.values()) + [x, h0, c0]
    analytic = [p.grad.copy() for p in tensors]
    numeric = numeric_gradient(lambda: run()[1].item(), tensors)
    for a, n in zip(analytic, numeric):
        assert max_rel_error(a, n) < 1e-4


def test_determinism_two_fresh_tapes():
    def run():
        rng = np.random.default_rng(7)
        t = Tape()
        x = constant(rng.normal(size=(3, 3)))
        y = softmax(t, matmul(t, x, x), axis=1)
        return y.values

    assert np.array_equal(run(), run())


def test_shared_grad_arrays_are_not_written_in_place():
    # add hands one gradient array to both inputs; a later backward that
    # reaches only one of them must not change the other's grad
    a, b = constant([[1.0, 2.0]]), constant([[3.0, 4.0]])
    t = Tape()
    backward(t, sum_reduce(t, add(t, a, b)))
    before = b.grad.copy()
    t2 = Tape()
    backward(t2, sum_reduce(t2, multiply(t2, a, a)))
    np.testing.assert_array_equal(b.grad, before)
    np.testing.assert_array_equal(a.grad, [[3.0, 5.0]])


def test_zero_grads_and_reaccumulation():
    x = constant([[1.0, 2.0]])
    t = Tape()
    loss = sum_reduce(t, multiply(t, x, x))
    backward(t, loss)
    g1 = x.grad.copy()
    backward(t, loss)  # accumulates
    np.testing.assert_allclose(x.grad, 2 * g1, atol=1e-6)
    zero_grads([x])
    assert x.grad is None


def test_init_uniform_bounds():
    rng = np.random.default_rng(0)
    t = init_uniform(rng, (16, 8))
    bound = 1.0 / np.sqrt(16)
    assert np.all(np.abs(t.values) <= bound)
    assert t.values.dtype == np.float32


# ---------------------------------------------------------------------------
# parity of the one-op forms with the earlier compositions (float64)

def _value_and_grads(op, inputs, weights):
    t = Tape()
    out = op(t, *inputs)
    loss = sum_reduce(t, multiply(t, out, constant(weights, dtype=np.float64)))
    zero_grads(inputs)
    backward(t, loss)
    return out.values.copy(), [x.grad.copy() for x in inputs]


@pytest.mark.parametrize("seed", range(3))
def test_rowdot_and_attend_match_earlier_compositions(seed):
    rng = np.random.default_rng(40 + seed)
    n, d = 5, 4
    a = constant(rng.normal(size=(n, d)), dtype=np.float64)
    b = constant(rng.normal(size=(1, d)), dtype=np.float64)
    w = constant(rng.uniform(size=(n, 1)), dtype=np.float64)
    cases = [(rowdot, legacy_ops.rowdot, (a, b), (n, 1)),
             (attend, legacy_ops.attend, (w, a), (1, d))]
    for new, old, inputs, shape in cases:
        weights = rng.normal(size=shape)
        out_new, grads_new = _value_and_grads(new, inputs, weights)
        out_old, grads_old = _value_and_grads(old, inputs, weights)
        np.testing.assert_allclose(out_new, out_old, rtol=1e-12, atol=1e-14)
        for gn, go in zip(grads_new, grads_old):
            np.testing.assert_allclose(gn, go, rtol=1e-12, atol=1e-14)
    t = Tape()
    rowdot(t, a, b)
    attend(t, w, a)
    assert [e[0] for e in t.entries] == ["matmul", "matmul"]


def test_sigmoid_matches_earlier_form_without_fp_warnings():
    x = np.concatenate([np.linspace(-40.0, 40.0, 161), [-1e4, 1e4, 0.0]])
    for dtype in (np.float64, np.float32):
        xt = constant(x.reshape(1, -1), dtype=dtype)
        with np.errstate(all="raise"):
            out = sigmoid(None, xt).values
        assert out.dtype == dtype
        old = legacy_ops.sigmoid_forward(None, xt.values)
        # the tanh form keeps absolute, not relative, precision near 0
        np.testing.assert_allclose(out, old, rtol=0,
                                   atol=4 * np.finfo(dtype).eps)
    assert out[0, -3] == 0.0 and out[0, -2] == 1.0 and out[0, -1] == 0.5

    xt = constant(np.linspace(-6.0, 6.0, 13).reshape(1, -1), dtype=np.float64)
    weights = np.random.default_rng(9).normal(size=(1, 13))
    out_new, (g_new,) = _value_and_grads(sigmoid, [xt], weights)
    np.testing.assert_allclose(out_new, legacy_ops.sigmoid_forward(None, xt.values),
                               rtol=1e-14)
    np.testing.assert_allclose(g_new, weights * out_new * (1 - out_new), rtol=1e-13)


@pytest.mark.parametrize("flags", [(False, False), (False, True),
                                   (True, False), (True, True)])
def test_matmul_transpose_flags_match_finite_differences(flags):
    fwd, bwd = dc.PRIMITIVES["matmul"]
    rng = np.random.default_rng(sum(2 ** i for i, f in enumerate(flags) if f))
    m, k, n = 3, 4, 2
    a = Tensor(rng.normal(size=(k, m) if flags[0] else (m, k)), dtype=np.float64)
    b = Tensor(rng.normal(size=(n, k) if flags[1] else (k, n)), dtype=np.float64)
    out = fwd(flags, a.values, b.values)
    a_mat = a.values.T if flags[0] else a.values
    b_mat = b.values.T if flags[1] else b.values
    np.testing.assert_allclose(out, a_mat @ b_mat, rtol=1e-12)
    weights = rng.normal(size=(m, n))
    analytic = bwd(flags, weights, out, a.values, b.values)
    numeric = numeric_gradient(
        lambda: float(np.sum(weights * fwd(flags, a.values, b.values))), [a, b])
    for an, nu, t in zip(analytic, numeric, (a, b)):
        assert an.shape == t.shape
        assert max_rel_error(an, nu) < 1e-6
