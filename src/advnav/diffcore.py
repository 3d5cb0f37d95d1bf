"""Reverse-mode automatic differentiation over small dense arrays.

The engine is deliberately tiny.  A ``Tensor`` wraps a numpy array plus an
optional same-shape gradient, and a ``Tape`` records every primitive
application in execution order.  Walking a tape backwards leaves each
tensor's gradient on its own ``.grad``, intermediates and leaves alike.
Gradient arrays may be shared between tensors (``add`` hands one array to
both inputs), so they are read-only: replace ``.grad``, never write into it.

The primitive set is closed: matrix multiply (either operand optionally
transposed), elementwise add/multiply, concatenate, row/full softmax (with
an optional validity mask), tanh, sigmoid, embedding (row lookup), scalar
scale, sum-reduce and cross-entropy-with-target.  Everything the models
need (bilinear score columns and grids, weighted sums, row gathers, gated
recurrences) is composed from these; see ``rowdot``/``attend``/
``gather_rows``/``lstm_cell``.  One composition skips them: an untaped
``lstm_cell`` step needs no backward, so it runs as one numpy forward
instead of 25 primitive applications, with the same bits, over gate
weights its factory stacked once for the whole run of cells.

Tensors are float32 by default and reductions accumulate in float64 before
casting back.  Gradient checks should build float64 tensors instead, so
central differences are not drowned in rounding noise.
"""

from __future__ import annotations

import numpy as np


class EngineError(Exception):
    """Malformed tape: shape mismatch, unknown primitive, non-scalar loss."""


class Tensor:
    """Dense 2-D array with an optional, read-only gradient of the same
    shape.  Construction raises ``EngineError`` for values of any other rank."""

    __slots__ = ("values", "grad")

    def __init__(self, values, dtype=np.float32):
        arr = np.asarray(values, dtype=dtype)
        if arr.ndim != 2:
            raise EngineError(f"Tensor: values must be 2-D, got shape {arr.shape}")
        self.values = arr
        self.grad = None

    @classmethod
    def _wrap(cls, arr):
        t = object.__new__(cls)
        t.values = arr
        t.grad = None
        return t

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self):
        if self.values.size != 1:
            raise EngineError(f"item: tensor of shape {self.values.shape} is not a scalar")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


class Tape:
    """Execution-ordered record of primitive applications, each an
    ``(op, inputs, output, ctx)`` tuple.

    A tape and the tensors it produced are confined to a single thread.
    Distinct tapes may run their forward passes concurrently against
    read-shared parameters, but not ``backward``: it sets the ``.grad`` of
    every tensor on the tape, the shared parameters included.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = []

    def __len__(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# primitive catalog

def _softmax_forward(ctx, x):
    """Stabilized softmax; masked entries are exactly zero and never
    exponentiated, so a large masked input cannot overflow."""
    axis, mask = ctx
    if mask is not None and not np.all(mask.any(axis=axis)):
        raise EngineError("softmax: all entries masked")
    valid = True if mask is None else mask
    top = x.max(axis=axis, keepdims=True, where=valid, initial=-np.inf)
    e = np.exp(x - top if mask is None else np.where(mask, x - top, -np.inf))
    return (e / e.sum(axis=axis, keepdims=True, dtype=np.float64)).astype(x.dtype)


def _softmax_backward(ctx, g, out, x):
    dot = np.sum(g.astype(np.float64) * out, axis=ctx[0], keepdims=True)
    return [(out * (g - dot)).astype(x.dtype)]


_TINY = 1e-30


def _xent_forward(ctx, p, *rest):
    if ctx[0] == "index":
        v = -np.log(max(float(p.reshape(-1)[ctx[1]]), _TINY))
    else:
        q = rest[0]
        logs = np.log(np.maximum(p, _TINY))
        v = -np.sum(np.where(q != 0.0, q * logs, 0.0), dtype=np.float64)
    return np.array([[v]], dtype=p.dtype)


def _xent_backward(ctx, g, out, p, *rest):
    s = float(g.reshape(-1)[0])
    if ctx[0] == "index":
        gp = np.zeros_like(p)
        idx = ctx[1]
        gp.reshape(-1)[idx] = -s / max(float(p.reshape(-1)[idx]), _TINY)
        return [gp]
    q = rest[0]
    gp = -s * q / np.maximum(p, _TINY)
    gq = np.where(p > _TINY, -s * np.log(np.maximum(p, _TINY)), 0.0)
    return [gp.astype(p.dtype), gq.astype(q.dtype)]


def _concat_backward(ctx, g, out, *arrs):
    axis = ctx[0]
    grads, pos = [], 0
    for a in arrs:
        n = a.shape[axis]
        grads.append(g[pos:pos + n] if axis == 0 else g[:, pos:pos + n])
        pos += n
    return grads


def _embed_forward(ctx, table):
    return table[list(ctx[0])]


def _embed_backward(ctx, g, out, table):
    gt = np.zeros_like(table)
    np.add.at(gt, list(ctx[0]), g)
    return [gt]


def _matmul_forward(ctx, a, b):
    ta, tb = ctx
    return (a.T if ta else a) @ (b.T if tb else b)


def _matmul_backward(ctx, g, out, a, b):
    ta, tb = ctx
    ga = g @ b if tb else g @ b.T
    gb = (a if ta else a.T) @ g
    return [ga.T if ta else ga, gb.T if tb else gb]


def _sigmoid(x):
    """The logistic function in its tanh form, which cannot overflow."""
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


PRIMITIVES = {
    "matmul": (          # ctx: (transpose a, transpose b)
        _matmul_forward,
        _matmul_backward,
    ),
    "add": (
        lambda ctx, a, b: a + b,
        lambda ctx, g, out, a, b: [g, g],
    ),
    "multiply": (
        lambda ctx, a, b: a * b,
        lambda ctx, g, out, a, b: [g * b, g * a],
    ),
    "concat": (
        lambda ctx, *arrs: np.concatenate(arrs, axis=ctx[0]),
        _concat_backward,
    ),
    "softmax": (
        _softmax_forward,
        _softmax_backward,
    ),
    "tanh": (
        lambda ctx, x: np.tanh(x),
        lambda ctx, g, out, x: [g * (1.0 - out * out)],
    ),
    "sigmoid": (
        lambda ctx, x: _sigmoid(x),
        lambda ctx, g, out, x: [g * out * (1.0 - out)],
    ),
    "embedding": (
        _embed_forward,
        _embed_backward,
    ),
    "scale": (
        lambda ctx, x: x * x.dtype.type(ctx[0]),
        lambda ctx, g, out, x: [g * x.dtype.type(ctx[0])],
    ),
    "sum_reduce": (
        lambda ctx, x: np.array([[np.sum(x, dtype=np.float64)]], dtype=x.dtype),
        lambda ctx, g, out, x: [np.full_like(x, g.reshape(-1)[0])],
    ),
    "cross_entropy": (
        _xent_forward,
        _xent_backward,
    ),
}


def _apply(tape, op, inputs, ctx=(None,)):
    fwd = PRIMITIVES[op][0]
    try:
        arr = fwd(ctx, *[t.values for t in inputs])
    except ValueError as exc:
        shapes = [t.values.shape for t in inputs]
        raise EngineError(f"{op}: incompatible shapes {shapes}: {exc}") from exc
    out = Tensor._wrap(arr)
    if tape is not None:
        tape.entries.append((op, tuple(inputs), out, ctx))
    return out


def _check_same_shape(op, a, b):
    if a.values.shape != b.values.shape:
        raise EngineError(f"{op}: shape mismatch {a.values.shape} vs {b.values.shape}")


# ---------------------------------------------------------------------------
# public ops

def matmul(tape, a, b):
    if a.values.shape[1] != b.values.shape[0]:
        raise EngineError(f"matmul: inner dims {a.values.shape} @ {b.values.shape}")
    return _apply(tape, "matmul", (a, b), (False, False))


def add(tape, a, b):
    _check_same_shape("add", a, b)
    return _apply(tape, "add", (a, b))


def multiply(tape, a, b):
    _check_same_shape("multiply", a, b)
    return _apply(tape, "multiply", (a, b))


def concat(tape, tensors, axis=0):
    if axis not in (0, 1):
        raise EngineError(f"concat: axis {axis}")
    other = 1 - axis
    widths = {t.values.shape[other] for t in tensors}
    if len(widths) != 1:
        raise EngineError(f"concat: ragged shapes {[t.values.shape for t in tensors]}")
    return _apply(tape, "concat", tuple(tensors), (axis,))


def softmax(tape, x, axis=None, mask=None):
    """Full (axis=None) or per-row (axis=1) softmax; ``mask`` marks valid cells."""
    if axis not in (None, 1):
        raise EngineError(f"softmax: axis {axis}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(x.values.shape)
    return _apply(tape, "softmax", (x,), (axis, mask))


def tanh(tape, x):
    return _apply(tape, "tanh", (x,))


def sigmoid(tape, x):
    return _apply(tape, "sigmoid", (x,))


def embedding(tape, table, ids):
    ids = tuple(int(i) for i in ids)
    if ids and (min(ids) < 0 or max(ids) >= table.values.shape[0]):
        raise EngineError(f"embedding: id out of range for table {table.values.shape}")
    return _apply(tape, "embedding", (table,), (ids,))


def scale(tape, x, c):
    return _apply(tape, "scale", (x,), (float(c),))


def sum_reduce(tape, x):
    return _apply(tape, "sum_reduce", (x,))


def cross_entropy(tape, p, target):
    """-log p[target] for an integer target, or -sum(q*log p) for a tensor q.

    Passing the distribution itself as the target yields its entropy.
    """
    if isinstance(target, Tensor):
        _check_same_shape("cross_entropy", p, target)
        return _apply(tape, "cross_entropy", (p, target), ("tensor",))
    idx = int(target)
    if not 0 <= idx < p.values.size:
        raise EngineError(f"cross_entropy: target {idx} out of range {p.values.size}")
    return _apply(tape, "cross_entropy", (p,), ("index", idx))


# ---------------------------------------------------------------------------
# composed helpers (catalog-only compositions)

def constant(values, dtype=np.float32):
    return Tensor(values, dtype=dtype)


def zeros(shape, dtype=np.float32):
    return Tensor._wrap(np.zeros(shape, dtype=dtype))


def rowdot(tape, a, b):
    """Dot products of every row of ``a`` (n,d) with every row of ``b`` (m,d).

    Returns the (n,m) grid ``a @ bᵀ``, a column when ``b`` is one row: the
    pattern behind every bilinear score, as one matmul with ``b`` transposed.
    """
    if b.values.shape[1] != a.values.shape[1]:
        raise EngineError(f"rowdot: {a.values.shape} vs {b.values.shape}")
    return _apply(tape, "matmul", (a, b), (False, True))


def attend(tape, weights, rows):
    """Weighted sum ``weightsᵀ @ rows`` of ``rows`` (n,d) by the column
    ``weights`` (n,1) -> (1,d), as one matmul with ``weights`` transposed."""
    n, d = rows.values.shape
    if weights.values.shape != (n, 1):
        raise EngineError(f"attend: {weights.values.shape} vs {rows.values.shape}")
    return _apply(tape, "matmul", (weights, rows), (True, False))


def gather_rows(tape, x, indices):
    """Select rows of ``x`` by index: an ``embedding`` lookup into ``x``."""
    return embedding(tape, x, indices)


def affine(tape, x, w, b):
    return add(tape, matmul(tape, x, w), b)


def lstm_cell(tape, params, prefix=""):
    """A step ``step(x, h_prev, c_prev) -> (h, c)`` of a standard gated
    recurrence, bound to ``params``; make one for a run of cells.

    ``params`` holds per-gate input/recurrent/bias tensors under keys
    ``{prefix}wx{i,f,g,o}``, ``{prefix}wh{i,f,g,o}``, ``{prefix}b{i,f,g,o}``.
    A step reads them when it is made: an untaped step keeps the values it
    stacked, so make a new step after any write to the parameters.

    On a tape each step is composed from primitives, 25 entries that
    ``backward`` walks.  Untaped (``tape is None``) a step needs no backward:
    the factory stacks the four gates on a leading axis once, and each step
    runs as one numpy forward over them; ``x``, ``h_prev`` and ``c_prev``
    must then be single rows.  Both paths give the same bits: each gate's
    products are the same BLAS calls on the same shapes, and every
    elementwise step is the same numpy operation.
    """
    if tape is None:
        wx, wh, b = _stack_gates(params, prefix)
        d, n = wx.shape[1:]

        def step(x, h_prev, c_prev):
            for name, t, width in (("x", x, d), ("h_prev", h_prev, n), ("c_prev", c_prev, n)):
                if t.values.shape != (1, width):
                    raise EngineError(f"lstm_cell: {name} of shape {t.values.shape}, "
                                      f"weights need (1, {width})")
            s = (x.values @ wx + h_prev.values @ wh) + b
            act = _sigmoid(s)
            c = act[1] * c_prev.values + act[0] * np.tanh(s[2])
            h = act[3] * np.tanh(c)
            return Tensor._wrap(h), Tensor._wrap(c)

        return step
    gates = [(params[prefix + "wx" + tag], params[prefix + "wh" + tag],
              params[prefix + "b" + tag], act)
             for tag, act in (("i", sigmoid), ("f", sigmoid), ("g", tanh), ("o", sigmoid))]

    def step(x, h_prev, c_prev):
        i, f, g, o = [act(tape, add(tape, add(tape, matmul(tape, x, wx),
                                              matmul(tape, h_prev, wh)), b))
                      for wx, wh, b, act in gates]
        c = add(tape, multiply(tape, f, c_prev), multiply(tape, i, g))
        h = multiply(tape, o, tanh(tape, c))
        return h, c

    return step


def _stack_gates(params, prefix):
    # gates on a leading axis, (4, d, h), (4, h, h) and (4, 1, h) in i, f,
    # g, o order, so each product runs one gemv per gate on the composed
    # cell's shapes; one wider (d, 4h) gemv blocks differently and gives
    # other bits at some widths
    kinds = ("wx", "wh", "b")
    rows = [[params[prefix + kind + tag].values for tag in "ifgo"] for kind in kinds]
    d, n = rows[0][0].shape
    for kind, row, shape in zip(kinds, rows, ((d, n), (n, n), (1, n))):
        for tag, a in zip("ifgo", row):
            if a.shape != shape:
                raise EngineError(f"lstm_cell: {prefix}{kind}{tag} of shape {a.shape}, "
                                  f"gates need {shape}")
    return [np.array(row) for row in rows]


def init_uniform(rng, shape, fan_in=None, dtype=np.float32):
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]; fan_in defaults to rows."""
    fan = fan_in if fan_in is not None else shape[0]
    bound = 1.0 / np.sqrt(fan)
    return Tensor(rng.uniform(-bound, bound, size=shape), dtype=dtype)


def init_lstm_params(rng, input_dim, hidden_dim, prefix="", dtype=np.float32):
    params = {}
    for tag in "ifgo":
        params[prefix + "wx" + tag] = init_uniform(rng, (input_dim, hidden_dim), dtype=dtype)
        params[prefix + "wh" + tag] = init_uniform(rng, (hidden_dim, hidden_dim), dtype=dtype)
        params[prefix + "b" + tag] = init_uniform(rng, (1, hidden_dim), fan_in=input_dim, dtype=dtype)
    return params


# ---------------------------------------------------------------------------
# backward pass

def backward(tape, loss):
    """Set ``.grad`` to d(loss)/d(tensor) for every tensor on the tape.

    Tensors the tape produced get their grads overwritten per call; tensors
    it did not produce (leaves: parameters, constants) add onto the grads
    they hold, across fan-out and across calls; reset them with
    ``zero_grads``.  Inputs that do not contribute to the loss end with zero
    grads.  Accumulation is always out of place, because ``add`` and
    ``concat`` hand one array (or views of it) to several tensors: the grad
    arrays are shared and read-only.
    """
    if loss.values.size != 1:
        raise EngineError(f"backward: loss must be scalar, got shape {loss.values.shape}")
    on_tape = False
    for _, _, out, _ in tape.entries:
        out.grad = None
        on_tape = on_tape or out is loss
    if not on_tape:
        raise EngineError("backward: loss is not produced by this tape")
    loss.grad = np.ones_like(loss.values)
    for op, inputs, out, ctx in reversed(tape.entries):
        g = out.grad
        if g is None:
            continue
        grads = PRIMITIVES[op][1](ctx, g, out.values, *[t.values for t in inputs])
        for t, gi in zip(inputs, grads):
            # a fresh sum, never +=: gi and t.grad may be shared arrays
            gi = gi.astype(t.values.dtype, copy=False)
            t.grad = gi if t.grad is None else t.grad + gi
    for _, inputs, _, _ in tape.entries:
        for t in inputs:
            if t.grad is None:
                t.grad = np.zeros_like(t.values)


def zero_grads(params):
    for t in (params.values() if isinstance(params, dict) else params):
        t.grad = None

