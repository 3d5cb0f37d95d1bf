"""The earlier compositions of ``rowdot``, ``attend`` and the ``sigmoid``
forward, rebuilt from public ``diffcore`` primitives.

``rowdot`` and ``attend`` were 3-op chains over ones-matrices (tile,
multiply, reduce by matmul) and the sigmoid forward split its input by sign
with two ``exp`` calls.  They stay here as parity references for the
one-op forms, and ``legacy_numerics`` swaps them back into ``diffcore`` so
a run can reproduce the earlier float arithmetic bit for bit.
"""

import numpy as np

from advnav import diffcore as dc


def _ones(shape, dtype):
    return dc.constant(np.ones(shape), dtype=dtype)


def rowdot(tape, a, b):
    n, d = a.values.shape
    tiled = dc.matmul(tape, _ones((n, 1), a.dtype), b)
    prod = dc.multiply(tape, a, tiled)
    return dc.matmul(tape, prod, _ones((d, 1), a.dtype))


def attend(tape, weights, rows):
    n, d = rows.values.shape
    tiled = dc.matmul(tape, weights, _ones((1, d), rows.dtype))
    prod = dc.multiply(tape, tiled, rows)
    return dc.matmul(tape, _ones((1, n), rows.dtype), prod)


def sigmoid_forward(ctx, x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def legacy_numerics(monkeypatch):
    """Route ``diffcore`` through the earlier compositions for one test."""
    monkeypatch.setattr(dc, "rowdot", rowdot)
    monkeypatch.setattr(dc, "attend", attend)
    monkeypatch.setitem(dc.PRIMITIVES, "sigmoid",
                        (sigmoid_forward, dc.PRIMITIVES["sigmoid"][1]))
