"""The earlier compositions of ``rowdot``, ``attend``, the ``sigmoid``
forward and the instruction encoder, rebuilt from public ``diffcore``
primitives.

``rowdot`` and ``attend`` were 3-op chains over ones-matrices (tile,
multiply, reduce by matmul) and the sigmoid forward split its input by sign
with two ``exp`` calls.  They stay here as parity references for the
one-op forms, and ``legacy_numerics`` swaps them back into ``diffcore`` so
a run can reproduce the earlier float arithmetic bit for bit.

The encoder ran all 2L cells of every sequence with one embedding lookup
per position, and each rollout kept its own encodings; ``legacy_encoding``
swaps that back in.
"""

import numpy as np

from advnav import attacker
from advnav import diffcore as dc
from advnav import navigator
from advnav import trainer


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


def encode_tokens(tape, params, tokens, memo=None):
    """The encoder before cell sharing; ``memo`` is ignored."""
    if len(tokens) == 0:
        raise ValueError("cannot encode an empty instruction")
    embed = params["embed"]
    half = embed.values.shape[1] // 2
    embs = [dc.embedding(tape, embed, (t,)) for t in tokens]

    def run(direction, prefix):
        h = dc.zeros((1, half), dtype=embed.dtype)
        c = dc.zeros((1, half), dtype=embed.dtype)
        outs = [None] * len(tokens)
        for i in direction:
            h, c = dc.lstm_cell(tape, embs[i], h, c, params, prefix=prefix)
            outs[i] = h
        return outs

    fwd = run(range(len(tokens)), "enc_f.")
    bwd = run(range(len(tokens) - 1, -1, -1), "enc_b.")
    rows = [dc.concat(tape, [f, b], axis=1) for f, b in zip(fwd, bwd)]
    return dc.concat(tape, rows, axis=0) if len(rows) > 1 else rows[0]


def legacy_encoding(monkeypatch):
    """Route both players through the earlier encoder for one test, and give
    each rollout its own encodings, as before they were shared per update."""
    rollout = trainer.rollout_episode

    def own_encodings(*args, encodings=None, **kwargs):
        return rollout(*args, **kwargs)

    monkeypatch.setattr(navigator, "encode_tokens", encode_tokens)
    monkeypatch.setattr(attacker, "encode_tokens", encode_tokens)
    monkeypatch.setattr(trainer, "rollout_episode", own_encodings)
