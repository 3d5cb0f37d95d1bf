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

The attack score looped over targets, six ops each, on a flat (sum K_j, 1)
layout of the valid cells, and padded gamma back into an (L', K_max) grid;
``legacy_attacker`` swaps that back in.  It pads gamma in the model dtype,
where the original padded in float32, so float64 parity can read it.
"""

from dataclasses import dataclass

import numpy as np

from advnav import attacker
from advnav import diffcore as dc
from advnav import navigator
from advnav import trainer
from advnav.diffcore import Tensor


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


@dataclass(frozen=True)
class AttackerEncoding:
    u: Tensor
    f_w: Tensor
    cand_feats: tuple          # per target: (K_j, d_w) candidate-word features
    instruction: object


def attacker_encode(self, tape, instr):
    u = attacker.encode_tokens(tape, self.params, instr.tokens)
    f_w = dc.gather_rows(tape, u, list(instr.target_set))
    cand_feats = tuple(
        dc.gather_rows(tape, u, [c.source_pos for c in cands]) if cands else None
        for cands in instr.candidates)
    return AttackerEncoding(u=u, f_w=f_w, cand_feats=cand_feats, instruction=instr)


def attack_score(self, tape, enc, visual_state):
    instr = enc.instruction
    if not instr.attackable:
        raise ValueError("instruction has no valid substitutions")
    p = self.params
    f_v = Tensor(np.asarray(visual_state).reshape(1, -1), dtype=self.dtype)

    pw = dc.matmul(tape, enc.f_w, p["w_w"])
    pv = dc.matmul(tape, f_v, p["w_v"])
    beta = dc.softmax(tape, dc.rowdot(tape, pw, pv))

    chunks, gammas, index_map = [], [], []
    for j, cands in enumerate(instr.candidates):
        if not cands:
            gammas.append(np.zeros(0, dtype=np.float64))
            continue
        pw_j = dc.gather_rows(tape, pw, [j])
        cj = dc.matmul(tape, enc.cand_feats[j], p["w_wp"])
        gamma_j = dc.softmax(tape, dc.rowdot(tape, cj, pw_j))
        beta_j = dc.gather_rows(tape, beta, [j])
        chunks.append(dc.matmul(tape, gamma_j, beta_j))   # (K_j,1) @ (1,1)
        gammas.append(gamma_j.values.reshape(-1))
        index_map.extend((j, k) for k in range(len(cands)))

    flat = dc.concat(tape, chunks, axis=0) if len(chunks) > 1 else chunks[0]
    p_flat = dc.softmax(tape, flat)

    k_max = max(len(c) for c in instr.candidates)
    gamma = np.zeros((instr.n_targets, k_max), dtype=self.dtype)
    valid = np.zeros((instr.n_targets, k_max), dtype=bool)
    for j, row in enumerate(gammas):
        gamma[j, :len(row)] = row
        valid[j, :len(row)] = True
    return attacker.AttackScore(beta=beta.values.reshape(-1).copy(), gamma=gamma,
                                valid=valid, p_flat=p_flat, index_map=tuple(index_map))


def legacy_attacker(monkeypatch):
    """Route the attacker through the per-target score loop for one test."""
    monkeypatch.setattr(attacker.Attacker, "encode", attacker_encode)
    monkeypatch.setattr(attacker.Attacker, "attack_score", attack_score)
