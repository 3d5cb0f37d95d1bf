"""The earlier compositions of ``rowdot``, ``attend``, the ``sigmoid``
forward, the untaped ``lstm_cell`` and the instruction encoder, rebuilt
from public ``diffcore`` primitives.

``rowdot`` and ``attend`` were 3-op chains over ones-matrices (tile,
multiply, reduce by matmul) and the sigmoid forward split its input by sign
with two ``exp`` calls.  They stay here as parity references for the
one-op forms, and ``legacy_numerics`` swaps them back into ``diffcore`` so
a run can reproduce the earlier float arithmetic bit for bit.

Untaped cells ran through the same primitives as taped ones;
``legacy_untaped_cell`` sends them there again.

The encoder ran all 2L cells of every sequence with one embedding lookup
per position, and each rollout kept its own encodings; ``legacy_encoding``
swaps that back in.

Instructions carried per-target candidate lists (``build_candidate_sets``),
and attacks were (target, candidate) pairs (j, k) into them.
``candidate_cells`` reads those pairs as target-grid cells (j, i).

The attack score looped over those lists, six ops per target, on a flat
(sum K_j, 1) layout of the valid cells, and picks were made on that layout;
``legacy_attacker`` swaps that back in.  One exact scatter (a 0/1 matmul)
hands the flat joint to the trainer on the target grid, and gamma is laid
on the grid in the model dtype, where the original padded it into an
(L', K_max) array in float32, so float64 parity can read it.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from advnav import attacker
from advnav import diffcore as dc
from advnav import navigator
from advnav import trainer
from advnav.diffcore import Tensor
from advnav.instruct import AttackAction


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


def legacy_untaped_cell(monkeypatch):
    """Run untaped ``lstm_cell`` steps through the composed primitives for
    one test: on a throwaway tape, which records them and changes no value.
    Returns a dict whose ``"steps"`` counts the untaped steps routed so."""
    cell = dc.lstm_cell
    routed = {"steps": 0}

    def composed(tape, params, prefix=""):
        if tape is not None:
            return cell(tape, params, prefix)

        def step(x, h_prev, c_prev):
            routed["steps"] += 1
            return cell(dc.Tape(), params, prefix)(x, h_prev, c_prev)

        return step

    monkeypatch.setattr(dc, "lstm_cell", composed)
    return routed


def legacy_numerics(monkeypatch):
    """Route ``diffcore`` through the earlier compositions for one test."""
    monkeypatch.setattr(dc, "rowdot", rowdot)
    monkeypatch.setattr(dc, "attend", attend)
    monkeypatch.setitem(dc.PRIMITIVES, "sigmoid",
                        (sigmoid_forward, dc.PRIMITIVES["sigmoid"][1]))
    legacy_untaped_cell(monkeypatch)    # so untaped cells use that sigmoid too


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
        step = dc.lstm_cell(tape, params, prefix)
        outs = [None] * len(tokens)
        for i in direction:
            h, c = step(embs[i], h, c)
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


class Candidate(NamedTuple):
    token_id: int
    source_pos: int         # position of that word in the instruction


def build_candidate_sets(tokens, target_set) -> tuple:
    """Per target: the other targets' token ids, deduplicated, sentence order.

    A target's own token id is never among its candidates, so every
    substitution changes the word.
    """
    out = []
    for j, pos in enumerate(target_set):
        own = tokens[pos]
        cands, seen = [], set()
        for other in target_set:
            tid = tokens[other]
            if other == pos or tid == own or tid in seen:
                continue
            seen.add(tid)
            cands.append(Candidate(tid, other))
        out.append(tuple(cands))
    return tuple(out)


def candidate_cells(instr):
    """The (j, k) actions of ``instr``'s candidate lists, in their order, as
    grid cells (j, i): i is the target the candidate word was taken from."""
    column = {pos: i for i, pos in enumerate(instr.target_set)}
    return [(j, column[c.source_pos])
            for j, cands in enumerate(build_candidate_sets(instr.tokens, instr.target_set))
            for c in cands]


@dataclass(frozen=True)
class AttackerEncoding:
    u: Tensor
    f_w: Tensor
    candidates: tuple          # per target: tuple[Candidate, ...]
    cand_feats: tuple          # per target: (K_j, d_w) candidate-word features
    instruction: object


@dataclass(frozen=True)
class AttackScore(attacker.AttackScore):
    cells: tuple = ()          # flat grid cell of each (j, k) action, in (j, k) order


def attacker_encode(self, tape, instr):
    u = attacker.encode_tokens(tape, self.params, instr.tokens)
    f_w = dc.gather_rows(tape, u, list(instr.target_set))
    candidates = build_candidate_sets(instr.tokens, instr.target_set)
    cand_feats = tuple(
        dc.gather_rows(tape, u, [c.source_pos for c in cands]) if cands else None
        for cands in candidates)
    return AttackerEncoding(u=u, f_w=f_w, candidates=candidates, cand_feats=cand_feats,
                            instruction=instr)


def attack_score(self, tape, enc, visual_state):
    instr = enc.instruction
    p = self.params
    f_v = Tensor(np.asarray(visual_state).reshape(1, -1), dtype=self.dtype)

    pw = dc.matmul(tape, enc.f_w, p["w_w"])
    pv = dc.matmul(tape, f_v, p["w_v"])
    beta = dc.softmax(tape, dc.rowdot(tape, pw, pv))

    chunks, gammas = [], []
    for j, cands in enumerate(enc.candidates):
        if not cands:
            continue
        pw_j = dc.gather_rows(tape, pw, [j])
        cj = dc.matmul(tape, enc.cand_feats[j], p["w_wp"])
        gamma_j = dc.softmax(tape, dc.rowdot(tape, cj, pw_j))
        beta_j = dc.gather_rows(tape, beta, [j])
        chunks.append(dc.matmul(tape, gamma_j, beta_j))   # (K_j,1) @ (1,1)
        gammas.append(gamma_j.values.reshape(-1))

    flat = dc.concat(tape, chunks, axis=0) if len(chunks) > 1 else chunks[0]
    p_cand = dc.softmax(tape, flat)

    n = instr.n_targets
    cells = tuple(j * n + i for j, i in candidate_cells(instr))
    scatter = np.zeros((n * n, len(cells)))
    scatter[cells, np.arange(len(cells))] = 1.0
    p_flat = dc.matmul(tape, dc.constant(scatter, dtype=self.dtype), p_cand)
    gamma = np.zeros(n * n, dtype=self.dtype)
    gamma[list(cells)] = np.concatenate(gammas)
    valid = np.zeros(n * n, dtype=bool)
    valid[list(cells)] = True
    return AttackScore(beta=beta.values.reshape(-1).copy(), gamma=gamma.reshape(n, n),
                       valid=valid.reshape(n, n), p_flat=p_flat, cells=cells)


def select_attack(score, mode, rng=None):
    """Greedy or sampled pick on the flat (j, k) layout, as a grid cell."""
    flat = score.p_flat.values.reshape(-1)[list(score.cells)]
    p_cand = Tensor(flat.reshape(1, -1), dtype=flat.dtype)
    row = navigator.greedy_action(p_cand) if mode == "greedy" \
        else navigator.sample_action(p_cand, rng)
    return AttackAction(*divmod(score.cells[row], score.valid.shape[1]))


def legacy_attacker(monkeypatch):
    """Route the attacker through the per-target score loop and the flat
    picks for one test."""
    monkeypatch.setattr(attacker.Attacker, "encode", attacker_encode)
    monkeypatch.setattr(attacker.Attacker, "attack_score", attack_score)
    monkeypatch.setattr(trainer, "select_attack", select_attack)
