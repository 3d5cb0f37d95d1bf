"""The learned instruction attacker.

The attacker owns its instruction encoder parameters (the navigator's
BiLSTM form, never shared with the victim) and always encodes the original
instruction.  Each step it scores every (target word, candidate word) pair:
a word-importance distribution over targets driven by the current attended
visual feature, a per-target substitution-impact distribution over that
target's candidates, and a final joint distribution over all valid pairs
from the elementwise product of the two.  Invalid (padded) cells carry
exactly zero probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import Tape, Tensor
from .instruct import AttackAction, Instruction
from .navigator import ModelDims, encode_tokens, init_encoder_params


@dataclass(frozen=True)
class AttackerEncoding:
    u: Tensor                  # (L, d_w) token features of the original tokens
    f_w: Tensor                # (L', d_w) target-word features
    cand_feats: tuple          # per target: (K_j, d_w) candidate-word features
    instruction: Instruction


@dataclass(frozen=True)
class AttackScore:
    beta: np.ndarray           # (L',) word importance
    gamma: np.ndarray          # (L', K_max) substitution impact, padded
    valid: np.ndarray          # (L', K_max) bool mask of real cells
    p_flat: Tensor             # (sum K_j, 1) joint distribution over valid cells
    index_map: tuple           # row of p_flat -> (j, k)

    @property
    def matrix(self) -> np.ndarray:
        """Joint probabilities in padded (L', K_max) layout; invalid cells 0."""
        out = np.zeros_like(self.gamma)
        flat = self.p_flat.values.reshape(-1)
        for row, (j, k) in enumerate(self.index_map):
            out[j, k] = flat[row]
        return out


class Attacker:
    def __init__(self, params: dict, dims: ModelDims):
        self.params = params
        self.dims = dims

    @classmethod
    def create(cls, rng, vocab, dims: ModelDims, dtype=np.float32):
        d = dims
        p = init_encoder_params(rng, vocab, d.d_w, dtype=dtype)
        p["w_w"] = dc.init_uniform(rng, (d.d_w, d.d_p), dtype=dtype)
        p["w_v"] = dc.init_uniform(rng, (d.d_v, d.d_p), dtype=dtype)
        p["w_wp"] = dc.init_uniform(rng, (d.d_w, d.d_p), dtype=dtype)
        return cls(p, dims)

    @property
    def dtype(self):
        return self.params["embed"].dtype

    def encode(self, tape: Optional[Tape], instr: Instruction) -> AttackerEncoding:
        """Encode the original instruction once per episode."""
        u = encode_tokens(tape, self.params, instr.tokens)
        f_w = dc.gather_rows(tape, u, list(instr.target_set))
        cand_feats = tuple(
            dc.gather_rows(tape, u, [c.source_pos for c in cands]) if cands else None
            for cands in instr.candidates)
        return AttackerEncoding(u=u, f_w=f_w, cand_feats=cand_feats,
                                instruction=instr)

    def attack_score(self, tape, enc: AttackerEncoding, visual_state) -> AttackScore:
        """Joint (target, candidate) distribution for the current visual state.

        ``visual_state`` is the navigator's attended visual feature, consumed
        as a constant: no gradients cross between the players.
        """
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

        k_max = instr.k_max
        gamma = np.zeros((instr.n_targets, k_max), dtype=np.float32)
        valid = np.zeros((instr.n_targets, k_max), dtype=bool)
        for j, row in enumerate(gammas):
            gamma[j, :len(row)] = row
            valid[j, :len(row)] = True
        return AttackScore(beta=beta.values.reshape(-1).copy(), gamma=gamma,
                           valid=valid, p_flat=p_flat, index_map=tuple(index_map))


def select_attack(score: AttackScore, mode: str, rng=None) -> AttackAction:
    """Pick a (target, candidate) pair: argmax for greedy (ties to the lowest
    padded flat index), a draw from the joint distribution for sampling."""
    probs = score.p_flat.values.reshape(-1)
    if probs.size == 0:
        raise ValueError("attack score has no valid cells")
    if mode == "greedy":
        row = int(np.argmax(probs))
    elif mode == "sample":
        p = probs.astype(np.float64)
        p = np.maximum(p, 0.0)
        p /= p.sum()
        row = int(rng.choice(len(p), p=p))
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    j, k = score.index_map[row]
    return AttackAction(j, k)
