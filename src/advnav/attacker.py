"""The learned instruction attacker.

The attacker owns its instruction encoder parameters (the navigator's
BiLSTM form, never shared with the victim) and always encodes the original
instruction.  Each step scores the instruction's L'×L' target grid: cell
(j, i) stands for replacing target j with target i's word, and
``Instruction.valid`` marks the cells that change the word.  A
word-importance distribution over targets is driven by the current
attended visual feature, a per-row substitution-impact distribution runs
over each target's valid cells, and the joint distribution over the grid
comes from the elementwise product of the two.  Cells off ``valid`` carry
exactly zero probability."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import Tape, Tensor
from .instruct import AttackAction, Instruction
from .navigator import (ModelDims, encode_tokens, greedy_action,
                        init_encoder_params, sample_action)


@dataclass(frozen=True)
class AttackerEncoding:
    u: Tensor                  # (L, d_w) token features of the original tokens
    f_w: Tensor                # (L', d_w) target-word features
    instruction: Instruction


@dataclass(frozen=True)
class AttackScore:
    """One step's scores over the target grid; cell (j, i) of ``gamma`` and
    of ``p_flat`` is ``AttackAction(j, i)``."""
    beta: np.ndarray           # (L',) word importance
    gamma: np.ndarray          # (L', L') substitution impact in the model dtype
    valid: np.ndarray          # (L', L') bool mask of real cells
    p_flat: Tensor             # (L', L') joint distribution, read flat (row-major)


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
        """Encode the original instruction; the trainer does so once per
        update."""
        u = encode_tokens(tape, self.params, instr.tokens)
        f_w = dc.gather_rows(tape, u, list(instr.target_set))
        return AttackerEncoding(u=u, f_w=f_w, instruction=instr)

    def attack_score(self, tape, enc: AttackerEncoding, visual_state) -> AttackScore:
        """Joint distribution over the target grid for the current visual state.

        ``visual_state`` is the navigator's attended visual feature, consumed
        as a constant: no gradients cross between the players.
        """
        if not enc.instruction.attackable:
            raise ValueError("instruction has no valid substitutions")
        p, valid = self.params, enc.instruction.valid
        f_v = Tensor(np.asarray(visual_state).reshape(1, -1), dtype=self.dtype)
        ones = Tensor(np.ones((1, enc.instruction.n_targets)), dtype=self.dtype)

        pw = dc.matmul(tape, enc.f_w, p["w_w"])
        beta = dc.softmax(tape, dc.rowdot(tape, pw, dc.matmul(tape, f_v, p["w_v"])))
        impact = dc.rowdot(tape, pw, dc.matmul(tape, enc.f_w, p["w_wp"]))
        gamma = dc.softmax(tape, impact, axis=1, mask=valid)
        joint = dc.multiply(tape, gamma, dc.matmul(tape, beta, ones))
        p_flat = dc.softmax(tape, joint, mask=valid)
        return AttackScore(beta=beta.values.reshape(-1).copy(), gamma=gamma.values,
                           valid=valid, p_flat=p_flat)


def select_attack(score: AttackScore, mode: str, rng=None) -> AttackAction:
    """Pick a grid cell (j, i): argmax for greedy (ties to the lowest flat
    grid index), a draw from the joint distribution for sampling."""
    if score.p_flat.values.size == 0:
        raise ValueError("attack score has no valid cells")
    if mode == "greedy":
        row = greedy_action(score.p_flat)
    elif mode == "sample":
        row = sample_action(score.p_flat, rng)
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    return AttackAction(*divmod(row, score.valid.shape[1]))
