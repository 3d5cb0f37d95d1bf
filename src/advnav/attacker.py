"""The learned instruction attacker.

The attacker owns its instruction encoder parameters (the navigator's
BiLSTM form, never shared with the victim) and always encodes the original
instruction.  Each step scores the instruction's L'×L' target grid: cell
(j, i), the flat cell j * L' + i of ``instruct``, puts target i's word at
target j, and ``Instruction.valid`` marks the cells that change the word.  A
word-importance distribution over targets is driven by the current
attended visual feature, a per-row substitution-impact distribution runs
over each target's valid cells, and the joint distribution over the grid
comes from the elementwise product of the two.  Cells off ``valid`` carry
exactly zero probability.  The model only scores: the rollout picks the
cell from that distribution by the navigator's rule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import Tape, Tensor
from .instruct import Instruction
from .navigator import ModelDims, encode_tokens, init_encoder_params


@dataclass(frozen=True)
class AttackerEncoding:
    f_w: Tensor                # (L', d_w) target-word features
    instruction: Instruction


@dataclass(frozen=True)
class AttackScore:
    """One step's scores over the target grid; entry (j, i) of ``gamma`` and
    of ``p_flat`` is flat cell j * L' + i.  It holds no pick: the rollout
    takes a cell from ``p_flat``."""
    beta: np.ndarray           # (L',) word importance
    gamma: np.ndarray          # (L', L') substitution impact in the model dtype
    valid: np.ndarray          # (L', L') bool mask of real cells
    p_flat: Tensor             # (L', L') joint distribution, read flat (row-major)


class Attacker:
    def __init__(self, params: dict):
        self.params = params

    @classmethod
    def create(cls, rng, vocab, dims: ModelDims, dtype=np.float32):
        d = dims
        p = init_encoder_params(rng, vocab, d.d_w, dtype=dtype)
        p["w_w"] = dc.init_uniform(rng, (d.d_w, d.d_p), dtype=dtype)
        p["w_v"] = dc.init_uniform(rng, (d.d_v, d.d_p), dtype=dtype)
        p["w_wp"] = dc.init_uniform(rng, (d.d_w, d.d_p), dtype=dtype)
        return cls(p)

    @property
    def dtype(self):
        return self.params["embed"].dtype

    def encode(self, tape: Optional[Tape], instr: Instruction) -> AttackerEncoding:
        """Encode the original instruction; the trainer does so once per
        update."""
        u = encode_tokens(tape, self.params, instr.tokens)
        f_w = dc.gather_rows(tape, u, list(instr.target_set))
        return AttackerEncoding(f_w=f_w, instruction=instr)

    def attack_score(self, tape, enc: AttackerEncoding, visual_state) -> AttackScore:
        """Joint distribution over the target grid for the current visual state.

        ``visual_state`` is the navigator's attended visual feature, consumed
        as a constant: no gradients cross between the players.
        """
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
