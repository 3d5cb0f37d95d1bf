"""The victim navigator: instruction encoder, attentive decoder, action head,
and the attacked-word prediction head.

Per step the decoder attends over the candidate views with its previous
fused state, feeds the attended visual feature plus the previous action
feature through a gated recurrence, attends over the encoded instruction
with the fresh hidden state, fuses both into the visual-and-instruction
aware state, and scores the candidate actions against it.  Only on an
attacked step does the caller combine the same fused state with the target-
word features into a distribution over which target word was attacked.

All attention layouts follow the row-vector convention: features are rows,
projections are (in, out) matrices, and bilinear scores are per-row dot
products against a projected row vector.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import Tape, Tensor
from .world import landmark_feature


@dataclass(frozen=True)
class ModelDims:
    d_w: int = 32   # token feature width (bidirectional encoder output)
    d_v: int = 32   # view feature width
    d_p: int = 32   # projection width for score heads
    d_h: int = 32   # decoder hidden width

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, numbers.Integral) or value <= 0:
                raise ValueError(f"{f.name} must be a positive integer, got {value!r}")
        if self.d_w % 2:
            raise ValueError("d_w must be even (split across encoder directions)")


@dataclass(frozen=True)
class EncodedInstruction:
    u: Tensor                 # (L, d_w) contextual token features
    f_w: Tensor               # (L', d_w) rows of u at the target positions


@dataclass(frozen=True)
class NavState:
    h_tilde: Tensor           # fused state consumed by the next visual attention
    cell: Tensor
    prev_action: Optional[Tensor]   # view feature of the action just taken


@dataclass(frozen=True)
class NavStepOutput:
    alpha_w: Tensor           # attention over instruction tokens
    p_n: Tensor               # action distribution over stop + neighbors


def init_encoder_params(rng, vocab, d_w, dtype=np.float32) -> dict:
    """Word embedding plus both directions of the BiLSTM encoder, one table
    row per word of the ``Vocabulary``.  Landmark words start from the same
    planted lexical vectors the synthetic views carry (the pretrained-
    embedding analog), other words start uniform."""
    table = rng.uniform(-1.0 / np.sqrt(d_w), 1.0 / np.sqrt(d_w), size=(len(vocab), d_w))
    for t in range(len(vocab)):
        if vocab.is_landmark(t):
            table[t] = landmark_feature(vocab.word(t), d_w)
    p = {"embed": Tensor(table, dtype=dtype)}
    p.update(dc.init_lstm_params(rng, d_w, d_w // 2, prefix="enc_f.", dtype=dtype))
    p.update(dc.init_lstm_params(rng, d_w, d_w // 2, prefix="enc_b.", dtype=dtype))
    return p


def encode_tokens(tape: Optional[Tape], params: dict, tokens,
                  memo: Optional[dict] = None) -> Tensor:
    """Embed ``tokens`` and run both recurrence directions -> (L, d_w) rows.

    Each call makes one ``lstm_cell`` pair per direction, so an untaped
    encode stacks each direction's gates once, not once per cell.  ``memo``
    keeps each embedding row under its token, each token's input products
    under (prefix, token) and each cell under (prefix, input h or None,
    token), so encodes sharing it project each token once per direction and
    run each distinct cell once: after a one-word swap at p, only the forward
    cells from p and the backward cells down from p run.  Taped, a cell then
    costs 17 entries, and each new (prefix, token) 4 more.  Share it on one
    tape and ``params``.
    """
    if len(tokens) == 0:
        raise ValueError("cannot encode an empty instruction")
    memo = {} if memo is None else memo
    embed = params["embed"]
    zero = dc.zeros((1, embed.values.shape[1] // 2), dtype=embed.dtype)
    cols = []
    for prefix, order in (("enc_f.", range(len(tokens))),
                          ("enc_b.", range(len(tokens) - 1, -1, -1))):
        project, step = dc.lstm_cell(tape, params, prefix)
        h, c, outs = None, zero, [None] * len(tokens)
        for i in order:
            t = tokens[i]
            key = (prefix, h, t)
            if key not in memo:
                if (prefix, t) not in memo:
                    if t not in memo:
                        memo[t] = dc.embedding(tape, embed, (t,))
                    memo[prefix, t] = project(memo[t])
                memo[key] = step(memo[prefix, t], zero if h is None else h, c)
            h, c = memo[key]
            outs[i] = h
        cols.append(dc.concat(tape, outs, axis=0))
    return dc.concat(tape, cols, axis=1)


class Navigator:
    """Bundles the parameter dict with the forward passes."""

    def __init__(self, params: dict):
        self.params = params

    @classmethod
    def create(cls, rng, vocab, dims: ModelDims, dtype=np.float32):
        """``vocab`` is the ``Vocabulary``; its landmark rows get planted
        vectors (``init_encoder_params``)."""
        d = dims
        p = init_encoder_params(rng, vocab, d.d_w, dtype=dtype)
        p.update(dc.init_lstm_params(rng, 2 * d.d_v, d.d_h, prefix="dec.", dtype=dtype))
        p["w_u"] = dc.init_uniform(rng, (d.d_w, d.d_h), dtype=dtype)
        p["w_vp"] = dc.init_uniform(rng, (d.d_v, d.d_h), dtype=dtype)
        p["w_hp"] = dc.init_uniform(rng, (d.d_w + d.d_h, d.d_h), dtype=dtype)
        p["w_a"] = dc.init_uniform(rng, (d.d_v, d.d_h), dtype=dtype)
        p["w_e"] = dc.init_uniform(rng, (d.d_w, d.d_p), dtype=dtype)
        p["w_h"] = dc.init_uniform(rng, (d.d_h, d.d_p), dtype=dtype)
        p["a0"] = dc.init_uniform(rng, (1, d.d_v), fan_in=d.d_v, dtype=dtype)
        return cls(p)

    @property
    def dtype(self):
        return self.params["embed"].dtype

    # -- encoder ------------------------------------------------------------

    def encode(self, tape: Optional[Tape], tokens, target_set,
               memo: Optional[dict] = None) -> EncodedInstruction:
        """Embed tokens and run both recurrence directions; gather the rows
        at the ``target_set`` positions.  ``memo`` shares cells between
        encodes on one tape (``encode_tokens``)."""
        u = encode_tokens(tape, self.params, tokens, memo)
        return EncodedInstruction(u=u, f_w=dc.gather_rows(tape, u, list(target_set)))

    # -- decoder ------------------------------------------------------------

    def initial_state(self) -> NavState:
        d_h = self.params["dec.bi"].shape[1]     # the decoder's width
        return NavState(h_tilde=dc.zeros((1, d_h), dtype=self.dtype),
                        cell=dc.zeros((1, d_h), dtype=self.dtype),
                        prev_action=self.params["a0"])

    def visual_attention(self, tape, views: Tensor, state: NavState):
        """Attention over candidate views driven by the previous fused state."""
        if views.values.shape[0] == 0:
            raise ValueError("no candidate views")
        scores = dc.rowdot(tape, dc.matmul(tape, views, self.params["w_vp"]),
                           state.h_tilde)
        alpha_v = dc.softmax(tape, scores)
        f_v = dc.attend(tape, alpha_v, views)
        return alpha_v, f_v

    def decode_with_visual(self, tape, enc: EncodedInstruction, views: Tensor,
                           f_v: Tensor, state: NavState):
        """Finish a step given the attended visual feature ``f_v`` from
        ``visual_attention``; the returned state still needs ``with_action``,
        and its ``h_tilde`` feeds ``predict_attacked_word`` on attacked steps."""
        p = self.params
        x = dc.concat(tape, [f_v, state.prev_action], axis=1)
        project, step = dc.lstm_cell(tape, p, "dec.")
        h, cell = step(project(x), state.h_tilde, state.cell)
        alpha_w = dc.softmax(tape, dc.rowdot(
            tape, dc.matmul(tape, enc.u, p["w_u"]), h))
        f_w_att = dc.attend(tape, alpha_w, enc.u)
        h_tilde = dc.tanh(tape, dc.matmul(
            tape, dc.concat(tape, [f_w_att, h], axis=1), p["w_hp"]))
        p_n = dc.softmax(tape, dc.rowdot(
            tape, dc.matmul(tape, views, p["w_a"]), h_tilde))
        out = NavStepOutput(alpha_w=alpha_w, p_n=p_n)
        return out, NavState(h_tilde=h_tilde, cell=cell, prev_action=None)

    def predict_attacked_word(self, tape, h_tilde: Tensor, f_w: Tensor) -> Tensor:
        """Distribution over target words for the reasoning head."""
        p = self.params
        scores = dc.rowdot(tape, dc.matmul(tape, f_w, p["w_e"]),
                           dc.matmul(tape, h_tilde, p["w_h"]))
        return dc.softmax(tape, scores)

    def with_action(self, state: NavState, views: Tensor, action: int) -> NavState:
        """Record the chosen candidate's view feature as the next action input."""
        feat = Tensor(views.values[action:action + 1].copy(), dtype=self.dtype)
        return replace(state, prev_action=feat)


def greedy_action(p: Tensor) -> int:
    return int(np.argmax(p.values.reshape(-1)))


def sample_action(p: Tensor, rng) -> int:
    probs = p.values.reshape(-1).astype(np.float64)
    probs /= probs.sum()
    return int(rng.choice(len(probs), p=probs))
