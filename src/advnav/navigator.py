"""The victim navigator: instruction encoder, attentive decoder, action head,
and the attacked-word prediction head.

Per step the decoder attends over the candidate views with its previous
fused state, feeds the attended visual feature plus the previous action
feature through a gated recurrence, attends over the encoded instruction
with the fresh hidden state, fuses both into the visual-and-instruction
aware state, and scores the candidate actions against it.  The same fused
state combined with the target-word features yields a distribution over
which target word was attacked.

All attention layouts follow the row-vector convention: features are rows,
projections are (in, out) matrices, and bilinear scores are per-row dot
products against a projected row vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
        if min(self.d_w, self.d_v, self.d_p, self.d_h) <= 0:
            raise ValueError("model dims must be positive")
        if self.d_w % 2:
            raise ValueError("d_w must be even (split across encoder directions)")


@dataclass(frozen=True)
class EncodedInstruction:
    u: Tensor                 # (L, d_w) contextual token features
    f_w: Tensor               # (L', d_w) rows of u at the target positions
    target_set: tuple
    tokens: tuple


@dataclass(frozen=True)
class NavState:
    h_tilde: Tensor           # fused state consumed by the next visual attention
    cell: Tensor
    prev_action: Optional[Tensor]   # view feature of the action just taken


@dataclass(frozen=True)
class NavStepOutput:
    alpha_v: Tensor           # attention over candidate views
    f_v: Tensor               # attended visual feature (the RL state)
    alpha_w: Tensor           # attention over instruction tokens
    f_w_att: Tensor           # attended token feature
    h: Tensor                 # recurrent hidden state
    h_tilde: Tensor           # fused visual-and-instruction aware state
    p_n: Tensor               # action distribution over stop + neighbors
    p_c: Tensor               # attacked-word distribution over targets


def init_encoder_params(rng, vocab, d_w, dtype=np.float32) -> dict:
    """Word embedding plus both directions of the BiLSTM encoder.

    ``vocab`` is either a Vocabulary or a plain table size.  Landmark words
    start from the same planted lexical vectors the synthetic views carry
    (the pretrained-embedding analog), other words start uniform."""
    size = vocab if isinstance(vocab, int) else len(vocab)
    table = rng.uniform(-1.0 / np.sqrt(d_w), 1.0 / np.sqrt(d_w), size=(size, d_w))
    if not isinstance(vocab, int):
        for t in range(size):
            if vocab.is_landmark(t):
                table[t] = landmark_feature(vocab.word(t), d_w)
    p = {"embed": Tensor(table, dtype=dtype)}
    p.update(dc.init_lstm_params(rng, d_w, d_w // 2, prefix="enc_f.", dtype=dtype))
    p.update(dc.init_lstm_params(rng, d_w, d_w // 2, prefix="enc_b.", dtype=dtype))
    return p


def encode_tokens(tape: Optional[Tape], params: dict, tokens) -> Tensor:
    """Embed ``tokens`` and run both recurrence directions -> (L, d_w) rows."""
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


class Navigator:
    """Bundles the parameter dict with the forward passes."""

    def __init__(self, params: dict, dims: ModelDims):
        self.params = params
        self.dims = dims

    @classmethod
    def create(cls, rng, vocab, dims: ModelDims, dtype=np.float32):
        """``vocab`` is either a Vocabulary (landmark rows get planted
        vectors) or a plain table size."""
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
        return cls(p, dims)

    @property
    def dtype(self):
        return self.params["embed"].dtype

    # -- encoder ------------------------------------------------------------

    def encode(self, tape: Optional[Tape], tokens, target_set=()) -> EncodedInstruction:
        """Embed tokens and run both recurrence directions; gather target rows."""
        u = encode_tokens(tape, self.params, tokens)
        f_w = dc.gather_rows(tape, u, list(target_set)) if target_set else None
        return EncodedInstruction(u=u, f_w=f_w, target_set=tuple(target_set),
                                  tokens=tuple(tokens))

    # -- decoder ------------------------------------------------------------

    def initial_state(self) -> NavState:
        return NavState(h_tilde=dc.zeros((1, self.dims.d_h), dtype=self.dtype),
                        cell=dc.zeros((1, self.dims.d_h), dtype=self.dtype),
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
                           alpha_v: Tensor, f_v: Tensor, state: NavState):
        """Finish a step given the attended visual feature already computed."""
        p = self.params
        x = dc.concat(tape, [f_v, state.prev_action], axis=1)
        h, cell = dc.lstm_cell(tape, x, state.h_tilde, state.cell, p, prefix="dec.")
        alpha_w = dc.softmax(tape, dc.rowdot(
            tape, dc.matmul(tape, enc.u, p["w_u"]), h))
        f_w_att = dc.attend(tape, alpha_w, enc.u)
        h_tilde = dc.tanh(tape, dc.matmul(
            tape, dc.concat(tape, [f_w_att, h], axis=1), p["w_hp"]))
        p_n = dc.softmax(tape, dc.rowdot(
            tape, dc.matmul(tape, views, p["w_a"]), h_tilde))
        p_c = self.predict_attacked_word(tape, h_tilde, enc.f_w) \
            if enc.f_w is not None else None
        out = NavStepOutput(alpha_v=alpha_v, f_v=f_v, alpha_w=alpha_w,
                            f_w_att=f_w_att, h=h, h_tilde=h_tilde,
                            p_n=p_n, p_c=p_c)
        return out, NavState(h_tilde=h_tilde, cell=cell, prev_action=None)

    def decode_step(self, tape, enc: EncodedInstruction, views: Tensor,
                    state: NavState):
        """One full decoder step; the returned state still needs ``with_action``."""
        alpha_v, f_v = self.visual_attention(tape, views, state)
        return self.decode_with_visual(tape, enc, views, alpha_v, f_v, state)

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


def greedy_action(p) -> int:
    vals = p.values if isinstance(p, Tensor) else np.asarray(p)
    return int(np.argmax(vals.reshape(-1)))


def sample_action(p, rng) -> int:
    vals = (p.values if isinstance(p, Tensor) else np.asarray(p)).reshape(-1)
    probs = vals.astype(np.float64)
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    return int(rng.choice(len(probs), p=probs))
