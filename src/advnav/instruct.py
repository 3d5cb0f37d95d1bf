"""Synthetic instruction corpus and single-word perturbations.

Instructions are templated walks along an episode's ground-truth path:
direction and filler words interleaved with the object/location landmark
words of the nodes being passed, ending with the goal's landmarks.  The
attackable positions (the target set) are exactly the object and location
tokens; each target's candidate substitutions are the other target words of
the same instruction.  A perturbation swaps one target token of the
original sequence; perturbations never compound across timesteps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .world import LOCATION_WORDS, OBJECT_WORDS, Episode, WorldGraph

DIRECTION_WORDS = ("left", "right", "forward", "back", "straight", "around", "stop")
FILLER_WORDS = (
    "walk", "go", "past", "the", "into", "to", "then", "and", "towards",
    "reach", "at", "head", "turn", "move", "until", "you", "see", "wait",
    "in", "enter", "through", "with", "continue", "when",
)
PAD_TOKEN, START_TOKEN = "<pad>", "<start>"


@dataclass(frozen=True)
class Vocabulary:
    words: tuple
    classes: tuple          # per token: object|location|direction|filler
    pad_id: int
    start_id: int
    stop_word_id: int

    def __post_init__(self):
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.words)})

    def __len__(self):
        return len(self.words)

    def id_of(self, word: str) -> int:
        return self._index[word]

    def word(self, token_id: int) -> str:
        return self.words[token_id]

    def class_of(self, token_id: int) -> str:
        return self.classes[token_id]

    def is_landmark(self, token_id: int) -> bool:
        return self.classes[token_id] in ("object", "location")

    def decode(self, tokens) -> str:
        return " ".join(self.words[t] for t in tokens)


@functools.lru_cache(maxsize=1)
def build_vocabulary() -> Vocabulary:
    words = [PAD_TOKEN, START_TOKEN]
    classes = ["filler", "filler"]
    for w in FILLER_WORDS:
        words.append(w)
        classes.append("filler")
    for w in DIRECTION_WORDS:
        words.append(w)
        classes.append("direction")
    for w in OBJECT_WORDS:
        words.append(w)
        classes.append("object")
    for w in LOCATION_WORDS:
        words.append(w)
        classes.append("location")
    vocab = Vocabulary(words=tuple(words), classes=tuple(classes),
                       pad_id=0, start_id=1, stop_word_id=words.index("stop"))
    assert len(set(words)) == len(words), "vocabulary words must be unique"
    return vocab


class Candidate(NamedTuple):
    token_id: int
    source_pos: int         # position of that word in the instruction


class AttackAction(NamedTuple):
    target_index: int       # j in [0, L')
    candidate_index: int    # k in [0, K_j)


@dataclass(frozen=True)
class Instruction:
    tokens: tuple
    target_set: tuple                     # positions of object/location tokens
    candidates: tuple                     # per target: tuple[Candidate, ...]
    attackable_mask: Optional[tuple] = None   # (lo, hi) token range or None

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def n_targets(self) -> int:
        return len(self.target_set)

    @property
    def k_max(self) -> int:
        return max((len(c) for c in self.candidates), default=0)

    @property
    def attackable(self) -> bool:
        return self.n_targets >= 2 and any(len(c) > 0 for c in self.candidates)

    def valid_actions(self):
        return [AttackAction(j, k) for j in range(self.n_targets)
                for k in range(len(self.candidates[j]))]


@dataclass(frozen=True)
class PerturbedInstruction:
    base: Instruction
    position: int
    token: int
    timestep: int

    @property
    def tokens(self) -> tuple:
        t = list(self.base.tokens)
        t[self.position] = self.token
        return tuple(t)


def build_target_set(tokens, vocab: Vocabulary, attackable_mask=None) -> tuple:
    """Positions of object/location tokens in sentence order, mask applied."""
    lo, hi = attackable_mask if attackable_mask else (0, len(tokens))
    return tuple(i for i, t in enumerate(tokens)
                 if vocab.is_landmark(t) and lo <= i < hi)


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


def make_instruction(tokens, vocab: Vocabulary, attackable_mask=None) -> Instruction:
    targets = build_target_set(tokens, vocab, attackable_mask)
    return Instruction(tokens=tuple(tokens), target_set=targets,
                       candidates=build_candidate_sets(tokens, targets),
                       attackable_mask=attackable_mask)


def apply_perturbation(instr: Instruction, action: AttackAction,
                       timestep: int) -> PerturbedInstruction:
    """Substitute one target word of the original tokens; never compounds."""
    if not 0 <= action.target_index < instr.n_targets:
        raise ValueError(f"target index {action.target_index} out of range")
    cands = instr.candidates[action.target_index]
    if not 0 <= action.candidate_index < len(cands):
        raise ValueError(f"candidate index {action.candidate_index} out of range")
    return PerturbedInstruction(
        base=instr,
        position=instr.target_set[action.target_index],
        token=cands[action.candidate_index].token_id,
        timestep=timestep,
    )


# ---------------------------------------------------------------------------
# template generation

_HOP_OBJECT = (
    "walk {d} past the {w}",
    "go {d} to the {w}",
    "move {d} towards the {w}",
)
_HOP_LOCATION = (
    "head {d} into the {w}",
    "go {d} to the {w}",
    "continue {d} through the {w}",
)
_HOP_BOTH = (
    "go {d} to the {o} in the {l}",
    "walk {d} past the {o} in the {l}",
)
_FINAL = (
    "then stop at the {o} in the {l}",
    "then wait at the {o} in the {l}",
)


def _direction_word(world: WorldGraph, prev: int, cur: int, nxt: int) -> str:
    if prev is None:
        return "forward"
    h = world.coords[cur] - world.coords[prev]
    n = world.coords[nxt] - world.coords[cur]
    cross = h[0] * n[1] - h[1] * n[0]
    dot = h @ n
    if abs(cross) <= abs(dot) and dot > 0:
        return "forward"
    if abs(cross) <= abs(dot):
        return "back"
    return "left" if cross > 0 else "right"


def generate_instruction(world: WorldGraph, ep: Episode, seed: int,
                         mask_final_phrase: bool = False) -> Instruction:
    """Templated instruction walking the ground-truth path, deterministic per seed.

    One landmark of each intermediate node is mentioned in path order and the
    goal contributes both of its landmarks, so any episode yields at least
    two attackable words.  ``mask_final_phrase`` restricts the attackable
    region to the last sentence.
    """
    if not ep.ground_truth_path:
        raise ValueError("episode has an empty ground-truth path")
    vocab = build_vocabulary()
    rng = np.random.default_rng(seed)
    path = ep.ground_truth_path
    phrases = []
    hops = len(path) - 1
    rich_hop = int(rng.integers(hops)) if hops else -1
    for i in range(1, len(path)):
        node = path[i]
        d = _direction_word(world, path[i - 2] if i >= 2 else None,
                            path[i - 1], node)
        obj, loc = world.landmarks[node]
        if i - 1 == rich_hop:
            # one hop names both landmarks, the rest alternate
            phrases.append(str(rng.choice(_HOP_BOTH)).format(d=d, o=obj, l=loc))
        elif rng.integers(2) == 0:
            phrases.append(str(rng.choice(_HOP_OBJECT)).format(d=d, w=obj))
        else:
            phrases.append(str(rng.choice(_HOP_LOCATION)).format(d=d, w=loc))
    goal_obj, goal_loc = world.landmarks[ep.goal]
    final = str(rng.choice(_FINAL)).format(o=goal_obj, l=goal_loc)
    words = (" then ".join(phrases) + (" " if phrases else "") + final).split()
    tokens = tuple(vocab.id_of(w) for w in words)
    mask = None
    if mask_final_phrase:
        # the final sentence starts at the last "then"/"and" connective
        starts = [i for i, t in enumerate(tokens)
                  if vocab.word(t) in ("then", "and")]
        mask = (starts[-1], len(tokens))
    return make_instruction(tokens, vocab, attackable_mask=mask)
