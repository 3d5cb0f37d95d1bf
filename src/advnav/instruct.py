"""Synthetic instruction corpus and single-word perturbations.

Instructions are templated walks along an episode's ground-truth path:
direction and filler words interleaved with the object/location landmark
words of the nodes being passed, ending with the goal's landmarks.  The
positions open to attack (the target set) are all the object and location
tokens, wherever they stand.  A substitution replaces target j's word with
another target's word of the same instruction, so every attack is a cell
(j, i) of the L'×L' target grid, and ``Instruction.valid`` marks the cells
that change the word.  Every instruction has at least two targets and a
valid cell in every grid row, so every step can be attacked; generated ones
always do, as the goal names an object and a location, two different words.
A perturbation swaps one target token of the original sequence;
perturbations never compound across timesteps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

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

    def __post_init__(self):
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.words)})

    def __len__(self):
        return len(self.words)

    def id_of(self, word: str) -> int:
        return self._index[word]

    def word(self, token_id: int) -> str:
        return self.words[token_id]

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
    vocab = Vocabulary(words=tuple(words), classes=tuple(classes))
    assert len(set(words)) == len(words), "vocabulary words must be unique"
    return vocab


class AttackAction(NamedTuple):
    target_index: int       # j in [0, L'): the target whose word is replaced
    source_index: int       # i in [0, L'): the target whose word replaces it


@dataclass(frozen=True)
class Instruction:
    """Construction raises ``ValueError`` unless there are at least two
    targets, at increasing positions of ``tokens``, and ``valid`` is an L'×L'
    grid with a valid cell in every row and none that swaps a word for itself;
    ``valid`` is kept as a read-only copy."""
    tokens: tuple
    target_set: tuple                     # positions of object/location tokens
    # (L', L') read-only bool: cell (j, i) may put target i's word at target j
    valid: np.ndarray = field(compare=False)

    def __post_init__(self):
        n, valid = self.n_targets, np.array(self.valid, dtype=bool)
        if n < 2 or valid.shape != (n, n) or not valid.any(axis=1).all():
            raise ValueError(f"{n} targets and a {valid.shape} grid: an instruction needs "
                             "two or more targets and an L'×L' grid with no empty row")
        pos = self.target_set
        if pos[0] < 0 or pos[-1] >= len(self.tokens) or any(a >= b for a, b in zip(pos, pos[1:])):
            raise ValueError(f"target positions {pos} do not increase within the tokens")
        words = np.array([self.tokens[p] for p in pos])
        if (valid & (words[:, None] == words[None, :])).any():
            raise ValueError("a valid cell swaps a target's word for the same word")
        valid.flags.writeable = False
        object.__setattr__(self, "valid", valid)

    @property
    def n_targets(self) -> int:
        return len(self.target_set)

    def valid_actions(self):
        """Valid grid cells in row-major order."""
        return [AttackAction(int(j), int(i)) for j, i in np.argwhere(self.valid)]


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


def build_target_set(tokens, vocab: Vocabulary) -> tuple:
    """Positions of object/location tokens in sentence order."""
    return tuple(i for i, t in enumerate(tokens) if vocab.is_landmark(t))


def make_instruction(tokens, vocab: Vocabulary) -> Instruction:
    """Cell (j, i) of ``valid`` is true when target i's word differs from
    target j's and i is the first target carrying that word, so every
    substitution changes the word and each word is offered once per row.
    Raises ``ValueError`` unless the targets carry two different words."""
    tokens = tuple(tokens)
    targets = build_target_set(tokens, vocab)
    words = np.array([tokens[p] for p in targets], dtype=np.int64)
    first = np.zeros(len(targets), dtype=bool)
    first[np.unique(words, return_index=True)[1]] = True
    valid = (words[None, :] != words[:, None]) & first[None, :]
    return Instruction(tokens=tokens, target_set=targets, valid=valid)


def apply_perturbation(instr: Instruction, action: AttackAction,
                       timestep: int) -> PerturbedInstruction:
    """Substitute one target word of the original tokens; never compounds."""
    j, i = action.target_index, action.source_index
    n = instr.n_targets
    if not (0 <= j < n and 0 <= i < n and instr.valid[j, i]):
        raise ValueError(f"attack cell {(j, i)} is not a valid substitution")
    return PerturbedInstruction(base=instr, position=instr.target_set[j],
                                token=instr.tokens[instr.target_set[i]],
                                timestep=timestep)


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


def generate_instruction(world: WorldGraph, ep: Episode, seed: int) -> Instruction:
    """Templated instruction walking the ground-truth path, deterministic per seed.

    One landmark of each intermediate node is mentioned in path order and the
    goal contributes both of its landmarks, last: an object word and a
    location word differ, so every target has a substitute.
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
    return make_instruction(tuple(vocab.id_of(w) for w in words), vocab)
