"""Property tests over the whole world and instruction config space.

Every config either raises ``ValueError`` or yields a world that keeps its
promises: connected, degree at most ``j_max``, nodes at least 2 m apart,
a teacher that walks to the goal within the horizon, and instructions whose
every valid attack swaps exactly one landmark word for another.  Any
instruction built from tokens has a valid cell in every target-grid row as
soon as one row has one, the invariant the attacker's masked softmax relies
on, and its grid lists the same attacks, in the same order, as the earlier
per-target candidate lists.  The examples are derandomized, so each run
checks the same set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_ops
from advnav import instruct as ins
from advnav import world as w

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=120)


def _connected(g):
    seen, stack = {0}, [0]
    while stack:
        for nbr in g.neighbors[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == g.n_nodes


def _check_world(g):
    cfg = g.config
    assert _connected(g)
    assert max(len(nbrs) for nbrs in g.neighbors.values()) <= cfg.j_max
    d = np.linalg.norm(g.coords[:, None] - g.coords[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 2.0


def _check_teacher(g, ep):
    while not ep.done:
        ep = w.step(ep, w.teacher_action(ep))
    assert ep.trajectory == ep.ground_truth_path
    assert ep.current == ep.goal
    assert ep.step_index < g.config.horizon


def _check_attacks(instr):
    vocab = ins.build_vocabulary()
    for action in instr.valid_actions():
        pert = ins.apply_perturbation(instr, action, timestep=0)
        changed = [i for i, (a, b) in enumerate(zip(instr.tokens, pert.tokens)) if a != b]
        assert changed == [instr.target_set[action.target_index]]
        old, new = instr.tokens[changed[0]], pert.tokens[changed[0]]
        assert vocab.is_landmark(old) and vocab.is_landmark(new) and old != new


world_kwargs = st.fixed_dictionaries({
    "n_nodes": st.integers(4, 60),
    "edge_density": st.floats(0.0, 1.0),
    "d_v": st.integers(2, 8),
    "horizon": st.integers(1, 12),
    "seed": st.integers(0, 2 ** 16),
    "box": st.floats(8.0, 40.0),
    "j_max": st.integers(0, 8),
})


@PROPERTY_SETTINGS
@given(kw=world_kwargs, data=st.data())
def test_world_and_instruction_keep_their_config_or_raise(kw, data):
    try:
        g = w.generate_world(w.WorldConfig(**kw))
    except ValueError as err:
        assert kw["j_max"] < 2 or "2 m apart" in str(err)
        return
    assert kw["j_max"] >= 2
    _check_world(g)
    for _ in range(3):
        start = data.draw(st.integers(0, g.n_nodes - 1))
        goal = data.draw(st.integers(0, g.n_nodes - 1))
        path = w.shortest_path(g, start, goal)
        if len(path) > g.config.horizon:
            with pytest.raises(ValueError, match="horizon"):
                w.make_episode(g, start, goal)
            continue
        ep = w.make_episode(g, start, goal)
        _check_teacher(g, ep)
        instr = ins.generate_instruction(g, ep, seed=data.draw(st.integers(0, 2 ** 16)))
        _check_attacks(instr)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_one_target_with_a_candidate_means_all_have_one(data):
    vocab = ins.build_vocabulary()
    tokens = data.draw(st.lists(st.integers(0, len(vocab.words) - 1), max_size=40))
    instr = ins.make_instruction(tokens, vocab)
    rows = instr.valid.any(axis=1).tolist()
    assert any(rows) == (bool(rows) and all(rows)) == instr.attackable


def _few_words():
    vocab = ins.build_vocabulary()
    return [vocab.id_of(x) for x in ("table", "sofa", "lamp", "kitchen", "garden", "the", "go")]


@PROPERTY_SETTINGS
@given(tokens=st.lists(st.sampled_from(_few_words()), max_size=30))
def test_grid_matches_the_candidate_lists(tokens):
    # few distinct words, so repeated targets are the common case
    instr = ins.make_instruction(tokens, ins.build_vocabulary())
    cands = legacy_ops.build_candidate_sets(instr.tokens, instr.target_set)
    assert instr.valid_actions() == legacy_ops.candidate_cells(instr)
    assert instr.attackable == (instr.n_targets >= 2 and all(cands))
