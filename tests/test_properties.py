"""Property tests over the whole world and instruction config space.

Every config either raises ``ValueError`` or yields a world that keeps its
promises: connected, degree at most ``j_max``, nodes at least 2 m apart,
read-only candidate views with a row per action, a read-only geodesic
matrix that is a metric, holds each edge's exact length and gives the length
of every route, a teacher that walks to the goal within the horizon,
episodes that are their trajectories and earn the paper's rewards on any
walk, and instructions whose every valid attack swaps exactly one landmark
word for another.

Every instruction can be attacked at every step: it has at least two targets
and a valid cell in every target-grid row, the invariant the attacker's
masked softmax and the trainer rely on.  ``make_instruction`` raises exactly
when the earlier per-target candidate lists leave a row empty or there are
fewer than two targets; otherwise its grid lists the same attacks, in the
same order.  Every generated instruction is built, since it ends with the
goal's object and location, two different words.  The examples are
derandomized, so each run checks the same set.
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
    assert max(len(nbrs) for nbrs in g.neighbors) <= cfg.j_max
    d = np.linalg.norm(g.coords[:, None] - g.coords[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 2.0
    dist = g.dist
    for node, nbrs in enumerate(g.neighbors):
        views = g.candidate_views(node)
        assert views.shape == (1 + len(nbrs), cfg.d_v) and not views.flags.writeable
        # _next_hop reads an edge's length from the distance matrix
        for nbr in nbrs:
            assert dist[node, nbr] == float(np.linalg.norm(g.coords[node] - g.coords[nbr]))
    assert not dist.flags.writeable and (np.diag(dist) == 0.0).all()
    np.testing.assert_allclose(dist, dist.T, rtol=0, atol=1e-9)
    # dist[a, b] <= dist[a, c] + dist[c, b], laid out as [a, c, b]
    assert (dist[:, None, :] <= dist[:, :, None] + dist[None, :, :] + 1e-9).all()
    for a in range(g.n_nodes):
        for b in range(g.n_nodes):
            path = w.shortest_path(g, a, b)
            length = sum(float(dist[u, v]) for u, v in zip(path, path[1:]))
            assert dist[a, b] == pytest.approx(length, rel=1e-12, abs=0)


def _check_teacher(g, ep):
    while not ep.done:
        ep, _ = w.step(ep, w.teacher_action(ep))
    assert ep.trajectory == ep.ground_truth_path
    assert ep.current == ep.goal
    assert ep.step_index < g.config.horizon


def _check_walk(g, ep, draw):
    """Every reward of a random walk follows the rule recomputed from the
    distances: +-1 for progress, +-3 on the final move by the radius."""
    radius = g.config.success_radius
    while not ep.done:
        before = w.geodesic_distance(g, ep.current, ep.goal)
        ep, reward = w.step(ep, draw(st.integers(0, len(g.neighbors[ep.current]))))
        after = w.geodesic_distance(g, ep.current, ep.goal)
        if ep.done:
            assert reward == (3.0 if after <= radius else -3.0)
        else:
            assert reward == (1.0 if after < before else -1.0)
        assert ep.current == ep.trajectory[-1]
        assert ep.step_index == len(ep.trajectory) - 1 <= g.config.horizon
    assert ep.success == (after <= radius)


def _check_attacks(instr):
    """Each valid flat cell j * L' + i puts target i's word at target j, a
    numpy integer alike; anything else is refused."""
    vocab, n = ins.build_vocabulary(), instr.n_targets
    cells = instr.valid_actions()
    assert cells == np.flatnonzero(instr.valid).tolist()
    for cell in cells:
        pert = ins.apply_perturbation(instr, cell, timestep=0)
        assert pert == ins.apply_perturbation(instr, np.int64(cell), timestep=0)
        assert pert.position == instr.target_set[cell // n]
        assert pert.token == instr.tokens[instr.target_set[cell % n]]
        changed = [i for i, (a, b) in enumerate(zip(instr.tokens, pert.tokens)) if a != b]
        assert changed == [pert.position]
        old, new = instr.tokens[changed[0]], pert.tokens[changed[0]]
        assert vocab.is_landmark(old) and vocab.is_landmark(new) and old != new
    refused = [c for c in range(-1, n * n + 1) if c not in cells] + [1.0, None]
    refused += [np.float64(c) for c in cells] + [divmod(c, n) for c in cells]
    for cell in refused:
        with pytest.raises(ValueError, match="attack cell"):
            ins.apply_perturbation(instr, cell, timestep=0)


world_kwargs = st.fixed_dictionaries({
    "n_nodes": st.integers(4, 60),
    "edge_density": st.floats(0.0, 1.0),
    "d_v": st.integers(2, 8),
    "horizon": st.integers(1, 12),
    "seed": st.integers(0, 2 ** 16),
    "box": st.floats(8.0, 40.0),
    "success_radius": st.floats(0.0, 10.0),
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
        _check_walk(g, ep, data.draw)
        instr = ins.generate_instruction(g, ep, seed=data.draw(st.integers(0, 2 ** 16)))
        _check_attacks(instr)
        assert tuple(instr.tokens[p] for p in instr.target_set[-2:]) == \
            tuple(ins.build_vocabulary().id_of(x) for x in g.landmarks[ep.goal])


def _built_or_refused(tokens):
    """The instruction ``make_instruction`` builds from ``tokens``, or None
    when it refuses them, with the earlier candidate lists of the tokens."""
    vocab = ins.build_vocabulary()
    cands = legacy_ops.build_candidate_sets(tokens, ins.build_target_set(tokens, vocab))
    try:
        instr = ins.make_instruction(tokens, vocab)
    except ValueError:
        instr = None
    assert (instr is None) == (len(cands) < 2 or not all(cands))
    return instr, cands


@PROPERTY_SETTINGS
@given(data=st.data())
def test_one_target_with_a_candidate_means_all_have_one(data):
    vocab = ins.build_vocabulary()
    tokens = data.draw(st.lists(st.integers(0, len(vocab.words) - 1), max_size=40))
    instr, cands = _built_or_refused(tokens)
    assert any(cands) == (bool(cands) and all(cands))
    if instr is not None:
        assert instr.valid.any(axis=1).all()


def _few_words():
    vocab = ins.build_vocabulary()
    return [vocab.id_of(x) for x in ("table", "sofa", "lamp", "kitchen", "garden", "the", "go")]


@PROPERTY_SETTINGS
@given(tokens=st.lists(st.sampled_from(_few_words()), max_size=30))
def test_grid_matches_the_candidate_lists(tokens):
    # few distinct words, so repeated targets are the common case
    instr, _ = _built_or_refused(tokens)
    if instr is not None:
        assert instr.valid_actions() == legacy_ops.candidate_cells(instr)
