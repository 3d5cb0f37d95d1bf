import dataclasses
import itertools

import numpy as np
import pytest

from advnav import world as w


def small_world(seed=0, **kw):
    return w.generate_world(w.WorldConfig(seed=seed, **kw))


def test_same_seed_same_world():
    a = small_world(seed=5)
    b = small_world(seed=5)
    assert a.edges == b.edges
    assert np.array_equal(a.coords, b.coords)
    assert a.landmarks == b.landmarks
    for key in a.views:
        assert np.array_equal(a.views[key], b.views[key])


def test_full_density_four_nodes_is_complete():
    g = small_world(seed=1, n_nodes=4, edge_density=1.0)
    assert len(g.edges) == 6


def test_bfs_reaches_all_nodes():
    for seed in range(8):
        g = small_world(seed=seed)
        seen, frontier = {0}, [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.neighbors[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        assert len(seen) == g.n_nodes


def test_world_invariants():
    g = small_world(seed=3)
    for a, b in g.edges:
        assert g.edge_lengths[a, b] > 0
        assert g.edge_lengths[a, b] == g.edge_lengths[b, a] \
            == np.linalg.norm(g.coords[a] - g.coords[b])
    assert len(g.edge_lengths) == 2 * len(g.edges)
    for n in range(g.n_nodes):
        assert 1 <= len(g.neighbors[n]) <= g.config.j_max
        assert g.neighbors[n] == sorted(g.neighbors[n])
    assert g.candidate_views(0).shape == (1 + len(g.neighbors[0]), g.config.d_v)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        w.generate_world(w.WorldConfig(n_nodes=3))


def test_geodesic_trivial_and_chain():
    g = small_world(seed=2)
    assert w.geodesic_distance(g, 4, 4) == 0.0
    with pytest.raises(ValueError):
        w.geodesic_distance(g, 0, g.n_nodes)


def _brute_force_distance(g, a, b):
    best = 0.0 if a == b else np.inf
    nodes = list(range(g.n_nodes))
    edge_set = {tuple(e) for e in g.edges}

    def adjacent(u, v):
        return (min(u, v), max(u, v)) in edge_set

    for r in range(1, g.n_nodes):
        for mid in itertools.permutations([n for n in nodes if n not in (a, b)], r - 1):
            path = (a,) + mid + (b,)
            if all(adjacent(u, v) for u, v in zip(path, path[1:])):
                length = sum(g.edge_lengths[u, v] for u, v in zip(path, path[1:]))
                best = min(best, length)
    return best


def test_geodesic_matches_brute_force_on_small_graphs():
    for seed in range(3):
        g = small_world(seed=seed, n_nodes=6, edge_density=0.4)
        for a in range(g.n_nodes):
            for b in range(a + 1, g.n_nodes):
                assert w.geodesic_distance(g, a, b) == pytest.approx(
                    _brute_force_distance(g, a, b), rel=1e-9)


def test_geodesic_symmetric_and_triangle():
    g = small_world(seed=7)
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b, c = rng.integers(0, g.n_nodes, size=3)
        dab = w.geodesic_distance(g, int(a), int(b))
        assert dab == pytest.approx(w.geodesic_distance(g, int(b), int(a)))
        assert dab <= (w.geodesic_distance(g, int(a), int(c))
                       + w.geodesic_distance(g, int(c), int(b)) + 1e-9)


def test_shortest_path_endpoints_and_length():
    g = small_world(seed=4)
    path = w.shortest_path(g, 0, g.n_nodes - 1)
    assert path[0] == 0 and path[-1] == g.n_nodes - 1
    length = sum(g.edge_lengths[u, v] for u, v in zip(path, path[1:]))
    assert length == pytest.approx(w.geodesic_distance(g, 0, g.n_nodes - 1))


def test_stop_action_finishes_immediately():
    g = small_world(seed=0)
    ep = w.make_episode(g, 0, 5)
    done, _ = w.step(ep, w.STOP_ACTION)
    assert done.done and len(done.trajectory) == 1
    with pytest.raises(ValueError):
        w.step(done, 0)


def test_move_appends_to_trajectory():
    g = small_world(seed=0)
    ep = w.make_episode(g, 0, 5)
    nbr = g.neighbors[0][0]
    ep2, _ = w.step(ep, 1)
    assert ep2.current == nbr
    assert ep2.step_index == 1
    assert ep2.trajectory == (0, nbr)


def test_horizon_forces_done():
    g = small_world(seed=0)
    ep = w.make_episode(g, 0, 5)
    while not ep.done:
        ep, _ = w.step(ep, 1)  # always move to the first neighbor
    assert ep.step_index == g.config.horizon


def test_invalid_action_rejected():
    g = small_world(seed=0)
    ep = w.make_episode(g, 0, 5)
    with pytest.raises(ValueError):
        w.step(ep, len(g.neighbors[0]) + 1)


def test_trajectory_is_a_graph_path():
    g = small_world(seed=6)
    rng = np.random.default_rng(1)
    ep = w.make_episode(g, 0, g.n_nodes - 1)
    while not ep.done:
        ep, _ = w.step(ep, int(rng.integers(0, 1 + len(g.neighbors[ep.current]))))
    for u, v in zip(ep.trajectory, ep.trajectory[1:]):
        assert v in g.neighbors[u]


def test_reward_stop_at_goal():
    g = small_world(seed=0)
    ep = w.make_episode(g, 0, 0)
    _, reward = w.step(ep, w.STOP_ACTION)
    assert reward == 3.0


def test_reward_progress_step():
    g = small_world(seed=0)
    goal = 5
    ep = w.make_episode(g, 0, goal)
    good = ep.ground_truth_path[1]
    action = g.neighbors[0].index(good) + 1
    ep2, reward = w.step(ep, action)
    if not ep2.done:
        assert reward == 1.0


def test_rewards_are_zero_sum_and_bounded():
    g = small_world(seed=8)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, b = rng.choice(g.n_nodes, size=2, replace=False)
        ep = w.make_episode(g, int(a), int(b))
        while not ep.done:
            # the trainer pays the attacker -reward (test_rollout_clean_buffers_and_zero_sum)
            ep, reward = w.step(ep, int(rng.integers(0, 1 + len(g.neighbors[ep.current]))))
            assert reward in (-3.0, -1.0, 1.0, 3.0)


def test_each_reward_value_is_reached():
    g = small_world(seed=0)
    ep = w.make_episode(g, 0, 5)
    assert w.geodesic_distance(g, 0, 5) > g.config.success_radius
    toward = g.neighbors[0].index(ep.ground_truth_path[1]) + 1
    away = next(a for a, n in enumerate(g.neighbors[0], 1)
                if w.geodesic_distance(g, n, 5) >= w.geodesic_distance(g, 0, 5))
    assert w.step(ep, toward)[1] == 1.0
    assert w.step(ep, away)[1] == -1.0
    stopped, reward = w.step(ep, w.STOP_ACTION)
    assert reward == -3.0 and stopped.done and not stopped.success
    # walked to the goal by the teacher, the last move ends inside the radius
    while not ep.done:
        ep, reward = w.step(ep, w.teacher_action(ep))
    assert reward == 3.0 and ep.success


def test_episode_is_its_trajectory():
    g = small_world(seed=0)
    ep = w.make_episode(g, 0, 5)
    assert {f.name for f in dataclasses.fields(ep)} == \
        {"world", "goal", "trajectory", "ground_truth_path", "done"}
    ep, _ = w.step(ep, 1)
    assert (ep.start, ep.current, ep.step_index) == (0, ep.trajectory[-1], 1)
    assert not ep.success   # not over yet


@pytest.mark.parametrize("start,goal", [(0, 99), (-1, 3), (12, 0), (0, -5)])
def test_episode_endpoints_outside_the_world_rejected(start, goal):
    with pytest.raises(ValueError, match="unknown node"):
        w.make_episode(small_world(seed=0), start, goal)


def test_teacher_reaches_goal():
    g = small_world(seed=9)
    ep = w.make_episode(g, 0, g.n_nodes - 1)
    while not ep.done:
        ep, _ = w.step(ep, w.teacher_action(ep))
    assert ep.current == ep.goal
    assert w.geodesic_distance(g, ep.start, ep.goal) == pytest.approx(
        sum(g.edge_lengths[u, v] for u, v in zip(ep.trajectory, ep.trajectory[1:])))


def test_landmark_features_stable_and_distinct():
    a = w.landmark_feature("table", 32)
    b = w.landmark_feature("table", 32)
    c = w.landmark_feature("kitchen", 32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_j_max_below_two_rejected():
    # a connected tree needs a node of degree 2, so j_max=1 cannot be met
    for j_max in (0, 1):
        with pytest.raises(ValueError, match="j_max"):
            w.WorldConfig(j_max=j_max)


def test_unspaceable_world_raises():
    # 60 nodes cannot be kept 2 m apart in the 20 m box within 200 tries
    with pytest.raises(ValueError, match="2 m apart"):
        small_world(seed=0, n_nodes=60)


@pytest.mark.parametrize("field,value", [
    ("edge_density", 1.5), ("edge_density", -0.1), ("edge_density", float("nan")),
    ("d_v", 0), ("horizon", 0), ("success_radius", -1.0), ("feature_noise", -1.0),
    ("box", -5.0), ("box", 0.0), ("box", float("nan")),
    ("n_nodes", 3), ("seed", -1),
])
def test_world_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        w.WorldConfig(**{field: value})
