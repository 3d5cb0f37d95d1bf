"""Procedural navigation worlds.

A world is a small connected graph of viewpoints in the plane.  Each node
carries an object word and a location word, and every outgoing edge carries
a synthetic view feature: seeded noise plus a planted embedding of the
neighbor's landmark words, so that instructions mentioning those words are
groundable against the views.  A per-node stop view embeds the node's own
landmarks plus a global stop marker.

Episodes move along edges or stop; rewards are framed from the attacker's
side (negative when the navigator does well).  The trainer gives the
navigator the exact negation, making every transition zero-sum.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field, replace

import numpy as np

OBJECT_WORDS = (
    "table", "sofa", "bed", "lamp", "chair", "mirror", "plant", "shelf",
    "piano", "rug", "vase", "desk", "couch", "stove", "sink", "bench",
    "cabinet", "fridge", "television", "bookcase",
)
LOCATION_WORDS = (
    "kitchen", "bedroom", "bathroom", "hallway", "office", "garden",
    "balcony", "garage", "lounge", "attic", "cellar", "studio", "library",
    "pantry", "porch", "closet", "foyer", "nursery", "gym", "den",
)

STOP_ACTION = 0


def landmark_feature(word: str, dim: int) -> np.ndarray:
    """Planted feature vector for a landmark word, stable across worlds."""
    digest = hashlib.blake2b(word.encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    return (rng.standard_normal(dim) / np.sqrt(dim)).astype(np.float32)


def _stop_marker(dim: int) -> np.ndarray:
    return landmark_feature("<stop-view>", dim)


@dataclass(frozen=True)
class WorldConfig:
    n_nodes: int = 12
    edge_density: float = 0.3      # fraction of non-tree pairs added as edges
    d_v: int = 32
    success_radius: float = 3.0    # meters; success iff final distance <= this
    horizon: int = 10              # hard episode step cap
    seed: int = 0
    box: float = 20.0              # coordinate extent in meters
    feature_noise: float = 0.2
    j_max: int = 5                 # max neighbors per node

    def __post_init__(self):
        # a spanning tree on n >= 3 nodes has a node of degree >= 2
        if self.j_max < 2:
            raise ValueError(f"j_max must be at least 2, got {self.j_max}")


@dataclass
class WorldGraph:
    config: WorldConfig
    coords: np.ndarray                      # (n, 2) float64, meters
    edges: list                             # [(a, b)] with a < b
    neighbors: dict                         # node -> sorted neighbor list
    edge_lengths: dict                      # (node, neighbor) -> meters
    landmarks: dict                         # node -> (object word, location word)
    view_features: dict                     # (node, neighbor) -> (d_v,) float32
    stop_features: dict                     # node -> (d_v,) float32
    _dist_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    def candidate_views(self, node: int) -> np.ndarray:
        """Rows aligned with the action indexing: stop view first, then the
        views toward neighbors in sorted-id order."""
        rows = [self.stop_features[node]]
        rows += [self.view_features[(node, nbr)] for nbr in self.neighbors[node]]
        return np.stack(rows)


def generate_world(config: WorldConfig) -> WorldGraph:
    """Build a connected graph deterministically from ``config.seed``.

    Every node has at most ``config.j_max`` neighbors and no two nodes lie
    closer than 2 m; raises ``ValueError`` when the spacing cannot be met.
    """
    if config.n_nodes < 4:
        raise ValueError(f"need at least 4 nodes, got {config.n_nodes}")
    rng = np.random.default_rng(config.seed)
    n = config.n_nodes

    coords = rng.uniform(0.0, config.box, size=(n, 2))
    # keep nodes apart so edge lengths and the success radius stay meaningful
    for tries in range(201):
        d = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        a, b = np.unravel_index(np.argmin(d), d.shape)
        if d[a, b] >= 2.0:
            break
        if tries == 200:
            raise ValueError(f"cannot space {n} nodes 2 m apart in a "
                             f"{config.box} m box after 200 tries")
        coords[b] = rng.uniform(0.0, config.box, size=2)

    degree = {i: 0 for i in range(n)}
    edges = set()

    def connect(a, b):
        edges.add((min(a, b), max(a, b)))
        degree[a] += 1
        degree[b] += 1

    order = rng.permutation(n)
    for i in range(1, n):
        # attach each node to the geometrically nearest earlier node with
        # spare degree, keeping the tree roughly planar; a tree's mean
        # degree is below 2 <= j_max, so some earlier node has spare degree
        usable = [p for p in order[:i] if degree[p] < config.j_max]
        dists = [np.linalg.norm(coords[order[i]] - coords[p]) for p in usable]
        connect(int(order[i]), int(usable[int(np.argmin(dists))]))

    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if (a, b) not in edges]
    extra = int(round(config.edge_density * len(all_pairs)))
    rng.shuffle(all_pairs)
    for a, b in all_pairs:
        if extra <= 0:
            break
        if degree[a] >= config.j_max or degree[b] >= config.j_max:
            continue
        connect(a, b)
        extra -= 1

    neighbors = {i: [] for i in range(n)}
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    for i in range(n):
        neighbors[i].sort()
        if not neighbors[i]:
            raise ValueError("generated world has an isolated node")
    edge_lengths = {(a, b): float(np.linalg.norm(coords[a] - coords[b]))
                    for a in range(n) for b in neighbors[a]}

    objs = list(OBJECT_WORDS)
    locs = list(LOCATION_WORDS)
    rng.shuffle(objs)
    rng.shuffle(locs)
    landmarks = {i: (objs[i % len(objs)], locs[i % len(locs)]) for i in range(n)}

    noise = config.feature_noise
    d_v = config.d_v
    view_features, stop_features = {}, {}
    marker = _stop_marker(d_v)
    for i in range(n):
        for nbr in neighbors[i]:
            planted = landmark_feature(landmarks[nbr][0], d_v) \
                + landmark_feature(landmarks[nbr][1], d_v)
            base = rng.standard_normal(d_v).astype(np.float32) / np.sqrt(d_v)
            view_features[(i, nbr)] = (planted + noise * base).astype(np.float32)
        planted = landmark_feature(landmarks[i][0], d_v) \
            + landmark_feature(landmarks[i][1], d_v)
        base = rng.standard_normal(d_v).astype(np.float32) / np.sqrt(d_v)
        stop_features[i] = (planted + marker + noise * base).astype(np.float32)

    graph = WorldGraph(config=config, coords=coords, edges=sorted(edges),
                       neighbors=neighbors, edge_lengths=edge_lengths,
                       landmarks=landmarks, view_features=view_features,
                       stop_features=stop_features)
    assert _connected(graph), "spanning-tree construction must connect the graph"
    return graph


def _connected(g: WorldGraph) -> bool:
    seen, stack = {0}, [0]
    while stack:
        for nbr in g.neighbors[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == g.n_nodes


def geodesic_distance(g: WorldGraph, a: int, b: int) -> float:
    """Shortest-path distance in meters along graph edges."""
    for node in (a, b):
        if not 0 <= node < g.n_nodes:
            raise ValueError(f"unknown node {node}")
    if a == b:
        return 0.0
    dist = _dijkstra(g, a)
    return dist[b]


def _dijkstra(g: WorldGraph, src: int) -> np.ndarray:
    cached = g._dist_cache.get(src)
    if cached is not None:
        return cached
    dist = np.full(g.n_nodes, np.inf)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in g.neighbors[u]:
            nd = d + g.edge_lengths[u, v]
            if nd < dist[v] - 1e-12:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    g._dist_cache[src] = dist
    return dist


def _next_hop(g: WorldGraph, node: int, goal: int) -> int:
    """Index in ``g.neighbors[node]`` of the first hop of a shortest route
    to ``goal``; ties go to the lowest neighbor id (the list is sorted)."""
    dist = _dijkstra(g, goal)
    nbrs = g.neighbors[node]
    return min(range(len(nbrs)),
               key=lambda i: (g.edge_lengths[node, nbrs[i]] + dist[nbrs[i]], i))


def shortest_path(g: WorldGraph, a: int, b: int) -> list:
    """Node sequence of a shortest path from a to b (greedy on distances)."""
    path = [a]
    while path[-1] != b:
        path.append(g.neighbors[path[-1]][_next_hop(g, path[-1], b)])
    return path


@dataclass(frozen=True)
class Episode:
    world: WorldGraph
    start: int
    goal: int
    current: int
    trajectory: tuple
    ground_truth_path: tuple
    step_index: int = 0
    done: bool = False

    @property
    def horizon(self) -> int:
        return self.world.config.horizon


def make_episode(world: WorldGraph, start: int, goal: int) -> Episode:
    path = tuple(shortest_path(world, start, goal))
    if world.config.horizon < len(path):
        raise ValueError("horizon shorter than the ground-truth path")
    return Episode(world=world, start=start, goal=goal, current=start,
                   trajectory=(start,), ground_truth_path=path)


def step(ep: Episode, action: int) -> Episode:
    """Apply one action: 0 stops, 1..J move to the sorted neighbor list."""
    if ep.done:
        raise ValueError("episode already done")
    nbrs = ep.world.neighbors[ep.current]
    if not 0 <= action <= len(nbrs):
        raise ValueError(f"action {action} out of range 0..{len(nbrs)}")
    if action == STOP_ACTION:
        return replace(ep, done=True)
    nxt = nbrs[action - 1]
    idx = ep.step_index + 1
    return replace(ep, current=nxt, trajectory=ep.trajectory + (nxt,),
                   step_index=idx, done=idx >= ep.horizon)


def attacker_reward(ep_before: Episode, ep_after: Episode) -> float:
    """Reward for the attacking player; the trainer gives the navigator the
    negation.

    Final step: -3 when the navigator ends within the success radius of the
    goal, +3 otherwise.  Non-final step: -1 when the distance to the goal
    strictly decreased, +1 otherwise (ties count as no progress).
    """
    _check_adjacent(ep_before, ep_after)
    g = ep_before.world
    if ep_after.done:
        ne = geodesic_distance(g, ep_after.current, ep_after.goal)
        return -3.0 if ne <= g.config.success_radius else 3.0
    before = geodesic_distance(g, ep_before.current, ep_before.goal)
    after = geodesic_distance(g, ep_after.current, ep_after.goal)
    return -1.0 if after < before else 1.0


def _check_adjacent(ep_before: Episode, ep_after: Episode):
    stopped = (ep_after.trajectory == ep_before.trajectory and ep_after.done
               and ep_after.step_index == ep_before.step_index)
    moved = (ep_after.trajectory[:-1] == ep_before.trajectory
             and ep_after.step_index == ep_before.step_index + 1
             and (not ep_after.done or ep_after.step_index >= ep_after.horizon))
    if ep_before.done or not (stopped or moved):
        raise ValueError("episodes are not one step apart")


def teacher_action(ep: Episode) -> int:
    """Next action on a shortest route to the goal; stop when standing on it."""
    if ep.current == ep.goal:
        return STOP_ACTION
    return _next_hop(ep.world, ep.current, ep.goal) + 1

