"""Procedural navigation worlds.

A world is a small connected graph of viewpoints in the plane.  Each node
carries an object word and a location word, and every outgoing edge carries
a synthetic view feature: seeded noise plus a planted embedding of the
neighbor's landmark words, so that instructions mentioning those words are
groundable against the views.  A per-node stop view embeds the node's own
landmarks plus a global stop marker.

Each node's views are stacked once, read-only.  An episode is its
trajectory, and ``step`` returns the navigator's reward for each move; the
trainer pays the attacker the negation, so every transition is zero-sum.
"""

from __future__ import annotations

import hashlib
import heapq
import numbers
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
        for name in ("n_nodes", "d_v", "horizon", "j_max", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # j_max: a spanning tree on n >= 3 nodes has a node of degree >= 2
        for name, lo, hi in (("n_nodes", 4, np.inf), ("j_max", 2, np.inf), ("d_v", 1, np.inf),
                             ("horizon", 1, np.inf), ("seed", 0, np.inf),
                             ("edge_density", 0.0, 1.0), ("success_radius", 0.0, np.inf),
                             ("feature_noise", 0.0, np.inf)):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} must lie in [{lo}, {hi}], got {getattr(self, name)}")
        if not self.box > 0:
            raise ValueError(f"box must be positive, got {self.box}")


@dataclass
class WorldGraph:
    config: WorldConfig
    coords: np.ndarray                      # (n, 2) float64, meters
    edges: list                             # [(a, b)] with a < b
    neighbors: dict                         # node -> sorted neighbor list
    edge_lengths: dict                      # (node, neighbor) -> meters
    landmarks: dict                         # node -> (object word, location word)
    views: dict                             # node -> read-only (1 + degree, d_v) float32
    _dist_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    def candidate_views(self, node: int) -> np.ndarray:
        """Rows aligned with the action indexing: stop view first, then the
        views toward neighbors in sorted-id order."""
        return self.views[node]


def generate_world(config: WorldConfig) -> WorldGraph:
    """Build a connected graph deterministically from ``config.seed``.

    Every node has at most ``config.j_max`` neighbors and no two nodes lie
    closer than 2 m; raises ``ValueError`` when the spacing cannot be met.
    """
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
    views = {}
    marker = landmark_feature("<stop-view>", d_v)
    for i in range(n):
        rows = []
        for nbr in neighbors[i]:
            planted = landmark_feature(landmarks[nbr][0], d_v) \
                + landmark_feature(landmarks[nbr][1], d_v)
            base = rng.standard_normal(d_v).astype(np.float32) / np.sqrt(d_v)
            rows.append((planted + noise * base).astype(np.float32))
        planted = landmark_feature(landmarks[i][0], d_v) \
            + landmark_feature(landmarks[i][1], d_v)
        base = rng.standard_normal(d_v).astype(np.float32) / np.sqrt(d_v)
        # the stop view is drawn last but stacked first, as action 0
        views[i] = np.stack([(planted + marker + noise * base).astype(np.float32), *rows])
        views[i].flags.writeable = False

    graph = WorldGraph(config=config, coords=coords, edges=sorted(edges),
                       neighbors=neighbors, edge_lengths=edge_lengths,
                       landmarks=landmarks, views=views)
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


def _check_nodes(g: WorldGraph, *nodes):
    if not all(0 <= node < g.n_nodes for node in nodes):
        raise ValueError(f"unknown node among {nodes}")


def geodesic_distance(g: WorldGraph, a: int, b: int) -> float:
    """Shortest-path distance in meters along graph edges."""
    _check_nodes(g, a, b)
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
    """Node sequence of a shortest path from a to b (greedy on distances);
    raises ``ValueError`` for a node outside the world."""
    _check_nodes(g, a, b)
    path = [a]
    while path[-1] != b:
        path.append(g.neighbors[path[-1]][_next_hop(g, path[-1], b)])
    return path


@dataclass(frozen=True)
class Episode:
    world: WorldGraph
    goal: int
    trajectory: tuple
    ground_truth_path: tuple
    done: bool = False

    @property
    def start(self) -> int:
        return self.trajectory[0]

    @property
    def current(self) -> int:
        return self.trajectory[-1]

    @property
    def step_index(self) -> int:
        return len(self.trajectory) - 1

    @property
    def success(self) -> bool:
        """The episode is over and ended within ``success_radius`` of the goal."""
        return self.done and geodesic_distance(self.world, self.current, self.goal) \
            <= self.world.config.success_radius


def make_episode(world: WorldGraph, start: int, goal: int) -> Episode:
    path = tuple(shortest_path(world, start, goal))
    if world.config.horizon < len(path):
        raise ValueError("horizon shorter than the ground-truth path")
    return Episode(world=world, goal=goal, trajectory=(start,), ground_truth_path=path)


def step(ep: Episode, action: int) -> tuple:
    """Apply one action (0 stops, 1..J move to the sorted neighbor list) and
    return the next episode and the navigator's reward for the move: on the
    final move +3 if it is a ``success``, else -3; otherwise +1 when the
    distance to the goal strictly decreased, else -1 (a tie is no progress)."""
    if ep.done:
        raise ValueError("episode already done")
    nbrs = ep.world.neighbors[ep.current]
    if not 0 <= action <= len(nbrs):
        raise ValueError(f"action {action} out of range 0..{len(nbrs)}")
    if action == STOP_ACTION:
        nxt = replace(ep, done=True)
    else:
        trajectory = ep.trajectory + (nbrs[action - 1],)
        nxt = replace(ep, trajectory=trajectory, done=len(trajectory) > ep.world.config.horizon)
    if nxt.done:
        return nxt, 3.0 if nxt.success else -3.0
    before = geodesic_distance(ep.world, ep.current, ep.goal)
    after = geodesic_distance(ep.world, nxt.current, nxt.goal)
    return nxt, 1.0 if after < before else -1.0


def teacher_action(ep: Episode) -> int:
    """Next action on a shortest route to the goal; stop when standing on it."""
    if ep.current == ep.goal:
        return STOP_ACTION
    return _next_hop(ep.world, ep.current, ep.goal) + 1

