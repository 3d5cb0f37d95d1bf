"""Correctness checks that the benchmark computes apart from the program.

Every check raises ``CheckFailed`` with a message naming what was wrong.
The checks use only the raw world data (``coords``, ``edges``), the
instruction tokens and the numbers a rollout or an update hands back; the
distances, rewards, success flags, schedules and gradients they compare
against are recomputed here, not taken from ``advnav``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from advnav.world import LOCATION_WORDS, OBJECT_WORDS

LANDMARK_WORDS = frozenset(OBJECT_WORDS) | frozenset(LOCATION_WORDS)
PROB_TOL = 1e-5      # float32 distributions: |sum - 1| allowed
TIE_TOL = 1e-9       # distances closer than this may round either way


class CheckFailed(Exception):
    """The program produced an output that the benchmark's check rejects."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# geometry

class Geometry:
    """All-pairs shortest paths and sorted neighbour lists of one world,
    built from its coordinates and edge list by Floyd-Warshall."""

    def __init__(self, world):
        coords = np.asarray(world.coords, dtype=np.float64)
        n = coords.shape[0]
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        nbrs = [[] for _ in range(n)]
        for a, b in world.edges:
            d = float(np.sqrt(np.sum((coords[a] - coords[b]) ** 2)))
            dist[a, b] = dist[b, a] = d
            nbrs[a].append(b)
            nbrs[b].append(a)
        for k in range(n):
            dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
        self.dist = dist
        self.neighbors = [sorted(x) for x in nbrs]
        self.radius = float(world.config.success_radius)
        self.horizon = int(world.config.horizon)

    def within_radius(self, node, goal):
        """True/False, or None when the distance is a rounding tie."""
        d = self.dist[node, goal]
        if abs(d - self.radius) <= TIE_TOL:
            return None
        return bool(d <= self.radius)


# ---------------------------------------------------------------------------
# rollouts

def check_distribution(p, what, size=None):
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    require(p.size > 0, f"{what}: empty distribution")
    if size is not None:
        require(p.size == size, f"{what}: {p.size} entries, expected {size}")
    require(bool(np.all(np.isfinite(p))) and bool(np.all(p >= 0.0)),
            f"{what}: negative or non-finite probability {p.min()}")
    require(abs(float(p.sum()) - 1.0) <= PROB_TOL,
            f"{what}: sums to {p.sum():.8f}")


def check_rollout(geo, item, result, teacher_forced=False):
    """Replay one finished rollout on the benchmark's own geometry.

    Checks the trajectory, every navigator reward against the paper's rule
    (+-1 for progress towards the goal, +-3 at the end depending on the
    success radius), the zero-sum split with the attacker, the teacher's
    actions, the success flag and every stored distribution.  Returns
    (success, steps).  ``geo`` is the ``Geometry`` of ``item.world``.
    """
    ep0, ep = item.episode, result.episode
    goal = ep0.goal
    nav = result.nav_buffer.transitions
    require(len(nav) >= 1, "rollout has no transitions")
    pos, steps, done = ep0.start, 0, False
    trajectory = [pos]
    for i, tr in enumerate(nav):
        require(not done, f"transition {i} after the episode ended")
        nbrs = geo.neighbors[pos]
        action = int(tr.action)
        require(0 <= action <= len(nbrs), f"step {i}: action {action} out of range")
        if tr.teacher is not None:
            _check_teacher(geo, pos, goal, int(tr.teacher), i)
        if teacher_forced:
            require(action == tr.teacher, f"step {i}: teacher-forced rollout left the teacher")
        if tr.dist is not None:
            check_distribution(tr.dist.values, f"step {i} action distribution",
                               size=1 + len(nbrs))
        if tr.p_c is not None:
            check_distribution(tr.p_c.values, f"step {i} attacked-word distribution")
        if action == 0:
            nxt, done = pos, True
        else:
            nxt = nbrs[action - 1]
            steps += 1
            done = steps >= geo.horizon
            trajectory.append(nxt)
        _check_reward(geo, pos, nxt, goal, done, tr.reward, i)
        pos = nxt
    require(done, "rollout ended before the episode was done")
    require(tuple(trajectory) == tuple(ep.trajectory),
            f"trajectory {ep.trajectory} differs from the replay {tuple(trajectory)}")
    require(ep.current == pos, f"final node {ep.current}, replay ends at {pos}")
    success = geo.within_radius(pos, goal)
    if success is not None:
        require(bool(result.nav_buffer.success) == success,
                f"success flag {result.nav_buffer.success}, distance to goal "
                f"{geo.dist[pos, goal]:.6f} m, radius {geo.radius} m")
    att = result.att_buffer
    if att is not None:
        require(len(att.transitions) == len(nav),
                f"{len(att.transitions)} attacker transitions for {len(nav)} steps")
        require(bool(att.success) == bool(result.nav_buffer.success),
                "attacker and navigator buffers disagree on success")
        for i, (a, n) in enumerate(zip(att.transitions, nav)):
            require(a.reward + n.reward == 0.0,
                    f"step {i}: rewards {n.reward} + {a.reward} do not sum to zero")
            if a.dist is not None:
                check_distribution(a.dist.values, f"step {i} attack distribution")
    return bool(result.nav_buffer.success), len(nav)


def _check_teacher(geo, pos, goal, teacher, i):
    if pos == goal:
        require(teacher == 0, f"step {i}: teacher moves away from the goal")
        return
    nbrs = geo.neighbors[pos]
    require(1 <= teacher <= len(nbrs), f"step {i}: teacher stops off the goal")
    nxt = nbrs[teacher - 1]
    via = geo.dist[pos, nxt] + geo.dist[nxt, goal]
    require(abs(via - geo.dist[pos, goal]) <= 1e-6,
            f"step {i}: teacher action is {via - geo.dist[pos, goal]:.6f} m off a shortest path")


def _check_reward(geo, pos, nxt, goal, done, reward, i):
    if done:
        ok = geo.within_radius(nxt, goal)
        allowed = {3.0, -3.0} if ok is None else {3.0 if ok else -3.0}
    else:
        before, after = geo.dist[pos, goal], geo.dist[nxt, goal]
        if abs(before - after) <= TIE_TOL:
            allowed = {1.0, -1.0}
        else:
            allowed = {1.0 if after < before else -1.0}
    require(reward in allowed, f"step {i}: navigator reward {reward}, expected "
            f"{sorted(allowed)} (from {pos} to {nxt}, goal {goal}, done={done})")


def check_perturbation(pert, vocab):
    """One swapped word of the original tokens: at a target position, and
    the new word is another landmark word of the same instruction."""
    base = pert.base
    old, new = tuple(base.tokens), tuple(pert.tokens)
    require(len(old) == len(new), "perturbation changed the instruction length")
    changed = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    require(len(changed) == 1, f"perturbation changed {len(changed)} tokens: {changed}")
    pos = changed[0]
    require(pos == pert.position, f"changed position {pos}, reported {pert.position}")
    require(pos in base.target_set, f"position {pos} is not a target position")
    others = {old[p] for p in base.target_set}
    require(new[pos] in others, f"substitute {new[pos]} is not a target word of the instruction")
    word = vocab.words[new[pos]]
    require(word in LANDMARK_WORDS, f"substitute {word!r} is no landmark word")


# ---------------------------------------------------------------------------
# rates, schedules and learning

def check_rate(reported, flags, what):
    require(len(flags) > 0, f"{what}: no episodes")
    expect = sum(flags) / len(flags)
    require(abs(float(reported) - expect) <= 1e-12,
            f"{what}: reported {reported}, recomputed {expect} over {len(flags)} episodes")


def check_schedule(update_log, n_eta, n_pi, rounds):
    expect = (["eta"] * n_eta + ["pi"] * n_pi) * rounds
    require(list(update_log) == expect,
            f"update log {update_log[:8]}... ({len(update_log)} entries) is not "
            f"{rounds} x ({n_eta} eta, {n_pi} pi)")


def check_learning(il_values, sr_before, sr_after):
    """Imitation loss falls from the first to the last fifth of updates, and
    clean success after training beats success before it."""
    n = len(il_values) // 5
    require(n >= 2, f"only {len(il_values)} updates: too few to compare fifths")
    first, last = float(np.mean(il_values[:n])), float(np.mean(il_values[-n:]))
    require(last < first, f"imitation loss rose from {first:.4f} to {last:.4f}")
    require(sr_after > sr_before, f"clean SR did not rise: {sr_before:.4f} -> {sr_after:.4f}")


# ---------------------------------------------------------------------------
# gradients and digests

def check_gradients(loss_fn, params, grads, coords, h=1e-5, tol=1e-4, atol=1e-8):
    """Compare taped gradients with central differences of ``loss_fn()`` at
    ``coords`` [(name, flat index)]; parameters must be float64.  ``atol``
    covers the rounding noise of the difference quotient."""
    require(len(coords) > 0, "no coordinates to check")
    for name, idx in coords:
        flat = params[name].values.reshape(-1)
        require(flat.dtype == np.float64, f"{name}: gradient check needs float64")
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn()
        flat[idx] = orig - h
        down = loss_fn()
        flat[idx] = orig
        num = (up - down) / (2.0 * h)
        got = float(np.asarray(grads[name]).reshape(-1)[idx])
        require(abs(got - num) <= tol * max(abs(got), abs(num)) + atol,
                f"{name}[{idx}]: taped {got:.8g}, central difference {num:.8g}")


def digest(*param_dicts) -> str:
    """SHA-256 over parameter names, shapes and float values.

    Kept apart from ``checkpoint.params_digest``: a check should not rest on
    the code it checks, and only ``adversarial_long`` may reach the
    checkpoint layer."""
    h = hashlib.sha256()
    for params in param_dicts:
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name].values)
            h.update(name.encode())
            h.update(repr(arr.shape).encode())
            h.update(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    return h.hexdigest()
