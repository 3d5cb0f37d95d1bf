"""Advantage actor-critic training for both players, plus the alternating
adversarial schedule.

Each update collects its rollouts on one tape, sharing their encodings
(``UpdateEncodings``), and takes one gradient step.  A rollout walks the
navigator step by step: visual attention first (its output is the shared RL
state), then the attacking player may substitute one word of the original
instruction, the navigator encodes whatever token sequence it receives and
finishes the step, and the environment moves.  Rewards are framed
zero-sum: whatever the attacker gains the navigator loses.

Every episode ends terminally (the navigator stops or reaches the horizon),
so returns are the plain discounted reward sums with no bootstrap term;
advantages are returns minus the critic's estimate, and the update ascends
the advantage-weighted log-likelihood and the policy entropy while
regressing the critic onto the returns.  The navigator additionally mixes
an imitation term against a shortest-path teacher and, on attacked steps, a
cross-entropy term asking it to name the attacked word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import diffcore as dc
from . import world as wd
from .attacker import Attacker, AttackerEncoding, select_attack
from .checkpoint import params_digest
from .diffcore import Tape, Tensor
from .instruct import Instruction, apply_perturbation
from .navigator import Navigator, greedy_action, sample_action


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.9
    lr: float = 0.03
    momentum: float = 0.9
    rl_weight: float = 0.05
    entropy_weight: float = 0.01
    value_weight: float = 0.05
    il_weight: float = 1.0
    aux_weight: float = 0.5
    att_lr: float = 0.5            # the attacker learns from rewards alone,
    att_rl_weight: float = 1.0     # so its terms carry full weight
    att_value_weight: float = 0.5
    att_entropy_weight: float = 0.01
    att_gamma: float = 0.5         # short-horizon credit for substitutions
    attacked_fraction: float = 0.5 # share of attacked episodes in hardening
    harden_random: float = 0.3     # share of those using random substitutions
    n_eta: int = 30             # navigator updates per alternation round
    n_pi: int = 10              # attacker updates per alternation round
    n_iter: int = 38            # alternation rounds (about 1500 updates)
    grad_clip: float = 5.0
    value_hidden: int = 32

    def __post_init__(self):
        for name in ("gamma", "att_gamma", "momentum"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        for name in ("attacked_fraction", "harden_random"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("lr", "rl_weight", "entropy_weight", "value_weight",
                     "il_weight", "aux_weight", "att_lr", "att_rl_weight",
                     "att_value_weight", "att_entropy_weight", "grad_clip",
                     "n_eta", "n_pi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("n_iter", "value_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    def for_attacker(self) -> "TrainConfig":
        from dataclasses import replace
        return replace(self, lr=self.att_lr, rl_weight=self.att_rl_weight,
                       value_weight=self.att_value_weight,
                       entropy_weight=self.att_entropy_weight,
                       gamma=self.att_gamma, il_weight=0.0, aux_weight=0.0)


class ValueNet:
    """Two affine layers with a tanh between, mapping the state to a scalar."""

    def __init__(self, params):
        self.params = params

    @classmethod
    def create(cls, rng, d_in, hidden=32, dtype=np.float32):
        return cls({
            "v1": dc.init_uniform(rng, (d_in, hidden), dtype=dtype),
            "b1": dc.init_uniform(rng, (1, hidden), fan_in=d_in, dtype=dtype),
            "v2": dc.init_uniform(rng, (hidden, 1), dtype=dtype),
            "b2": dc.init_uniform(rng, (1, 1), fan_in=hidden, dtype=dtype),
        })

    def forward(self, tape, state_values) -> Tensor:
        s = Tensor(np.asarray(state_values).reshape(1, -1),
                   dtype=self.params["v1"].dtype)
        hidden = dc.tanh(tape, dc.affine(tape, s, self.params["v1"], self.params["b1"]))
        return dc.affine(tape, hidden, self.params["v2"], self.params["b2"])


@dataclass
class Transition:
    action: object
    reward: float
    value: float = 0.0
    dist: Optional[Tensor] = None        # taped distribution for the learner
    dist_index: int = 0
    value_out: Optional[Tensor] = None
    p_c: Optional[Tensor] = None
    attacked_target: Optional[int] = None
    teacher: Optional[int] = None
    use_rl: bool = True                  # False on teacher-forced transitions


@dataclass
class RolloutBuffer:
    transitions: list = field(default_factory=list)
    success: bool = False

    def __len__(self):
        return len(self.transitions)

    @property
    def rewards(self):
        return [t.reward for t in self.transitions]


@dataclass
class UpdateEncodings:
    """The encoders' work one update's rollouts share, so that each encoder
    cell runs once per update.  Bound to the (navigator, attacker) tapes of
    the first rollout: a tensor taped elsewhere would pass back no gradient."""
    tapes: Optional[tuple] = None
    memo: dict = field(default_factory=dict)    # the navigator's encoder cells
    nav: dict = field(default_factory=dict)     # tokens -> EncodedInstruction
    att: Optional[AttackerEncoding] = None      # of the original instruction


@dataclass
class RolloutResult:
    nav_buffer: RolloutBuffer
    att_buffer: Optional[RolloutBuffer]
    episode: wd.Episode
    tape: Optional[Tape]
    trace: list


def rollout_episode(item, nav: Navigator, att: Optional[Attacker], mode: str,
                    rng, cfg: TrainConfig,
                    nav_value: Optional[ValueNet] = None,
                    att_value: Optional[ValueNet] = None,
                    attack_fn: Optional[Callable] = None,
                    record_trace: bool = False,
                    tape: Optional[Tape] = None,
                    encodings: Optional[UpdateEncodings] = None) -> RolloutResult:
    """Play one episode.

    mode selects the learner: 'nav_learn' tapes and samples the navigator
    (the attacker, when present, is frozen and greedy), 'nav_teacher' tapes
    the navigator but follows and supervises the shortest-path teacher,
    'att_learn' tapes and samples the attacker (navigator frozen and
    greedy), and 'eval' freezes both; with no opponent it runs clean.
    ``attack_fn(instruction, rng) -> AttackAction``, a valid cell (j, i) of
    ``instruction.valid``, stands in for the learned attacker while the
    navigator learns ('nav_learn', 'nav_teacher'): ``adversarial_train``
    hardens against random substitutions this way.  'att_learn' needs
    ``att`` and an attackable instruction, and refuses ``attack_fn``.
    Passing ``tape`` lets several rollouts share one update, and passing
    them one ``encodings`` lets them share the encoder's work too; without
    it each rollout gets its own.
    """
    graph, ep, instr = item.world, item.episode, item.instruction
    nav_teacher = mode == "nav_teacher"
    nav_learn = mode == "nav_learn" or nav_teacher
    att_learn = mode == "att_learn"
    if mode not in ("eval", "nav_learn", "nav_teacher", "att_learn"):
        raise ValueError(f"unknown rollout mode {mode!r}")
    if att_learn and (att is None or attack_fn is not None or not instr.attackable):
        raise ValueError("'att_learn' needs the learned attacker, no attack_fn "
                         "and an attackable instruction")
    attacking = (att is not None or attack_fn is not None) and instr.attackable

    if tape is None and (nav_learn or att_learn):
        tape = Tape()
    nav_tape = tape if nav_learn else None
    att_tape = tape if att_learn else None

    encs = encodings or UpdateEncodings()
    encs.tapes = encs.tapes or (nav_tape, att_tape)
    if encs.tapes != (nav_tape, att_tape):     # tapes compare by identity
        raise ValueError("shared encodings were made on other tapes")
    if attacking and att is not None and encs.att is None:
        encs.att = att.encode(att_tape, instr)

    nav_buf = RolloutBuffer()
    att_buf = RolloutBuffer() if attacking else None
    trace = []
    state = nav.initial_state()
    t = 0
    while not ep.done:
        views = Tensor(graph.candidate_views(ep.current))
        _, f_v = nav.visual_attention(nav_tape, views, state)
        s_t = f_v.values.reshape(-1).copy()

        action_att, att_dist, att_row = None, None, 0
        if attacking:
            if attack_fn is not None:
                action_att = attack_fn(instr, rng)
            else:
                score = att.attack_score(att_tape, encs.att, s_t)
                if att_learn:
                    action_att = select_attack(score, "sample", rng)
                    att_dist = score.p_flat
                    att_row = action_att.target_index * instr.n_targets \
                        + action_att.source_index
                else:
                    action_att = select_attack(score, "greedy")

        tokens_t = instr.tokens if action_att is None \
            else apply_perturbation(instr, action_att, t).tokens

        if tokens_t not in encs.nav:
            encs.nav[tokens_t] = nav.encode(nav_tape, tokens_t, instr.target_set,
                                            memo=encs.memo)
        out, proto = nav.decode_with_visual(nav_tape, encs.nav[tokens_t], views,
                                            f_v, state)

        teacher = wd.teacher_action(ep)
        if nav_teacher:
            action_nav = teacher
        elif nav_learn:
            action_nav = sample_action(out.p_n, rng)
        else:
            action_nav = greedy_action(out.p_n)
        if action_nav != wd.STOP_ACTION:
            state = nav.with_action(proto, views, action_nav)

        ep_next = wd.step(ep, action_nav)
        r_att = wd.attacker_reward(ep, ep_next)
        r_nav = -r_att

        nav_tr = Transition(action=action_nav, reward=r_nav,
                            teacher=teacher, use_rl=not nav_teacher)
        if nav_learn:
            nav_tr.dist = out.p_n
            nav_tr.dist_index = action_nav
            if not nav_teacher:
                nav_tr.value_out = nav_value.forward(nav_tape, s_t)
                nav_tr.value = nav_tr.value_out.item()
            if action_att is not None and out.p_c is not None:
                nav_tr.p_c = out.p_c
        if action_att is not None:
            nav_tr.attacked_target = action_att.target_index
        nav_buf.transitions.append(nav_tr)

        if att_buf is not None:
            att_tr = Transition(action=action_att, reward=r_att)
            if att_learn:
                att_tr.dist = att_dist
                att_tr.dist_index = att_row
                att_tr.value_out = att_value.forward(att_tape, s_t)
                att_tr.value = att_tr.value_out.item()
            att_buf.transitions.append(att_tr)

        if record_trace:
            trace.append(_trace_row(instr, t, action_att, out, action_nav, r_nav))
        ep = ep_next
        t += 1

    success = wd.geodesic_distance(graph, ep.current, ep.goal) \
        <= graph.config.success_radius
    nav_buf.success = success
    if att_buf is not None:
        att_buf.success = success
    return RolloutResult(nav_buffer=nav_buf, att_buffer=att_buf, episode=ep,
                         tape=tape, trace=trace)


def _trace_row(instr, t, action_att, out, action_nav, r_nav):
    row = {"t": t, "action": int(action_nav), "reward": r_nav,
           "alpha_w": out.alpha_w.values.reshape(-1).copy()}
    if action_att is not None:
        row["attacked_position"] = instr.target_set[action_att.target_index]
        row["attacked_target"] = action_att.target_index
        row["substitute_token"] = instr.tokens[instr.target_set[action_att.source_index]]
    if out.p_c is not None:
        row["p_c"] = out.p_c.values.reshape(-1).copy()
        row["predicted_target"] = int(np.argmax(row["p_c"]))
    return row


# ---------------------------------------------------------------------------
# returns and updates

def compute_returns(buf: RolloutBuffer, gamma: float):
    """Discounted returns of a terminated episode (no bootstrap term), plus
    advantages against the stored value estimates."""
    if not buf.transitions:
        raise ValueError("empty rollout buffer")
    rewards = buf.rewards
    returns = [0.0] * len(rewards)
    returns[-1] = rewards[-1]
    for t in range(len(rewards) - 2, -1, -1):
        returns[t] = rewards[t] + gamma * returns[t + 1]
    advantages = [r - tr.value for r, tr in zip(returns, buf.transitions)]
    return returns, advantages


def a2c_update(tape: Tape, buf: RolloutBuffer, returns, advantages,
               policy_params: dict, value_params: dict, cfg: TrainConfig,
               opt_state: Optional[dict] = None):
    """One gradient step on the episode loss; returns diagnostics.

    The scalar loss descends the value error and ascends the advantage-
    weighted log-likelihood, the policy entropy, and (for the navigator)
    the imitation and attacked-word terms.  ``opt_state`` carries momentum
    velocities across calls; omit it for plain steps.
    """
    terms = []
    diag = {"pg": 0.0, "value": 0.0, "entropy": 0.0, "il": 0.0, "aux": 0.0}
    for tr, ret, adv in zip(buf.transitions, returns, advantages):
        if tr.dist is None:
            continue
        if tr.use_rl:
            pg = dc.scale(tape, dc.cross_entropy(tape, tr.dist, tr.dist_index),
                          cfg.rl_weight * adv)
            terms.append(pg)
            diag["pg"] += pg.item()
            if cfg.entropy_weight:
                ent = dc.cross_entropy(tape, tr.dist, tr.dist)
                terms.append(dc.scale(tape, ent, -cfg.entropy_weight))
                diag["entropy"] += ent.item()
            if tr.value_out is not None and cfg.value_weight:
                err = dc.add(tape, tr.value_out,
                             dc.constant([[-ret]], dtype=tr.value_out.dtype))
                sq = dc.multiply(tape, err, err)
                terms.append(dc.scale(tape, sq, cfg.value_weight))
                diag["value"] += sq.item()
        if tr.teacher is not None and cfg.il_weight:
            il = dc.cross_entropy(tape, tr.dist, tr.teacher)
            terms.append(dc.scale(tape, il, cfg.il_weight))
            diag["il"] += il.item()
        if tr.p_c is not None and tr.attacked_target is not None and cfg.aux_weight:
            aux = dc.cross_entropy(tape, tr.p_c, tr.attacked_target)
            terms.append(dc.scale(tape, aux, cfg.aux_weight))
            diag["aux"] += aux.item()
    if not terms:
        raise ValueError("no learnable transitions in buffer")
    loss = dc.sum_reduce(tape, dc.concat(tape, terms, axis=0))
    dc.backward(tape, loss)

    groups = [("pol.", policy_params), ("val.", value_params)]
    updated, clips = [], {}
    for prefix, params in groups:
        live = [(prefix + k, p) for k, p in params.items() if p.grad is not None]
        norm = math.sqrt(sum(float(np.sum(np.asarray(p.grad, dtype=np.float64) ** 2))
                             for _, p in live))
        diag["grad_norm" if prefix == "pol." else "value_grad_norm"] = norm
        if not math.isfinite(norm):
            # drop both groups' grads, or the next backward adds onto them
            dc.zero_grads([*policy_params.values(), *value_params.values()])
            diag["aborted"] = True
            diag["loss"] = loss.item()
            return diag
        # policy and value losses live on different scales; clip per group
        clips[prefix] = 1.0 if not cfg.grad_clip or norm <= cfg.grad_clip \
            else cfg.grad_clip / norm
        updated.extend(live)
    diag["loss"] = loss.item()
    for key, p in updated:
        g = clips[key[:4]] * p.grad
        if cfg.momentum and opt_state is not None:
            v = opt_state.get(key)
            v = g if v is None else cfg.momentum * v + g
            opt_state[key] = v
            g = v
        p.values = (p.values - cfg.lr * g).astype(p.values.dtype)
    dc.zero_grads([p for _, p in updated])
    diag["aborted"] = False
    return diag


# ---------------------------------------------------------------------------
# stage loops

class TrainItem(NamedTuple):
    world: wd.WorldGraph
    episode: wd.Episode
    instruction: Instruction


def _pick(items, rng):
    return items[int(rng.integers(len(items)))]


def _random_attack_fn(instruction, rng):
    acts = instruction.valid_actions()
    return acts[int(rng.integers(len(acts)))]


def evaluate_success(items, nav, cfg, seed=0):
    """Clean greedy success rate over items with per-episode seeding."""
    succ = 0
    for i, item in enumerate(items):
        erng = np.random.default_rng([seed, i])
        res = rollout_episode(item, nav, None, "eval", erng, cfg)
        succ += res.nav_buffer.success
    return succ / max(len(items), 1)


def validate_navigator(items, nav, cfg, att=None, seed=0):
    """Clean SR, attacked SR, and attacked-word prediction accuracy."""
    out = {"clean": evaluate_success(items, nav, cfg, seed=seed)}
    if att is None:
        return out
    succ = hits = total = 0
    for i, item in enumerate(items):
        erng = np.random.default_rng([seed, i])
        res = rollout_episode(item, nav, att, "eval", erng, cfg,
                              record_trace=True)
        succ += res.nav_buffer.success
        for row in res.trace:
            if "attacked_target" in row and "predicted_target" in row:
                total += 1
                hits += row["predicted_target"] == row["attacked_target"]
    out["attacked"] = succ / max(len(items), 1)
    out["aux_acc"] = hits / max(total, 1)
    return out


def navigator_update(item, nav, nav_value, cfg, rng, att=None, opt_state=None,
                     attack_fn=None):
    """One mixed update: a teacher-forced rollout supplies the imitation
    terms, a sampled rollout the policy-gradient terms, sharing tape and encodings."""
    tape = Tape()
    shared = dict(tape=tape, attack_fn=attack_fn, encodings=UpdateEncodings())
    res_il = rollout_episode(item, nav, att, "nav_teacher", rng, cfg, **shared)
    res_rl = rollout_episode(item, nav, att, "nav_learn", rng, cfg,
                             nav_value=nav_value, **shared)
    returns, advs = compute_returns(res_rl.nav_buffer, cfg.gamma)
    buf = RolloutBuffer(transitions=res_il.nav_buffer.transitions
                        + res_rl.nav_buffer.transitions,
                        success=res_rl.nav_buffer.success)
    n_il = len(res_il.nav_buffer.transitions)
    diag = a2c_update(tape, buf, [0.0] * n_il + returns, [0.0] * n_il + advs,
                      nav.params, nav_value.params, cfg, opt_state=opt_state)
    return diag, res_rl


def attacker_update(item, nav, att, att_value, acfg, rng, opt_state=None):
    """One attacker update against the frozen greedy navigator; ``acfg`` is
    the attacker's config (``TrainConfig.for_attacker``)."""
    res = rollout_episode(item, nav, att, "att_learn", rng, acfg,
                          att_value=att_value)
    returns, advs = compute_returns(res.att_buffer, acfg.gamma)
    diag = a2c_update(res.tape, res.att_buffer, returns, advs,
                      att.params, att_value.params, acfg, opt_state=opt_state)
    return diag, res


def train_navigator(items, nav, nav_value, cfg, rng, iters, att=None, log_fn=None):
    """Clean navigator training, or training under a frozen attacker."""
    opt_state = {}
    for it in range(iters):
        item = _pick(items, rng)
        diag, res = navigator_update(item, nav, nav_value, cfg, rng, att=att,
                                     opt_state=opt_state)
        if log_fn:
            log_fn({"stage": "pretrain_nav", "iteration": it, "player": "nav",
                    "reward": sum(res.nav_buffer.rewards),
                    "success": int(res.nav_buffer.success), **_round(diag)})


def train_attacker(items, nav, att, att_value, cfg, rng, iters, log_fn=None):
    """Attacker training against a frozen navigator."""
    nav_digest = params_digest(nav.params)
    acfg = cfg.for_attacker()
    opt_state = {}
    for it in range(iters):
        item = _pick(items, rng)
        if not item.instruction.attackable:
            continue
        diag, res = attacker_update(item, nav, att, att_value, acfg, rng, opt_state)
        if log_fn:
            log_fn({"stage": "pretrain_att", "iteration": it, "player": "att",
                    "reward": sum(res.att_buffer.rewards),
                    "success": int(res.att_buffer.success), **_round(diag)})
    if params_digest(nav.params) != nav_digest:
        raise RuntimeError("frozen navigator parameters changed during attacker training")


def adversarial_train(items, nav, att, nav_value, att_value, cfg, rng, log_fn=None):
    """Alternating rounds: freeze the attacker while the navigator takes
    n_eta updates on perturbed instructions (with the attacked-word term),
    then freeze the navigator for n_pi attacker updates.  Returns the exact
    update sequence."""
    update_log = []
    acfg = cfg.for_attacker()
    nav_opt, att_opt = {}, {}
    for rnd in range(cfg.n_iter):
        att_digest = params_digest(att.params)
        for j in range(cfg.n_eta):
            item = _pick(items, rng)
            # alternate attacked and clean episodes so hardening does not
            # crowd out clean competence; a slice of the attacked episodes
            # uses random substitutions to vary the attack distribution
            opponent, attack_fn = None, None
            if rng.random() < cfg.attacked_fraction:
                if rng.random() < cfg.harden_random:
                    attack_fn = _random_attack_fn
                else:
                    opponent = att
            diag, res = navigator_update(item, nav, nav_value, cfg, rng,
                                         att=opponent, attack_fn=attack_fn,
                                         opt_state=nav_opt)
            update_log.append("eta")
            if log_fn:
                log_fn({"stage": "adversarial", "round": rnd, "iteration": j,
                        "player": "nav", "reward": sum(res.nav_buffer.rewards),
                        "success": int(res.nav_buffer.success), **_round(diag)})
        if params_digest(att.params) != att_digest:
            raise RuntimeError("frozen attacker changed during navigator block")
        nav_digest = params_digest(nav.params)
        for j in range(cfg.n_pi):
            item = _pick(items, rng)
            if not item.instruction.attackable:
                update_log.append("pi")
                continue
            diag, res = attacker_update(item, nav, att, att_value, acfg, rng, att_opt)
            update_log.append("pi")
            if log_fn:
                log_fn({"stage": "adversarial", "round": rnd, "iteration": j,
                        "player": "att", "reward": sum(res.att_buffer.rewards),
                        "success": int(res.att_buffer.success), **_round(diag)})
        if params_digest(nav.params) != nav_digest:
            raise RuntimeError("frozen navigator changed during attacker block")
    return update_log


def _round(diag):
    return {k: (round(v, 6) if isinstance(v, float) else v)
            for k, v in diag.items()}
