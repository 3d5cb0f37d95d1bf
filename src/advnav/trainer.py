"""Advantage actor-critic training for both players, plus the alternating
adversarial schedule.

Each update collects its rollouts on one tape, sharing their encodings
(``UpdateEncodings``), and takes one gradient step.  A rollout walks the
navigator step by step: visual attention first (its output is the shared RL
state), then the attacking player may substitute one word of the original
instruction, the navigator encodes whatever token sequence it receives and
finishes the step, and the environment moves and pays the navigator its
reward.  The attacker gets the negation, so the game is zero-sum.

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
import numbers
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import diffcore as dc
from . import world as wd
from .attacker import Attacker, AttackerEncoding
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
                     "att_value_weight", "att_entropy_weight", "grad_clip"):
            if not getattr(self, name) >= 0:       # refuses NaN too
                raise ValueError(f"{name} must be non-negative")
        for name, lo in (("n_eta", 0), ("n_pi", 0), ("n_iter", 1), ("value_hidden", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < lo:
                raise ValueError(f"{name} must be an integer of at least {lo}, got {value!r}")

    def for_attacker(self) -> "TrainConfig":
        return replace(self, lr=self.att_lr, rl_weight=self.att_rl_weight,
                       value_weight=self.att_value_weight,
                       entropy_weight=self.att_entropy_weight,
                       gamma=self.att_gamma)


class ValueNet:
    """Two affine layers with a tanh between, mapping the state to a scalar."""

    def __init__(self, params):
        self.params = params

    @classmethod
    def create(cls, rng, d_in, hidden, dtype=np.float32):
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
    action: int     # the navigator's action, or the attacker's cell (as in
                    # ``instruct``): either way it indexes ``dist``
    reward: float
    dist: Optional[Tensor] = None        # taped distribution for the learner
    value_out: Optional[Tensor] = None   # the critic's estimate, when one ran
    p_c: Optional[Tensor] = None
    attacked_target: Optional[int] = None
    teacher: Optional[int] = None
    use_rl: bool = True                  # False on teacher-forced transitions


@dataclass
class RolloutBuffer:
    transitions: list = field(default_factory=list)
    success: bool = False

    @property
    def rewards(self):
        return [t.reward for t in self.transitions]


@dataclass
class UpdateEncodings:
    """The encoders' work one update's rollouts share, so that each encoder
    cell runs once per update.  Bound to the (navigator, attacker) tapes of
    the first rollout: a tensor taped elsewhere would pass back no gradient.
    The attacker's encoding is of one instruction, so a rollout attacking
    another one is refused; the navigator's entries are keyed by tokens."""
    tapes: Optional[tuple] = None
    memo: dict = field(default_factory=dict)    # navigator encoder rows, products, cells
    nav: dict = field(default_factory=dict)     # tokens -> EncodedInstruction
    att: Optional[AttackerEncoding] = None      # of the original instruction


@dataclass
class RolloutResult:
    nav_buffer: RolloutBuffer
    att_buffer: Optional[RolloutBuffer]
    episode: wd.Episode
    tape: Optional[Tape]
    trace: list


def rollout_episode(item, nav: Navigator, att: Union[Attacker, Callable, None], mode: str,
                    rng, cfg: TrainConfig,
                    nav_value: Optional[ValueNet] = None,
                    att_value: Optional[ValueNet] = None,
                    record_trace: bool = False,
                    tape: Optional[Tape] = None,
                    encodings: Optional[UpdateEncodings] = None) -> RolloutResult:
    """Play one episode.

    ``att`` is the opponent, and every step is attacked exactly when there
    is one: ``None`` runs clean, the learned ``Attacker`` scores the target
    grid, and a function ``f(instruction, rng) -> cell`` returns a valid cell
    of ``instruction`` (random substitutions, ``_random_attack``, are one;
    ``train_navigator`` hardens against any).
    ``mode`` fixes each player's role once, at entry: 'nav_learn' tapes and
    samples the navigator (the opponent is frozen and greedy),
    'nav_teacher' tapes the navigator but follows and supervises the
    shortest-path teacher, 'att_learn' tapes and samples the learned
    attacker (navigator frozen and greedy), and 'eval' freezes both.  Both
    players pick alike, a draw when learning and else the argmax (ties to
    the lowest index); the learned attacker picks its cell from ``p_flat``.
    The attacker's transition records the cell, the navigator's its row j as
    the attacked word.  Each step records the attacker's move, then the
    navigator's, as each is made; ``p_c`` runs only on attacked steps, for a
    taped navigator or a trace.  The navigator is paid what ``world.step``
    returns, the attacker its negation, and both buffers' success is the
    last episode's.
    'att_learn' refuses any opponent but an ``Attacker``, and the sampling
    modes need their player's value net.
    Passing ``tape`` lets several rollouts share one update, and passing
    them one ``encodings`` lets them share the encoder's work too; without
    it each rollout gets its own.
    """
    graph, ep, instr = item.world, item.episode, item.instruction
    nav_pick = {"eval": "greedy", "att_learn": "greedy", "nav_learn": "sample",
                "nav_teacher": "teacher"}.get(mode)
    if nav_pick is None:
        raise ValueError(f"unknown rollout mode {mode!r}")
    att_learns = mode == "att_learn"
    learned = isinstance(att, Attacker)
    if att_learns and not learned:
        raise ValueError("'att_learn' needs the learned attacker")
    if (nav_pick == "sample" and nav_value is None) or (att_learns and att_value is None):
        raise ValueError(f"{mode!r} needs its player's value net")
    attacking = att is not None

    if tape is None and (nav_pick != "greedy" or att_learns):
        tape = Tape()
    nav_tape = None if nav_pick == "greedy" else tape
    att_tape = tape if att_learns else None

    encs = encodings or UpdateEncodings()
    encs.tapes = encs.tapes or (nav_tape, att_tape)
    if encs.tapes != (nav_tape, att_tape):     # tapes compare by identity
        raise ValueError("shared encodings were made on other tapes")
    if learned:
        if encs.att is None:
            encs.att = att.encode(att_tape, instr)
        elif encs.att.instruction != instr:
            raise ValueError("shared encodings were made for another instruction")

    nav_buf = RolloutBuffer()
    att_buf = RolloutBuffer() if attacking else None
    trace = []
    state = nav.initial_state()
    while not ep.done:
        views = Tensor(graph.candidate_views(ep.current))
        _, f_v = nav.visual_attention(nav_tape, views, state)
        s_t = f_v.values.reshape(-1).copy()

        cell, pert, tokens_t = None, None, instr.tokens
        if attacking:
            if learned:
                score = att.attack_score(att_tape, encs.att, s_t)
                cell = sample_action(score.p_flat, rng) if att_learns \
                    else greedy_action(score.p_flat)
            else:
                cell = att(instr, rng)
            att_tr = Transition(action=cell, reward=0.0)
            if att_learns:
                att_tr.dist = score.p_flat
                att_tr.value_out = att_value.forward(att_tape, s_t)
            att_buf.transitions.append(att_tr)
            pert = apply_perturbation(instr, cell, ep.step_index)
            tokens_t = pert.tokens

        if tokens_t not in encs.nav:
            encs.nav[tokens_t] = nav.encode(nav_tape, tokens_t, instr.target_set,
                                            memo=encs.memo)
        enc = encs.nav[tokens_t]
        out, proto = nav.decode_with_visual(nav_tape, enc, views, f_v, state)
        reads_p_c = pert is not None and (nav_tape is not None or record_trace)
        p_c = nav.predict_attacked_word(nav_tape, proto.h_tilde, enc.f_w) if reads_p_c else None
        teacher = wd.teacher_action(ep)
        nav_tr = Transition(
            action=teacher, reward=0.0, teacher=teacher, use_rl=nav_pick != "teacher",
            attacked_target=None if cell is None else cell // instr.n_targets)
        if nav_pick == "greedy":
            nav_tr.action = greedy_action(out.p_n)
        else:
            nav_tr.dist = out.p_n
            nav_tr.p_c = p_c
        if nav_pick == "sample":
            nav_tr.action = sample_action(out.p_n, rng)
            nav_tr.value_out = nav_value.forward(nav_tape, s_t)
        nav_buf.transitions.append(nav_tr)
        if nav_tr.action != wd.STOP_ACTION:
            state = nav.with_action(proto, views, nav_tr.action)

        ep_next, nav_tr.reward = wd.step(ep, nav_tr.action)
        if attacking:
            att_tr.reward = -nav_tr.reward
        if record_trace:
            trace.append(_trace_row(ep.step_index, pert, out, p_c, nav_tr))
        ep = ep_next

    nav_buf.success = ep.success
    if att_buf is not None:
        att_buf.success = ep.success
    return RolloutResult(nav_buffer=nav_buf, att_buffer=att_buf, episode=ep,
                         tape=tape, trace=trace)


def _trace_row(t, pert, out, p_c, nav_tr):
    row = {"t": t, "action": int(nav_tr.action), "reward": nav_tr.reward,
           "alpha_w": out.alpha_w.values.reshape(-1).copy()}
    if pert is not None:
        row["attacked_position"] = pert.position
        row["attacked_target"] = nav_tr.attacked_target
        row["substitute_token"] = pert.token
        row["p_c"] = p_c.values.reshape(-1).copy()
        row["predicted_target"] = int(np.argmax(row["p_c"]))
    return row


# ---------------------------------------------------------------------------
# returns and updates

def compute_returns(buf: RolloutBuffer, gamma: float):
    """Discounted returns of a terminated episode (no bootstrap term), plus
    advantages against the critic's estimates (0 where none ran)."""
    if not buf.transitions:
        raise ValueError("empty rollout buffer")
    rewards = buf.rewards
    returns = [0.0] * len(rewards)
    returns[-1] = rewards[-1]
    for t in range(len(rewards) - 2, -1, -1):
        returns[t] = rewards[t] + gamma * returns[t + 1]
    advantages = [r - (0.0 if tr.value_out is None else tr.value_out.item())
                  for r, tr in zip(returns, buf.transitions)]
    return returns, advantages


def a2c_update(tape: Tape, episodes, policy_params: dict, value_params: dict,
               cfg: TrainConfig, opt_state: dict):
    """One gradient step on the loss of ``episodes``, a list of rollout
    buffers, each scored with its own returns (``compute_returns``);
    returns diagnostics.

    The scalar loss descends the value error and ascends the advantage-
    weighted log-likelihood, the policy entropy, and (for the navigator)
    the imitation and attacked-word terms.  Raises ``ValueError`` for a
    transition without its taped ``dist``.  Every parameter of both groups
    is stepped, on a zero grad where the loss did not reach it, with
    momentum from ``opt_state`` (a fresh ``{}`` gives a plain step).
    """
    terms = []
    diag = {"pg": 0.0, "value": 0.0, "entropy": 0.0, "il": 0.0, "aux": 0.0}
    steps = [step for buf in episodes
             for step in zip(buf.transitions, *compute_returns(buf, cfg.gamma))]
    if any(tr.dist is None for tr, _, _ in steps):
        raise ValueError("a transition without its taped dist cannot be learned")
    for tr, ret, adv in steps:
        if tr.use_rl:
            pg = dc.scale(tape, dc.cross_entropy(tape, tr.dist, tr.action),
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
        if tr.p_c is not None and cfg.aux_weight:
            aux = dc.cross_entropy(tape, tr.p_c, tr.attacked_target)
            terms.append(dc.scale(tape, aux, cfg.aux_weight))
            diag["aux"] += aux.item()
    if not terms:
        raise ValueError("no learnable transitions in the episodes")
    loss = dc.sum_reduce(tape, dc.concat(tape, terms, axis=0))
    dc.backward(tape, loss)

    updated = []
    for prefix, params in (("pol.", policy_params), ("val.", value_params)):
        grads = [(prefix + k, p, np.zeros_like(p.values) if p.grad is None else p.grad)
                 for k, p in params.items()]
        norm = math.sqrt(sum(float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
                             for _, _, g in grads))
        diag["grad_norm" if prefix == "pol." else "value_grad_norm"] = norm
        if not math.isfinite(norm):
            # drop both groups' grads, or the next backward adds onto them
            dc.zero_grads([*policy_params.values(), *value_params.values()])
            diag["aborted"] = True
            diag["loss"] = loss.item()
            return diag
        # policy and value losses live on different scales; clip per group
        clip = 1.0 if not cfg.grad_clip or norm <= cfg.grad_clip else cfg.grad_clip / norm
        updated.extend((key, p, clip * g) for key, p, g in grads)
    diag["loss"] = loss.item()
    for key, p, g in updated:
        if cfg.momentum:
            v = opt_state.get(key)
            v = g if v is None else cfg.momentum * v + g
            opt_state[key] = v
            g = v
        p.values = (p.values - cfg.lr * g).astype(p.values.dtype)
    dc.zero_grads([p for _, p, _ in updated])
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


def _random_attack(instruction, rng):
    cells = instruction.valid_actions()
    return cells[int(rng.integers(len(cells)))]


def validate_navigator(items, nav, cfg, att=None, seed=0):
    """Clean SR and, with ``att``, attacked SR and attacked-word prediction
    accuracy.  Each item's attacked episode follows its clean one and shares
    its ``UpdateEncodings``, so it reuses the clean episode's encoder cells.
    Raises ``ValueError`` on an empty item list."""
    if not items:
        raise ValueError("cannot validate on no items")
    opponents = (None,) if att is None else (None, att)
    succ, hits, total = [0, 0], 0, 0
    for i, item in enumerate(items):
        encs = UpdateEncodings()
        for k, opponent in enumerate(opponents):
            res = rollout_episode(item, nav, opponent, "eval",
                                  np.random.default_rng([seed, i]), cfg,
                                  record_trace=opponent is not None, encodings=encs)
            succ[k] += res.nav_buffer.success
            total += len(res.trace)
            hits += sum(r["predicted_target"] == r["attacked_target"] for r in res.trace)
    out = {"clean": succ[0] / len(items)}
    if att is not None:
        out.update(attacked=succ[1] / len(items), aux_acc=hits / total)
    return out


def evaluate_success(items, nav, cfg):
    """Clean greedy success rate over items with per-episode seeding."""
    return validate_navigator(items, nav, cfg)["clean"]


def navigator_update(item, nav, nav_value, cfg, rng, att, opt_state):
    """One mixed update over a teacher-forced and a sampled rollout, sharing
    tape, encodings and the opponent ``att`` (as in ``rollout_episode``).
    Every navigator transition records the teacher's action, so both
    rollouts add imitation terms, each at the states it visits; only the
    sampled one adds policy-gradient and value terms."""
    tape = Tape()
    shared = dict(tape=tape, encodings=UpdateEncodings())
    res_il = rollout_episode(item, nav, att, "nav_teacher", rng, cfg, **shared)
    res_rl = rollout_episode(item, nav, att, "nav_learn", rng, cfg,
                             nav_value=nav_value, **shared)
    diag = a2c_update(tape, [res_il.nav_buffer, res_rl.nav_buffer],
                      nav.params, nav_value.params, cfg, opt_state)
    return diag, res_rl


def attacker_update(item, nav, att, att_value, cfg, rng, opt_state):
    """One attacker update against the frozen greedy navigator, stepped with
    the attacker's terms of the shared ``cfg`` (``TrainConfig.for_attacker``)."""
    res = rollout_episode(item, nav, att, "att_learn", rng, cfg,
                          att_value=att_value)
    diag = a2c_update(res.tape, [res.att_buffer], att.params, att_value.params,
                      cfg.for_attacker(), opt_state)
    return diag, res


def _log(log_fn, tag, it, player, buf, diag):
    """The one log-record builder: ``tag`` (stage, and round when
    adversarial), iteration, player, episode reward and success, then the
    update's diagnostics with floats rounded to 6 digits."""
    log_fn({**tag, "iteration": it, "player": player, "reward": sum(buf.rewards),
            "success": int(buf.success),
            **{k: (round(v, 6) if isinstance(v, float) else v) for k, v in diag.items()}})


def _navigator_updates(items, nav, nav_value, cfg, rng, iters, att, opt_state, log):
    """Clean updates with no ``att``, else hardening against the frozen
    opponent ``att`` of any kind; only the opponent choices draw ``rng.random()``."""
    frozen = att.params if isinstance(att, Attacker) else {}
    digest = params_digest(frozen)
    for it in range(iters):
        item = _pick(items, rng)
        # alternate attacked and clean episodes so hardening does not
        # crowd out clean competence; a slice of the attacked episodes
        # uses random substitutions to vary the attack distribution
        opponent = None
        if att is not None and rng.random() < cfg.attacked_fraction:
            opponent = _random_attack if rng.random() < cfg.harden_random else att
        diag, res = navigator_update(item, nav, nav_value, cfg, rng, att=opponent,
                                     opt_state=opt_state)
        if log:
            log(it, "nav", res.nav_buffer, diag)
    if params_digest(frozen) != digest:
        raise RuntimeError("frozen attacker changed during navigator updates")


def _attacker_updates(items, nav, att, att_value, cfg, rng, iters, opt_state, log):
    nav_digest = params_digest(nav.params)
    for it in range(iters):
        item = _pick(items, rng)
        diag, res = attacker_update(item, nav, att, att_value, cfg, rng, opt_state)
        if log:
            log(it, "att", res.att_buffer, diag)
    if params_digest(nav.params) != nav_digest:
        raise RuntimeError("frozen navigator changed during attacker updates")


def train_navigator(items, nav, nav_value, cfg, rng, iters, att=None, log_fn=None):
    """Clean navigator training, or with ``att`` hardening against that frozen
    opponent of any kind ``rollout_episode`` takes: each update is attacked
    with probability ``attacked_fraction``, by random substitutions for a
    ``harden_random`` share of those (at 0, ``att`` alone), as in ``adversarial_train``."""
    _navigator_updates(items, nav, nav_value, cfg, rng, iters, att, {},
                       log_fn and partial(_log, log_fn, {"stage": "pretrain_nav"}))


def train_attacker(items, nav, att, att_value, cfg, rng, iters, log_fn=None):
    """Attacker training against a frozen navigator."""
    _attacker_updates(items, nav, att, att_value, cfg, rng, iters, {},
                      log_fn and partial(_log, log_fn, {"stage": "pretrain_att"}))


def adversarial_train(items, nav, att, nav_value, att_value, cfg, rng, log_fn=None):
    """Alternating rounds: freeze ``att``, the learned attacker (any other is
    refused up front), while the navigator takes n_eta hardening updates as
    ``train_navigator`` does, then freeze the navigator for n_pi attacker
    updates.  Each player's momentum carries across rounds; returns the update sequence."""
    if not isinstance(att, Attacker):
        raise ValueError("adversarial training needs the learned attacker")
    nav_opt, att_opt = {}, {}
    for rnd in range(cfg.n_iter):
        log = log_fn and partial(_log, log_fn, {"stage": "adversarial", "round": rnd})
        _navigator_updates(items, nav, nav_value, cfg, rng, cfg.n_eta, att, nav_opt, log)
        _attacker_updates(items, nav, att, att_value, cfg, rng, cfg.n_pi, att_opt, log)
    return (["eta"] * cfg.n_eta + ["pi"] * cfg.n_pi) * cfg.n_iter
