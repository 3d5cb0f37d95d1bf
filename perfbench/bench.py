"""The three workloads of the advnav benchmark.

Each workload is a closed loop with one caller: the next unit starts when
the previous one ends.  A unit is one parameter update in the two training
workloads and one episode in ``eval_attacked``.  The seed makes the inputs
(worlds, routes, instructions) and the training draws; the models start
from the package defaults (``ModelDims()``, ``TrainConfig()``) with one
fixed initialisation, so that the seed varies what the program is given,
not which network it is.

Timing is wall-clock ``perf_counter``.  A unit's time runs from the end of
the previous unit to the program's report of this one (``log_fn`` for an
update, the return of ``rollout_episode`` for an episode).  Time the
benchmark spends on its own work (checks, resets) is taken out of every
figure.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from advnav import diffcore as dc
from advnav import instruct as ins
from advnav import trainer as tr
from advnav import world as wd
from advnav.attacker import Attacker
from advnav.navigator import ModelDims, Navigator

import checks
import spans
from checks import CheckFailed, require

MODEL_SEED = 0
SCHEDULE_SEED = 0        # the clean/attacked schedule of adversarial_long
SETUP_REPEATS = 5        # set-up is timed this often; setup_s is the median
REPLAY_UNITS = 5         # length of the fixed-seed prefix that is replayed
ENDLESS = 10 ** 9        # iteration count for loops that the clock stops

END_TO_END = {"units_per_s": "1/s", "env_steps_per_s": "1/s", "unit_ms_p50": "ms",
              "unit_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class ItemSpec:
    """Make-up of a workload's items; ``nodes`` and ``route`` are inclusive
    ranges, a route counting its nodes."""
    tag: int
    n_items: int
    per_world: int
    nodes: tuple
    route: tuple
    horizon: int


# R2R-like: 12-node worlds, 2-4-node routes, 16-28 tokens.  Training draws
# from 64 items; evaluation runs 256, whose first 64 are the same items, so
# that its mean episode length varies less from seed to seed.
SHORT = ItemSpec(tag=1, n_items=64, per_world=4, nodes=(12, 12), route=(2, 4), horizon=10)
SHORT_EVAL = replace(SHORT, n_items=256)
# NDH-like: 30-40-node worlds, 5-8-node routes, 34-46 tokens
LONG = ItemSpec(tag=2, n_items=64, per_world=4, nodes=(30, 40), route=(5, 8), horizon=14)


def make_items(spec: ItemSpec, seed: int):
    rng = np.random.default_rng([seed, spec.tag])
    items = []
    while len(items) < spec.n_items:
        n = int(rng.integers(spec.nodes[0], spec.nodes[1] + 1))
        world = wd.generate_world(wd.WorldConfig(n_nodes=n, horizon=spec.horizon,
                                                 seed=int(rng.integers(2 ** 31))))
        for _ in range(spec.per_world):
            for _try in range(200):
                a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
                if spec.route[0] <= len(wd.shortest_path(world, a, b)) <= spec.route[1]:
                    break
            else:
                break       # no such route found: draw the next world
            ep = wd.make_episode(world, a, b)
            instr = ins.generate_instruction(world, ep, seed=int(rng.integers(2 ** 31)))
            items.append(tr.TrainItem(world, ep, instr))
    return items[:spec.n_items]


class Models(NamedTuple):
    nav: Navigator
    att: Attacker
    nav_value: tr.ValueNet
    att_value: tr.ValueNet

    def params(self):
        return [m.params for m in self if m is not None]


def make_models(players, dtype=np.float32):
    """Build the players a workload uses, from ``MODEL_SEED``."""
    rng = np.random.default_rng(MODEL_SEED)
    vocab = ins.build_vocabulary()
    dims, cfg = ModelDims(), tr.TrainConfig()
    nav = Navigator.create(rng, vocab, dims, dtype=dtype)
    att = Attacker.create(rng, vocab, dims, dtype=dtype) if "att" in players else None
    nav_value = tr.ValueNet.create(rng, dims.d_v, cfg.value_hidden) \
        if "nav_value" in players else None
    att_value = tr.ValueNet.create(rng, dims.d_v, cfg.value_hidden) \
        if "att_value" in players else None
    return Models(nav, att, nav_value, att_value)


# ---------------------------------------------------------------------------
# timing and probes

class TimeUp(Exception):
    """Raised from a log callback to end a loop that the clock stops."""


class Meter:
    """Closed-loop unit clock with the benchmark's own time removed.

    A run lasts ``seconds`` of measured time and at least ``window`` units.
    When the ``window``-th unit ends, ``mark()`` is called and its value
    kept as ``window_mark``: the traced run takes its per-layer figures from
    that fixed prefix of units, so that its counts repeat exactly.
    """

    def __init__(self, seconds, window=0, mark=None):
        self.seconds = seconds
        self.window = window
        self.mark = mark
        self.window_mark = None
        self.unit_s = []
        self.unit_ok = []
        self.check_s = 0.0
        self.env_steps = 0
        self.running = False
        self._t0 = self._last = self._check_last = 0.0

    def start(self):
        self.running = True
        self._t0 = self._last = time.perf_counter()
        self._check0 = self._check_last = self.check_s

    def stop(self):
        self.running = False
        self.measured_s = self.elapsed()

    def elapsed(self):
        return time.perf_counter() - self._t0 - (self.check_s - self._check0)

    def time_up(self):
        return self.elapsed() >= self.seconds and len(self.unit_s) >= self.window

    def unit_done(self, failed=False, now=None):
        if not self.running:
            return
        now = time.perf_counter() if now is None else now
        self.unit_s.append(now - self._last - (self.check_s - self._check_last))
        self._last, self._check_last = now, self.check_s
        self.unit_ok.append(not failed)
        if self.mark is not None and len(self.unit_s) == self.window:
            self.window_mark = self.mark()

    @contextmanager
    def paused(self):
        """Time spent inside is the benchmark's own and counts nowhere."""
        t = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - t


class Rollout(NamedTuple):
    attacked: bool
    success: bool
    steps: int
    trace: list


class Probe:
    """Checks every rollout and every perturbation as the program makes them.

    It replaces ``trainer.rollout_episode`` and ``trainer.apply_perturbation``
    (where the training loops look them up) with wrappers that call the
    original and then check its result on the benchmark's own geometry.
    """

    def __init__(self, meter, items, unit_is_episode):
        self.meter = meter
        self.unit_is_episode = unit_is_episode
        self.vocab = ins.build_vocabulary()
        self.geometry = {id(it.world): checks.Geometry(it.world) for it in items}
        self.records = []
        self.perturbations = 0

    def install(self):
        self._rollout, self._perturb = tr.rollout_episode, tr.apply_perturbation
        tr.rollout_episode, tr.apply_perturbation = self.rollout, self.perturb

    def uninstall(self):
        tr.rollout_episode, tr.apply_perturbation = self._rollout, self._perturb

    def rollout(self, item, nav, att, mode, rng, cfg, **kwargs):
        res = self._rollout(item, nav, att, mode, rng, cfg, **kwargs)
        now = time.perf_counter()
        if self.unit_is_episode:
            self.meter.unit_done(now=now)
        with self.meter.paused():
            success, steps = checks.check_rollout(self.geometry[id(item.world)], item, res,
                                                  teacher_forced=mode == "nav_teacher")
            if res.trace:
                _check_trace(item.instruction, res.trace)
            if self.meter.running:
                self.meter.env_steps += steps
            self.records.append(Rollout(res.att_buffer is not None, success, steps,
                                        res.trace))
        return res

    def perturb(self, instr, action, timestep):
        pert = self._perturb(instr, action, timestep)
        with self.meter.paused():
            checks.check_perturbation(pert, self.vocab)
            self.perturbations += 1
        return pert

    def take(self):
        out, self.records = self.records, []
        return out


def _check_trace(instr, rows):
    for row in rows:
        checks.check_distribution(row["alpha_w"], f"step {row['t']} word attention",
                                  size=len(instr.tokens))
        if "attacked_target" in row:
            require(row["attacked_position"] == instr.target_set[row["attacked_target"]],
                    f"step {row['t']}: attacked position is not the target's position")
        if "p_c" in row:
            checks.check_distribution(row["p_c"], f"step {row['t']} attacked-word distribution",
                                      size=instr.n_targets)
            require(row["predicted_target"] == int(np.argmax(row["p_c"])),
                    f"step {row['t']}: predicted target is not the argmax of p_c")


def until_time(meter, call, min_calls=1):
    """Repeat ``call`` until the meter's time is up.  A call that raises
    counts one failed unit, and the loop goes on."""
    calls = 0
    while calls < min_calls or not meter.time_up():
        calls += 1
        try:
            call()
        except TimeUp:
            return
        except CheckFailed:
            raise
        except Exception:
            traceback.print_exc(file=sys.stderr)
            meter.unit_done(failed=True)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    spec = SHORT
    players = ()
    unit_is_episode = False
    trace_window = 0        # units whose spans give the per-layer figures

    def __init__(self, seed):
        self.seed = seed
        self.cfg = tr.TrainConfig()

    def setup(self):
        """Build the items and the models; this is what ``setup_s`` times."""
        self.items = make_items(self.spec, self.seed)
        self.models = make_models(self.players)

    def setup_digest(self):
        h = checks.digest(*self.models.params())
        return h + repr([(it.episode.start, it.episode.goal, it.instruction.tokens,
                          it.world.edges) for it in self.items])

    def before(self, meter, probe):
        pass

    def run(self, meter, probe):
        raise NotImplementedError

    def after(self, meter, probe):
        pass

    def _prefix_digest(self, train):
        """Digest after REPLAY_UNITS units of ``train(models, log)``, run on
        freshly built models."""
        models = make_models(self.players)
        seen = []

        def log(rec):
            seen.append(rec)
            if len(seen) == REPLAY_UNITS:
                raise TimeUp

        try:
            train(models, log)
        except TimeUp:
            pass
        require(len(seen) == REPLAY_UNITS, f"replay stopped after {len(seen)} units")
        return checks.digest(*models.params())


class PretrainClean(Workload):
    """Navigator training with no attacker on short items."""
    name = "pretrain_clean"
    players = ("nav", "nav_value")
    trace_window = 400

    def _train(self, models, log, rng):
        tr.train_navigator(self.items, models.nav, models.nav_value, self.cfg, rng,
                           ENDLESS, log_fn=log)

    def before(self, meter, probe):
        self.sr_before = _success_rate(self.items, self.models.nav, self.cfg, probe)

    def run(self, meter, probe):
        rng = np.random.default_rng([self.seed, 3])
        self.il = []
        self.prefix = None

        def log(rec):
            meter.unit_done(failed=rec.get("aborted", False))
            self.il.append(rec["il"])
            if len(self.il) == REPLAY_UNITS:
                with meter.paused():
                    self.prefix = checks.digest(*self.models.params())
            if meter.time_up():
                raise TimeUp

        until_time(meter, lambda: self._train(self.models, log, rng))

    def after(self, meter, probe):
        require(probe.perturbations == 0, "clean training perturbed an instruction")
        require(not any(r.attacked for r in probe.records), "clean training ran an attacker")
        sr_after = _success_rate(self.items, self.models.nav, self.cfg, probe)
        checks.check_learning(self.il, self.sr_before, sr_after)
        replay = self._prefix_digest(
            lambda m, log: self._train(m, log, np.random.default_rng([self.seed, 3])))
        require(replay == self.prefix, "fixed-seed prefix replayed to another digest")


class ScheduleRng:
    """A generator whose ``random()`` draws come from a stream of their own.

    In the training loops ``rng.random()`` only decides whether a navigator
    update is clean, learned-attack or random-attack; item picks and sampled
    actions use other methods, which go to ``rng``.  With the decisions
    served from a fixed stream, every seed runs the same schedule of update
    kinds, whose costs differ about threefold.
    """

    def __init__(self, rng, schedule):
        self._rng, self._schedule = rng, schedule

    def random(self, *args, **kwargs):
        return self._schedule.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class AdversarialLong(Workload):
    """Alternating n_eta/n_pi rounds on long items, one round per call.

    Two things keep the work per update from varying with the seed.  Every
    round starts from the initial parameters again: how long the sampled
    episodes run depends on what the players have learned.  And the choice
    between clean and attacked navigator updates follows one fixed schedule
    (``ScheduleRng``): with it drawn per seed, the share of the costly
    attacked updates varied enough between runs to move the median update
    time by a third."""
    name = "adversarial_long"
    spec = LONG
    players = ("nav", "att", "nav_value", "att_value")
    trace_window = 80       # two rounds

    def _round(self, models, log, rng):
        return tr.adversarial_train(self.items, models.nav, models.att, models.nav_value,
                                    models.att_value, replace(self.cfg, n_iter=1), rng,
                                    log_fn=log)

    def _rng(self):
        return ScheduleRng(np.random.default_rng([self.seed, 4]),
                           np.random.default_rng(SCHEDULE_SEED))

    def run(self, meter, probe):
        rng = self._rng()
        cfg = self.cfg
        players = []
        self.prefix = None
        expect = ["nav"] * cfg.n_eta + ["att"] * cfg.n_pi

        def log(rec):
            meter.unit_done(failed=rec.get("aborted", False))
            players.append(rec["player"])
            if len(players) == REPLAY_UNITS:
                with meter.paused():
                    self.prefix = checks.digest(*self.models.params())

        initial = [{k: p.values.copy() for k, p in params.items()}
                   for params in self.models.params()]

        def one_round():
            with meter.paused():
                for params, values in zip(self.models.params(), initial):
                    for k, p in params.items():
                        p.values = values[k].copy()
            start = len(players)
            update_log = self._round(self.models, log, rng)
            with meter.paused():
                checks.check_schedule(update_log, cfg.n_eta, cfg.n_pi, 1)
                require(players[start:] == expect,
                        f"round logged players {players[start:]}, expected {expect}")

        until_time(meter, one_round)

    def after(self, meter, probe):
        replay = self._prefix_digest(lambda m, log: self._round(m, log, self._rng()))
        require(replay == self.prefix, "fixed-seed prefix replayed to another digest")


class EvalAttacked(Workload):
    """Greedy validation, clean then under the learned attacker, on short items."""
    name = "eval_attacked"
    spec = SHORT_EVAL
    players = ("nav", "att")
    unit_is_episode = True
    trace_window = 2 * SHORT_EVAL.n_items   # one round: each item clean, then attacked

    def run(self, meter, probe):
        nav, att = self.models.nav, self.models.att
        self.params_before = checks.digest(nav.params, att.params)
        self.rounds = []
        n = len(self.items)

        def one_round():
            probe.take()
            out = tr.validate_navigator(self.items, nav, self.cfg, att=att, seed=self.seed)
            with meter.paused():
                recs = probe.take()
                clean = [r for r in recs if not r.attacked]
                attacked = [r for r in recs if r.attacked]
                require(len(clean) == n and len(attacked) == n,
                        f"{len(clean)} clean and {len(attacked)} attacked episodes for {n} items")
                checks.check_rate(out["clean"], [r.success for r in clean], "clean SR")
                checks.check_rate(out["attacked"], [r.success for r in attacked], "attacked SR")
                rows = [row for r in attacked for row in r.trace
                        if "attacked_target" in row and "predicted_target" in row]
                hits = sum(row["predicted_target"] == row["attacked_target"] for row in rows)
                require(abs(out["aux_acc"] - hits / max(len(rows), 1)) <= 1e-12,
                        f"attacked-word accuracy {out['aux_acc']}, recomputed "
                        f"{hits}/{len(rows)}")
                self.rounds.append(repr([(r.success, r.steps,
                                          [row["action"] for row in r.trace]) for r in recs]))

        until_time(meter, one_round, min_calls=2)

    def after(self, meter, probe):
        nav, att = self.models.nav, self.models.att
        require(checks.digest(nav.params, att.params) == self.params_before,
                "evaluation changed the parameters")
        require(all(r == self.rounds[0] for r in self.rounds),
                "repeated evaluation rounds gave different episodes")
        for item in self.items[:8]:
            enc = att.encode(None, item.instruction)
            state = item.world.candidate_views(item.episode.start)[0]
            score = att.attack_score(None, enc, state)
            checks.check_distribution(score.beta, "word importance")
            for j, row in enumerate(score.gamma):
                checks.check_distribution(row[score.valid[j]], f"target {j} substitution impact")
            checks.check_distribution(score.p_flat.values, "joint attack distribution")


WORKLOADS = {w.name: w for w in (PretrainClean, AdversarialLong, EvalAttacked)}


def _success_rate(items, nav, cfg, probe):
    probe.take()
    sr = tr.evaluate_success(items, nav, cfg)
    checks.check_rate(sr, [r.success for r in probe.take()], "clean SR")
    return sr


# ---------------------------------------------------------------------------
# float64 gradient check

def gradient_check(item, seed, n_coords=8):
    """Taped gradients of a float64 teacher-forced imitation loss against
    central differences of the same loss computed here from the action
    distributions."""
    nav = make_models(("nav",), dtype=np.float64).nav
    cfg = tr.TrainConfig()

    def rollout(tape):
        return tr.rollout_episode(item, nav, None, "nav_teacher",
                                  np.random.default_rng(0), cfg, tape=tape)

    def loss_value():
        trs = rollout(None).nav_buffer.transitions
        return float(sum(-np.log(t.dist.values.reshape(-1)[t.teacher]) for t in trs))

    tape = dc.Tape()
    trs = rollout(tape).nav_buffer.transitions
    loss = dc.cross_entropy(tape, trs[0].dist, trs[0].teacher)
    for t in trs[1:]:
        loss = dc.add(tape, loss, dc.cross_entropy(tape, t.dist, t.teacher))
    require(abs(loss.item() - loss_value()) <= 1e-9 * max(1.0, abs(loss.item())),
            "taped imitation loss differs from the recomputed one")
    dc.zero_grads(nav.params)
    dc.backward(tape, loss)
    grads = {k: p.grad.copy() for k, p in nav.params.items() if p.grad is not None}
    dc.zero_grads(nav.params)
    # sample where the gradient is large enough for a relative comparison
    floor = 1e-4 * max(float(np.abs(g).max()) for g in grads.values())
    live = sorted(k for k, g in grads.items() if np.any(np.abs(g) >= floor))
    require(floor > 0.0 and len(live) > 0, "imitation loss has no non-zero gradient")
    rng = np.random.default_rng([seed, 5])
    coords = []
    for _ in range(n_coords):
        name = live[int(rng.integers(len(live)))]
        nz = np.flatnonzero(np.abs(grads[name]) >= floor)
        coords.append((name, int(nz[int(rng.integers(len(nz)))])))
    checks.check_gradients(loss_value, nav.params, grads, coords)


# ---------------------------------------------------------------------------
# one run

def run(name, seed, seconds, tracer=None):
    """Set up, measure and check one workload; returns the result dict."""
    workload = WORKLOADS[name](seed)
    mark = tracer.mark() if tracer else None
    setup_s, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t)
        digests.add(workload.setup_digest())
    require(len(digests) == 1, "repeated set-up built different inputs or models")
    setup_mark = tracer.mark() if tracer else None

    meter = Meter(seconds, workload.trace_window if tracer else 0,
                  tracer.mark if tracer else None)
    probe = Probe(meter, workload.items, workload.unit_is_episode)
    probe.install()
    try:
        workload.before(meter, probe)
        probe.take()
        run_mark = tracer.mark() if tracer else None
        meter.start()
        workload.run(meter, probe)
        meter.stop()
        workload.after(meter, probe)
        gradient_check(workload.items[0], seed)
    finally:
        probe.uninstall()

    done = [s for s, ok in zip(meter.unit_s, meter.unit_ok) if ok]
    attempted = len(meter.unit_s)
    require(len(done) >= 1, "no unit completed")
    units_per_s = len(done) / meter.measured_s
    result = {"attempted": attempted, "failed": attempted - len(done)}
    if tracer is None:
        ms = np.array(done) * 1e3
        values = {
            "units_per_s": units_per_s,
            "env_steps_per_s": meter.env_steps / meter.measured_s,
            "unit_ms_p50": float(np.percentile(ms, 50)),
            "unit_ms_p90": float(np.percentile(ms, 90)),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    else:
        window_mark = meter.window_mark
        layer = spans.layer_metrics(
            tracer, (mark[0], setup_mark[0]), (run_mark[0], window_mark[0]),
            window_mark[1] - run_mark[1], meter.window, SETUP_REPEATS, units_per_s)
        units = dict((n, u) for n, u, _ in spans.PER_LAYER)
        result["metrics"] = {k: (v, units[k]) for k, v in layer.items()}
        result["spans"] = {"setup": [mark[0], setup_mark[0]],
                           "window": [run_mark[0], window_mark[0]],
                           "window_units": meter.window, "unit_s": meter.unit_s}
    return result

