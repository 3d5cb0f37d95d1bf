"""Span tracer for the traced run, and the per-layer metrics drawn from it.

``Tracer.install`` puts a span around every public function and public
method of the seven ``advnav`` modules and around each forward and backward
entry of ``diffcore.PRIMITIVES``.  A function that another module imported
with ``from ... import`` is replaced there too, so calls are caught where
they are looked up.  The public ``diffcore`` ops named after a primitive
(``matmul``, ``add``, ...) get no span of their own: each call maps one to
one onto its forward-entry span, and a second span would double the record
without adding a layer boundary; their dispatch cost counts as their
caller's self time.

Each span records its name, start, end and parent in flat arrays that stay
in memory; ``write`` saves them at the end, and ``layer_metrics`` turns them
into per-unit figures.  Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

from advnav import attacker, checkpoint, diffcore, instruct, navigator, trainer, world

MODULES = (trainer, navigator, attacker, world, instruct, diffcore, checkpoint)
# plain containers whose accessors are called per tensor, not per operation
SKIP_CLASSES = {"Tensor", "Tape", "TapeEntry"}
WRITE_LIMIT = 1_000_000  # spans per file, about 24 MB


def public_functions(module):
    """(qualified name, owner, attribute, function) for each public function
    and public method defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if name in SKIP_CLASSES:
                continue
            for attr, member in vars(obj).items():
                fn = member.__func__ if isinstance(member, classmethod) else member
                if not attr.startswith("_") and inspect.isfunction(fn):
                    out.append((f"{layer}.{name}.{attr}", obj, attr, member))
        elif callable(obj) and not (module is diffcore and name in diffcore.PRIMITIVES):
            out.append((f"{layer}.{name}", module, name, obj))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters = Counter()
        self._undo = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn, count=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        counters, clock = self.counters, time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                count(counters, args, kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr] if inspect.isclass(owner)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        counts = {"navigator.Navigator.encode": _count_tokens,
                  "diffcore.backward": _count_tape_ops}
        for module in MODULES:
            for name, owner, attr, member in public_functions(module):
                if isinstance(member, classmethod):
                    wrapped = classmethod(self.wrap(name, member.__func__))
                    self._set(owner, attr, wrapped)
                    continue
                wrapped = self.wrap(name, member, counts.get(name))
                if inspect.isclass(owner):
                    self._set(owner, attr, wrapped)
                    continue
                # rebind every module-level alias of the function
                for other in MODULES:
                    for alias, value in list(vars(other).items()):
                        if value is member:
                            self._set(other, alias, wrapped)
        for op, (fwd, bwd) in list(diffcore.PRIMITIVES.items()):
            self._undo.append((diffcore.PRIMITIVES, op, (fwd, bwd)))
            diffcore.PRIMITIVES[op] = (self.wrap(f"diffcore.fwd.{op}", fwd),
                                       self.wrap(f"diffcore.bwd.{op}", bwd))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def mark(self):
        """Span index and counters now, to cut the record into phases."""
        return len(self.span_name), Counter(self.counters)

    def arrays(self, lo=0, hi=None):
        """Copies of spans [lo, hi): name id, parent index, start, end."""
        return tuple(np.frombuffer(a, dtype=dt)[lo:hi].copy() for a, dt in (
            (self.span_name, np.int32), (self.span_parent, np.int32),
            (self.span_start, np.float64), (self.span_end, np.float64)))

    def write(self, path, extra):
        """Save the first WRITE_LIMIT spans (set-up first, then the run)."""
        name, parent, start, end = self.arrays(0, WRITE_LIMIT)
        extra = dict(extra, spans_recorded=len(self.span_name), spans_written=len(name))
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.array(self.names), meta=np.array(json.dumps(extra)))


def _count_tokens(counters, args, kwargs):
    tokens = args[2] if len(args) > 2 else kwargs["tokens"]
    counters["navigator.encode.tokens"] += len(tokens)


def _count_tape_ops(counters, args, kwargs):
    tape = args[0] if args else kwargs["tape"]
    counters["diffcore.tape_ops"] += len(tape)


# ---------------------------------------------------------------------------
# per-layer metrics

OPS = tuple(diffcore.PRIMITIVES)

PER_LAYER = (
    [("diffcore.tape_ops_per_unit", "count", "lower"),
     ("diffcore.fwd_calls_per_unit", "count", "lower")]
    + [(f"diffcore.fwd.{op}.ms_per_unit", "ms", "lower") for op in OPS]
    + [(f"diffcore.bwd.{op}.ms_per_unit", "ms", "lower") for op in OPS]
    + [("diffcore.backward.self_ms_per_unit", "ms", "lower"),
       ("navigator.encode.calls_per_unit", "count", "lower"),
       ("navigator.encode.tokens_per_unit", "count", "lower"),
       ("navigator.encode.self_ms_per_unit", "ms", "lower"),
       ("navigator.decode.ms_per_unit", "ms", "lower"),
       ("navigator.encodes_per_step", "ratio", "lower"),
       ("attacker.encode.ms_per_unit", "ms", "lower"),
       ("attacker.attack_score.ms_per_unit", "ms", "lower"),
       ("attacker.attack_score.calls_per_unit", "count", "lower"),
       ("instruct.perturbations_per_unit", "count", "lower"),
       ("world.steps_per_unit", "count", "lower"),
       ("world.ms_per_unit", "ms", "lower"),
       ("world.generate_world_ms", "ms", "lower"),
       ("trainer.rollout.self_ms_per_unit", "ms", "lower"),
       ("trainer.a2c_update.self_ms_per_unit", "ms", "lower"),
       ("trainer.value_net.ms_per_unit", "ms", "lower"),
       ("checkpoint.params_digest.ms_per_unit", "ms", "lower"),
       ("trace.units_per_s", "1/s", "higher")])


class Phase:
    """Totals per span name over one slice [lo, hi) of the span record."""

    def __init__(self, tracer, lo, hi):
        name, parent, start, end = tracer.arrays(lo, hi)
        n_names = len(tracer.names)
        dur = end - start
        local = parent - lo
        inside = local >= 0
        child = np.bincount(local[inside], weights=dur[inside], minlength=len(dur))
        layer = np.array([n.split(".", 1)[0] for n in tracer.names] or [""])
        top = ~inside.copy()
        top[inside] = layer[name[inside]] != layer[name[local[inside]]]
        self.calls = np.bincount(name, minlength=n_names)
        self.total = np.bincount(name, weights=dur, minlength=n_names)
        self.self_ = np.bincount(name, weights=dur - child, minlength=n_names)
        self.layer_top = {lay: float(dur[top & (layer[name] == lay)].sum())
                          for lay in set(layer.tolist())}
        self.ids = tracer.name_ids

    def _get(self, arr, name):
        i = self.ids.get(name)
        return float(arr[i]) if i is not None and i < len(arr) else 0.0

    def calls_of(self, name):
        return self._get(self.calls, name)

    def ms(self, *names):
        return 1e3 * sum(self._get(self.total, n) for n in names)

    def self_ms(self, name):
        return 1e3 * self._get(self.self_, name)


def layer_metrics(tracer, setup_span, run_span, counters, units, setups, units_per_s):
    """Per-layer metrics of the timed run; ``setup_span``/``run_span`` are
    (lo, hi) span indices and ``counters`` the counter deltas of the run."""
    s, r = Phase(tracer, *setup_span), Phase(tracer, *run_span)
    u = max(units, 1)
    steps = r.calls_of("world.step")
    encodes = r.calls_of("navigator.Navigator.encode")
    m = {
        "diffcore.tape_ops_per_unit": counters["diffcore.tape_ops"] / u,
        "diffcore.fwd_calls_per_unit": sum(r.calls_of(f"diffcore.fwd.{op}") for op in OPS) / u,
    }
    for op in OPS:
        m[f"diffcore.fwd.{op}.ms_per_unit"] = r.ms(f"diffcore.fwd.{op}") / u
    for op in OPS:
        m[f"diffcore.bwd.{op}.ms_per_unit"] = r.ms(f"diffcore.bwd.{op}") / u
    m.update({
        "diffcore.backward.self_ms_per_unit": r.self_ms("diffcore.backward") / u,
        "navigator.encode.calls_per_unit": encodes / u,
        "navigator.encode.tokens_per_unit": counters["navigator.encode.tokens"] / u,
        "navigator.encode.self_ms_per_unit": r.self_ms("navigator.Navigator.encode") / u,
        "navigator.decode.ms_per_unit": r.ms("navigator.Navigator.visual_attention",
                                             "navigator.Navigator.decode_with_visual") / u,
        "navigator.encodes_per_step": encodes / steps if steps else 0.0,
        "attacker.encode.ms_per_unit": r.ms("attacker.Attacker.encode") / u,
        "attacker.attack_score.ms_per_unit": r.ms("attacker.Attacker.attack_score") / u,
        "attacker.attack_score.calls_per_unit": r.calls_of("attacker.Attacker.attack_score") / u,
        "instruct.perturbations_per_unit": r.calls_of("instruct.apply_perturbation") / u,
        "world.steps_per_unit": steps / u,
        "world.ms_per_unit": 1e3 * r.layer_top.get("world", 0.0) / u,
        "world.generate_world_ms": s.ms("world.generate_world") / max(setups, 1),
        "trainer.rollout.self_ms_per_unit": r.self_ms("trainer.rollout_episode") / u,
        "trainer.a2c_update.self_ms_per_unit": r.self_ms("trainer.a2c_update") / u,
        "trainer.value_net.ms_per_unit": r.ms("trainer.ValueNet.forward") / u,
        "checkpoint.params_digest.ms_per_unit": r.ms("checkpoint.params_digest") / u,
        "trace.units_per_s": units_per_s,
    })
    return m
