"""Per-layer tracing by rebinding splitqm's public functions and methods.

No source file is edited.  ``Tracer.install`` wraps every public function and
method defined in the traced splitqm modules, rebinding each function in
every splitqm module that imported it, and ``uninstall`` puts the originals
back.  Each wrapper records a span (name, start, end, parent) at the layer
boundary; layers are the module names.  A layer's self time is its span
time minus its child spans.  A few named spans also form timing groups
(evaluation, defect windows, homogenisation) whose time is charged to the
innermost open group.  Spans and counts stay in memory until ``dump``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("groups", "words", "quasimorphisms", "counting", "automorphisms",
          "quasicocycles", "defect_space", "qrep")
GROUPS = {
    "quasimorphisms.eval_split": "eval",
    "quasimorphisms.cached_eval": "eval",
    "quasimorphisms.FactorQM.defect_witness": "defect",
    "quasimorphisms.maximize_doubling_witness": "defect",
    "quasimorphisms.homogenize_eval": "homogenize",
}
SPAN_CAP = 20_000  # spans kept for the trace file; counts and times use all


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter_ns
        self.stack = []   # [span id, name, layer, start, child ns]
        self.gstack = []  # [group, child ns]
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.counts = Counter()
        self.self_ns = Counter()
        self.group_ns = Counter()
        self._patched = []

    # -- spans -----------------------------------------------------------------

    def span(self, name, layer, fn, before=None, after=None):
        group = GROUPS.get(name)
        clock, stack, gstack, counts = self.clock, self.stack, self.gstack, self.counts

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            span_id = self.next_id
            self.next_id = span_id + 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, name, layer, clock(), 0]
            stack.append(frame)
            if group:
                gstack.append([group, 0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start = frame[3]
                duration = end - start
                self.self_ns[layer] += duration - frame[4]
                if stack:
                    stack[-1][4] += duration
                if group:
                    g = gstack.pop()
                    self.group_ns[group] += duration - g[1]
                    if gstack:
                        gstack[-1][1] += duration
                counts[name] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, name, start, end))
                else:
                    self.dropped += 1
            if after is not None:
                result = after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn, before):
        """Count-only wrapper, for generator functions whose span would end
        before their work is done."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            before(self, args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @property
    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if m is not None and
                   (name == "splitqm" or name.startswith("splitqm."))]
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"splitqm.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    originals[value] = self._wrap(f"{layer}.{attr}", layer, value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for mname, member in list(vars(value).items()):
                        if not inspect.isfunction(member):
                            continue
                        if mname.startswith("_") and mname not in ("__call__", "_pairs"):
                            continue
                        wrapped = self._wrap(f"{layer}.{attr}.{mname}", layer, member)
                        self._patched.append((value, mname, member))
                        setattr(value, mname, wrapped)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, originals[value])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def _wrap(self, name, layer, fn):
        hook = HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self.counter(name, fn, hook or (lambda tracer, args, kwargs: None))
        before, after = hook if hook else (None, None)
        return self.span(name, layer, fn, before, after)

    # -- output ------------------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload.update(
            counts=dict(self.counts),
            self_ms={k: v / 1e6 for k, v in self.self_ns.items()},
            group_ms={k: v / 1e6 for k, v in self.group_ns.items()},
            spans_dropped=self.dropped,
            span_fields=["id", "parent", "name", "start_ns", "end_ns"],
            spans=self.spans,
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# -- counting hooks ------------------------------------------------------------------


def _reduce_letters(tracer, args):
    s, raw = args[0], args[1]
    if not hasattr(raw, "__len__"):
        raw = tuple(raw)
    tracer.counts["words.reduce.letters"] += len(raw)
    return (s, raw) + tuple(args[2:])


def _split_letters(tracer, args):
    tracer.counts["quasimorphisms.split_letters"] += len(args[1].letters)
    return args


def _factor_eval(tracer, args):
    if tracer.parent_name == "quasimorphisms.cached_eval":
        tracer.counts["quasimorphisms.cache_misses"] += 1
    return args


def _cached_evaluator(tracer, args, evaluate):
    def lookups(tracer, args):
        n = len(args[0].letters)
        tracer.counts["quasimorphisms.cache_lookups"] += n
        tracer.counts["quasimorphisms.split_letters"] += n
        return args

    return tracer.span("quasimorphisms.cached_eval", "quasimorphisms", evaluate, lookups)


def _window_pairs(tracer, args, kwargs):
    q = args[0]
    scale = args[1] if len(args) > 1 else kwargs.get("scale", 1)
    if q.group.is_finite:
        side = int(q.group.size)
    else:
        window = type(q).defect_window
        side = 2 * getattr(window, "__wrapped__", window)(q, scale) + 1
    tracer.counts["quasimorphisms.window_pairs"] += side * side


def _translated(tracer, args):
    tracer.counts["quasicocycles.translated_entries"] += len(args[2])
    return args


def _witness_checked(tracer, args, report):
    tracer.counts["qrep.witness_checked"] += report.checked
    return report


HOOKS = {
    "words.reduce": (_reduce_letters, None),
    "quasimorphisms.eval_split": (_split_letters, None),
    "quasimorphisms.FactorQM.__call__": (_factor_eval, None),
    "quasimorphisms.cached_evaluator": (None, _cached_evaluator),
    "quasimorphisms.FactorQM._pairs": _window_pairs,
    "quasicocycles.RegularRep.act": (_translated, None),
    "quasicocycles.FiniteDimRep.act": (_translated, None),
    "qrep.nontriviality_witness": (None, _witness_checked),
}


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-operation layer figures from the spans and counts of ``ops`` traced operations."""
    c = tracer.counts

    def per_op(value):
        return value / ops

    def ms(ns):
        return ns / 1e6 / ops

    def calls(prefix, names):
        return sum(v for k, v in c.items() if k.startswith(prefix) and k.rsplit(".", 1)[-1] in names)

    lookups = c["quasimorphisms.cache_lookups"]
    return {
        "groups.calls": (per_op(calls("groups.", {"mul", "inv", "check"})), "count/op"),
        "groups.self_ms": (ms(tracer.self_ns["groups"]), "ms/op"),
        "words.reduce.calls": (per_op(c["words.reduce"]), "count/op"),
        "words.reduce.letters": (per_op(c["words.reduce.letters"]), "count/op"),
        "words.multiply.calls": (per_op(c["words.multiply"]), "count/op"),
        "words.random_word.calls": (per_op(c["words.random_word"]), "count/op"),
        "words.self_ms": (ms(tracer.self_ns["words"]), "ms/op"),
        "quasimorphisms.factor_evals": (per_op(c["quasimorphisms.FactorQM.__call__"]), "count/op"),
        "quasimorphisms.split_letters": (per_op(c["quasimorphisms.split_letters"]), "count/op"),
        "quasimorphisms.cache_hit_ratio": (
            (lookups - c["quasimorphisms.cache_misses"]) / lookups if lookups else 0.0, "ratio"),
        "quasimorphisms.window_pairs": (per_op(c["quasimorphisms.window_pairs"]), "count/op"),
        "quasimorphisms.eval_ms": (ms(tracer.group_ns["eval"]), "ms/op"),
        "quasimorphisms.defect_ms": (ms(tracer.group_ns["defect"]), "ms/op"),
        "quasimorphisms.homogenize_ms": (ms(tracer.group_ns["homogenize"]), "ms/op"),
        "quasimorphisms.self_ms": (ms(tracer.self_ns["quasimorphisms"]), "ms/op"),
        "automorphisms.apply.calls": (per_op(c["automorphisms.apply"]), "count/op"),
        "automorphisms.self_ms": (ms(tracer.self_ns["automorphisms"]), "ms/op"),
        "quasicocycles.act.calls": (
            per_op(c["quasicocycles.RegularRep.act"] + c["quasicocycles.FiniteDimRep.act"]), "count/op"),
        "quasicocycles.translated_entries": (per_op(c["quasicocycles.translated_entries"]), "count/op"),
        "quasicocycles.self_ms": (ms(tracer.self_ns["quasicocycles"]), "ms/op"),
        "qrep.eval.calls": (per_op(c["qrep.eval_qrep"] + c["qrep.eval_split_hom"]), "count/op"),
        "qrep.witness_checked": (per_op(c["qrep.witness_checked"]), "count/op"),
        "qrep.self_ms": (ms(tracer.self_ns["qrep"]), "ms/op"),
    }
