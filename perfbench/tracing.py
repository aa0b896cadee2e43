"""Outside-in tracing of the package: wrap its functions and methods, time each call.

Nothing under ``src/`` changes. ``Tracer.installed()`` swaps wrappers into
every ``coase_bandits`` module namespace that holds a traced function (so
``from .env import sample_upstream`` bindings are covered too) and onto the
traced classes, then puts the originals back. Only methods are wrapped, never
properties or instances, so the engine's ``getattr`` duck typing
(``in_search_phase``, ``estimates``, ``params``, ``diagnostics``) still sees
the real attributes.

Two kinds of wrapper:

- span: entry points, games and writes. Each call becomes a ``Span`` with a
  parent and the game id of the ``simulate_run`` / ``engine.run_*`` call it
  belongs to. Spans nest: workload > runner or acceptance entry point >
  simulate_run > engine.run_* > per-round calls.
- leaf: the per-round policy, sampling and gap calls. Storing one span per
  call would hold millions of spans, so each leaf call adds its count and
  duration to its parent span's ``leaf`` table instead; the parent's self
  time is its duration minus its children's, leaves included.

The wrappers also count work at the same boundaries: rounds, records and
phase-1 batches from each returned ``GameResult``, search and play rounds
and compliant play rounds from the property-mode downstream's step/observe
pairs, and bytes from each ``write_*`` call.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import sys
import time

clock = time.perf_counter_ns
PACKAGE = "coase_bandits"

SPAN_FUNCTIONS = {
    "config": ("parse_config_file", "parse_config", "validate_config"),
    "runner": (
        "simulate_command",
        "sweep",
        "simulate_run",
        "summarize",
        "write_run_summaries",
        "write_trajectory",
        "write_phase1_batches",
    ),
    "engine": ("run_property", "run_no_property"),
    "acceptance": ("run_suite",),
}
LEAF_FUNCTIONS = {
    "env": ("sample_upstream", "sample_downstream"),
    "engine": ("per_round_gaps",),
}
LEAF_METHODS = {
    "upstream": {
        "IncentiveAwareUCB": ("step", "update"),
        "BestResponseUpstream": ("step", "update"),
    },
    "downstream": {
        "NaiveContextUCB": ("step", "update"),
        "BestResponseDownstream": ("step", "update"),
    },
}
#: Property-mode downstream policies: step() -> (offer, own_arm), then
#: observe(upstream_arm, reward). Their wrappers also count compliance.
PROPERTY_DOWNSTREAMS = ("Belgic", "OracleTransferDownstream", "ZeroTransferDownstream")

GAME_SPANS = ("runner.simulate_run", "engine.run_property", "engine.run_no_property")
WRITE_SPANS = ("runner.write_run_summaries", "runner.write_trajectory", "runner.write_phase1_batches")
CONFIG_SPANS = tuple(f"config.{name}" for name in SPAN_FUNCTIONS["config"])


class Span:
    __slots__ = ("id", "parent", "game", "name", "label", "start", "end", "child_ns", "leaf")

    def __init__(self, sid: int, parent: "Span | None", name: str, label: str = ""):
        self.id = sid
        self.parent = parent
        self.game = parent.game if parent is not None else ""
        self.name = name
        self.label = label
        self.start = clock()
        self.end = 0
        self.child_ns = 0
        self.leaf: dict[str, list[int]] = {}

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    def as_dict(self, t0: int) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent is not None else None,
            "game": self.game,
            "name": self.name,
            "label": self.label,
            "start_ns": self.start - t0,
            "duration_ns": self.duration_ns,
            "self_ns": self.duration_ns - self.child_ns,
            "leaf": {k: {"calls": c, "ns": ns} for k, (c, ns) in sorted(self.leaf.items())},
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts = {
            "engine_rounds": 0,
            "engine_records": 0,
            "phase1_batches": 0,
            "early_returns": 0,
            "search_rounds": 0,
            "play_rounds": 0,
            "offers_taken": 0,
            "write_bytes": 0,
        }
        self._undo: list[tuple[object, str, object]] = []
        self._pending: dict[int, tuple[bool, int]] = {}
        self._games = 0

    # ------------------------------------------------------------ spans

    @contextlib.contextmanager
    def span(self, name: str, label: str = ""):
        s = self._open(name, label)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str, label: str = "") -> Span:
        parent = self.stack[-1] if self.stack else None
        s = Span(len(self.spans), parent, name, label)
        self.spans.append(s)
        self.stack.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end = clock()
        self.stack.pop()
        if s.parent is not None:
            s.parent.child_ns += s.duration_ns

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name: str, fn):
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            bound = sig.bind_partial(*args, **kwargs)
            label = ""
            if name == "acceptance.run_suite":
                label = str(bound.arguments.get("name", "all"))
            s = tracer._open(name, label)
            if name in GAME_SPANS and not s.game:
                tracer._games += 1
                a = bound.arguments
                s.game = f"g{tracer._games}-T{a.get('horizon')}-s{a.get('seed')}"
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if name.startswith("engine.run_"):
                tracer._count_game(out)
            elif name in WRITE_SPANS:
                tracer.counts["write_bytes"] += os.path.getsize(bound.arguments["path"])
            return out

        return wrapper

    def _count_game(self, result) -> None:
        c = self.counts
        c["engine_rounds"] += result.ledger.rounds
        c["engine_records"] += len(result.records) if result.records is not None else 0
        batches = result.phase1_batches or ()
        c["phase1_batches"] += len(batches)
        c["early_returns"] += sum(b.branch == "early_return" for b in batches)

    def _leaf_wrapper(self, name: str, fn):
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            parent = stack[-1]
            parent.child_ns += dt
            acc = parent.leaf.get(name)
            if acc is None:
                parent.leaf[name] = [1, dt]
            else:
                acc[0] += 1
                acc[1] += dt
            return out

        return wrapper

    def _offer_step_wrapper(self, name: str, fn):
        timed = self._leaf_wrapper(name, fn)
        pending = self._pending

        def step(policy, *args, **kwargs):
            in_search = getattr(policy, "in_search_phase", False)
            offer, own_arm = timed(policy, *args, **kwargs)
            pending[id(policy)] = (in_search, offer.arm)
            return offer, own_arm

        return step

    def _offer_observe_wrapper(self, name: str, fn):
        timed = self._leaf_wrapper(name, fn)
        pending, counts = self._pending, self.counts

        def observe(policy, upstream_arm, reward):
            in_search, offered = pending.pop(id(policy))
            if in_search:
                counts["search_rounds"] += 1
            else:
                counts["play_rounds"] += 1
                counts["offers_taken"] += upstream_arm == offered
            return timed(policy, upstream_arm, reward)

        return observe

    # ------------------------------------------------------------ install

    def _modules(self):
        return [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]

    def _rebind_function(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _rebind_method(self, cls, method: str, wrapper) -> None:
        self._undo.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, wrapper)

    def install(self) -> None:
        def mod(name: str):
            return importlib.import_module(f"{PACKAGE}.{name}")

        # Import every traced module before rebinding anything: a module
        # first imported midway would bind wrappers that uninstall misses.
        for name in {*SPAN_FUNCTIONS, *LEAF_FUNCTIONS, *LEAF_METHODS}:
            mod(name)
        for name, functions in SPAN_FUNCTIONS.items():
            for fn in functions:
                original = getattr(mod(name), fn)
                self._rebind_function(original, self._span_wrapper(f"{name}.{fn}", original))
        for name, functions in LEAF_FUNCTIONS.items():
            for fn in functions:
                original = getattr(mod(name), fn)
                self._rebind_function(original, self._leaf_wrapper(f"{name}.{fn}", original))
        for name, classes in LEAF_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mod(name), cls_name)
                for m in methods:
                    wrapped = self._leaf_wrapper(f"{name}.{cls_name}.{m}", cls.__dict__[m])
                    self._rebind_method(cls, m, wrapped)
        for cls_name in PROPERTY_DOWNSTREAMS:
            cls = getattr(mod("downstream"), cls_name)
            label = f"downstream.{cls_name}"
            step = self._offer_step_wrapper(f"{label}.step", cls.__dict__["step"])
            self._rebind_method(cls, "step", step)
            observe = self._offer_observe_wrapper(f"{label}.observe", cls.__dict__["observe"])
            self._rebind_method(cls, "observe", observe)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ results

    def leaf_totals(self) -> dict[str, list[int]]:
        totals: dict[str, list[int]] = {}
        for s in self.spans:
            for name, (calls, ns) in s.leaf.items():
                acc = totals.setdefault(name, [0, 0])
                acc[0] += calls
                acc[1] += ns
        return totals

    def write(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"counts": self.counts, "spans": [s.as_dict(t0) for s in self.spans]},
                fh,
                indent=None,
                separators=(",", ":"),
            )
            fh.write("\n")


def _us_per_call(totals: dict[str, list[int]], match) -> float:
    calls = ns = 0
    for name, (c, t) in totals.items():
        if match(name):
            calls += c
            ns += t
    return ns / calls / 1000.0 if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced execution (0 where a layer did no work)."""
    totals = tracer.leaf_totals()
    c = tracer.counts
    spans = tracer.spans
    rounds = c["engine_rounds"]

    def seconds(pred) -> float:
        return sum(s.duration_ns for s in spans if pred(s)) / 1e9

    engine_self_ns = sum(
        s.duration_ns - s.child_ns for s in spans if s.name.startswith("engine.run_")
    )
    play = c["play_rounds"]
    summarize = [s.duration_ns for s in spans if s.name == "runner.summarize"]

    def top_config(s: Span) -> bool:
        return s.name in CONFIG_SPANS and (s.parent is None or s.parent.name not in CONFIG_SPANS)

    def suite(label: str):
        return lambda s: s.name == "acceptance.run_suite" and s.label == label

    def method(layer: str, *names: str):
        return lambda n: n.startswith(layer + ".") and n.rsplit(".", 1)[1] in names

    return {
        "config.parse_s": seconds(top_config),
        "env.sample.us": _us_per_call(totals, lambda n: n.startswith("env.sample_")),
        "upstream.step.us": _us_per_call(totals, method("upstream", "step")),
        "upstream.update.us": _us_per_call(totals, method("upstream", "update")),
        "downstream.step.us": _us_per_call(totals, method("downstream", "step")),
        "downstream.observe.us": _us_per_call(totals, method("downstream", "observe", "update")),
        "downstream.search_share": c["search_rounds"] / rounds if rounds else 0.0,
        "downstream.batches": c["phase1_batches"],
        "downstream.early_returns": c["early_returns"],
        "downstream.offer_take_rate": c["offers_taken"] / play if play else 0.0,
        "engine.rounds": rounds,
        "engine.gaps.us": _us_per_call(totals, lambda n: n == "engine.per_round_gaps"),
        "engine.self_us_per_round": engine_self_ns / rounds / 1000.0 if rounds else 0.0,
        "engine.records": c["engine_records"],
        "runner.write.s": seconds(lambda s: s.name in WRITE_SPANS),
        "runner.write.bytes": c["write_bytes"],
        "runner.summarize.us": sum(summarize) / len(summarize) / 1000.0 if summarize else 0.0,
        "acceptance.criterion_2.s": seconds(suite("pathwise")),
        "acceptance.criterion_6.s": seconds(suite("certificate")),
    }
