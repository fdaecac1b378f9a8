"""Outside-in span tracing for ``run.py --trace`` (stdlib only).

A :class:`Tracer` wraps each layer's public callables from the
benchmark's own files, so the program under test carries no tracing
code.  Functions are replaced at *every* binding site: each module of
the repository that holds the original object under any name gets the
wrapper, so ``from x import f`` copies are covered too.  Methods are
replaced on their class (subclasses that override are listed
separately).

Each wrapped call records a span ``(name, id, parent, start, end)``
plus optional counters taken from its arguments and result.  Spans
live in memory and are appended to ``<dir>/spans-<pid>.jsonl``: fork
children (the sweep pool) write theirs when their outermost span
closes, because pool workers exit without running ``atexit``; other
processes call :meth:`Tracer.flush` when they finish.  A fork child's
first spans name the span that was open in the parent when it forked,
so pool work nests under the sweep that started the pool.

:func:`layer_metrics` turns the spans of one run into the per-layer
metrics named in :data:`LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _engine_counts(args, result) -> dict:
    """Cycles and delivered flits of one engine run.

    Closed-loop results count every delivered flit; open-loop results
    count the measured packets, so flits are packets times length.
    """
    flits = getattr(result, "delivered_flits", None)
    if flits is None:
        flits = result.delivered * args[0].config.packet_length
    return {"cycles": result.cycles, "flits": flits}


def _size(args, result) -> dict:
    return {"bytes": len(result)}


def _hit(args, result) -> dict:
    return {"hit": int(result is not None)}


def _rows(args, result) -> dict:
    return {"rows": len(result.rows)}


#: (span name, target, counters).  A target is ``module:function`` or
#: ``module:Class.method``.
TARGETS = [
    ("scenarios.resolve", "repro.scenarios.resolve:resolve", None),
    ("topologies.build", "repro.topologies.registry:balanced_instance", None),
    ("routing.tables.build", "repro.routing.tables:RoutingTables.__init__", None),
    ("routing.tables.next_hop", "repro.routing.tables:RoutingTables.next_hop_matrix", None),
    ("sim.engine.setup", "repro.sim.engine:SimEngine.__init__", None),
    ("sim.engine.setup", "repro.sim.engine:ClosedLoopEngine.__init__", None),
    ("sim.engine.run", "repro.sim.engine:SimEngine.run", _engine_counts),
    ("sim.engine.run", "repro.sim.engine:ClosedLoopEngine.run", _engine_counts),
    ("sim.engine_vec.setup", "repro.sim.engine_vec:VecEngine.__init__", None),
    ("sim.engine_vec.setup", "repro.sim.engine_vec:VecClosedLoopEngine.__init__", None),
    ("sim.engine_vec.run", "repro.sim.engine_vec:VecEngine.run", _engine_counts),
    ("sim.engine_vec.run", "repro.sim.engine_vec:VecClosedLoopEngine.run", _engine_counts),
    ("sim.flowlevel.model", "repro.sim.flowlevel:FlowModel.__init__", None),
    ("sim.flowlevel.demand", "repro.sim.flowlevel:router_demands", None),
    ("sim.flowlevel.solve", "repro.sim.flowlevel:FlowModel.simulate", None),
    ("sim.flowlevel.waterfill", "repro.sim.flowlevel:waterfill", None),
    ("sim.parallel.sweep", "repro.sim.parallel:parallel_latency_vs_load", None),
    ("sim.parallel.completion", "repro.sim.parallel:parallel_workload_completion", None),
    ("scenarios.spec.canonical_json", "repro.scenarios.spec:canonical_json", _size),
    ("scenarios.runner", "repro.scenarios.runner:run_campaign", _rows),
    ("service.store.get", "repro.service.store:FileResultStore.get", _hit),
    ("service.store.put", "repro.service.store:FileResultStore.put", None),
    ("service.coordinator", "repro.service.coordinator:Coordinator.execute", None),
    ("service.units.exec", "repro.service.units:execute_unit", None),
    ("service.worker.serve", "repro.service.worker:serve_worker", None),
    ("service.protocol.frame", "repro.service.protocol:_encode", _size),
    ("analysis.frames.ingest", "repro.analysis.frames:RowTable.from_jsonl", None),
    ("analysis.frames.ingest", "repro.analysis.frames:MetricsTable.from_jsonl", None),
    ("analysis.figures.render", "repro.analysis.figures:save_figure", None),
    ("analysis.report", "repro.analysis.report:build_report", None),
]

#: Every per-layer metric, with its unit, in report order.
LAYER_METRICS = {
    "scenarios.resolve.calls": "count",
    "scenarios.resolve.self_s": "s",
    "topologies.build_s": "s",
    "topologies.builds": "count",
    "routing.tables.build_s": "s",
    "routing.tables.builds": "count",
    "routing.tables.next_hop_s": "s",
    **{
        f"{layer}.{m}": unit
        for layer in ("sim.engine", "sim.engine_vec")
        for m, unit in (
            ("setup_s", "s"), ("run_s", "s"), ("runs", "count"),
            ("cycles", "count"), ("cycles_per_s", "1/s"), ("flits_per_s", "1/s"),
        )
    },
    "sim.flowlevel.model_s": "s",
    "sim.flowlevel.demand_s": "s",
    "sim.flowlevel.solve_s": "s",
    "sim.flowlevel.waterfill_s": "s",
    "sim.flowlevel.points": "count",
    "sim.parallel.sweep_s": "s",
    "sim.parallel.completion_s": "s",
    "sim.parallel.worker_util": "ratio",
    "scenarios.spec.canonical_json_s": "s",
    "scenarios.spec.canonical_json_calls": "count",
    "scenarios.spec.canonical_json_mb": "MB",
    "scenarios.runner.self_s": "s",
    "scenarios.runner.rows": "count",
    "service.store.get_s": "s",
    "service.store.gets": "count",
    "service.store.hit_ratio": "ratio",
    "service.store.put_s": "s",
    "service.store.puts": "count",
    "service.store.quarantined": "count",
    "service.units.exec_s": "s",
    "service.units.count": "count",
    "service.worker.idle_frac": "ratio",
    "service.protocol.frames": "count",
    "service.protocol.wire_mb": "MB",
    "service.coordinator.self_s": "s",
    "service.coordinator.lease_retries": "count",
    "service.coordinator.worker_dead": "count",
    "service.coordinator.local_fallbacks": "count",
    "analysis.frames.ingest_s": "s",
    "analysis.figures.render_s": "s",
    "analysis.figures.count": "count",
    "analysis.report.self_s": "s",
    "trace.overhead": "ratio",
}

_ENGINE = [
    "setup_s", "run_s", "runs", "cycles", "cycles_per_s", "flits_per_s",
]
_RESOLVE = [
    "scenarios.resolve.calls", "topologies.builds", "routing.tables.builds",
]

#: Layer metrics each workload must drive above zero (the "work done
#: mostly in" column of the README's layer table).
EXERCISED = {
    "report-quick": _RESOLVE + [f"sim.engine.{m}" for m in _ENGINE] + [
        f"sim.engine_vec.{m}" for m in _ENGINE
    ] + [
        "sim.parallel.sweep_s", "sim.parallel.completion_s",
        "sim.parallel.worker_util", "scenarios.runner.rows",
        "analysis.frames.ingest_s", "analysis.figures.count",
        "analysis.report.self_s",
    ],
    "paper-flow": _RESOLVE + [
        "routing.tables.build_s", "sim.flowlevel.model_s",
        "sim.flowlevel.demand_s", "sim.flowlevel.solve_s",
        "sim.flowlevel.waterfill_s", "sim.flowlevel.points",
        "scenarios.spec.canonical_json_calls", "scenarios.spec.canonical_json_mb",
        "scenarios.runner.rows", "service.store.gets", "service.store.puts",
    ],
    "paper-replay": [
        "scenarios.spec.canonical_json_calls", "scenarios.runner.rows",
        "service.store.gets", "service.store.hit_ratio",
        "analysis.frames.ingest_s", "analysis.figures.count",
        "analysis.report.self_s",
    ],
    "service-mixed": [
        f"sim.engine_vec.{m}" for m in _ENGINE
    ] + [
        "service.units.exec_s", "service.units.count", "service.worker.idle_frac",
        "service.protocol.frames", "service.protocol.wire_mb",
        "service.coordinator.self_s", "scenarios.runner.rows",
    ],
}

#: Layer metrics predicted to stay at zero on each workload.
PREDICTED_ZERO = {
    "report-quick": [
        "sim.flowlevel.points", "service.store.gets", "service.units.count",
    ],
    "paper-flow": [
        "sim.engine.runs", "sim.engine_vec.runs", "sim.parallel.worker_util",
        "service.units.count", "analysis.figures.count",
    ],
    "paper-replay": [
        "scenarios.resolve.calls", "topologies.builds", "routing.tables.builds",
        "sim.engine.runs", "sim.engine_vec.runs", "sim.flowlevel.points",
        "sim.parallel.worker_util", "service.store.puts", "service.units.count",
    ],
    "service-mixed": [
        "sim.engine.runs", "sim.flowlevel.points", "service.store.gets",
        "analysis.figures.count",
    ],
}


def resolve_target(target: str):
    """(owner, attribute, raw object) for a ``module:attr`` target.

    For methods the raw object is the class ``__dict__`` entry, so a
    classmethod comes back as the descriptor, not a bound method.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if classes else getattr(owner, attr)
    return owner, attr, raw


def _repo_modules():
    """Loaded modules whose source lives in this repository."""
    for module in list(sys.modules.values()):
        path = getattr(module, "__file__", None)
        if path and Path(path).resolve().is_relative_to(ROOT):
            yield module


class Tracer:
    """Records spans of wrapped calls into ``out_dir``."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = self.root_pid = os.getpid()
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._base_depth = 0
        #: (owner, attribute, original) per replaced binding.
        self._patches: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if not self._patches:
            return
        self.pid = os.getpid()
        self.spans = []
        self._base_depth = len(self._stack())

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ------------------------------------------------------

    def wrap(self, name: str, fn, counters=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        A call made while a span of the same name is innermost (a
        subclass ``__init__`` calling its base, a recursive resolve)
        runs unrecorded, so a layer's time is never counted twice.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            sid = f"{tracer.pid}:{next(tracer._ids)}"
            parent = stack[-1][1] if stack else None
            stack.append((name, sid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(stack, name, sid, parent, start, None)
                raise
            tracer._close(
                stack, name, sid, parent, start,
                counters(args, result) if counters else None,
            )
            return result

        traced.__bench_traced__ = True
        return traced

    def _close(self, stack, name, sid, parent, start, counts) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append([name, sid, parent, start, end, counts])
        if self.pid != self.root_pid and len(stack) == self._base_depth:
            self.flush()

    def install(self) -> None:
        """Wrap every target at every binding site in the repository."""
        owners = [resolve_target(target) for _, target, _ in TARGETS]
        modules = list(_repo_modules())
        for (name, _, counters), (owner, attr, raw) in zip(TARGETS, owners):
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(name, raw.__func__, counters))
                else:
                    wrapped = self.wrap(name, raw, counters)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self.wrap(name, raw, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, key, raw))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            setattr(*self._patches.pop())

    def flush(self) -> None:
        """Append this process's recorded spans to its span file."""
        if not self.spans:
            return
        spans, self.spans = self.spans, []
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for name, sid, parent, start, end, counts in spans:
                fh.write(json.dumps({
                    "name": name, "id": sid, "parent": parent,
                    "pid": int(sid.split(":")[0]), "start": start, "end": end,
                    "counts": counts,
                }) + "\n")


def traced_objects() -> list[str]:
    """Binding sites in the repository that currently hold a wrapper."""
    found = []
    for module in _repo_modules():
        for key, value in vars(module).items():
            if getattr(value, "__bench_traced__", False):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type):
                for attr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, "__bench_traced__", False):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


def read_spans(directory) -> list[dict]:
    """Every span written under ``directory``, from all processes."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover.

    Children may run in other processes (a pool under a sweep), in
    parallel with each other, so the union of their intervals is
    subtracted, not their sum.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def layer_metrics(spans: list[dict], health: dict | None = None,
                  quarantined: int = 0, workers: int = 2) -> dict[str, float]:
    """Per-layer metrics of one traced run (``trace.overhead`` excluded).

    ``health`` carries the coordinator's event counts and
    ``quarantined`` the store's quarantine file count; both are read
    from outputs rather than spans.  ``workers`` is the pool size that
    ``sim.parallel.worker_util`` divides by.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def count(name):
        return len(by_name[name])

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(name):
        return sum(own[s["id"]] for s in by_name[name])

    def summed(name, key):
        return sum((s["counts"] or {}).get(key, 0) for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "scenarios.resolve.calls": count("scenarios.resolve"),
        "scenarios.resolve.self_s": self_s("scenarios.resolve"),
        "topologies.build_s": total("topologies.build"),
        "topologies.builds": count("topologies.build"),
        "routing.tables.build_s": total("routing.tables.build"),
        "routing.tables.builds": count("routing.tables.build"),
        "routing.tables.next_hop_s": total("routing.tables.next_hop"),
    }
    for layer in ("sim.engine", "sim.engine_vec"):
        run_s = total(f"{layer}.run")
        m[f"{layer}.setup_s"] = total(f"{layer}.setup")
        m[f"{layer}.run_s"] = run_s
        m[f"{layer}.runs"] = count(f"{layer}.run")
        m[f"{layer}.cycles"] = summed(f"{layer}.run", "cycles")
        m[f"{layer}.cycles_per_s"] = ratio(m[f"{layer}.cycles"], run_s)
        m[f"{layer}.flits_per_s"] = ratio(summed(f"{layer}.run", "flits"), run_s)
    m.update({
        "sim.flowlevel.model_s": total("sim.flowlevel.model"),
        "sim.flowlevel.demand_s": total("sim.flowlevel.demand"),
        "sim.flowlevel.solve_s": total("sim.flowlevel.solve"),
        "sim.flowlevel.waterfill_s": total("sim.flowlevel.waterfill"),
        "sim.flowlevel.points": count("sim.flowlevel.solve"),
        "sim.parallel.sweep_s": self_s("sim.parallel.sweep"),
        "sim.parallel.completion_s": self_s("sim.parallel.completion"),
    })
    # Pool utilisation: engine time the pool's children spent under a
    # sweep, over the workers' share of that sweep's wall clock.
    pooled = {
        s["id"]: s for name in ("sim.parallel.sweep", "sim.parallel.completion")
        for s in by_name[name]
    }
    busy = 0.0
    pooled_wall = {}
    for span in spans:
        parent = pooled.get(span["parent"])
        if parent is not None and span["pid"] != parent["pid"]:
            busy += span["end"] - span["start"]
            pooled_wall[parent["id"]] = parent["end"] - parent["start"]
    m["sim.parallel.worker_util"] = ratio(busy, workers * sum(pooled_wall.values()))
    gets = count("service.store.get")
    worker_pids = {s["pid"] for s in by_name["service.worker.serve"]}
    worker_exec = sum(
        s["end"] - s["start"] for s in by_name["service.units.exec"]
        if s["pid"] in worker_pids
    )
    health = health or {}
    m.update({
        "scenarios.spec.canonical_json_s": total("scenarios.spec.canonical_json"),
        "scenarios.spec.canonical_json_calls": count("scenarios.spec.canonical_json"),
        "scenarios.spec.canonical_json_mb": summed("scenarios.spec.canonical_json", "bytes") / 1e6,
        "scenarios.runner.self_s": self_s("scenarios.runner"),
        "scenarios.runner.rows": summed("scenarios.runner", "rows"),
        "service.store.get_s": total("service.store.get"),
        "service.store.gets": gets,
        "service.store.hit_ratio": ratio(summed("service.store.get", "hit"), gets),
        "service.store.put_s": total("service.store.put"),
        "service.store.puts": count("service.store.put"),
        "service.store.quarantined": quarantined,
        "service.units.exec_s": total("service.units.exec"),
        "service.units.count": count("service.units.exec"),
        "service.worker.idle_frac": (
            1.0 - ratio(worker_exec, total("service.worker.serve"))
            if worker_pids else 0.0
        ),
        "service.protocol.frames": count("service.protocol.frame"),
        "service.protocol.wire_mb": summed("service.protocol.frame", "bytes") / 1e6,
        "service.coordinator.self_s": self_s("service.coordinator"),
        "service.coordinator.lease_retries": health.get("lease_retries", 0),
        "service.coordinator.worker_dead": health.get("worker_dead", 0),
        "service.coordinator.local_fallbacks": health.get("local_fallbacks", 0),
        "analysis.frames.ingest_s": total("analysis.frames.ingest"),
        "analysis.figures.render_s": total("analysis.figures.render"),
        "analysis.figures.count": count("analysis.figures.render"),
        "analysis.report.self_s": self_s("analysis.report"),
    })
    return m
