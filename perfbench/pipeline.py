"""The solve pipeline called layer by layer, with one span per public call.

``solve_file`` repeats what ``timmdp solve`` does with its default flags
(read, validate, partition, index, one graph per agent, search; or read,
validate, dp) through the library's public functions, so each call can be
timed from outside the program. ``solve_instance`` is the same pipeline
from an in-memory instance; the benchmark uses it for reference values.

Spans are kept in memory by a ``Tracer`` and written out once at the end.
Counters and graph sizes are taken after the spans close, so measuring
them costs no traced time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from timmdp import baselines, formats
from timmdp.crg import InstanceIndex, build_crg, partition_rewards, size_audit
from timmdp.model import validate_instance
from timmdp.search import SearchConfig, core_solve

# Per-run timings that are not spans of their own: the search walk and the
# policy extraction both happen inside the one ``core_solve`` call.
WALK = "search.walk"
EXTRACT = "search.extract_policy"


class PipelineError(Exception):
    """The program rejected an input the benchmark generated."""


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Spans of every pipeline run, plus derived per-run timings."""

    spans: list[Span] = field(default_factory=list)
    derived: dict[str, dict[str, float]] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, op: str):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, op, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def note(self, op: str, name: str, seconds: float) -> None:
        self.derived.setdefault(op, {})[name] = seconds

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def per_op(self) -> dict[str, dict[str, float]]:
        """op id -> layer name -> summed self time, with the root span's
        whole duration under ``"total"`` and the derived timings merged in."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            layers = out.setdefault(span.op, {})
            if span.parent is None:
                layers["total"] = layers.get("total", 0.0) + span.end - span.start
            else:
                layers[span.name] = layers.get(span.name, 0.0) + own
        for op, extra in self.derived.items():
            out.setdefault(op, {}).update(extra)
        return out

    def to_document(self) -> dict:
        own = self.self_times()
        return {"spans": [{"id": s.id, "name": s.name, "op": s.op,
                           "parent": s.parent, "start": s.start,
                           "end": s.end, "self": o}
                          for s, o in zip(self.spans, own)],
                "derived": self.derived}


@dataclass
class Solved:
    instance: object
    value: float
    policy: object
    counts: dict[str, int]


def solve_file(path: Path, algorithm: str, tracer: Tracer, op: str) -> Solved:
    """Read, validate and solve one instance file, one span per call."""
    with tracer.span(f"solve.{algorithm}", op):
        with tracer.span("formats.read_instance", op):
            m = formats.read_instance(path.read_text(encoding="utf-8"))
        with tracer.span("model.validate_instance", op):
            violations = validate_instance(m)
        if violations:
            raise PipelineError(f"{path.name}: {violations[0]}")
        return _solve(m, algorithm, tracer, op)


def solve_instance(m, algorithm: str, tracer: Tracer, op: str) -> Solved:
    """Solve an in-memory instance; no file or validation spans."""
    with tracer.span(f"solve.{algorithm}", op):
        return _solve(m, algorithm, tracer, op)


def _solve(m, algorithm: str, tracer: Tracer, op: str) -> Solved:
    if algorithm == "dp":
        with tracer.span("baselines.dp_solve", op):
            result = baselines.dp_solve(m)
        return Solved(m, result.value, result.policy, {
            "baselines.dp_states": result.stats["states"],
            "baselines.dp_joint_actions_evaluated":
                result.stats["joint_actions_evaluated"]})
    if algorithm != "core":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    with tracer.span("crg.partition_rewards", op):
        partition = partition_rewards(m)
    with tracer.span("crg.instance_index", op):
        index = InstanceIndex(m)
    graphs = {}
    for i in m.agents:
        with tracer.span("crg.build_crg", op):
            graphs[i] = build_crg(m, partition, i, index=index)
    with tracer.span("search.core_solve", op) as span:
        report = core_solve(m, graphs, SearchConfig())
    if report.status != "solved":
        raise PipelineError(f"core search ended with status {report.status}")
    tracer.note(op, WALK, report.wall_time)
    tracer.note(op, EXTRACT, span.end - span.start - report.wall_time)
    stats = report.stats
    return Solved(m, report.value, report.policy, {
        "search.joint_actions_evaluated": stats.joint_actions_evaluated,
        "search.nodes_pruned": stats.nodes_pruned,
        "search.decouple_events": stats.decouple_events,
        "search.max_component_size": stats.max_component_size,
        "search.component_solves": len(report.trace),
        "crg.transition_trees": sum(len(g.trees) for g in graphs.values()),
        "crg.graph_size": sum(size_audit(g).measured
                              for g in graphs.values())})


def policy_value(solved: Solved) -> float:
    """Price the returned policy independently of the solver that made it."""
    return baselines.evaluate_policy(solved.instance, solved.policy)
