"""Stable text formats: instance JSON, result CSV and DOT graph export.

Instances and policies serialize to a canonical JSON form - sorted keys,
LF line endings, ASCII-only escapes, numbers with up to 17 significant
digits - so identical instances produce identical bytes. Reading is strict:
unknown fields, fields of the wrong JSON kind and version majors above ours
are rejected with the path of the offending field.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from .crg import NO_INFLUENCE, WILDCARD, ConditionalReturnGraph
from .model import (
    LocalAction,
    LocalMdp,
    LocalState,
    Policy,
    RewardFunction,
    TiMmdpInstance,
)

SCHEMA_VERSION = "1"


class FormatError(Exception):
    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{message}" + (f" (at {path})" if path else ""))


# ---------------------------------------------------------------------------
# Canonical JSON emission


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise FormatError(f"cannot serialize non-finite number {obj!r}")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, item in enumerate(obj):
            if idx:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for idx, key in enumerate(sorted(obj)):
            if idx:
                out.append(",")
            if not isinstance(key, str):
                raise FormatError(f"object key {key!r} is not a string")
            _emit(key, out)
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# Instance documents


def instance_to_document(m: TiMmdpInstance) -> dict:
    agents = []
    for local in m.locals:
        transitions = []
        for (s, a), outs in sorted(local.transitions.items()):
            transitions.append({
                "state": s, "action": a,
                "outcomes": [[dst, float(p)] for dst, p in sorted(outs)]})
        agents.append({
            "states": [{"id": st.id, "features": dict(st.features)}
                       for st in local.states],
            "actions": [{"id": ac.id, "label": ac.label}
                        for ac in local.actions],
            "transitions": transitions,
        })
    rewards = []
    for rf in m.rewards:
        entries = []
        for key in sorted(rf.table, key=repr):
            states, actions, nexts = key
            entries.append({
                "states": [_part_to_json(p) for p in states],
                "actions": list(actions),
                "next_states": [_part_to_json(p) for p in nexts],
                "value": float(rf.table[key]),
            })
        rewards.append({
            "scope": list(rf.scope),
            "default": float(rf.default),
            "feature_scope": (None if rf.feature_scope is None else
                              {str(j): list(f)
                               for j, f in rf.feature_scope.items()}),
            "entries": entries,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": m.metadata,
        "horizon": m.horizon,
        "initial": list(m.initial),
        "agents": agents,
        "rewards": rewards,
    }


def _part_to_json(part):
    if isinstance(part, tuple):
        return {"features": list(part)}
    return part


def write_instance(m: TiMmdpInstance) -> str:
    """Canonical text for an instance; write then read is the identity."""
    return canonical_json(instance_to_document(m))


# The JSON kinds a field may take, as the types ``json`` parses them to
# (a bool is no number), with their names in error messages; ANY is unchecked.
INTEGER, NUMBER, STRING, LIST, OBJECT, ANY = (int,), (int, float), (str,), \
    (list,), (dict,), ()
OBJECT_OR_NULL, SCALAR = (dict, type(None)), (int, float, str, bool, type(None))
_KIND_NAMES = {INTEGER: "an integer", NUMBER: "a number", STRING: "a string",
               LIST: "a list", OBJECT: "an object",
               OBJECT_OR_NULL: "an object or null", SCALAR: "a scalar"}


def _fields(obj, kinds: dict, path: str, optional: tuple = ()) -> dict:
    """``obj`` once it is an object with exactly the fields of ``kinds``
    (``optional`` ones may be missing), each of its JSON kind."""
    if type(obj) is not dict:
        raise FormatError("expected an object", path)
    if obj.keys() != kinds.keys():
        for name in sorted(obj.keys() - kinds.keys()):
            raise FormatError(f"unknown field {name!r}", path)
        for name in sorted(kinds.keys() - obj.keys() - set(optional)):
            raise FormatError(f"missing field {name!r}", path)
    for name, value in obj.items():
        kind = kinds[name]
        if kind and type(value) not in kind:
            raise FormatError(f"expected {_KIND_NAMES[kind]}",
                              f"{path}.{name}")
    return obj


def _items(values, kind: tuple, path: str) -> tuple:
    """A list whose every item is of ``kind``, as a tuple."""
    if type(values) is not list:
        raise FormatError("expected a list", path)
    for q, item in enumerate(values):
        if type(item) not in kind:
            raise FormatError(f"expected {_KIND_NAMES[kind]}", f"{path}[{q}]")
    return tuple(values)


def _parts(values: list, path: str) -> tuple:
    """State components: ids, or feature objects as tuples of any values."""
    parts = []
    for q, part in enumerate(values):
        if type(part) is not int:
            if (type(part) is not dict or len(part) != 1
                    or type(part.get("features")) is not list):
                _fields(part, {"features": LIST}, f"{path}[{q}]")  # raises
            part = tuple(part["features"])
        parts.append(part)
    return tuple(parts)


def document_to_instance(doc: dict) -> TiMmdpInstance:
    """Build an instance from a parsed document. Every field is checked for
    its JSON kind; a mismatch raises FormatError with the field's path."""
    _fields(doc, {"schema_version": ANY, "metadata": OBJECT,
                  "horizon": INTEGER, "initial": LIST, "agents": LIST,
                  "rewards": LIST}, "$")
    version = str(doc["schema_version"])
    major = version.split(".")[0]
    if not major.isdigit() or int(major) > int(SCHEMA_VERSION):
        raise FormatError(f"unsupported schema version {version!r}",
                          "$.schema_version")
    locals_ = []
    for i, block in enumerate(doc["agents"]):
        path = f"$.agents[{i}]"
        _fields(block, {"states": LIST, "actions": LIST,
                        "transitions": LIST}, path)
        states, actions, transitions = [], [], {}
        for k, st in enumerate(block["states"]):
            spath = f"{path}.states[{k}]"
            _fields(st, {"id": INTEGER, "features": OBJECT}, spath)
            _fields(st["features"], dict.fromkeys(st["features"], SCALAR),
                    f"{spath}.features")
            states.append(LocalState(st["id"], dict(st["features"])))
        for k, act in enumerate(block["actions"]):
            _fields(act, {"id": INTEGER, "label": STRING},
                    f"{path}.actions[{k}]", optional=("label",))
            actions.append(LocalAction(act["id"], act.get("label", "")))
        for k, tr in enumerate(block["transitions"]):
            tpath = f"{path}.transitions[{k}]"
            _fields(tr, {"state": INTEGER, "action": INTEGER,
                         "outcomes": LIST}, tpath)
            for q, out in enumerate(tr["outcomes"]):
                if type(out) is not list or list(map(type, out)) not in (
                        [int, int], [int, float]):
                    raise FormatError("expected a [state id, probability] "
                                      "pair", f"{tpath}.outcomes[{q}]")
            transitions[(tr["state"], tr["action"])] = tuple(
                (dst, float(p)) for dst, p in tr["outcomes"])
        locals_.append(LocalMdp(states=tuple(states), actions=tuple(actions),
                                transitions=transitions))
    rewards = []
    for k, block in enumerate(doc["rewards"]):
        path = f"$.rewards[{k}]"
        _fields(block, {"scope": LIST, "default": NUMBER,
                        "feature_scope": OBJECT_OR_NULL, "entries": LIST},
                path, optional=("default", "feature_scope"))
        feature_scope = block.get("feature_scope")
        if feature_scope is not None:
            if not all(j.isdigit() for j in feature_scope):
                raise FormatError("agent keys must be ids",
                                  f"{path}.feature_scope")
            feature_scope = {
                int(j): _items(f, STRING, f"{path}.feature_scope.{j}")
                for j, f in feature_scope.items()}
        table = {}
        for e_idx, entry in enumerate(block["entries"]):
            epath = f"{path}.entries[{e_idx}]"
            _fields(entry, {"states": LIST, "actions": LIST,
                            "next_states": LIST, "value": NUMBER}, epath)
            key = (_parts(entry["states"], f"{epath}.states"),
                   _items(entry["actions"], INTEGER, f"{epath}.actions"),
                   _parts(entry["next_states"], f"{epath}.next_states"))
            try:
                table[key] = entry["value"]
            except TypeError:  # unhashable: a feature value is no scalar
                raise FormatError("expected scalar feature values",
                                  epath) from None
        rewards.append(RewardFunction(
            scope=_items(block["scope"], INTEGER, f"{path}.scope"),
            table=table, default=block.get("default", 0.0),
            feature_scope=feature_scope))
    return TiMmdpInstance(
        locals=tuple(locals_), rewards=rewards, horizon=doc["horizon"],
        initial=_items(doc["initial"], INTEGER, "$.initial"),
        metadata=dict(doc["metadata"]))


def _parse(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"parse error at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object", "$")
    return doc


def read_instance(text: str) -> TiMmdpInstance:
    """Parse an instance document; schema errors carry the field path.

    Parsing and validation are separate: a document can parse fine and
    still fail ``validate_instance``.
    """
    return document_to_instance(_parse(text))


# ---------------------------------------------------------------------------
# Policy documents


def write_policy(policy: Policy) -> str:
    entries = [{"t": t, "state": list(s), "action": list(a)}
               for (t, s), a in sorted(policy.entries.items())]
    return canonical_json({"schema_version": SCHEMA_VERSION,
                           "n_agents": policy.n_agents, "entries": entries})


def read_policy(text: str, m: TiMmdpInstance) -> Policy:
    """Parse a policy document for instance ``m``: one state id and one
    action id per agent in every entry, each action available in its
    agent's state, and at most one entry per (stage, state). Errors carry
    the field path."""
    doc = _fields(_parse(text), {"schema_version": ANY, "n_agents": INTEGER,
                                 "entries": LIST}, "$",
                  optional=("schema_version",))
    if doc["n_agents"] != m.n_agents:
        raise FormatError(f"expected {m.n_agents} agents", "$.n_agents")
    entries = {}
    for k, entry in enumerate(doc["entries"]):
        path = f"$.entries[{k}]"
        _fields(entry, {"t": INTEGER, "state": LIST, "action": LIST}, path)
        state = _items(entry["state"], INTEGER, f"{path}.state")
        action = _items(entry["action"], INTEGER, f"{path}.action")
        if not len(state) == len(action) == m.n_agents:
            raise FormatError(f"expected one state and one action id per "
                              f"agent ({m.n_agents})", path)
        for i, (s, a) in enumerate(zip(state, action)):
            if (s, a) not in m.locals[i].transitions:
                raise FormatError(f"agent {i} has no action {a} in state {s}",
                                  f"{path}.action[{i}]")
        if (entry["t"], state) in entries:
            raise FormatError(f"a second entry for stage {entry['t']}, "
                              f"state {list(state)}", path)
        entries[(entry["t"], state)] = action
    return Policy(n_agents=m.n_agents, entries=entries)


# ---------------------------------------------------------------------------
# Result rows


RESULT_HEADER = ("instance", "algorithm", "status", "value",
                 "joint_actions_evaluated", "nodes_pruned",
                 "decouple_events", "wall_time_ms")


@dataclass
class ResultRow:
    instance: str
    algorithm: str                 # core | crg-ps | dp
    status: str                    # solved | timeout | resource
    value: float | None = None
    joint_actions_evaluated: int = 0
    nodes_pruned: int = 0
    decouple_events: int = 0
    wall_time_ms: int = 0


def write_results(rows: list[ResultRow]) -> str:
    """RFC-4180 CSV, fixed header, rows ordered by (instance, algorithm)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_HEADER)
    for row in sorted(rows, key=lambda r: (r.instance, r.algorithm)):
        value = "" if row.value is None else format(row.value, ".17g")
        writer.writerow([row.instance, row.algorithm, row.status, value,
                         row.joint_actions_evaluated, row.nodes_pruned,
                         row.decouple_events, row.wall_time_ms])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# DOT export


def _q(name: str) -> str:
    escaped = (name.replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n"))
    return '"' + escaped + '"'


def _pair_text(pair) -> str:
    before, after = pair
    return f"{before}→{after}"


def export_dot(g: ConditionalReturnGraph, bounds: bool = False) -> str:
    """Render the represented graph: circles for local states, points for
    action-tree internals, triangles for influence-tree roots; arcs carry
    action ids, wildcards, state pairs, no-influence marks and leaf rewards.
    With ``bounds``, each state label adds the node's ``[lower, upper]``
    return bound (see ``crg.build_crg``).
    """
    m = g.instance
    lines = [f"digraph crg_agent{g.owner} {{", "  rankdir=LR;"]
    for (t, s), node in sorted(g.nodes.items()):
        if not node.represented:
            continue
        label = f"s{s}@t{t}"
        if bounds:
            label += f"\n[{node.lower:.6g}, {node.upper:.6g}]"
        lines.append(f"  {_q(f'n_{t}_{s}')} [shape=circle, "
                     f"label={_q(label)}];")
    for (t, s), node in sorted(g.nodes.items()):
        if not node.represented or t >= g.horizon:
            continue
        for a in node.kept_actions:
            act_label = m.locals[g.owner].actions[a].label or str(a)
            for dst, _ in g.outcomes(s, a):
                tree = g.trees[(s, a, dst)]
                src = f"n_{t}_{s}"
                dst_name = f"n_{t + 1}_{dst}"
                if tree.degenerate:
                    for arc in tree.arcs.values():
                        lab = f"{act_label} : {arc.reward:.6g}"
                        lines.append(f"  {_q(src)} -> {_q(dst_name)} "
                                     f"[label={_q(lab)}];")
                    continue
                base = f"i_{t}_{s}_{a}_{dst}"
                n_act = sum(1 for kind, _ in tree.skeleton if kind == "act")
                internal = sorted(tree.internal_nodes(), key=repr)
                names = {prefix: f"{base}_{idx}"
                         for idx, prefix in enumerate(internal)}
                for prefix in internal:
                    shape = "triangle" if len(prefix) == n_act else "point"
                    lines.append(f"  {_q(names[prefix])} [shape={shape}, "
                                 f"label=\"\"];")
                lines.append(f"  {_q(src)} -> {_q(names[()])} "
                             f"[label={_q(act_label)}];")
                seen_edges = set()
                for labels, arc in sorted(tree.arcs.items(), key=repr):
                    for depth in range(len(labels)):
                        frm = labels[:depth]
                        to = labels[:depth + 1]
                        kind, agent = tree.skeleton[depth]
                        if to in names:
                            edge = (names[frm], names[to])
                            if edge in seen_edges:
                                continue
                            seen_edges.add(edge)
                            lab = _arc_label(m, kind, agent, labels[depth])
                            lines.append(f"  {_q(edge[0])} -> {_q(edge[1])} "
                                         f"[label={_q(lab)}];")
                        else:
                            lab = _arc_label(m, kind, agent, labels[depth])
                            lab += f" : {arc.reward:.6g}"
                            lines.append(f"  {_q(names[frm])} -> "
                                         f"{_q(dst_name)} [label={_q(lab)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _arc_label(m: TiMmdpInstance, kind: str, agent: int, label) -> str:
    if kind == "act":
        if label == WILDCARD:
            return f"*^{agent}"
        text = m.locals[agent].actions[label].label or str(label)
        return f"{text}^{agent}"
    if label == NO_INFLUENCE:
        return f"⊥^{agent}"
    return _pair_text(label)
