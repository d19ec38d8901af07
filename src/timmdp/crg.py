"""Conditional return graphs: compact per-agent storage of assigned rewards.

Each agent owns a disjoint share of the reward functions. Its graph is a
layered DAG over its reachable local states; every local transition carries a
small tree that discriminates exactly those actions and state moves of other
agents that can change the assigned rewards: their dependent actions and
influential state pairs, which ``transition_influence`` reads off an entry
index. The index holds, once per function and owner, the realizable
non-default table entries keyed by the owner's slice, each with its other
members' dependent-action and influence flags, so a transition's influence is
the union over the few entries under its slices. Everything else is grouped
behind an "any other action" wildcard arc and an "any other state pair"
no-influence arc, both of which pin the interaction contribution to zero.
Under a tree, each available transition of another agent takes one class,
the (action label, influence label) pair its action and state pair fall
under, and the tree's leaf arcs are the product of its agents' classes. An
agent's labels, class map and completions form one record per distinct
influence, shared by every tree of the graph that has it. Each leaf arc is
priced through one completion per other agent, the first available
transition of its class, by the instance's one reward evaluator
(``TiMmdpInstance.reward``), and enters the next layer labeled with the
fully resolved reward, which is what makes recursive return bounds cheap;
resolving an arc during search is one class lookup per tree level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, NamedTuple, Sequence

from .model import LocalTransition, TiMmdpInstance

WILDCARD = "*"
NO_INFLUENCE = "⊥"


class CrgError(Exception):
    """Internal inconsistency: a lookup path that the graph cannot resolve."""


# ---------------------------------------------------------------------------
# Reward partitioning


@dataclass
class RewardPartition:
    """Disjoint assignment of reward-function indices to agents."""

    assignment: dict[int, list[int]]

    def functions(self, agent: int) -> list[int]:
        return self.assignment.get(agent, [])


def partition_rewards(m: TiMmdpInstance,
                      fixed: Mapping[int, Sequence[int]] | None = None,
                      ) -> RewardPartition:
    """Split the reward set over agents.

    By default each agent's own local functions are pinned to itself and
    every interaction function is handed greedily to the in-scope agent
    holding the fewest functions so far (ties to the lowest agent id).
    Passing a ``fixed`` mapping agent -> function indices uses that
    assignment after checking scope membership, disjointness and
    completeness.
    """
    if fixed is None:
        assignment: dict[int, list[int]] = {i: [] for i in m.agents}
        interactions = []
        for k, rf in enumerate(m.rewards):
            if rf.is_interaction:
                interactions.append(k)
            else:
                assignment[rf.scope[0]].append(k)
        for k in interactions:
            scope = m.rewards[k].scope
            best = min(scope, key=lambda j: (len(assignment[j]), j))
            assignment[best].append(k)
        return RewardPartition(assignment)

    assignment = {i: list(fixed.get(i, [])) for i in m.agents}
    seen: set[int] = set()
    for agent, fns in assignment.items():
        for k in fns:
            if not 0 <= k < len(m.rewards):
                raise ValueError(f"assignment names unknown reward {k}")
            if agent not in m.rewards[k].scope:
                raise ValueError(
                    f"reward {k} (scope {m.rewards[k].scope}) assigned to "
                    f"agent {agent} outside its scope")
            if k in seen:
                raise ValueError(f"reward {k} assigned twice")
            seen.add(k)
    missing = set(range(len(m.rewards))) - seen
    if missing:
        raise ValueError(f"assignment misses rewards {sorted(missing)}")
    return RewardPartition(assignment)


# ---------------------------------------------------------------------------
# Instance-level indices shared by CRG construction and the search


class InstanceIndex:
    """Caches of availability, the interaction functions reading each
    agent, each function's slice and entry indices and interaction
    liveness. Stage reachability, state projections and the reward
    evaluator (``TiMmdpInstance.reward``) are compiled on the instance. A
    slice index maps, per scope position, each projected (state, action,
    next state) slice to the member's available (s, s') pairs realizing
    it, and an entry is realizable when its every slice is in the index.
    """

    def __init__(self, m: TiMmdpInstance):
        self.m = m
        # Stage-free availability: every (s, a, s') with positive probability.
        self.available: list[list[LocalTransition]] = [
            [(s, a, dst) for (s, a), outs in sorted(local.transitions.items())
             for dst, _ in sorted(outs)]
            for local in m.locals]
        self.touching = [tuple(k for k, rf in enumerate(m.rewards)
                               if rf.is_interaction and i in rf.scope)
                         for i in m.agents]
        self._slices: dict[int, tuple[dict[tuple, set], ...]] = {}
        # (function, scope agent) -> (its projection, entries by its slice)
        self._entries: dict[tuple[int, int], tuple[tuple, dict]] = {}
        # function -> scope agent -> per stage, the states it is alive from
        self._alive: dict[int, dict[int, list[set[int]]]] = {}

    def slices(self, rf_index: int) -> tuple[dict[tuple, set], ...]:
        """Per scope position, each projected slice -> the member's
        available (s, s') pairs realizing it."""
        maps = self._slices.get(rf_index)
        if maps is None:
            rf = self.m.rewards[rf_index]
            maps = self._slices[rf_index] = tuple({} for _ in rf.scope)
            for by_slice, agent in zip(maps, rf.scope):
                proj = self.m.projection(agent, rf.features_read(agent))
                for s, a, dst in self.available[agent]:
                    by_slice.setdefault((proj[s], a, proj[dst]), set()).add(
                        (s, dst))
        return maps

    def entries(self, rf_index: int, owner: int) -> tuple[tuple, dict]:
        """The owner's projection under the function, and per owner slice
        the realizable table entries under it whose value differs from the
        default. Each entry is a tuple with one (agent, action, dependent,
        influential, pairs) record per other scope member: its action in the
        entry, whether swapping that action or its projected state pair
        changes the value, and the member's available pairs realizing its
        slice (``transition_influence``). Compiled once per function."""
        got = self._entries.get((rf_index, owner))
        if got is not None:
            return got
        m, rf = self.m, self.m.rewards[rf_index]
        table, default = rf.table, rf.default
        slices = self.slices(rf_index)
        projs = [m.projection(j, rf.features_read(j)) for j in rf.scope]
        distinct = [set(proj) for proj in projs]
        by_owner: list[dict[tuple, list]] = [{} for _ in rf.scope]
        for (states, actions, nexts), value in table.items():
            parts = tuple(zip(states, actions, nexts))
            if value == default or not all(
                    sl in by for by, sl in zip(slices, parts)):
                continue
            members = []
            for pos, j in enumerate(rf.scope):
                a_j = actions[pos]
                dependent = any(
                    table.get((states,
                               actions[:pos] + (b,) + actions[pos + 1:],
                               nexts), default) != value
                    for b in range(len(m.locals[j].actions)) if b != a_j)
                influential = any(
                    table.get((states[:pos] + (sp,) + states[pos + 1:],
                               actions,
                               nexts[:pos] + (np_,) + nexts[pos + 1:]),
                              default) != value
                    for sp in distinct[pos] for np_ in distinct[pos])
                members.append((j, a_j, dependent, influential,
                                slices[pos][parts[pos]]))
            for pos, by in enumerate(by_owner):
                by.setdefault(parts[pos], []).append(
                    tuple(members[:pos] + members[pos + 1:]))
        for proj, by, j in zip(projs, by_owner, rf.scope):
            self._entries[(rf_index, j)] = (proj, by)
        return self._entries[(rf_index, owner)]

    def alive(self, rf_index: int) -> dict[int, list[set[int]]]:
        """Per scope agent and stage, the states from which the interaction
        function can still yield a nonzero value.

        A slice is realizable at stage x when some pair under it starts in
        its member's ``m.reachable(j)[x]``, so other agents are quantified
        over everything reachable at matching stages. At stage x an own slice
        fires when some combination of realizable slices reads nonzero, the
        default counting for unlisted ones: a listed nonzero entry fires its
        own slice, and under a nonzero default so does an own slice listed
        with fewer combinations than the other members' realizable slices
        make. A state is alive when it is the source of a firing slice or
        has an available transition to a state alive at the next stage. One
        backward sweep per function compiles all members' answers for the
        reachable states, the only states any caller asks about.
        """
        alive = self._alive.get(rf_index)
        if alive is None:
            rf, horizon = self.m.rewards[rf_index], self.m.horizon
            positions = range(len(rf.scope))
            # per position, slice -> the source states realizing it
            sources = [{sl: {s for s, _ in pairs} for sl, pairs in by.items()}
                       for by in self.slices(rf_index)]
            alive_at = [[set() for _ in range(horizon + 1)] for _ in positions]
            counting = rf.default != 0.0
            # the entries realizable at some stage that can fire or count,
            # as (slices, whether the entry reads nonzero)
            rows = []
            for (states, actions, nexts), value in rf.table.items():
                parts = tuple(zip(states, actions, nexts))
                if (counting or value != 0.0) and all(
                        sl in src for src, sl in zip(sources, parts)):
                    rows.append((parts, value != 0.0))
            reach = [self.m.reachable(j) for j in rf.scope]
            for x in range(horizon):
                live = [{sl for sl, src in sources[pos].items()
                         if not src.isdisjoint(reach[pos][x])}
                        for pos in positions]
                # per position, own slice -> realizable combinations listed
                listed: list[dict[tuple, int]] = [{} for _ in positions]
                for parts, fires in rows:
                    if all(sl in lv for lv, sl in zip(live, parts)):
                        for pos, sl in enumerate(parts):
                            if counting:
                                listed[pos][sl] = listed[pos].get(sl, 0) + 1
                            if fires:
                                alive_at[pos][x] |= sources[pos][sl]
                for pos in positions if counting else ():
                    combos = math.prod(len(live[q]) for q in positions
                                       if q != pos)
                    for sl in live[pos]:
                        if listed[pos].get(sl, 0) < combos:
                            alive_at[pos][x] |= sources[pos][sl]
            for sets, j in zip(alive_at, rf.scope):
                for t in range(horizon - 1, -1, -1):
                    sets[t] |= {s for s, _, dst in self.available[j]
                                if dst in sets[t + 1]}
            alive = self._alive[rf_index] = dict(zip(rf.scope, alive_at))
        return alive


# ---------------------------------------------------------------------------
# Dependent actions and transition influence


def transition_influence(index: InstanceIndex, fns: Sequence[int], owner: int,
                         tr_i: LocalTransition,
                         ) -> dict[int, tuple[set[int], dict[int, set]]]:
    """What each other agent j can change of the rewards in ``fns`` when the
    owner performs tr_i: j's dependent actions, and per action of j the
    state pairs of j that influence some reward.

    Only table entries whose owner slice matches tr_i, whose value differs
    from its function's default and whose every slice is realizable by some
    available transition count; ``InstanceIndex.entries`` holds them per
    owner slice. For each other agent j in such an entry's scope:

    - j's action there is dependent when some other action of j, put into
      j's slice, produces a different value. Actions of j that no entry
      makes dependent provably cannot move any assigned reward.
    - the entry is influential when some pair of j's projected states, drawn
      from the distinct projections of j's states, changes the value when
      put into j's slice. An influential entry contributes every available
      pair (s, s') of j under the entry's action that matches its slice; any
      other entry contributes none.

    Agents that no such entry reads are left out of the result.
    """
    s, a, dst = tr_i
    result: dict[int, tuple[set[int], dict[int, set]]] = {}
    for k in fns:
        if k not in index.touching[owner]:
            continue
        proj, by_slice = index.entries(k, owner)
        for members in by_slice.get((proj[s], a, proj[dst]), ()):
            for j, a_j, dependent, influential, pairs in members:
                deps, by_action = result.setdefault(j, (set(), {}))
                if dependent:
                    deps.add(a_j)
                known = by_action.setdefault(a_j, set())
                if influential:
                    known |= pairs
    return result


# ---------------------------------------------------------------------------
# Graph structure


@dataclass
class CrgArc:
    """One fully resolved leaf arc of a transition tree."""

    components: tuple[float, ...]  # per assigned function, in g.functions order
    reward: float


@dataclass
class ClassRecord:
    """How one other agent's available transitions fall into classes, given
    what the owner's transition lets that agent influence.

    Its dependent actions give the action labels. Each action context gives
    influence labels: a dependent action, or the wildcard standing for every
    live non-dependent action. A transition's class is the (action label,
    influence label) pair it takes, and a class's completion is the first
    available transition taking it. A graph builds one record per distinct
    (agent, dependent actions, influence labels) and shares it among all
    trees with them. An agent with no influence takes one constant record
    without classes, since it stays off the skeleton.
    """

    deps: frozenset[int]
    act_labels: tuple        # sorted deps, then the wildcard if a live
                             # non-dependent action remains; () without deps
    inf_labels: dict[object, tuple]  # action context -> influence labels
    # available transition -> its class, and under None the stand-in class
    # of an absent agent, its first available transition's
    classes: dict
    completions: dict        # class -> its first available transition

    @property
    def on_skeleton(self) -> bool:
        return bool(self.deps or self.inf_labels.get(WILDCARD))


@dataclass
class TransitionTree:
    """Action tree plus influence trees for one local transition.

    Every field but the arcs is shared by the graph's trees whose
    transitions take the same owner slices, and among those, transitions
    whose local rewards agree share one tree; ``tree_labels`` reads the
    labels off the per-agent records.
    """

    skeleton: tuple[tuple[str, int], ...]  # ("act"|"inf", agent) per level
    records: dict[int, ClassRecord]        # every other scope agent's record
    classes: dict[int, dict]               # skeleton agent -> record classes
    arcs: dict[tuple, CrgArc]
    best: float                            # the best and worst arc reward
    worst: float

    @property
    def degenerate(self) -> bool:
        return not self.skeleton

    def internal_nodes(self) -> set[tuple]:
        """Distinct label prefixes, root included; empty when degenerate."""
        if self.degenerate:
            return set()
        nodes = set()
        for labels in self.arcs:
            for cut in range(len(labels)):
                nodes.add(labels[:cut])
        return nodes


@dataclass
class CrgNode:
    kept_actions: tuple[int, ...]
    # the interaction functions reading the owner that can still fire from
    # this node (``InstanceIndex.alive``); none makes it locally CRI
    live: frozenset[int]
    represented: bool
    upper: float = 0.0
    lower: float = 0.0
    # kept action -> (expected next upper, expected next lower, outcomes
    # grouped by their next node's ``live``, as (live, probability,
    # outcomes) with a lone class at exactly 1.0); represented nodes only
    steps: dict[int, tuple] = field(default_factory=dict)

    @property
    def locally_cri(self) -> bool:
        return not self.live


@dataclass
class ConditionalReturnGraph:
    owner: int
    horizon: int
    functions: tuple[int, ...]
    scope: tuple[int, ...]
    feature_level: dict[int, tuple[str, ...] | None]
    nodes: dict[tuple[int, int], CrgNode]
    trees: dict[LocalTransition, TransitionTree]
    instance: TiMmdpInstance
    index: InstanceIndex

    def node(self, t: int, state: int) -> CrgNode:
        return self.nodes[(t, state)]

    def outcomes(self, state: int, action: int) -> tuple[tuple[int, float], ...]:
        return self.instance.locals[self.owner].outcomes(state, action)

    def tree(self, s: int, a: int, s_next: int) -> TransitionTree:
        return self.trees[(s, a, s_next)]


def tree_labels(tree: TransitionTree) -> tuple[dict, dict, dict]:
    """The tree's labels keyed per agent: dependent actions per other
    agent, action labels per agent with dependent actions, and influence
    labels per (agent, action context)."""
    deps, act_labels, inf_labels = {}, {}, {}
    for j, record in tree.records.items():
        deps[j] = record.deps
        if record.deps:
            act_labels[j] = record.act_labels
        for ctx, labels in record.inf_labels.items():
            inf_labels[(j, ctx)] = labels
    return deps, act_labels, inf_labels


class _Shape(NamedTuple):
    """The part of a tree fixed by the owner slices its transition takes."""

    skeleton: tuple[tuple[str, int], ...]
    records: dict[int, ClassRecord]
    classes: dict[int, dict]
    paths: list[tuple[tuple, tuple]]  # (labels, interaction components)
    trees: dict[tuple, TransitionTree]  # local components -> shared tree


class _TreeBuilder:
    """One graph's transition trees.

    A transition's influence is fixed by the owner slices it takes in the
    entry index of each interaction function reading the owner, so trees
    are grouped by that key and each group's shape is built once. The
    interaction components of a path depend on the owner's transition only
    through that key too: an unmatched slice leaves its function at the
    default, since every slice of a table key drawn from available
    transitions is realizable. So they are priced once per shape, and only
    the owner's local functions are priced per transition.
    """

    def __init__(self, index: InstanceIndex, owner: int, fns: Sequence[int],
                 others: Sequence[int], projections: dict[int, tuple]):
        rewards = index.m.rewards
        self.index, self.owner, self.fns, self.others = (
            index, owner, fns, others)
        self.reward = index.m.reward
        self.projections = projections
        # other agent -> the actions of its available transitions
        self.live = {j: {a for _, a, _ in index.available[j]} for j in others}
        self.readers = [index.entries(k, owner) for k in fns
                        if k in index.touching[owner]]
        self.local_fns = [k for k in fns if not rewards[k].is_interaction]
        self.inter_fns = [k for k in fns if rewards[k].is_interaction]
        # each function's position in local components + interaction ones
        self.order = [(self.local_fns + self.inter_fns).index(k) for k in fns]
        self.shapes: dict[tuple, _Shape] = {}
        # (agent, deps, influence label sets) -> its shared record
        self.records: dict[tuple, ClassRecord] = {}
        self.locals: dict[LocalTransition, tuple[float, ...]] = {}

    def local_rewards(self, tr: LocalTransition) -> tuple[float, ...]:
        """The owner's local functions' values on its transition."""
        values = self.locals.get(tr)
        if values is None:
            trs = {self.owner: tr}
            values = self.locals[tr] = tuple(
                self.reward(k, trs) for k in self.local_fns)
        return values

    def tree(self, tr: LocalTransition) -> TransitionTree:
        s, a, dst = tr
        key = []
        for proj, by_slice in self.readers:
            part = (proj[s], a, proj[dst])
            key.append(part if part in by_slice else None)
        key = tuple(key)
        shape = self.shapes.get(key)
        if shape is None:
            shape = self.shapes[key] = self._shape(tr, transition_influence(
                self.index, self.fns, self.owner, tr))
        local = self.local_rewards(tr)
        tree = shape.trees.get(local)
        if tree is None:
            arcs = {}
            for labels, inter in shape.paths:
                both = local + inter
                values = tuple([both[q] for q in self.order])
                arcs[labels] = CrgArc(components=values,
                                      reward=math.fsum(values))
            rewards = [arc.reward for arc in arcs.values()]
            tree = shape.trees[local] = TransitionTree(
                skeleton=shape.skeleton, records=shape.records,
                classes=shape.classes, arcs=arcs, best=max(rewards),
                worst=min(rewards))
        return tree

    def _shape(self, tr_i: LocalTransition, influence: dict) -> _Shape:
        records = {j: self._record(j, *influence.get(j, (set(), {})))
                   for j in self.others}
        act_agents = [j for j in self.others if records[j].deps]
        inf_agents = [j for j in self.others if records[j].on_skeleton]
        skeleton = (tuple(("act", j) for j in act_agents)
                    + tuple(("inf", j) for j in inf_agents))
        # Agents off the skeleton have the one class (WILDCARD, NO_INFLUENCE),
        # completed by their first available transition.
        trs = {j: self.index.available[j][0] for j in self.others}
        trs[self.owner] = tr_i
        completions = [records[j].completions for j in inf_agents]
        paths = []
        # Paths are the product of the skeleton agents' classes.
        for combo in product(*completions):
            cls = dict(zip(inf_agents, combo))
            labels = (tuple(cls[j][0] for j in act_agents)
                      + tuple(cls[j][1] for j in inf_agents))
            for j, first, c in zip(inf_agents, completions, combo):
                trs[j] = first[c]
            paths.append((labels, tuple(self.reward(k, trs)
                                        for k in self.inter_fns)))
        return _Shape(skeleton=skeleton, records=records,
                      classes={j: records[j].classes for j in inf_agents},
                      paths=paths, trees={})

    def _record(self, j: int, dep_j: set[int], pairs_j: dict) -> ClassRecord:
        index = self.index
        nondep_live = sorted(self.live[j] - dep_j)
        # Influence labels per action context actually present; the wildcard
        # context stands for every live non-dependent action.
        contexts: dict[object, list[int]] = {a: [a] for a in sorted(dep_j)}
        if not dep_j or nondep_live:
            contexts[WILDCARD] = nondep_live
        proj = self.projections[j]
        labelled = {ctx: frozenset((proj[s], proj[dst])
                                   for a in acts
                                   for s, dst in pairs_j.get(a, ()))
                    for ctx, acts in contexts.items()}
        deps = frozenset(dep_j)
        key = (j, deps, tuple(labelled.items()))
        record = self.records.get(key)
        if record is not None:
            return record
        act_labels = (tuple(sorted(dep_j)) + ((WILDCARD,) if nondep_live
                                              else ())) if dep_j else ()
        record = self.records[key] = ClassRecord(
            deps=deps, act_labels=act_labels,
            inf_labels={ctx: tuple(sorted(labels, key=repr))
                        for ctx, labels in labelled.items()},
            classes={}, completions={})
        if record.on_skeleton:
            of, first = record.classes, record.completions
            for tr in index.available[j]:
                act = tr[1] if tr[1] in deps else WILDCARD
                pair = (proj[tr[0]], proj[tr[2]])
                if pair not in labelled[act]:
                    pair = NO_INFLUENCE
                of[tr] = (act, pair)
                first.setdefault((act, pair), tr)
            of[None] = of[index.available[j][0]]
        return record


def build_crg(m: TiMmdpInstance, partition: RewardPartition, i: int,
              index: InstanceIndex | None = None) -> ConditionalReturnGraph:
    """Construct agent i's conditional return graph for its assigned rewards.

    Other agents appear in the trees in ascending id order. Feature-level
    influence arcs are used for agent j whenever every assigned function
    reading j declares a feature scope for it.

    One backward sweep over the owner's reachable states, from stage h down
    to 0, decides each node. It builds the tree of every available
    transition on first use, which keeps every transition resolvable, and
    takes the owner's best return under its local functions only (ties to
    the lowest action id). A state from which no future interaction
    involving the owner can fire is flagged conditionally reward
    independent (its ``live`` set, the functions ``InstanceIndex.alive``
    holds there, is empty) and keeps only that locally optimal action, so the
    represented graph and its bounds leave the other actions out. The
    node's upper bound is the best, over kept actions, of the expected
    return over the owner's own outcomes, each outcome taking its tree's
    best arc reward plus the upper bound of its next node. Transition
    independence fixes the owner's outcome distribution whatever the other
    agents do, so only their behavior is maximized over, and the bound
    stays admissible. The lower bound is the worst return along any kept
    action, outcome and arc. Layer-h nodes carry zero. A forward sweep from
    the initial state then marks the nodes that kept actions reach as
    represented and records, per kept action, the expected bounds of the
    next nodes and the outcomes grouped by the next node's ``live`` set:
    what the search reads off each node it visits.
    """
    assigned_everywhere = {k for fns in partition.assignment.values() for k in fns}
    for k, rf in enumerate(m.rewards):
        if i in rf.scope and k not in assigned_everywhere:
            raise ValueError(f"partition does not cover reward {k} "
                             f"whose scope contains agent {i}")
    index = index or InstanceIndex(m)
    fns = tuple(partition.functions(i))
    scope = sorted({j for k in fns for j in m.rewards[k].scope} | {i})
    others = [j for j in scope if j != i]

    feature_level: dict[int, tuple[str, ...] | None] = {}
    for j in others:
        reading = [m.rewards[k] for k in fns if j in m.rewards[k].scope]
        declared = [rf.features_read(j) for rf in reading]
        if reading and all(d is not None for d in declared):
            merged: list[str] = []
            for d in declared:
                for f in d:
                    if f not in merged:
                        merged.append(f)
            feature_level[j] = tuple(merged)
        else:
            feature_level[j] = None
    projections = {j: m.projection(j, feature_level[j]) for j in others}

    local, reach, horizon = m.locals[i], m.reachable(i), m.horizon
    builder = _TreeBuilder(index, i, fns, others, projections)
    alive = [(k, index.alive(k)[i]) for k in index.touching[i]]

    nodes: dict[tuple[int, int], CrgNode] = {}
    trees: dict[LocalTransition, TransitionTree] = {}
    # (s, a) -> per outcome (next state, probability, local reward, tree)
    steps: dict[tuple[int, int], list] = {}
    # per state of the next stage, the owner's best return under its local
    # functions only, and its node
    below: dict[int, tuple[float, CrgNode]] = {}
    for t in range(horizon, -1, -1):
        here = {}
        for s in sorted(reach[t]):
            avail = local.available(s) if t < horizon else ()
            best = best_a = None
            for a in avail:
                step = steps.get((s, a))
                if step is None:
                    step = steps[(s, a)] = []
                    for dst, p in local.outcomes(s, a):
                        tr = (s, a, dst)
                        trees[tr] = tree = builder.tree(tr)
                        step.append((dst, p, math.fsum(
                            builder.local_rewards(tr)), tree))
                q = math.fsum(p * (r + below[dst][0])
                              for dst, p, r, _ in step)
                if best is None or q > best:
                    best, best_a = q, a
            live = frozenset(k for k, sets in alive if s in sets[t])
            kept = (best_a,) if not live and avail else avail
            ups, downs = [], []
            for a in kept:
                up = []
                for dst, p, _, tree in steps[(s, a)]:
                    child = below[dst][1]
                    up.append(p * (tree.best + child.upper))
                    downs.append(tree.worst + child.lower)
                ups.append(math.fsum(up))
            node = nodes[(t, s)] = CrgNode(
                kept_actions=kept, live=live, represented=False,
                upper=max(ups, default=0.0), lower=min(downs, default=0.0))
            here[s] = (best if best is not None else 0.0, node)
        below = here

    # the states that kept actions reach from the initial one
    frontier = {m.initial[i]}
    for t in range(horizon + 1):
        reached = set()
        for s in frontier:
            node = nodes[(t, s)]
            node.represented = True
            for a in node.kept_actions:
                outs = local.outcomes(s, a)
                children = [(p, nodes[(t + 1, dst)]) for dst, p in outs]
                grouped: dict[frozenset, list] = {}
                for (dst, p), (_, child) in zip(outs, children):
                    grouped.setdefault(child.live, []).append((dst, p))
                    reached.add(dst)
                node.steps[a] = (
                    math.fsum(p * c.upper for p, c in children),
                    math.fsum(p * c.lower for p, c in children),
                    [(live, 1.0, outs) for live in grouped]
                    if len(grouped) == 1 else
                    [(live, math.fsum(p for _, p in cls), cls)
                     for live, cls in grouped.items()])
        frontier = reached

    return ConditionalReturnGraph(
        owner=i, horizon=horizon, functions=fns, scope=tuple(scope),
        feature_level=feature_level, nodes=nodes, trees=trees, instance=m,
        index=index)


def build_crgs(m: TiMmdpInstance, partition: RewardPartition | None = None,
               ) -> dict[int, ConditionalReturnGraph]:
    """All agents' graphs over one shared instance index."""
    partition = partition or partition_rewards(m)
    index = InstanceIndex(m)
    return {i: build_crg(m, partition, i, index=index) for i in m.agents}


# ---------------------------------------------------------------------------
# Queries


def resolve_arc(g: ConditionalReturnGraph, tr_i: LocalTransition,
                context: Mapping[int, LocalTransition]) -> CrgArc:
    """Descend tr_i's transition tree to the leaf arc ``context`` selects.

    ``context`` maps other agents to their concurrent local transitions, and
    each level of the tree reads the class its agent's transition takes. An
    agent the context leaves out takes the class of its first available
    transition. Each arc was priced through a completion that picks every
    agent's transition from that agent's own class alone, so the stand-in
    changes only the components of functions that read an absent agent;
    ``cover_mask`` drops those where a decoupled search leaves the agent out,
    and every function whose scope the context covers gets the components
    of any full context extending it.
    """
    tree = g.trees.get(tr_i)
    if tree is None:
        raise CrgError(f"transition {tr_i} not represented for agent {g.owner}")
    classes = tree.classes
    labels = []
    try:
        for kind, agent in tree.skeleton:
            act, pair = classes[agent][context.get(agent)]
            labels.append(act if kind == "act" else pair)
    except KeyError:
        raise CrgError(
            f"agent {agent} cannot take transition {context.get(agent)} in "
            f"the context of agent {g.owner}'s transition {tr_i}") from None
    return tree.arcs[tuple(labels)]


def cover_mask(g: ConditionalReturnGraph,
               covered: Sequence[int]) -> tuple[int, ...] | None:
    """Positions in ``g.functions`` whose scope lies inside ``covered``, or
    None when every function's does. Compile once per (graph, cover)."""
    inside = set(covered)
    keep = tuple(pos for pos, k in enumerate(g.functions)
                 if inside.issuperset(g.instance.rewards[k].scope))
    return None if len(keep) == len(g.functions) else keep


def assigned_reward(arc: CrgArc, keep: tuple[int, ...] | None) -> float:
    """Arc reward restricted to the functions a ``cover_mask`` keeps.

    Functions straddling the cover are conditionally dead wherever a search
    legitimately solves the covered agents alone, so their true contribution
    is zero and they are dropped rather than resolved through the arc.
    ``arc.reward`` is the fsum of all components, so a full cover returns it.
    """
    if keep is None:
        return arc.reward
    return math.fsum(arc.components[pos] for pos in keep)


# ---------------------------------------------------------------------------
# Size accounting


@dataclass
class SizeAudit:
    """Measured size of a graph against its evaluated worst-case bound.

    State nodes are the per-layer local-state circles; internal nodes are
    the action/influence tree nodes hanging off layer t's transitions.
    Reward arcs (the leaf arcs entering the next layer) are also broken out
    since they count the represented transitions.
    """

    state_nodes_per_layer: list[int]
    internal_nodes_per_layer: list[int]
    arcs_per_layer: list[int]
    reward_arcs_per_layer: list[int]
    alpha: int
    rho: int
    i_max: int
    worst_case_bound: int

    @property
    def measured(self) -> int:
        return (sum(self.state_nodes_per_layer)
                + sum(self.internal_nodes_per_layer)
                + sum(self.arcs_per_layer))


def size_audit(g: ConditionalReturnGraph) -> SizeAudit:
    """Count represented nodes and arcs and evaluate the size bound.

    The bound concretizes the asymptotic expression
    h * |A_max| * |S_max|^2 * (alpha * I_max)^rho with measured parameters:
    wildcard and no-influence branches add one to each base and the per-path
    node/arc overhead contributes the constant 4 * (rho + 1), both absorbed
    by the asymptotic form. The measured size can never exceed it. alpha
    (most dependent actions) and I_max (most influence labels in one action
    context) are read per represented tree through ``tree_labels``, off the
    per-agent records the trees share, so a shared record counts at every
    tree that points at it.
    """
    m = g.instance
    h = g.horizon
    state_nodes = [0] * (h + 1)
    internal_nodes = [0] * (h + 1)
    arcs_per_layer = [0] * h
    reward_arcs = [0] * h
    alpha = 0
    i_max = 0
    for (t, s), node in g.nodes.items():
        if not node.represented:
            continue
        state_nodes[t] += 1
        for a in node.kept_actions:
            for dst, _ in g.outcomes(s, a):
                tree = g.trees[(s, a, dst)]
                n_leaf = len(tree.arcs)
                reward_arcs[t] += n_leaf
                if tree.degenerate:
                    arcs_per_layer[t] += n_leaf
                else:
                    internal = tree.internal_nodes()
                    internal_nodes[t] += len(internal)
                    # entry arc + one arc per non-root internal node + leaves
                    arcs_per_layer[t] += 1 + (len(internal) - 1) + n_leaf
                deps, _, inf_labels = tree_labels(tree)
                for d in deps.values():
                    alpha = max(alpha, len(d))
                for labels in inf_labels.values():
                    i_max = max(i_max, len(labels))
    rho = max((len(m.rewards[k].scope) - 1 for k in g.functions
               if m.rewards[k].is_interaction), default=0)
    s_max = max(len(loc.states) for loc in m.locals)
    a_max = max(len(loc.actions) for loc in m.locals)
    bound = ((h + 1) * a_max * s_max * s_max * 4 * (rho + 1)
             * ((alpha + 1) * (i_max + 1)) ** rho)
    return SizeAudit(state_nodes_per_layer=state_nodes,
                     internal_nodes_per_layer=internal_nodes,
                     arcs_per_layer=arcs_per_layer,
                     reward_arcs_per_layer=reward_arcs,
                     alpha=alpha, rho=rho, i_max=i_max,
                     worst_case_bound=bound)
