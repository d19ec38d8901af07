"""Branch-and-bound policy search over execution sequences.

The solver walks the joint search space depth first, one table entry per
(stage, component, component states). A component is a set of agents still
linked by an interaction function that can fire. Each agent's liveness
signature - the functions it leaves able to link from its state - is compiled
once per (stage, agent, state); a function links its scope exactly when it is
in every scope member's signature. The root, every successor and the policy
extraction take their parts from one partition per (component, signature
vector). Agents in different components are solved separately and their
values added, so each entry is solved once and its value and decision are
reused wherever it recurs.

Within a component every kept joint action gets return bounds from the
conditional return graphs. A member's share of a bound is its expected
assigned reward, taken over the outcomes of the agents its graph reads
inside the component only, plus the expected bound of its own next graph
node; the reward is cached per (member, scope states, scope actions) and
shared by every action and component state that agree on them. Actions are
visited in order of falling upper bound and skipped once their upper bound
drops below the best lower bound seen so far. With pruning disabled every
action is evaluated, which isolates what the graph structure alone buys.

An evaluated action is worth its members' expected rewards plus the expected
value of the next stage. Whether a function still links its scope there
depends on each scope member's own next state, so each member's outcomes
fall into classes by liveness signature. One vector of classes fixes the
next-stage partition, and under it the expected sum of component values
splits into one sum per part over that part's own outcomes. Each part's
states are looked up in the table or solved into it; the time budget is
checked before each fresh solve.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field
from itertools import product
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from .crg import (
    ConditionalReturnGraph,
    assigned_reward,
    cover_mask,
    resolve_arc,
)
from .model import (
    JointAction,
    JointState,
    Policy,
    TiMmdpInstance,
    TimeBudgetExceeded,
    enumerate_successors,
)


# An action is pruned when its upper bound falls this far below the best
# lower bound, so bounds that tie up to rounding are still walked.
TOLERANCE = 1e-9


@dataclass
class SearchConfig:
    pruning: bool = True          # False gives the plain graph-backed search
    time_budget: float | None = None  # seconds, checked before each solve


@dataclass
class SearchStats:
    joint_actions_evaluated: int = 0
    nodes_pruned: int = 0
    # the root and each successor class whose next-stage partition splits
    decouple_events: int = 0
    max_component_size: int = 0
    memo_hits: int = 0            # component values answered from the table

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class SolveReport:
    value: float | None
    stats: SearchStats
    wall_time: float
    status: str                    # "solved" or "timeout"
    algorithm: str
    # (t, component, component states) -> (value, decision), one entry per
    # distinct component solved
    trace: dict | None = None
    # composes the policy at the first read of ``policy``; None on timeout
    extract: Callable[[], Policy] | None = field(default=None, repr=False,
                                                 compare=False)

    @functools.cached_property
    def policy(self) -> Policy | None:
        """The policy composed from the recorded decisions, extracted at
        the first read only; None on timeout."""
        return self.extract() if self.extract is not None else None


def _groups(items: Sequence[int],
            links: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Connected components of ``items`` under ``links``, each sorted, in
    sorted order."""
    parent = {x: x for x in items}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for link in links:
        root = find(link[0])
        for x in link[1:]:
            parent[find(x)] = root
    groups: dict[int, list[int]] = {}
    for x in items:
        groups.setdefault(find(x), []).append(x)
    return sorted(tuple(sorted(g)) for g in groups.values())


class _Member(NamedTuple):
    agent: int
    graph: ConditionalReturnGraph
    scope: tuple[int, ...]        # agents its graph reads in the component
    positions: tuple[int, ...]    # their positions in the component
    pick: Callable                # component tuple -> its entries at positions
    keep: tuple[int, ...] | None  # cover mask of the component


class _Component:
    """One component's members and links, compiled once.

    A link is an interaction function of a member whose scope lies inside
    the component, with its scope positions; it links them at a stage
    exactly when it is in every scope member's signature there (see
    ``_Search._signature``). Partitions are cached per signature vector.
    """

    def __init__(self, crgs: Mapping[int, ConditionalReturnGraph],
                 agents: tuple[int, ...]):
        self.agents = agents
        position = {i: q for q, i in enumerate(agents)}
        rewards = crgs[agents[0]].instance.rewards
        self.links = [(k, tuple(position[j] for j in rewards[k].scope))
                      for i in agents for k in crgs[i].functions
                      if rewards[k].is_interaction
                      and position.keys() >= set(rewards[k].scope)]
        self.members = []
        for i in agents:
            g = crgs[i]
            scope = tuple(j for j in g.scope if j in position)
            positions = tuple(position[j] for j in scope)
            pick = (itemgetter(*positions) if len(positions) > 1
                    else itemgetter(slice(positions[0], positions[0] + 1)))
            self.members.append(_Member(i, g, scope, positions, pick,
                                        cover_mask(g, agents)))
        self.partitions: dict = {}

    def partition(self, vector: tuple[frozenset, ...]) -> list:
        """The parts, as (agents, positions), sorted, that one signature
        per member splits the component into."""
        parts = self.partitions.get(vector)
        if parts is None:
            linked = [positions for k, positions in self.links
                      if all(k in vector[q] for q in positions)]
            parts = self.partitions[vector] = [
                (tuple(self.agents[q] for q in g), g)
                for g in _groups(range(len(vector)), linked)]
        return parts


class _Search:
    def __init__(self, m: TiMmdpInstance,
                 crgs: Mapping[int, ConditionalReturnGraph],
                 cfg: SearchConfig):
        self.m = m
        self.crgs = crgs
        self.cfg = cfg
        self.stats = SearchStats()
        # (t, component, component states) -> (value, best action)
        self.table: dict = {}
        self.compiled: dict[tuple[int, ...], _Component] = {}
        # (agent, scope, scope states) -> {scope actions: expected reward}
        self.rewards: dict = {}
        # (t, agent, state) -> {action: expected child (upper, lower)}
        self.children: dict = {}
        self.signatures: dict = {}   # (t, agent, state) -> signature
        self.classes: dict = {}      # (t, agent, state, action) -> classes
        self.deadline = (time.monotonic() + cfg.time_budget
                         if cfg.time_budget is not None else None)

    def solve(self, t: int, agents: tuple[int, ...],
              states: tuple[int, ...]) -> float:
        """Value of the agents from these states, split into components."""
        self._check_deadline()
        if t == self.m.horizon:
            return 0.0
        parts = self._parts(t, agents, states)
        if len(parts) > 1:
            self.stats.decouple_events += 1
        return math.fsum(
            self._value(t, part, tuple(states[q] for q in positions))
            for part, positions in parts)

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeBudgetExceeded

    def _value(self, t: int, agents: tuple[int, ...],
               states: tuple[int, ...]) -> float:
        """One component's value, from the table or solved into it."""
        solved = self.table.get((t, agents, states))
        if solved is not None:
            self.stats.memo_hits += 1
            return solved[0]
        self._check_deadline()
        return self._solve_component(t, agents, states)

    def _solve_component(self, t: int, agents: tuple[int, ...],
                         states: tuple[int, ...]) -> float:
        self.stats.max_component_size = max(self.stats.max_component_size,
                                            len(agents))
        comp = self._component(agents)
        actions = list(product(*(
            self.crgs[i].nodes[(t, s)].kept_actions
            for i, s in zip(agents, states))))
        bounds = self._bounds(t, comp, states, actions)
        lower_max = max(dn for _, dn, _ in bounds.values())
        best_value, best_action = None, None
        for a in sorted(actions, key=lambda a: (-bounds[a][0], a)):
            up, _, rewards = bounds[a]
            if self.cfg.pruning and up < lower_max - TOLERANCE:
                self.stats.nodes_pruned += 1
                continue
            value = self._evaluate(t, comp, states, a, rewards)
            self.stats.joint_actions_evaluated += 1
            if (best_value is None or value > best_value
                    or (value == best_value and a < best_action)):
                best_value, best_action = value, a
            lower_max = max(lower_max, value)
        value = best_value if best_value is not None else 0.0
        self.table[(t, agents, states)] = (value, best_action)
        return value

    def _component(self, agents: tuple[int, ...]) -> _Component:
        comp = self.compiled.get(agents)
        if comp is None:
            comp = self.compiled[agents] = _Component(self.crgs, agents)
        return comp

    def _parts(self, t: int, agents: tuple[int, ...],
               states: tuple[int, ...]) -> list:
        """The parts, as (agents, positions), that the members' signatures
        at these states split the agents into."""
        return self._component(agents).partition(tuple(
            self._signature(t, i, s) for i, s in zip(agents, states)))

    def _bounds(self, t: int, comp: _Component, states: tuple[int, ...],
                actions: Sequence[tuple[int, ...]]) -> dict:
        """Per action: (upper, lower, members' expected rewards).

        Each bound sums, over members, the expected assigned reward and the
        expected bound of the member's next graph node.
        """
        per_member = [
            (q, member, member.pick,
             self.rewards.setdefault(
                 (member.agent, member.scope, member.pick(states)), {}),
             self.children.setdefault((t, member.agent, states[q]), {}))
            for q, member in enumerate(comp.members)]
        bounds = {}
        for a in actions:
            rewards, ups, dns = [], [], []
            for q, member, pick, expected, children in per_member:
                sub = pick(a)
                r = expected.get(sub)
                if r is None:
                    r = expected[sub] = self._expected_reward(
                        member, states, a)
                child = children.get(a[q])
                if child is None:
                    child = children[a[q]] = self._child_bounds(
                        t, member, states[q], a[q])
                rewards.append(r)
                ups += (r, child[0])
                dns += (r, child[1])
            bounds[a] = (math.fsum(ups), math.fsum(dns), rewards)
        return bounds

    def _expected_reward(self, member: _Member, states: tuple[int, ...],
                         action: tuple[int, ...]) -> float:
        """E[r_i] over the outcomes of the agents i's graph reads inside the
        component; the agents it reads outside are left out of the context."""
        i, g, scope, positions, _, keep = member
        locals_ = self.m.locals
        outs = [locals_[j].outcomes(states[q], action[q])
                for j, q in zip(scope, positions)]
        terms = []
        context = {}
        for row in product(*outs):
            p = 1.0
            for j, q, (dst, pr) in zip(scope, positions, row):
                p *= pr
                context[j] = (states[q], action[q], dst)
            terms.append(p * assigned_reward(
                resolve_arc(g, context[i], context), keep))
        return math.fsum(terms)

    def _child_bounds(self, t: int, member: _Member, state: int,
                      action: int) -> tuple[float, float]:
        g = member.graph
        children = [(p, g.nodes[(t + 1, dst)])
                    for dst, p in g.outcomes(state, action)]
        return (math.fsum(p * c.upper for p, c in children),
                math.fsum(p * c.lower for p, c in children))

    def _signature(self, t: int, i: int, state: int) -> frozenset:
        """The interaction functions reading agent i that are not dead from
        its state at stage t (``InstanceIndex.interaction_dead``)."""
        key = (t, i, state)
        sig = self.signatures.get(key)
        if sig is None:
            index = self.crgs[i].index
            sig = self.signatures[key] = frozenset(
                k for k in index.touching[i]
                if not index.interaction_dead(i, state, t, k))
        return sig

    def _outcome_classes(self, t: int, i: int, state: int,
                         action: int) -> list:
        """Agent i's outcomes of ``action`` grouped by their signature at
        stage t, as (signature, class probability, outcomes); a lone class
        has probability 1.0 exactly."""
        key = (t, i, state, action)
        classes = self.classes.get(key)
        if classes is None:
            outs = self.m.locals[i].outcomes(state, action)
            grouped: dict[frozenset, list] = {}
            for dst, p in outs:
                grouped.setdefault(self._signature(t, i, dst), []).append(
                    (dst, p))
            if len(grouped) == 1:
                classes = [(sig, 1.0, outs) for sig in grouped]
            else:
                classes = [(sig, math.fsum(p for _, p in cls), cls)
                           for sig, cls in grouped.items()]
            self.classes[key] = classes
        return classes

    def _evaluate(self, t: int, comp: _Component, states: tuple[int, ...],
                  action: tuple[int, ...], rewards: list[float]) -> float:
        """fsum of the members' expected rewards and the expected value of
        the next stage.

        Under one vector of outcome classes the next-stage partition is
        fixed, and the expected sum of part values is the sum of each part's
        expectation over its own members' classes, weighted by the class
        probabilities of the members outside it.
        """
        nt = t + 1
        terms = list(rewards)
        if nt == self.m.horizon:
            return math.fsum(terms)
        if len(states) == 1:  # nothing to split, so no signatures needed
            terms.append(self._part_value(nt, comp.agents, [
                comp.members[0].graph.outcomes(states[0], action[0])]))
            return math.fsum(terms)
        per_member = [self._outcome_classes(nt, i, s, a)
                      for i, s, a in zip(comp.agents, states, action)]
        # with one class per member there is one vector, every weight is 1.0
        # and no part sum recurs
        single = all(len(classes) == 1 for classes in per_member)
        sums: dict = {}
        for combo in product(*per_member):
            vector = tuple(sig for sig, _, _ in combo)
            parts = comp.partition(vector)
            if len(parts) > 1:
                self.stats.decouple_events += 1
            for agents, positions in parts:
                outcomes = [combo[q][2] for q in positions]
                if single:
                    terms.append(self._part_value(nt, agents, outcomes))
                    continue
                key = (positions, tuple(vector[q] for q in positions))
                e = sums.get(key)
                if e is None:
                    e = sums[key] = self._part_value(nt, agents, outcomes)
                weight = 1.0
                for q, (_, p, _) in enumerate(combo):
                    if q not in positions:
                        weight *= p
                terms.append(weight * e)
        return math.fsum(terms)

    def _part_value(self, t: int, agents: tuple[int, ...],
                    outcomes: list) -> float:
        """Expected table value of one part over its members' outcomes."""
        terms = []
        for row in product(*outcomes):
            p = 1.0
            for _, pr in row:
                p *= pr
            terms.append(p * self._value(t, agents,
                                         tuple(dst for dst, _ in row)))
        return math.fsum(terms)

    def policy(self) -> Policy:
        """Compose the recorded per-component argmax decisions into a joint
        policy defined on every state it can reach from the start."""
        m = self.m
        agents = tuple(m.agents)
        entries: dict[tuple[int, JointState], JointAction] = {}
        stack = [(0, tuple(m.initial))]
        seen = set()
        while stack:
            t, s = stack.pop()
            if t >= m.horizon or (t, s) in seen:
                continue
            seen.add((t, s))
            action = [None] * m.n_agents
            for part, positions in self._parts(t, agents, s):
                _, decision = self.table[(t, part,
                                          tuple(s[q] for q in positions))]
                for i, a in zip(part, decision):
                    action[i] = a
            joint = tuple(action)
            entries[(t, s)] = joint
            for nxt, _ in enumerate_successors(m, s, joint):
                stack.append((t + 1, nxt))
        return Policy(n_agents=m.n_agents, entries=entries)


def core_solve(m: TiMmdpInstance,
               crgs: Mapping[int, ConditionalReturnGraph],
               cfg: SearchConfig | None = None) -> SolveReport:
    """Solve the instance exactly; see the module docstring for the walk.

    Returns the optimal joint value, search statistics and the policy
    composed from the recorded component decisions, which is extracted at
    its first read. On a blown time budget the report carries no value and
    no policy and is flagged ``timeout``.
    """
    cfg = cfg or SearchConfig()
    search = _Search(m, crgs, cfg)
    agents = tuple(m.agents)
    start = time.perf_counter()
    try:
        value = search.solve(0, agents, tuple(m.initial))
        status = "solved"
    except TimeBudgetExceeded:
        value, status = None, "timeout"
    wall = time.perf_counter() - start
    algorithm = "core" if cfg.pruning else "crg-ps"
    return SolveReport(value=value, stats=search.stats, wall_time=wall,
                       status=status, algorithm=algorithm, trace=search.table,
                       extract=search.policy if status == "solved" else None)

