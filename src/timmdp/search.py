"""Branch-and-bound policy search over execution sequences.

The solver walks the joint search space depth first. At every node it splits
the active agents into conditionally independent components (agents linked
only by reward functions that can no longer fire are solved separately and
their values added), computes probability-weighted return bounds per joint
action from the conditional return graphs, visits actions in order of
falling upper bound and skips any action whose upper bound drops below the
best lower bound seen so far. Independence is read from the graphs and the
current local states alone, so each (stage, component, component states) is
solved once and its value and decision are reused wherever it recurs. With
pruning disabled the same walk evaluates every available action, which
isolates what the graph structure alone buys.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

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
    time_budget: float | None = None  # seconds, checked at recursion entry


@dataclass
class SearchStats:
    joint_actions_evaluated: int = 0
    nodes_pruned: int = 0
    decouple_events: int = 0
    max_component_size: int = 0
    memo_hits: int = 0            # component solves answered from the table

    def as_dict(self) -> dict[str, int]:
        return {
            "joint_actions_evaluated": self.joint_actions_evaluated,
            "nodes_pruned": self.nodes_pruned,
            "decouple_events": self.decouple_events,
            "max_component_size": self.max_component_size,
            "memo_hits": self.memo_hits,
        }


@dataclass
class SolveReport:
    value: float | None
    policy: Policy | None
    stats: SearchStats
    wall_time: float
    status: str                    # "solved" or "timeout"
    algorithm: str
    # (t, component, component states) -> (value, decision), one entry per
    # distinct component solved
    trace: dict | None = None


def components(crgs: Mapping[int, ConditionalReturnGraph], t: int,
               agents: Sequence[int],
               states: Mapping[int, int]) -> list[tuple[int, ...]]:
    """Connected components of the still-interacting relation.

    A function links its scope only while a nonzero arc of it remains
    reachable in its owner's graph and no member's local state already
    rules it out. Both tests depend on the current states alone, so the
    partition can only refine along a branch.
    """
    agent_set = set(agents)
    parent = {i: i for i in agents}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in agents:
        g = crgs[i]
        for k in g.nodes[(t, states[i])].live_interactions:
            scope = g.instance.rewards[k].scope
            if not set(scope) <= agent_set or any(
                    g.index.interaction_dead(j, states[j], t, k)
                    for j in scope):
                continue
            root = find(scope[0])
            for j in scope[1:]:
                parent[find(j)] = root
    groups: dict[int, list[int]] = {}
    for i in agents:
        groups.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(g)) for g in groups.values())


def _expand(crgs: Mapping[int, ConditionalReturnGraph], masks: Mapping,
            t: int, agents: tuple[int, ...], states: tuple[int, ...],
            action: tuple[int, ...]):
    """Successor rows for one component action.

    ``masks`` holds each member's keep mask for this component (see
    ``crg.cover_mask``). Each row is (next states, probability, step reward,
    upper, lower); the bounds already include the step reward, matching the
    weighted per-transition bound the action-level pruning sums up.
    """
    per_agent = []
    for i, s, a in zip(agents, states, action):
        outs = sorted(crgs[i].outcomes(s, a))
        per_agent.append([(i, s, a, dst, p) for dst, p in outs])
    rows = []
    for combo in product(*per_agent):
        context = {i: (s, a, dst) for i, s, a, dst, _ in combo}
        p = 1.0
        reward_parts, up, dn = [], 0.0, 0.0
        for i, s, a, dst, q in combo:
            p *= q
            g = crgs[i]
            arc = resolve_arc(g, (s, a, dst), context)
            r_i = assigned_reward(arc, masks[i])
            reward_parts.append(r_i)
            child = g.nodes[(t + 1, dst)]
            up += r_i + child.upper
            dn += r_i + child.lower
        nxt = tuple(context[i][2] for i in agents)
        rows.append((nxt, p, math.fsum(reward_parts), up, dn))
    return rows


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
        # component -> per-member keep masks over its graph's functions
        self.masks: dict = {}
        self.deadline = (time.monotonic() + cfg.time_budget
                         if cfg.time_budget is not None else None)

    def solve(self, t: int, agents: tuple[int, ...],
              states: tuple[int, ...]) -> float:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeBudgetExceeded
        if t == self.m.horizon:
            return 0.0
        state_of = dict(zip(agents, states))
        comps = components(self.crgs, t, agents, state_of)
        if len(comps) > 1:
            self.stats.decouple_events += 1
        values = []
        for comp in comps:
            self.stats.max_component_size = max(self.stats.max_component_size,
                                                len(comp))
            comp_states = tuple(state_of[i] for i in comp)
            solved = self.table.get((t, comp, comp_states))
            if solved is not None:
                self.stats.memo_hits += 1
                values.append(solved[0])
            else:
                values.append(self._solve_component(t, comp, comp_states))
        return math.fsum(values)

    def _solve_component(self, t: int, agents: tuple[int, ...],
                         states: tuple[int, ...]) -> float:
        actions = list(product(*(
            self.crgs[i].nodes[(t, s)].kept_actions
            for i, s in zip(agents, states))))
        masks = self.masks.get(agents)
        if masks is None:
            masks = self.masks[agents] = {
                i: cover_mask(self.crgs[i], agents) for i in agents}
        expansions = {a: _expand(self.crgs, masks, t, agents, states, a)
                      for a in actions}
        bounds = {}
        for a, rows in expansions.items():
            bounds[a] = (math.fsum(p * up for _, p, _, up, _ in rows),
                         math.fsum(p * dn for _, p, _, _, dn in rows))
        lower_max = max(dn for _, dn in bounds.values())
        best_value, best_action = None, None
        for a in sorted(actions, key=lambda a: (-bounds[a][0], a)):
            if (self.cfg.pruning
                    and bounds[a][0] < lower_max - TOLERANCE):
                self.stats.nodes_pruned += 1
                continue
            value = math.fsum(
                p * (r + self.solve(t + 1, agents, nxt))
                for nxt, p, r, _, _ in expansions[a])
            self.stats.joint_actions_evaluated += 1
            if (best_value is None or value > best_value
                    or (value == best_value and a < best_action)):
                best_value, best_action = value, a
            lower_max = max(lower_max, value)
        value = best_value if best_value is not None else 0.0
        self.table[(t, agents, states)] = (value, best_action)
        return value

    def policy(self) -> Policy:
        """Compose the recorded per-component argmax decisions into a joint
        policy defined on every state it can reach from the start."""
        m = self.m
        entries: dict[tuple[int, JointState], JointAction] = {}
        stack = [(0, tuple(m.initial))]
        seen = set()
        while stack:
            t, s = stack.pop()
            if t >= m.horizon or (t, s) in seen:
                continue
            seen.add((t, s))
            state_of = dict(zip(m.agents, s))
            action = [None] * m.n_agents
            for comp in components(self.crgs, t, m.agents, state_of):
                comp_states = tuple(state_of[i] for i in comp)
                _, decision = self.table[(t, comp, comp_states)]
                for i, a in zip(comp, decision):
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

    Returns the optimal joint value, the policy composed from the recorded
    component decisions and search statistics. On a blown time budget the
    report carries no value and no policy and is flagged ``timeout``.
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
    policy = search.policy() if status == "solved" else None
    return SolveReport(value=value, policy=policy, stats=search.stats,
                       wall_time=wall, status=status, algorithm=algorithm,
                       trace=search.table)

