"""Exact reference solvers the graph-based search is verified against.

``dp_solve`` maximizes the finite-horizon Bellman recursion by backward
induction over the joint states actually reachable from the start, which is
the plain oracle every other algorithm here must match. ``evaluate_policy``
prices a fixed policy by enumerating its execution sequences depth first and
summing probability-weighted returns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import product

from .model import (
    JointAction,
    JointState,
    TiMmdpInstance,
    enumerate_successors,
    total_reward,
)
from .search import Policy, TimeBudgetExceeded


class StateSpaceBudgetExceeded(Exception):
    """The reachable joint state space outgrew the configured budget."""


@dataclass
class DpResult:
    value: float
    values: dict[tuple[int, JointState], float]  # V(h, .) = 0 included
    policy: Policy
    stats: dict = field(default_factory=dict)


def dp_solve(m: TiMmdpInstance, max_states: int = 2_000_000,
             time_budget: float | None = None) -> DpResult:
    """Exact value and greedy policy via depth-ordered backward induction.

    Only joint states reachable from the initial state are expanded; every
    expanded (state, action) pair is counted in the stats. Exceeding
    ``max_states`` raises StateSpaceBudgetExceeded rather than thrashing.
    """
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    layers: list[set[JointState]] = [{tuple(m.initial)}]
    total_states = 1
    for t in range(m.horizon):
        nxt: set[JointState] = set()
        for s in layers[t]:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeBudgetExceeded
            for a in m.joint_actions(s):
                for s2, _ in enumerate_successors(m, s, a):
                    nxt.add(s2)
        total_states += len(nxt)
        if total_states > max_states:
            raise StateSpaceBudgetExceeded(
                f"more than {max_states} reachable joint states")
        layers.append(nxt)

    values: dict[tuple[int, JointState], float] = {}
    entries: dict[tuple[int, JointState], JointAction] = {}
    expanded = 0
    for s in layers[m.horizon]:
        values[(m.horizon, s)] = 0.0
    for t in range(m.horizon - 1, -1, -1):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded
        for s in layers[t]:
            best, best_a = None, None
            for a in sorted(m.joint_actions(s)):
                expanded += 1
                q = math.fsum(
                    p * (total_reward(m, s, a, s2) + values[(t + 1, s2)])
                    for s2, p in enumerate_successors(m, s, a))
                if best is None or q > best:
                    best, best_a = q, a
            values[(t, s)] = best if best is not None else 0.0
            if best_a is not None:
                entries[(t, s)] = best_a
    policy = Policy(n_agents=m.n_agents, entries=entries)
    value = values[(0, tuple(m.initial))]
    stats = {"joint_actions_evaluated": expanded,
             "states": sum(len(layer) for layer in layers)}
    return DpResult(value=value, values=values, policy=policy, stats=stats)


def evaluate_policy(m: TiMmdpInstance, pi: Policy) -> float:
    """Expected value of ``pi`` from the initial state.

    Depth-first enumeration of every execution sequence the policy can
    generate, summing sequence probability times sequence return. The policy
    must be defined at each reachable (stage, state); a gap raises KeyError
    naming it.
    """
    terms: list[float] = []
    mass: list[float] = []

    def walk(t: int, s: JointState, prob: float, ret: list[float]) -> None:
        if t == m.horizon:
            terms.append(prob * math.fsum(ret))
            mass.append(prob)
            return
        a = pi.action(t, s)
        for s2, p in enumerate_successors(m, s, a):
            ret.append(total_reward(m, s, a, s2))
            walk(t + 1, s2, prob * p, ret)
            ret.pop()

    walk(0, tuple(m.initial), 1.0, [])
    total_mass = math.fsum(mass)
    if abs(total_mass - 1.0) > 1e-9:
        raise ValueError(f"sequence probabilities sum to {total_mass!r}")
    return math.fsum(terms)


def best_open_loop_value(m: TiMmdpInstance, limit: int = 200_000) -> float:
    """Best joint value when every agent sees only its own local state.

    Enumerates each agent's deterministic local policies over its reachable
    (stage, state) decision points, evaluates every combination jointly and
    keeps the best - the ceiling for plans that cannot react to other
    agents' realized outcomes. Exponential; guarded by ``limit``.
    """
    from .model import reachable_local_states

    per_agent: list[list[dict[tuple[int, int], int]]] = []
    for i in m.agents:
        reach = reachable_local_states(m, i)
        points = [(t, s) for t in range(m.horizon) for s in sorted(reach[t])]
        options = [m.locals[i].available(s) for _, s in points]
        count = 1
        for opts in options:
            count *= max(len(opts), 1)
        if count > limit:
            raise ValueError(f"agent {i} has {count} local policies; "
                             f"limit is {limit}")
        policies = []
        for combo in product(*options):
            policies.append(dict(zip(points, combo)))
        per_agent.append(policies)

    total = 1
    for ps in per_agent:
        total *= len(ps)
    if total > limit:
        raise ValueError(f"{total} joint policy combinations; limit is {limit}")

    best = None
    for combo in product(*per_agent):
        cache: dict[tuple[int, JointState], float] = {}

        def value(t: int, s: JointState) -> float:
            if t == m.horizon:
                return 0.0
            if (t, s) not in cache:
                a = tuple(combo[i][(t, s[i])] for i in m.agents)
                cache[(t, s)] = math.fsum(
                    p * (total_reward(m, s, a, s2) + value(t + 1, s2))
                    for s2, p in enumerate_successors(m, s, a))
            return cache[(t, s)]

        v = value(0, tuple(m.initial))
        if best is None or v > best:
            best = v
    return best
