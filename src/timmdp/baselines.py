"""Exact reference solvers the graph-based search is verified against.

``dp_solve`` maximizes the finite-horizon Bellman recursion by backward
induction over the joint states actually reachable from the start, which is
the plain oracle every other algorithm here must match. Under transition
independence a reward function's expected step reward depends only on the
local states and actions of its own scope, so each Q-value is the sum of
those expected rewards, each computed once per (function, scope states,
scope actions) over the scope's own local outcomes, plus the
probability-weighted values of the joint successors. ``evaluate_policy``
prices a fixed policy by enumerating its execution sequences depth first
and summing probability-weighted returns with the per-transition
``total_reward``, so it does not rely on that decomposition.

Both price rewards through the instance's one evaluator,
``TiMmdpInstance.reward``, which the graph build shares, and stay
independent of the graph search: nothing here reads the conditional return
graphs or the search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter, mul

from .model import (
    JointAction,
    JointState,
    Policy,
    TiMmdpInstance,
    TimeBudgetExceeded,
    enumerate_successors,
    total_reward,
)


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
    expanded (state, action) pair is counted in the stats. Each Q-value is
    ``fsum(E[r_f | scope states, scope actions]) + fsum(p * V(t+1, s'))``.
    Reaching more than ``max_states`` joint states raises
    StateSpaceBudgetExceeded rather than thrashing; the time budget is
    checked at every joint state of both passes.
    """
    deadline = (time.monotonic() + time_budget
                if time_budget is not None else None)

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded

    # (agent, state, action) -> (next states, probabilities), sorted
    local_outcomes: dict[tuple[int, int, int], tuple[tuple, tuple]] = {}

    def outcomes(i: int, si: int, ai: int) -> tuple[tuple, tuple]:
        key = (i, si, ai)
        outs = local_outcomes.get(key)
        if outs is None:
            ordered = sorted(m.locals[i].outcomes(si, ai))
            outs = local_outcomes[key] = (tuple(d for d, _ in ordered),
                                          tuple(q for _, q in ordered))
        return outs

    layers: list[set[JointState]] = [{tuple(m.initial)}]
    total_states = 1
    for t in range(m.horizon):
        nxt: set[JointState] = set()
        for s in layers[t]:
            check_deadline()
            for a in m.joint_actions(s):
                nxt.update(product(*(outcomes(i, s[i], a[i])[0]
                                     for i in m.agents)))
                if total_states + len(nxt) > max_states:
                    raise StateSpaceBudgetExceeded(
                        f"more than {max_states} reachable joint states")
        total_states += len(nxt)
        layers.append(nxt)

    # per function: (scope states, scope actions) -> expected step reward
    expected: list[dict[tuple, float]] = [{} for _ in m.rewards]
    scope_of = [itemgetter(*rf.scope) for rf in m.rewards]

    later = dict.fromkeys(layers[m.horizon], 0.0)  # V(t + 1, .) by state
    values = {(m.horizon, s): 0.0 for s in later}
    entries: dict[tuple[int, JointState], JointAction] = {}
    expanded = 0
    for t in range(m.horizon - 1, -1, -1):
        current: dict[JointState, float] = {}
        for s in layers[t]:
            check_deadline()
            scope_states = [get(s) for get in scope_of]
            best, best_a = None, None
            for a in sorted(m.joint_actions(s)):
                expanded += 1
                rewards = []
                for k, get in enumerate(scope_of):
                    key = (scope_states[k], get(a))
                    r = expected[k].get(key)
                    if r is None:
                        r = expected[k][key] = _expected_step_reward(
                            m, k, s, a, outcomes)
                    rewards.append(r)
                reward = math.fsum(rewards)
                nexts, probs = [], [1.0]
                for i in m.agents:
                    dsts, qs = outcomes(i, s[i], a[i])
                    nexts.append(dsts)
                    probs = [p * q for p in probs for q in qs]
                q = reward + math.fsum(
                    map(mul, probs, map(later.__getitem__, product(*nexts))))
                if best is None or q > best:
                    best, best_a = q, a
            current[s] = values[(t, s)] = best if best is not None else 0.0
            if best_a is not None:
                entries[(t, s)] = best_a
        later = current
    policy = Policy(n_agents=m.n_agents, entries=entries)
    value = values[(0, tuple(m.initial))]
    stats = {"joint_actions_evaluated": expanded,
             "states": sum(len(layer) for layer in layers)}
    return DpResult(value=value, values=values, policy=policy, stats=stats)


def _expected_step_reward(m: TiMmdpInstance, k: int, s: JointState,
                          a: JointAction, outcomes) -> float:
    """E[r_k | s, a]: the probability-weighted fsum of function k over the
    product of its scope agents' own sorted local outcomes."""
    scope = m.rewards[k].scope
    per_agent = [zip(*outcomes(j, s[j], a[j])) for j in scope]
    terms = []
    for combo in product(*per_agent):
        p = 1.0
        trs = {}
        for j, (d, q) in zip(scope, combo):
            p *= q
            trs[j] = (s[j], a[j], d)
        terms.append(p * m.reward(k, trs))
    return math.fsum(terms)


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

